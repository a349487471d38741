"""Exception taxonomy shared by all spectra-forge modules.

Every concrete error belongs to one of two families, and the CLI maps a
family, not a class, to its exit code:

- :class:`InputError`: the question is malformed (zero weights, bad
  indices, wrong parity); exit 1.
- :class:`NumericFailure`: the question is well formed but the
  computation failed or refused it (divergence, singular systems,
  exhausted searches, roots on a contour); exit 2.
"""
from __future__ import annotations


class SpectraForgeError(Exception):
    """Base class for all library errors."""


class InputError(SpectraForgeError):
    """The problem is malformed; no computation can answer it."""


class NumericFailure(SpectraForgeError):
    """The computation failed on a well-formed problem, or refused it."""


class ZeroWeight(InputError):
    """A fixed factor weight b_k^j is zero where a nonzero one is required.

    Indices are 1-based: ``j`` is the factor row, ``k`` the coefficient column.
    """

    def __init__(self, j: int, k: int):
        self.j = j
        self.k = k
        super().__init__(f"weight table entry (j={j}, k={k}) is zero")


class SingularIB(NumericFailure):
    """The stacked sign-and-weight matrix is numerically singular."""


class ZeroAmplitude(NumericFailure):
    """A base-point amplitude vanished; the targets look rationally dependent.

    ``k`` is the 1-based coefficient index.
    """

    def __init__(self, k: int, value: float):
        self.k = k
        self.value = value
        super().__init__(f"base amplitude {k} is {value:.3e}, too close to zero")


class SearchExhausted(NumericFailure):
    """The dense-torus delay sweep ran out of budget for one delay index.

    ``index`` is the 0-based delay column, the first one that found no hit
    within the budget.  Columns fill in order, so it is also the number of
    independent orthants found.  ``best_distance`` (radians) is exact, not
    a bound: the smallest quarter-turn distance, over every grid point of
    the budget, of a point whose orthant, as column ``index``, lies
    outside their span (infinite if there is none).  For one group it is
    at least the epsilon asked for, and a smaller epsilon runs out the
    same way.
    """

    def __init__(self, index: int, best_distance: float):
        self.index = index
        self.best_distance = best_distance
        super().__init__(
            f"delay search for column {index} exhausted its budget "
            f"(best distance {best_distance:.4f} rad)"
        )


class NoConvergence(NumericFailure):
    """An iteration failed to reach its tolerance."""

    def __init__(self, residual: float, message: str = ""):
        self.residual = residual
        super().__init__(message or f"no convergence, final residual {residual:.3e}")


class LeftDomain(NumericFailure):
    """A solution left the admissible region (a delay <= 0 or a zero coefficient)."""


class SingularJacobian(NumericFailure):
    """The Newton Jacobian is singular or numerically unusable."""


class BoundaryRoot(NumericFailure):
    """A characteristic root sits on (or hugs) a contour after the retry."""


class TooManyRoots(NumericFailure):
    """A region contains more roots than the caller allowed."""


class BadIndex(InputError):
    """A factor-index selection is out of range or not strictly increasing."""


class BadParity(InputError):
    """The cell count has the wrong parity for the requested operation."""


class SingularB(NumericFailure):
    """The reduced leading-weight matrix is singular; realization refused.

    A nonsingular matrix is the precondition of the paper's ring result,
    not a condition without which no ring exists: with the weight table of
    ``dn_ring.ring_weight_table``, ``realization.realize`` realizes and
    ``spectrum.verify_realization`` certifies each of the refused
    selections (9, (0, 3)), (25, (5, 10)) and (9, (1, 2, 4)).  The ring
    layer refuses them so that every ring it returns is one the theorem
    covers.
    """
