"""Exception taxonomy shared by all spectra-forge modules.

Input-shaped problems (bad indices, zero weights, wrong parity) are kept
distinct from numeric failures (divergence, singular systems, exhausted
searches) so the CLI can map them to different exit codes.
"""
from __future__ import annotations


class SpectraForgeError(Exception):
    """Base class for all library errors."""


class ZeroWeight(SpectraForgeError):
    """A fixed factor weight b_k^j is zero where a nonzero one is required.

    Indices are 1-based: ``j`` is the factor row, ``k`` the coefficient column.
    """

    def __init__(self, j: int, k: int):
        self.j = j
        self.k = k
        super().__init__(f"weight table entry (j={j}, k={k}) is zero")


class SingularIB(SpectraForgeError):
    """The stacked sign-and-weight matrix is numerically singular."""


class ZeroAmplitude(SpectraForgeError):
    """A base-point amplitude vanished; the targets look rationally dependent.

    ``k`` is the 1-based coefficient index.
    """

    def __init__(self, k: int, value: float):
        self.k = k
        self.value = value
        super().__init__(f"base amplitude {k} is {value:.3e}, too close to zero")


class SearchExhausted(SpectraForgeError):
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


class NoConvergence(SpectraForgeError):
    """An iteration failed to reach its tolerance."""

    def __init__(self, residual: float, message: str = ""):
        self.residual = residual
        super().__init__(message or f"no convergence, final residual {residual:.3e}")


class LeftDomain(SpectraForgeError):
    """A solution left the admissible region (a delay <= 0 or a zero coefficient)."""


class SingularJacobian(SpectraForgeError):
    """The Newton Jacobian is singular or numerically unusable."""


class BoundaryRoot(SpectraForgeError):
    """A characteristic root sits on (or hugs) a contour after the retry."""


class TooManyRoots(SpectraForgeError):
    """A region contains more roots than the caller allowed."""


class BadIndex(SpectraForgeError):
    """A factor-index selection is out of range or not strictly increasing."""


class BadParity(SpectraForgeError):
    """The cell count has the wrong parity for the requested operation."""


class SingularB(SpectraForgeError):
    """The reduced leading-weight matrix is singular; realization refused."""
