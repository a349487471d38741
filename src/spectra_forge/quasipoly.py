"""Quasipolynomial characteristic functions of linear delay equations.

A scalar linear delay equation with point delays has the characteristic
function

    D(lam) = lam - sum_k a_k * b_k * exp(-lam * tau_k),

an entire function of the complex variable lam.  The coefficient a_k is the
free parameter of the realization problem while the weight b_k is a fixed
structural constant: 1 for a plain scalar equation, a representation
multiplier such as 2*cos(2*pi*(k-1)*j/n) for a coupled ring.  Determinants
of block-diagonalizable coupled systems are products of such factors, each
raised to an integer multiplicity.

The exponent convention is exp(-lam * tau) throughout, which is the one a
point delay x(t - tau) induces.  All evaluation is 64-bit complex
arithmetic; reference values in the test-suite come from independent
high-precision oracles.
"""
from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Term",
    "ScalarFactor",
    "CharProduct",
    "evaluate",
    "evaluate_derivative",
    "evaluate_many",
    "evaluate_derivative_many",
    "evaluate_product",
    "residual_on_targets",
    "factor_to_dict",
    "factor_from_dict",
]


@dataclass(frozen=True)
class Term:
    """One delayed feedback term: contributes a*b*exp(-lam*tau) to the sum."""

    a: float
    b: float
    tau: float


def _as_terms(terms: Iterable) -> tuple[Term, ...]:
    out = []
    for t in terms:
        if not isinstance(t, Term):
            a, b, tau = t
            t = Term(float(a), float(b), float(tau))
        out.append(t)
    return tuple(out)


@dataclass(frozen=True)
class ScalarFactor:
    """One factor lam - sum_k a_k b_k exp(-lam tau_k), with a multiplicity.

    Delays must be nonnegative but need not be distinct.  Weights may be any
    real number including zero; zero weights occur in even-size rings and
    must stay representable so degeneracies can be reported.  The
    multiplicity, an integer >= 1 (2.0 reads as 2, 2.7 is a ValueError), is
    stored here but applied only by :func:`evaluate_product`; root finding
    treats every factor at multiplicity one.
    """

    terms: tuple[Term, ...]
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "terms", _as_terms(self.terms))
        object.__setattr__(self, "multiplicity", _count(self.multiplicity, "multiplicity"))
        for t in self.terms:
            if not (t.tau >= 0.0):
                raise ValueError(f"delay {t.tau} is negative")

    def coefficient_bound(self) -> float:
        """sum_k |a_k b_k|, an upper bound for |D(lam) - lam| when Re lam >= 0.

        Left of the imaginary axis |exp(-lam tau_k)| exceeds 1 and the bound
        fails; the spectrum layer uses the value only as a magnitude scale
        for its tolerances, not as a bound.
        """
        return float(sum(abs(t.a * t.b) for t in self.terms))


@dataclass(frozen=True)
class CharProduct:
    """A nonempty product of scalar factors raised to their multiplicities."""

    factors: tuple[ScalarFactor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("product must contain at least one factor")


def evaluate(factor: ScalarFactor, lam: complex) -> complex:
    """Value of the factor at lam, multiplicity not applied."""
    acc = complex(lam)
    for t in factor.terms:
        acc -= t.a * t.b * cmath.exp(-lam * t.tau)
    return acc


def evaluate_derivative(factor: ScalarFactor, lam: complex) -> complex:
    """Analytic derivative: 1 + sum_k a_k b_k tau_k exp(-lam tau_k)."""
    acc = 1.0 + 0.0j
    for t in factor.terms:
        acc += t.a * t.b * t.tau * cmath.exp(-lam * t.tau)
    return acc


def _term_arrays(factor: ScalarFactor):
    ab = np.array([t.a * t.b for t in factor.terms], dtype=float)
    taus = np.array([t.tau for t in factor.terms], dtype=float)
    return ab, taus


def _term_sums(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k table[..., k] * weights[j, k] for each row j of the 2-D
    weights, with the row index first: shape (len(weights),) +
    table.shape[:-1].

    Every vectorised sum over delay terms goes through here.  numpy's
    einsum adds the terms of each point in the same order whatever else is
    in the batch, so a point has the same bits alone, in a pair, in any
    sub-batch or reshaped (numpy's matrix product rounds a lone row
    differently from the same row inside a batch).
    """
    return np.einsum("...k,jk->j...", table, weights)


def evaluate_many(factor: ScalarFactor, lam: np.ndarray) -> np.ndarray:
    """Vectorized :func:`evaluate` over an array of points.

    Each point has the same bits in any batch (see :func:`_term_sums`); it
    agrees with :func:`evaluate` to rounding, not bit for bit.
    """
    lam = np.asarray(lam, dtype=complex)
    ab, taus = _term_arrays(factor)
    return lam - _term_sums(np.exp(-np.multiply.outer(lam, taus)), ab[None])[0]


def evaluate_derivative_many(factor: ScalarFactor, lam: np.ndarray) -> np.ndarray:
    """Vectorized :func:`evaluate_derivative` over an array of points, with
    the same batch independence as :func:`evaluate_many`."""
    lam = np.asarray(lam, dtype=complex)
    ab, taus = _term_arrays(factor)
    return 1.0 + _term_sums(np.exp(-np.multiply.outer(lam, taus)), (ab * taus)[None])[0]


def evaluate_product(product: CharProduct, lam: complex) -> complex:
    """Product of all factor values, each raised to its multiplicity."""
    acc = 1.0 + 0.0j
    for f in product.factors:
        acc *= evaluate(f, lam) ** f.multiplicity
    return acc


def residual_on_targets(factor: ScalarFactor, omegas: Sequence[float]) -> float:
    """max_l |D(i*omega_l)|; zero exactly when every target is a root."""
    omegas = list(omegas)
    if not omegas:
        raise ValueError("need at least one target frequency")
    return max(abs(evaluate(factor, 1j * w)) for w in omegas)


# ---------------------------------------------------------------------------
# JSON-friendly dict forms


def factor_to_dict(factor: ScalarFactor) -> dict:
    return {
        "terms": [{"a": t.a, "b": t.b, "tau": t.tau} for t in factor.terms],
        "multiplicity": factor.multiplicity,
    }


def _needs(data, block: str, *keys: str) -> tuple:
    """The value of each key in data; a missing key is a ValueError that
    names it and its block."""
    for key in keys:
        if key not in data:
            raise ValueError(f"{block} needs {key!r}")
    return tuple(data[key] for key in keys)


def _whole(value) -> int | None:
    """value as an int if it is a real number with an integer value and not
    a bool (a JSON 1e7 reads as 10_000_000; NaN, inf and 2.5 do not), None
    otherwise.  A plain int, the common case, skips the slower
    abstract-class test."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not float(value).is_integer():
        return None
    return int(value)


def _count(value, name: str, least: int = 1) -> int:
    """value as an int, if it is an integral number >= least (so a JSON
    1e7 reads as 10_000_000); a ValueError that names it otherwise."""
    whole = _whole(value)
    if whole is None or whole < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return whole


def factor_from_dict(data: dict) -> ScalarFactor:
    (terms,) = _needs(data, "factor", "terms")
    terms = [_needs(t, f"factor term {i}", "a", "b", "tau") for i, t in enumerate(terms, 1)]
    return ScalarFactor(_as_terms(terms), data.get("multiplicity", 1))
