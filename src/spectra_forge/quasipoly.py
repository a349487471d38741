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
    "product_to_dict",
    "product_from_dict",
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
    multiplicity is stored here but applied only by :func:`evaluate_product`;
    root finding treats every factor at multiplicity one.
    """

    terms: tuple[Term, ...]
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "terms", _as_terms(self.terms))
        if int(self.multiplicity) < 1:
            raise ValueError("multiplicity must be >= 1")
        object.__setattr__(self, "multiplicity", int(self.multiplicity))
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


def evaluate_many(factor: ScalarFactor, lam: np.ndarray) -> np.ndarray:
    """Vectorized :func:`evaluate` over an array of points."""
    lam = np.asarray(lam, dtype=complex)
    if not factor.terms:
        return lam.copy()
    ab, taus = _term_arrays(factor)
    return lam - np.exp(-np.multiply.outer(lam, taus)) @ ab


def evaluate_derivative_many(factor: ScalarFactor, lam: np.ndarray) -> np.ndarray:
    """Vectorized :func:`evaluate_derivative` over an array of points."""
    lam = np.asarray(lam, dtype=complex)
    if not factor.terms:
        return np.ones_like(lam)
    ab, taus = _term_arrays(factor)
    return 1.0 + np.exp(-np.multiply.outer(lam, taus)) @ (ab * taus)


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


def factor_from_dict(data: dict) -> ScalarFactor:
    terms = [(t["a"], t["b"], t["tau"]) for t in data["terms"]]
    return ScalarFactor(_as_terms(terms), int(data.get("multiplicity", 1)))


def product_to_dict(product: CharProduct) -> dict:
    return {"factors": [factor_to_dict(f) for f in product.factors]}


def product_from_dict(data: dict) -> CharProduct:
    return CharProduct(tuple(factor_from_dict(f) for f in data["factors"]))
