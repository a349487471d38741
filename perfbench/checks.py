"""Correctness checks that do not rely on spectra-forge.

Every checker takes plain numbers (delays, coefficients, roots, flags) and
returns a list of problems; an empty list means the output is correct.
The reference values come from mpmath at 50 digits, from matrices the
benchmark assembles itself, from integer arithmetic, and from a winding
number counted on the benchmark's own contour.
"""
from __future__ import annotations

import math
from typing import Sequence

import mpmath as mp
import numpy as np

DIGITS = 50


def factor_value_mp(terms: Sequence[tuple[float, float]], lam: complex) -> complex:
    """lam - sum a exp(-lam tau) over (a, tau) pairs, at DIGITS digits."""
    with mp.workdps(DIGITS):
        z = mp.mpc(lam.real, lam.imag)
        acc = z
        for a, tau in terms:
            acc -= mp.mpf(a) * mp.exp(-z * mp.mpf(tau))
        return complex(acc)


def realization_problems(
    groups: Sequence[Sequence[float]],
    weights: Sequence[Sequence[float]],
    taus: Sequence[float],
    coeffs: Sequence[float],
    tol: float = 1e-8,
) -> list[str]:
    """Delays positive, coefficients nonzero, one delay per frequency, and
    |D_j(+-i w)| <= tol for every frequency w of group j, where factor j is
    lam - sum_k coeffs[k] weights[j][k] exp(-lam taus[k])."""
    out = []
    n = sum(len(g) for g in groups)
    if len(taus) != n or len(coeffs) != n:
        return [f"{len(taus)} delays and {len(coeffs)} coefficients for {n} frequencies"]
    if not all(math.isfinite(t) and t > 0.0 for t in taus):
        out.append(f"a delay is not positive: {list(taus)}")
    if not all(math.isfinite(a) and a != 0.0 for a in coeffs):
        out.append(f"a coefficient is zero or not finite: {list(coeffs)}")
    for j, group in enumerate(groups):
        terms = [(a * b, t) for a, b, t in zip(coeffs, weights[j], taus)]
        for w in group:
            for lam in (1j * w, -1j * w):
                value = abs(factor_value_mp(terms, lam))
                if not value <= tol:
                    out.append(f"|D_{j}({lam})| = {value:.3e} at {DIGITS} digits")
    return out


def closed_form_single_problems(omega: float, tau: float, a: float) -> list[str]:
    """A single frequency has the closed form tau = 3 pi / (2 w), a = w."""
    want_tau = 1.5 * math.pi / omega
    out = []
    if abs(tau - want_tau) > 1e-9 * want_tau:
        out.append(f"tau {tau!r} differs from the closed form {want_tau!r}")
    if abs(a - omega) > 1e-9 * omega:
        out.append(f"a {a!r} differs from the closed form {omega!r}")
    return out


# ---------------------------------------------------------------------------
# Rings


def dense_ring_matrix(ring: dict, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """lam I - K(lam) for the ring dict {"n", "internal", "couplings"}, and
    the same matrix built from the absolute values of its terms.

    Coupling key k links cell i with cells i +- (k - 1); for an even ring
    the distance n/2 names the single opposite cell.
    """
    n = int(ring["n"])
    mat = lam * np.eye(n, dtype=complex)
    size = abs(lam) * np.eye(n)
    profiles = [(0, [(t["a"], t["tau"]) for t in ring["internal"]])]
    for key, atoms in ring["couplings"].items():
        profiles.append((int(key) - 1, [(t["alpha"], t["s"]) for t in atoms]))
    for d, atoms in profiles:
        terms = [a * np.exp(-lam * tau) for a, tau in atoms]
        value, magnitude = sum(terms), sum(abs(t) for t in terms)
        cols = {d % n, -d % n}
        for i in range(n):
            for c in cols:
                mat[i, (i + c) % n] -= value
                size[i, (i + c) % n] += magnitude
    return mat, size


def ring_problems(ring: dict, groups: Sequence[Sequence[float]], tol: float = 1e-8) -> list[str]:
    """Every prescribed +-i w makes the dense characteristic determinant
    vanish: the smallest singular value of lam I - K(lam), its distance to
    singularity, is at most tol times the largest row sum of its terms'
    magnitudes.  (A determinant scaled by Hadamard's bound is too weak a
    test for 7 and more cells: the other factors shrink it by orders of
    magnitude even when the prescribed one does not vanish.)"""
    out = []
    for group in groups:
        for w in group:
            for lam in (1j * w, -1j * w):
                mat, size = dense_ring_matrix(ring, lam)
                rel = float(np.linalg.svd(mat, compute_uv=False)[-1]) / float(size.sum(axis=1).max())
                if not rel <= tol:
                    out.append(f"ring n={ring['n']}: relative distance to singular {rel:.3e} at {lam}")
    return out


def two_factor_pairs(n_max: int = 101) -> list[tuple[int, int, int]]:
    """(n, i1, i2) for odd 5 <= n <= n_max and 1 <= i1 < i2 <= (n - 1) / 2."""
    return [
        (n, i1, i2)
        for n in range(5, n_max + 1, 2)
        for i1 in range(1, (n - 1) // 2)
        for i2 in range(i1 + 1, (n - 1) // 2 + 1)
    ]


def singular_by_congruence(n: int, i1: int, i2: int) -> bool:
    """Both rows of the reduced matrix coincide: i1^2 = +-i1 i2 and
    i1 i2 = +-i2^2 (mod n), since cos(2 pi x / n) = cos(2 pi y / n)
    exactly when x = +-y (mod n)."""

    def same(x: int, y: int) -> bool:
        return (x - y) % n == 0 or (x + y) % n == 0

    return same(i1 * i1, i1 * i2) and same(i1 * i2, i2 * i2)


def reduced_entries(pairs: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """(len(pairs), 2, 2) entries 4 cos(2 pi (i_p i_q mod n) / n)."""
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 3)
    n, idx = arr[:, 0], arr[:, 1:]
    prod = (idx[:, :, None] * idx[:, None, :]) % n[:, None, None]
    return 4.0 * np.cos(2.0 * np.pi * prod / n[:, None, None])


def bsweep_problems(
    pairs: Sequence[tuple[int, int, int]],
    dets: Sequence[float],
    matrices: np.ndarray,
    expect_singular: int | None = None,
    expect_first: tuple[int, int, int] | None = None,
) -> list[str]:
    """Check the program's two-factor determinants and matrices.

    The float-singular set (|det| <= 1e-8 times the product of the row
    norms) must equal the congruence set pair for pair; each determinant
    must match an LU determinant of entries computed here, and each matrix
    must match those entries.
    """
    out = []
    own = reduced_entries(pairs)
    matrices = np.asarray(matrices, dtype=float).reshape(own.shape)
    worst_entry = float(np.abs(matrices - own).max()) if len(pairs) else 0.0
    if worst_entry > 1e-12:
        out.append(f"build_B entries differ from 4 cos(...) by {worst_entry:.3e}")
    lu = np.linalg.det(own)
    dets = np.asarray(dets, dtype=float)
    worst_det = float((np.abs(dets - lu) / np.maximum(1.0, np.abs(lu))).max()) if len(pairs) else 0.0
    if worst_det > 1e-10:
        out.append(f"det_B_two_factor differs from the LU determinant by {worst_det:.3e}")
    norms = np.linalg.norm(own, axis=2)
    singular = np.abs(dets) <= 1e-8 * norms[:, 0] * norms[:, 1]
    by_rule = [singular_by_congruence(*p) for p in pairs]
    mismatched = [p for p, s, r in zip(pairs, singular, by_rule) if bool(s) != r]
    if mismatched:
        out.append(f"{len(mismatched)} pairs disagree with the congruence rule, first {mismatched[0]}")
    found = [p for p, s in zip(pairs, singular) if s]
    if expect_singular is not None and len(found) != expect_singular:
        out.append(f"{len(found)} singular pairs, expected {expect_singular}")
    if expect_first is not None and (not found or tuple(found[0]) != expect_first):
        out.append(f"first singular pair {found[:1]}, expected {expect_first}")
    return out


# ---------------------------------------------------------------------------
# Root census


def _values(terms: Sequence[tuple[float, float]], z: np.ndarray) -> np.ndarray:
    a = np.array([t[0] for t in terms])
    tau = np.array([t[1] for t in terms])
    return z - np.exp(-np.multiply.outer(z, tau)) @ a


def contour(region: Sequence[float], per_edge: int) -> np.ndarray:
    """Counter-clockwise outline of (re_min, re_max, im_min, im_max)."""
    x0, x1, y0, y1 = region
    t = np.linspace(0.0, 1.0, per_edge, endpoint=False)
    return np.concatenate([
        x0 + (x1 - x0) * t + 1j * y0,
        x1 + 1j * (y0 + (y1 - y0) * t),
        x1 - (x1 - x0) * t + 1j * y1,
        x0 + 1j * (y1 - (y1 - y0) * t),
    ])


def winding_number(terms: Sequence[tuple[float, float]], region: Sequence[float]) -> int:
    """Zeros inside (re_min, re_max, im_min, im_max), by unwrapping arg D.

    The contour is refined until no step turns the argument by more than
    0.5 rad, so the unwrapped total is unambiguous.
    """
    per_edge = 512
    while per_edge <= 1 << 22:
        vals = _values(terms, contour(region, per_edge))
        if float(np.abs(vals).min()) == 0.0:
            raise ValueError("D vanishes on the contour")
        steps = np.angle(np.roll(vals, -1) / vals)
        if float(np.abs(steps).max()) < 0.5:
            total = float(steps.sum()) / (2.0 * math.pi)
            return int(round(total))
        per_edge *= 2
    raise ValueError("contour refinement did not resolve the argument")


def census_problems(
    terms: Sequence[tuple[float, float]],
    region: Sequence[float],
    omega: float,
    roots: Sequence[complex],
) -> list[str]:
    """Located roots of lam - sum a exp(-lam tau) in a rectangle.

    Each root has |D| <= 1e-8 * scale at 50 digits (scale = 1 + |z| +
    sum |a|), lies in the rectangle, and is distinct from the others; the
    constructed root i*omega is among them; and their number equals the
    winding number on the benchmark's own contour.
    """
    out = []
    x0, x1, y0, y1 = region
    pad = 1e-8 * (1.0 + max(abs(x0), abs(x1)) + max(abs(y0), abs(y1)))
    bound = sum(abs(a) for a, _ in terms)
    for z in roots:
        value = abs(factor_value_mp(terms, z))
        if not value <= 1e-8 * (1.0 + abs(z) + bound):
            out.append(f"|D({z})| = {value:.3e} is not a root")
        if not (x0 - pad <= z.real <= x1 + pad and y0 - pad <= z.imag <= y1 + pad):
            out.append(f"root {z} lies outside the box")
    zs = np.array(list(roots), dtype=complex)
    if zs.size > 1:
        gaps = np.abs(zs[:, None] - zs[None, :]) + np.eye(zs.size)
        if float(gaps.min()) < 1e-6:
            out.append(f"two roots coincide within {float(gaps.min()):.1e}")
    if not any(abs(z - 1j * omega) <= 1e-8 for z in roots):
        out.append(f"the constructed root {1j * omega} is missing")
    count = winding_number(terms, region)
    if count != len(roots):
        out.append(f"{len(roots)} roots located, winding number {count}")
    return out
