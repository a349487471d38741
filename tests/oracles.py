"""Independent oracles used across the test-suite.

Everything here deliberately avoids the library's own evaluation paths:
compensated/high-precision summation for factor values, dense matrix
assembly plus LAPACK determinants for ring systems, mpmath determinants
and integer congruences for reduced leading-weight matrices,
eigendecompositions for factor weights, finite differences for
derivatives, a plain per-column delay sweep that reduces every phase, and
a contour evaluation that takes one complex exponential per node and term
instead of the separable tables of the spectrum kernel.
"""
from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np

from spectra_forge.errors import SearchExhausted
from spectra_forge.quasipoly import evaluate_derivative_many, evaluate_many
from spectra_forge.realization import FrequencyTarget, WeightTable, base_point, index_vectors


def eval_factor_mp(terms, lam, dps: int = 50) -> complex:
    """High-precision factor value via mpmath; terms are (a, b, tau)."""
    with mp.workdps(dps):
        z = mp.mpc(lam.real, lam.imag)
        acc = z
        for a, b, tau in terms:
            acc -= mp.mpf(a) * mp.mpf(b) * mp.e ** (-z * mp.mpf(tau))
        return complex(acc)


def eval_derivative_mp(terms, lam, dps: int = 50) -> complex:
    """High-precision D'(lam) = 1 + sum a b tau exp(-lam tau) via mpmath."""
    with mp.workdps(dps):
        z = mp.mpc(lam.real, lam.imag)
        acc = mp.mpc(1)
        for a, b, tau in terms:
            acc += mp.mpf(a) * mp.mpf(b) * mp.mpf(tau) * mp.e ** (-z * mp.mpf(tau))
        return complex(acc)


def eval_factor_fsum(terms, lam) -> complex:
    """Compensated summation of the factor value in double precision."""
    res = [lam.real]
    ims = [lam.imag]
    for a, b, tau in terms:
        w = a * b * cmath.exp(-lam * tau)
        res.append(-w.real)
        ims.append(-w.imag)
    return complex(math.fsum(res), math.fsum(ims))


def central_difference(f, lam: complex, h: float = 1e-6) -> complex:
    return (f(lam + h) - f(lam - h)) / (2.0 * h)


def dense_ring_matrix(ring, lam: complex) -> np.ndarray:
    """Full n-by-n characteristic matrix of a ring, assembled entrywise
    from the symmetric circulant structure."""
    n = ring.n

    def ev(profile):
        return sum(a * cmath.exp(-lam * s) for a, s in profile.atoms)

    mat = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            d = min((i - j) % n, (j - i) % n)
            prof = ring.internal if d == 0 else ring.couplings.get(d + 1)
            val = ev(prof) if prof is not None else 0.0
            mat[i, j] = (lam - val) if i == j else -val
    return mat


def dense_ring_det(ring, lam: complex) -> complex:
    return complex(np.linalg.det(dense_ring_matrix(ring, lam)))


def two_factor_det_mp(n: int, i1: int, i2: int, dps: int = 50) -> float:
    """|det| of the two-factor reduced matrix (printed convention 4),
    assembled entrywise and evaluated in mpmath at ``dps`` digits."""
    with mp.workdps(dps):
        idx = (i1, i2)
        mat = mp.matrix([[4 * mp.cos(2 * mp.pi * ((p * q) % n) / n) for q in idx] for p in idx])
        return float(abs(mp.det(mat)))


def two_factor_singular_by_congruence(n: int, i1: int, i2: int) -> bool:
    """Integer rule for an exactly singular two-factor selection: both rows
    of the reduced matrix coincide, i.e. i1^2 = +-i1 i2 and
    i1 i2 = +-i2^2 (mod n), since cos(2 pi x/n) = cos(2 pi y/n) exactly
    when x = +-y (mod n)."""

    def same_cos(x: int, y: int) -> bool:
        return (x - y) % n == 0 or (x + y) % n == 0

    return same_cos(i1 * i1, i1 * i2) and same_cos(i1 * i2, i2 * i2)


def is_squarefree(n: int) -> bool:
    return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


def circulant_eigenvalues(n: int, diag: float, by_distance: dict[int, float]) -> np.ndarray:
    """Spectrum of the symmetric circulant with the given scalar entries."""
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d = min((i - j) % n, (j - i) % n)
            mat[i, j] = diag if d == 0 else by_distance.get(d, 0.0)
    return np.sort(np.linalg.eigvalsh(mat))


def direct_transversality(target: FrequencyTarget, weights: WeightTable) -> float:
    """Transversality determinant assembled column-by-column from the
    explicit implicit-derivative blocks, independent of the closed form."""
    bp = base_point(target, weights)
    amps = bp.amplitudes
    b = weights.b
    n, r = target.n, target.r
    mu = target.prefix
    sizes = target.sizes
    alpha = np.zeros((n, n))
    for j in range(r):
        lj = sizes[j]
        vs = index_vectors(lj)
        denom = amps[mu[j + 1] - 1] * b[j, mu[j + 1] - 1]
        rows = slice(mu[j], mu[j + 1])
        wj = np.array(target.groups[j])
        for k in range(n - 1):
            coeff = -amps[k] * b[j, k] / denom
            inblock = mu[j] <= k < mu[j + 1]
            if j < r - 1:
                diag = vs[k - mu[j]] if inblock else np.ones(lj)
            else:
                diag = vs[lj - 1] * (vs[k - mu[j]] if inblock else np.ones(lj))
            alpha[rows, k] = coeff * diag * wj
        alpha[rows, n - 1] = wj
    return float(np.linalg.det(alpha))


def random_partition(rng: np.random.Generator, nmax: int = 8):
    """Random (target, weights) pair with nonzero weights and spread-out
    frequencies, for determinant-lemma style property tests."""
    r = int(rng.integers(1, 4))
    sizes = rng.integers(1, 4, size=r)
    while sizes.sum() > nmax:
        sizes = rng.integers(1, 4, size=r)
    n = int(sizes.sum())
    freqs = np.cumsum(0.3 + rng.random(n) * 2.0)
    groups, pos = [], 0
    for s in sizes:
        groups.append(tuple(float(x) for x in freqs[pos: pos + s]))
        pos += s
    target = FrequencyTarget(tuple(groups))
    b = rng.uniform(0.2, 2.0, size=(r, n)) * rng.choice([-1.0, 1.0], size=(r, n))
    return target, WeightTable(b)


def grid_scan_delay(omega: np.ndarray, angles: np.ndarray, epsilon: float,
                    tau_max: float, step: float = 1e-3) -> float | None:
    """Brute-force sweep: first tau <= tau_max meeting the angle targets."""
    taus = np.arange(step, tau_max, step)
    phase = np.mod(np.multiply.outer(taus, omega), 2.0 * np.pi)
    dist = np.abs(np.mod(phase - angles[None, :] + np.pi, 2.0 * np.pi) - np.pi)
    ok = np.nonzero(dist.max(axis=1) < epsilon)[0]
    return float(taus[ok[0]]) if ok.size else None


def _column_distance(omega, angles_col, taus):
    phase = np.mod(np.multiply.outer(taus, omega), 2.0 * np.pi)
    dist = np.abs(np.mod(phase - angles_col[None, :] + np.pi, 2.0 * np.pi) - np.pi)
    return dist.max(axis=1)


def _refine_candidate(omega, angles_col, tau, halfwidth, points=4097):
    grid = np.linspace(max(tau - halfwidth, 0.25 * halfwidth), tau + halfwidth, points)
    dist = _column_distance(omega, angles_col, grid)
    k = int(np.argmin(dist))
    return float(grid[k]), float(dist[k])


def sweep_column_reference(omega, col, epsilon, step, budget, index):
    """One delay column swept on its own over the grid (i+1)*step, every
    phase reduced and compared with the column's angles; the first hit is
    sharpened by the same local scan as the library's."""
    best = np.inf
    chunk = 1 << 16
    done = 0
    while done < budget:
        count = min(chunk, budget - done)
        grid = (done + 1 + np.arange(count)) * step
        dist = _column_distance(omega, col, grid)
        best = min(best, float(dist.min()))
        hits = np.nonzero(dist < epsilon)[0]
        if hits.size:
            tau = float(grid[hits[0]])
            refined, rd = _refine_candidate(omega, col, tau, step)
            if rd < epsilon:
                return refined
            return tau
        done += count
    raise SearchExhausted(index, best)


def delay_candidates_reference(omega, angles, epsilon, budget):
    """Per-column reference for a target with two or more frequencies:
    columns in order, the first exhausted one raises."""
    step = 2.0 * np.pi / (64.0 * float(omega.max()))
    return [sweep_column_reference(omega, angles[:, k], epsilon, step, budget, k)
            for k in range(omega.size)]


def contour_nodes(region, per_edge: int) -> np.ndarray:
    """Boundary nodes of a region, counter-clockwise from the bottom-left
    corner back to it, per_edge panels per edge."""
    xs = np.linspace(region.re_min, region.re_max, per_edge + 1)
    ys = np.linspace(region.im_min, region.im_max, per_edge + 1)
    bottom = xs + 1j * region.im_min
    right = region.re_max + 1j * ys
    top = xs[::-1] + 1j * region.im_max
    left = region.re_min + 1j * ys[::-1]
    return np.concatenate([bottom, right[1:], top[1:], left[1:]])


def contour_values_reference(factor, region, per_edge: int):
    """(z, D, D') on the contour, one complex exponential table per call,
    in place of the spectrum kernel's shared separable tables."""
    z = contour_nodes(region, per_edge)
    return z, evaluate_many(factor, z), evaluate_derivative_many(factor, z)


def line_values_reference(factor, xs, ys, im_levels=(), re_levels=()):
    """(z, D, D') with one row per line, horizontal lines first, each
    evaluated pointwise like :func:`contour_values_reference`."""
    z = np.array([xs + 1j * y for y in im_levels] + [x + 1j * ys for x in re_levels])
    return z, evaluate_many(factor, z), evaluate_derivative_many(factor, z)
