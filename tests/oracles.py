"""Independent oracles used across the test-suite.

Everything here deliberately avoids the library's own evaluation paths:
compensated/high-precision summation for factor values, dense matrix
assembly plus LAPACK determinants for ring systems, mpmath determinants
and integer congruences for reduced leading-weight matrices,
eigendecompositions for factor weights, finite differences for
derivatives, the paper's closed-form transversality determinant next to
one assembled from its blocks, a meet-in-the-middle search for small
integer relations, a plain per-column delay sweep that reduces every
phase and measures its hits' angular errors column by column (it gives
the start delays of a fixed base point), a scan of every grid
point for the sweep's choice of orthants with singular values for
independence, a
contour evaluation that takes one complex exponential per node and term
instead of the separable tables of the spectrum kernel, a
trapezoid-rule winding integral in place of the certified count, a
root search that counts the whole region first and then quadrisects it one
cell at a time instead of starting from one certified grid, and root
estimates from power sums on a fine uniform contour, read off Hankel
matrices, in place of the moment starts from a grid's certified edges,
and, for the certificate of a contour segment, the distance from 0 to a
chord in exact rationals and the change of arg D along the segment at 50
digits.
"""
from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from spectra_forge import spectrum
from spectra_forge.errors import BoundaryRoot, NoConvergence, SearchExhausted, TooManyRoots
from spectra_forge.quasipoly import ScalarFactor, evaluate_derivative_many, evaluate_many
from spectra_forge.realization import FrequencyTarget, WeightTable, base_point, index_vectors


def eval_factor_mp(terms, lam, dps: int = 50) -> complex:
    """High-precision factor value via mpmath; terms are (a, b, tau)."""
    with mp.workdps(dps):
        z = mp.mpc(lam.real, lam.imag)
        acc = z
        for a, b, tau in terms:
            acc -= mp.mpf(a) * mp.mpf(b) * mp.e ** (-z * mp.mpf(tau))
        return complex(acc)


def arg_change_mp(terms, za: complex, zb: complex, samples: int = 64, dps: int = 50) -> float:
    """The change of arg D along the segment [za, zb], from 50-digit values
    at samples + 1 equally spaced points, the principal arg of each ratio
    of neighbours summed (each step must turn by less than pi)."""
    with mp.workdps(dps):
        za, zb = mp.mpc(za.real, za.imag), mp.mpc(zb.real, zb.imag)
        vals = []
        for k in range(samples + 1):
            z = za + (zb - za) * mp.mpf(k) / samples
            acc = z
            for a, b, tau in terms:
                acc -= mp.mpf(a) * mp.mpf(b) * mp.e ** (-z * mp.mpf(tau))
            vals.append(acc)
        return float(mp.fsum(mp.arg(v / u) for u, v in zip(vals, vals[1:])))


def chord_distance_exact(da: complex, db: complex) -> float:
    """Distance from 0 to the segment [da, db] of the complex plane, exact
    in rationals on the two floating-point ends, rounded at the end: the
    nearest point is da + t (db - da), t = -Re(conj da (db - da)) / |db -
    da|^2 clipped to [0, 1].  The squared distance is scaled by 4^-k
    before it is rounded, so that it stays a finite float whatever its size
    (ends near 1e300 included), and its root by 2^k after: both exact."""
    xa, ya, xb, yb = (Fraction(v) for v in (da.real, da.imag, db.real, db.imag))
    dx, dy = xb - xa, yb - ya
    length = dx * dx + dy * dy
    t = min(max(-(xa * dx + ya * dy) / length, Fraction(0)), Fraction(1)) if length else Fraction(0)
    x, y = xa + t * dx, ya + t * dy
    square = x * x + y * y
    k = (square.numerator.bit_length() - square.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(square / Fraction(4) ** k), k)


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


def transversality_at_base(target: FrequencyTarget, weights: WeightTable | None = None) -> float:
    """The paper's closed-form transversality determinant at the base point.

    Nonzero exactly when the realized-solution surface crosses the torus
    flow there; its magnitude is only a conditioning diagnostic.  For a
    single group this reduces to

        prod(omega) * (a_1 ... a_{n-1}) / a_n^{n-1} * det(cal_I(n)).
    """
    weights = WeightTable.ones(target.n, target.r) if weights is None else weights
    base = base_point(target, weights)
    n, r = target.n, target.r
    if n == 1:
        return float(target.flat[0])
    mu = target.prefix
    sizes = target.sizes
    amps = base.amplitudes
    b = weights.b

    lead = np.array([amps[mu[j + 1] - 1] * b[j, mu[j + 1] - 1] for j in range(r)])
    prefactor = (-1.0) ** (n - 1) * float(np.prod(target.flat)) * float(np.prod(amps[: n - 1]))
    denom = float(np.prod(lead ** np.array(sizes, dtype=float)))
    sign_last_block = (-1.0) ** (sizes[-1] - 1)

    mat = base.calIB.copy()
    for j in range(r):
        col = np.full(sizes[j], lead[j])
        if j == r - 1 and sizes[j] > 1:
            # last group: the rewritten column keeps that block's sign flips
            col = lead[j] * np.where(np.arange(sizes[j]) == 0, 1.0, -1.0)
        mat[mu[j]: mu[j + 1], n - 1] = col
    return prefactor / denom * sign_last_block * float(np.linalg.det(mat))


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


def integer_relations(omegas, max_coeff: int = 10, tol: float = 1e-9) -> list[tuple[int, ...]]:
    """Integer relations |c . omega| < tol * |omega|, c != 0, |c_i| <= max_coeff,
    in lexicographic order: the hits of the full (2 max_coeff + 1)^n grid.

    Meets in the middle: the sums of the last n - n//2 coefficients are
    sorted once, and each sum of the first n//2 is binary-searched against
    them in a window padded for the rounding of the split sums; every pair
    found is then measured as one dot product, as the grid measures it.
    Floating-point inputs can never certify rational independence, so an
    empty list means only that nothing was found at this bound.
    """
    w = np.asarray(list(omegas), dtype=float)
    n, h = w.size, w.size // 2
    threshold = tol * float(np.linalg.norm(w))

    def half(k):
        rows = list(itertools.product(range(-max_coeff, max_coeff + 1), repeat=k))
        return np.array(rows, dtype=np.int64).reshape(len(rows), k)

    left, right = half(h), half(n - h)
    left_sums, right_sums = left @ w[:h], right @ w[h:]
    order = np.argsort(right_sums, kind="stable")
    ordered = right_sums[order]
    pad = threshold + 8.0 * n * max_coeff * float(np.abs(w).sum()) * np.finfo(float).eps
    lo = np.searchsorted(ordered, -left_sums - pad, "left")
    hi = np.searchsorted(ordered, -left_sums + pad, "right")
    pairs = [(i, int(j)) for i in range(left_sums.size) for j in order[lo[i]:hi[i]]]
    if not pairs:
        return []
    i, j = np.array(pairs).T
    coeffs = np.concatenate([left[i], right[j]], axis=1)
    keep = (np.abs(coeffs @ w) < threshold) & np.any(coeffs != 0, axis=1)
    return sorted(tuple(int(x) for x in c) for c in coeffs[keep])


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


def achieved_windows(target: FrequencyTarget, base, taus) -> np.ndarray:
    """Per-delay worst angular error of a candidate vector, one column at
    a time."""
    omega = target.flat
    return np.array([float(_column_distance(omega, base.target_angles[:, k], np.array([tau]))[0])
                     for k, tau in enumerate(taus)])


def sweep_column_reference(omega, col, epsilon, step, budget, index):
    """One delay column swept on its own over the grid (i+1)*step, every
    phase reduced and compared with the column's angles; the first hit is
    the column's delay."""
    best = np.inf
    chunk = 1 << 12
    done = 0
    while done < budget:
        count = min(chunk, budget - done)
        grid = (done + 1 + np.arange(count)) * step
        dist = _column_distance(omega, col, grid)
        best = min(best, float(dist.min()))
        hits = np.nonzero(dist < epsilon)[0]
        if hits.size:
            return float(grid[hits[0]])
        done += count
    raise SearchExhausted(index, best)


def delay_candidates_reference(omega, angles, epsilon, budget):
    """Per-column reference for a target with two or more frequencies:
    columns in order, the first exhausted one raises."""
    step = 2.0 * np.pi / (64.0 * float(omega.max()))
    return [sweep_column_reference(omega, angles[:, k], epsilon, step, budget, k)
            for k in range(omega.size)]


def _volume(cols: np.ndarray) -> float:
    """|det| over Hadamard's bound, generalised to n x m columns: the
    product of the singular values of the column-normalised matrix."""
    return float(np.prod(np.linalg.svd(cols / np.linalg.norm(cols, axis=0), compute_uv=False)))


def orthant_search_reference(omega, brows, epsilon, budget, skip=None):
    """The sweep's choice of orthants from a scan of every grid point
    i*step, i = 1..budget: the first hit (every row within epsilon of a
    quarter turn) of each orthant, orthants in the order of those hits,
    each kept as the next column k when brows[:, k] * signs keeps the
    kept columns' volume above 1e-12 (singular values), with its hit as
    the column's delay; the orthant with signs ``skip``, if
    given, is passed over.  Returns (signs, taus), with one column of signs
    per delay, or raises SearchExhausted(number kept, smallest quarter-turn
    distance over the budget of a point whose orthant, as the next column,
    would keep the volume above 1e-12)."""
    n = omega.size
    step = 2.0 * np.pi / (64.0 * float(omega.max()))
    kept, taus, seen = [], [], set()
    if skip is not None:
        seen.add(np.asarray(skip, dtype=float).tobytes())
    for start in range(1, budget + 1, 4096):
        grid = np.arange(start, min(start + 4096, budget + 1)) * step
        phase = np.mod(np.multiply.outer(grid, omega), 2.0 * np.pi)
        d_half = np.abs(np.mod(phase - 0.5 * np.pi + np.pi, 2.0 * np.pi) - np.pi)
        d_3half = np.abs(np.mod(phase - 1.5 * np.pi + np.pi, 2.0 * np.pi) - np.pi)
        dist = np.minimum(d_half, d_3half).max(axis=1)
        for i in np.nonzero(dist < epsilon)[0]:
            signs = np.where(d_3half[i] < d_half[i], 1.0, -1.0)
            if signs.tobytes() in seen:
                continue
            seen.add(signs.tobytes())
            cols = np.column_stack([brows[:, k] * s for k, s in enumerate(kept)]
                                   + [brows[:, len(kept)] * signs])
            if _volume(cols) > 1e-12:
                kept.append(signs)
                taus.append(float(grid[i]))
                if len(kept) == n:
                    return np.column_stack(kept), taus
    index = len(kept)
    grid = np.arange(1, budget + 1) * step
    phase = np.mod(np.multiply.outer(grid, omega), 2.0 * np.pi)
    d_half = np.abs(np.mod(phase - 0.5 * np.pi + np.pi, 2.0 * np.pi) - np.pi)
    d_3half = np.abs(np.mod(phase - 1.5 * np.pi + np.pi, 2.0 * np.pi) - np.pi)
    dist = np.minimum(d_half, d_3half).max(axis=1)
    patterns, which = np.unique(d_3half < d_half, axis=0, return_inverse=True)
    base = [brows[:, k] * s for k, s in enumerate(kept)]
    outside = np.array([
        _volume(np.column_stack(base + [brows[:, index] * np.where(p, 1.0, -1.0)])) > 1e-12
        for p in patterns])
    raise SearchExhausted(index, float(dist[outside[np.ravel(which)]].min(initial=np.inf)))


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


def certifier_terms(*factors):
    """(taus, ab), the certifier's input for factors that share their
    delays: the delays, and the products a_k b_k, one row per factor."""
    taus = np.array([t.tau for t in factors[0].terms], dtype=float)
    return taus, np.array([[t.a * t.b for t in f.terms] for f in factors], dtype=float)


def node_values_reference(taus, ab, z, pick):
    """D at the nodes z, in place of the spectrum kernel's one table for
    every factor: each factor lam - sum_k ab[j, k] exp(-lam taus[k]) on its
    own, one complex exponential table for every factor.  Node z[i] takes
    the factor pick[i] // z.size at its own position i (pick has the shape
    of z and holds the factor row times z.size plus i, as the kernel reads
    it)."""
    taus = taus.tolist()
    factors = [ScalarFactor(tuple(zip(products, [1.0] * len(taus), taus)))
               for products in ab.tolist()]
    vals = np.array([evaluate_many(f, z) for f in factors])
    return np.take_along_axis(vals, (pick // z.size)[None], 0)[0]


def line_values_reference(factor, h_levels=(), h_nodes=(), v_levels=(), v_nodes=()):
    """(z, D) with one row per line, the horizontal lines h_nodes[i] +
    i*h_levels[i] first, then the vertical lines v_levels[i] + i*v_nodes[i],
    each evaluated pointwise like :func:`contour_values_reference`; a single
    row of nodes is shared by all lines of its kind."""
    h_nodes, v_nodes = (
        np.broadcast_to(nodes, (len(levels), np.shape(nodes)[-1])) if len(levels) else ()
        for levels, nodes in ((h_levels, h_nodes), (v_levels, v_nodes))
    )
    z = np.array([xs + 1j * y for y, xs in zip(h_levels, h_nodes)]
                 + [x + 1j * ys for x, ys in zip(v_levels, v_nodes)])
    return z, evaluate_many(factor, z)


def count_roots_trapezoid(factor, region, per_edge: int = 256, max_per_edge: int = 1 << 20) -> int:
    """Winding number of D around the region by the trapezoid rule on D'/D.

    The panels per edge double until the integral lies within 1e-3 of a
    nonnegative integer.  A node with |D| <= 1e-8 * scale dilates the region
    once by 1e-6; a second such node, or no snap by max_per_edge, raises
    ValueError.  The snap is a heuristic, not a certificate; it serves as a
    reference on boxes whose boundary keeps clear of every root.
    """
    for dilated in (False, True):
        corner = max(abs(complex(x, y)) for x in (region.re_min, region.re_max)
                     for y in (region.im_min, region.im_max))
        threshold = 1e-8 * (1.0 + corner + factor.coefficient_bound())
        panels = per_edge
        while panels <= max_per_edge:
            z, vals, ders = contour_values_reference(factor, region, panels)
            if np.abs(vals).min() <= threshold:
                break
            f = ders / vals
            winding = np.sum(0.5 * (f[:-1] + f[1:]) * np.diff(z)) / (2j * np.pi)
            nearest = round(winding.real)
            if nearest >= 0 and abs(winding - nearest) < 1e-3:
                return int(nearest)
            panels *= 2
        else:
            raise ValueError(f"winding integral did not snap below {max_per_edge} panels/edge")
        if dilated:
            raise ValueError("|D| vanishes on the contour even after dilation")
        region = region.dilated(1e-6)


def moment_starts_reference(factor, region, count: int, per_edge: int = 4096,
                            max_per_edge: int = 1 << 18) -> list[complex]:
    """Estimates of the count roots in the region from its power sums
    s_p = (1 / 2 pi i) oint (z - c)^p D'/D dz, p = 0..2 count - 1, c the
    region's centre, by the trapezoid rule on a uniform contour with D and
    D' from evaluate_many and evaluate_derivative_many.  The panels per
    edge double until s_0 lies within 1e-7 of count (a root just outside
    an edge needs many), else ValueError.  The roots are the eigenvalues of
    the pencil (H1, H0) of the Hankel matrices H0 = [s_(i+j)] and H1 =
    [s_(i+j+1)] (Kravanja and Van Barel), not those of a polynomial from
    Newton's identities."""
    while per_edge <= max_per_edge:
        z, vals, ders = contour_values_reference(factor, region, per_edge)
        u, f = z - region.center, ders / vals
        sums = [np.sum(0.5 * (g[:-1] + g[1:]) * np.diff(z)) / (2j * np.pi)
                for g in (u**p * f for p in range(2 * count))]
        if abs(sums[0] - count) < 1e-7:
            h0 = np.array([[sums[i + j] for j in range(count)] for i in range(count)])
            h1 = np.array([[sums[i + j + 1] for j in range(count)] for i in range(count)])
            return (region.center + np.linalg.eigvals(np.linalg.solve(h0, h1))).tolist()
        per_edge *= 2
    raise ValueError(f"s_0 did not reach {count} below {max_per_edge} panels per edge")


def _split_path_reference(path, at: float, value):
    """The pieces of a certified path below and above the point at, where D
    is value (used only when at falls inside a segment)."""
    t, d, turn = path
    i = int(np.searchsorted(t, at))
    if t[i] == at:
        return (t[: i + 1], d[: i + 1], turn[:i]), (t[i:], d[i:], turn[i:])
    lower = (
        np.concatenate((t[:i], [at])), np.concatenate((d[:i], [value])),
        np.concatenate((turn[: i - 1], [cmath.phase(value / d[i - 1])])),
    )
    upper = (
        np.concatenate(([at], t[i:])), np.concatenate(([value], d[i:])),
        np.concatenate(([cmath.phase(d[i] / value)], turn[i:])),
    )
    return lower, upper


def _nodes_reference(lo: float, mid: float, hi: float) -> np.ndarray:
    """The 17 starting nodes of a path from lo to hi, with mid the ninth."""
    half = np.linspace(0.0, 1.0, 9)
    nodes = np.empty(17)
    nodes[:9] = lo + (mid - lo) * half
    nodes[-9:] = mid + (hi - mid) * half
    nodes[-1] = hi
    return nodes


def _split_reference(factor, region, edges, frac: float, threshold: float):
    """The four children (region, edges, count) of a cell cut at frac of
    its width and height; only the two cut lines are certified."""
    x0, x1, y0, y1 = region.re_min, region.re_max, region.im_min, region.im_max
    xm = x0 + frac * (x1 - x0)
    ym = y0 + frac * (y1 - y0)
    resolution = 1e-6 * max(x1 - x0, y1 - y0)
    xs, ys = _nodes_reference(x0, xm, x1), _nodes_reference(y0, ym, y1)
    across, up = spectrum._certify(
        *certifier_terms(factor), np.zeros(2, int), np.concatenate((xs + 1j * ym, xm + 1j * ys)),
        np.concatenate((xs, ys)), (len(xs), len(ys)), (threshold, threshold),
        (resolution, resolution),
    )
    bottom, top, left, right = edges
    b0, b1 = _split_path_reference(bottom, xm, up[1][0])
    t0, t1 = _split_path_reference(top, xm, up[1][-1])
    l0, l1 = _split_path_reference(left, ym, across[1][0])
    r0, r1 = _split_path_reference(right, ym, across[1][-1])
    a0, a1 = _split_path_reference(across, xm, None)
    u0, u1 = _split_path_reference(up, ym, None)
    quads = (
        (spectrum.Region(x0, xm, y0, ym), (b0, a0, l0, u0)),
        (spectrum.Region(xm, x1, y0, ym), (b1, a1, u0, r0)),
        (spectrum.Region(x0, xm, ym, y1), (a0, t0, l1, u1)),
        (spectrum.Region(xm, x1, ym, y1), (a1, t1, u1, r1)),
    )
    return [(quad, sides, spectrum._winding(*sides)) for quad, sides in quads]


def locate_roots_reference(factor, region, max_roots: int = 64) -> list[complex]:
    """Roots in the region by counting the whole region first (dilated once
    if its boundary touches a root), then quadrisecting one cell at a time
    with reused certified edges, first at 0.53 of a cell's width and
    height, down to one-root cells polished from their centres."""
    total, cell, edges = spectrum._counted_alone(*certifier_terms(factor), region)
    if total == 0:
        return []
    if total > max_roots:
        raise TooManyRoots(f"region holds {total} roots, caller allowed {max_roots}")
    scale = spectrum._scale(factor.coefficient_bound(), region)
    margin = 1e-9 * scale
    roots = []
    stack = [(cell, edges, total)]
    while stack:
        cell, edges, count = stack.pop()
        if count == 1:
            try:
                z = spectrum.polish_root(factor, cell.center, 1e-10 * scale)
            except NoConvergence:
                z = None
            if z is not None and cell.contains(z):
                roots.append(z)
                continue
        if cell.diameter < margin:
            raise NoConvergence(float("nan"), "subdivision failed to isolate roots")
        for frac in (0.53, 0.5, 0.47, 0.41, 0.59, 0.445, 0.565):
            try:
                children = _split_reference(factor, cell, edges, frac, 1e-8 * scale)
            except (BoundaryRoot, NoConvergence):
                continue
            if sum(c for _, _, c in children) == count:
                break
        else:
            raise BoundaryRoot(f"could not split cell {cell.to_dict()} cleanly")
        stack.extend(child for child in children if child[2] > 0)
    roots.sort(key=lambda z: (round(z.imag, 9), round(z.real, 9)))
    kept = [z for z in roots if region.contains(z, margin)]
    if len(kept) != total:
        raise BoundaryRoot("a root lies between the region's boundary and its dilation")
    for a, b in zip(kept, kept[1:]):
        if abs(a - b) < margin:
            raise NoConvergence(float("nan"), "polish collapsed two cells onto one root")
    return kept
