"""Locate and count characteristic roots in rectangles of the complex plane.

The count comes from the argument principle: the winding number of D along
the boundary of a rectangle equals the number of enclosed zeros with
multiplicity.  It is certified segment by segment (Ying and Katz 1988;
Johnson and Tucker 2009).  Every term of D' and D'' is largest at the
smaller real part of a segment [a, b] of length h, so |D'| <= M = 1 +
sum_k |a_k b_k| tau_k exp(-x_min tau_k) and |D''| <= C = sum_k |a_k b_k|
tau_k^2 exp(-x_min tau_k), and D stays within h min(M, P + C h / 2) of
its value at either end, P being the larger |D'| at the ends.  When that
radius is below |D| - f at one end, with f the rounding floor of the
computed D (and P carrying the floor of D'), D stays in a disc that
excludes 0, so the principal arg(D_b / D_a) is the true change of argument
along the segment.  Each path (an edge or a cut line) starts with 16
segments; the uncertified ones of all paths are bisected together, one
batch per level.  The count, the sum of the increments over 2 pi, must
lie within 1e-6 of an integer.

Root locations follow by quadrisection.  A cell keeps its four certified
edges, so a split certifies only its two cut lines and each child's count
is a sum of edge increments (a piece of a certified segment stays
certified).  The first cut falls at 0.53 of the width and height, not at
the middle: the boxes of this package are symmetric about Re = 0, where
the prescribed roots lie, so a cut through the middle would run through
them.  A one-root cell is polished by Newton from its centre, and the root
is kept only when it lands inside the cell; otherwise the cell is split
again.  :func:`verify_realization` certifies that every prescribed
+-i*omega of a realization really is an isolated root of its factor.  It
counts the first isolation boxes of all targets of a factor in one batch
of paths, and counts them one by one only when the batch fails.

Every path is axis-parallel, so the kernel :func:`_line_values` builds one
table exp(-x tau) over the x nodes of each horizontal line and one table
exp(-i y tau) over the y nodes of each vertical line, times one factor per
line for its level; every entry is the same product exp(-x tau) *
cis(-y tau) that a complex exponential of -z*tau forms.  Bisection
midpoints go through :func:`quasipoly.evaluate_many` and
:func:`quasipoly.evaluate_derivative_many`.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryRoot, NoConvergence, TooManyRoots
from .quasipoly import ScalarFactor, _term_arrays, evaluate, evaluate_derivative
from .quasipoly import evaluate_derivative_many, evaluate_many
from .realization import FrequencyTarget, RealizationResult, WeightTable, result_factors

__all__ = [
    "Region",
    "TargetCheck",
    "SpectrumReport",
    "count_roots",
    "polish_root",
    "locate_roots",
    "verify_realization",
]

_SEGMENTS = 16
_INTEGER_TOL = 1e-6
_BOUNDARY_REL = 1e-8
_DILATE = 1e-6
_EPS = float(np.finfo(float).eps)
_HALF = np.linspace(0.0, 1.0, _SEGMENTS // 2 + 1)


@dataclass(frozen=True)
class Region:
    """Axis-aligned open rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("region must have positive width and height")

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.re_max - self.re_min, self.im_max - self.im_min))

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return (
            self.re_min - margin <= z.real <= self.re_max + margin
            and self.im_min - margin <= z.imag <= self.im_max + margin
        )

    def dilated(self, rel: float) -> "Region":
        c = self.center
        hw = 0.5 * (self.re_max - self.re_min) * (1.0 + rel)
        hh = 0.5 * (self.im_max - self.im_min) * (1.0 + rel)
        return Region(c.real - hw, c.real + hw, c.imag - hh, c.imag + hh)

    def to_dict(self) -> dict:
        return {
            "re": [self.re_min, self.re_max],
            "im": [self.im_min, self.im_max],
        }


def _line_values(factor: ScalarFactor, h_levels=(), h_nodes=(), v_levels=(), v_nodes=()):
    """(z, D, D') on the horizontal lines h_nodes[i] + i*h_levels[i], then
    on the vertical lines v_levels[i] + i*v_nodes[i], as arrays with one
    row per line; every line has the same number of nodes.

    A horizontal line takes the table exp(-x tau) over its nodes times the
    one factor cis(-y tau) of its level, a vertical line the table
    cis(-y tau) over its nodes times exp(-x tau) of its level, and D = z -
    E @ ab and D' = 1 + E @ (ab tau) come from the one table E.  Both
    tables are complex exponentials of purely real or purely imaginary
    arguments, so each entry of E is the same float as the complex
    exp(-z*tau) of the direct evaluation (numpy's real exp can differ from
    it in the last bit).  Overflow gives non-finite values, which the
    callers report.
    """
    ab, taus = _term_arrays(factor)
    z, e = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        if len(h_levels):
            levels = np.asarray(h_levels, dtype=float)[:, None]
            nodes = np.asarray(h_nodes, dtype=float)
            z.append(nodes + 1j * levels)
            modulus = np.exp(nodes[..., None] * -taus + 0j)
            e.append(modulus * np.exp(-1j * (levels * taus))[:, None, :])
        if len(v_levels):
            levels = np.asarray(v_levels, dtype=float)[:, None]
            nodes = np.asarray(v_nodes, dtype=float)
            z.append(levels + 1j * nodes)
            angle = np.exp(-1j * (nodes[..., None] * taus))
            e.append(np.exp(-levels * taus + 0j)[:, None, :] * angle)
        z, e = np.concatenate(z), np.concatenate(e)
        vals = z - e @ ab
        ders = 1.0 + e @ (ab * taus)
    return z, vals, ders


class _Touch(BoundaryRoot):
    """A node of a path has |D| at or below the boundary threshold."""


def _bounds(taus, weights, z, vals, ders, threshold):
    """Per node z, where D is vals and D' is ders, the rows |D| less its
    rounding floor f, |D'| plus its rounding floor, and the slope and
    curvature sums sum_k |a_k b_k| tau_k^(1, 2) exp(-x tau_k); weights are
    |a_k b_k| tau_k^(0, 1, 2).  Raises NoConvergence when D overflowed and
    _Touch when |D| <= threshold (broadcast against the nodes) somewhere."""
    size = np.abs(vals)
    if not np.isfinite(size.max()):
        raise NoConvergence(float("nan"), "factor overflowed on the contour")
    touch = size <= threshold
    if touch.any():
        raise _Touch(f"|D| = {size[touch].min():.3e} on the contour")
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-np.multiply.outer(z.real, taus))
        total, slope, curve = (decay @ w for w in weights)
        radius = np.abs(z)
        floor = 4.0 * _EPS * (radius * (1.0 + slope) + len(taus) * total)
        slope_floor = 4.0 * _EPS * (1.0 + len(taus) * slope + radius * curve)
    return np.array((size - floor, np.abs(ders) + slope_floor, slope, curve))


def _certified(za, zb, bounds_a, bounds_b):
    """Whether D stays in a disc that excludes 0 along each segment [a, b]:
    each row of :func:`_bounds` is taken at the end where it is larger, and
    the disc of radius h * min(1 + slope, |D'| + curvature * h / 2) is
    centred on D at the end of larger margin |D| - f."""
    h = np.abs(zb - za)
    margin, ders, slope, curve = np.maximum(bounds_a, bounds_b)
    return h * np.minimum(1.0 + slope, ders + 0.5 * h * curve) < margin


def _certify(factor: ScalarFactor, h_levels, h_nodes, v_levels, v_nodes, threshold, resolution):
    """Certified paths along the lines of :func:`_line_values`, one per row.

    Each path comes back as (t, D, turn): its nodes t along the line (x on
    a horizontal line, y on a vertical one) in increasing order, the values
    D there, and the certified change of arg D over each segment.  The
    threshold of :func:`_bounds` and the resolution are given per line.
    Besides the errors of :func:`_bounds`, raises BoundaryRoot when a
    segment shorter than its line's resolution stays uncertified.
    """
    z, vals, ders = _line_values(factor, h_levels, h_nodes, v_levels, v_nodes)
    ab, taus = _term_arrays(factor)
    size = np.abs(ab)
    weights = (size, size * taus, size * taus**2)
    threshold = np.asarray(threshold, dtype=float)
    resolution = np.asarray(resolution, dtype=float)
    bounds = _bounds(taus, weights, z, vals, ders, threshold[:, None])
    horizontal = np.arange(len(z)) < len(h_levels)
    place = np.where(horizontal[:, None], z.real, z.imag)
    bad = ~_certified(z[:, :-1], z[:, 1:], bounds[..., :-1], bounds[..., 1:])
    if not bad.any():
        return list(zip(place, vals, np.angle(vals[:, 1:] / vals[:, :-1])))
    # every node made, as (line, position along it, D); the certified
    # segments of a line join its nodes in order
    rows = [np.repeat(np.arange(len(z)), z.shape[1])]
    place, found = [place.ravel()], [vals.ravel()]
    open_rows = np.nonzero(bad)[0]
    za, zb = z[:, :-1][bad], z[:, 1:][bad]
    bounds_a, bounds_b = bounds[..., :-1][:, bad], bounds[..., 1:][:, bad]
    while open_rows.size:
        h = np.abs(zb - za)
        short = h < resolution[open_rows]
        if short.any():
            k = int(np.argmin(np.where(short, h, np.inf)))
            raise BoundaryRoot(
                f"no certificate for a segment of {h[k]:.3e} at {complex(za[k]):.6g}: "
                "a root lies within a few node spacings of the contour"
            )
        zm = 0.5 * (za + zb)
        with np.errstate(over="ignore", invalid="ignore"):
            dm, pm = evaluate_many(factor, zm), evaluate_derivative_many(factor, zm)
        bounds_m = _bounds(taus, weights, zm, dm, pm, threshold[open_rows])
        rows.append(open_rows)
        place.append(np.where(horizontal[open_rows], zm.real, zm.imag))
        found.append(dm)
        za, zb = np.concatenate((za, zm)), np.concatenate((zm, zb))
        bounds_a = np.concatenate((bounds_a, bounds_m), axis=1)
        bounds_b = np.concatenate((bounds_m, bounds_b), axis=1)
        bad = ~_certified(za, zb, bounds_a, bounds_b)
        open_rows = np.tile(open_rows, 2)[bad]
        za, zb, bounds_a, bounds_b = za[bad], zb[bad], bounds_a[:, bad], bounds_b[:, bad]
    rows = np.concatenate(rows)
    order = np.lexsort((np.concatenate(place), rows))
    place, found = np.concatenate(place)[order], np.concatenate(found)[order]
    turn = np.angle(found[1:] / found[:-1])
    ends = np.cumsum(np.bincount(rows, minlength=len(z))).tolist()
    return [(place[i:j], found[i:j], turn[i : j - 1]) for i, j in zip([0] + ends, ends)]


def _nodes(lo, mid, hi) -> np.ndarray:
    """The 17 starting nodes of a path from lo to hi, with mid the ninth;
    one row of them per entry when lo, mid and hi are arrays."""
    lo, mid, hi = (np.asarray(v, dtype=float)[..., None] for v in (lo, mid, hi))
    nodes = np.empty(lo.shape[:-1] + (_SEGMENTS + 1,))
    nodes[..., : len(_HALF)] = lo + (mid - lo) * _HALF
    nodes[..., -len(_HALF) :] = mid + (hi - mid) * _HALF
    nodes[..., -1:] = hi
    return nodes


def _scale(factor: ScalarFactor, region: Region) -> float:
    corner = max(
        abs(complex(region.re_min, region.im_min)),
        abs(complex(region.re_max, region.im_max)),
        abs(complex(region.re_min, region.im_max)),
        abs(complex(region.re_max, region.im_min)),
    )
    return 1.0 + corner + factor.coefficient_bound()


def _winding(bottom, top, left, right) -> int:
    """Winding number of D around a cell from its four certified edges."""
    turn = bottom[2].sum() + right[2].sum() - top[2].sum() - left[2].sum()
    winding = turn / (2.0 * np.pi)
    count = round(winding)
    if count < 0 or abs(winding - count) > _INTEGER_TOL:
        raise NoConvergence(float("nan"), f"certified winding sum {winding:.9g} is not a count")
    return int(count)


def _certified_counts(factor: ScalarFactor, regions):
    """(count, region, edges) per region: the winding number with the
    certified edges (bottom, top, left, right) it came from.  All regions
    are certified in one batch of paths.  A lone region whose contour
    touches a root is dilated once and retried; a batch raises instead."""
    for dilated in (False, True):
        x0, x1, y0, y1 = np.array(
            [(r.re_min, r.re_max, r.im_min, r.im_max) for r in regions]
        ).T
        xs = np.repeat(_nodes(x0, 0.5 * (x0 + x1), x1), 2, axis=0)
        ys = np.repeat(_nodes(y0, 0.5 * (y0 + y1), y1), 2, axis=0)
        threshold = np.repeat([_BOUNDARY_REL * _scale(factor, r) for r in regions], 2)
        resolution = np.repeat(_DILATE * np.maximum(x1 - x0, y1 - y0), 2)
        try:
            paths = _certify(
                factor, np.column_stack((y0, y1)).ravel(), xs,
                np.column_stack((x0, x1)).ravel(), ys,
                np.tile(threshold, 2), np.tile(resolution, 2),
            )
        except _Touch as exc:
            if len(regions) > 1:
                raise
            if dilated:
                raise BoundaryRoot(f"{exc} even after dilation") from None
            regions = [regions[0].dilated(_DILATE)]
            continue
        v = 2 * len(regions)
        sides = zip(paths[0:v:2], paths[1:v:2], paths[v::2], paths[v + 1 :: 2])
        return [(_winding(*edges), region, edges) for region, edges in zip(regions, sides)]


def count_roots(factor: ScalarFactor, region: Region) -> int:
    """Number of zeros of the factor inside the region, with multiplicity.

    The count is certified by the argument principle with a derivative
    bound per boundary segment (see the module docstring).  It requires a
    root-free boundary: if |D| dips below 1e-8 * scale at a node the region
    is dilated once by 1e-6 and retried, then BoundaryRoot is raised; a
    boundary segment shorter than 1e-6 times the longer side that still has
    no certificate is BoundaryRoot at once.  NoConvergence is raised when D
    overflows on the contour (far left of the axis at large delays) or the
    certified sum is not within 1e-6 of an integer.  Factor multiplicity is
    not applied.
    """
    return _certified_counts(factor, [region])[0][0]


def polish_root(factor: ScalarFactor, lambda0: complex, tol: float = 1e-12) -> complex:
    """Newton polish from a nearby starting point, at most 30 iterations.

    Steps are halved while they fail to shrink |D|; a vanishing derivative,
    a stalled search or an iterate whose exponentials overflow raises
    NoConvergence.
    """
    z = complex(lambda0)
    try:
        val = evaluate(factor, z)
        if abs(val) < tol:
            return z
        for _ in range(30):
            der = evaluate_derivative(factor, z)
            if abs(der) == 0.0:
                raise NoConvergence(abs(val), "derivative vanished during polish")
            step = -val / der
            improved = False
            for _ in range(25):
                cand = z + step
                cval = evaluate(factor, cand)
                if abs(cval) < abs(val):
                    z, val = cand, cval
                    improved = True
                    break
                step *= 0.5
            if not improved:
                raise NoConvergence(abs(val), "polish stalled")
            if abs(val) < tol:
                return z
    except OverflowError:
        raise NoConvergence(float("nan"), "polish left the representable range") from None
    raise NoConvergence(abs(val), "polish did not reach tolerance in 30 iterations")


def _split_path(path, at: float, value):
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


def _split(factor: ScalarFactor, region: Region, edges, frac: float, threshold: float):
    """The four children (region, edges, count) of a cell cut at frac of
    its width and height; only the two cut lines are evaluated."""
    x0, x1, y0, y1 = region.re_min, region.re_max, region.im_min, region.im_max
    xm = x0 + frac * (x1 - x0)
    ym = y0 + frac * (y1 - y0)
    resolution = _DILATE * max(x1 - x0, y1 - y0)
    across, up = _certify(
        factor, (ym,), _nodes(x0, xm, x1)[None], (xm,), _nodes(y0, ym, y1)[None],
        (threshold, threshold), (resolution, resolution),
    )
    bottom, top, left, right = edges
    b0, b1 = _split_path(bottom, xm, up[1][0])
    t0, t1 = _split_path(top, xm, up[1][-1])
    l0, l1 = _split_path(left, ym, across[1][0])
    r0, r1 = _split_path(right, ym, across[1][-1])
    a0, a1 = _split_path(across, xm, None)
    u0, u1 = _split_path(up, ym, None)
    quads = (
        (Region(x0, xm, y0, ym), (b0, a0, l0, u0)),
        (Region(xm, x1, y0, ym), (b1, a1, u0, r0)),
        (Region(x0, xm, ym, y1), (a0, t0, l1, u1)),
        (Region(xm, x1, ym, y1), (a1, t1, u1, r1)),
    )
    return [(quad, sides, _winding(*sides)) for quad, sides in quads]


_SPLIT_FRACTIONS = (0.53, 0.5, 0.47, 0.41, 0.59, 0.445, 0.565)


def locate_roots(
    factor: ScalarFactor, region: Region, max_roots: int = 64
) -> list[complex]:
    """All roots inside the region, by quadrisection down to single roots.

    Cells keep their certified edges, so each split certifies only its two
    cut lines, first at 0.53 of the cell's width and height.  A cut that
    grazes a root, or whose children's counts do not add up, is retried at
    other fractions (0.5 next) before BoundaryRoot propagates.
    A one-root cell is polished from its centre and split again unless the
    polish converges inside it.  Every returned root satisfies
    |D| < 1e-10 * scale and lies in the (marginally padded) region; the
    total matches the argument-principle count of the whole region.
    """
    total, cell, edges = _certified_counts(factor, [region])[0]
    if total == 0:
        return []
    if total > max_roots:
        raise TooManyRoots(f"region holds {total} roots, caller allowed {max_roots}")
    scale = _scale(factor, region)
    accept_tol = 1e-10 * scale
    margin = 1e-9 * scale
    roots: list[complex] = []
    stack = [(cell, edges, total)]
    while stack:
        cell, edges, count = stack.pop()
        if count == 1:
            try:
                z = polish_root(factor, cell.center, accept_tol)
            except NoConvergence:
                z = None
            if z is not None and cell.contains(z):
                roots.append(z)
                continue
        if cell.diameter < margin:
            raise NoConvergence(float("nan"), "subdivision failed to isolate roots")
        for frac in _SPLIT_FRACTIONS:
            try:
                children = _split(factor, cell, edges, frac, _BOUNDARY_REL * scale)
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
        # only a dilated count can hold a root outside the region
        raise BoundaryRoot("a root lies between the region's boundary and its dilation")
    for a, b in zip(kept, kept[1:]):
        if abs(a - b) < margin:
            raise NoConvergence(float("nan"), "polish collapsed two cells onto one root")
    return kept


# ---------------------------------------------------------------------------
# Realization verification


@dataclass(frozen=True)
class TargetCheck:
    factor: int
    omega: float
    sign: int
    residual: float
    local_count: int
    polished: complex | None
    polish_offset: float | None
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        polished = None
        if self.polished is not None:
            polished = {"re": self.polished.real, "im": self.polished.imag}
        return {
            "factor": self.factor,
            "omega": self.omega,
            "sign": self.sign,
            "residual": self.residual,
            "local_count": self.local_count,
            "polished": polished,
            "polish_offset": self.polish_offset,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass(frozen=True)
class SpectrumReport:
    """Per-target checks; contour_min_abs is the smallest |D| at any node of
    the isolation boxes, contour_panels the most certified segments on any
    one of their edges."""

    targets: tuple[TargetCheck, ...]
    passed: bool
    roots_counted: int
    contour_min_abs: float
    contour_panels: int

    def to_dict(self) -> dict:
        return {
            "targets": [t.to_dict() for t in self.targets],
            "passed": self.passed,
            "totals": {
                "targets": len(self.targets),
                "passed": sum(1 for t in self.targets if t.passed),
                "roots_counted": self.roots_counted,
            },
            "contour": {
                "min_abs": self.contour_min_abs,
                "panels_per_edge": self.contour_panels,
            },
        }


def _isolation_halfwidth(target: FrequencyTarget, max_delay: float) -> float:
    """Isolation scale around a prescribed root.

    Capped at 0.05 and at half the minimum gap among all +-omega targets,
    and also at a quarter of the equation's mean vertical root spacing
    2*pi/max_delay: realized delays routinely reach 1e3..1e4, which packs
    genuine neighbouring roots far closer than any fixed box width.
    """
    signed = np.concatenate([target.flat, -target.flat])
    signed.sort()
    gaps = np.diff(signed)
    delta = min(0.05, 0.5 * float(gaps.min()))
    if max_delay > 0:
        delta = min(delta, 0.5 * np.pi / max_delay)
    return float(delta)


def verify_realization(
    result: RealizationResult,
    target: FrequencyTarget,
    weights: WeightTable | None = None,
    tol: float = 1e-8,
) -> SpectrumReport:
    """Certify each assigned +-i*omega as an isolated root of its factor.

    Per target: the factor residual must stay below tol, Newton from
    i*omega must land within 1e-8 of it, and the argument-principle count
    in the isolation box around +-i*omega must be exactly one.  Numeric
    failures mark the target failed instead of raising.  The first boxes of
    a factor's targets are counted in one batch; when it fails (a box
    touches a root, overflows or names an edge root), and for a box that
    holds more than one root, each box is counted on its own, so the
    report is the same as from counts one box at a time.
    """
    if weights is None:
        weights = WeightTable.ones(target.n, target.r)
    if len(result.taus) != target.n or weights.b.shape != (target.r, target.n):
        raise ValueError("result, target, and weights have mismatched dimensions")
    factors = result_factors(result, weights)
    delta = _isolation_halfwidth(target, float(np.max(result.taus)))
    checks: list[TargetCheck] = []
    roots_counted = 0
    min_abs = np.inf
    panels = 0
    for j, group in enumerate(target.groups):
        factor = factors[j]
        signed = [(omega, sign) for omega in group for sign in (+1, -1)]
        try:
            # the first isolation box of every target in one batch; when
            # any of them fails, each is counted again on its own below
            first = _certified_counts(
                factor, [Region(-delta, delta, s * o - delta, s * o + delta) for o, s in signed]
            )
        except (BoundaryRoot, NoConvergence):
            first = None
        for i, (omega, sign) in enumerate(signed):
            w = sign * omega
            residual = abs(evaluate(factor, 1j * w))
            note = ""
            polished = None
            offset = None
            count = 0
            ok = residual < tol
            try:
                # unlucky clustering: a neighbouring root may sit inside
                # the nominal box, so shrink until exactly one remains
                d = delta
                for level in range(12):
                    box = Region(-d, d, w - d, w + d)
                    if level == 0 and first is not None:
                        count, _, edges = first[i]
                    else:
                        count, _, edges = _certified_counts(factor, [box])[0]
                    values = np.concatenate([vals for _, vals, _ in edges])
                    min_abs = min(min_abs, float(np.abs(values).min()))
                    panels = max(panels, *(len(turn) for _, _, turn in edges))
                    if count <= 1:
                        break
                    d *= 0.5
                roots_counted += count
                if count != 1:
                    ok = False
                    note = f"isolation box holds {count} roots"
            except (BoundaryRoot, NoConvergence) as exc:
                ok = False
                note = f"count failed: {exc}"
            if ok:
                try:
                    polished = polish_root(factor, 1j * w, 1e-12 * _scale(factor, box))
                    offset = abs(polished - 1j * w)
                    if offset > 1e-8:
                        ok = False
                        note = f"polished root drifted {offset:.3e} from target"
                except NoConvergence as exc:
                    ok = False
                    note = f"polish failed: {exc}"
            checks.append(
                TargetCheck(
                    factor=j,
                    omega=omega,
                    sign=sign,
                    residual=residual,
                    local_count=count,
                    polished=polished,
                    polish_offset=offset,
                    passed=ok,
                    note=note,
                )
            )
    overall = all(c.passed for c in checks)
    return SpectrumReport(
        targets=tuple(checks),
        passed=overall,
        roots_counted=roots_counted,
        contour_min_abs=float(min_abs) if np.isfinite(min_abs) else float("nan"),
        contour_panels=panels,
    )
