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
along the segment.  Each edge of a counted region starts with 16
segments, and each grid line with 8 per cell it crosses; the uncertified
ones of all paths are bisected together, one batch per level.  The count, the sum of the increments over 2 pi, must
lie within 1e-6 of an integer.

Root locations start from one certified grid.  :func:`locate_roots` cuts
the region into kx x ky cells, about two per root expected from the root
spacing 2 pi / max tau (height * max tau / 2 pi of them), and certifies
all grid lines, the boundary included, in one batch, each line with 8
segments per cell it crosses.  The region's count and every cell's are
sums of certified edge increments (a piece of a certified segment stays
certified).  The interior cuts fall at (i + 0.06)/k of the width and
height, not at the even fractions: the boxes of this package are
symmetric about Re = 0, where the prescribed roots lie, so a cut through
the middle would run through them.  When the grid batch fails (a line
grazes a root, overflows, or keeps an uncertified segment), the region
is counted alone, as :func:`count_roots` does, dilated once if its
boundary touches a root.  A one-root cell is polished by Newton from its
centre, and the root is kept only when it lands inside the cell; any
other cell with roots is cut in four, reusing its certified edges, so a
split certifies only its two cut lines, first at 0.53 of the width and
height.  :func:`verify_realization` certifies that every prescribed
+-i*omega of a realization really is an isolated root of its factor.  It
counts the isolation boxes around +i*omega of all targets of a factor in
one batch of paths, and the boxes it has to halve in one batch per halving
level; it counts boxes one by one only when a batch fails.  Only these
upper boxes are certified: the factor's coefficients are real, so D(conj
z) = conj D(z), and each box around -i*omega, its exact mirror in floating
point, holds the mirrored roots; its check is the upper one mirrored.

Every node the certifier touches, the starting nodes of all lines and
every bisection midpoint alike, goes through one kernel,
:func:`_node_values`: one table exp(-z tau) over the batch, and D and D'
from it in one call of :func:`quasipoly._term_sums`, the very floats that
:func:`quasipoly.evaluate_many` and
:func:`quasipoly.evaluate_derivative_many` give.  Every sum over the delay
terms, of D, D' and the bounds alike, is one call of
:func:`quasipoly._term_sums`, whose rounding does not depend on the
batch, so a node's values are the same bits whichever lines or regions
share its batch, and a batch of regions counts each one exactly as it
would be counted alone.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BoundaryRoot, NoConvergence, TooManyRoots
from .quasipoly import ScalarFactor, _term_arrays, _term_sums, evaluate, evaluate_derivative
# unused here, but the benchmark's tracer wraps them as attributes of this module
from .quasipoly import evaluate_derivative_many, evaluate_many  # noqa: F401
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
_HALF = _SEGMENTS // 2


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


def _node_values(factor: ScalarFactor, z: np.ndarray):
    """D and D' at the nodes z, from one table exp(-z tau) and one call of
    :func:`quasipoly._term_sums`: D = z - sum_k E_k a_k b_k and D' = 1 +
    sum_k E_k a_k b_k tau_k.  Each is bit for bit what
    :func:`quasipoly.evaluate_many` and
    :func:`quasipoly.evaluate_derivative_many` give, whatever else is in
    the batch.  Overflow gives non-finite values, which the callers
    report."""
    ab, taus = _term_arrays(factor)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _term_sums(np.exp(-np.multiply.outer(z, taus)), np.stack((ab, ab * taus)))
        return z - sums[0], 1.0 + sums[1]


class _Touch(BoundaryRoot):
    """A node of a path has |D| at or below the boundary threshold."""


def _bounds(taus, weights, z, vals, ders, threshold):
    """Per node z, where D is vals and D' is ders, the rows |D| less its
    rounding floor f, |D'| plus its rounding floor, and the slope and
    curvature sums sum_k |a_k b_k| tau_k^(1, 2) exp(-x tau_k); weights has
    the rows |a_k b_k| tau_k^(0, 1, 2).  Raises NoConvergence when D
    overflowed and _Touch when |D| <= threshold (broadcast against the
    nodes) somewhere."""
    size = np.abs(vals)
    if not np.isfinite(size.max()):
        raise NoConvergence(float("nan"), "factor overflowed on the contour")
    touch = size <= threshold
    if touch.any():
        raise _Touch(f"|D| = {size[touch].min():.3e} on the contour")
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-np.multiply.outer(z.real, taus))
        total, slope, curve = _term_sums(decay, weights)
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


@lru_cache(maxsize=256)
def _line_layout(lengths: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """For lines of lengths[i] nodes laid out one after another: the line
    of each node, whether each segment joins two nodes of one line, and
    the index one past each line's last node."""
    line = np.repeat(np.arange(len(lengths)), lengths)
    inner = line[:-1] == line[1:]
    for a in (line, inner):
        a.setflags(write=False)  # shared by every caller
    return line, inner, np.cumsum(lengths).tolist()


def _certify(factor: ScalarFactor, z, place, lengths: tuple[int, ...], threshold, resolution):
    """Certified paths along axis-parallel lines, one per line.

    z holds the starting nodes of all lines, line by line, lengths[i] of
    them on line i, and place their positions along their lines (x on a
    horizontal line, y on a vertical one), increasing along each line.
    Each path comes back as (t, D, turn): its nodes t along the line in
    increasing order, the values D there, and the certified change of arg
    D over each segment.  The threshold of :func:`_bounds` and the
    resolution are given per line.  Besides the errors of :func:`_bounds`,
    raises BoundaryRoot when a segment shorter than its line's resolution
    stays uncertified.  Uncertified segments are bisected, those of all
    lines in one batch per level.  Every value comes from
    :func:`_node_values`, with the same bits whatever else is in the batch,
    so each line's path is bit for bit the one a batch of that line alone
    gives.
    """
    vals, ders = _node_values(factor, z)
    line, inner, ends = _line_layout(lengths)
    ab, taus = _term_arrays(factor)
    size = np.abs(ab)
    weights = np.stack((size, size * taus, size * taus**2))
    threshold = np.asarray(threshold, dtype=float)
    bounds = _bounds(taus, weights, z, vals, ders, threshold[line])
    bad = ~_certified(z[:-1], z[1:], bounds[:, :-1], bounds[:, 1:]) & inner
    if bad.any():
        # every node made, as (line, position along it, D); the certified
        # segments of a line join its nodes in order
        resolution = np.asarray(resolution, dtype=float)
        rows, places, found = [line], [place], [vals]
        open_rows = line[:-1][bad]
        za, zb, ta, tb = z[:-1][bad], z[1:][bad], place[:-1][bad], place[1:][bad]
        bounds_a, bounds_b = bounds[:, :-1][:, bad], bounds[:, 1:][:, bad]
        while open_rows.size:
            h = np.abs(zb - za)
            short = h < resolution[open_rows]
            if short.any():
                k = int(np.argmin(np.where(short, h, np.inf)))
                raise BoundaryRoot(
                    f"no certificate for a segment of {h[k]:.3e} at {complex(za[k]):.6g}: "
                    "a root lies within a few node spacings of the contour"
                )
            zm, tm = 0.5 * (za + zb), 0.5 * (ta + tb)
            dm, pm = _node_values(factor, zm)
            bounds_m = _bounds(taus, weights, zm, dm, pm, threshold[open_rows])
            rows.append(open_rows)
            places.append(tm)
            found.append(dm)
            za, zb = np.concatenate((za, zm)), np.concatenate((zm, zb))
            ta, tb = np.concatenate((ta, tm)), np.concatenate((tm, tb))
            bounds_a = np.concatenate((bounds_a, bounds_m), axis=1)
            bounds_b = np.concatenate((bounds_m, bounds_b), axis=1)
            bad = ~_certified(za, zb, bounds_a, bounds_b)
            open_rows = np.concatenate((open_rows, open_rows))[bad]
            za, zb, ta, tb = za[bad], zb[bad], ta[bad], tb[bad]
            bounds_a, bounds_b = bounds_a[:, bad], bounds_b[:, bad]
        line = np.concatenate(rows)
        order = np.lexsort((np.concatenate(places), line))
        place, vals = np.concatenate(places)[order], np.concatenate(found)[order]
        ends = np.cumsum(np.bincount(line)).tolist()
    turn = np.angle(vals[1:] / vals[:-1])
    return [(place[i:j], vals[i:j], turn[i : j - 1]) for i, j in zip([0] + ends, ends)]


@lru_cache(maxsize=256)
def _node_steps(counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each node but the last: the cut before it, the cut after it, and
    its fraction of the way between them."""
    cell = np.repeat(np.arange(len(counts)), counts)
    step = np.arange(cell.size) - (np.cumsum(counts) - counts)[cell]
    steps = cell, cell + 1, step / np.asarray(counts)[cell]
    for a in steps:
        a.setflags(write=False)  # shared by every caller
    return steps


def _nodes(cuts, counts: tuple[int, ...]) -> np.ndarray:
    """Starting nodes of a path through the cuts (increasing, ends
    included), with counts[i] equal segments between cuts i and i + 1, so
    every cut is a node; one row of nodes per leading index of cuts."""
    cuts = np.asarray(cuts, dtype=float)
    before, after, frac = _node_steps(counts)
    lo = cuts[..., before]
    return np.concatenate((lo + (cuts[..., after] - lo) * frac, cuts[..., -1:]), axis=-1)


def _scale(bound: float, region: Region) -> float:
    """1 + the largest |z| on the region + bound, the factor's
    :meth:`~quasipoly.ScalarFactor.coefficient_bound`."""
    corner = max(
        abs(complex(region.re_min, region.im_min)),
        abs(complex(region.re_max, region.im_max)),
        abs(complex(region.re_min, region.im_max)),
        abs(complex(region.re_max, region.im_min)),
    )
    return 1.0 + corner + bound


def _count(turn: float) -> int:
    """Root count from the certified change of arg D around a cell."""
    winding = turn / (2.0 * np.pi)
    count = round(winding)
    if count < 0 or abs(winding - count) > _INTEGER_TOL:
        raise NoConvergence(float("nan"), f"certified winding sum {winding:.9g} is not a count")
    return int(count)


def _winding(bottom, top, left, right) -> int:
    """Winding number of D around a cell from its four certified edges."""
    return _count(bottom[2].sum() + right[2].sum() - top[2].sum() - left[2].sum())


def _certified_counts(factor: ScalarFactor, regions):
    """(count, region, edges) per region: the winding number with the
    certified edges (bottom, top, left, right) it came from.  All regions
    are certified in one batch of paths, and every region comes out bit for
    bit as if counted alone, because no value depends on the batch (see
    :func:`_certify`).  A lone region whose contour touches a root is
    dilated once and retried; a batch raises instead."""
    bound = factor.coefficient_bound()
    for dilated in (False, True):
        corners = np.array([(r.re_min, r.im_min, r.re_max, r.im_max) for r in regions])
        lo, hi = corners[:, :2, None], corners[:, 2:, None]
        # per region, the x and the y nodes of its edges
        nodes = _nodes(np.concatenate((lo, 0.5 * (lo + hi), hi), axis=-1), (_HALF, _HALF))
        # per region, its edges bottom, top, left and right, node by node
        x = np.empty((len(regions), 4, nodes.shape[-1]))
        y = np.empty_like(x)
        x[:, :2], x[:, 2], x[:, 3] = nodes[:, None, 0], lo[:, 0], hi[:, 0]
        y[:, 0], y[:, 1], y[:, 2:] = lo[:, 1], hi[:, 1], nodes[:, None, 1]
        place = np.concatenate((x[:, :2], y[:, 2:]), axis=1)
        threshold = np.repeat([_BOUNDARY_REL * _scale(bound, r) for r in regions], 4)
        resolution = np.repeat(_DILATE * (hi - lo).max(axis=(1, 2)), 4)
        try:
            paths = _certify(
                factor, (x + 1j * y).ravel(), place.ravel(), (x.shape[-1],) * (4 * len(regions)),
                threshold, resolution,
            )
        except _Touch as exc:
            if len(regions) > 1:
                raise
            if dilated:
                raise BoundaryRoot(f"{exc} even after dilation") from None
            regions = [regions[0].dilated(_DILATE)]
            continue
        sides = [tuple(paths[i : i + 4]) for i in range(0, len(paths), 4)]
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


def _through(path, cuts, values):
    """The certified path with a node at each cut, where D is the given
    value; the two pieces of a certified segment stay certified."""
    t, d, turn = path
    for at, value in zip(cuts, values):
        i = int(np.searchsorted(t, at))
        if t[i] != at:
            parts = [cmath.phase(value / d[i - 1]), cmath.phase(d[i] / value)]
            turn = np.concatenate((turn[: i - 1], parts, turn[i:]))
            t = np.concatenate((t[:i], [at], t[i:]))
            d = np.concatenate((d[:i], [value], d[i:]))
    return t, d, turn


def _grid(factor: ScalarFactor, xs, ys, threshold: float, resolution: float, edges=None):
    """The cells (region, edges, count) that hold roots, of the grid cut at
    xs and ys (increasing, ends included).

    One batch certifies every line of the grid, each with 8 segments per
    cell it crosses and so a node at every crossing.  When edges, the
    certified (bottom, top, left, right) of the whole, are given, only the
    interior lines are certified and the edges take a node at each
    crossing, with D there from the interior line.  Each cell's edges are
    pieces of the lines, and its count the sum of their turns.
    """
    inner = slice(None) if edges is None else slice(1, -1)
    h_levels, v_levels = ys[inner], xs[inner]
    h_nodes = _nodes(xs, (_HALF,) * (len(xs) - 1))
    v_nodes = _nodes(ys, (_HALF,) * (len(ys) - 1))
    # the horizontal lines, then the vertical ones, node by node
    h_place, v_place = np.tile(h_nodes, len(h_levels)), np.tile(v_nodes, len(v_levels))
    x = np.concatenate((h_place, np.repeat(v_levels, len(v_nodes))))
    y = np.concatenate((np.repeat(h_levels, len(h_nodes)), v_place))
    lengths = (len(h_nodes),) * len(h_levels) + (len(v_nodes),) * len(v_levels)
    paths = _certify(
        factor, x + 1j * y, np.concatenate((h_place, v_place)), lengths,
        np.full(len(lengths), threshold), np.full(len(lengths), resolution),
    )
    rows, cols = paths[: len(h_levels)], paths[len(h_levels) :]
    if edges is not None:
        bottom, top, left, right = edges
        rows, cols = (
            [_through(bottom, xs[1:-1], [d[0] for _, d, _ in cols]), *rows,
             _through(top, xs[1:-1], [d[-1] for _, d, _ in cols])],
            [_through(left, ys[1:-1], [d[0] for _, d, _ in rows]), *cols,
             _through(right, ys[1:-1], [d[-1] for _, d, _ in rows])],
        )
    h_at = [np.searchsorted(t, xs) for t, _, _ in rows]
    v_at = [np.searchsorted(t, ys) for t, _, _ in cols]
    h_turn = np.array([np.add.reduceat(turn, at[:-1]) for (_, _, turn), at in zip(rows, h_at)])
    v_turn = np.array([np.add.reduceat(turn, at[:-1]) for (_, _, turn), at in zip(cols, v_at)])
    turns = h_turn[:-1] - h_turn[1:] + (v_turn[1:] - v_turn[:-1]).T

    def piece(path, at, k):
        t, d, turn = path
        return t[at[k] : at[k + 1] + 1], d[at[k] : at[k + 1] + 1], turn[at[k] : at[k + 1]]

    cells = []
    for j, row in enumerate(turns.tolist()):
        for i, turn in enumerate(row):
            count = _count(turn)
            if count:
                edges = (piece(rows[j], h_at[j], i), piece(rows[j + 1], h_at[j + 1], i),
                         piece(cols[i], v_at[i], j), piece(cols[i + 1], v_at[i + 1], j))
                cells.append((Region(xs[i], xs[i + 1], ys[j], ys[j + 1]), edges, count))
    return cells


def _cuts(lo: float, hi: float, k: int) -> list[float]:
    """lo, the k - 1 interior cuts at (i + 0.06)/k of the way, and hi."""
    return [lo] + [lo + (i + 0.06) / k * (hi - lo) for i in range(1, k)] + [hi]


def _grid_shape(factor: ScalarFactor, region: Region, max_roots: int) -> tuple[int, int]:
    """Cells across and up for the first grid of :func:`locate_roots`:
    about two per root expected from the root spacing 2 pi / max tau
    along the height, at least 2 and at most 2 * max_roots, roughly
    square."""
    width = region.re_max - region.re_min
    height = region.im_max - region.im_min
    delay = max((t.tau for t in factor.terms), default=0.0)
    cells = max(min(2.0 * height * delay / (2.0 * np.pi), 2.0 * max_roots), 2.0)
    kx = min(max(round(math.sqrt(cells * width / height)), 1), round(cells))
    return kx, max(round(cells / kx), 1)


_SPLIT_FRACTIONS = (0.53, 0.5, 0.47, 0.41, 0.59, 0.445, 0.565)


def locate_roots(
    factor: ScalarFactor, region: Region, max_roots: int = 64
) -> list[complex]:
    """All roots inside the region, from one certified grid down to single
    roots.

    The first batch certifies a grid of kx x ky cells, about two per root
    expected (height * max tau / 2 pi of them), cut at (i + 0.06)/k of the
    width and height so that no cut runs along Re = 0; the region's count
    and every cell's come out of it.  When that batch fails (a line grazes
    a root, overflows, or keeps an uncertified segment), the region alone
    is counted, dilated once if its boundary touches a root, as
    :func:`count_roots` does.  A one-root cell is polished from its centre
    and kept when the polish converges inside it; any other cell with
    roots is cut in four, reusing its certified edges, first at 0.53 of
    its width and height.  A cut that grazes a root, or whose children's
    counts do not add up, is retried at other fractions (0.5 next) before
    BoundaryRoot propagates.  Every returned root satisfies |D| < 1e-10 *
    scale and lies in the (marginally padded) region; the total matches
    the argument-principle count of the whole region.
    """
    scale = _scale(factor.coefficient_bound(), region)
    threshold = _BOUNDARY_REL * scale
    kx, ky = _grid_shape(factor, region, max_roots)
    x0, x1, y0, y1 = region.re_min, region.re_max, region.im_min, region.im_max
    try:
        stack = _grid(
            factor, _cuts(x0, x1, kx), _cuts(y0, y1, ky), threshold, _DILATE * max(x1 - x0, y1 - y0)
        )
    except (BoundaryRoot, NoConvergence):
        total, cell, edges = _certified_counts(factor, [region])[0]
        stack = [(cell, edges, total)] if total else []
    total = sum(count for _, _, count in stack)
    if total == 0:
        return []
    if total > max_roots:
        raise TooManyRoots(f"region holds {total} roots, caller allowed {max_roots}")
    accept_tol = 1e-10 * scale
    margin = 1e-9 * scale
    roots: list[complex] = []
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
        x0, x1, y0, y1 = cell.re_min, cell.re_max, cell.im_min, cell.im_max
        resolution = _DILATE * max(x1 - x0, y1 - y0)
        for frac in _SPLIT_FRACTIONS:
            xs = [x0, x0 + frac * (x1 - x0), x1]
            ys = [y0, y0 + frac * (y1 - y0), y1]
            try:
                children = _grid(factor, xs, ys, threshold, resolution, edges)
            except (BoundaryRoot, NoConvergence):
                continue
            if sum(c for _, _, c in children) == count:
                break
        else:
            raise BoundaryRoot(f"could not split cell {cell.to_dict()} cleanly")
        stack.extend(children)
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
    one of their edges.  Both come from the boxes around +i*omega, the only
    ones certified; the box around -i*omega mirrors one of them."""

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
    Raises ValueError, before anything is counted, when the box around
    some omega has no height in floating point (omega +- delta rounds to
    omega), naming the cause.
    """
    # +-omega in increasing order from -min(omega) on: every gap among them
    omegas = sorted(target.flat.tolist())
    ladder = [-omegas[0]] + omegas
    gaps = [high - low for low, high in zip(ladder, ladder[1:])]
    k = gaps.index(min(gaps))
    delta = min(0.05, 0.5 * gaps[k])
    if max_delay > 0:
        delta = min(delta, 0.5 * math.pi / max_delay)
    flat = [w for w in omegas if w - delta == w + delta]
    if flat:
        low, high = ladder[k : k + 2]
        cause = (
            f"the targets {low!r}i and {high!r}i are only {high - low:.3g} apart"
            if delta == 0.5 * gaps[k]
            else f"it is capped at 0.05 and at pi/2 over the largest delay {max_delay!r}"
        )
        raise ValueError(
            f"no isolation box fits around {flat[0]!r}i: its half-width {delta:.3g} is below "
            f"the float spacing there, because {cause}"
        )
    return delta


def _isolation_counts(factor: ScalarFactor, boxes) -> list:
    """What :func:`_certified_counts` gives for each box on its own, or the
    BoundaryRoot or NoConvergence it raises: all boxes in one batch, which
    counts each box as it would be counted alone, and one by one when the
    batch fails, since a batch raises for all its boxes at once."""
    try:
        return _certified_counts(factor, boxes)
    except (BoundaryRoot, NoConvergence) as exc:
        if len(boxes) == 1:
            return [exc]
    found = []
    for box in boxes:
        try:
            found.append(_certified_counts(factor, [box])[0])
        except (BoundaryRoot, NoConvergence) as exc:
            found.append(exc)
    return found


def verify_realization(
    result: RealizationResult,
    target: FrequencyTarget,
    weights: WeightTable | None = None,
    tol: float = 1e-8,
) -> SpectrumReport:
    """Certify each assigned +-i*omega as an isolated root of its factor.

    Per target: the factor residual must stay below tol, Newton from
    i*omega must land within max(tol, 1e-8) of it (a root moves by about
    the residual over |D'|, so a looser tol allows more drift), and the
    argument-principle count in the isolation box around +-i*omega must
    be exactly one.  Numeric
    failures mark the target failed instead of raising.  A box that holds
    more than one root is halved, up to 11 times, until it holds one.  The
    boxes of a factor's targets are counted in one batch per halving
    level; when a batch fails (a box touches a root, overflows or names an
    edge root), each of its boxes is counted on its own, so the report is
    the same as from counts one box at a time.

    Only the boxes around +i*omega are counted, and only +i*omega is
    polished.  The factor has real coefficients, so D(conj z) = conj D(z),
    and the box around -i*omega is the exact mirror of the one around
    +i*omega (negation is exact in floating point): it holds as many
    roots, and the certificate of the upper box proves that count.  The
    residual and the Newton polish at -i*omega are those at +i*omega
    conjugated bit for bit (cmath.exp, complex products and CPython's
    complex quotient commute with conjugation), but for the sign of a zero
    real part.  So each -omega check is the +omega check with sign -1 and
    its polished root conjugated, a zero real part written -0.0 as the
    polish from 1j * -omega leaves it.  A failed count of the +omega box
    fails the -omega check with the same note.  Targets too close for a
    box of positive height raise ValueError (see
    :func:`_isolation_halfwidth`).
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
        bound = factor.coefficient_bound()
        # unlucky clustering: a neighbouring root may sit inside the
        # nominal box, so boxes that hold more than one root are halved
        # until exactly one remains; each level is one batch of boxes
        counts = [0] * len(group)
        boxes: list = [None] * len(group)
        errors: list = [None] * len(group)
        pending = list(range(len(group)))
        d = delta
        for _ in range(12):
            for i in pending:
                boxes[i] = Region(-d, d, group[i] - d, group[i] + d)
            for i, got in zip(pending, _isolation_counts(factor, [boxes[i] for i in pending])):
                if isinstance(got, Exception):
                    errors[i] = got
                    continue
                counts[i], _, edges = got
                values = np.concatenate([vals for _, vals, _ in edges])
                min_abs = min(min_abs, float(np.abs(values).min()))
                panels = max(panels, *(len(turn) for _, _, turn in edges))
            pending = [i for i in pending if errors[i] is None and counts[i] > 1]
            if not pending:
                break
            d *= 0.5
        for omega, count, box, error in zip(group, counts, boxes, errors):
            residual = abs(evaluate(factor, 1j * omega))
            note = ""
            polished = None
            offset = None
            ok = residual < tol
            if error is not None:
                ok = False
                note = f"count failed: {error}"
            else:
                roots_counted += 2 * count
                if count != 1:
                    ok = False
                    note = f"isolation box holds {count} roots"
            if ok:
                try:
                    polished = polish_root(factor, 1j * omega, 1e-12 * _scale(bound, box))
                    offset = abs(polished - 1j * omega)
                    if offset > max(tol, 1e-8):
                        ok = False
                        note = f"polished root drifted {offset:.3e} from target"
                except NoConvergence as exc:
                    ok = False
                    note = f"polish failed: {exc}"
            mirrored = None
            if polished is not None:
                # conj(polished) with a zero real part as -0.0: 1j * -omega
                # is -0.0 - omega*1j, and a polish that takes no step
                # returns it unchanged
                mirrored = complex(-(0.0 - polished.real), -polished.imag)
            checks += [
                TargetCheck(j, omega, 1, residual, count, polished, offset, ok, note),
                TargetCheck(j, omega, -1, residual, count, mirrored, offset, ok, note),
            ]
    overall = all(c.passed for c in checks)
    return SpectrumReport(
        targets=tuple(checks),
        passed=overall,
        roots_counted=roots_counted,
        contour_min_abs=float(min_abs) if np.isfinite(min_abs) else float("nan"),
        contour_panels=panels,
    )
