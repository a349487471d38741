"""Locate and count characteristic roots in rectangles of the complex plane.

The count comes from the argument principle: the winding number of D along
the boundary of a rectangle equals the number of enclosed zeros with
multiplicity.  It is certified segment by segment (Ying and Katz 1988;
Johnson and Tucker 2009), by one certificate, the chord.  Every term of
D' and D'' is largest at the smaller real part of a segment [a, b] of
length h, so |D'| <= M = 1 + sum_k |a_k b_k| tau_k exp(-x_min tau_k)
and |D''| <= C = sum_k |a_k b_k| tau_k^2 exp(-x_min tau_k).  The chord
through the true end values misses D by at most min(M h, C h^2 / 8)
along the segment, and the computed chord [D_a, D_b] lies within
max(f_a, f_b) of the true one, f being the rounding floor of the
computed D; so D stays within r = min(M h, C h^2 / 8) + max(f_a, f_b)
of the computed chord.  When the chord keeps farther than r from 0
(less a rounding allowance of 4 eps (|D_a| + |D_b|)), that convex
neighbourhood excludes 0, and the principal arg(D_b / D_a) is the true
change of argument along the segment.  Each edge of a counted region
starts with 16 segments, and each grid line with 8 per cell it crosses;
the uncertified ones of all paths are bisected together, one batch per
level.  The count, the sum of the increments over 2 pi, must lie within
1e-6 of an integer.

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
boundary touches a root.  Every cell with roots gets Newton starts from
the argument-principle moments of its certified edges (Delves and Lyness
1967; Kravanja and Van Barel 2000): the power sums s_p of its roots, p =
1..count, relative to its centre, as trapezoid sums over its certified
segments of the change of log D (:func:`_cells`), the sums of all cells of
a grid in one set of array operations; Newton's identities turn them into
the starts.  A cell is done when every start polishes to a root inside
it, no two of them closer than the margin; only a cell that fails is cut
in four, reusing its certified edges, so a split certifies only its two
cut lines, first at 0.53 of the width and height, and its children get
their own starts.  :func:`verify_realization` certifies that every
prescribed +-i*omega of a realization really is an isolated root of its
factor.  It counts the isolation boxes around +i*omega of all targets of
all factors in one call of :func:`_batch_counts`, and the boxes it has to
halve in one call per halving level; each call certifies its boxes in one
batch of paths, and counts them one by one only when that batch fails, so
every box comes out as if counted alone.  Only these upper boxes are
certified: the factor's coefficients are real, so D(conj z) = conj D(z),
and each box around -i*omega, its exact mirror in floating point, holds
the mirrored roots; its check is the upper one mirrored.

Every node the certifier touches, the starting nodes of all lines and
every bisection midpoint alike, goes through one kernel,
:func:`_node_values`: one table exp(-z tau) over the batch, and D from
it in one call of :func:`quasipoly._term_sums`, the very floats that
:func:`quasipoly.evaluate_many` gives.  The lines of one batch may
belong to several factors that share their delays, as the factors of a
realization do (they differ only in their weights).  The certifier takes
the one delay vector and one row of products a_k b_k per factor, the
call sums every row, and each node reads its own factor's row, which is
row 0 when there is one factor; the starting nodes and each bisection
level pick those rows once, for D and the bounds alike.  One factor and
many take the same path, through :func:`_batch_counts` and
:func:`_certify`, every line naming its factor's row.  Every sum over
the delay terms, of D and the bounds alike, is one call of
:func:`quasipoly._term_sums`, whose rounding depends neither on the batch
of nodes nor on the other rows, so a node's values are the same bits
whichever lines, regions or factors share its batch, and a batch of
regions counts each one exactly as it would be counted alone.
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
from .realization import FrequencyTarget, RealizationResult, WeightTable, _check_tol, result_factors

__all__ = [
    "Region",
    "TargetCheck",
    "SpectrumReport",
    "count_roots",
    "polish_root",
    "locate_roots",
    "verify_realization",
]

_INTEGER_TOL = 1e-6
_BOUNDARY_REL = 1e-8
_DILATE = 1e-6
_EPS = float(np.finfo(float).eps)
# the nodes of a path split each gap between two cuts into 8 equal segments
_FRACTIONS = np.arange(8) / 8
# below this |D| the products of the chord test stay finite
_CHORD_TOP = 2.0**500


@dataclass(frozen=True)
class Region:
    """Axis-aligned open rectangle in the complex plane, with finite
    bounds, width and height."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        # a non-finite bound makes its side non-finite too
        if not (math.isfinite(self.re_max - self.re_min) and math.isfinite(self.im_max - self.im_min)):
            raise ValueError(f"region bounds, width and height must be finite, got {self.to_dict()}")
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


def _node_values(taus, ab, z: np.ndarray, pick: np.ndarray):
    """D at the nodes z, from one table exp(-z tau) and one call of
    :func:`quasipoly._term_sums` over the rows a_k b_k of ab, D = z -
    sum_k E_k a_k b_k.  The sums are laid out factor by factor, node by
    node, and node z[i] reads entry pick[i] of them, its factor's row times
    z.size plus i (pick has the shape of z; see :func:`_certify`).  Each
    value is bit for bit what :func:`quasipoly.evaluate_many` gives for
    that factor, whatever else is in the batch.  Overflow gives non-finite
    values, which the callers report."""
    with np.errstate(over="ignore", invalid="ignore"):
        return z - _term_sums(np.exp(-np.multiply.outer(z, taus)), ab).reshape(-1).take(pick)


class _Touch(BoundaryRoot):
    """A node of a path has |D| at or below the boundary threshold."""


def _bounds(taus, weights, z, vals, threshold, pick):
    """Per node z, where D is vals, the rows of :func:`_certified` as one
    array: the rounding floor f of D, the slope bound 1 + sum_k |a_k b_k|
    tau_k exp(-x tau_k), the curvature sum sum_k |a_k b_k| tau_k^2 exp(-x
    tau_k), and |D|; weights has the rows |a_k b_k| tau_k^(0, 1, 2), each
    a block of one row per factor, and node i reads its factor's row of
    each block through pick[i], as in :func:`_node_values`.  Raises
    NoConvergence when D or the rounding floor f overflowed (f can reach
    inf while |D| is finite, when some |a_k b_k| is near the float
    maximum, and then no segment would ever be certified) and _Touch when
    |D| <= threshold (broadcast against the nodes) somewhere."""
    size = np.abs(vals)
    if not np.isfinite(size.max()):
        raise NoConvergence(float("nan"), "factor overflowed on the contour")
    touch = size <= threshold
    if touch.any():
        raise _Touch(f"|D| = {size[touch].min():.3e} on the contour")
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-np.multiply.outer(z.real, taus))
        total, slope, curve = _term_sums(decay, weights).reshape(3, -1).take(pick, axis=1)
        slope += 1.0
        floor = 4.0 * _EPS * (np.abs(z) * slope + len(taus) * total)
    if not np.isfinite(floor.max()):
        raise NoConvergence(float("nan"), "rounding floor of D overflowed on the contour")
    return np.array((floor, slope, curve, size))


def _certified(a, b):
    """Whether D provably stays off 0 along each segment [a, b] of length
    h, whose ends a and b are given as (z, D, rows): the nodes, the
    computed D there and the rows of :func:`_bounds`; f, M and C are
    taken at the end where each is larger.

    The chord certificate: D stays within r = min(M h, C h^2 / 8) +
    max(f_a, f_b) of the computed chord [D_a, D_b], with M the slope
    bound, C the curvature sum and f the rounding floor, and the chord
    keeps farther than r from 0, with an allowance of 4 eps (|D_a| + |D_b|)
    for the rounding of the distance.  Let g be D less the chord through
    the true end values: g vanishes at both ends and |g'| <= M + |D_b -
    D_a| / h <= 2 M, so |g| <= M h; and linear interpolation misses a C^2
    path by at most h^2 / 8 times the bound on its second derivative,
    complex values included, since the error is an integral of the second
    derivative against a kernel of one sign.  Each point of the computed
    chord lies within max(f_a, f_b) of the true one.  So D stays in a
    convex set that excludes 0, and the principal arg(D_b / D_a) is its
    true change of argument.  The distance is that to the nearer end when
    the foot of the perpendicular from 0 falls outside the chord, and
    |Im(conj D_a D_b)| / |D_b - D_a| otherwise, the cross product taken
    with D_b - D_a.  When some |D_a| or |D_b| passes 2^500, the products
    could overflow to a wrong distance, so each segment and its reach are
    first scaled by the power of two that brings the larger of |D_a| and
    |D_b| into [1/2, 1): that is exact and changes no comparison."""
    za, da, rows_a = a
    zb, db, rows_b = b
    h = np.abs(zb - za)
    floor, slope, curve, top = np.maximum(rows_a, rows_b)
    size_a, size_b = rows_a[3], rows_b[3]
    # an overflowed bound certifies nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        reach = np.minimum(slope * h, 0.125 * curve * h**2) + floor
        if top.max() > _CHORD_TOP:
            scale = np.ldexp(1.0, -np.frexp(top)[1])
            da, db, reach, size_a, size_b = da * scale, db * scale, reach * scale, size_a * scale, size_b * scale
        chord = db - da
        tail, head = da.conj() * chord, db.conj() * chord
        outside = (tail.real >= 0.0) | (head.real <= 0.0)
        distance = np.where(outside, np.minimum(size_a, size_b), np.abs(tail.imag) / np.abs(chord))
        return distance > reach + 4.0 * _EPS * (size_a + size_b)


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


def _certify(taus, ab, owner: np.ndarray, z, place, lengths: tuple[int, ...], threshold, resolution):
    """Certified paths along axis-parallel lines, one per line.

    The factors share the delays taus and differ in their products a_k b_k,
    one row of ab each; line i is a path of D for the factor of row
    owner[i] (all zeros when there is one factor).  z holds the starting
    nodes of all lines, line by line, lengths[i] of them on line i, and
    place their positions along their lines (x on a horizontal line, y on a
    vertical one), increasing along each line.  Each path comes back as (t,
    D, turn): its nodes t along the line in increasing order, the values D
    there, and the certified change of arg D over each segment.  The
    threshold of :func:`_bounds` and the resolution are given per line.
    Besides the errors of :func:`_bounds`, raises BoundaryRoot when a
    segment shorter than its line's resolution stays uncertified.
    Segments that :func:`_certified` refuses are bisected, those of all
    lines in one batch per level; each level carries (z, D, rows) at the
    ends of the open segments, rows those of :func:`_bounds`.  Each level,
    the starting nodes first, picks every node's factor row once and
    evaluates its nodes with :func:`_node_values` and :func:`_bounds`,
    whose values have the same bits whatever else is in the batch, so each
    line's path is bit for bit the one a batch of that line alone gives.
    """
    line, inner, ends = _line_layout(lengths)
    threshold = np.asarray(threshold, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(ab)
        weights = np.concatenate((size, size * taus, size * taus**2))

    def level(nodes, rows):
        """D and the rows of :func:`_bounds` at the nodes, on the lines
        rows."""
        pick = owner[rows] * rows.size + np.arange(rows.size)
        vals = _node_values(taus, ab, nodes, pick)
        return vals, _bounds(taus, weights, nodes, vals, threshold[rows], pick)

    vals, bounds = level(z, line)
    # each segment's ends a and b, as _certified takes them
    a = (z[:-1], vals[:-1], bounds[:, :-1])
    b = (z[1:], vals[1:], bounds[:, 1:])
    # the segments left uncertified; one that joins the last node of a
    # line to the first of the next needs no certificate
    bad = ~_certified(a, b) & inner
    if np.count_nonzero(bad):
        # every node made, as (line, position along it, D); the certified
        # segments of a line join its nodes in order
        resolution = np.asarray(resolution, dtype=float)
        rows, places, found = [line], [place], [vals]
        open_rows = line[:-1][bad]
        ta, tb = place[:-1][bad], place[1:][bad]
        a, b = [x[..., bad] for x in a], [x[..., bad] for x in b]
        while open_rows.size:
            h = np.abs(b[0] - a[0])
            short = h < resolution[open_rows]
            if short.any():
                k = int(np.argmin(np.where(short, h, np.inf)))
                raise BoundaryRoot(
                    f"no certificate for a segment of {h[k]:.3e} at {complex(a[0][k]):.6g}: "
                    "a root lies within a few node spacings of the contour"
                )
            zm, tm = 0.5 * (a[0] + b[0]), 0.5 * (ta + tb)
            mid = (zm, *level(zm, open_rows))
            rows.append(open_rows)
            places.append(tm)
            found.append(mid[1])
            ta, tb = np.concatenate((ta, tm)), np.concatenate((tm, tb))
            a = [np.concatenate(pair, axis=-1) for pair in zip(a, mid)]
            b = [np.concatenate(pair, axis=-1) for pair in zip(mid, b)]
            bad = ~_certified(a, b)
            open_rows = np.concatenate((open_rows, open_rows))[bad]
            ta, tb = ta[bad], tb[bad]
            a, b = [x[..., bad] for x in a], [x[..., bad] for x in b]
        line = np.concatenate(rows)
        order = np.lexsort((np.concatenate(places), line))
        place, vals = np.concatenate(places)[order], np.concatenate(found)[order]
        ends = np.cumsum(np.bincount(line)).tolist()
    turn = np.angle(vals[1:] / vals[:-1])
    return [(place[i:j], vals[i:j], turn[i : j - 1]) for i, j in zip([0] + ends, ends)]


def _nodes(cuts) -> np.ndarray:
    """Starting nodes of a path through the cuts (increasing, ends
    included), k = 0..7 of them at lo + (hi - lo) k / 8 between
    neighbouring cuts lo and hi, so every cut is a node; one row of nodes
    per leading index of cuts."""
    cuts = np.asarray(cuts, dtype=float)
    lo = cuts[..., :-1, None]
    inner = lo + (cuts[..., 1:, None] - lo) * _FRACTIONS
    return np.concatenate((inner.reshape(*cuts.shape[:-1], -1), cuts[..., -1:]), axis=-1)


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


def _batch_counts(taus, ab, owner, regions) -> list:
    """One outcome per region: (count, region, edges), the winding number
    of D for the factor of row owner[i] of ab (see :func:`_certify`)
    around regions[i] with the certified edges (bottom, top, left, right)
    it came from, or the BoundaryRoot or NoConvergence that counting
    regions[i] raised; owner is all zeros when there is one factor.

    Each outcome is the one the region gives counted alone.  All regions
    are first certified in one batch of paths, in which every region comes
    out bit for bit as if counted alone, because no value depends on the
    batch.  When the batch fails (a path touches a root, overflows or
    keeps an uncertified segment, or a winding is not a count), each
    region is counted alone.  A lone region whose contour touches a root
    is dilated once and counted again."""
    # sum_k |a_k b_k| per factor, summed as ScalarFactor.coefficient_bound sums it
    bound = [sum(map(abs, row)) for row in ab.tolist()]
    for dilated in (False, True):
        corners = np.array([(r.re_min, r.im_min, r.re_max, r.im_max) for r in regions])
        lo, hi = corners[:, :2, None], corners[:, 2:, None]
        # per region, the x and the y nodes of its edges
        nodes = _nodes(np.concatenate((lo, 0.5 * (lo + hi), hi), axis=-1))
        # per region, its edges bottom, top, left and right, node by node
        x = np.empty((len(regions), 4, nodes.shape[-1]))
        y = np.empty_like(x)
        x[:, :2], x[:, 2], x[:, 3] = nodes[:, None, 0], lo[:, 0], hi[:, 0]
        y[:, 0], y[:, 1], y[:, 2:] = lo[:, 1], hi[:, 1], nodes[:, None, 1]
        place = np.concatenate((x[:, :2], y[:, 2:]), axis=1)
        threshold = np.repeat([_BOUNDARY_REL * _scale(bound[j], r) for j, r in zip(owner, regions)], 4)
        resolution = np.repeat(_DILATE * (hi - lo).max(axis=(1, 2)), 4)
        try:
            paths = _certify(
                taus, ab, np.repeat(owner, 4), (x + 1j * y).ravel(), place.ravel(),
                (x.shape[-1],) * (4 * len(regions)), threshold, resolution,
            )
            sides = [tuple(paths[i : i + 4]) for i in range(0, len(paths), 4)]
            return [(_winding(*edges), region, edges) for region, edges in zip(regions, sides)]
        except (BoundaryRoot, NoConvergence) as exc:
            if len(regions) > 1:
                return [_batch_counts(taus, ab, [j], [region])[0] for j, region in zip(owner, regions)]
            if dilated or not isinstance(exc, _Touch):
                return [BoundaryRoot(f"{exc} even after dilation") if isinstance(exc, _Touch) else exc]
            regions = [regions[0].dilated(_DILATE)]


def _counted_alone(taus, ab, region):
    """(count, region, edges) of the region counted alone for the one row
    of ab, as :func:`_batch_counts` gives it; its error is raised."""
    outcome = _batch_counts(taus, ab, [0], [region])[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def count_roots(factor: ScalarFactor, region: Region) -> int:
    """Number of zeros of the factor inside the region, with multiplicity.

    The count is certified by the argument principle with the chord
    certificate of each boundary segment (see the module docstring).  It
    requires a root-free boundary: if |D| dips below 1e-8 * scale at a node
    the region is dilated once by 1e-6 and retried, then BoundaryRoot is
    raised; a boundary segment shorter than 1e-6 times the longer side that
    still has no certificate is BoundaryRoot at once.  Only uncertified
    segments are bisected.  NoConvergence is raised when D overflows on
    the contour (far left of the axis at large delays), when
    the rounding floor of D does (a product |a_k b_k| near the float
    maximum), or when the certified sum is not within 1e-6 of an integer.
    Factor multiplicity is not applied.
    """
    ab, taus = _term_arrays(factor)
    return _counted_alone(taus, ab[None], region)[0]


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


def _grid(taus, ab, xs, ys, threshold: float, resolution: float, edges=None):
    """The cells (region, contour, count) that hold roots, of the grid cut
    at xs and ys (increasing, ends included), for the factor of the delays
    taus and the one row of products ab (see :func:`_cells`).

    One batch certifies every line of the grid, each with 8 segments per
    cell it crosses and so a node at every crossing.  When edges, the
    certified (bottom, top, left, right) of the whole, are given, only the
    interior lines are certified and the edges take a node at each
    crossing, with D there from the interior line.
    """
    inner = slice(None) if edges is None else slice(1, -1)
    h_levels, v_levels = ys[inner], xs[inner]
    h_nodes, v_nodes = _nodes(xs), _nodes(ys)
    # the horizontal lines, then the vertical ones, node by node: a node's
    # place along its line, and its line's level
    lengths = (len(h_nodes),) * len(h_levels) + (len(v_nodes),) * len(v_levels)
    place = np.concatenate([h_nodes] * len(h_levels) + [v_nodes] * len(v_levels))
    level = np.repeat(np.concatenate((h_levels, v_levels)), lengths)
    across = len(h_levels) * len(h_nodes)
    z = place + 1j * level
    z[across:] = level[across:] + 1j * place[across:]
    paths = _certify(
        taus, ab, np.zeros(len(lengths), int), z, place,
        lengths, np.full(len(lengths), threshold), np.full(len(lengths), resolution),
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
    return _cells(xs, ys, rows, cols)


def _piece(path, lo: float, hi: float):
    """The part of a certified path between its nodes at lo and hi."""
    t, d, turn = path
    a, b = np.searchsorted(t, (lo, hi)).tolist()
    return t[a : b + 1], d[a : b + 1], turn[a:b]


class _Contour:
    """The certified contour of one grid cell: the Newton starts its
    moments give, and its edges (bottom, top, left, right), which iterating
    yields.  The edges are cut from the grid's lines when first read, since
    only a cell that is split needs them."""

    __slots__ = ("starts", "_region", "_lines", "_edges")

    def __init__(self, starts: tuple, region: Region, lines: tuple):
        self.starts = starts
        self._region = region
        self._lines = lines
        self._edges = None

    def __iter__(self):
        if self._edges is None:
            r = self._region
            bottom, top, left, right = self._lines
            self._edges = (_piece(bottom, r.re_min, r.re_max), _piece(top, r.re_min, r.re_max),
                           _piece(left, r.im_min, r.im_max), _piece(right, r.im_min, r.im_max))
        return iter(self._edges)


@lru_cache(maxsize=64)
def _grid_pieces(kx: int, ky: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a grid of kx x ky cells whose lines are the ky + 1 rows of kx
    pieces each and then the kx + 1 columns of ky pieces each: the first
    piece of each line, every piece, and the bottom, right, top and left
    piece of each cell, the cells row by row."""
    first = np.concatenate((np.arange(ky + 1) * kx, (ky + 1) * kx + np.arange(kx + 1) * ky))
    j, i = np.divmod(np.arange(kx * ky), kx)
    bottom, left = j * kx + i, (ky + 1) * kx + i * ky + j
    edges = np.stack((bottom, left + ky, bottom + kx, left))
    pieces = np.arange((ky + 1) * kx + (kx + 1) * ky)
    for a in (first, pieces, edges):
        a.setflags(write=False)  # shared by every caller
    return first, pieces, edges


# for the edges of a cell, bottom, right, top and left: the sense of each
# one's run around the cell along its line, and its first node less the
# cell's centre, from the lengths of the bottom and right edges
_SENSE = np.array([1.0, 1.0, -1.0, -1.0])
_FIRST_NODES = 0.5 * np.array([[-1, -1j, 0, 0], [1, -1j, 0, 0], [-1, 1j, 0, 0], [-1, -1j, 0, 0]])


@lru_cache(maxsize=16)
def _moment_factor(top: int) -> np.ndarray:
    """The factor of each edge's sum of w^k d log D, k = 0..top, in the
    sum around a cell: its sense times i^k on a column, where w = i t."""
    k = np.arange(top + 1)[:, None]
    return (_SENSE * np.where([False, True, False, True], 1j**k, 1.0))[:, :, None]


def _starts(sums: list[complex], centre: complex) -> tuple:
    """Newton starts for the roots in a cell, from their power sums s_p
    about its centre, p = 1..count: s_1 itself for one root; for more,
    Newton's identities n e_n = sum_(q = 1..n) (-1)^(q - 1) e_(n - q) s_q
    with e_0 = 1 and the roots of the monic polynomial with the
    coefficients (-1)^n e_n, the quadratic for two and np.roots above.  No
    starts when a sum is not finite."""
    count = len(sums)
    if not all(map(cmath.isfinite, sums)):
        return ()
    if count == 1:
        return (centre + sums[0],)
    e = [1.0]
    for n in range(1, count + 1):
        e.append(sum((-1) ** (q - 1) * e[n - q] * sums[q - 1] for q in range(1, n + 1)) / n)
    if count == 2:
        root = cmath.sqrt(e[1] * e[1] - 4.0 * e[2])
        return (centre + 0.5 * (e[1] + root), centre + 0.5 * (e[1] - root))
    return tuple((centre + np.roots([(-1) ** n * e[n] for n in range(count + 1)])).tolist())


def _cells(xs, ys, rows, cols):
    """The cells (region, contour, count) that hold roots, of the grid cut
    at xs and ys whose certified lines are rows (at ys, along x) and cols
    (at xs, along y); each count is the sum of the turns of the cell's
    edge pieces, and each contour (:class:`_Contour`) carries the cell's
    Newton starts (:func:`_starts`).

    The starts come from the power sums s_p = (1 / 2 pi i) oint u^p D'/D
    dz = (1 / 2 pi i) oint u^p d log D of the roots in the cell, p =
    1..count, with u = z - c relative to the cell's centre c.  Each is
    summed over the certified segments [a, b] of the cell's edges as
    (u_a^p + u_b^p) / 2 times the change of log D along the segment,
    ln|D_b / D_a| + i turn, turn the segment's certified increment of arg
    D.  By summation by parts this is the trapezoid rule on the certified
    nodes for s_p = count u0^p - (p / 2 pi i) oint u^(p-1) log D dz, the
    contour starting at u0 and theta = arg D continued along it by the
    turns (exactly so for p = 1), without carrying theta around each cell.
    The sums are taken for every piece of every line at once, in powers of
    the distance t from the piece's first node, and moved to each cell's
    centre by the binomial theorem.
    """
    kx, ky = len(xs) - 1, len(ys) - 1
    places, values, turns = zip(*rows, *cols)
    t, d = np.concatenate(places), np.concatenate(values)
    line, inner, _ = _line_layout(tuple(map(len, places)))
    first, pieces, edges = _grid_pieces(kx, ky)
    # the piece of each node, by its gap between its line's interior cuts,
    # and the first node of each piece
    across = sum(map(len, places[: ky + 1]))
    piece = first[line]
    piece[:across] += np.searchsorted(np.asarray(xs[1:-1]), t[:across], "right")
    piece[across:] += np.searchsorted(np.asarray(ys[1:-1]), t[across:], "right")
    begin = np.searchsorted(piece, pieces)
    # the certified turn over each pair of neighbouring nodes of a line, 0
    # between lines; its sums over the pieces count each cell's roots
    turn = np.zeros(len(t) - 1)
    turn[inner] = np.concatenate(turns)
    counts = [_count(x) for x in (_SENSE @ np.add.reduceat(turn, begin)[edges]).tolist()]
    held = np.flatnonzero(counts)
    if not held.size:
        return []
    edge = edges[:, held]
    top = max(counts)
    # per pair the change of log D, ln|D_b / D_a| + i turn, and per piece
    # the trapezoid sums of t^k d log D, k = 0..top, t from the piece's
    # first node; per edge of a cell, the sums of w^k d log D with its sense
    log_d = np.log(np.abs(d))
    step = (log_d[1:] - log_d[:-1]) * inner + 1j * turn
    half = 0.5 * step
    origin = t[begin][piece[:-1]]
    ta, tb = t[:-1] - origin, (t[1:] - origin) * inner
    terms, pa, pb = [step], 1.0, 1.0
    for _ in range(top):
        pa, pb = pa * ta, pb * tb
        terms.append((pa + pb) * half)
    sums = np.add.reduceat(terms, begin, axis=1)[:, edge] * _moment_factor(top)
    # moved to u = w + the edge's first node less the centre: sums[k]
    # becomes sum_q C(k, q) shift^(k - q) sums[q], one Pascal step a time
    shift = _FIRST_NODES @ np.maximum.reduceat(tb, begin)[edge]
    for low in range(1, top + 1):
        for k in range(top, low - 1, -1):
            sums[k] += shift * sums[k - 1]
    power_sums = sums[1:].sum(axis=1) / (2j * np.pi)
    cells = []
    for k, row in zip(held.tolist(), power_sums.T.tolist()):
        count = counts[k]
        j, i = divmod(k, kx)
        region = Region(xs[i], xs[i + 1], ys[j], ys[j + 1])
        starts = _starts(row[:count], region.center)
        cells.append((region, _Contour(starts, region, (rows[j], rows[j + 1], cols[i], cols[i + 1])), count))
    return cells


def _cuts(lo: float, hi: float, k: int) -> list[float]:
    """lo, the k - 1 interior cuts at (i + 0.06)/k of the way, and hi."""
    return [lo] + [lo + (i + 0.06) / k * (hi - lo) for i in range(1, k)] + [hi]


def _grid_shape(taus, region: Region, max_roots: int) -> tuple[int, int]:
    """Cells across and up for the first grid of :func:`locate_roots`:
    about two per root expected from the root spacing 2 pi / max tau
    along the height, at least 2 and at most 2 * max_roots, roughly
    square."""
    width = region.re_max - region.re_min
    height = region.im_max - region.im_min
    delay = float(taus.max(initial=0.0))
    cells = max(min(2.0 * height * delay / (2.0 * np.pi), 2.0 * max_roots), 2.0)
    kx = max(round(min(math.sqrt(cells * width / height), cells)), 1)
    return kx, max(round(cells / kx), 1)


def _polished(factor: ScalarFactor, starts, cell: Region, tol: float, margin: float) -> list[complex]:
    """The roots Newton reaches from the starts, polished to |D| < tol, up
    to the first that fails, leaves the cell or comes within margin of
    another."""
    roots: list[complex] = []
    for start in starts:
        try:
            z = polish_root(factor, start, tol)
        except NoConvergence:
            break
        if not cell.contains(z) or any(abs(z - w) < margin for w in roots):
            break
        roots.append(z)
    return roots


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
    :func:`count_roots` does, and is the one cell.  Each cell's roots are
    polished from the starts its argument-principle moments give (see
    :func:`_cells`); the cell is done when all of them land inside it, no
    two within the margin 1e-9 * scale.  Only a cell that fails this is
    cut in four, reusing its certified edges, first at 0.53 of its width
    and height, and its children get their own starts.  A cut that grazes
    a root, or whose children's counts do not add up, is retried at other
    fractions (0.5 next) before BoundaryRoot propagates.  Every returned
    root satisfies |D| < 1e-10 * scale and lies in the (marginally padded)
    region; the total matches the argument-principle count of the whole
    region.
    """
    scale = _scale(factor.coefficient_bound(), region)
    threshold = _BOUNDARY_REL * scale
    ab, taus = _term_arrays(factor)
    ab = ab[None]
    kx, ky = _grid_shape(taus, region, max_roots)
    x0, x1, y0, y1 = region.re_min, region.re_max, region.im_min, region.im_max
    try:
        stack = _grid(
            taus, ab, _cuts(x0, x1, kx), _cuts(y0, y1, ky), threshold, _DILATE * max(x1 - x0, y1 - y0)
        )
    except (BoundaryRoot, NoConvergence):
        _, cell, (bottom, top, left, right) = _counted_alone(taus, ab, region)
        stack = _cells([cell.re_min, cell.re_max], [cell.im_min, cell.im_max], [bottom, top], [left, right])
    total = sum(count for _, _, count in stack)
    if total == 0:
        return []
    if total > max_roots:
        raise TooManyRoots(f"region holds {total} roots, caller allowed {max_roots}")
    accept_tol = 1e-10 * scale
    margin = 1e-9 * scale
    roots: list[complex] = []
    while stack:
        cell, contour, count = stack.pop()
        found = _polished(factor, contour.starts, cell, accept_tol, margin)
        if len(found) == count:
            roots.extend(found)
            continue
        if cell.diameter < margin:
            raise NoConvergence(float("nan"), "subdivision failed to isolate roots")
        x0, x1, y0, y1 = cell.re_min, cell.re_max, cell.im_min, cell.im_max
        resolution = _DILATE * max(x1 - x0, y1 - y0)
        for frac in _SPLIT_FRACTIONS:
            xs = [x0, x0 + frac * (x1 - x0), x1]
            ys = [y0, y0 + frac * (y1 - y0), y1]
            try:
                children = _grid(taus, ab, xs, ys, threshold, resolution, contour)
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
    one of their edges (16 unless some segment had to be bisected).  Both
    come from the boxes around +i*omega, the only ones certified; the box
    around -i*omega mirrors one of them."""

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

    Capped at 0.05, at half the smallest gap among the targets omega and
    between the lowest of them and the real axis, and at a quarter of the
    equation's mean vertical root spacing 2*pi/max_delay: realized delays
    routinely reach 1e3..1e4, which packs genuine neighbouring roots far
    closer than any fixed box width.  The gap to the axis keeps every box
    off it (the boxes around -omega mirror those around omega), since a
    real root of D would lie on the contour of a box that reached it.
    Raises ValueError, before anything is counted, when the box around
    some omega has no height in floating point (omega +- delta rounds to
    omega), naming the cause.
    """
    # the real axis and omega in increasing order: every gap that binds
    omegas = sorted(target.flat.tolist())
    ladder = [0.0] + omegas
    gaps = [high - low for low, high in zip(ladder, ladder[1:])]
    k = gaps.index(min(gaps))
    delta = min(0.05, 0.5 * gaps[k])
    if max_delay > 0:
        delta = min(delta, 0.5 * math.pi / max_delay)
    flat = [w for w in omegas if w - delta == w + delta]
    if flat:
        low, high = ladder[k : k + 2]
        if delta != 0.5 * gaps[k]:
            cause = f"it is capped at 0.05 and at pi/2 over the largest delay {max_delay!r}"
        elif k == 0:
            cause = f"the target {high!r}i is only {high:.3g} above the real axis"
        else:
            cause = f"the targets {low!r}i and {high!r}i are only {high - low:.3g} apart"
        raise ValueError(
            f"no isolation box fits around {flat[0]!r}i: its half-width {delta:.3g} is below "
            f"the float spacing there, because {cause}"
        )
    return delta


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
    boxes of the targets of every factor go to one call of
    :func:`_batch_counts` per call and per halving level, which counts
    them in one batch and, when that batch fails (a box touches a root,
    overflows or names an edge root), counts each box on its own; so the
    report is the same as from counts one box at a time.  When the count
    of a halved box fails, its target reports the last certified count as
    local_count, with the note "count failed: ...".

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
    :func:`_isolation_halfwidth`), and so does a tol that is not positive
    and finite.
    """
    _check_tol(tol)
    if weights is None:
        weights = WeightTable.ones(target.n, target.r)
    taus, coeffs = result.taus, result.coeffs
    if len(taus) != target.n or len(coeffs) != target.n or weights.b.shape != (target.r, target.n):
        raise ValueError("result, target, and weights have mismatched dimensions")
    # the boxes are counted from the shared delays and the products a_k b_k,
    # one row per factor; the factors serve the residual and the polish
    ab = coeffs * weights.b
    factors = result_factors(result, weights)
    delta = _isolation_halfwidth(target, float(taus.max()))
    # every target +i*omega, factor by factor
    owner = [j for j, group in enumerate(target.groups) for _ in group]
    omegas = [omega for group in target.groups for omega in group]
    # unlucky clustering: a neighbouring root may sit inside the nominal
    # box, so boxes that hold more than one root are halved until exactly
    # one remains; each level is one batch of the boxes of every factor
    counts = [0] * len(omegas)
    boxes: list = [None] * len(omegas)
    errors: list = [None] * len(omegas)
    min_abs = np.inf
    panels = 0
    pending = list(range(len(omegas)))
    d = delta
    for _ in range(12):
        for i in pending:
            boxes[i] = Region(-d, d, omegas[i] - d, omegas[i] + d)
        found = _batch_counts(taus, ab, [owner[i] for i in pending], [boxes[i] for i in pending])
        for i, got in zip(pending, found):
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
    checks: list[TargetCheck] = []
    roots_counted = 0
    for j, omega, count, box, error in zip(owner, omegas, counts, boxes, errors):
        factor = factors[j]
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
                scale = _scale(factor.coefficient_bound(), box)
                polished = polish_root(factor, 1j * omega, 1e-12 * scale)
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
