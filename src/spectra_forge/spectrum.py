"""Locate and count characteristic roots in rectangles of the complex plane.

The count comes from the argument principle: the winding number of D along
the boundary of a rectangle equals the number of enclosed zeros with
multiplicity.  The winding integral of D'/D is computed by trapezoid
panels that double until the value snaps to an integer.  Root locations
then follow by quadrisection plus Newton polish, and
:func:`verify_realization` certifies that every prescribed +-i*omega of a
realization really is an isolated root of its assigned factor.

Every curve evaluated here is axis-parallel: rectangle edges and the cut
lines of the quadrisection.  On such a line each term splits into a
modulus exp(-x tau_k) and a torus angle y tau_k, one of them constant
along the line.  So the kernel :func:`_line_values` builds one table
exp(-x tau) over the x nodes, shared by the bottom and top edges, and one
table exp(-i y tau) over the y nodes, shared by the left and right edges,
and finishes each edge with its constant factor; D = z - E @ ab and
D' = 1 + E @ (ab tau) come from the same table E.  A rectangle with N
panels per edge costs (N+1)*m exponentials of real arguments and (N+1)*m
sincos pairs for m terms, not 2*(4N+1)*m complex exponentials, and every
table entry is the same product exp(-x tau) * cis(-y tau) that a complex
exponential of -z*tau forms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryRoot, NoConvergence, TooManyRoots
from .quasipoly import ScalarFactor, _term_arrays, evaluate, evaluate_derivative

# Not called here; perfbench/spans.py wraps these names in this namespace.
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

_START_PANELS = 256
_MAX_PANELS = 1 << 20
_SNAP_TOL = 1e-3
_BOUNDARY_REL = 1e-8
_DILATE = 1e-6


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


def _line_values(factor: ScalarFactor, xs, ys, im_levels=(), re_levels=()):
    """(z, D, D') on the horizontal lines xs + i*y for y in im_levels, then
    on the vertical lines x + i*ys for x in re_levels, as arrays with one
    row per line; xs and ys need the same length when both are used.

    The horizontal lines share the table exp(-x tau) and the vertical ones
    the table exp(-i y tau); only the constant factor differs per line.
    Both tables are complex exponentials of purely real or purely imaginary
    arguments, so each entry of E is the same float as the complex
    exp(-z*tau) of the direct evaluation (numpy's real exp can differ from
    it in the last bit).  Overflow gives non-finite values, which the
    callers report.
    """
    ab, taus = _term_arrays(factor)
    size = len(xs) if im_levels else len(ys)
    lines = len(im_levels) + len(re_levels)
    z = np.empty((lines, size), dtype=complex)
    e = np.empty((lines, size, len(taus)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if im_levels:
            modulus = np.exp(np.multiply.outer(xs, -taus) + 0j)
            for row, y in enumerate(im_levels):
                np.add(xs, 1j * y, out=z[row])
                np.multiply(modulus, np.exp(-1j * y * taus), out=e[row])
        if re_levels:
            angle = np.exp(-1j * np.multiply.outer(ys, taus))
            for row, x in enumerate(re_levels, start=len(im_levels)):
                np.add(x, 1j * ys, out=z[row])
                np.multiply(np.exp(-x * taus + 0j), angle, out=e[row])
        vals = z - e @ ab
        ders = 1.0 + e @ (ab * taus)
    return z, vals, ders


def _newton_distance(vals, ders) -> float:
    """min |D|/|D'| over the nodes: a local estimate of the distance from
    the nearest node to the nearest root (NaN when D overflowed)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float((np.abs(vals) / np.maximum(np.abs(ders), 1e-300)).min())


def _contour_values(factor: ScalarFactor, region: Region, per_edge: int):
    """(z, D, D') at the 4*per_edge + 1 nodes of the region's boundary,
    counter-clockwise from the bottom-left corner back to it."""
    xs = np.linspace(region.re_min, region.re_max, per_edge + 1)
    ys = np.linspace(region.im_min, region.im_max, per_edge + 1)
    lines = _line_values(
        factor, xs, ys, (region.im_min, region.im_max), (region.re_min, region.re_max)
    )
    # rows: bottom, top, left, right
    return tuple(np.concatenate([a[0], a[3, 1:], a[1, -2::-1], a[2, -2::-1]]) for a in lines)


def _scale(factor: ScalarFactor, region: Region) -> float:
    corner = max(
        abs(complex(region.re_min, region.im_min)),
        abs(complex(region.re_max, region.im_max)),
        abs(complex(region.re_min, region.im_max)),
        abs(complex(region.re_max, region.im_min)),
    )
    return 1.0 + corner + factor.coefficient_bound()


def _count_with_diag(factor: ScalarFactor, region: Region):
    """(count, min |D| on contour, panels per edge); one dilation retry."""
    dilated = False
    while True:
        threshold = _BOUNDARY_REL * _scale(factor, region)
        per_edge = _START_PANELS
        overall_min = np.inf
        while True:
            z, vals, ders = _contour_values(factor, region, per_edge)
            if not np.all(np.isfinite(vals)):
                raise NoConvergence(float("nan"), "factor overflowed on the contour")
            min_abs = float(np.abs(vals).min())
            overall_min = min(overall_min, min_abs)
            if min_abs <= threshold:
                break
            f = ders / vals
            if not np.all(np.isfinite(f)):
                raise NoConvergence(float("nan"), "factor overflowed on the contour")
            integral = np.sum(0.5 * (f[:-1] + f[1:]) * np.diff(z))
            winding = integral / (2j * np.pi)
            nearest = round(winding.real)
            if nearest >= 0 and abs(winding - nearest) < _SNAP_TOL:
                return int(nearest), min_abs, per_edge, region
            if per_edge >= _MAX_PANELS:
                # a root within two node spacings of the contour spoils the
                # trapezoid sum at every panel count: name it as such
                side = max(region.re_max - region.re_min, region.im_max - region.im_min)
                newton = _newton_distance(vals, ders)
                if newton < 2.0 * side / per_edge:
                    raise BoundaryRoot(
                        f"a root lies {newton:.3e} from the contour, within two node spacings"
                    )
                raise NoConvergence(
                    float("nan"), f"winding integral did not snap below {_MAX_PANELS} panels/edge"
                )
            per_edge *= 2
        if dilated:
            raise BoundaryRoot(f"|D| = {overall_min:.3e} on the contour even after dilation")
        region = region.dilated(_DILATE)
        dilated = True


def count_roots(factor: ScalarFactor, region: Region) -> int:
    """Number of zeros of the factor inside the region, with multiplicity.

    Requires a root-free boundary: if |D| dips below 1e-8 * scale on the
    contour the region is dilated once by 1e-6 and retried, then
    BoundaryRoot is raised.  NoConvergence is raised when D or D' overflows
    on the contour (far left of the axis at large delays) or the winding
    integral does not snap, unless min |D|/|D'| on the finest contour puts a
    root within two node spacings of it, which is again BoundaryRoot.
    Factor multiplicity is not applied.
    """
    count, _, _, _ = _count_with_diag(factor, region)
    return count


def polish_root(factor: ScalarFactor, lambda0: complex, tol: float = 1e-12) -> complex:
    """Newton polish from a nearby starting point, at most 30 iterations.

    Steps are halved while they fail to shrink |D|; a vanishing derivative
    or a stalled search raises NoConvergence.
    """
    z = complex(lambda0)
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
    raise NoConvergence(abs(val), "polish did not reach tolerance in 30 iterations")


def _quadrisect(region: Region, fx: float, fy: float) -> list[Region]:
    xm = region.re_min + fx * (region.re_max - region.re_min)
    ym = region.im_min + fy * (region.im_max - region.im_min)
    return [
        Region(region.re_min, xm, region.im_min, ym),
        Region(xm, region.re_max, region.im_min, ym),
        Region(region.re_min, xm, ym, region.im_max),
        Region(xm, region.re_max, ym, region.im_max),
    ]


def _cut_is_risky(factor: ScalarFactor, region: Region, fx: float, fy: float) -> bool:
    """Newton-distance screen along the two proposed cut lines.

    min |D|/|D'| at a sample estimates the distance to the nearest root, so
    a value below twice the sample spacing flags a root hugging the cut.
    Realized roots sit exactly on the imaginary axis, which makes midline
    cuts through them the common case rather than a rarity.
    """
    xm = region.re_min + fx * (region.re_max - region.re_min)
    ym = region.im_min + fy * (region.im_max - region.im_min)
    samples = 1024
    ys = np.linspace(region.im_min, region.im_max, samples + 1)
    _, vals, ders = _line_values(factor, None, ys, re_levels=(xm,))
    if _newton_distance(vals, ders) < 2.0 * (region.im_max - region.im_min) / samples:
        return True
    xs = np.linspace(region.re_min, region.re_max, samples + 1)
    _, vals, ders = _line_values(factor, xs, None, im_levels=(ym,))
    return _newton_distance(vals, ders) < 2.0 * (region.re_max - region.re_min) / samples


_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.41, 0.59, 0.445, 0.565)


def locate_roots(
    factor: ScalarFactor, region: Region, max_roots: int = 64
) -> list[complex]:
    """All roots inside the region, by quadrisection down to single roots.

    Cut lines that graze a root are retried at shifted fractions before
    BoundaryRoot propagates.  Every returned root satisfies
    |D| < 1e-10 * scale and lies in the (marginally padded) region; the
    total matches the argument-principle count of the whole region.
    """
    total = count_roots(factor, region)
    if total == 0:
        return []
    if total > max_roots:
        raise TooManyRoots(f"region holds {total} roots, caller allowed {max_roots}")
    accept_tol = 1e-10 * _scale(factor, region)
    fine = min(0.05, 0.25 * region.diameter)
    roots: list[complex] = []
    stack = [(region, total)]
    guard = 0
    while stack:
        guard += 1
        if guard > 100_000:
            raise NoConvergence(float("nan"), "subdivision failed to isolate roots")
        cell, count = stack.pop()
        if count == 1 and cell.diameter <= fine:
            z = polish_root(factor, cell.center, accept_tol)
            roots.append(z)
            continue
        children = None
        for fx in _SPLIT_FRACTIONS:
            if _cut_is_risky(factor, cell, fx, fx):
                continue
            try:
                quads = _quadrisect(cell, fx, fx)
                counted = [(q, count_roots(factor, q)) for q in quads]
            except (BoundaryRoot, NoConvergence):
                continue
            if sum(c for _, c in counted) == count:
                children = counted
                break
        if children is None:
            raise BoundaryRoot(f"could not split cell {cell.to_dict()} cleanly")
        for q, c in children:
            if c > 0:
                stack.append((q, c))
    roots.sort(key=lambda z: (round(z.imag, 9), round(z.real, 9)))
    margin = 1e-9 * _scale(factor, region)
    kept = [z for z in roots if region.contains(z, margin)]
    if len(kept) != total:
        raise NoConvergence(float("nan"), "polished roots escaped their cells")
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
    failures mark the target failed instead of raising.
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
        for omega in group:
            for sign in (+1, -1):
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
                    for _ in range(12):
                        box = Region(-d, d, w - d, w + d)
                        count, mn, pe, _ = _count_with_diag(factor, box)
                        min_abs = min(min_abs, mn)
                        panels = max(panels, pe)
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
