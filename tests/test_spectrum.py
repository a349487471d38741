import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from spectra_forge import spectrum
from spectra_forge.dn_ring import realize_ring, ring_weight_table
from spectra_forge.errors import BoundaryRoot, NoConvergence, TooManyRoots
from spectra_forge.quasipoly import (
    ScalarFactor,
    evaluate,
    evaluate_derivative_many,
    evaluate_many,
)
from spectra_forge.realization import (
    FrequencyTarget,
    RealizationResult,
    WeightTable,
    realize,
    result_factors,
)
from spectra_forge.spectrum import (
    Region,
    count_roots,
    locate_roots,
    polish_root,
    verify_realization,
)

PI = math.pi
SQRT2 = math.sqrt(2.0)

UNIT_ROOT_FACTOR = ScalarFactor(((1.0, 1.0, 3 * PI / 2),))  # root exactly at +-i

# realizations of (1, sqrt 2, sqrt 3) and (1, .., sqrt 5) from a damped
# Newton off an epsilon = 0.4 sweep hit: delays up to 98 and 2412, so
# dense root bands and contours where exp(-lam tau) overflows
DENSE_THREE = ScalarFactor(tuple(zip(
    (1.5976667762750911, -0.4784177406908176, -0.21357584413242384), (1.0,) * 3,
    (60.997806024167296, 29.29517015662082, 98.07213317424751))))
DENSE_FOUR = ScalarFactor(tuple(zip(
    (1.9304609849465144, -0.42021423613317743, -0.6438220996890606, -0.30879626581024533),
    (1.0,) * 4,
    (61.147039313392405, 2412.185130952612, 286.9844113459155, 97.79479135193435))))


def random_factor(rng):
    k = int(rng.integers(1, 4))
    terms = tuple(
        (float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0, 2.5)))
        for _ in range(k)
    )
    return ScalarFactor(terms)


# ---------------------------------------------------------------------------
# counting


def test_count_constructed_root():
    assert count_roots(UNIT_ROOT_FACTOR, Region(-0.1, 0.1, 0.9, 1.1)) == 1


def test_count_empty_window():
    assert count_roots(UNIT_ROOT_FACTOR, Region(-0.1, 0.1, 1.9, 2.1)) == 0
    # fine grid: |D| stays bounded away from zero on that window
    xs = np.linspace(-0.1, 0.1, 41)
    ys = np.linspace(1.9, 2.1, 41)
    grid_min = min(
        abs(evaluate(UNIT_ROOT_FACTOR, complex(x, y))) for x in xs for y in ys
    )
    assert grid_min > 0.3


def test_count_pure_lambda_factor():
    f = ScalarFactor(((0.0, 1.0, 1.0),))  # D(lam) = lam
    assert count_roots(f, Region(-0.5, 0.5, -0.5, 0.5)) == 1
    assert count_roots(f, Region(0.5, 1.5, 0.5, 1.5)) == 0


def test_count_overflow_on_contour_is_no_convergence():
    # max(tau) is about 2.4e3 here, so exp(-lam tau) overflows at Re lam = -0.5
    with pytest.raises(NoConvergence, match="overflowed"):
        count_roots(DENSE_FOUR, Region(-0.5, 0.5, 0.5, 1.5))


def test_count_root_on_edge_is_boundary_root():
    # the real root near 0.2745 lies on the bottom edge Im = 0, so the
    # winding integral never snaps; the failure names the edge root
    with pytest.raises(BoundaryRoot, match="node spacings"):
        count_roots(UNIT_ROOT_FACTOR, Region(-0.5, 0.5, 0.0, 2.0))


def test_count_region_validation():
    with pytest.raises(ValueError):
        Region(1.0, 0.0, 0.0, 1.0)


def _boundary_is_safe(f, region, samples=512):
    """Newton-distance screen: no root hugging the rectangle boundary."""
    xs = np.linspace(region.re_min, region.re_max, samples)
    ys = np.linspace(region.im_min, region.im_max, samples)
    z = np.concatenate(
        [
            xs + 1j * region.im_min,
            xs + 1j * region.im_max,
            region.re_min + 1j * ys,
            region.re_max + 1j * ys,
        ]
    )
    dist = np.abs(evaluate_many(f, z)) / np.maximum(np.abs(evaluate_derivative_many(f, z)), 1e-300)
    spacing = max(
        (region.re_max - region.re_min) / samples,
        (region.im_max - region.im_min) / samples,
    )
    return float(dist.min()) > 4.0 * spacing


def test_count_additivity_over_split():
    rng = np.random.default_rng(21)
    for _ in range(50):
        f = random_factor(rng)
        region = None
        for pad in np.linspace(0.0, 0.37, 12):
            cand = Region(-1.5 - pad, 1.0 + pad, -4.0 - pad, 4.0 + pad)
            if _boundary_is_safe(f, cand):
                region = cand
                break
        assert region is not None, "no safe outer rectangle found"
        total = count_roots(f, region)
        for frac in (0.5, 0.53, 0.47, 0.41, 0.59, 0.445):
            ym = region.im_min + frac * (region.im_max - region.im_min)
            cut = Region(region.re_min, region.re_max, ym - 1e-9, ym + 1e-9)
            if not _boundary_is_safe(f, cut):
                continue  # root on the cut line: try the next fraction
            try:
                low = count_roots(f, Region(region.re_min, region.re_max, region.im_min, ym))
                high = count_roots(f, Region(region.re_min, region.re_max, ym, region.im_max))
            except (BoundaryRoot, NoConvergence):
                continue
            assert low + high == total
            break
        else:
            pytest.fail("no clean horizontal cut found")


def test_count_conjugate_windows_agree():
    rng = np.random.default_rng(33)
    for _ in range(20):
        f = random_factor(rng)
        upper = Region(-1.0, 1.0, 0.25, 3.0)
        lower = Region(-1.0, 1.0, -3.0, -0.25)
        assert count_roots(f, upper) == count_roots(f, lower)


# ---------------------------------------------------------------------------
# separable contour kernel

EPS = np.finfo(float).eps


@st.composite
def kernel_cases(draw):
    """1-5 terms with delays up to 2e5, a rectangle whose |x tau| stays
    below 30 and whose phases |y tau| reach up to 1e6, and a panel count."""
    coef = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    terms = draw(st.lists(
        st.tuples(coef, coef, st.floats(min_value=0.0, max_value=2e5)), min_size=1, max_size=5))
    tau_max = max(1.0, max(t[2] for t in terms))
    x_lim = 30.0 / tau_max
    y_lim = min(1e3, 1e6 / tau_max)
    xa, xb = sorted(draw(st.tuples(*[st.floats(-x_lim, x_lim)] * 2)))
    ya, yb = sorted(draw(st.tuples(*[st.floats(-y_lim, y_lim)] * 2)))
    if xb - xa < 1e-3 * x_lim or yb - ya < 1e-3 * y_lim:
        xa, xb, ya, yb = -x_lim, x_lim, -y_lim, y_lim
    return ScalarFactor(terms), Region(xa, xb, ya, yb), 2 ** draw(st.integers(0, 5))


def _term_sizes(factor, z):
    """|a_k b_k| exp(-x tau_k) per node and term, and the delays."""
    ab = np.array([abs(t.a * t.b) for t in factor.terms])
    taus = np.array([t.tau for t in factor.terms])
    return np.exp(-np.multiply.outer(z.real, taus)) * ab, taus


def _kernel_on_lines(factor, *lines, **named):
    """(z, D, D') from the node kernel on the nodes that
    oracles.line_values_reference lays out for the same lines."""
    z = oracles.line_values_reference(factor, *lines, **named)[0]
    return (z, *spectrum._node_values(factor, z))


def _assert_matches_reference(got, ref, factor):
    z, vals, ders = got
    zr, vr, dr = ref
    np.testing.assert_array_equal(z, zr)
    size, taus = _term_sizes(factor, z)
    assert np.all(np.abs(vals - vr) <= 4 * EPS * (np.abs(z) + size.sum(-1)))
    assert np.all(np.abs(ders - dr) <= 4 * EPS * (1.0 + (size * taus).sum(-1)))
    # one table for D and D' holds the very floats of the reference's two
    np.testing.assert_array_equal(vals, vr)
    np.testing.assert_array_equal(ders, dr)


def _rounding_floors(factor, z):
    """Bounds on the errors of a computed D(z) and D'(z), phase rounding
    included: 4 eps (|z| + sum_k |a_k b_k| e^{-x tau_k} (m + |z| tau_k)),
    and the same with tau_k in the sum and 1 in place of |z|."""
    size, taus = _term_sizes(factor, z)
    spread = size * (len(taus) + np.multiply.outer(np.abs(z), taus))
    return 4 * EPS * (np.abs(z) + spread.sum(-1)), 4 * EPS * (1.0 + (spread * taus).sum(-1))


@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_contour_kernel_matches_reference_and_mp(case):
    factor, region, per_edge = case
    xs = np.linspace(region.re_min, region.re_max, per_edge + 1)
    ys = np.linspace(region.im_min, region.im_max, per_edge + 1)
    edges = ((region.im_min, region.im_max), (xs, xs), (region.re_min, region.re_max), (ys, ys))
    z, vals, ders = _kernel_on_lines(factor, *edges)
    ref = oracles.line_values_reference(factor, *edges)
    _assert_matches_reference((z, vals, ders), ref, factor)
    # against 50 digits the rounding of the phase y*tau itself adds
    # eps * |z tau| per term, which can reach 1e6 * eps
    tol_d, tol_p = _rounding_floors(factor, z)
    terms = [(t.a, t.b, t.tau) for t in factor.terms]
    for k in np.ndindex(z.shape):
        assert abs(vals[k] - oracles.eval_factor_mp(terms, complex(z[k]))) <= tol_d[k]
        assert abs(ders[k] - oracles.eval_derivative_mp(terms, complex(z[k]))) <= tol_p[k]
    # a cut line alone
    centre = region.center
    for line in ({"h_levels": (centre.imag,), "h_nodes": (xs,)},
                 {"v_levels": (centre.real,), "v_nodes": (ys,)}):
        _assert_matches_reference(
            _kernel_on_lines(factor, **line), oracles.line_values_reference(factor, **line), factor
        )
    # a batch gives each line its own nodes, as verify_realization's
    # isolation boxes do, and each row equals the line evaluated alone
    lower = (centre.imag + region.im_min) / 2
    batch = ((region.im_min, lower), (xs, (xs + centre.real) / 2), (region.re_max, centre.real),
             (ys, (ys + lower) / 2))
    got = _kernel_on_lines(factor, *batch)
    _assert_matches_reference(got, oracles.line_values_reference(factor, *batch), factor)
    for row, line in enumerate(({"h_levels": (lower,), "h_nodes": ((xs + centre.real) / 2,)},
                                {"v_levels": (centre.real,), "v_nodes": ((ys + lower) / 2,)})):
        alone = _kernel_on_lines(factor, **line)
        for part, single in zip(got, alone):
            np.testing.assert_array_equal(part[2 * row + 1], single[0])


def test_node_values_match_evaluate_many_in_any_batch():
    # the bisection evaluates whatever midpoints are open, in batches of
    # any size: every node must get the same bits in any of them
    rng = np.random.default_rng(17)
    factors = [random_factor(rng) for _ in range(4)] + [DENSE_THREE, DENSE_FOUR]
    z = rng.uniform(-0.05, 0.3, 240) + 1j * rng.uniform(-40.0, 40.0, 240)
    for factor in factors:
        vals, ders = spectrum._node_values(factor, z)
        np.testing.assert_array_equal(vals, evaluate_many(factor, z))
        np.testing.assert_array_equal(ders, evaluate_derivative_many(factor, z))
        for part in (slice(0, 1), slice(7, 8), slice(3, 40), slice(None, None, 7),
                     rng.permutation(240)[:31]):
            got = spectrum._node_values(factor, z[part])
            np.testing.assert_array_equal(got[0], vals[part])
            np.testing.assert_array_equal(got[1], ders[part])
        got = spectrum._node_values(factor, z.reshape(12, 4, 5))
        np.testing.assert_array_equal(got[0], vals.reshape(12, 4, 5))
        np.testing.assert_array_equal(got[1], ders.reshape(12, 4, 5))


def _census_like_cases(seed, count):
    """3- to 5-term factors with an exact root at i*omega, in boxes whose
    boundary keeps clear of every root."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        m = int(rng.integers(3, 6))
        omega = float(rng.uniform(0.6, 2.5))
        taus = rng.uniform(0.2, float(rng.choice([5.0, 10.0, 20.0])), m)
        a = rng.uniform(-1.5, 1.5, m)
        c = np.exp(-1j * omega * taus)
        rest = 1j * omega - a[:-2] @ c[:-2]
        a[-2:] = np.linalg.solve([[c[-2].real, c[-1].real], [c[-2].imag, c[-1].imag]],
                                 [rest.real, rest.imag])
        if np.abs(a).max() > 2.0 * omega:
            continue
        factor = ScalarFactor(tuple((float(x), 1.0, float(t)) for x, t in zip(a, taus)))
        y0 = max(omega - 1.2 * rng.uniform(0.3, 0.7), 0.05)
        region = Region(-0.12, 0.12, y0, y0 + 1.2)
        if _boundary_is_safe(factor, region):
            cases.append((factor, region))
    return cases


def _family_cases(seed, js):
    """lam - w exp(-lam tau) with tau = (3 pi/2 + 2 pi j)/w, whose root is
    exactly i*w, in the isolation box verify_realization would use."""
    rng = np.random.default_rng(seed)
    cases = []
    for j in js:
        w = float(rng.uniform(0.5, 3.0))
        tau = (1.5 * PI + 2.0 * PI * j) / w
        d = min(0.05, 0.5 * PI / tau)
        cases.append((ScalarFactor(((w, 1.0, tau),)), Region(-d, d, w - d, w + d)))
    return cases


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BoundaryRoot, NoConvergence, TooManyRoots) as exc:
        return type(exc).__name__, str(exc)


def test_count_and_locate_match_reference_kernel(monkeypatch):
    cases = _census_like_cases(5, 16) + _family_cases(6, (0, 1, 3, 10, 40, 100, 500, 1000, 2000))

    def run():
        return [(_outcome(count_roots, f, r), _outcome(locate_roots, f, r)) for f, r in cases]

    fast = run()
    assert all(isinstance(loc, list) and len(loc) == n >= 1 for n, loc in fast)
    monkeypatch.setattr(spectrum, "_node_values", oracles.node_values_reference)
    assert run() == fast


# ---------------------------------------------------------------------------
# certified count


def _near_root_box(w, j, clear, half):
    """lam - w exp(-lam tau), tau = (3 pi/2 + 2 pi j)/w, and a box of half
    width half * c whose bottom edge passes c = clear * 1e-8 * (1 + 2w) /
    (w tau) above the root i*w: so close that the rounding floor decides
    which segments are certified."""
    tau = (1.5 * PI + 2.0 * PI * j) / w
    c = clear * 1e-8 * (1.0 + 2.0 * w) / (w * tau)
    return ScalarFactor(((w, 1.0, tau),)), Region(-half * c, half * c, w + c, w + c + 2 * half * c)


@st.composite
def certify_cases(draw):
    """Either 1-4 terms with delays up to 40 in a box of moderate size, or
    a box just above a root at a delay up to 1.3e8."""
    if draw(st.booleans()):
        coef = st.floats(min_value=-2.0, max_value=2.0)
        terms = draw(st.lists(st.tuples(coef, coef, st.floats(0.0, 40.0)), min_size=1, max_size=4))
        x0, y0 = draw(st.floats(-0.5, 0.4)), draw(st.floats(-3.0, 3.0))
        width, height = draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 2.0))
        return ScalarFactor(terms), Region(x0, x0 + width, y0, y0 + height)
    log_uniform = [st.floats(lo, hi).map(lambda e: 10.0 ** e) for lo, hi in ((0.0, 2.0), (1.0, 4.0))]
    return _near_root_box(draw(st.floats(0.5, 3.0)), draw(st.integers(10**4, 10**7)),
                          *(draw(s) for s in log_uniform))


@given(certify_cases())
@example(_near_root_box(1.09, 497089, 7.4, 8367.0))
@example((ScalarFactor(((-1.215, 1.985, 9.729), (-0.973, -1.707, 10.312), (1.053, 0.792, 5.147))),
          Region(-0.161, 0.521, -0.474, 0.465)))
@settings(max_examples=40, deadline=None)
def test_certified_segments_are_honest(case):
    """On every certified edge segment [a, b] the certificate holds at one
    end e: R + f_e < |D_e| for the computed D_e and its rounding floor f_e,
    where R = h min(M, P + C h / 2), M = 1 + sum_k |a_k b_k| tau_k
    exp(-x_min tau_k) bounds |D'|, P is the larger |D'| plus its rounding
    floor at the two ends, and C = sum_k |a_k b_k| tau_k^2 exp(-x_min
    tau_k) bounds |D''|.  And dense 50-digit samples show that the disc
    |D - D_e| <= R + f_e really holds D on the segment, so the segment's
    image stays away from 0."""
    factor, region = case
    try:
        _, region, edges = spectrum._certified_counts(factor, [region])[0]
    except (BoundaryRoot, NoConvergence):
        return
    terms = [(t.a, t.b, t.tau) for t in factor.terms]
    fixed = (region.im_min, region.im_max, region.re_min, region.re_max)
    for row, (t, vals, turn) in enumerate(edges):
        z = t + 1j * fixed[row] if row < 2 else fixed[row] + 1j * t
        size, taus = _term_sizes(factor, z)
        slope, curve = size @ taus, size @ taus**2
        floor, slope_floor = _rounding_floors(factor, z)
        ders = np.abs(evaluate_derivative_many(factor, z)) + slope_floor
        assert len(turn) == len(z) - 1
        for k in range(len(turn)):
            h = abs(z[k + 1] - z[k])
            # the sums at the end with the smaller real part
            bound, bend = 1.0 + max(slope[k], slope[k + 1]), max(curve[k], curve[k + 1])
            reach = h * min(bound, max(ders[k], ders[k + 1]) + 0.5 * h * bend)
            e = k if abs(vals[k]) - floor[k] >= abs(vals[k + 1]) - floor[k + 1] else k + 1
            assert reach + floor[e] < abs(vals[e])
            for frac in np.linspace(0.0, 1.0, 9):
                zs = z[k] + frac * (z[k + 1] - z[k])
                exact = oracles.eval_factor_mp(terms, complex(zs))
                assert abs(exact - vals[e]) <= reach * (1 + 1e-12) + floor[e]


def test_certified_count_matches_trapezoid_oracle():
    cases = _census_like_cases(7, 16) + _family_cases(8, (0, 1, 3, 10, 40, 100, 500, 1000, 2000))
    for factor, region in cases:
        count, _, (bottom, top, left, right) = spectrum._certified_counts(factor, [region])[0]
        winding = (bottom[2].sum() + right[2].sum() - top[2].sum() - left[2].sum()) / (2 * PI)
        assert abs(winding - count) < 1e-9
        assert count == count_roots(factor, region) == oracles.count_roots_trapezoid(factor, region)


# ---------------------------------------------------------------------------
# polishing


def test_polish_from_nearby_point():
    z = polish_root(UNIT_ROOT_FACTOR, 1j + 1e-3, 1e-12)
    assert abs(z - 1j) < 1e-12


def test_polish_exact_root_unchanged():
    z = polish_root(UNIT_ROOT_FACTOR, 1j, 1e-10)
    assert z == 1j


def test_polish_critical_start():
    # D(lam) = lam - 2 exp(-lam): D'(0) = 3, critical point where D' = 0
    # at lam = log(2*tau)/tau with tau = 1: lam = log 2
    f = ScalarFactor(((2.0, 1.0, 1.0),))
    crit = math.log(2.0)
    # either escapes via damping or reports no convergence
    try:
        z = polish_root(f, complex(crit, 0.0), 1e-10)
        assert abs(evaluate(f, z)) < 1e-10
    except NoConvergence:
        pass


def test_polish_unreachable_tolerance_raises():
    with pytest.raises(NoConvergence):
        polish_root(UNIT_ROOT_FACTOR, 1j + 0.5, 1e-300)


def test_polish_overflow_is_no_convergence():
    # the first Newton step from far left of the axis overflows exp(-lam tau)
    with pytest.raises(NoConvergence, match="representable range"):
        polish_root(ScalarFactor(((1.0, 1.0, 100.0),)), -8 + 1j)


# ---------------------------------------------------------------------------
# locating


def test_locate_single_root_box():
    roots = locate_roots(UNIT_ROOT_FACTOR, Region(-0.3, 0.3, 0.7, 1.3))
    assert len(roots) == 1
    assert abs(roots[0] - 1j) < 1e-10


def test_locate_conjugate_symmetric_band():
    region = Region(-1.0, 1.0, -8.0, 8.0)
    roots = locate_roots(UNIT_ROOT_FACTOR, region, max_roots=40)
    assert len(roots) == count_roots(UNIT_ROOT_FACTOR, region)
    for z in roots:
        assert abs(evaluate(UNIT_ROOT_FACTOR, z)) < 1e-9
        assert any(abs(z.conjugate() - w) < 1e-9 for w in roots)


def _assert_located(factor, region, roots):
    """Distinct roots inside the region, each a root at 50 digits, as many
    as the trapezoid oracle counts."""
    scale = 1.0 + max(abs(complex(x, y)) for x in (region.re_min, region.re_max)
                      for y in (region.im_min, region.im_max)) + factor.coefficient_bound()
    terms = [(t.a, t.b, t.tau) for t in factor.terms]
    assert len(roots) == oracles.count_roots_trapezoid(factor, region)
    for z in roots:
        assert region.contains(z)
        assert abs(oracles.eval_factor_mp(terms, z)) < 1e-9 * scale
    gaps = np.abs(np.subtract.outer(roots, roots)) + np.eye(len(roots))
    assert gaps.min() > 1e-6


def test_locate_dense_band_of_realized_factor():
    # 62 roots at delays up to 98: polishing from cell centres without
    # keeping the result in its cell once reported one root twice here
    region = Region(-0.25, 0.5, 0.05, 4.05)
    roots = locate_roots(DENSE_THREE, region, max_roots=100)
    assert len(roots) == 62
    _assert_located(DENSE_THREE, region, roots)


def test_locate_roots_spaced_below_the_old_cell_size():
    # Newton from the centre of a one-root cell once left that cell for a
    # neighbouring root, so two cells reported the same one
    factor = ScalarFactor(((1.01896158, 1.0, 8.34616162), (-2.13615926, 1.0, 13.98134051),
                           (-1.12436832, 1.0, 38.3930903)))
    region = Region(-0.12, 0.12, 0.87735443, 2.07735443)
    roots = locate_roots(factor, region)
    assert len(roots) == 7
    _assert_located(factor, region, roots)


@pytest.mark.parametrize("box", [(-0.5, 0.5, 0.7, 1.9), (-1.0, 1.0, 0.5, 6.0)])
def test_locate_cuts_miss_the_axis_root(monkeypatch, box):
    # both boxes are symmetric about Re = 0, where the root i lies; the
    # taller one holds 4 roots, and a cut at half its width ran through i,
    # so the first grid and every later split have to succeed at their
    # first cuts, none of which lies on Re = 0
    made = []
    grid = spectrum._grid

    def recorded(factor, xs, ys, threshold, resolution, edges=None):
        made.append((xs, False))
        cells = grid(factor, xs, ys, threshold, resolution, edges)
        whole = Region(xs[0], xs[-1], ys[0], ys[-1])
        expected = count_roots(factor, whole) if edges is None else spectrum._winding(*edges)
        made[-1] = (xs, sum(c for _, _, c in cells) == expected)
        return cells

    monkeypatch.setattr(spectrum, "_grid", recorded)
    roots = locate_roots(UNIT_ROOT_FACTOR, Region(*box))
    assert made and all(ok and 0.0 not in xs[1:-1] for xs, ok in made)
    assert len(roots) == oracles.count_roots_trapezoid(UNIT_ROOT_FACTOR, Region(*box))
    assert min(abs(z - 1j) for z in roots) < 1e-10


def test_grid_cells_hold_what_they_count_alone():
    # the cells of a grid, and the four children of a region cut with its
    # certified edges (at 0.41, which falls inside their segments), hold
    # as many roots as count_roots finds in each of them alone
    for factor, region in _census_like_cases(13, 6):
        x0, x1, y0, y1 = region.re_min, region.re_max, region.im_min, region.im_max
        threshold = 1e-8 * spectrum._scale(factor.coefficient_bound(), region)
        resolution = 1e-6 * max(x1 - x0, y1 - y0)
        total, _, edges = spectrum._certified_counts(factor, [region])[0]
        grid = spectrum._grid(factor, spectrum._cuts(x0, x1, 2), spectrum._cuts(y0, y1, 5),
                              threshold, resolution)
        xs, ys = [x0, x0 + 0.41 * (x1 - x0), x1], [y0, y0 + 0.41 * (y1 - y0), y1]
        children = spectrum._grid(factor, xs, ys, threshold, resolution, edges)
        for cells in (grid, children):
            assert sum(count for _, _, count in cells) == total == count_roots(factor, region)
            for cell, sides, count in cells:
                assert count == count_roots(factor, cell) == spectrum._winding(*sides)


def _assert_same_roots(got, ref):
    """Same outcome as the reference: the same exception type, or as many
    roots, each within 1e-9 relative."""
    if isinstance(ref, tuple):
        assert isinstance(got, tuple) and got[0] == ref[0]
        return
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert abs(a - b) <= 1e-9 * max(abs(b), 1.0)


def test_locate_grid_matches_quadrisection_reference():
    small = _census_like_cases(11, 24) + _family_cases(12, (0, 2, 20, 200, 2000))
    cases = (
        [(f, r, 64) for f, r in small]
        + [(DENSE_THREE, Region(-0.25, 0.5, 0.05, 4.05), 100),
           (UNIT_ROOT_FACTOR, Region(-1.0, 1.0, -8.0, 8.0), 40),
           (UNIT_ROOT_FACTOR, Region(-1.0, 1.0, -8.0, 8.0), 2)]
    )
    for f, region, max_roots in cases:
        _assert_same_roots(_outcome(locate_roots, f, region, max_roots),
                           _outcome(oracles.locate_roots_reference, f, region, max_roots))


@pytest.mark.parametrize("box", [(-0.5, 0.5, 0.47, 1.47), (-0.5, 0.5, 1.0, 2.0)])
def test_locate_falls_back_when_the_grid_touches_a_root(monkeypatch, box):
    # the root i lies on the grid's one interior line y = 0.47 + 0.53,
    # then on the region's bottom edge: the grid batch raises, and the
    # region is counted on its own (dilated in the second case)
    failed = []
    grid = spectrum._grid

    def recorded(factor, xs, ys, threshold, resolution, edges=None):
        try:
            return grid(factor, xs, ys, threshold, resolution, edges)
        except BoundaryRoot:
            failed.append(edges is None)
            raise

    monkeypatch.setattr(spectrum, "_grid", recorded)
    region = Region(*box)
    roots = locate_roots(UNIT_ROOT_FACTOR, region)
    assert failed[0]
    assert roots == oracles.locate_roots_reference(UNIT_ROOT_FACTOR, region)
    assert len(roots) == 1 and abs(roots[0] - 1j) < 1e-10


def test_locate_empty_region():
    assert locate_roots(UNIT_ROOT_FACTOR, Region(-0.1, 0.1, 1.9, 2.1)) == []


def test_locate_respects_max_roots():
    with pytest.raises(TooManyRoots):
        locate_roots(UNIT_ROOT_FACTOR, Region(-1.0, 1.0, -8.0, 8.0), max_roots=2)


# ---------------------------------------------------------------------------
# realization verification


@pytest.fixture(scope="module")
def realized_three():
    target = FrequencyTarget(((1.0, SQRT2, math.sqrt(3.0)),))
    return target, realize(target)


def test_verify_single_frequency_closed_form():
    target = FrequencyTarget(((1.0,),))
    result = realize(target)
    report = verify_realization(result, target, tol=1e-8)
    assert report.passed
    plus = [t for t in report.targets if t.sign > 0][0]
    assert plus.local_count == 1
    assert abs(plus.polished - 1j) < 1e-8


def test_verify_three_frequencies_all_targets(realized_three):
    target, result = realized_three
    report = verify_realization(result, target, tol=1e-8)
    assert report.passed
    assert len(report.targets) == 6  # three conjugate pairs
    for check in report.targets:
        assert check.local_count == 1
        assert check.residual < 1e-8
        assert check.polish_offset < 1e-8


def test_verify_tampered_delay_fails(realized_three):
    target, result = realized_three
    bumped = result.taus.copy()
    bumped[0] += 0.1
    bad = dataclasses.replace(result, taus=bumped)
    report = verify_realization(bad, target, tol=1e-8)
    assert not report.passed
    assert any(t.residual > 1e-3 for t in report.targets)


def test_verify_drift_bound_follows_tol():
    # a (1, sqrt 2) result with a coefficient off by 2.5e-7: its residual
    # 2.5e-7 passes tol 1e-6, and so must its roots, about 2e-8 from +-i w;
    # at the default tol the residual fails as before
    target = FrequencyTarget(((1.0, SQRT2),))
    result = realize(target)
    bumped = dataclasses.replace(result, coeffs=result.coeffs + np.array([2.5e-7, 0.0]))
    loose = verify_realization(bumped, target, tol=1e-6)
    assert loose.passed
    assert all(1e-8 < t.polish_offset < 1e-6 for t in loose.targets if t.omega == 1.0)
    strict = verify_realization(bumped, target)
    assert not strict.passed
    assert all(t.residual > 1e-8 and t.note == "" for t in strict.targets)


def test_verify_dimension_mismatch():
    target = FrequencyTarget(((1.0, SQRT2),))
    result = realize(target)
    with pytest.raises(ValueError):
        verify_realization(result, FrequencyTarget(((1.0,),)), tol=1e-8)


def test_verify_two_factor_split():
    target = FrequencyTarget(((1.0,), (SQRT2,)))
    weights = WeightTable(np.array([[1.0, 2.0], [1.0, -1.0]]))
    result = realize(target, weights)
    report = verify_realization(result, target, weights, tol=1e-8)
    assert report.passed
    by_factor = {}
    for t in report.targets:
        by_factor.setdefault(t.factor, []).append(t)
    assert set(by_factor) == {0, 1}


def _plain_result(taus, coeffs):
    return RealizationResult.from_dict(
        {"taus": taus, "coeffs": coeffs, "residual": 0.0, "newton_iterations": 0})


def _touching_case():
    # lam - 1.05 exp(-lam tau) has its roots +-1.05i on the top edge of the
    # box around i and the bottom edge of the box around -i
    tau = 1.5 * PI / 1.05
    return _plain_result([tau, 1.0], [1.05, 0.0]), FrequencyTarget(((1.0, 3.0),)), None


def _pair_case():
    # roots at i and near 0.01 + 1.012i: the box around i holds both
    return (
        _plain_result([8.341277222419043, 1.68389917788926],
                      [0.30876964473194174, -1.2810143986814622]),
        FrequencyTarget(((1.0, 2.0),)), None,
    )


def test_batched_isolation_boxes_match_box_by_box(monkeypatch, realized_three):
    # the touching case: a batch of the boxes around +-i and +-3i touches a
    # root, and each box is counted on its own, those around +-i after a
    # dilation
    touching = _touching_case()
    factor = result_factors(touching[0], WeightTable.ones(2))[0]
    boxes = [Region(-0.05, 0.05, w - 0.05, w + 0.05) for w in (1.0, -1.0, 3.0, -3.0)]
    with pytest.raises(BoundaryRoot):
        spectrum._certified_counts(factor, boxes)
    assert count_roots(factor, boxes[0]) == 1
    # the pair case: the box around i is halved three times
    pair = _pair_case()
    factor = result_factors(pair[0], WeightTable.ones(2))[0]
    halved = [Region(-d, d, 1.0 - d, 1.0 + d) for d in (0.05, 0.0125, 0.00625)]
    assert [count_roots(factor, box) for box in halved] == [2, 2, 1]
    target = FrequencyTarget(((1.0,), (SQRT2,)))
    weights = WeightTable(np.array([[1.0, 2.0], [1.0, -1.0]]))
    split = (realize(target, weights), target, weights)
    cases = [(realized_three[1], realized_three[0], None), touching, pair, split]

    counted = spectrum._certified_counts
    calls = []

    def recorded(factor, regions):
        calls[-1].append(len(regions))
        return counted(factor, regions)

    monkeypatch.setattr(spectrum, "_certified_counts", recorded)
    batched = []
    for case in cases:
        calls.append([])
        batched.append(verify_realization(*case))
    # only the boxes around +i w are counted: the box around i of the pair
    # case is halved three times, and the box around -i is its mirror
    assert calls[2] == [2, 1, 1, 1]
    monkeypatch.setattr(spectrum, "_certified_counts",
                        lambda factor, regions: [counted(factor, [r])[0] for r in regions])
    assert [verify_realization(*case) for case in cases] == batched
    assert batched[0].passed and batched[2].targets[0].passed and batched[3].passed
    assert [t.local_count for t in batched[1].targets] == [1, 1, 0, 0]

    # random 3- to 12-term factors, six random boxes each: a batch that
    # succeeds counts every box as it is counted alone, with the same
    # certified edges bit for bit
    rng = np.random.default_rng(29)
    compared = 0
    for _ in range(40):
        m = int(rng.integers(3, 13))
        terms = zip(rng.uniform(-1.5, 1.5, m).tolist(), rng.uniform(0.0, 12.0, m).tolist())
        factor = ScalarFactor(tuple((a, 1.0, t) for a, t in terms))
        centres = rng.uniform(-0.3, 0.3, 6) + 1j * rng.uniform(-4.0, 4.0, 6)
        half = rng.uniform(0.02, 0.4, (6, 2))
        boxes = [Region(c.real - w, c.real + w, c.imag - h, c.imag + h)
                 for c, (w, h) in zip(centres, half)]
        try:
            batch = counted(factor, boxes)
        except (BoundaryRoot, NoConvergence):
            continue
        for got, box in zip(batch, boxes):
            count, region, edges = counted(factor, [box])[0]
            assert got[:2] == (count, region)
            for path, alone in zip(got[2], edges):
                assert [a.tobytes() for a in path] == [a.tobytes() for a in alone]
        compared += 1
    assert compared >= 30


def _lower_check(factor, j, omega, delta, tol=1e-8):
    """The TargetCheck of -i*omega from its own box and its own polish,
    the way the box around +i*omega is counted and polished: the box is
    halved while it holds more than one root, up to 11 times."""
    start = 1j * -omega
    count, error, d = 0, None, delta
    for _ in range(12):
        box = Region(-d, d, -omega - d, -omega + d)
        try:
            count = spectrum._certified_counts(factor, [box])[0][0]
        except (BoundaryRoot, NoConvergence) as exc:
            error = exc
            break
        if count <= 1:
            break
        d *= 0.5
    residual = abs(evaluate(factor, start))
    ok, note, polished, offset = residual < tol, "", None, None
    if error is not None:
        ok, note = False, f"count failed: {error}"
    elif count != 1:
        ok, note = False, f"isolation box holds {count} roots"
    if ok:
        try:
            scale = spectrum._scale(factor.coefficient_bound(), box)
            polished = polish_root(factor, start, 1e-12 * scale)
            offset = abs(polished - start)
            if offset > max(tol, 1e-8):
                ok, note = False, f"polished root drifted {offset:.3e} from target"
        except NoConvergence as exc:
            ok, note = False, f"polish failed: {exc}"
    return spectrum.TargetCheck(j, omega, -1, residual, count, polished, offset, ok, note)


def test_lower_targets_mirror_their_own_count_and_polish(monkeypatch, realized_three):
    # verify_realization counts and polishes only around +i*omega; each
    # -omega check must be what its own box and polish give, bit for bit
    target = FrequencyTarget(((1.0,), (SQRT2,)))
    weights = WeightTable(np.array([[1.0, 2.0], [1.0, -1.0]]))
    layout = {"couplings": {2: 1, 3: 1}}
    ring_weights, _ = ring_weight_table(5, (1, 2), target.sizes, layout)
    _, ring_result = realize_ring(5, (1, 2), target.groups, layout)
    cases = [
        (realized_three[1], realized_three[0], None),
        (realize(target, weights), target, weights),
        (ring_result, target, ring_weights),
        _pair_case(),
        _touching_case(),
    ]
    counted = spectrum._certified_counts
    boxes = []

    def recorded(factor, regions):
        boxes.extend(regions)
        return counted(factor, regions)

    with monkeypatch.context() as patch:
        patch.setattr(spectrum, "_certified_counts", recorded)
        reports = [verify_realization(*case) for case in cases]
    assert boxes and all(box.im_max > 0 for box in boxes)
    mirrored = 0
    for (result, target, weights), report in zip(cases, reports):
        factors = result_factors(result, weights or WeightTable.ones(target.n, target.r))
        delta = spectrum._isolation_halfwidth(target, float(np.max(result.taus)))
        assert [t.sign for t in report.targets] == [1, -1] * target.n
        for upper, lower in zip(report.targets[::2], report.targets[1::2]):
            direct = _lower_check(factors[lower.factor], lower.factor, lower.omega, delta)
            assert lower == direct
            assert repr(lower.polished) == repr(direct.polished)  # the sign of a zero too
            assert (lower.factor, lower.omega, lower.passed) == (upper.factor, upper.omega, upper.passed)
            mirrored += 1
    assert mirrored == 3 + 2 + 2 + 2 + 2
    assert reports[3].targets[0].passed and not reports[4].passed


def test_near_duplicate_frequencies_are_named_before_counting(monkeypatch):
    # 3 and the next float above it are 4.4e-16 apart: the half-width
    # 2.2e-16 leaves 3 +- delta at 3, so no box around 3i has any height
    above = math.nextafter(3.0, 4.0)
    target = FrequencyTarget(((1.0, 3.0), (above,)))
    result = _plain_result([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])

    def never(factor, regions):
        raise AssertionError("counted a box")

    monkeypatch.setattr(spectrum, "_certified_counts", never)
    with pytest.raises(ValueError) as info:
        verify_realization(result, target)
    message = str(info.value)
    assert f"{3.0!r}i and {above!r}i are only {above - 3.0:.3g} apart" in message
    assert "no isolation box fits around 3.0i" in message


def test_report_json_shape(realized_three):
    target, result = realized_three
    report = verify_realization(result, target, tol=1e-8)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert doc["totals"]["targets"] == 6
    assert doc["totals"]["roots_counted"] == 6
    assert doc["contour"]["min_abs"] > 0
