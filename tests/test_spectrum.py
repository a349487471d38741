import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spectra_forge import spectrum
from spectra_forge.errors import BoundaryRoot, NoConvergence, TooManyRoots
from spectra_forge.quasipoly import ScalarFactor, evaluate
from spectra_forge.realization import FrequencyTarget, WeightTable, realize, result_factors
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
    target = FrequencyTarget(((1.0, SQRT2, math.sqrt(3.0), math.sqrt(5.0)),))
    factor = result_factors(realize(target), WeightTable.ones(4))[0]
    with pytest.raises(NoConvergence, match="overflowed"):
        count_roots(factor, Region(-0.5, 0.5, 0.5, 1.5))


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
    from spectra_forge.quasipoly import evaluate_derivative_many, evaluate_many

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


def _assert_matches_reference(got, ref, factor):
    z, vals, ders = got
    zr, vr, dr = ref
    np.testing.assert_array_equal(z, zr)
    size, taus = _term_sizes(factor, z)
    assert np.all(np.abs(vals - vr) <= 4 * EPS * (np.abs(z) + size.sum(-1)))
    assert np.all(np.abs(ders - dr) <= 4 * EPS * (1.0 + (size * taus).sum(-1)))
    # with a C library whose complex exp is exp(x) * cis(y), as glibc's is,
    # the tables hold the reference's very floats: same counts, same roots
    np.testing.assert_array_equal(vals, vr)
    np.testing.assert_array_equal(ders, dr)


@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_contour_kernel_matches_reference_and_mp(case):
    factor, region, per_edge = case
    z, vals, ders = spectrum._contour_values(factor, region, per_edge)
    ref = oracles.contour_values_reference(factor, region, per_edge)
    _assert_matches_reference((z, vals, ders), ref, factor)
    # against 50 digits the rounding of the phase y*tau itself adds
    # eps * |z tau| per term, which can reach 1e6 * eps
    size, taus = _term_sizes(factor, z)
    spread = size * (len(taus) + np.multiply.outer(np.abs(z), taus))
    tol_d = 4 * EPS * (np.abs(z) + spread.sum(-1))
    tol_p = 4 * EPS * (1.0 + (spread * taus).sum(-1))
    terms = [(t.a, t.b, t.tau) for t in factor.terms]
    for k in range(z.size):
        assert abs(vals[k] - oracles.eval_factor_mp(terms, complex(z[k]))) <= tol_d[k]
        assert abs(ders[k] - oracles.eval_derivative_mp(terms, complex(z[k]))) <= tol_p[k]
    # a cut line uses one of the two tables
    xs = np.linspace(region.re_min, region.re_max, 9)
    ys = np.linspace(region.im_min, region.im_max, 9)
    for levels in ({"im_levels": (region.center.imag,)}, {"re_levels": (region.center.real,)}):
        _assert_matches_reference(
            spectrum._line_values(factor, xs, ys, **levels),
            oracles.line_values_reference(factor, xs, ys, **levels),
            factor,
        )


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
    monkeypatch.setattr(spectrum, "_contour_values", oracles.contour_values_reference)
    monkeypatch.setattr(spectrum, "_line_values", oracles.line_values_reference)
    assert run() == fast


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


def test_report_json_shape(realized_three):
    target, result = realized_three
    report = verify_realization(result, target, tol=1e-8)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert doc["totals"]["targets"] == 6
    assert doc["totals"]["roots_counted"] == 6
    assert doc["contour"]["min_abs"] > 0
