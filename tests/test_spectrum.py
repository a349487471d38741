import dataclasses
import math

import numpy as np
import pytest

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
