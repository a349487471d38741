import dataclasses
import json
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


@pytest.mark.parametrize("terms", [
    ((2.496, 1.0, 84.96), (1.5e308, 1.0, 1.0)),
    ((1e308, 1.0, 1.0),),
    ((1.7e308, 1.0, 1.0),),
])
def test_rounding_floor_overflow_is_no_convergence(terms):
    # |D| stays finite near i, but its rounding floor, which grows with
    # len(taus) * sum_k |a_k b_k| exp(-x tau_k), is inf there: no segment
    # could ever be certified, so the count stops at its first nodes
    # instead of bisecting down to the resolution
    factor, box = ScalarFactor(terms), Region(-0.01, 0.01, 0.99, 1.01)
    with pytest.raises(NoConvergence, match="rounding floor of D overflowed"):
        count_roots(factor, box)
    with pytest.raises(NoConvergence, match="rounding floor of D overflowed"):
        locate_roots(factor, box)


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


def _pick(row):
    """The kernel's flat pick for nodes on the factor rows row: each node's
    row times the number of nodes, plus its own index (the shape of row)."""
    return row * row.size + np.arange(row.size).reshape(row.shape)


def _kernel_on_lines(factor, *lines, **named):
    """(z, D) from the node kernel on the nodes that
    oracles.line_values_reference lays out for the same lines."""
    z = oracles.line_values_reference(factor, *lines, **named)[0]
    return z, spectrum._node_values(*oracles.certifier_terms(factor), z, _pick(np.zeros(z.shape, int)))


def _assert_matches_reference(got, ref, factor):
    z, vals = got
    zr, vr = ref
    np.testing.assert_array_equal(z, zr)
    size, taus = _term_sizes(factor, z)
    assert np.all(np.abs(vals - vr) <= 4 * EPS * (np.abs(z) + size.sum(-1)))
    # the kernel's one table holds the very floats of the reference's
    np.testing.assert_array_equal(vals, vr)


def _rounding_floor(factor, z):
    """A bound on the error of a computed D(z), phase rounding included:
    4 eps (|z| + sum_k |a_k b_k| e^{-x tau_k} (m + |z| tau_k)), plus 4 m
    times the least subnormal for products that underflow."""
    size, taus = _term_sizes(factor, z)
    spread = size * (len(taus) + np.multiply.outer(np.abs(z), taus))
    return 4 * EPS * (np.abs(z) + spread.sum(-1)) + 4 * len(taus) * math.ulp(0.0)


@given(kernel_cases())
# subnormal products a_k b_k: D at 0 is off by one subnormal spacing, which
# a floor relative to eps alone misses
@example((ScalarFactor(((1.5, 2.225073858507e-311, 0.0), (1.75, 2.225073858507e-311, 0.0))),
          Region(0.0, 1.0, 0.0, 1.0), 1))
@settings(max_examples=60, deadline=None)
def test_contour_kernel_matches_reference_and_mp(case):
    factor, region, per_edge = case
    xs = np.linspace(region.re_min, region.re_max, per_edge + 1)
    ys = np.linspace(region.im_min, region.im_max, per_edge + 1)
    edges = ((region.im_min, region.im_max), (xs, xs), (region.re_min, region.re_max), (ys, ys))
    z, vals = _kernel_on_lines(factor, *edges)
    ref = oracles.line_values_reference(factor, *edges)
    _assert_matches_reference((z, vals), ref, factor)
    # against 50 digits the rounding of the phase y*tau itself adds
    # eps * |z tau| per term, which can reach 1e6 * eps
    tol_d = _rounding_floor(factor, z)
    terms = [(t.a, t.b, t.tau) for t in factor.terms]
    for k in np.ndindex(z.shape):
        assert abs(vals[k] - oracles.eval_factor_mp(terms, complex(z[k]))) <= tol_d[k]
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


def _weight_rows(factor, rows):
    """The factor's delays and coefficients under each row of weights."""
    return [ScalarFactor(tuple((t.a, b, t.tau) for t, b in zip(factor.terms, row))) for row in rows]


def test_node_values_match_evaluate_many_in_any_batch():
    # the bisection evaluates whatever midpoints are open, in batches of
    # any size: every node must get the same bits in any of them
    rng = np.random.default_rng(17)
    factors = [random_factor(rng) for _ in range(4)] + [DENSE_THREE, DENSE_FOUR]
    z = rng.uniform(-0.05, 0.3, 240) + 1j * rng.uniform(-40.0, 40.0, 240)
    for factor in factors:
        terms = oracles.certifier_terms(factor)
        first = np.zeros(z.shape, int)  # one factor: every node reads row 0
        vals = spectrum._node_values(*terms, z, _pick(first))
        np.testing.assert_array_equal(vals, evaluate_many(factor, z))
        for part in (slice(0, 1), slice(7, 8), slice(3, 40), slice(None, None, 7),
                     rng.permutation(240)[:31]):
            got = spectrum._node_values(*terms, z[part], _pick(first[part]))
            np.testing.assert_array_equal(got, vals[part])
        got = spectrum._node_values(*terms, z.reshape(12, 4, 5), _pick(first.reshape(12, 4, 5)))
        np.testing.assert_array_equal(got, vals.reshape(12, 4, 5))
        # the same delays and coefficients under 2 to 4 rows of weights, a
        # zero weight among them, as the factors of a ring share them: each
        # node, whichever factor it belongs to, has the bits of that factor
        # alone
        m = len(factor.terms)
        weights = rng.uniform(-2.0, 2.0, (int(rng.integers(2, 5)), m))
        weights[-1, 0] = 0.0
        rows = _weight_rows(factor, weights)
        terms = oracles.certifier_terms(*rows)
        owner = rng.integers(0, len(rows), z.size)
        alone = [evaluate_many(f, z) for f in rows]
        vals = spectrum._node_values(*terms, z, _pick(owner))
        for j, want in enumerate(alone):
            mine = owner == j
            np.testing.assert_array_equal(vals[mine], want[mine])
        for part in (slice(0, 1), slice(3, 40), rng.permutation(240)[:31]):
            got = spectrum._node_values(*terms, z[part], _pick(owner[part]))
            np.testing.assert_array_equal(got, vals[part])
        got = spectrum._node_values(*terms, z.reshape(12, 4, 5), _pick(owner.reshape(12, 4, 5)))
        np.testing.assert_array_equal(got, vals.reshape(12, 4, 5))


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


def _alone(factor, region):
    """(count, region, edges) of the region counted on its own, for the one
    factor: the batch outcome with every line on row 0, its error raised."""
    return spectrum._counted_alone(*oracles.certifier_terms(factor), region)


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


# DENSE_THREE in a box around one root: its left edge, at Re = -0.05 where
# the delay 98 makes D turn fast, has segments that only the chord certifies
CHORD_BOX = Region(-0.05, 0.1, 0.95, 1.1)


def _segment_certificates(factor, z, vals):
    """Per segment of a certified path through the nodes z, where the
    computed D is vals, the chord certificate recomputed from the test's
    own sums: (chord, r, bent) with r = min(M h, C h^2 / 8) + max(f_a,
    f_b), the chord counted only when its exact distance from 0 exceeds r,
    and bent when it does so only by the curvature term, its distance
    being at most M h + max(f_a, f_b).  M and C as in
    test_certified_segments_are_honest."""
    size, taus = _term_sizes(factor, z)
    with np.errstate(over="ignore"):  # an infinite C leaves M h
        slope, curve = size @ taus, size @ taus**2
    floor = _rounding_floor(factor, z)
    for k in range(len(z) - 1):
        h = abs(z[k + 1] - z[k])
        # the sums at the end with the smaller real part
        first = h * (1.0 + max(slope[k], slope[k + 1]))
        second = max(curve[k], curve[k + 1]) * h * h / 8
        f = max(floor[k], floor[k + 1])
        r = min(first, second) + f
        distance = oracles.chord_distance_exact(complex(vals[k]), complex(vals[k + 1]))
        yield distance > r, r, distance <= first + f


@given(certify_cases())
@example(_near_root_box(1.09, 497089, 7.4, 8367.0))
# a bottom edge whose chord passes within a rounding floor of 0: r must
# carry max(f_a, f_b), or the chord alone certifies two of its segments
@example(_near_root_box(1.49, 5052149, 1.05, 81.0))
@example((ScalarFactor(((-1.215, 1.985, 9.729), (-0.973, -1.707, 10.312), (1.053, 0.792, 5.147))),
          Region(-0.161, 0.521, -0.474, 0.465)))
@example((DENSE_THREE, CHORD_BOX))
# |a b| tau^2 = 1e312 overflows while |a b| tau = 1e306 does not: only the
# first-order term M h bounds the reach
@example((ScalarFactor(((1e300, 1.0, 1e6),)), Region(-1.5e-6, 1.5e-6, 0.9999985, 1.0000015)))
@settings(max_examples=40, deadline=None)
def test_certified_segments_are_honest(case):
    """Every certified edge segment [a, b] holds the chord certificate:
    the computed chord [D_a, D_b] keeps farther than r = min(M h, C h^2 /
    8) + max(f_a, f_b) from 0, for the rounding floors f of the computed
    D, where M = 1 + sum_k |a_k b_k| tau_k exp(-x_min tau_k) bounds |D'|
    and C = sum_k |a_k b_k| tau_k^2 exp(-x_min tau_k) bounds |D''|.  And
    dense 50-digit samples show that D really stays within r of the chord
    point at the same fraction of the segment; so the segment's image
    stays away from 0."""
    factor, region = case
    try:
        _, region, edges = _alone(factor, region)
    except (BoundaryRoot, NoConvergence):
        return
    terms = [(t.a, t.b, t.tau) for t in factor.terms]
    fixed = (region.im_min, region.im_max, region.re_min, region.re_max)
    for row, (t, vals, turn) in enumerate(edges):
        z = t + 1j * fixed[row] if row < 2 else fixed[row] + 1j * t
        assert len(turn) == len(z) - 1
        for k, (chord, r, _) in enumerate(_segment_certificates(factor, z, vals)):
            assert chord
            for frac in np.linspace(0.0, 1.0, 9):
                zs = z[k] + frac * (z[k + 1] - z[k])
                exact = oracles.eval_factor_mp(terms, complex(zs))
                assert abs(exact - (vals[k] + frac * (vals[k + 1] - vals[k]))) <= r * (1 + 1e-12)


def test_chord_certified_segment_turns_as_at_50_digits():
    # a segment of CHORD_BOX's left edge that only the curvature term of
    # the reach certifies, D turning by almost 1 rad along it: the
    # certified turn is the change of arg D that 50-digit values show
    _, region, edges = _alone(DENSE_THREE, CHORD_BOX)
    t, vals, turn = edges[2]
    z = region.re_min + 1j * t
    only = [k for k, (chord, _, bent) in enumerate(_segment_certificates(DENSE_THREE, z, vals))
            if chord and bent]
    assert only
    k = max(only, key=lambda k: abs(turn[k]))
    assert abs(turn[k]) > 0.9
    terms = [(f.a, f.b, f.tau) for f in DENSE_THREE.terms]
    assert abs(turn[k] - oracles.arg_change_mp(terms, complex(z[k]), complex(z[k + 1]))) < 1e-12


def test_certified_count_matches_trapezoid_oracle():
    cases = _census_like_cases(7, 16) + _family_cases(8, (0, 1, 3, 10, 40, 100, 500, 1000, 2000))
    # far left at a large delay: on the left edges |D| reaches e^370 and
    # e^360, past the square root of the float maximum, where unscaled chord
    # products overflow to an infinite distance and certify segments that
    # turn by tens of radians
    far_left = ((100.0, (-3.7, 0.1, 0.05, 4.0)), (100.0, (-3.7, 0.1, 0.3, 4.1)), (150.0, (-2.4, -2.1, 0.05, 1.05)))
    cases += [(ScalarFactor(((1.0, 1.0, tau),)), Region(*box)) for tau, box in far_left]
    for factor, region in cases:
        count, _, (bottom, top, left, right) = _alone(factor, region)
        winding = (bottom[2].sum() + right[2].sum() - top[2].sum() - left[2].sum()) / (2 * PI)
        assert abs(winding - count) < 1e-9
        assert count == count_roots(factor, region) == oracles.count_roots_trapezoid(factor, region)


def test_chord_test_is_the_same_at_every_scale():
    # scaling the ends of a chord and the rows of its reach by a power of
    # two changes no answer, also past 2^500, where the test scales them
    # back before its products; the segments have length 1, and either
    # term of the reach may be the smaller
    rng = np.random.default_rng(3)
    da, db = rng.normal(size=(2, 400)) + 1j * rng.normal(size=(2, 400))
    za, zb = np.zeros(400, complex), np.ones(400, complex)
    rows = rng.uniform(0.0, 1.0, (2, 3, 400)) * np.abs(da) * np.array([0.2, 1.0, 8.0])[:, None]
    # the last row of each end is its |D|
    rows = np.concatenate((rows, np.abs([da, db])[:, None]), axis=1)
    clear = spectrum._certified((za, da, rows[0]), (zb, db, rows[1]))
    assert 0 < np.count_nonzero(clear) < clear.size
    for k in (-20, 300, 500, 600, 1000):
        s = math.ldexp(1.0, k)
        got = spectrum._certified((za, da * s, rows[0] * s), (zb, db * s, rows[1] * s))
        assert np.array_equal(got, clear)


def test_chord_certificate_cuts_the_bisection_levels(monkeypatch):
    # a segment along which D turns fast while staying far from 0 fails a
    # first-order bound such as M h and once cost a bisection level:
    # DENSE_THREE's band took 12
    # certify levels to locate and 6 more to count, and these census-like
    # boxes 17 levels to locate and 22 to count.  The chord certifies most
    # such segments at once: each census-like box is located in one level
    # and counted in at most two more, and the counts stay those of the
    # trapezoid rule.  DENSE_THREE's band still takes 6 levels to locate,
    # 4 of them for one grid segment 0.004 from a root, and 5 to count,
    # because the count starts its left edge with 16 segments along which D
    # turns about 25 rad each; 6 levels for the two together is not reached
    calls = []
    certified = spectrum._certified

    def counted(*args):
        calls.append(1)
        return certified(*args)

    monkeypatch.setattr(spectrum, "_certified", counted)
    region = Region(-0.25, 0.5, 0.05, 4.05)
    assert len(locate_roots(DENSE_THREE, region, 100)) == 62
    located = len(calls)
    assert count_roots(DENSE_THREE, region) == 62
    assert located <= 6 and len(calls) - located <= 5
    for factor, region in _census_like_cases(17, 12):
        calls.clear()
        count = len(locate_roots(factor, region))
        assert len(calls) == 1
        assert count_roots(factor, region) == count == oracles.count_roots_trapezoid(factor, region)
        assert len(calls) <= 3


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

    def recorded(taus, ab, xs, ys, threshold, resolution, edges=None):
        made.append((xs, False))
        cells = grid(taus, ab, xs, ys, threshold, resolution, edges)
        whole = Region(xs[0], xs[-1], ys[0], ys[-1])
        expected = count_roots(UNIT_ROOT_FACTOR, whole) if edges is None else spectrum._winding(*edges)
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
        total, _, edges = _alone(factor, region)
        terms = oracles.certifier_terms(factor)
        grid = spectrum._grid(*terms, spectrum._cuts(x0, x1, 2), spectrum._cuts(y0, y1, 5),
                              threshold, resolution)
        xs, ys = [x0, x0 + 0.41 * (x1 - x0), x1], [y0, y0 + 0.41 * (y1 - y0), y1]
        children = spectrum._grid(*terms, xs, ys, threshold, resolution, edges)
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

    def recorded(taus, ab, xs, ys, threshold, resolution, edges=None):
        try:
            return grid(taus, ab, xs, ys, threshold, resolution, edges)
        except BoundaryRoot:
            failed.append(edges is None)
            raise

    monkeypatch.setattr(spectrum, "_grid", recorded)
    region = Region(*box)
    roots = locate_roots(UNIT_ROOT_FACTOR, region)
    assert failed[0]
    _assert_same_roots(roots, oracles.locate_roots_reference(UNIT_ROOT_FACTOR, region))
    assert len(roots) == 1 and abs(roots[0] - 1j) < 1e-10


# census-like boxes that locate_roots once had to split, polishing one-root
# cells from their centres and cutting every other cell in four: (seed,
# index) into _census_like_cases(seed, 4)
_SPLIT_BY_CENTRES = ((10, 0), (14, 1), (15, 1), (21, 0), (25, 3), (28, 1), (33, 3), (35, 0), (36, 1))


def _first_grid(factor, region, max_roots):
    """The cells (region, contour, count) of the first grid locate_roots
    certifies for the region."""
    terms = oracles.certifier_terms(factor)
    x0, x1, y0, y1 = region.re_min, region.re_max, region.im_min, region.im_max
    kx, ky = spectrum._grid_shape(terms[0], region, max_roots)
    threshold = 1e-8 * spectrum._scale(factor.coefficient_bound(), region)
    return spectrum._grid(*terms, spectrum._cuts(x0, x1, kx), spectrum._cuts(y0, y1, ky),
                          threshold, 1e-6 * max(x1 - x0, y1 - y0))


def test_moment_starts_match_a_fine_contour():
    # every start from a cell's certified edges lies within 2 % of the
    # cell's diameter of an estimate from 4096 panels per edge, and the
    # other way round (the cell's centre can be half its diameter off)
    cases = (_census_like_cases(11, 24) + [_census_like_cases(s, 4)[k] for s, k in _SPLIT_BY_CENTRES]
             + [(DENSE_THREE, Region(-0.25, 0.5, 0.05, 4.05))])
    counts = set()
    for factor, region in cases:
        for cell, contour, count in _first_grid(factor, region, 100):
            reference = oracles.moment_starts_reference(factor, cell, count)
            assert len(contour.starts) == count
            counts.add(count)
            for a, b in ((contour.starts, reference), (reference, contour.starts)):
                assert max(min(abs(z - w) for w in b) for z in a) < 0.02 * cell.diameter
    assert counts == {1, 2, 3}


def test_moment_starts_need_no_split(monkeypatch):
    # one certified grid and one polish per root: DENSE_THREE's 62 roots
    # once took 47 grids, and each census-like box here at least two
    calls = {"_grid": 0, "polish_root": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(spectrum, name)):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(spectrum, name, counted)
    cases = ([(DENSE_THREE, Region(-0.25, 0.5, 0.05, 4.05), 100)]
             + [(*_census_like_cases(s, 4)[k], 64) for s, k in _SPLIT_BY_CENTRES])
    found = []
    for factor, region, max_roots in cases:
        calls.update({"_grid": 0, "polish_root": 0})
        found.append(len(locate_roots(factor, region, max_roots)))
        assert calls == {"_grid": 1, "polish_root": found[-1]}
    assert found[0] == 62 and min(found[1:]) >= 2


def test_failed_starts_fall_back_to_the_split(monkeypatch):
    # every start of the first grid fails to polish: each cell with roots is
    # split, its children bring their own starts, and every root comes back
    cases = [_census_like_cases(s, 4)[k] for s, k in _SPLIT_BY_CENTRES[:5]] + [
        (UNIT_ROOT_FACTOR, Region(-1.0, 1.0, -8.0, 8.0)), (DENSE_THREE, Region(-0.25, 0.5, 0.05, 2.05))]
    expected = [locate_roots(f, r, 64) for f, r in cases]
    grid, polish = spectrum._grid, spectrum.polish_root
    first, splits = set(), []

    def spoiled_grid(taus, ab, xs, ys, threshold, resolution, edges=None):
        cells = grid(taus, ab, xs, ys, threshold, resolution, edges)
        if edges is None:
            first.update(z for _, contour, _ in cells for z in contour.starts)
        else:
            splits.append(edges)
        return cells

    def failing_polish(factor, start, tol=1e-12):
        if start in first:
            raise NoConvergence(float("nan"), "forced to fail")
        return polish(factor, start, tol)

    monkeypatch.setattr(spectrum, "_grid", spoiled_grid)
    monkeypatch.setattr(spectrum, "polish_root", failing_polish)
    for (factor, region), roots in zip(cases, expected):
        first.clear()
        splits.clear()
        _assert_same_roots(locate_roots(factor, region, 64), roots)
        assert len(splits) >= len(_first_grid(factor, region, 64)) >= 1


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


def test_verify_refuses_a_tolerance_that_is_not_positive_and_finite(realized_three):
    # with tol = inf, a result with one delay moved by 0.01 (residuals
    # 2.1e-2, polish drift 9e-3) would pass
    target, result = realized_three
    bumped = result.taus.copy()
    bumped[0] += 0.01
    bad = dataclasses.replace(result, taus=bumped)
    assert not verify_realization(bad, target, tol=1e-8).passed
    for tol in (math.inf, -math.inf, math.nan, 0.0, -1e-8):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_realization(bad, target, tol=tol)


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
    # one coefficient per delay, too: a short list ended in IndexError, and
    # extra coefficients were ignored
    for coeffs in ([0.1], [0.1, 0.2, 0.3]):
        with pytest.raises(ValueError, match="mismatched dimensions"):
            verify_realization(_plain_result([1.0, 2.0], coeffs), target)


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


def _box_by_box(counted):
    """A stand-in for spectrum._batch_counts (given as counted) that counts
    each region alone for its own factor, as _alone(factor, region) does."""

    def each(taus, ab, owner, regions):
        return [counted(taus, ab[j : j + 1], [0], [region])[0] for j, region in zip(owner, regions)]

    return each


def _assert_same_outcomes(batch, alone):
    """Two lists of outcomes of spectrum._batch_counts: the errors of one
    type and message, the counts equal and their edges bit for bit."""
    assert len(batch) == len(alone)
    for got, want in zip(batch, alone):
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
            continue
        assert got[:2] == want[:2]
        for path, single in zip(got[2], want[2]):
            assert [a.tobytes() for a in path] == [a.tobytes() for a in single]


def test_batched_isolation_boxes_match_box_by_box(monkeypatch, realized_three):
    # the touching case: a batch of the boxes around +-i and +-3i touches a
    # root, and each box is counted on its own, those around +-i after a
    # dilation; every outcome is the one the box gives alone
    touching = _touching_case()
    factor = result_factors(touching[0], WeightTable.ones(2))[0]
    boxes = [Region(-0.05, 0.05, w - 0.05, w + 0.05) for w in (1.0, -1.0, 3.0, -3.0)]
    terms = oracles.certifier_terms(factor)
    batch = spectrum._batch_counts(*terms, [0] * len(boxes), boxes)
    _assert_same_outcomes(batch, [spectrum._batch_counts(*terms, [0], [box])[0] for box in boxes])
    assert [region for _, region, _ in batch] == [box.dilated(1e-6) for box in boxes[:2]] + boxes[2:]
    assert count_roots(factor, boxes[0]) == batch[0][0] == 1
    # the pair case: the box around i is halved three times
    pair = _pair_case()
    factor = result_factors(pair[0], WeightTable.ones(2))[0]
    halved = [Region(-d, d, 1.0 - d, 1.0 + d) for d in (0.05, 0.0125, 0.00625)]
    assert [count_roots(factor, box) for box in halved] == [2, 2, 1]
    target = FrequencyTarget(((1.0,), (SQRT2,)))
    weights = WeightTable(np.array([[1.0, 2.0], [1.0, -1.0]]))
    split = (realize(target, weights), target, weights)
    cases = [(realized_three[1], realized_three[0], None), touching, pair, split]

    counted = spectrum._batch_counts
    calls = []

    def recorded(taus, ab, owner, regions):
        calls[-1].append(len(regions))
        return counted(taus, ab, owner, regions)

    monkeypatch.setattr(spectrum, "_batch_counts", recorded)
    batched = []
    for case in cases:
        calls.append([])
        batched.append(verify_realization(*case))
    # only the boxes around +i w are counted: the box around i of the pair
    # case is halved three times, and the box around -i is its mirror
    assert calls[2] == [2, 1, 1, 1]
    # the split's two factors share one batch
    assert calls[3] == [2]
    monkeypatch.setattr(spectrum, "_batch_counts", _box_by_box(counted))
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
        terms = oracles.certifier_terms(factor)
        batch = counted(*terms, [0] * len(boxes), boxes)
        _assert_same_outcomes(batch, [counted(*terms, [0], [box])[0] for box in boxes])
        if any(isinstance(got, Exception) for got in batch):
            continue
        compared += 1
    assert compared >= 30


def _ring_cases():
    """The ring problems of the benchmark's ring_design workload, each as
    (result, target, weights)."""
    r2, r3, r5 = (math.sqrt(x) for x in (2.0, 3.0, 5.0))
    problems = (
        (3, (0, 1), ((1.0,), (r2,)), {"internal": 1, "couplings": {2: 1}}),
        (5, (1, 2), ((1.0,), (r2,)), {"couplings": {2: 1, 3: 1}}),
        (7, (1, 2, 3), ((1.0,), (r2,), (r3,)), {"couplings": {2: 1, 3: 1, 4: 1}}),
        (3, (1,), ((1.0, r2),), {"couplings": {2: 2}}),
        (3, (0,), ((1.0, r2),), {"internal": 2}),
        (5, (0, 1, 2), ((1.0,), (r2,), (r3,)), {"internal": 1, "couplings": {2: 1, 3: 1}}),
        (5, (0, 2), ((1.0, r3), (r2,)), {"internal": 2, "couplings": {3: 1}}),
        (5, (1, 2), ((1.0, r2), (r3, r5)), {"couplings": {2: 2, 3: 2}}),
        (7, (0, 1), ((1.0, r2), (r3, r5)), {"internal": 2, "couplings": {2: 2}}),
        (7, (2, 3), ((r2, r3), (r5,)), {"internal": 1, "couplings": {3: 1, 4: 1}}),
        (11, (1, 3), ((1.0, r2), (r3,)), {"couplings": {2: 2, 4: 1}}),
        (11, (0, 2, 5), ((1.0,), (r2,), (r3,)), {"internal": 1, "couplings": {3: 1, 6: 1}}),
        (11, (1, 4), ((1.0, r2), (r3, r5)), {"internal": 1, "couplings": {2: 2, 5: 1}}),
    )
    cases = []
    for n, indices, groups, layout in problems:
        target = FrequencyTarget(groups)
        weights, _ = ring_weight_table(n, indices, target.sizes, layout)
        _, result = realize_ring(n, indices, groups, layout)
        cases.append((result, target, weights))
    return cases


def test_cross_factor_batch_matches_factor_by_factor(monkeypatch):
    # verify_realization counts the boxes of all factors in one batch; the
    # report must be, bit for bit, the one from counting each box alone
    # with _alone(factor, box)
    target = FrequencyTarget(((1.0,), (SQRT2,)))
    weights = WeightTable(np.array([[1.0, 2.0], [1.0, -1.0]]))
    cases = _ring_cases() + [(realize(target, weights), target, weights)]
    rng = np.random.default_rng(41)
    for rows in (2, 3, 2, 3, 2, 3):
        # random delays, coefficients and weight tables: most targets fail,
        # but every box is counted
        n = int(rng.integers(rows, rows + 3))
        omegas = np.sort(rng.uniform(0.5, 3.0, n)).tolist()
        cuts = sorted(rng.choice(np.arange(1, n), rows - 1, replace=False).tolist())
        groups = tuple(tuple(g) for g in np.split(np.array(omegas), cuts))
        table = WeightTable(rng.uniform(-2.0, 2.0, (rows, n)))
        result = _plain_result(rng.uniform(0.2, 6.0, n).tolist(), rng.uniform(-1.5, 1.5, n).tolist())
        cases.append((result, FrequencyTarget(groups), table))
    cases += [_touching_case(), _pair_case()]

    counted = spectrum._batch_counts
    calls = []

    def recorded(taus, ab, owner, regions):
        calls[-1].append((len(ab), len(regions)))
        return counted(taus, ab, owner, regions)

    monkeypatch.setattr(spectrum, "_batch_counts", recorded)
    batched = []
    for case in cases:
        calls.append([])
        batched.append(verify_realization(*case))
    monkeypatch.setattr(spectrum, "_batch_counts", _box_by_box(counted))
    alone = [verify_realization(*case) for case in cases]
    # and from the reference kernel, which evaluates each factor on its own
    monkeypatch.setattr(spectrum, "_batch_counts", counted)
    monkeypatch.setattr(spectrum, "_node_values", oracles.node_values_reference)
    reference = [verify_realization(*case) for case in cases]
    for got, want, ref in zip(batched, alone, reference):
        assert got == want == ref
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict()) == json.dumps(ref.to_dict())
    # every ring and the split pass, each in one batch of all its factors'
    # boxes around +i omega
    for (result, target, _), report, made in zip(cases[:14], batched, calls):
        assert report.passed
        assert made == [(target.r, target.n)]
    assert any(not report.passed for report in batched[14:20])
    # the halving levels of the pair case take one box each
    assert calls[-1] == [(1, 2), (1, 1), (1, 1), (1, 1)]

    # random 2- and 3-row weight tables over shared delays and
    # coefficients, eight boxes each, any box owned by any row: a batch
    # that succeeds counts every box as its own factor alone does.  The
    # node kernel itself runs here.  With delays up to 12 the chord
    # certificate leaves almost nothing to bisect, so the last 15 cases
    # take delays up to 48, where many batches still bisect segments of
    # boxes of two or more factors in one level
    monkeypatch.undo()
    kernel = spectrum._node_values
    rows_read = []

    def reading(taus, ab, z, pick):
        rows_read.append(len(np.unique(pick // z.size)))
        return kernel(taus, ab, z, pick)

    monkeypatch.setattr(spectrum, "_node_values", reading)
    compared = mixed = 0
    for longest in (12.0,) * 30 + (48.0,) * 15:
        m = int(rng.integers(2, 8))
        base = ScalarFactor(tuple(zip(rng.uniform(-1.5, 1.5, m).tolist(), (1.0,) * m,
                                      rng.uniform(0.0, longest, m).tolist())))
        factors = _weight_rows(base, rng.uniform(-2.0, 2.0, (int(rng.integers(2, 4)), m)))
        owner = rng.integers(0, len(factors), 8).tolist()
        centres = rng.uniform(-0.3, 0.3, 8) + 1j * rng.uniform(-4.0, 4.0, 8)
        half = rng.uniform(0.02, 0.4, (8, 2))
        boxes = [Region(c.real - w, c.real + w, c.imag - h, c.imag + h)
                 for c, (w, h) in zip(centres, half)]
        rows_read.clear()
        batch = counted(*oracles.certifier_terms(*factors), owner, boxes)
        # the first call evaluates the starting nodes, each later one a level
        first = max(rows_read[1:], default=1) > 1
        _assert_same_outcomes(batch, [counted(*oracles.certifier_terms(factors[j]), [0], [box])[0]
                                      for j, box in zip(owner, boxes)])
        if any(isinstance(got, Exception) for got in batch):
            continue
        mixed += first
        compared += 1
    assert compared >= 20 and mixed >= 5


def _lower_check(factor, j, omega, delta, tol=1e-8):
    """The TargetCheck of -i*omega from its own box and its own polish,
    the way the box around +i*omega is counted and polished: the box is
    halved while it holds more than one root, up to 11 times."""
    start = 1j * -omega
    count, error, d = 0, None, delta
    for _ in range(12):
        box = Region(-d, d, -omega - d, -omega + d)
        try:
            count = _alone(factor, box)[0]
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
    counted = spectrum._batch_counts
    boxes = []

    def recorded(taus, ab, owner, regions):
        boxes.extend(regions)
        return counted(taus, ab, owner, regions)

    with monkeypatch.context() as patch:
        patch.setattr(spectrum, "_batch_counts", recorded)
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

    def never(taus, ab, owner, regions):
        raise AssertionError("counted a box")

    monkeypatch.setattr(spectrum, "_batch_counts", never)
    with pytest.raises(ValueError) as info:
        verify_realization(result, target)
    message = str(info.value)
    assert f"{3.0!r}i and {above!r}i are only {above - 3.0:.3g} apart" in message
    assert "no isolation box fits around 3.0i" in message


def test_isolation_boxes_stay_off_the_real_axis(monkeypatch):
    # half the gap between -0.0065262i and 0.0065262i made a box of
    # half-width w_min whose bottom edge lay on the real axis, where D has
    # a real root: |D| = 2.5e-8 on the contour failed both w_min checks
    target = FrequencyTarget(((0.0065262, 0.53375, 0.99475),))
    result = realize(target)
    counted = spectrum._batch_counts
    boxes = []

    def recorded(taus, ab, owner, regions):
        boxes.extend(regions)
        return counted(taus, ab, owner, regions)

    monkeypatch.setattr(spectrum, "_batch_counts", recorded)
    report = verify_realization(result, target)
    assert report.passed
    assert spectrum._isolation_halfwidth(target, float(np.max(result.taus))) <= 0.5 * 0.0065262
    assert boxes and all(box.im_min > 0.0 for box in boxes)


def test_isolation_box_too_close_to_the_axis_is_named():
    # the gap from 1e-10i down to the real axis binds: the half-width
    # 5e-11 is below the float spacing at 1e10
    target = FrequencyTarget(((1e-10, 1e10),))
    with pytest.raises(ValueError) as info:
        verify_realization(_plain_result([1.0, 2.0], [0.1, 0.2]), target)
    message = str(info.value)
    assert "no isolation box fits around 10000000000.0i" in message
    assert "the target 1e-10i is only 1e-10 above the real axis" in message


def test_failed_halved_count_keeps_the_last_count(monkeypatch):
    # the box around i of the pair case holds two roots; when the count of
    # its halved box fails, both checks of i report the last certified
    # count, 2, and the error in their note
    plain = verify_realization(*_pair_case())
    counted = spectrum._batch_counts
    calls = []

    def halved_fails(taus, ab, owner, regions):
        calls.append(len(regions))
        if len(calls) == 1:
            return counted(taus, ab, owner, regions)
        return [BoundaryRoot("halved box grazed a root") for _ in regions]

    monkeypatch.setattr(spectrum, "_batch_counts", halved_fails)
    report = verify_realization(*_pair_case())
    assert calls == [2, 1]
    upper, lower = report.targets[:2]
    for check in (upper, lower):
        assert check.local_count == 2
        assert check.note == "count failed: halved box grazed a root"
        assert not check.passed and check.polished is None
    assert report.targets[2:] == plain.targets[2:]
    assert not report.passed and report.roots_counted == plain.roots_counted - 2


def test_overflowing_bound_rows_warn_nothing():
    # |a b| tau^2 = 1e312 overflows in the certifier's bound rows; with
    # numpy's RuntimeWarning an error, the report must still come back
    report = verify_realization(_plain_result([1e6], [1e300]), FrequencyTarget(((1.0,),)))
    assert not report.passed
    assert [t.local_count for t in report.targets] == [0, 0]
    assert report.targets[0].note == "isolation box holds 0 roots"


def test_report_json_shape(realized_three):
    target, result = realized_three
    report = verify_realization(result, target, tol=1e-8)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert doc["totals"]["targets"] == 6
    assert doc["totals"]["roots_counted"] == 6
    assert doc["contour"]["min_abs"] > 0
