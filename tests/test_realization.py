import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_forge.errors import (
    NoConvergence,
    SearchExhausted,
    SingularIB,
    SingularJacobian,
    ZeroAmplitude,
    ZeroWeight,
)
from spectra_forge.quasipoly import ScalarFactor, residual_on_targets
from spectra_forge.realization import (
    FrequencyTarget,
    RealizeConfig,
    WeightTable,
    base_point,
    cal_I,
    cal_I_B,
    circ_dist,
    continue_realization,
    delay_candidates,
    det_cal_I_B_lemma,
    index_vectors,
    newton_refine,
    realize,
    result_factors,
)
from oracles import (
    achieved_windows,
    delay_candidates_reference,
    direct_transversality,
    grid_scan_delay,
    integer_relations,
    orthant_search_reference,
    random_partition,
    transversality_at_base,
)

PI = math.pi
SQRT2 = math.sqrt(2.0)
# sqrt of 1 and the first thirteen primes: the scalar frontier sequence
PRIME_ROOTS = tuple(math.sqrt(p) for p in (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))

D3_TARGET = FrequencyTarget(((1.0,), (SQRT2,)))
D3_WEIGHTS = WeightTable(np.array([[1.0, 2.0], [1.0, -1.0]]))


# ---------------------------------------------------------------------------
# sign vectors and stacked matrices


def test_index_vectors_small():
    assert [v.tolist() for v in index_vectors(1)] == [[1.0]]
    assert [v.tolist() for v in index_vectors(2)] == [[1.0, 1.0], [1.0, -1.0]]
    assert [v.tolist() for v in index_vectors(3)] == [
        [1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0],
    ]


def test_cal_I_values_and_determinants():
    assert cal_I(1).tolist() == [[1.0]]
    m2 = cal_I(2)
    assert m2.tolist() == [[1.0, 1.0], [1.0, -1.0]]
    assert np.linalg.det(m2) == pytest.approx(-2.0)
    assert abs(np.linalg.det(cal_I(4))) > 1e-9


def test_cal_I_B_unit_weights_is_cal_I():
    target = FrequencyTarget(((1.0, SQRT2, math.sqrt(3.0)),))
    mat = cal_I_B(WeightTable.ones(3), target)
    assert np.array_equal(mat, cal_I(3))


def test_cal_I_B_two_factor_table():
    mat = cal_I_B(D3_WEIGHTS, D3_TARGET)
    assert mat.tolist() == [[1.0, 2.0], [1.0, -1.0]]
    assert np.linalg.det(mat) == pytest.approx(-3.0)


def test_cal_I_B_sign_pattern_mixed_partition():
    # groups of sizes (2, 1): minus sign only at the (2, 2) entry
    target = FrequencyTarget(((1.0, SQRT2), (math.sqrt(3.0),)))
    weights = WeightTable(np.array([[0.5, 1.5, -0.7], [2.0, 1.0, 0.3]]))
    mat = cal_I_B(weights, target)
    signs = np.sign(mat) * np.sign(np.repeat(weights.b, (2, 1), axis=0))
    assert signs.tolist() == [[1, 1, 1], [1, -1, 1], [1, 1, 1]]


def test_cal_I_B_rejects_zero_weight():
    weights = WeightTable(np.array([[1.0, 0.0], [1.0, -1.0]]))
    with pytest.raises(ZeroWeight) as err:
        cal_I_B(weights, D3_TARGET)
    assert (err.value.j, err.value.k) == (1, 2)


def test_det_lemma_unit_weights_single_group():
    for n in range(1, 7):
        target = FrequencyTarget((tuple(1.0 + 0.1 * k + 0.01 * k * k for k in range(n)),))
        val = det_cal_I_B_lemma(WeightTable.ones(n), target)
        assert abs(val) == pytest.approx(2.0 ** (n - 1), rel=1e-12)


def test_det_lemma_two_factor_table():
    assert abs(det_cal_I_B_lemma(D3_WEIGHTS, D3_TARGET)) == pytest.approx(3.0, rel=1e-12)


def test_det_lemma_matches_lu_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        target, weights = random_partition(rng)
        lemma = det_cal_I_B_lemma(weights, target)
        lu = float(np.linalg.det(cal_I_B(weights, target)))
        assert abs(abs(lemma) - abs(lu)) <= 1e-10 * max(abs(lu), 1e-30)
        assert lemma == pytest.approx(lu, rel=1e-9)


# ---------------------------------------------------------------------------
# base point


def test_base_point_one_frequency():
    bp = base_point(FrequencyTarget(((1.0,),)))
    assert bp.amplitudes.tolist() == [1.0]
    assert bp.target_angles.tolist() == [[3 * PI / 2]]


def test_base_point_two_frequencies():
    bp = base_point(FrequencyTarget(((1.0, SQRT2),)))
    assert bp.amplitudes == pytest.approx([(1 + SQRT2) / 2, (1 - SQRT2) / 2], rel=1e-14)


def test_base_point_two_factor_table():
    bp = base_point(D3_TARGET, D3_WEIGHTS)
    assert bp.amplitudes == pytest.approx(
        [(1 + 2 * SQRT2) / 3, (1 - SQRT2) / 3], rel=1e-14
    )
    # all angles 3*pi/2 for this all-positive sign pattern
    assert np.all(bp.sign_matrix == 1.0)
    assert np.all(bp.target_angles == 3 * PI / 2)


def test_base_point_matrix_identity():
    # exp(-i * angle) at the base reproduces i * calIB entrywise
    rng = np.random.default_rng(9)
    for _ in range(20):
        target, weights = random_partition(rng, nmax=6)
        bp = base_point(target, weights)
        phases = np.exp(-1j * bp.target_angles)
        rows = np.repeat(weights.b, target.sizes, axis=0)
        assert np.allclose(rows * phases, 1j * bp.calIB, atol=1e-13)


def test_base_point_singular_matrix():
    weights = WeightTable(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularIB):
        base_point(D3_TARGET, weights)


def test_base_point_near_rational_amplitude_error():
    from spectra_forge.errors import ZeroAmplitude

    # nearly equal frequencies squeeze one amplitude to ~5e-14 * |omega|
    target = FrequencyTarget(((1.0, 1.0 + 1e-13),))
    with pytest.raises(ZeroAmplitude) as err:
        base_point(target)
    assert err.value.k == 2


def test_base_point_amplitudes_nonzero_for_independent_looking_targets():
    rng = np.random.default_rng(123)
    found = 0
    while found < 100:
        n = int(rng.integers(1, 6))
        omegas = np.sort(rng.uniform(0.3, 5.0, size=n))
        if np.min(np.diff(omegas), initial=np.inf) < 1e-3:
            continue
        if integer_relations(omegas, max_coeff=10, tol=1e-9):
            continue
        found += 1
        target = FrequencyTarget((tuple(omegas),))
        bp = base_point(target)
        assert np.all(np.abs(bp.amplitudes) > 1e-10 * np.linalg.norm(omegas))


# ---------------------------------------------------------------------------
# integer relations (the test oracle that screens targets)


def test_independence_detects_integer_relation():
    hits = integer_relations([1.0, 2.0], max_coeff=3, tol=1e-9)
    assert (2, -1) in hits


def test_independence_silent_on_sqrt2():
    assert integer_relations([1.0, SQRT2], max_coeff=10, tol=1e-9) == []


def test_independence_detects_duplicates():
    assert (1, -1) in integer_relations([1.0, 1.0], max_coeff=2, tol=1e-9)


def test_integer_relations_match_brute_force_grid():
    # the meet-in-the-middle search returns the full grid's relations, in
    # its order, also at loose tolerances where many sums sit near the
    # threshold
    import itertools

    rng = np.random.default_rng(5)
    cases = [((1.0, 2.0), 3), ((1.0, 1.0), 2), ((1.0, SQRT2), 4), ((0.7,), 4),
             ((1.0, SQRT2, 1.0 + SQRT2), 4), ((0.5, 1.5, 2.0), 2)]
    cases += [(tuple(rng.uniform(0.3, 5.0, int(rng.integers(1, 4)))), int(rng.integers(1, 5)))
              for _ in range(30)]
    for omegas, max_coeff in cases:
        w = np.array(omegas)
        grid = np.array(list(itertools.product(range(-max_coeff, max_coeff + 1), repeat=w.size)))
        for tol in (1e-9, 1e-3, 0.05):
            value = np.abs(grid @ w)
            hits = [tuple(int(x) for x in c) for c in grid[value < tol * np.linalg.norm(w)] if any(c)]
            assert integer_relations(omegas, max_coeff, tol) == hits


# ---------------------------------------------------------------------------
# delay search


def test_delay_search_two_frequencies_meets_tolerance():
    target = FrequencyTarget(((1.0, SQRT2),))
    eps = 0.25
    taus = delay_candidates(target, WeightTable.ones(2), epsilon=eps)
    # the orthants the sweep chose, as the full scan chooses them
    signs, expected = orthant_search_reference(target.flat, np.ones((2, 2)), eps, 10_000_000)
    assert taus.tolist() == expected
    base = dataclasses.replace(base_point(target), sign_matrix=signs,
                               target_angles=np.where(signs > 0, 1.5 * PI, 0.5 * PI))
    windows = achieved_windows(target, base, taus)
    assert np.all(taus > 0)
    assert np.all(windows < eps)
    # brute-force sweep confirms a solution exists at or before ours
    omega = target.flat
    for k in range(2):
        brute = grid_scan_delay(omega, base.target_angles[:, k], eps, taus[k] + 1.0)
        assert brute is not None
        assert brute <= taus[k] + 1e-3


def test_delay_search_budget_exhaustion():
    # a budget inside the first chunk: no orthant within 0.05 rad in 200
    # grid points, and the best distance is the true minimum over the
    # budget, as the full scan sees it
    target = FrequencyTarget(((1.0, SQRT2, math.sqrt(3.0)),))
    with pytest.raises(SearchExhausted) as err:
        delay_candidates(target, WeightTable.ones(3), epsilon=0.05, budget=200)
    with pytest.raises(SearchExhausted) as ref:
        orthant_search_reference(target.flat, np.ones((3, 3)), 0.05, 200)
    assert err.value.index == ref.value.index == 0
    assert err.value.best_distance == ref.value.best_distance
    assert 0.05 <= err.value.best_distance < math.inf


@pytest.mark.parametrize("budget", [1023, 1024, 1025, 3072, 7168])
@pytest.mark.parametrize("n, eps", [(3, 0.05), (4, 0.1), (5, 0.3)])
def test_delay_search_exhaustion_on_chunk_boundaries(n, eps, budget):
    # chunks of 1024, 2048 and 4096 points end at 1024, 3072 and 7168: the
    # second sweep, gated at its running best, covers the same grid, last
    # chunk included, and finds the exact minimum (for n = 4 and 5 it
    # moves at the 3072 chunk end)
    target = FrequencyTarget((PRIME_ROOTS[:n],))
    with pytest.raises(SearchExhausted) as ref:
        orthant_search_reference(target.flat, np.ones((n, n)), eps, budget)
    with pytest.raises(SearchExhausted) as err:
        delay_candidates(target, WeightTable.ones(n), eps, budget)
    assert err.value.index == ref.value.index
    assert err.value.best_distance == ref.value.best_distance


@pytest.mark.parametrize("eps", [0.4, 0.8])
def test_successful_delay_search_gates_at_epsilon(monkeypatch, eps):
    # a search that finds every column never widens its gate beyond epsilon
    from spectra_forge import realization

    reaches = []
    gate = realization._quarter_turn_survivors

    def spy(first, last, step, omega, reach):
        reaches.append(reach)
        return gate(first, last, step, omega, reach)

    monkeypatch.setattr(realization, "_quarter_turn_survivors", spy)
    for n in range(2, 7):
        target = FrequencyTarget((PRIME_ROOTS[:n],)).scaled(1.0 / PRIME_ROOTS[n - 1])
        delay_candidates(target, WeightTable.ones(n), epsilon=eps)
    assert len(reaches) > 5 and set(reaches) == {eps}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_delay_search_matches_reference_on_prime_ladder(n):
    # at eps 0.4, a rung realize reaches only when 0.8 to 1.4 fail
    omegas = tuple(math.sqrt(p) for p in (1, 2, 3, 5, 7, 11)[:n])
    target = FrequencyTarget((omegas,)).scaled(1.0 / omegas[-1])
    _, expected = orthant_search_reference(target.flat, np.ones((n, n)), 0.4, 10_000_000)
    assert delay_candidates(target, WeightTable.ones(n), epsilon=0.4).tolist() == expected


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.0, max_value=7.5),
)
@settings(max_examples=200, deadline=None)
def test_quarter_turn_gate_keeps_every_point_near_a_column(seed, n, log_index):
    # the gate (residues of the w_max row, offsets of the others) may pass
    # extra points but must never drop one that the exact column test puts
    # within the radius, even one right at the boundary; grid indices run
    # past the 1e7 of the default budget, so tau*w_max passes 1e6
    from spectra_forge.realization import _column_distance, _quarter_turn_survivors

    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.2, 5.0, n)
    col = rng.choice([0.5 * PI, 1.5 * PI], n)
    step = 2.0 * PI / (64.0 * float(omega.max()))
    first = int(10.0**log_index)
    grid = (first + np.arange(4096)) * step
    dist = _column_distance(omega, col, grid)
    closest = float(np.sort(dist)[int(rng.integers(0, 8))])
    radius = min(float(np.nextafter(closest, np.inf)), 0.5 * PI - 1e-9)
    kept = _quarter_turn_survivors(first, first + 4095, step, omega, radius)
    assert np.all(np.diff(kept) > 0)
    assert set(grid[dist < radius].tolist()) <= set(kept.tolist())


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=-1.0, max_value=7.0),
)
@settings(max_examples=100, deadline=None)
def test_pruned_refine_matches_full_scan(seed, n, log_steps):
    # the pruned scan returns the full scan's first argmin bit for bit,
    # also for windows clipped at 0.25 * halfwidth (tau below 1.25 steps)
    from spectra_forge.realization import _refine_candidate
    from oracles import _refine_candidate as full_scan

    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.2, 5.0, n)
    col = rng.choice([0.5 * PI, 1.5 * PI], n)
    step = 2.0 * PI / (64.0 * float(omega.max()))
    tau = step * 10.0**log_steps
    assert _refine_candidate(omega, col, tau, step) == full_scan(omega, col, tau, step)


def _recorded_starts(monkeypatch):
    """Every (eps, signs, start delays) realize tries, in order."""
    from spectra_forge import realization

    attempts = []
    starts = realization._starts

    def recorded(scaled, weights, paper, eps, budget):
        for label, base, taus0 in starts(scaled, weights, paper, eps, budget):
            attempts.append((eps, base.sign_matrix.copy(), taus0.copy()))
            yield label, base, taus0

    monkeypatch.setattr(realization, "_starts", recorded)
    return attempts


def _assert_starts_match_full_scan(monkeypatch, target, weights):
    # each rung's orthants and start delays, and those of its retry without
    # the last orthant, are the full scan's greedy basis bit for bit
    attempts = _recorded_starts(monkeypatch)
    realize(target, weights)
    scaled = target.scaled(1.0 / float(target.flat.max()))
    brows = np.repeat(weights.b, target.sizes, axis=0)
    assert attempts
    skip = None
    for k, (eps, signs, taus0) in enumerate(attempts):
        retry = k > 0 and attempts[k - 1][0] == eps
        ref_signs, ref_taus = orthant_search_reference(
            scaled.flat, brows, eps, 10_000_000, skip if retry else None)
        assert signs.tolist() == ref_signs.tolist()
        assert taus0.tolist() == ref_taus
        skip = signs[:, -1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_orthant_choice_matches_full_scan_on_ladder(monkeypatch, n):
    target = FrequencyTarget((PRIME_ROOTS[:n],))
    _assert_starts_match_full_scan(monkeypatch, target, WeightTable.ones(n))


def test_orthant_choice_matches_full_scan_on_random_partitions(monkeypatch):
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 20:
        target, weights = random_partition(rng, nmax=5)
        if target.n < 2:
            continue
        try:
            base_point(target, weights)
        except (SingularIB, ZeroAmplitude):
            continue
        _assert_starts_match_full_scan(monkeypatch, target, weights)
        checked += 1


def test_orthant_search_exhaustion_matches_full_scan():
    # the count of orthants found and the best distance of a point outside
    # their span, as the full scan finds them.  For one group no such point
    # is within epsilon.  For two groups one can be: an orthant passed over
    # as column k may be independent as column k + 1, so the skip rule of
    # realize is kept to one group
    cases = [
        (FrequencyTarget((PRIME_ROOTS[:5],)), WeightTable.ones(5), 0.8, 50, 1),
        (FrequencyTarget(((1.0, SQRT2), (math.sqrt(3.0), math.sqrt(5.0)))),
         WeightTable(np.array([[1.0, 1.0, 2.0, 2.0], [1.0, 1.0, -0.5, 0.75]])), 0.5, 1200, 3),
    ]
    for target, weights, eps, budget, index in cases:
        scaled = target.scaled(1.0 / float(target.flat.max()))
        brows = np.repeat(weights.b, target.sizes, axis=0)
        with pytest.raises(SearchExhausted) as err:
            delay_candidates(scaled, weights, eps, budget)
        with pytest.raises(SearchExhausted) as ref:
            orthant_search_reference(scaled.flat, brows, eps, budget)
        assert err.value.index == ref.value.index == index
        assert err.value.best_distance == ref.value.best_distance
        assert (err.value.best_distance >= eps) == (target.r == 1)


def test_delay_search_epsilon_domain():
    target = FrequencyTarget(((1.0, SQRT2),))
    weights = WeightTable.ones(2)
    with pytest.raises(ValueError):
        delay_candidates(target, weights, epsilon=2.0)
    with pytest.raises(ValueError):
        delay_candidates(target, weights, epsilon=0.3, budget=0)
    with pytest.raises(ValueError, match="budget"):
        delay_candidates(target, weights, epsilon=0.3, budget=2.5)


def test_circ_dist_wraps():
    assert circ_dist(0.1, 2 * PI - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert float(circ_dist(PI, 0.0)) == pytest.approx(PI, abs=1e-12)


@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_circ_dist_properties(x, y):
    d = float(circ_dist(x, y))
    assert 0.0 <= d <= PI + 1e-12
    assert d == pytest.approx(float(circ_dist(y, x)), abs=1e-12)
    assert float(circ_dist(x + 2 * PI, y)) == pytest.approx(d, abs=1e-9)


@given(
    st.lists(st.floats(min_value=0.1, max_value=9.0), min_size=1, max_size=4, unique=True)
)
@settings(max_examples=100, deadline=None)
def test_config_and_target_round_trips(omegas):
    from spectra_forge.realization import RealizeConfig

    target = FrequencyTarget((tuple(omegas),))
    assert FrequencyTarget(tuple(tuple(g) for g in target.to_dict()["groups"])) == target
    cfg = RealizeConfig(tol=1e-9, epsilon_schedule=(0.3, 0.1), budget=1000)
    assert RealizeConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_epsilon_outside_quarter_turn():
    # a bad epsilon late in the schedule is refused even though an earlier
    # one would succeed before it is tried
    for schedule in ((0.4, 2.0), (0.0,), (-0.1, 0.3), (0.5 * PI,), (float("nan"),)):
        with pytest.raises(ValueError, match="epsilon"):
            RealizeConfig(epsilon_schedule=schedule)


def test_config_budget_is_a_whole_number_of_grid_points():
    for budget in (2.5, 0, -3, 0.5, float("inf"), True, "100"):
        with pytest.raises(ValueError, match="budget"):
            RealizeConfig(budget=budget)
    cfg = RealizeConfig.from_dict({"budget": 1e7})
    assert cfg.budget == 10_000_000 and type(cfg.budget) is int
    assert RealizeConfig(budget=np.int64(200)).budget == 200


def test_config_tol_is_positive():
    for tol in (0.0, -1e-10, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            RealizeConfig(tol=tol)


def test_config_max_iter_is_a_positive_integer():
    for max_iter in (0, -1, 2.5, None):
        with pytest.raises(ValueError, match="max_iter"):
            RealizeConfig(max_iter=max_iter)
    assert RealizeConfig.from_dict({"max_iter": 7}).max_iter == 7


# ---------------------------------------------------------------------------
# Newton refinement


def test_newton_zero_iterations_at_exact_solution():
    target = FrequencyTarget(((1.0,),))
    res = newton_refine([3 * PI / 2], [1.0], target, tol=1e-10)
    assert res.newton_iterations == 0
    assert res.residual < 1e-12


def test_newton_converges_from_search_candidate():
    target = FrequencyTarget(((1.0, SQRT2),))
    base = base_point(target)
    taus0 = delay_candidates_reference(target.flat, base.target_angles, 0.2, 10_000_000)
    res = newton_refine(taus0, base.amplitudes, target, tol=1e-10)
    assert res.residual < 1e-10
    assert np.all(res.taus > 0)
    factor = result_factors(res, WeightTable.ones(2))[0]
    assert residual_on_targets(factor, [1.0, SQRT2]) < 1e-10


def test_newton_takes_full_steps():
    # plain Newton: the same iterates as an undamped Newton on the complex
    # residual with a central-difference Jacobian, and the same last step
    target = FrequencyTarget(((1.0, SQRT2),))
    base = base_point(target)
    taus0 = delay_candidates_reference(target.flat, base.target_angles, 0.2, 10_000_000)
    x = np.concatenate([taus0, base.amplitudes])
    omega = target.flat

    def real_f(v):
        r = np.exp(-1j * np.multiply.outer(omega, v[:2])) @ v[2:] - 1j * omega
        return np.concatenate([r.real, r.imag])

    def newton_step(v):
        jac = np.column_stack([(real_f(v + e) - real_f(v - e)) / 2e-7 for e in 1e-7 * np.eye(4)])
        return v - np.linalg.solve(jac, real_f(v))

    steps = 0
    while np.abs(real_f(x)).max() >= 1e-10:
        x = newton_step(x)
        steps += 1
    # one more step from the first iterate below tol, kept if it helps
    last = newton_step(x)
    if np.abs(real_f(last)).max() < np.abs(real_f(x)).max():
        x, steps = last, steps + 1
    res = newton_refine(taus0, base.amplitudes, target, tol=1e-10)
    assert res.newton_iterations == steps
    assert np.allclose(np.concatenate([res.taus, res.coeffs]), x, rtol=1e-9, atol=1e-9)


def test_newton_duplicate_delays_singular_jacobian():
    target = FrequencyTarget(((1.0, SQRT2),))
    with pytest.raises(SingularJacobian):
        newton_refine([2.0, 2.0], [1.0, 1.0], target)


def test_newton_without_search_window_records_zeros():
    # the scalar (1, sqrt 2) realization read as two one-frequency factors
    # with unit weights: the paper's base matrix of that table is singular,
    # and Newton, which has already landed, still returns
    res = realize(FrequencyTarget(((1.0, SQRT2),)))
    target, weights = FrequencyTarget(((1.0,), (SQRT2,))), WeightTable(np.ones((2, 2)))
    with pytest.raises(SingularIB):
        base_point(target, weights)
    again = newton_refine(res.taus, res.coeffs, target, weights)
    assert again.residual < 1e-15
    assert again.search_window.tolist() == [0.0, 0.0]


def test_newton_jacobian_matches_finite_differences():
    from spectra_forge.realization import _system

    rng = np.random.default_rng(17)
    for _ in range(25):
        target, weights = random_partition(rng, nmax=5)
        n = target.n
        taus = rng.uniform(0.5, 4.0, size=n)
        coeffs = rng.uniform(-2.0, 2.0, size=n)
        complex_rows, jacobian = _system(target, weights)
        rows, ph = complex_rows(taus, coeffs)
        jac = jacobian(taus, coeffs, ph)

        def real_f(x):
            r, _ = complex_rows(x[:n], x[n:])
            return np.concatenate([r.real, r.imag])

        x0 = np.concatenate([taus, coeffs])
        h = 1e-7
        for col in range(2 * n):
            e = np.zeros(2 * n)
            e[col] = h
            fd = (real_f(x0 + e) - real_f(x0 - e)) / (2 * h)
            denom = 1.0 + np.abs(jac[:, col]).max()
            assert np.abs(jac[:, col] - fd).max() < 1e-6 * denom


# ---------------------------------------------------------------------------
# realize and continuation


def test_realize_single_frequency_closed_form():
    res = realize(FrequencyTarget(((1.0,),)))
    assert res.residual < 1e-12
    assert res.taus == pytest.approx([3 * PI / 2], rel=1e-12)
    assert res.coeffs == pytest.approx([1.0], rel=1e-12)


# float.hex of (taus[0], coeffs[0], residual) for one frequency w; the
# search window is 0.0.  The delay is the closed form 3*pi/2 over the
# scaled frequency, mapped back
SINGLE_FREQUENCY_BITS = {
    0.3: ("0x1.f6a7a2955385ep+3", "0x1.3333333333333p-2", "0x1.fc4ab28be3f3fp-55"),
    0.7: ("0x1.aed8d47ffe72cp+2", "0x1.6666666666666p-1", "0x1.2880e826efa3ap-53"),
    1.0: ("0x1.2d97c7f3321d2p+2", "0x1.0000000000000p+0", "0x1.a79394c9e8a0ap-53"),
    SQRT2: ("0x1.aa844a84c1455p+1", "0x1.6a09e667f3bcdp+0", "0x1.2b8388e82ab21p-52"),
    2.0: ("0x1.2d97c7f3321d2p+1", "0x1.0000000000000p+1", "0x1.a79394c9e8a0ap-52"),
    3.7: ("0x1.460bdf14c08e4p+0", "0x1.d999999999999p+1", "0x1.7d0f93f5abc6fp-49"),
    11.0: ("0x1.b6ae3a1bebcd4p-2", "0x1.6000000000000p+3", "0x1.2335764acfee7p-49"),
}


def test_realize_single_frequency_bits():
    for w, (tau, coeff, residual) in SINGLE_FREQUENCY_BITS.items():
        res = realize(FrequencyTarget(((w,),)))
        assert [x.hex() for x in res.taus.tolist()] == [tau]
        assert [x.hex() for x in res.coeffs.tolist()] == [coeff]
        assert res.residual.hex() == residual
        assert res.search_window.tolist() == [0.0]


def test_realize_three_frequencies():
    target = FrequencyTarget(((1.0, SQRT2, math.sqrt(3.0)),))
    res = realize(target)
    assert res.residual < 1e-9
    assert np.all(res.taus > 0)
    assert np.all(res.coeffs != 0)
    factor = result_factors(res, WeightTable.ones(3))[0]
    for w in (1.0, SQRT2, math.sqrt(3.0)):
        assert abs(residual_on_targets(factor, [w])) < 1e-9
        assert abs(residual_on_targets(factor, [w])) == pytest.approx(
            residual_on_targets(factor, [w])
        )


def test_realize_two_factor_table():
    res = realize(D3_TARGET, D3_WEIGHTS)
    assert res.residual < 1e-9
    f0, f1 = result_factors(res, D3_WEIGHTS)
    assert residual_on_targets(f0, [1.0]) < 1e-9
    assert residual_on_targets(f1, [SQRT2]) < 1e-9


@pytest.mark.parametrize("groups, b", [
    (((1.0,), (SQRT2,)), [[1.0, 1.0], [1.0, 1.0]]),
    (((1.0,), (SQRT2,)), [[1.0, 2.0], [1.0, 2.0]]),
    (((1.0,), (SQRT2,)), [[1.0, -1.0], [-1.0, 1.0]]),
    (((1.0, math.sqrt(3.0)), (SQRT2,)), [[2.0, 1.0, 1.0], [2.0, 1.0, 1.0]]),
])
def test_realize_tables_whose_paper_base_is_singular(groups, b):
    # the paper's base of each table is singular, but for n >= 2 the sweep
    # chooses its own independent base, so the table realizes and verifies
    from spectra_forge.spectrum import verify_realization

    target, weights = FrequencyTarget(groups), WeightTable(np.array(b))
    with pytest.raises(SingularIB):
        base_point(target, weights)
    res = realize(target, weights)
    assert res.residual < 1e-9
    assert verify_realization(res, target, weights).passed


def test_realize_conjugate_roots_come_free():
    target = FrequencyTarget(((1.0, SQRT2),))
    res = realize(target)
    factor = result_factors(res, WeightTable.ones(2))[0]
    from spectra_forge.quasipoly import evaluate

    for w in (1.0, SQRT2):
        assert abs(evaluate(factor, 1j * w)) < 1e-10
        assert abs(evaluate(factor, -1j * w)) < 1e-10


def test_continuation_start_solves_the_shifted_system():
    # at s = 0 the sweep hit and the base amplitudes solve the system whose
    # phases are shifted back by the hit's angular errors d0
    from spectra_forge.realization import _phase_offsets, _system

    rng = np.random.default_rng(12)
    for _ in range(20):
        target, weights = random_partition(rng, nmax=5)
        try:
            base = base_point(target, weights)
        except (SingularIB, ZeroAmplitude):
            continue
        taus0 = np.array(delay_candidates_reference(target.flat, base.target_angles, 0.8,
                                                    10_000_000))
        d0 = _phase_offsets(target.flat, base.target_angles, taus0)
        assert np.all(np.abs(d0) < 0.8)
        rows, _ = _system(target, weights)[0](taus0, base.amplitudes, d0)
        assert np.abs(rows).max() < 1e-12 * (1.0 + np.abs(target.flat).max())


def test_realize_search_window_is_the_start_offset():
    # search_window reads max_i |d0[i, k]| of the first rung's sweep hit,
    # which is that hit's achieved window against the base its orthants
    # name; the first path of (1, .., sqrt 7) lands
    target = FrequencyTarget((PRIME_ROOTS[:5],))
    res = realize(target)
    scaled = target.scaled(1.0 / max(PRIME_ROOTS[:5]))
    signs, taus = orthant_search_reference(scaled.flat, np.ones((5, 5)), 0.8, 10_000_000)
    base = dataclasses.replace(base_point(scaled), sign_matrix=signs,
                               target_angles=np.where(signs > 0, 1.5 * PI, 0.5 * PI))
    windows = achieved_windows(scaled, base, taus)
    assert res.search_window.tolist() == windows.tolist()
    assert np.all(res.search_window < 0.8)


@pytest.mark.parametrize("n, tau_bound", [(7, 80.0), (8, 150.0), (9, 350.0), (10, 550.0),
                                         (11, 1.9e3), (12, 3.2e3), (13, 6.5e3), (14, 400.0)])
def test_realize_frontier_prefixes(n, tau_bound):
    # the sweep's orthants give paths to delays far below those of the
    # paper's index-vector base (2.5e3 to 2.5e4 for n = 7..10, and no
    # realization from n = 14 on); every target verifies
    from spectra_forge.spectrum import verify_realization

    target = FrequencyTarget((PRIME_ROOTS[:n],))
    res = realize(target)
    assert res.residual < 1e-10
    assert np.all(res.taus > 0) and res.taus.max() < tau_bound
    report = verify_realization(res, target, WeightTable.ones(n))
    assert all(t.local_count == 1 and t.residual < 1e-10 for t in report.targets)
    assert report.passed


def test_realize_seven_roots_of_primes():
    # (sqrt 2, .., sqrt 17): a sweep hit at eps = 0.4 led to tau 1.33e5,
    # where verification fails
    from spectra_forge.spectrum import verify_realization

    target = FrequencyTarget((PRIME_ROOTS[1:8],))
    res = realize(target)
    assert res.taus.max() < 2e3
    assert verify_realization(res, target, WeightTable.ones(7)).passed


def test_realize_failure_names_every_rung(monkeypatch):
    # 50 grid points reach tau of about 5: every rung's sweep runs out, and
    # the error keeps the last rung's type and lists all of them.  The
    # sweep at 0.8 finds one orthant, and no other orthant comes nearer
    # than 1.1928 rad, so rung 1.0 is not swept; 1.2 and 1.4 are, and after
    # 1.4 (three orthants, best distance 1.4989) no later rung is
    from spectra_forge import realization

    sweeps = []
    sweep = realization.delay_candidates

    def counted(*args, **kwargs):
        sweeps.append(args[2])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(realization, "delay_candidates", counted)
    cfg = RealizeConfig(budget=50)
    with pytest.raises(SearchExhausted) as err:
        realize(FrequencyTarget((PRIME_ROOTS[:5],)), config=cfg)
    assert sweeps == [0.8, 1.2, 1.4]
    exhausted = "delay search for column {} exhausted its budget (best distance {} rad)"
    skipped = "skipped (no usable grid point nearer than {} rad)"
    assert str(err.value) == "every epsilon rung failed; " + "; ".join([
        "eps 0.8: " + exhausted.format(1, "1.1928"),
        "eps 1.0: " + skipped.format("1.1928"),
        "eps 1.2: " + exhausted.format(2, "1.3333"),
        "eps 1.4: " + exhausted.format(3, "1.4989"),
    ] + [f"eps {eps}: " + skipped.format("1.4989") for eps in (0.4, 0.3, 0.2, 0.1)])
    # each exhaustion as the full scan sees it
    scaled = FrequencyTarget((PRIME_ROOTS[:5],)).scaled(1.0 / PRIME_ROOTS[4])
    for eps, index in ((0.8, 1), (1.2, 2), (1.4, 3)):
        with pytest.raises(SearchExhausted) as ref:
            orthant_search_reference(scaled.flat, np.ones((5, 5)), eps, 50)
        assert ref.value.index == index
    assert (err.value.index, err.value.best_distance) == (ref.value.index, ref.value.best_distance)


def test_realize_path_stall_names_s_steps_and_residual(monkeypatch):
    # a step cap of one stalls every path on its first step, before s = 1:
    # on each rung the sweep's orthants and the retry without the last one
    from spectra_forge import realization

    monkeypatch.setattr(realization, "_PATH_STEPS", 1)
    cfg = RealizeConfig(epsilon_schedule=(0.8, 0.4))
    with pytest.raises(NoConvergence) as err:
        realize(FrequencyTarget((PRIME_ROOTS[:3],)), config=cfg)
    message = str(err.value)
    for eps in cfg.epsilon_schedule:
        assert f"eps {eps}: path stalled (step cap) at s = " in message
        assert f"eps {eps}, last orthant replaced: path stalled (step cap) at s = " in message
    assert message.count("after 1 steps, residual") == 4


def test_realize_diverging_path_ends_early():
    # a random_partition target (seed 5, nmax 5) whose rung-0.8 path lets
    # the amplitudes grow without bound while s creeps towards 1; the path
    # ends as diverged within a few dozen steps, and a later rung realizes
    from spectra_forge.spectrum import verify_realization

    target = FrequencyTarget(((0.729302916406334, 1.8646102214893225),))
    weights = WeightTable(np.array([[-1.2828264162313114, -1.96585511130388]]))
    with pytest.raises(NoConvergence) as err:
        realize(target, weights, RealizeConfig(epsilon_schedule=(0.8,)))
    assert "eps 0.8: path diverged (max |a| " in str(err.value)
    res = realize(target, weights)
    assert verify_realization(res, target, weights).passed


def test_realize_scaling_covariance():
    target = FrequencyTarget(((1.0, SQRT2),))
    res = realize(target)
    for c in (2.0, 1.0 / 3.0):
        scaled = ScalarFactor(
            tuple((c * a, 1.0, t / c) for a, t in zip(res.coeffs, res.taus))
        )
        r = residual_on_targets(scaled, [c, c * SQRT2])
        assert r < 1e-12 + c * res.residual


def test_realize_propagates_zero_weight():
    weights = WeightTable(np.array([[1.0, 0.0], [1.0, -1.0]]))
    with pytest.raises(ZeroWeight):
        realize(D3_TARGET, weights)


def test_realize_rejects_duplicate_frequencies():
    with pytest.raises(ValueError):
        FrequencyTarget(((1.0,), (1.0,)))


def test_continue_same_target_is_fixed_point():
    target = FrequencyTarget(((1.0, SQRT2),))
    res = realize(target)
    again = continue_realization(res, target)
    assert again.newton_iterations == 0
    assert np.array_equal(again.taus, res.taus)
    assert np.array_equal(again.coeffs, res.coeffs)


def test_continue_small_steps():
    target = FrequencyTarget(((1.0, SQRT2, math.sqrt(3.0)),))
    res = realize(target)
    rng = np.random.default_rng(2)
    for _ in range(20):
        bump = rng.choice([-1e-3, 1e-3], size=3)
        new = FrequencyTarget((tuple(np.array(target.flat) + bump),))
        moved = continue_realization(res, new, tol=1e-10)
        assert moved.residual < 1e-10
        assert moved.newton_iterations <= 5


def test_continue_large_step_with_bisection_harness():
    from spectra_forge.errors import NoConvergence

    target = FrequencyTarget(((1.0, SQRT2, math.sqrt(3.0)),))
    res = realize(target)
    start = np.array(target.flat)
    goal = start + np.array([1.5, 0.0, 0.0])

    # tight iteration cap makes the full step fail; the harness bisects
    with pytest.raises(NoConvergence):
        continue_realization(res, FrequencyTarget((tuple(goal),)), tol=1e-10, max_iter=8)

    current, pos, h = res, 0.0, 1.0
    substeps, attempts, bisections = 0, 0, 0
    while pos < 1.0:
        attempts += 1
        assert attempts < 4000 and h > 2.0**-20, "bisection harness stalled"
        frac = min(1.0, pos + h)
        attempt = start + frac * (goal - start)
        try:
            current = continue_realization(
                current, FrequencyTarget((tuple(attempt),)), tol=1e-10, max_iter=8
            )
            pos = frac
            substeps += 1
            h = min(2.0 * h, 1.0)
        except NoConvergence:
            h *= 0.5
            bisections += 1
    assert substeps >= 2 and bisections >= 1
    assert current.residual < 1e-10
    fac = result_factors(current, WeightTable.ones(3))[0]
    assert residual_on_targets(fac, list(goal)) < 1e-10


# ---------------------------------------------------------------------------
# transversality


def test_transversality_two_frequencies_closed_form():
    val = transversality_at_base(FrequencyTarget(((1.0, SQRT2),)))
    assert val == pytest.approx(8 + 6 * SQRT2, rel=1e-12)


def test_transversality_single_frequency_degenerate():
    assert transversality_at_base(FrequencyTarget(((0.7,),))) == 0.7


def test_transversality_matches_direct_blocks_and_never_vanishes():
    rng = np.random.default_rng(31)
    for _ in range(40):
        target, weights = random_partition(rng, nmax=7)
        try:
            closed = transversality_at_base(target, weights)
        except SingularIB:
            continue
        direct = direct_transversality(target, weights)
        assert closed == pytest.approx(direct, rel=1e-9)
        assert closed != 0.0
