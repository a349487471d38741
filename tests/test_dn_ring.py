import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_forge.dn_ring import (
    ConnectionList,
    CouplingProfile,
    Edge,
    RingSpec,
    build_B,
    characteristic_factorization,
    det_B_two_factor,
    detect_even_degeneracy,
    factor_weights,
    realize_ring,
    ring_from_dict,
    singular_selection,
    ring_to_dict,
    ring_weight_table,
    validate_equivariance,
)
from spectra_forge.errors import BadIndex, BadParity, SingularB
from spectra_forge.quasipoly import evaluate_product, residual_on_targets
from spectra_forge.realization import _singular_det
from oracles import (
    circulant_eigenvalues,
    dense_ring_det,
    two_factor_det_mp,
    two_factor_singular_by_congruence,
)

SQRT2 = math.sqrt(2.0)


def symmetric_ring_edges(n, couplings):
    """Bidirectional edges for each (distance -> (delay, tag)) coupling."""
    edges = []
    for i in range(1, n + 1):
        for d, (delay, tag) in couplings.items():
            edges.append(Edge((i - 1 + d) % n + 1, i, delay, tag))
            edges.append(Edge((i - 1 - d) % n + 1, i, delay, tag))
    return edges


def random_ring(rng, n):
    internal = CouplingProfile(
        tuple((rng.uniform(-1, 1), rng.uniform(0, 3)) for _ in range(rng.integers(1, 3)))
    )
    couplings = {}
    for k in range(2, (n + 1) // 2 + 1):
        if rng.random() < 0.85:
            couplings[k] = CouplingProfile(
                tuple((rng.uniform(-1, 1), rng.uniform(0, 3)) for _ in range(rng.integers(1, 3)))
            )
    return RingSpec(n, internal, couplings)


# ---------------------------------------------------------------------------
# equivariance


def test_equivariance_bidirectional_eight_ring_passes():
    conns = ConnectionList(
        8, tuple(symmetric_ring_edges(8, {1: (1.0, "nearest"), 2: (2.5, "next")}))
    )
    report = validate_equivariance(conns)
    assert report.passed


def test_equivariance_perturbed_delay_fails_condition_i():
    edges = symmetric_ring_edges(8, {1: (1.0, "nearest"), 2: (2.5, "next")})
    e = edges[5]
    edges[5] = Edge(e.src, e.dst, e.delay + 0.01, e.tag)
    report = validate_equivariance(ConnectionList(8, tuple(edges)))
    assert not report.passed
    assert report.condition == "(i)"
    assert report.edge is not None


def test_equivariance_one_way_coupling_fails_condition_ii():
    edges = symmetric_ring_edges(6, {1: (1.0, "nearest")})
    # a rotation-invariant but unreciprocated coupling orbit
    edges += [Edge((i - 1 + 2) % 6 + 1, i, 4.0, "oneway") for i in range(1, 7)]
    report = validate_equivariance(ConnectionList(6, tuple(edges)))
    assert not report.passed
    assert report.condition == "(ii)"


def test_equivariance_rejects_bad_cell_index():
    with pytest.raises(ValueError):
        ConnectionList(4, (Edge(5, 1, 1.0, "x"),))


# ---------------------------------------------------------------------------
# factor weights


def test_factor_weights_three_cells():
    assert factor_weights(3, 0).tolist() == [2.0]
    assert factor_weights(3, 1) == pytest.approx([-1.0], abs=1e-15)


def test_factor_weights_four_cells_degenerate_neighbour():
    w = factor_weights(4, 1)
    assert w[0] == 0.0  # exact zero, not rounding noise
    assert w[1] == -1.0


def test_factor_weights_five_cells():
    w = factor_weights(5, 2)
    assert w == pytest.approx([-1.618033988749895, 0.618033988749895], abs=1e-12)


def test_factor_weights_symmetry_j_and_n_minus_j():
    for n in (5, 7, 9):
        for j in range(1, n):
            assert factor_weights(n, j) == pytest.approx(factor_weights(n, n - j), abs=1e-14)


def test_factor_weights_trivial_factor_row():
    for n in (3, 5, 7):
        assert np.all(factor_weights(n, 0) == 2.0)
    assert factor_weights(6, 0).tolist() == [2.0, 2.0, 1.0]


def test_factor_weights_match_dense_spectrum():
    rng = np.random.default_rng(8)
    for n in (3, 4, 5, 6, 7):
        dmax = (n - 1) // 2 if n % 2 else n // 2
        diag = float(rng.uniform(-1, 1))
        vals = {d: float(rng.uniform(-1, 1)) for d in range(1, dmax + 1)}
        eigs = circulant_eigenvalues(n, diag, vals)
        predicted = []
        for j in range(n):
            w = factor_weights(n, j)
            predicted.append(diag + sum(w[k - 2] * vals[k - 1] for k in range(2, len(w) + 2)))
        assert np.sort(np.array(predicted)) == pytest.approx(eigs, abs=1e-12)
        # paired factors appear twice
        for j in range(1, (n - 1) // 2 + 1):
            assert predicted[j] == pytest.approx(predicted[n - j], abs=1e-14)


# ---------------------------------------------------------------------------
# characteristic factorization


def test_factorization_three_cell_structure():
    ring = RingSpec(
        3,
        CouplingProfile(((0.7, 1.3),)),
        {2: CouplingProfile(((-0.4, 0.6),))},
    )
    product = characteristic_factorization(ring)
    assert len(product.factors) == 2
    f0, f1 = product.factors
    assert f0.multiplicity == 1 and f1.multiplicity == 2
    assert [(t.a, t.b, t.tau) for t in f0.terms] == [(0.7, 1.0, 1.3), (-0.4, 2.0, 0.6)]
    assert [(t.a, t.b, t.tau) for t in f1.terms] == [(0.7, 1.0, 1.3), (-0.4, -1.0, 0.6)]


def test_factorization_five_cell_example_shape():
    # two internal delays, three atoms at distance 1, two at distance 2
    ring = RingSpec(
        5,
        CouplingProfile(((0.2, 0.5), (-0.1, 1.5))),
        {
            2: CouplingProfile(((0.3, 0.7), (0.1, 1.1), (-0.2, 2.0))),
            3: CouplingProfile(((0.15, 0.9), (0.05, 1.8))),
        },
    )
    product = characteristic_factorization(ring)
    assert len(product.factors) == 3
    assert [f.multiplicity for f in product.factors] == [1, 2, 2]
    assert all(len(f.terms) == 7 for f in product.factors)


def test_factorization_matches_dense_determinant():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.choice([3, 5, 7]))
        ring = random_ring(rng, n)
        product = characteristic_factorization(ring)
        for _ in range(20):
            lam = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
            dense = dense_ring_det(ring, lam)
            split = evaluate_product(product, lam)
            assert abs(dense - split) <= 1e-10 * max(abs(dense), abs(split))


def test_factorization_even_ring_with_opposite_cell():
    ring = RingSpec(
        4,
        CouplingProfile(((0.5, 1.0),)),
        {2: CouplingProfile(((0.3, 0.8),)), 3: CouplingProfile(((0.2, 1.4),))},
    )
    product = characteristic_factorization(ring)
    assert [f.multiplicity for f in product.factors] == [1, 2, 1]
    rng = np.random.default_rng(4)
    for _ in range(10):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
        dense = dense_ring_det(ring, lam)
        split = evaluate_product(product, lam)
        assert abs(dense - split) <= 1e-10 * max(abs(dense), abs(split))


def test_ring_json_round_trip():
    ring = RingSpec(
        5,
        CouplingProfile(((0.2, 0.5),)),
        {2: CouplingProfile(((0.3, 0.7),)), 3: CouplingProfile(((0.1, 1.8),))},
    )
    assert ring_from_dict(ring_to_dict(ring)) == ring


@pytest.mark.parametrize("data, message", [
    ({"internal": []}, "ring needs 'n'"),
    ({"n": 5, "internal": [{"a": 0.2, "tau": 0.5}, {"a": 0.1}]}, "ring internal term 2 needs 'tau'"),
    ({"n": 5, "couplings": {"2": [{"alpha": 0.3, "s": 0.7}], "3": [{"s": 1.8}]}},
     "ring coupling 3 term 1 needs 'alpha'"),
    ({"n": 5, "couplings": {"2": [{"alpha": 0.3}]}}, "ring coupling 2 term 1 needs 's'"),
])
def test_missing_ring_key_is_named_with_its_block(data, message):
    with pytest.raises(ValueError) as info:
        ring_from_dict(data)
    assert str(info.value) == message


def test_ring_cell_count_is_a_whole_number():
    with pytest.raises(ValueError) as info:
        ring_from_dict({"n": 7.9})
    assert str(info.value) == "ring n must be an integer >= 1, got 7.9"
    assert ring_from_dict({"n": 7.0}).n == 7


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_ring_json_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    ring = random_ring(rng, int(rng.choice([3, 4, 5, 6, 7])))
    assert ring_from_dict(ring_to_dict(ring)) == ring


# ---------------------------------------------------------------------------
# reduced leading-weight matrices


def test_build_B_singular_nine_ring_case():
    mat = build_B(9, (0, 3))
    assert mat.tolist() == [[1.0, 4.0], [1.0, 4.0]]
    assert np.linalg.det(mat) == 0.0


def test_build_B_five_ring_pair():
    mat = build_B(5, (1, 2))
    det = float(np.linalg.det(mat))
    assert det == pytest.approx(-8.944271909999159, abs=1e-9)


def test_build_B_seven_ring_full_selection_nonsingular():
    mat = build_B(7, (0, 1, 2, 3))
    assert abs(np.linalg.det(mat)) > 1e-9


def test_build_B_bad_inputs():
    with pytest.raises(BadParity):
        build_B(4, (0, 1))
    with pytest.raises(BadIndex):
        build_B(9, (3, 0))
    with pytest.raises(BadIndex):
        build_B(9, (0, 7))
    with pytest.raises(BadIndex):
        build_B(9, ())


def test_det_B_two_factor_matches_build_B():
    assert det_B_two_factor(5, 1, 2) == pytest.approx(-8.944271909999159, abs=1e-12)
    # 9, 15 and 21 have index products at n/3, where 4 cos is exactly -2
    for n in (7, 9, 11, 13, 15, 21):
        for i1 in range(1, (n - 1) // 2):
            for i2 in range(i1 + 1, (n - 1) // 2 + 1):
                closed = det_B_two_factor(n, i1, i2)
                lu = float(np.linalg.det(build_B(n, (i1, i2))))
                assert closed == pytest.approx(lu, abs=1e-12)
    # 1 * 5 = 15 / 3 and 5 * 5 = 2 * 15 / 3 (mod 15): three entries are 4 cos(2 pi / 3)
    mat = build_B(15, (1, 5))
    assert mat[0, 0] == pytest.approx(4.0 * math.cos(2.0 * math.pi / 15), abs=1e-15)
    assert [mat[0, 1], mat[1, 0], mat[1, 1]] == [-2.0, -2.0, -2.0]


def test_singular_selection_decides_on_the_factor_weights():
    # the leading-weight matrix built here from factor_weights carries half
    # of build_B's coupling columns; both must give the same decision on
    # every selection of one to three factors
    for n in range(3, 42, 2):
        half = (n - 1) // 2
        for size in (1, 2, 3):
            for idx in itertools.combinations(range(half + 1), size):
                rows = [factor_weights(n, i) for i in idx]
                mat = np.array([[1.0 if q == 0 else row[q - 1] for q in idx] for row in rows])
                assert singular_selection(n, idx) == (_singular_det(mat) is not None), (n, idx)


def test_det_B_two_factor_nonzero_thirteen():
    assert abs(det_B_two_factor(13, 2, 3)) > 1e-8


def test_two_factor_singular_family_on_non_squarefree_sizes():
    # 25 = 5^2: every product among {5, 10} is 0 mod 25, so both selected
    # rows read (4, 4) and the selection is exactly singular; realization
    # with that selection is refused up front
    assert two_factor_singular_by_congruence(25, 5, 10)
    assert two_factor_det_mp(25, 5, 10) < 1e-40
    mat = build_B(25, (5, 10))
    assert mat.tolist() == [[4.0, 4.0], [4.0, 4.0]]
    assert np.linalg.det(mat) == 0.0
    assert det_B_two_factor(25, 5, 10) == 0.0
    with pytest.raises(SingularB):
        realize_ring(
            25, (5, 10), ((1.0,), (SQRT2,)), {"couplings": {6: 1, 11: 1}}
        )


def test_singular_selection_is_the_congruence_rule_on_every_two_factor_pair():
    # the one decision behind realize_ring's SingularB and bmat's verdict,
    # over criterion 7's full sweep (odd n in [5, 101], 63 singular pairs)
    singular = []
    for n in range(5, 102, 2):
        for i1 in range(1, (n - 1) // 2):
            for i2 in range(i1 + 1, (n - 1) // 2 + 1):
                found = singular_selection(n, (i1, i2))
                assert found == two_factor_singular_by_congruence(n, i1, i2), (n, i1, i2)
                if found:
                    singular.append((n, i1, i2))
    assert len(singular) == 63 and singular[0] == (25, 5, 10)
    assert singular_selection(9, (0, 3)) and not singular_selection(7, (0, 1, 2, 3))


def test_det_B_two_factor_bad_indices():
    with pytest.raises(BadIndex):
        det_B_two_factor(9, 2, 2)
    with pytest.raises(BadIndex):
        det_B_two_factor(9, 0, 2)
    # the integer rule of build_B: whole floats are read as ints, others refused
    assert det_B_two_factor(7, 1.0, 2.0) == det_B_two_factor(7, np.int64(1), 2) == det_B_two_factor(7, 1, 2)
    for i1, i2 in ((1.5, 2), (1, 2.5)):
        with pytest.raises(BadIndex, match="must be integers"):
            det_B_two_factor(7, i1, i2)
    for i1, i2 in ((math.nan, 2), (1, math.inf)):
        with pytest.raises(BadIndex):
            det_B_two_factor(7, i1, i2)


# ---------------------------------------------------------------------------
# even-size degeneracy


def test_even_degeneracy_four_cells_exact_list():
    assert detect_even_degeneracy(4) == [(2, 1), (2, 3)]


def test_even_degeneracy_six_cells_empty():
    # 2cos(2pi(k-1)j/6) never vanishes on integer arguments
    assert detect_even_degeneracy(6) == []


def test_even_degeneracy_eight_cells():
    hits = detect_even_degeneracy(8)
    for k, j in hits:
        assert abs(math.cos(2 * math.pi * (k - 1) * j / 8)) < 1e-15
    assert (2, 2) in hits and (2, 6) in hits


def test_even_degeneracy_is_the_zero_factor_weights():
    for n in range(4, 201, 2):
        zeros = [(k, j) for j in range(n)
                 for k, weight in enumerate(factor_weights(n, j), 2) if weight == 0.0]
        assert detect_even_degeneracy(n) == sorted(zeros), n


def test_even_degeneracy_rejects_odd():
    with pytest.raises(BadParity):
        detect_even_degeneracy(5)


# ---------------------------------------------------------------------------
# ring realization


def test_realize_ring_three_cells():
    ring, result = realize_ring(
        3, (0, 1), ((1.0,), (SQRT2,)), {"internal": 1, "couplings": {2: 1}}
    )
    assert result.residual < 1e-9
    assert len(ring.internal.atoms) == 1
    assert len(ring.couplings[2].atoms) == 1
    product = characteristic_factorization(ring)
    assert residual_on_targets(product.factors[0], [1.0]) < 1e-9
    assert residual_on_targets(product.factors[1], [SQRT2]) < 1e-9
    # dense determinant vanishes at all four prescribed points
    for w in (1.0, -1.0, SQRT2, -SQRT2):
        assert abs(dense_ring_det(ring, 1j * w)) < 1e-8


def test_realize_ring_five_cells_coupling_only():
    ring, result = realize_ring(
        5, (1, 2), ((1.0,), (SQRT2,)), {"couplings": {2: 1, 3: 1}}
    )
    assert result.residual < 1e-9
    assert ring.internal.atoms == ()
    product = characteristic_factorization(ring)
    assert residual_on_targets(product.factors[1], [1.0]) < 1e-9
    assert residual_on_targets(product.factors[2], [SQRT2]) < 1e-9
    for w in (1.0, SQRT2):
        assert abs(dense_ring_det(ring, 1j * w)) < 1e-8


def test_ring_weight_table_matches_factor_weights():
    n, idx, layout = 7, (0, 2), {"internal": 1, "couplings": {"2": 1, "3": 1}}
    weights, roles = ring_weight_table(n, idx, (2, 1), layout)
    assert roles == [0, 1, 2]
    for p, i in enumerate(idx):
        expected = [1.0 if d == 0 else factor_weights(n, i)[d - 1] for d in roles]
        assert weights.b[p].tolist() == expected
    with pytest.raises(ValueError):
        ring_weight_table(n, idx, (3,), layout)


def test_realize_ring_singular_selection_refused_before_solving():
    with pytest.raises(SingularB):
        realize_ring(
            9, (0, 3), ((1.0,), (SQRT2,)), {"internal": 1, "couplings": {4: 1}}
        )


def test_realize_ring_layout_validation():
    with pytest.raises(ValueError):
        realize_ring(3, (0, 1), ((1.0,), (SQRT2,)), {"internal": 2})
    with pytest.raises(ValueError):
        realize_ring(3, (0, 1), ((1.0,), (SQRT2,)), {"internal": 1, "couplings": {2: 2}})
    with pytest.raises(BadParity):
        realize_ring(4, (0, 1), ((1.0,), (SQRT2,)), {"internal": 1, "couplings": {2: 1}})


def test_fractional_indices_are_refused():
    # int() would read (0.9, 2.2) as the selection (0, 2)
    layout = {"internal": 1, "couplings": {"3": 1}}
    for call in (lambda idx: build_B(7, idx),
                 lambda idx: ring_weight_table(7, idx, (1, 1), layout),
                 lambda idx: realize_ring(7, idx, ((1.0,), (SQRT2,)), layout)):
        with pytest.raises(BadIndex) as info:
            call([0.9, 2.2])
        assert str(info.value) == "indices [0.9, 2.2] must be integers"
    assert build_B(7, (0.0, 2.0)).tolist() == build_B(7, (0, 2)).tolist()


@pytest.mark.parametrize("index", [math.nan, math.inf, -math.inf, True, False, 2.5])
def test_indices_follow_the_integer_rule_of_counts(index):
    # int() raised a bare ValueError for NaN and OverflowError for inf, and
    # read True as the index 1; a count refuses all of them
    layout = {"internal": 1, "couplings": {"3": 1}}
    for call in (lambda idx: build_B(7, idx),
                 lambda idx: ring_weight_table(7, idx, (1, 1), layout),
                 lambda idx: realize_ring(7, idx, ((1.0,), (SQRT2,)), layout)):
        with pytest.raises(BadIndex) as info:
            call([index, 3])
        assert str(info.value) == f"indices [{index!r}, 3] must be integers"
    with pytest.raises(BadIndex):
        det_B_two_factor(7, index, 3)


@pytest.mark.parametrize("layout, name, value", [
    ({"internal": 1.5, "couplings": {"3": 0.5}}, "layout internal count", 1.5),
    ({"internal": 1, "couplings": {"3": 1.5}}, "layout coupling 3 count", 1.5),
    ({"internal": -1, "couplings": {"3": 3}}, "layout internal count", -1),
])
def test_layout_counts_are_whole_numbers(layout, name, value):
    with pytest.raises(ValueError) as info:
        ring_weight_table(7, (0, 2), (1, 1), layout)
    assert str(info.value) == f"{name} must be an integer >= 0, got {value}"


@pytest.mark.parametrize("key", ["3.0", "two", 2.5, True])
def test_coupling_keys_are_whole_numbers_named_with_their_block(key):
    # int() read "3.0" and "two" as a bare "invalid literal" and cut 2.5 to 2
    with pytest.raises(ValueError) as info:
        ring_weight_table(7, (0, 2), (1, 1), {"internal": 1, "couplings": {key: 1}})
    assert str(info.value) == f"layout coupling key {key!r} is not a whole number"
    with pytest.raises(ValueError) as info:
        ring_from_dict({"n": 7, "couplings": {key: []}})
    assert str(info.value) == f"ring coupling key {key!r} is not a whole number"
    with pytest.raises(ValueError) as info:
        RingSpec(7, CouplingProfile(), {key: CouplingProfile()})
    assert str(info.value) == f"ring coupling key {key!r} is not a whole number"
    # whole numbers in any of their forms keep working
    assert list(ring_from_dict({"n": 7, "couplings": {"3": [], 2.0: [], "+4": []}}).couplings) == [2, 3, 4]


def test_realize_ring_larger_blocks():
    ring, result = realize_ring(
        5,
        (0, 1),
        ((1.0, math.sqrt(3.0)), (SQRT2,)),
        {"internal": 2, "couplings": {2: 1}},
    )
    assert result.residual < 1e-9
    product = characteristic_factorization(ring)
    assert residual_on_targets(product.factors[0], [1.0, math.sqrt(3.0)]) < 1e-9
    assert residual_on_targets(product.factors[1], [SQRT2]) < 1e-9
    for w in (1.0, math.sqrt(3.0), SQRT2):
        assert abs(dense_ring_det(ring, 1j * w)) < 1e-8


def test_realize_ring_three_factor_selection():
    ring, result = realize_ring(
        7,
        (0, 1, 2),
        ((1.0,), (SQRT2,), (math.sqrt(3.0),)),
        {"internal": 1, "couplings": {2: 1, 3: 1}},
    )
    assert result.residual < 1e-9
    product = characteristic_factorization(ring)
    for idx, w in ((0, 1.0), (1, SQRT2), (2, math.sqrt(3.0))):
        assert residual_on_targets(product.factors[idx], [w]) < 1e-9
        assert abs(dense_ring_det(ring, 1j * w)) < 1e-8
