import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_forge.quasipoly import (
    CharProduct,
    ScalarFactor,
    evaluate,
    evaluate_derivative,
    evaluate_derivative_many,
    evaluate_many,
    evaluate_product,
    factor_from_dict,
    factor_to_dict,
    residual_on_targets,
)
from spectra_forge.quasipoly import _term_sums
from oracles import eval_factor_fsum, eval_factor_mp

PI = math.pi

coef = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
delay = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
terms_strategy = st.lists(st.tuples(coef, coef, delay), min_size=1, max_size=4)


def test_evaluate_single_term_at_zero():
    f = ScalarFactor(((1.0, 1.0, 1.0),))
    assert evaluate(f, 0.0) == -1.0


def test_evaluate_constructed_root():
    f = ScalarFactor(((1.0, 1.0, 3 * PI / 2),))
    assert abs(evaluate(f, 1j)) < 1e-15


def test_evaluate_two_term_frozen_value():
    # frozen from the 50-digit oracle
    f = ScalarFactor(((1.0, 2.0, 0.7), (-0.3, 1.0, 1.1)))
    lam = 0.2 + 0.5j
    expected = -1.2280527216425536281 + 0.97036216762164991357j
    got = evaluate(f, lam)
    assert abs(got - expected) < 1e-14
    assert abs(eval_factor_mp([(1.0, 2.0, 0.7), (-0.3, 1.0, 1.1)], lam) - expected) < 5e-16
    assert abs(eval_factor_fsum([(1.0, 2.0, 0.7), (-0.3, 1.0, 1.1)], lam) - expected) < 1e-15


def test_derivative_single_term_at_zero():
    f = ScalarFactor(((1.0, 1.0, 1.0),))
    assert evaluate_derivative(f, 0.0) == 2.0


def test_derivative_delay_free_is_one():
    f = ScalarFactor(((2.0, -1.5, 0.0), (0.3, 1.0, 0.0)))
    for lam in (0.0, 1.0 + 2.0j, -3.0j):
        assert evaluate_derivative(f, lam) == 1.0


def test_derivative_matches_finite_difference_bulk():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        terms = [
            (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 3))
            for _ in range(k)
        ]
        f = ScalarFactor(tuple(terms))
        lam = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
        fd = (evaluate(f, lam + h) - evaluate(f, lam - h)) / (2 * h)
        an = evaluate_derivative(f, lam)
        assert abs(an - fd) < 1e-6 * (1.0 + abs(an))


@given(terms_strategy, st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=150, deadline=None)
def test_conjugate_symmetry(terms, lam):
    f = ScalarFactor(tuple(terms))
    lhs = evaluate(f, lam.conjugate())
    rhs = evaluate(f, lam).conjugate()
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_product_single_factor_reduces_to_evaluate():
    f = ScalarFactor(((0.5, 1.0, 0.3),))
    p = CharProduct((f,))
    lam = 0.4 - 0.2j
    assert evaluate_product(p, lam) == evaluate(f, lam)


def test_product_zero_factor_wins():
    root_factor = ScalarFactor(((1.0, 1.0, 3 * PI / 2),), multiplicity=3)
    other = ScalarFactor(((0.2, 1.0, 1.0),))
    p = CharProduct((root_factor, other))
    assert abs(evaluate_product(p, 1j)) < 1e-40


def test_product_matches_explicit_three_cell_determinant():
    # factored form D0 * D1^2 against the dense 3x3 circulant determinant
    a1, tau1, a2, tau2 = 0.7, 1.3, -0.4, 0.6
    d0 = ScalarFactor(((a1, 1.0, tau1), (a2, 2.0, tau2)))
    d1 = ScalarFactor(((a1, 1.0, tau1), (a2, -1.0, tau2)), multiplicity=2)
    p = CharProduct((d0, d1))
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
        alpha = lam - a1 * cmath.exp(-lam * tau1)
        beta = -a2 * cmath.exp(-lam * tau2)
        dense = np.array(
            [[alpha, beta, beta], [beta, alpha, beta], [beta, beta, alpha]]
        )
        det = complex(np.linalg.det(dense))
        prod = evaluate_product(p, lam)
        assert abs(det - prod) < 1e-10 * max(abs(det), 1.0)


def test_residual_exact_root_is_zero():
    f = ScalarFactor(((1.0, 1.0, 3 * PI / 2),))
    assert residual_on_targets(f, [1.0]) < 1e-15


def test_residual_frozen_value():
    # |i - exp(-i)| = sqrt(2 + 2*sin 1), frozen from the high-precision oracle
    f = ScalarFactor(((1.0, 1.0, 1.0),))
    assert residual_on_targets(f, [1.0]) == pytest.approx(1.919099259969580889, abs=1e-14)


def test_residual_zero_coefficients():
    f = ScalarFactor(((0.0, 1.0, 1.0),))
    assert residual_on_targets(f, [2.0]) == 2.0


def test_residual_requires_targets():
    f = ScalarFactor(((1.0, 1.0, 1.0),))
    with pytest.raises(ValueError):
        residual_on_targets(f, [])


def test_vectorized_matches_scalar():
    f = ScalarFactor(((1.0, 2.0, 0.7), (-0.3, 1.0, 1.1)))
    pts = np.array([0.2 + 0.5j, -1.0j, 3.0, 0.0])
    vals = evaluate_many(f, pts)
    ders = evaluate_derivative_many(f, pts)
    for z, v, d in zip(pts, vals, ders):
        assert abs(v - evaluate(f, complex(z))) < 1e-14
        assert abs(d - evaluate_derivative(f, complex(z))) < 1e-14


def _layouts(f, points, i, j):
    """f at points[i] alone, in a pair, in a sub-batch, and inside the
    whole batch reshaped to two rows; f maps an array of points (or of
    table rows) to one value per point, after any leading axis of its
    own."""
    alone = f(points[i])
    pair = f(points[[j, i]])[..., 1]
    lo, hi = min(i, j), max(i, j) + 1
    sub = f(points[lo:hi])[..., i - lo]
    half = len(points) // 2
    reshaped = f(points.reshape((2, half) + points.shape[1:]))[..., i // half, i % half]
    return alone, pair, sub, reshaped


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


@st.composite
def batch_cases(draw):
    m = draw(st.integers(min_value=0, max_value=12))
    terms = draw(st.lists(st.tuples(coef, coef, st.floats(0.0, 60.0)), min_size=m, max_size=m))
    size = 2 * draw(st.integers(min_value=1, max_value=20))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    i, j = (int(k) for k in rng.integers(size, size=2))
    return ScalarFactor(tuple(terms)), rng, size, i, j


@given(batch_cases())
@settings(max_examples=150, deadline=None)
def test_term_sums_do_not_depend_on_the_batch(case):
    # a point's D, D' and bound sums have the same bits alone, in a pair,
    # in a sub-batch and reshaped; a matrix product over the term axis
    # rounds a lone row differently from the same row inside a batch
    factor, rng, size, i, j = case
    m = len(factor.terms)
    z = rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-30.0, 30.0, size)
    for f in (evaluate_many, evaluate_derivative_many):
        batch = f(factor, z)
        for value in _layouts(lambda pts: f(factor, pts), z, i, j):
            assert _bits(value) == _bits(batch[i])
    # real tables with stacked weight rows, as the certificate's bounds use
    table = np.exp(-np.multiply.outer(rng.uniform(-1.0, 1.0, size), rng.uniform(0.0, 60.0, m)))
    weights = rng.uniform(0.0, 3.0, (3, m)) * rng.uniform(0.0, 60.0, m) ** np.arange(3)[:, None]
    batch = _term_sums(table, weights)
    for value in _layouts(lambda rows: _term_sums(rows, weights), table, i, j):
        assert _bits(value) == _bits(batch[:, i])
    for row in range(3):
        assert _bits(_term_sums(table, weights[row : row + 1])[0]) == _bits(batch[row])
    # the weight rows of several factors stacked over one table, as the
    # certifier stacks the factors that share delays: each row has the
    # bits it has alone, and in any batch of nodes
    taus = np.array([t.tau for t in factor.terms])
    ab = np.array([t.a * t.b for t in factor.terms]) * rng.uniform(-2.0, 2.0, (3, m))
    ab[1, : m // 2] = 0.0
    for table, weights in (
        (np.exp(-np.multiply.outer(z, taus)), np.concatenate((ab, ab * taus))),
        (table, np.concatenate((np.abs(ab), np.abs(ab) * taus, np.abs(ab) * taus**2))),
    ):
        batch = _term_sums(table, weights)
        for row in range(len(weights)):
            for part, at in ((weights[row : row + 1], 0), (weights[: row + 1], row),
                             (weights[row:], 0), (weights[[row, 0]], 0)):
                assert _bits(_term_sums(table, part)[at]) == _bits(batch[row])
        for value in _layouts(lambda rows: _term_sums(rows, weights), table, i, j):
            assert _bits(value) == _bits(batch[:, i])


def test_factor_validation():
    with pytest.raises(ValueError):
        ScalarFactor(((1.0, 1.0, -0.1),))
    with pytest.raises(ValueError):
        ScalarFactor(((1.0, 1.0, 1.0),), multiplicity=0)
    with pytest.raises(ValueError):
        CharProduct(())


def test_multiplicity_is_a_whole_number():
    # int() would read 2.7 as 2
    term = {"a": 1.0, "b": 1.0, "tau": 1.0}
    with pytest.raises(ValueError) as info:
        factor_from_dict({"terms": [term], "multiplicity": 2.7})
    assert str(info.value) == "multiplicity must be an integer >= 1, got 2.7"
    with pytest.raises(ValueError, match="got 2.7"):
        ScalarFactor(((1.0, 1.0, 1.0),), multiplicity=2.7)
    assert factor_from_dict({"terms": [term], "multiplicity": 2.0}).multiplicity == 2


def test_zero_weight_is_representable():
    f = ScalarFactor(((1.0, 0.0, 1.0),))
    assert evaluate(f, 0.5) == 0.5


@given(terms_strategy, st.integers(min_value=1, max_value=3))
@settings(max_examples=100, deadline=None)
def test_json_round_trip(terms, mult):
    f = ScalarFactor(tuple(terms), multiplicity=mult)
    again = factor_from_dict(json.loads(json.dumps(factor_to_dict(f))))
    assert again == f


@pytest.mark.parametrize("data, message", [
    ({"multiplicity": 1}, "factor needs 'terms'"),
    ({"terms": [{"a": 1.0, "tau": 1.0}]}, "factor term 1 needs 'b'"),
    ({"terms": [{"b": 1.0, "tau": 1.0}]}, "factor term 1 needs 'a'"),
    ({"terms": [{"a": 1.0, "b": 1.0, "tau": 1.0}, {"a": 1.0, "b": 1.0}]}, "factor term 2 needs 'tau'"),
])
def test_missing_factor_key_is_named_with_its_block(data, message):
    with pytest.raises(ValueError) as info:
        factor_from_dict(data)
    assert str(info.value) == message
