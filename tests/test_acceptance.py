"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines inline; they are also echoed in the terminal summary.
"""
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from spectra_forge.cli import main
from spectra_forge.dn_ring import (
    build_B,
    characteristic_factorization,
    det_B_two_factor,
    detect_even_degeneracy,
    factor_weights,
    realize_ring,
)
from spectra_forge.errors import BoundaryRoot, NoConvergence, SingularB
from spectra_forge.quasipoly import ScalarFactor, evaluate, residual_on_targets
from spectra_forge.realization import (
    FrequencyTarget,
    WeightTable,
    cal_I_B,
    continue_realization,
    det_cal_I_B_lemma,
    realize,
    result_factors,
)
from spectra_forge.spectrum import Region, count_roots, verify_realization
from conftest import record_criterion
from oracles import (
    circulant_eigenvalues,
    dense_ring_det,
    is_squarefree,
    random_partition,
    two_factor_det_mp,
    two_factor_singular_by_congruence,
)

PI = math.pi
SQRT2 = math.sqrt(2.0)
OMEGAS = (1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.sqrt(7.0))

D3_WEIGHTS = WeightTable(np.array([[1.0, 2.0], [1.0, -1.0]]))
D3_TARGET = FrequencyTarget(((1.0,), (SQRT2,)))


@pytest.fixture(scope="module")
def scalar_instances():
    """Realized scalar instances for n = 2..5 with wall-clock times."""
    out = {}
    for n in range(2, 6):
        target = FrequencyTarget((OMEGAS[:n],))
        t0 = time.perf_counter()
        result = realize(target)
        out[n] = (target, result, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def d3_instance():
    return D3_TARGET, realize(D3_TARGET, D3_WEIGHTS)


def test_criterion_01_closed_form_single_frequency():
    t0 = time.perf_counter()
    result = realize(FrequencyTarget(((1.0,),)))
    elapsed = time.perf_counter() - t0
    factor = result_factors(result, WeightTable.ones(1))[0]
    resid = abs(evaluate(factor, 1j))
    branch = ScalarFactor(((1.0, 1.0, 3 * PI / 2),))
    branch_resid = abs(evaluate(branch, 1j))
    ok = resid < 1e-12 and branch_resid < 1e-12 and elapsed < 1.0
    record_criterion(
        1, ok, f"|D(i)| = {resid:.2e}, branch residual {branch_resid:.2e}, {elapsed:.2f}s"
    )
    assert resid < 1e-12
    assert branch_resid < 1e-12
    assert elapsed < 1.0


def test_criterion_02_scalar_prefixes(scalar_instances):
    details = []
    ok = True
    for n, (target, result, elapsed) in scalar_instances.items():
        factor = result_factors(result, WeightTable.ones(n))[0]
        resid = residual_on_targets(factor, list(target.flat))
        counts_ok = True
        # box small enough to isolate one root among neighbours ~2pi/max(tau) apart
        delta = min(
            0.05,
            0.5 * float(np.diff(np.sort(target.flat)).min()),
            0.5 * math.pi / float(result.taus.max()),
        )
        for w in target.flat:
            d = delta
            count = count_roots(factor, Region(-d, d, w - d, w + d))
            while count > 1 and d > delta / 2**12:
                d *= 0.5
                count = count_roots(factor, Region(-d, d, w - d, w + d))
            counts_ok &= count == 1
        inst_ok = (
            resid < 1e-9
            and np.all(result.taus > 0)
            and np.all(result.coeffs != 0)
            and counts_ok
            and elapsed < 60.0
        )
        ok &= inst_ok
        details.append(f"n={n}: {resid:.1e}/{elapsed:.2f}s")
        assert inst_ok
    record_criterion(2, ok, ", ".join(details))


def test_criterion_03_scaling_covariance(scalar_instances):
    worst = -np.inf
    ok = True
    for n, (target, result, _) in scalar_instances.items():
        for c in (2.0, 1.0 / 3.0):
            factor = ScalarFactor(
                tuple((c * a, 1.0, t / c) for a, t in zip(result.coeffs, result.taus))
            )
            resid = residual_on_targets(factor, [c * w for w in target.flat])
            bound = 1e-12 + c * result.residual
            ok &= resid < bound
            worst = max(worst, resid - bound)
            assert resid < bound
    record_criterion(3, ok, f"worst margin {worst:.2e} (negative is good)")


def test_criterion_04_determinant_lemma():
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        target, weights = random_partition(rng, nmax=8)
        lemma = det_cal_I_B_lemma(weights, target)
        lu = float(np.linalg.det(cal_I_B(weights, target)))
        rel = abs(lemma - lu) / max(abs(lu), 1e-300)
        worst = max(worst, rel)
        assert rel < 1e-10
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    record_criterion(4, ok, f"worst rel err {worst:.2e} over 100 instances, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_05_two_factor_split(d3_instance):
    target, result = d3_instance
    f0, f1 = result_factors(result, D3_WEIGHTS)
    resid = max(residual_on_targets(f0, [1.0]), residual_on_targets(f1, [SQRT2]))
    ring, ring_result = realize_ring(
        3, (0, 1), ((1.0,), (SQRT2,)), {"internal": 1, "couplings": {2: 1}}
    )
    dense_worst = max(
        abs(dense_ring_det(ring, 1j * w)) for w in (1.0, -1.0, SQRT2, -SQRT2)
    )
    ok = resid < 1e-9 and ring_result.residual < 1e-9 and dense_worst < 1e-8
    record_criterion(5, ok, f"factor residual {resid:.1e}, dense det at targets {dense_worst:.1e}")
    assert resid < 1e-9
    assert dense_worst < 1e-8


def test_criterion_06_singular_nine_ring(tmp_path):
    mat = build_B(9, (0, 3))
    det = float(np.linalg.det(mat))
    problem = tmp_path / "ring9.json"
    problem.write_text(
        json.dumps(
            {
                "mode": "ring",
                "payload": {
                    "n": 9,
                    "indices": [0, 3],
                    "groups": [[1.0], [SQRT2]],
                    "layout": {"internal": 1, "couplings": {"4": 1}},
                },
            }
        )
    )
    code = main(["ring", "--input", str(problem), "--output", str(tmp_path / "out.json")])
    reply = json.loads((tmp_path / "out.json").read_text())
    ok = det == 0.0 and code == 2 and reply["error"]["type"] == "SingularB"
    record_criterion(6, ok, f"det = {det!r}, ring exit code {code}")
    assert det == 0.0
    assert code == 2
    assert reply["error"]["type"] == "SingularB"


def test_criterion_07_two_factor_sweep(tmp_path):
    # Every two-factor selection over odd n in [5, 101] is handled
    # correctly: it is nonsingular, or it is exactly singular and refused.
    # Universal nonsingularity does not hold: for non-squarefree n the two
    # rows can coincide (first case n = 25 with factors 5, 10, where every
    # index product is 0 mod n and the matrix is [[4, 4], [4, 4]]).  The
    # float classification must have no grey zone, must agree pair for pair
    # with the integer congruence rule and with a 50-digit determinant, and
    # both realize_ring and bmat must refuse each singular pair.
    t0 = time.perf_counter()
    checked = 0
    min_norm_det = np.inf
    worst_match = 0.0
    singular_pairs = []
    congruence_pairs = []
    for n in range(5, 102, 2):
        for i1 in range(1, (n - 1) // 2):
            for i2 in range(i1 + 1, (n - 1) // 2 + 1):
                closed = det_B_two_factor(n, i1, i2)
                mat = build_B(n, (i1, i2))
                lu = float(np.linalg.det(mat))
                worst_match = max(worst_match, abs(closed - lu) / max(1.0, abs(lu)))
                norms = np.linalg.norm(mat, axis=1)
                normalized = abs(lu) / float(norms[0] * norms[1])
                if normalized <= 1e-8:
                    singular_pairs.append((n, i1, i2))
                else:
                    min_norm_det = min(min_norm_det, normalized)
                if two_factor_singular_by_congruence(n, i1, i2):
                    congruence_pairs.append((n, i1, i2))
                checked += 1
    max_mp_det = max((two_factor_det_mp(*pair) for pair in singular_pairs), default=0.0)
    ring_refusals = 0
    bmat_refusals = 0
    out = tmp_path / "bmat.json"
    for n, i1, i2 in singular_pairs:
        try:
            realize_ring(n, (i1, i2), ((1.0,), (SQRT2,)), {"couplings": {i1 + 1: 1, i2 + 1: 1}})
        except SingularB:
            ring_refusals += 1
        main(["bmat", "--n", str(n), "--indices", f"{i1},{i2}", "--output", str(out)])
        bmat_refusals += json.loads(out.read_text())["singular"] is True
    elapsed = time.perf_counter() - t0
    rule_agrees = singular_pairs == congruence_pairs
    non_squarefree = all(not is_squarefree(n) for n, _, _ in singular_pairs)
    ok = (
        worst_match < 1e-10
        and elapsed < 30.0
        and max_mp_det < 1e-40
        and min_norm_det > 1e-8
        and rule_agrees
        and non_squarefree
        and (25, 5, 10) in singular_pairs
        and ring_refusals == bmat_refusals == len(singular_pairs)
    )
    record_criterion(
        7,
        ok,
        f"{checked} pairs, closed-vs-LU {worst_match:.1e}, {elapsed:.1f}s; "
        f"{len(singular_pairs)} exactly singular pairs, first {singular_pairs[:1]}, "
        f"50-digit |det| <= {max_mp_det:.1e}, congruence rule agrees {rule_agrees}, "
        f"refused by realize_ring "
        f"{ring_refusals} and bmat {bmat_refusals}; "
        f"min normalized |det| elsewhere {min_norm_det:.2e}",
    )
    assert worst_match < 1e-10
    assert elapsed < 30.0
    # (a) no grey zone between exactly singular and clearly nonsingular
    assert max_mp_det < 1e-40
    assert min_norm_det > 1e-8
    # (b) the float classification is the integer congruence rule
    assert rule_agrees, set(singular_pairs) ^ set(congruence_pairs)
    # (c) singular selections need a square factor in n
    assert non_squarefree
    assert (25, 5, 10) in singular_pairs
    # (d) every singular selection is refused by the library and the CLI
    assert ring_refusals == len(singular_pairs)
    assert bmat_refusals == len(singular_pairs)


def test_criterion_07_squarefree_restriction_holds():
    """Companion check: restricted to squarefree n the sweep is clean."""
    min_norm_det = np.inf
    for n in range(5, 102, 2):
        if not is_squarefree(n):
            continue
        for i1 in range(1, (n - 1) // 2):
            for i2 in range(i1 + 1, (n - 1) // 2 + 1):
                mat = build_B(n, (i1, i2))
                norms = np.linalg.norm(mat, axis=1)
                min_norm_det = min(
                    min_norm_det, abs(float(np.linalg.det(mat))) / float(norms[0] * norms[1])
                )
    assert min_norm_det > 1e-8


def test_criterion_08_four_ring_degeneracy(tmp_path):
    hits = detect_even_degeneracy(4)
    problem = tmp_path / "ring4.json"
    problem.write_text(
        json.dumps(
            {
                "mode": "ring",
                "payload": {
                    "n": 4,
                    "indices": [0, 1],
                    "groups": [[1.0], [SQRT2]],
                    "layout": {"internal": 1, "couplings": {"2": 1}},
                },
            }
        )
    )
    code = main(["ring", "--input", str(problem), "--output", str(tmp_path / "out.json")])
    ok = hits == [(2, 1), (2, 3)] and code == 3
    record_criterion(8, ok, f"degeneracies {hits}, ring exit code {code}")
    assert hits == [(2, 1), (2, 3)]
    assert code == 3


def test_criterion_09_factorization_oracle():
    rng = np.random.default_rng(99)
    worst_det = 0.0
    from test_dn_ring import random_ring

    for _ in range(50):
        n = int(rng.choice([3, 5, 7]))
        ring = random_ring(rng, n)
        product = characteristic_factorization(ring)
        from spectra_forge.quasipoly import evaluate_product

        for _ in range(20):
            lam = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
            dense = dense_ring_det(ring, lam)
            split = evaluate_product(product, lam)
            rel = abs(dense - split) / max(abs(dense), abs(split), 1e-300)
            worst_det = max(worst_det, rel)
            assert rel < 1e-10

    worst_eig = 0.0
    for n in (3, 5, 7):
        dmax = (n - 1) // 2
        diag = float(rng.uniform(-1, 1))
        vals = {d: float(rng.uniform(-1, 1)) for d in range(1, dmax + 1)}
        eigs = circulant_eigenvalues(n, diag, vals)
        predicted = np.sort(
            np.array(
                [
                    diag + sum(factor_weights(n, j)[k - 2] * vals[k - 1] for k in range(2, dmax + 2))
                    for j in range(n)
                ]
            )
        )
        worst_eig = max(worst_eig, float(np.abs(eigs - predicted).max()))
        assert worst_eig < 1e-12
    ok = worst_det < 1e-10 and worst_eig < 1e-12
    record_criterion(
        9, ok, f"dense-vs-product {worst_det:.1e}, eigen-vs-weights {worst_eig:.1e}"
    )


def test_criterion_10_continuation_openness():
    target = FrequencyTarget((OMEGAS[:3],))
    result = realize(target)
    rng = np.random.default_rng(6)
    worst_iters = 0
    worst_resid = 0.0
    for _ in range(20):
        bump = rng.choice([-1e-3, 1e-3], size=3)
        moved_target = FrequencyTarget((tuple(np.array(target.flat) + bump),))
        moved = continue_realization(result, moved_target, tol=1e-10)
        worst_iters = max(worst_iters, moved.newton_iterations)
        worst_resid = max(worst_resid, moved.residual)
        assert moved.newton_iterations <= 5
        assert moved.residual < 1e-10
    ok = worst_iters <= 5 and worst_resid < 1e-10
    record_criterion(
        10, ok, f"max iterations {worst_iters}, worst residual {worst_resid:.1e} over 20 trials"
    )


def test_criterion_11_argument_principle_suite(scalar_instances, d3_instance):
    from test_spectrum import _boundary_is_safe, random_factor

    rng = np.random.default_rng(55)
    additivity_ok = conjugate_ok = True
    for _ in range(50):
        f = random_factor(rng)
        region = None
        for pad in np.linspace(0.0, 0.37, 12):
            cand = Region(-1.5 - pad, 1.0 + pad, -4.0 - pad, 4.0 + pad)
            if _boundary_is_safe(f, cand):
                region = cand
                break
        assert region is not None
        total = count_roots(f, region)
        for frac in (0.5, 0.53, 0.47, 0.41, 0.59):
            ym = region.im_min + frac * (region.im_max - region.im_min)
            cut = Region(region.re_min, region.re_max, ym - 1e-9, ym + 1e-9)
            if not _boundary_is_safe(f, cut):
                continue
            try:
                low = count_roots(f, Region(region.re_min, region.re_max, region.im_min, ym))
                high = count_roots(f, Region(region.re_min, region.re_max, ym, region.im_max))
            except (BoundaryRoot, NoConvergence):
                continue
            additivity_ok &= low + high == total
            break
        else:
            additivity_ok = False
        for inner in (0.25, 0.29, 0.21, 0.33):
            upper = Region(region.re_min, region.re_max, inner, region.im_max)
            lower = Region(region.re_min, region.re_max, region.im_min, -inner)
            strip = Region(region.re_min, region.re_max, inner - 1e-9, inner + 1e-9)
            mirror = Region(region.re_min, region.re_max, -inner - 1e-9, -inner + 1e-9)
            if not (_boundary_is_safe(f, strip) and _boundary_is_safe(f, mirror)):
                continue
            try:
                conjugate_ok &= count_roots(f, upper) == count_roots(f, lower)
            except (BoundaryRoot, NoConvergence):
                continue
            break
        else:
            conjugate_ok = False

    verified_ok = True
    instances = [
        (FrequencyTarget(((1.0,),)), realize(FrequencyTarget(((1.0,),))), WeightTable.ones(1))
    ]
    for n, (target, result, _) in scalar_instances.items():
        instances.append((target, result, WeightTable.ones(n)))
    d3_target, d3_result = d3_instance
    instances.append((d3_target, d3_result, D3_WEIGHTS))
    for target, result, weights in instances:
        report = verify_realization(result, target, weights, tol=1e-8)
        verified_ok &= report.passed
        bumped = result.taus.copy()
        bumped[0] += 0.1
        tampered = dataclasses.replace(result, taus=bumped)
        verified_ok &= not verify_realization(tampered, target, weights, tol=1e-8).passed

    ok = additivity_ok and conjugate_ok and verified_ok
    record_criterion(
        11,
        ok,
        f"additivity {additivity_ok}, conjugate symmetry {conjugate_ok}, "
        f"verification incl. tampered {verified_ok}",
    )
    assert additivity_ok
    assert conjugate_ok
    assert verified_ok
