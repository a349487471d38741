import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spectra_forge import cli
from spectra_forge.cli import main
from spectra_forge.errors import SpectraForgeError
from spectra_forge.quasipoly import ScalarFactor
from spectra_forge.spectrum import Region, count_roots, locate_roots

SQRT2 = math.sqrt(2.0)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture
def scalar_problem(tmp_path):
    return write_json(
        tmp_path / "scalar.json",
        {"schema": "spectra-forge/1", "mode": "scalar", "payload": {"omegas": [1.0]}},
    )


@pytest.fixture
def multifactor_problem(tmp_path):
    return write_json(
        tmp_path / "multi.json",
        {
            "schema": "spectra-forge/1",
            "mode": "multifactor",
            "payload": {"groups": [[1.0], [SQRT2]], "weights": [[1, 2], [1, -1]]},
        },
    )


def test_realize_scalar_unit_frequency(capsys, scalar_problem):
    code, doc = run(capsys, ["realize", "--input", scalar_problem])
    assert code == 0
    assert doc["schema"] == "spectra-forge/1"
    result = doc["result"]
    assert result["residual"] < 1e-12
    assert result["taus"][0] == pytest.approx(3 * math.pi / 2, rel=1e-12)


def test_realize_multifactor_table(capsys, multifactor_problem):
    code, doc = run(capsys, ["realize", "--input", multifactor_problem])
    assert code == 0
    assert doc["result"]["residual"] < 1e-9


def test_realize_zero_weight_is_input_error(capsys, tmp_path):
    path = write_json(
        tmp_path / "zero.json",
        {
            "mode": "multifactor",
            "payload": {"groups": [[1.0], [SQRT2]], "weights": [[1, 0], [1, -1]]},
        },
    )
    code, doc = run(capsys, ["realize", "--input", path])
    assert code == 1
    assert doc["error"]["type"] == "ZeroWeight"
    assert "(j=1, k=2)" in doc["error"]["message"]


def test_realize_bad_schema(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {"schema": "other/9", "mode": "scalar"})
    code, doc = run(capsys, ["realize", "--input", path])
    assert code == 1


def test_realize_missing_file(capsys, tmp_path):
    code, doc = run(capsys, ["realize", "--input", str(tmp_path / "nope.json")])
    assert code == 1


def test_verify_round_trip(capsys, tmp_path, scalar_problem):
    out_path = tmp_path / "result.json"
    code = main(["realize", "--input", scalar_problem, "--output", str(out_path)])
    assert code == 0
    code, doc = run(
        capsys,
        ["verify", "--result", str(out_path), "--input", scalar_problem, "--tol", "1e-8"],
    )
    assert code == 0
    assert doc["report"]["passed"] is True


def test_verify_tampered_result(capsys, tmp_path, scalar_problem):
    out_path = tmp_path / "result.json"
    main(["realize", "--input", scalar_problem, "--output", str(out_path)])
    doc = json.loads(out_path.read_text())
    doc["result"]["taus"][0] += 0.1
    tampered = write_json(tmp_path / "tampered.json", doc)
    code, report = run(
        capsys, ["verify", "--result", tampered, "--input", scalar_problem, "--tol", "1e-8"]
    )
    assert code == 2
    assert report["report"]["passed"] is False


def test_verify_multifactor_round_trip(capsys, tmp_path, multifactor_problem):
    out_path = tmp_path / "result.json"
    assert main(["realize", "--input", multifactor_problem, "--output", str(out_path)]) == 0
    code, doc = run(
        capsys,
        ["verify", "--result", str(out_path), "--input", multifactor_problem, "--tol", "1e-8"],
    )
    assert code == 0
    assert doc["report"]["passed"] is True


def test_verify_dimension_mismatch(capsys, tmp_path, scalar_problem, multifactor_problem):
    out_path = tmp_path / "result.json"
    main(["realize", "--input", scalar_problem, "--output", str(out_path)])
    code, doc = run(
        capsys, ["verify", "--result", str(out_path), "--input", multifactor_problem]
    )
    assert code == 1


def test_verify_names_near_duplicate_frequencies(capsys, tmp_path):
    # 3 and the next float above it leave no room for an isolation box
    above = math.nextafter(3.0, 4.0)
    problem = write_json(
        tmp_path / "close.json",
        {
            "mode": "multifactor",
            "payload": {"groups": [[1.0, 3.0], [above]], "weights": [[1, 1, 1], [1, -1, 2]]},
        },
    )
    result = write_json(
        tmp_path / "result.json",
        {"taus": [1.0, 2.0, 3.0], "coeffs": [0.1, 0.2, 0.3], "residual": 0.0,
         "newton_iterations": 0},
    )
    code, doc = run(capsys, ["verify", "--result", result, "--input", problem])
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert f"the targets 3.0i and {above!r}i are only 4.44e-16 apart" in doc["error"]["message"]


def test_ring_five_cells(capsys, tmp_path):
    path = write_json(
        tmp_path / "ring5.json",
        {
            "mode": "ring",
            "payload": {
                "n": 5,
                "indices": [1, 2],
                "groups": [[1.0], [SQRT2]],
                "layout": {"couplings": {"2": 1, "3": 1}},
            },
        },
    )
    code, doc = run(capsys, ["ring", "--input", path])
    assert code == 0
    assert doc["result"]["residual"] < 1e-9
    assert doc["ring"]["n"] == 5
    assert set(doc["ring"]["couplings"]) == {"2", "3"}


def test_ring_even_cell_count_refused(capsys, tmp_path):
    path = write_json(
        tmp_path / "ring4.json",
        {
            "mode": "ring",
            "payload": {
                "n": 4,
                "indices": [0, 1],
                "groups": [[1.0], [SQRT2]],
                "layout": {"internal": 1, "couplings": {"2": 1}},
            },
        },
    )
    code, doc = run(capsys, ["ring", "--input", path])
    assert code == 3
    assert [2, 1] in doc["error"]["degeneracies"]
    assert [2, 3] in doc["error"]["degeneracies"]


def test_ring_singular_selection(capsys, tmp_path):
    path = write_json(
        tmp_path / "ring9.json",
        {
            "mode": "ring",
            "payload": {
                "n": 9,
                "indices": [0, 3],
                "groups": [[1.0], [SQRT2]],
                "layout": {"internal": 1, "couplings": {"4": 1}},
            },
        },
    )
    code, doc = run(capsys, ["ring", "--input", path])
    assert code == 2
    assert doc["error"]["type"] == "SingularB"


def test_ring_roundtrip_through_verify(capsys, tmp_path):
    problem = write_json(
        tmp_path / "ring5.json",
        {
            "mode": "ring",
            "payload": {
                "n": 5,
                "indices": [1, 2],
                "groups": [[1.0], [SQRT2]],
                "layout": {"couplings": {"2": 1, "3": 1}},
            },
        },
    )
    out_path = tmp_path / "ring5out.json"
    assert main(["ring", "--input", problem, "--output", str(out_path)]) == 0
    code, doc = run(
        capsys, ["verify", "--result", str(out_path), "--input", problem, "--tol", "1e-8"]
    )
    assert code == 0
    assert doc["report"]["passed"] is True


def test_bmat_singular_case(capsys):
    code, doc = run(capsys, ["bmat", "--n", "9", "--indices", "0,3"])
    assert code == 0
    assert doc["det"] == 0.0
    assert doc["singular"] is True
    assert doc["matrix"] == [[1.0, 4.0], [1.0, 4.0]]


def test_bmat_five_ring_value(capsys):
    code, doc = run(capsys, ["bmat", "--n", "5", "--indices", "1,2", "--convention", "4"])
    assert code == 0
    assert doc["det"] == pytest.approx(-8.944272, abs=1e-6)
    assert doc["singular"] is False


def test_bmat_and_realize_ring_share_one_singularity_test(capsys, monkeypatch):
    # the nonsingular selection (1, 2) of the 5-ring, declared singular by
    # the one test: realize_ring refuses it and bmat reports it singular
    from spectra_forge import dn_ring
    from spectra_forge.errors import SingularB

    asked = []

    def singular(n, indices):
        asked.append((n, tuple(indices)))
        return True

    monkeypatch.setattr(dn_ring, "singular_selection", singular)
    with pytest.raises(SingularB):
        dn_ring.realize_ring(5, (1, 2), ((1.0,), (SQRT2,)), {"couplings": {2: 1, 3: 1}})
    code, doc = run(capsys, ["bmat", "--n", "5", "--indices", "1,2"])
    assert code == 0 and doc["singular"] is True
    assert asked == [(5, (1, 2))] * 2


def test_bmat_even_cell_count_is_input_error(capsys):
    code, doc = run(capsys, ["bmat", "--n", "4", "--indices", "0,1"])
    assert code == 1
    assert doc["error"]["type"] == "BadParity"


def test_spectrum_subcommand(capsys, tmp_path):
    path = write_json(
        tmp_path / "factor.json",
        {"terms": [{"a": 1.0, "b": 1.0, "tau": 3 * math.pi / 2}], "multiplicity": 1},
    )
    code, doc = run(
        capsys,
        ["spectrum", "--input", path, "--re=-0.5,0.5", "--im", "0.5,1.5"],
    )
    assert code == 0
    assert doc["count"] == 1
    assert doc["roots"][0]["im"] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "re, im, max_roots",
    [
        ("-0.5,0.5", "0.7,1.9", 64),  # the root i on the box's axis of symmetry
        ("-1,1", "-8,8", 64),  # a conjugate-symmetric band of roots
        ("-0.5,0.5", "0,2", 64),  # a real root on the bottom edge: BoundaryRoot
        ("-1,1", "-8,8", 2),  # TooManyRoots
    ],
)
def test_spectrum_count_is_the_certified_count(capsys, tmp_path, re, im, max_roots):
    # the output is what count_roots and locate_roots give on their own:
    # the count, the roots, or the error the count raises first
    factor = ScalarFactor(((1.0, 1.0, 3 * math.pi / 2),))
    path = write_json(
        tmp_path / "factor.json",
        {"terms": [{"a": 1.0, "b": 1.0, "tau": 3 * math.pi / 2}], "multiplicity": 1},
    )
    argv = ["spectrum", "--input", path, f"--re={re}", f"--im={im}", "--max-roots", str(max_roots)]
    code, doc = run(capsys, argv)
    region = Region(*(float(v) for v in re.split(",") + im.split(",")))
    try:
        count = count_roots(factor, region)
        roots = locate_roots(factor, region, max_roots=max_roots)
    except SpectraForgeError as exc:
        assert code == 2
        assert doc["error"] == {"type": type(exc).__name__, "message": str(exc)}
        return
    assert code == 0
    assert doc["count"] == count == len(roots)
    assert doc["roots"] == [{"re": z.real, "im": z.imag} for z in roots]


def test_spectrum_overflow_is_numeric_error(capsys, tmp_path):
    # exp(0.5 * 2000) overflows on the left edge of the region
    path = write_json(
        tmp_path / "factor.json",
        {"terms": [{"a": 1.0, "b": 1.0, "tau": 2000.0}], "multiplicity": 1},
    )
    code, doc = run(capsys, ["spectrum", "--input", path, "--re=-0.5,0.5", "--im", "0.5,1.5"])
    assert code == 2
    assert doc["error"]["type"] == "NoConvergence"
    assert "overflowed" in doc["error"]["message"]


def test_unknown_mode_is_input_error(capsys, tmp_path):
    path = write_json(tmp_path / "odd.json", {"mode": "mystery", "payload": {}})
    code, doc = run(capsys, ["realize", "--input", path])
    assert code == 1


def test_spectrum_bad_interval_is_input_error(capsys, tmp_path):
    path = write_json(
        tmp_path / "factor.json",
        {"terms": [{"a": 1.0, "b": 1.0, "tau": 1.0}], "multiplicity": 1},
    )
    code, doc = run(capsys, ["spectrum", "--input", path, "--re=-1", "--im", "0,1"])
    assert code == 1


def test_verify_accepts_bare_result_dict(capsys, tmp_path, scalar_problem):
    out_path = tmp_path / "result.json"
    main(["realize", "--input", scalar_problem, "--output", str(out_path)])
    bare = json.loads(out_path.read_text())["result"]
    bare_path = write_json(tmp_path / "bare.json", bare)
    code, doc = run(
        capsys, ["verify", "--result", bare_path, "--input", scalar_problem, "--tol", "1e-8"]
    )
    assert code == 0


def test_payload_level_solver_keys(capsys, tmp_path):
    path = write_json(
        tmp_path / "flat.json",
        {
            "mode": "scalar",
            "payload": {"omegas": [1.0], "tol": 1e-9, "budget": 12345,
                        "epsilon_schedule": [0.4, 0.2], "max_iter": 7},
        },
    )
    code, doc = run(capsys, ["realize", "--input", path])
    assert code == 0
    assert doc["config"]["tol"] == 1e-9
    assert doc["config"]["budget"] == 12345
    assert doc["config"]["epsilon_schedule"] == [0.4, 0.2]
    assert doc["config"]["max_iter"] == 7


@pytest.mark.parametrize("key, value, word", [
    ("epsilon_schedule", [0.4, 2.0], "epsilon"), ("budget", 2.5, "budget"),
    ("max_iter", 0, "max_iter")])
def test_bad_solver_setting_is_input_error(capsys, tmp_path, key, value, word):
    path = write_json(
        tmp_path / "bad.json",
        {"mode": "scalar", "payload": {"omegas": [1.0, SQRT2]}, "config": {key: value}},
    )
    code, doc = run(capsys, ["realize", "--input", path])
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert word in doc["error"]["message"]


def test_failed_rungs_keep_the_numeric_exit_code(capsys, tmp_path):
    # every rung's sweep runs out within 50 grid points: exit 2, the last
    # rung's error type, and a message that names every rung
    path = write_json(
        tmp_path / "short.json",
        {"mode": "scalar", "payload": {"omegas": [1.0, SQRT2, 3 ** 0.5, 5 ** 0.5]},
         "config": {"budget": 50}},
    )
    code, doc = run(capsys, ["realize", "--input", path])
    assert code == 2
    assert doc["error"]["type"] == "SearchExhausted"
    for eps in (0.8, 1.0, 1.2, 1.4, 0.4, 0.3, 0.2, 0.1):
        assert f"eps {eps}: " in doc["error"]["message"]


def test_output_is_deterministic(tmp_path, scalar_problem):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["realize", "--input", scalar_problem, "--output", str(a)]) == 0
    assert main(["realize", "--input", scalar_problem, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_deterministic_ring_output(tmp_path):
    problem = write_json(
        tmp_path / "ring.json",
        {
            "mode": "ring",
            "payload": {
                "n": 3,
                "indices": [0, 1],
                "groups": [[1.0], [SQRT2]],
                "layout": {"internal": 1, "couplings": {"2": 1}},
            },
        },
    )
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["ring", "--input", problem, "--output", str(a)]) == 0
    assert main(["ring", "--input", problem, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_are_input_errors(capsys, scalar_problem):
    for argv in (
        ["bmat", "--n", "x", "--indices", "1"],
        ["realize", "--input", scalar_problem, "--seed", "3"],
    ):
        code, doc = run(capsys, argv)
        assert code == 1
        assert doc["error"]["type"] == "ValueError"


def test_one_parser_serves_many_calls(capsys, tmp_path, scalar_problem):
    # the parser is built once per process; rebuilding it before every
    # call must give the same exit codes and the same bytes
    factor = write_json(
        tmp_path / "factor.json",
        {"terms": [{"a": 1.0, "b": 1.0, "tau": 3 * math.pi / 2}], "multiplicity": 1},
    )
    result = tmp_path / "result.json"
    calls = (
        ["realize", "--input", scalar_problem, "--output", str(result)],
        ["verify", "--result", str(result), "--input", scalar_problem],
        ["bmat", "--n", "x", "--indices", "1"],
        ["bmat", "--n", "7", "--indices", "1,2"],
        ["spectrum", "--input", factor, "--re=-0.5,0.5", "--im", "0.7,1.9"],
        ["realize", "--input", scalar_problem, "--tol", "1e-9"],
    )

    def outputs(fresh):
        got = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(argv)
            got.append((code, capsys.readouterr().out, result.read_bytes()))
        return got

    reused = outputs(False)
    assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0, 0]
    assert outputs(True) == reused


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["realize", "--help"])
    assert exc.value.code == 0


def test_verify_reads_payload_tol(capsys, tmp_path):
    problem = write_json(
        tmp_path / "flat.json", {"mode": "scalar", "payload": {"omegas": [1.0, SQRT2], "tol": 1e-6}}
    )
    out_path = tmp_path / "result.json"
    assert main(["realize", "--input", problem, "--output", str(out_path)]) == 0
    code, doc = run(capsys, ["verify", "--result", str(out_path), "--input", problem])
    assert code == 0
    assert doc["tol"] == 1e-6


# a result document as written before results dropped the base point and
# the config its unused seed
OLD_RESULT = {
    "config": {"budget": 10000000, "epsilon_schedule": [0.4, 0.3, 0.2, 0.1],
               "max_iter": 50, "seed": 0, "tol": 1e-10},
    "mode": "scalar",
    "result": {
        "base": {
            "amplitudes": [1.2071067811865475, -0.20710678118654757],
            "calIB": [[1.0, 1.0], [1.0, -1.0]],
            "sign_matrix": [[1.0, 1.0], [1.0, -1.0]],
            "target_angles": [[4.71238898038469, 4.71238898038469],
                              [4.71238898038469, 1.5707963267948966]],
        },
        "coeffs": [1.320916261509702, -0.516271897884748],
        "newton_iterations": 5,
        "residual": 4.7594945115928714e-15,
        "search_window": [0.36199605386836176, 0.30622952250074853],
        "taus": [16.925044779984987, 22.47276071357987],
    },
    "schema": "spectra-forge/1",
}


def test_verify_accepts_result_with_base_and_seed(capsys, tmp_path):
    problem = write_json(
        tmp_path / "p.json",
        {"mode": "scalar", "payload": {"omegas": [1.0, SQRT2]}, "config": OLD_RESULT["config"]},
    )
    old = write_json(tmp_path / "old.json", OLD_RESULT)
    code, doc = run(capsys, ["verify", "--result", old, "--input", problem, "--tol", "1e-8"])
    assert code == 0
    assert doc["report"]["passed"] is True


def test_realize_output_has_no_base_or_seed(capsys, scalar_problem):
    code, doc = run(capsys, ["realize", "--input", scalar_problem])
    assert code == 0
    assert "base" not in doc["result"]
    assert "seed" not in doc["config"]


def test_import_loads_only_the_standard_library_and_numpy():
    # every fresh process, the console script included, pays for each
    # import: scipy, mpmath or matplotlib must not come in with the package
    code = (
        "import sys\n"
        "before = {m.split('.')[0] for m in sys.modules}\n"
        "import spectra_forge\n"
        "print(' '.join(sorted({m.split('.')[0] for m in sys.modules} - before)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    loaded = done.stdout.split()
    assert "spectra_forge" in loaded
    foreign = [m for m in loaded if m not in sys.stdlib_module_names | {"numpy", "spectra_forge"}]
    assert foreign == []
