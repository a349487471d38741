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


def run_strict(capsys, argv):
    """run, with NaN and Infinity in the output refused: strict JSON."""
    code = main(argv)

    def not_json(token):
        raise AssertionError(f"{token} is not JSON")

    return code, json.loads(capsys.readouterr().out, parse_constant=not_json)


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


RING5 = {
    "mode": "ring",
    "payload": {
        "n": 5,
        "indices": [1, 2],
        "groups": [[1.0], [SQRT2]],
        "layout": {"couplings": {"2": 1, "3": 1}},
    },
}


def test_ring_five_cells(capsys, tmp_path):
    path = write_json(tmp_path / "ring5.json", RING5)
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


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_even_ring_refusal_names_its_cause(capsys, tmp_path, n):
    # n = 0 (mod 4) has vanishing factor weights and is refused for them;
    # n = 2 (mod 4) has none, so the refusal is its parity, as bmat's is
    path = write_json(
        tmp_path / f"ring{n}.json",
        {
            "mode": "ring",
            "payload": {
                "n": n,
                "indices": [0, 1],
                "groups": [[1.0], [SQRT2]],
                "layout": {"internal": 1, "couplings": {"2": 1}},
            },
        },
    )
    code, doc = run(capsys, ["ring", "--input", path])
    if n % 4:
        assert code == 1
        assert doc["error"]["type"] == "BadParity"
        assert f"cell count {n} must be odd" in doc["error"]["message"]
    else:
        assert code == 3
        assert doc["error"]["type"] == "EvenDegeneracy"
        assert doc["error"]["degeneracies"]


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
    problem = write_json(tmp_path / "ring5.json", RING5)
    out_path = tmp_path / "ring5out.json"
    assert main(["ring", "--input", problem, "--output", str(out_path)]) == 0
    code, doc = run(
        capsys, ["verify", "--result", str(out_path), "--input", problem, "--tol", "1e-8"]
    )
    assert code == 0
    assert doc["report"]["passed"] is True


def test_realize_on_a_ring_file_is_ring(tmp_path):
    problem = write_json(tmp_path / "ring5.json", RING5)
    via_ring = tmp_path / "ring.json"
    via_realize = tmp_path / "realize.json"
    assert main(["ring", "--input", problem, "--output", str(via_ring)]) == 0
    assert main(["realize", "--input", problem, "--output", str(via_realize)]) == 0
    assert via_realize.read_bytes() == via_ring.read_bytes()
    assert set(json.loads(via_realize.read_text())) == {"schema", "mode", "config", "ring", "result"}


@pytest.mark.parametrize("n, indices, layout, code, error", [
    (4, [0, 1], {"internal": 1, "couplings": {"2": 1}}, 3, "EvenDegeneracy"),
    (8, [0, 1], {"internal": 1, "couplings": {"2": 1}}, 3, "EvenDegeneracy"),
    (6, [0, 1], {"internal": 1, "couplings": {"2": 1}}, 1, "BadParity"),
    (9, [0, 3], {"internal": 1, "couplings": {"4": 1}}, 2, "SingularB"),
])
def test_realize_refuses_what_ring_refuses(capsys, tmp_path, n, indices, layout, code, error):
    path = write_json(
        tmp_path / f"ring{n}.json",
        {"mode": "ring",
         "payload": {"n": n, "indices": indices, "groups": [[1.0], [SQRT2]], "layout": layout}},
    )
    got, doc = run(capsys, ["realize", "--input", path])
    assert got == code
    assert doc["error"]["type"] == error
    assert run(capsys, ["ring", "--input", path]) == (got, doc)


def test_every_error_class_belongs_to_one_family():
    from spectra_forge import errors

    families = (errors.InputError, errors.NumericFailure)
    concrete = [cls for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, errors.SpectraForgeError)
                and cls not in families + (errors.SpectraForgeError,)]
    for cls in concrete:
        assert sum(issubclass(cls, family) for family in families) == 1, cls.__name__
    assert {cls.__name__ for cls in concrete if issubclass(cls, errors.InputError)} == {
        "ZeroWeight", "BadIndex", "BadParity"}


@pytest.mark.parametrize("family, code", [("InputError", 1), ("NumericFailure", 2)])
def test_exit_code_follows_the_error_family(capsys, monkeypatch, family, code):
    # a class the CLI has never heard of exits by its family, with its own name
    from spectra_forge import errors

    late = type("LateError", (getattr(errors, family),), {})

    def raise_late(args):
        raise late("raised by a class declared after the CLI")

    monkeypatch.setitem(cli._COMMANDS, "bmat", raise_late)
    got, doc = run(capsys, ["bmat", "--n", "7", "--indices", "1,2"])
    assert got == code
    assert doc["error"] == {"type": "LateError", "message": "raised by a class declared after the CLI"}


@pytest.mark.parametrize("taus, coeffs, message", [
    ([1.0], [math.nan], "result coefficient 1 is nan"),
    ([math.nan], [1.0], "result delay 1 is nan"),
    ([math.inf], [1.0], "result delay 1 is inf"),
])
def test_verify_names_a_non_finite_result_entry(capsys, tmp_path, scalar_problem, taus, coeffs,
                                                message):
    result = write_json(
        tmp_path / "result.json",
        {"taus": taus, "coeffs": coeffs, "residual": 0.0, "newton_iterations": 0},
    )
    code, doc = run(capsys, ["verify", "--result", result, "--input", scalar_problem])
    assert code == 1
    assert doc["error"] == {"type": "ValueError", "message": message}


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


MULTI2 = {"mode": "multifactor",
          "payload": {"groups": [[1.0], [SQRT2]], "weights": [[1, 2], [1, -1]]}}
RESULT1 = {"taus": [1.5 * math.pi], "coeffs": [1.0], "residual": 0.0, "newton_iterations": 0}


@pytest.mark.parametrize("command, problem, result, message", [
    ("ring", {**RING5, "payload": _without(RING5["payload"], "indices")}, None,
     "problem payload needs 'indices'"),
    ("realize", {**MULTI2, "payload": _without(MULTI2["payload"], "weights")}, None,
     "problem payload needs 'weights'"),
    ("verify", {"mode": "scalar", "payload": {"omegas": [1.0]}}, _without(RESULT1, "taus"),
     "result needs 'taus'"),
])
def test_missing_key_is_named_with_its_block(capsys, tmp_path, command, problem, result, message):
    # the key and the block it belongs in, not a bare KeyError of the key
    argv = [command, "--input", write_json(tmp_path / "problem.json", problem)]
    if result is not None:
        argv += ["--result", write_json(tmp_path / "result.json", result)]
    code, doc = run(capsys, argv)
    assert code == 1
    assert doc["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("doc, message", [
    ({"multiplicity": 1}, "factor needs 'terms'"),
    ({"terms": [{"a": 1.0, "tau": 1.0}], "multiplicity": 1}, "factor term 1 needs 'b'"),
    ({"factor": {"terms": [{"a": 1.0, "b": 1.0, "tau": 1.0}, {"a": 0.5, "b": 1.0}]}},
     "factor term 2 needs 'tau'"),
])
def test_spectrum_missing_factor_key_is_named(capsys, tmp_path, doc, message):
    path = write_json(tmp_path / "factor.json", doc)
    code, out = run(capsys, ["spectrum", "--input", path, "--re=-1,1", "--im", "0,2"])
    assert code == 1
    assert out["error"] == {"type": "ValueError", "message": message}


def test_bmat_singular_case(capsys):
    code, doc = run(capsys, ["bmat", "--n", "9", "--indices", "0,3"])
    assert code == 0
    assert doc["det"] == 0.0
    assert doc["singular"] is True
    assert doc["matrix"] == [[1.0, 4.0], [1.0, 4.0]]


def test_bmat_five_ring_value(capsys):
    code, doc = run(capsys, ["bmat", "--n", "5", "--indices", "1,2"])
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


@pytest.mark.parametrize("convention", ["nan", "inf", "0", "4"])
def test_bmat_bad_convention_is_input_error(capsys, convention):
    # bmat prints the one matrix the paper prints: --convention is no flag
    # of it, whatever its value, and the error is strict JSON
    code = main(["bmat", "--n", "7", "--indices", "1,2", "--convention", convention])
    out = capsys.readouterr().out

    def not_json(token):
        raise AssertionError(f"{token} is not JSON")

    doc = json.loads(out, parse_constant=not_json)
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert "unrecognized arguments: --convention" in doc["error"]["message"]


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
        ("-1e300,1e300", "0,1e-300", 64),  # a width over height that overflows
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


def test_spectrum_rounding_floor_overflow_is_numeric_error(capsys, tmp_path):
    # |D| is finite near i but its rounding floor is not: refused at the
    # first nodes, not after bisecting every segment to the resolution
    path = write_json(
        tmp_path / "factor.json",
        {"terms": [{"a": 2.496, "b": 1.0, "tau": 84.96}, {"a": 1.5e308, "b": 1.0, "tau": 1.0}],
         "multiplicity": 1},
    )
    code, doc = run(capsys, ["spectrum", "--input", path, "--re=-0.01,0.01", "--im", "0.99,1.01"])
    assert code == 2
    assert doc["error"] == {"type": "NoConvergence",
                            "message": "rounding floor of D overflowed on the contour"}


RING7 = {"n": 7, "indices": [0, 2], "groups": [[1.0], [SQRT2]],
         "layout": {"internal": 1, "couplings": {"3": 1}}}


@pytest.mark.parametrize("change, message", [
    ({"n": 7.9}, "ring n must be an integer >= 1, got 7.9"),
    ({"indices": [0.9, 2.2]}, "indices [0.9, 2.2] must be integers"),
    ({"layout": {"internal": 1.5, "couplings": {"3": 0.5}}},
     "layout internal count must be an integer >= 0, got 1.5"),
])
def test_fractional_ring_counts_are_input_errors(capsys, tmp_path, change, message):
    # int() would realize a 7-cell ring, the selection (0, 2), one internal delay
    path = write_json(tmp_path / "ring.json", {"mode": "ring", "payload": {**RING7, **change}})
    for command in ("ring", "realize"):
        code, doc = run(capsys, [command, "--input", path])
        assert code == 1
        assert doc["error"]["message"] == message


@pytest.mark.parametrize("index, shown", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (True, "True"),
])
def test_ring_indices_that_are_not_integers_are_bad_index(capsys, tmp_path, index, shown):
    # json writes NaN, Infinity and -Infinity, which json.load reads back;
    # Infinity made the ring command print a traceback and no JSON
    path = write_json(tmp_path / "ring.json", {"mode": "ring", "payload": {**RING7, "indices": [index, 2]}})
    for command in ("ring", "realize"):
        code, doc = run_strict(capsys, [command, "--input", path])
        assert code == 1
        assert doc["error"] == {"type": "BadIndex", "message": f"indices [{shown}, 2] must be integers"}


@pytest.mark.parametrize("key", ["3.0", "two"])
def test_ring_coupling_keys_are_named_input_errors(capsys, tmp_path, key):
    # int() reported these as a bare "invalid literal for int()"
    payload = {**RING7, "layout": {"internal": 1, "couplings": {key: 1}}}
    path = write_json(tmp_path / "ring.json", {"mode": "ring", "payload": payload})
    for command in ("ring", "realize"):
        code, doc = run(capsys, [command, "--input", path])
        assert code == 1
        assert doc["error"] == {"type": "ValueError",
                                "message": f"layout coupling key {key!r} is not a whole number"}


def test_fractional_counts_in_factor_and_result_files_are_input_errors(capsys, tmp_path,
                                                                        scalar_problem):
    factor = write_json(
        tmp_path / "factor.json",
        {"terms": [{"a": 1.0, "b": 1.0, "tau": 3 * math.pi / 2}], "multiplicity": 2.7},
    )
    code, doc = run(capsys, ["spectrum", "--input", factor, "--re=-0.5,0.5", "--im", "0.5,1.5"])
    assert code == 1
    assert doc["error"]["message"] == "multiplicity must be an integer >= 1, got 2.7"
    result = write_json(
        tmp_path / "result.json",
        {"taus": [1.5 * math.pi], "coeffs": [1.0], "residual": 0.0, "newton_iterations": 2.5},
    )
    code, doc = run(capsys, ["verify", "--result", result, "--input", scalar_problem])
    assert code == 1
    assert doc["error"]["message"] == "newton_iterations must be an integer >= 0, got 2.5"


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


@pytest.mark.parametrize(
    "re, im", [("-inf,inf", "0,1"), ("-1,1", "-inf,1"), ("-1,inf", "0,1"), ("-1e308,1e308", "0,1")]
)
def test_spectrum_non_finite_regions_are_input_error(capsys, tmp_path, re, im):
    # an infinite side, or a width that overflows, can be neither cut
    # into a grid nor certified: the region is refused as input
    path = write_json(
        tmp_path / "factor.json",
        {"terms": [{"a": 1.0, "b": 1.0, "tau": 3 * math.pi / 2}], "multiplicity": 1},
    )
    code, doc = run(capsys, ["spectrum", "--input", path, f"--re={re}", f"--im={im}"])
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert "finite" in doc["error"]["message"]
    with pytest.raises(ValueError, match="finite"):
        Region(*(float(v) for v in re.split(",") + im.split(",")))


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


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0"])
def test_tolerance_that_is_not_positive_and_finite_is_input_error(capsys, tmp_path, scalar_problem, tol):
    # with --tol inf, realize skipped the landing Newton and exited 0, and
    # verify passed a result with a moved delay; both wrote "tol": Infinity
    result = tmp_path / "result.json"
    assert main(["realize", "--input", scalar_problem, "--output", str(result)]) == 0
    capsys.readouterr()
    flat = write_json(tmp_path / "flat.json", {"mode": "scalar", "payload": {"omegas": [1.0], "tol": float(tol)}})
    for argv in (["realize", "--input", scalar_problem, f"--tol={tol}"],
                 ["verify", "--result", str(result), "--input", scalar_problem, f"--tol={tol}"],
                 ["realize", "--input", flat],
                 ["verify", "--result", str(result), "--input", flat]):
        code, doc = run_strict(capsys, argv)
        assert code == 1
        assert doc["error"]["type"] == "ValueError"
        assert doc["error"]["message"].startswith("tol must be positive and finite")


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
