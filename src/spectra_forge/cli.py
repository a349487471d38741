"""Command-line front end.

Subcommands: realize, ring, verify, bmat, spectrum.  ``realize`` on a ring
problem is ``ring``.  Every command reads JSON, writes one JSON document
(stdout by default), and exits with

    0   success
    1   input problem: an ``errors.InputError`` (zero weight, bad index,
        bad parity) or bad usage, an unreadable file, a bad schema or
        value (ValueError, KeyError, TypeError, OSError)
    2   numeric failure: an ``errors.NumericFailure`` (no convergence,
        singular system, refused selection), or a failed check
    3   theory-precondition refusal (even-cell ring with vanishing factor
        weights)

Identical inputs produce byte-identical output; all tolerances and budgets
come from the problem file's "config" block unless overridden by flags.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import dn_ring, realization, spectrum
from .errors import InputError, NumericFailure
from .quasipoly import _count, _needs, factor_from_dict
from .realization import FrequencyTarget, RealizationResult, RealizeConfig, WeightTable

SCHEMA = "spectra-forge/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_REFUSED = 3


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the code reserved for numeric
    # failures; raising instead routes it through the input-error path
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


class _Refusal(Exception):
    def __init__(self, payload: dict):
        self.payload = payload


def _dump(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _load(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    schema = data.get("schema")
    if schema is not None and schema != SCHEMA:
        raise ValueError(f"{path}: unsupported schema {schema!r}, expected {SCHEMA!r}")
    return data


def _error_payload(exc: Exception) -> dict:
    return {"schema": SCHEMA, "error": {"type": type(exc).__name__, "message": str(exc)}}


def _config_from(problem: dict, args) -> RealizeConfig:
    # solver keys may sit inside the payload (flat form), in the config
    # block, or on the command line; later sources win, and
    # RealizeConfig.from_dict picks its keys out of the rest
    payload = problem.get("payload")
    merged = dict(payload) if isinstance(payload, dict) else {}
    merged.update(problem.get("config") or {})
    if args.tol is not None:
        merged["tol"] = args.tol
    return RealizeConfig.from_dict(merged)


def _payload(problem: dict, *keys: str) -> tuple:
    """(payload, the value of each key); a missing key is a ValueError
    that names it."""
    payload = problem.get("payload")
    if not isinstance(payload, dict):
        raise ValueError("problem file needs a 'payload' object")
    return (payload, *_needs(payload, "problem payload", *keys))


def _ring_payload(problem: dict) -> tuple[int, list, list, dict]:
    """(n, indices, groups, layout) of a ring problem."""
    payload, n, indices, groups = _payload(problem, "n", "indices", "groups")
    return _count(n, "ring n"), indices, groups, payload.get("layout") or {}


def _problem_target_weights(problem: dict) -> tuple[FrequencyTarget, WeightTable]:
    """(target, weights) for a scalar/multifactor/ring problem."""
    mode = problem.get("mode")
    if mode == "ring":
        n, indices, groups, layout = _ring_payload(problem)
        target = FrequencyTarget(tuple(tuple(g) for g in groups))
        return target, dn_ring.ring_weight_table(n, indices, target.sizes, layout)[0]
    if mode == "scalar":
        _, omegas = _payload(problem, "omegas")
        target = FrequencyTarget((tuple(omegas),))
        return target, WeightTable.ones(target.n)
    if mode != "multifactor":
        raise ValueError(f"unknown problem mode {mode!r}; expected scalar, multifactor, or ring")
    _, groups, weights = _payload(problem, "groups", "weights")
    target = FrequencyTarget(tuple(tuple(g) for g in groups))
    return target, WeightTable(np.array(weights, dtype=float))


# ---------------------------------------------------------------------------
# Subcommands


def _realize_ring(problem: dict, args) -> tuple[int, dict]:
    n, indices, groups, layout = _ring_payload(problem)
    # an even ring is refused for its vanishing weights when it has any
    # (n = 0 mod 4); otherwise realize_ring refuses its parity (BadParity)
    degeneracies = dn_ring.detect_even_degeneracy(n) if n % 2 == 0 and n >= 4 else []
    if degeneracies:
        raise _Refusal(
            {
                "schema": SCHEMA,
                "error": {
                    "type": "EvenDegeneracy",
                    "message": f"ring with {n} cells has vanishing factor weights",
                    "degeneracies": [list(d) for d in degeneracies],
                },
            }
        )
    config = _config_from(problem, args)
    ring, result = dn_ring.realize_ring(n, indices, groups, layout, config)
    return EXIT_OK, {
        "schema": SCHEMA,
        "mode": "ring",
        "config": config.to_dict(),
        "ring": dn_ring.ring_to_dict(ring),
        "result": result.to_dict(),
    }


def _cmd_realize(args) -> tuple[int, dict]:
    problem = _load(args.input)
    # a ring problem has one path, the one `ring` takes
    if problem.get("mode") == "ring":
        return _realize_ring(problem, args)
    target, weights = _problem_target_weights(problem)
    config = _config_from(problem, args)
    result = realization.realize(target, weights, config)
    return EXIT_OK, {
        "schema": SCHEMA,
        "mode": problem.get("mode"),
        "config": config.to_dict(),
        "result": result.to_dict(),
    }


def _cmd_ring(args) -> tuple[int, dict]:
    return _realize_ring(_load(args.input), args)


def _cmd_verify(args) -> tuple[int, dict]:
    result_doc = _load(args.result)
    problem = _load(args.input)
    target, weights = _problem_target_weights(problem)
    result_dict = result_doc.get("result", result_doc)
    result = RealizationResult.from_dict(result_dict)
    tol = _config_from(problem, args).tol
    report = spectrum.verify_realization(result, target, weights, tol=tol)
    payload = {"schema": SCHEMA, "tol": tol, "report": report.to_dict()}
    return (EXIT_OK if report.passed else EXIT_NUMERIC), payload


def _cmd_bmat(args) -> tuple[int, dict]:
    indices = tuple(int(tok) for tok in args.indices.split(",") if tok != "")
    mat = dn_ring.build_B(args.n, indices)
    return EXIT_OK, {
        "schema": SCHEMA,
        "n": args.n,
        "indices": list(indices),
        "matrix": mat.tolist(),
        "det": float(np.linalg.det(mat)),
        "singular": dn_ring.singular_selection(args.n, indices),
    }


def _parse_interval(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects two comma-separated numbers, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    return lo, hi


def _cmd_spectrum(args) -> tuple[int, dict]:
    doc = _load(args.input)
    factor_dict = doc.get("factor", doc)
    factor = factor_from_dict(factor_dict)
    re_lo, re_hi = _parse_interval(args.re, "--re")
    im_lo, im_hi = _parse_interval(args.im, "--im")
    region = spectrum.Region(re_lo, re_hi, im_lo, im_hi)
    # locate_roots certifies the region's count and returns exactly that many
    roots = spectrum.locate_roots(factor, region, max_roots=args.max_roots)
    return EXIT_OK, {
        "schema": SCHEMA,
        "region": region.to_dict(),
        "count": len(roots),
        "roots": [{"re": z.real, "im": z.imag} for z in roots],
    }


# ---------------------------------------------------------------------------
# Entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    parser = _ArgumentParser(
        prog="spectra-forge",
        description="Construct and verify delay equations with prescribed imaginary eigenvalues",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("realize", help="realize scalar, multifactor or ring targets")
    io_flags(p)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("ring", help="realize targets inside an odd symmetric ring")
    io_flags(p)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("verify", help="verify a realization result file")
    p.add_argument("--result", required=True, help="realization result file (JSON)")
    io_flags(p)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("bmat", help="reduced leading-weight matrix for odd rings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--indices", required=True, help="comma-separated factor indices")
    p.add_argument("--output", default="-")

    p = sub.add_parser("spectrum", help="count and locate roots in a rectangle")
    io_flags(p)
    p.add_argument("--re", required=True, help="real-axis interval a,b")
    p.add_argument("--im", required=True, help="imaginary-axis interval c,d")
    p.add_argument("--max-roots", type=int, default=64)

    return parser


_COMMANDS = {
    "realize": _cmd_realize,
    "ring": _cmd_ring,
    "verify": _cmd_verify,
    "bmat": _cmd_bmat,
    "spectrum": _cmd_spectrum,
}


def main(argv: list[str] | None = None) -> int:
    output = "-"
    try:
        args = _build_parser().parse_args(argv)
        output = args.output
        code, payload = _COMMANDS[args.command](args)
    except _Refusal as refusal:
        _dump(refusal.payload, output)
        return EXIT_REFUSED
    except NumericFailure as exc:
        _dump(_error_payload(exc), output)
        return EXIT_NUMERIC
    except (ValueError, KeyError, TypeError, OSError, InputError) as exc:
        _dump(_error_payload(exc), output)
        return EXIT_INPUT
    _dump(payload, output)
    return code


if __name__ == "__main__":
    sys.exit(main())
