#!/usr/bin/env python3
"""Realize growing prefixes of (1, sqrt2, sqrt3, sqrt5, ..., sqrt43) and verify.

Prints one row per instance with the realized delays, coefficients,
residual, Newton iterations and the verification verdict.  Exits 1 if any
instance fails verification.

Usage:
    python scripts/scalar_sweep.py [--max-n 5] [--tol 1e-10] [--json out.json]

--max-n runs from 1 to 15: the square roots of 1 and of the first
fourteen primes.
"""
import argparse
import json
import math
import sys
import time

import numpy as np

from spectra_forge.realization import (
    FrequencyTarget,
    RealizeConfig,
    WeightTable,
    realize,
)
from spectra_forge.spectrum import verify_realization

OMEGAS = tuple(math.sqrt(p) for p in (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5, choices=range(1, len(OMEGAS) + 1))
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--json", default=None, help="optional JSON report path")
    args = parser.parse_args(argv)

    config = RealizeConfig(tol=args.tol)
    rows = []
    for n in range(1, args.max_n + 1):
        target = FrequencyTarget((OMEGAS[:n],))
        t0 = time.perf_counter()
        result = realize(target, config=config)
        elapsed = time.perf_counter() - t0
        report = verify_realization(result, target, WeightTable.ones(n), tol=1e-8)
        rows.append(
            {
                "n": n,
                "taus": result.taus.tolist(),
                "coeffs": result.coeffs.tolist(),
                "residual": result.residual,
                "newton_iterations": result.newton_iterations,
                "search_window": result.search_window.tolist(),
                "verified": report.passed,
                "seconds": elapsed,
            }
        )
        print(
            f"n={n}: residual={result.residual:.2e}  iters={result.newton_iterations}  "
            f"max_tau={result.taus.max():.1f}  verified={report.passed}  ({elapsed:.2f}s)"
        )
        with np.printoptions(precision=6, suppress=False):
            print(f"    taus   = {result.taus}")
            print(f"    coeffs = {result.coeffs}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"schema": "spectra-forge/1", "instances": rows}, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0 if all(row["verified"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
