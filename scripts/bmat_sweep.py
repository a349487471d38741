#!/usr/bin/env python3
"""Sweep the two-factor reduced matrices over odd ring sizes.

For every odd n in [5, N] and every factor pair 1 <= i1 < i2 <= (n-1)/2,
compares the closed-form determinant against LU of the matrix the paper
prints (``dn_ring.build_B``, coupling entries 4 cos) and decides
singularity with ``dn_ring.singular_selection``, the test that
``realize_ring`` and ``spectra-forge bmat`` apply to that same matrix.
The row-normalized |det| of the regular pairs is reported for
information only.  Exactly singular selections exist whenever n has a
square factor (the first is n = 25 with the pair (5, 10), where every
index product vanishes mod n); the sweep lists them all.

Usage:
    python scripts/bmat_sweep.py [--n-max 101]
"""
import argparse
import sys

import numpy as np

from spectra_forge.dn_ring import build_B, det_B_two_factor, singular_selection


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=101)
    args = parser.parse_args(argv)

    checked = 0
    worst_match = 0.0
    singular = []
    min_regular = (np.inf, None)
    for n in range(5, args.n_max + 1, 2):
        for i1 in range(1, (n - 1) // 2):
            for i2 in range(i1 + 1, (n - 1) // 2 + 1):
                checked += 1
                closed = det_B_two_factor(n, i1, i2)
                mat = build_B(n, (i1, i2))
                lu = float(np.linalg.det(mat))
                worst_match = max(worst_match, abs(closed - lu) / max(1.0, abs(lu)))
                if singular_selection(n, (i1, i2)):
                    singular.append((n, i1, i2))
                    continue
                norms = np.linalg.norm(mat, axis=1)
                normalized = abs(lu) / float(norms[0] * norms[1])
                if normalized < min_regular[0]:
                    min_regular = (normalized, (n, i1, i2))

    print(f"pairs checked: {checked}")
    print(f"worst closed-form vs LU mismatch: {worst_match:.2e}")
    print(f"smallest nonzero normalized |det|: {min_regular[0]:.3e} at {min_regular[1]}")
    if singular:
        sizes = sorted({n for n, _, _ in singular})
        print(f"exactly singular selections: {len(singular)}, ring sizes {sizes}")
        for item in singular[:10]:
            print(f"  n={item[0]}, pair ({item[1]}, {item[2]})")
        if len(singular) > 10:
            print(f"  ... {len(singular) - 10} more")
        print("every singular size has a square factor; squarefree sizes are clean")
    else:
        print("no singular selections in range")
    return 0


if __name__ == "__main__":
    sys.exit(main())
