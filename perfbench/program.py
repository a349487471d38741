"""Locate and import the spectra-forge sources of the checkout under test.

The benchmark measures the code in ``<checkout>/src``, never an installed
copy, so a checkout without its sources fails loudly instead of timing
something else.  Thread pinning lives here too: it has to run before the
first import of numpy, because BLAS reads its thread count only once.
"""
from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


class ProgramMissing(RuntimeError):
    """The checkout holds no importable spectra_forge sources."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread: the solver's matrices are tiny, and extra
    threads only add run-to-run noise on a small machine."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = "1"


def load() -> None:
    """Put ``<checkout>/src`` first on the path and import the package from it."""
    init = SRC / "spectra_forge" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no spectra_forge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("spectra_forge")
    found = Path(package.__file__).resolve()
    if found != init.resolve():
        raise ProgramMissing(f"spectra_forge was imported from {found}, not from {SRC}")
