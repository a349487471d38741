"""Per-layer tracing for the benchmark, from the benchmark's own files.

:class:`Tracer` replaces public spectra-forge functions with timing
wrappers in the module namespace where their callers look them up (for
example ``spectrum.evaluate_many``, which ``locate_roots`` calls, or
``dn_ring.realize``, which ``realize_ring`` calls), and restores the
originals on exit.  Each wrapped call is a span; a span's self time is its
duration minus that of the spans it directly contains.  Spans stay in
memory as running totals per metric name.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from spectra_forge import cli, dn_ring, quasipoly, realization, spectrum
from spectra_forge.errors import NoConvergence, SearchExhausted, SpectraForgeError


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=lambda: defaultdict(float))


def _after_delay_candidates(stat, out, args, kwargs):
    stat.counters["tau_sum"] += float(np.sum(out))


def _after_newton(stat, out, args, kwargs):
    stat.counters["iterations"] += out.newton_iterations


def _after_points(stat, out, args, kwargs):
    stat.counters["points"] += int(np.size(args[1]))


def _after_locate(stat, out, args, kwargs):
    stat.counters["located"] += len(out)


def _after_cli(stat, out, args, kwargs):
    argv = list(args[0]) if args else []
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        if path != "-" and os.path.exists(path):
            stat.counters["output_bytes"] += os.path.getsize(path)


# (module, attribute, metric name, hook on return, exception counted as
# failed and the counter it goes to)
WRAPPED = (
    (realization, "realize", "realization.realize", None, None),
    (dn_ring, "realize", "realization.realize", None, None),
    (realization, "base_point", "realization.base_point", None, None),
    (realization, "delay_candidates", "realization.delay_candidates", _after_delay_candidates,
     (SearchExhausted, "exhausted")),
    (realization, "newton_refine", "realization.newton_refine", _after_newton,
     (SpectraForgeError, "failed")),
    (realization, "achieved_windows", "realization.achieved_windows", None, None),
    (realization, "residual_on_targets", "quasipoly.residual_on_targets", None, None),
    (dn_ring, "realize_ring", "dn_ring.realize_ring", None, None),
    (dn_ring, "build_B", "dn_ring.build_B", None, None),
    (dn_ring, "det_B_two_factor", "dn_ring.det_B_two_factor", None, None),
    (dn_ring, "characteristic_factorization", "dn_ring.characteristic_factorization", None, None),
    (spectrum, "locate_roots", "spectrum.locate_roots", _after_locate, None),
    (spectrum, "count_roots", "spectrum.count_roots", None, None),
    (spectrum, "polish_root", "spectrum.polish_root", None, (NoConvergence, "failed")),
    (spectrum, "verify_realization", "spectrum.verify_realization", None, None),
    (spectrum, "evaluate_many", "quasipoly.evaluate_many", _after_points, None),
    (spectrum, "evaluate_derivative_many", "quasipoly.evaluate_derivative_many", _after_points, None),
    (spectrum, "evaluate", "quasipoly.evaluate", None, None),
    (quasipoly, "evaluate", "quasipoly.evaluate", None, None),
    (spectrum, "evaluate_derivative", "quasipoly.evaluate_derivative", None, None),
    (cli, "main", "cli.main", _after_cli, None),
)


# counters each wrapped name reports besides calls and times
COUNTERS = {
    "realization.delay_candidates": ("exhausted", "tau_sum"),
    "realization.newton_refine": ("iterations", "failed"),
    "spectrum.locate_roots": ("located",),
    "spectrum.polish_root": ("failed",),
    "quasipoly.evaluate_many": ("points",),
    "quasipoly.evaluate_derivative_many": ("points",),
    "cli.main": ("output_bytes",),
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    last = metric.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last == "tau_sum":
        return "tau_units"
    if last == "output_bytes":
        return "bytes"
    if last in ("attempts_per_solve", "counts_per_root", "overhead"):
        return "ratio"
    return "count"


class Tracer:
    """Context manager that installs the wrappers; totals accumulate over
    every ``with`` block entered on the same tracer."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._stack: list[float] = []
        self._saved: list = []

    def _wrap(self, fn, name, after, on_error):
        stat = self.stats[name]
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None and isinstance(exc, on_error[0]):
                    stat.counters[on_error[1]] += 1
                raise
            finally:
                duration = time.perf_counter() - t0
                inner = stack.pop()
                stat.calls += 1
                stat.s += duration
                stat.self_s += duration - inner
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(stat, out, args, kwargs)
            return out

        return traced

    def __enter__(self):
        for module, attr, name, after, on_error in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, after, on_error))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass means: calls, inclusive and self time and counters of
        every wrapped name, two ratios, and the sum of all self times."""
        out = {}
        for name in dict.fromkeys(name for _, _, name, _, _ in WRAPPED):
            stat = self.stats[name]
            out[f"{name}.calls"] = stat.calls / passes
            out[f"{name}.s"] = stat.s / passes
            out[f"{name}.self_s"] = stat.self_s / passes
            for counter in COUNTERS.get(name, ()):
                out[f"{name}.{counter}"] = stat.counters[counter] / passes
        out["realization.attempts_per_solve"] = _ratio(
            self.stats["realization.delay_candidates"].calls, self.stats["realization.realize"].calls)
        out["spectrum.counts_per_root"] = _ratio(
            self.stats["spectrum.count_roots"].calls, self.stats["spectrum.locate_roots"].counters["located"])
        out["trace.layers_s"] = sum(stat.self_s for stat in self.stats.values()) / passes
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
