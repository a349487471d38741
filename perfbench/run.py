"""spectra-forge benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload scalar_ladder --seed 1 --seconds 20 --trace 0

Set-up (imports, inputs from the seed, one untimed call into each layer)
is timed in this process and again in fresh processes, and ``setup_s`` is
the median.  Then whole passes over the workload run until ``--seconds``
have gone by; each end-to-end metric is the median over the passes.  With
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics come from the traced ones.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""
import time

_START = time.perf_counter()

import program  # noqa: E402  (must pin threads before numpy loads)

program.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "tau_max": "tau_units",
    "tau_gmean": "tau_units",
    "roots_per_s": "1/s",
    "verifies_per_s": "1/s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up in this fresh process, print it, and stop")
    return parser.parse_args(argv)


def _set_up(name: str, seed: int, workdir: Path):
    """Import the program, build the workload's inputs and warm every layer."""
    program.load()
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed, workdir)
    workloads.warm_up(workdir)
    return workload


def _fresh_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=program.ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _check(workload, records) -> list[str]:
    """Check each distinct output once; later passes repeat earlier ones."""
    seen = set()
    problems = []
    for rec in records:
        for out in rec.outputs:
            key = pickle.dumps(out)
            if key in seen:
                continue
            seen.add(key)
            problems.extend(workload.check(out))
    return problems


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _end_to_end(workload, records, setup: list[float]) -> dict:
    """Medians over passes for times and delays; rates over the whole run."""
    taus = [rec.max_taus for rec in records]
    verify_s = sum(rec.verify_s for rec in records)
    if workload.by_locate:
        roots = _rate(sum(rec.roots_located for rec in records), sum(rec.locate_s for rec in records))
    else:
        roots = _rate(sum(rec.roots_counted for rec in records), verify_s)
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(rec.seconds for rec in records),
        "tau_max": statistics.median(max(t) if t else 0.0 for t in taus),
        "tau_gmean": statistics.median(
            math.exp(sum(math.log(x) for x in t) / len(t)) if t else 0.0 for t in taus),
        "roots_per_s": roots,
        "verifies_per_s": _rate(sum(rec.verify_calls for rec in records), verify_s),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _traced(workload, seconds: float):
    """Alternate untraced and traced passes; per-layer metrics and overhead."""
    import spans

    tracer = spans.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(workload.run_pass())
        with tracer:
            traced.append(workload.run_pass())
        if time.perf_counter() >= deadline:
            break
    metrics = tracer.layer_metrics(len(traced))
    traced_s = statistics.median(rec.seconds for rec in traced)
    plain_s = statistics.median(rec.seconds for rec in plain)
    metrics["trace.pass_s"] = traced_s
    metrics["trace.untraced_pass_s"] = plain_s
    metrics["trace.overhead"] = traced_s / plain_s - 1.0
    metrics["trace.glue_s"] = statistics.mean(rec.seconds for rec in traced) - metrics["trace.layers_s"]
    return plain + traced, {k: {"value": v, "unit": spans.unit_of(k)} for k, v in metrics.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    with tempfile.TemporaryDirectory(prefix="_work-", dir=HERE) as tmp:
        try:
            workload = _set_up(args.workload, args.seed, Path(tmp))
        except program.ProgramMissing as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        setup = [time.perf_counter() - _START]
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0]}))
            return 0
        if args.trace:
            records, metrics = _traced(workload, args.seconds)
        else:
            setup += [_fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
            records = []
            deadline = time.perf_counter() + args.seconds
            while True:
                records.append(workload.run_pass())
                if time.perf_counter() >= deadline:
                    break
            metrics = _end_to_end(workload, records, setup)
        problems = _check(workload, records)
    for problem in problems[:20]:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(rec.attempted for rec in records),
        "failed": sum(rec.failed for rec in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
