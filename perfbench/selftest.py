"""Self-test of the benchmark: tiny workloads, checkers against broken
outputs, the tracer, the result line, and the refusal without sources.

    python3 perfbench/selftest.py

Prints one line per check and exits 1 if any fails.
"""
import program  # must pin threads before numpy loads

program.pin_threads()
program.load()

import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
FAILURES = []


def expect(ok: bool, label: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def test_tiny_workloads(workdir: Path) -> dict:
    passes = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(3, workdir, tiny=True)
        rec = workload.run_pass()
        problems = [p for out in rec.outputs for p in workload.check(out)]
        expected_failed = len(workload.faulty) if name == "root_census" else 0
        expect(not problems, f"{name}: tiny pass is correct {problems[:2]}")
        expect(rec.failed == expected_failed,
               f"{name}: {rec.failed} of {rec.attempted} operations failed, expected {expected_failed}")
        passes[name] = (workload, rec)
    return passes


def test_scalar_checker(workload, rec) -> None:
    out = next(o for o in rec.outputs if o.n == 3)
    shifted = dataclasses.replace(out, taus=(out.taus[0] + 1e-3,) + out.taus[1:])
    expect(bool(workload.check(shifted)), "scalar: a shifted tau is rejected")
    one = next(o for o in rec.outputs if o.n == 1)
    # a second root of the n = 1 problem, tau + 2 pi / w, is not the closed form
    other = dataclasses.replace(one, taus=(one.taus[0] + 2.0 * math.pi,))
    expect(bool(workload.check(other)), "scalar: n = 1 off the closed form is rejected")
    negative = dataclasses.replace(out, taus=(-out.taus[0],) + out.taus[1:])
    expect(bool(workload.check(negative)), "scalar: a negative delay is rejected")


def test_ring_checker(workload, rec) -> None:
    for ring_out in (o for o in rec.outputs if isinstance(o, workloads.RingOut)):
        broken = json.loads(json.dumps(ring_out.ring))
        profile = broken["internal"] or next(iter(broken["couplings"].values()))
        key = "tau" if "tau" in profile[0] else "s"
        profile[0][key] += 1e-3
        expect(bool(workload.check(dataclasses.replace(ring_out, ring=broken))),
               f"ring: a shifted delay in the {broken['n']}-cell ring breaks the dense determinant")

    sweep = next(o for o in rec.outputs if isinstance(o, workloads.SweepOut))
    k = sweep.pairs.index(workloads.FIRST_SINGULAR)
    dets = sweep.dets.copy()
    dets[k] = 1.0
    expect(bool(workload.check(dataclasses.replace(sweep, dets=dets))),
           "ring: a flipped singular flag is rejected")
    dets = sweep.dets.copy()
    dets[0] += 1e-6
    expect(bool(workload.check(dataclasses.replace(sweep, dets=dets))),
           "ring: a determinant off the LU value is rejected")
    mats = sweep.matrices.copy()
    mats[-1, 0, 1] += 1e-9
    expect(bool(workload.check(dataclasses.replace(sweep, matrices=mats))),
           "ring: a wrong B entry is rejected")

    bmat = next(o for o in rec.outputs if isinstance(o, workloads.BmatOut))
    expect(bool(workload.check(dataclasses.replace(bmat, singular=not bmat.singular))),
           "ring: a flipped bmat flag is rejected")
    refusal = next(o for o in rec.outputs if isinstance(o, workloads.RefusalOut))
    expect(bool(workload.check(dataclasses.replace(refusal, got="realized"))),
           "ring: a missing refusal is rejected")


def test_census_checker(workload, rec) -> None:
    out = max((o for o in rec.outputs if isinstance(o, workloads.CensusOut)), key=lambda o: len(o.roots))
    roots = out.roots
    expect(len(roots) >= 2, f"census: a tiny box holds {len(roots)} roots")
    omega = workload.census[out.item][2]
    cases = {
        "a dropped root": tuple(z for z in roots if abs(z - 1j * omega) > 1e-8),
        "a duplicated root": roots + roots[:1],
        "a shifted root": (roots[0] + 1e-3,) + roots[1:],
    }
    for label, broken in cases.items():
        expect(bool(workload.check(dataclasses.replace(out, roots=broken))), f"census: {label} is rejected")
    fam = next(o for o in rec.outputs if isinstance(o, workloads.FamilyOut))
    moved = (fam.polished[0] + 1e-6,) + fam.polished[1:]
    expect(bool(workload.check(dataclasses.replace(fam, polished=moved))),
           "census: a drifted polished root is rejected")


def test_winding() -> None:
    # lam - w exp(-lam tau) with tau = 3 pi / (2 w): roots +-i w, nothing else
    # in this box, which contains only +i w
    w = 1.3
    terms = [(w, 1.5 * math.pi / w)]
    expect(checks.winding_number(terms, (-0.2, 0.2, 0.5, 2.0)) == 1, "winding number of one root")
    expect(checks.winding_number(terms, (-0.2, 0.2, 1.5, 2.0)) == 0, "winding number of an empty box")


class _Abort(Exception):
    pass


def test_tracer(workdir: Path) -> None:
    with open(program.ROOT / "BENCHMARK.json") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    originals = [(m, a, getattr(m, a)) for m, a, *_ in spans.WRAPPED]
    tracer = spans.Tracer()
    workload = workloads.RingDesign(5, workdir, tiny=True)
    try:
        with tracer:
            rec = workload.run_pass()
            raise _Abort
    except _Abort:
        pass
    restored = all(getattr(m, a) is f for m, a, f in originals)
    expect(restored, "tracer: every wrapped name is restored after an exception")
    metrics = tracer.layer_metrics(1)
    metrics.update({k: 0.0 for k in ("trace.pass_s", "trace.untraced_pass_s", "trace.overhead", "trace.glue_s")})
    expect(sorted(metrics) == sorted(declared), "tracer: names match the per_layer list of BENCHMARK.json")
    expect(metrics["cli.main.calls"] > 0 and metrics["dn_ring.build_B.calls"] > 0
           and metrics["cli.main.output_bytes"] > 0,
           "tracer: the CLI and dn_ring calls are seen")
    expect(metrics["trace.layers_s"] <= rec.seconds, "tracer: self times add up to at most the pass time")


def test_result_line() -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "scalar_ladder", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=program.ROOT, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(done.returncode == 0 and sorted(result) == ["attempted", "correct", "failed", "metrics"],
           "run.py prints the result object")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 6, "run.py: scalar run is correct")
    expect(all(v["value"] > 0 for v in result["metrics"].values()), "run.py: no end-to-end metric is 0")


def test_refuses_without_sources(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work-*", "__pycache__", "results"))
    shutil.copy(program.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scalar_ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    expect(done.returncode != 0 and not done.stdout.strip(), "run.py refuses a checkout without sources")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="_work-", dir=HERE) as tmp:
        workdir = Path(tmp)
        workloads.warm_up(workdir)
        passes = test_tiny_workloads(workdir)
        test_scalar_checker(*passes["scalar_ladder"])
        test_ring_checker(*passes["ring_design"])
        test_census_checker(*passes["root_census"])
        test_winding()
        test_tracer(workdir)
        test_result_line()
        test_refuses_without_sources(workdir)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
