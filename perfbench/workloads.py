"""The benchmark's three workloads.

Each workload builds its inputs from the seed once (that is part of
set-up), runs one pass over its operations when asked, and checks the
outputs of a pass with :mod:`checks`.  Every call into spectra-forge goes
through a module attribute (``realization.realize``, never a name imported
from it), so the traced run sees it.

The package is imported from the checkout by :func:`program.load`, which
has to run before this module is imported.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spectra_forge import cli, dn_ring, quasipoly, realization, spectrum
from spectra_forge.errors import BadParity, SingularB, SpectraForgeError

import checks

# A failing operation of the program ends in one of these; anything else
# is a fault of the benchmark and stops the run.
PROGRAM_ERRORS = (SpectraForgeError, ArithmeticError, ValueError)

R2, R3, R5, R7, R11 = (math.sqrt(x) for x in (2, 3, 5, 7, 11))
FRONTIER = (1.0, R2, R3, R5, R7, R11)


@dataclass
class PassRecord:
    """What one pass did, how long it took, and what it returned."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    max_taus: list = field(default_factory=list)
    verify_s: float = 0.0
    verify_calls: int = 0
    roots_counted: int = 0
    locate_s: float = 0.0
    roots_located: int = 0
    outputs: list = field(default_factory=list)


def _timed_verify(rec: PassRecord, result, target, weights=None):
    t0 = time.perf_counter()
    report = spectrum.verify_realization(result, target, weights)
    rec.verify_s += time.perf_counter() - t0
    rec.verify_calls += 1
    rec.roots_counted += report.roots_counted
    return report


def _plain_result(taus, coeffs):
    return realization.RealizationResult.from_dict(
        {"taus": list(taus), "coeffs": list(coeffs), "residual": 0.0, "newton_iterations": 0}
    )


def warm_up(workdir: Path) -> None:
    """One small, untimed call into every layer, so lazy set-up (LAPACK,
    argparse, first-use caches) is paid before timing."""
    target = realization.FrequencyTarget(((1.0, R2),))
    result = realization.realize(target)
    spectrum.verify_realization(result, target)
    ring, _ = dn_ring.realize_ring(3, (0, 1), ((1.0,), (R2,)), {"internal": 1, "couplings": {2: 1}})
    dn_ring.characteristic_factorization(ring)
    dn_ring.det_B_two_factor(7, 1, 2)
    factor = quasipoly.ScalarFactor(((1.0, 1.0, 1.5 * math.pi),))
    spectrum.locate_roots(factor, spectrum.Region(-0.5, 0.5, 0.5, 1.5))
    cli.main(["bmat", "--n", "7", "--indices", "1,2", "--output", str(workdir / "warm.json")])


# ---------------------------------------------------------------------------
# scalar_ladder


@dataclass(frozen=True)
class ScalarOut:
    n: int
    taus: tuple
    coeffs: tuple


class ScalarLadder:
    """realize + verify_realization on the prefixes of the frontier
    sequence (1, sqrt 2, sqrt 3, sqrt 5, sqrt 7, sqrt 11).  The seed only
    fixes the order of the prefixes within a pass."""

    name = "scalar_ladder"
    by_locate = False

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        sizes = np.arange(1, 4 if tiny else 7)
        order = np.random.default_rng(seed).permutation(sizes)
        self.targets = [
            (int(n), realization.FrequencyTarget((FRONTIER[:n],))) for n in order
        ]

    def run_pass(self) -> PassRecord:
        rec = PassRecord()
        done = []
        start = time.perf_counter()
        for n, target in self.targets:
            rec.attempted += 1
            try:
                result = realization.realize(target)
            except PROGRAM_ERRORS:
                rec.failed += 1
                continue
            if not _timed_verify(rec, result, target).passed:
                rec.failed += 1
                continue
            done.append((n, result))
        rec.seconds = time.perf_counter() - start
        for n, result in done:
            rec.max_taus.append(float(result.taus.max()))
            rec.outputs.append(ScalarOut(n, tuple(result.taus.tolist()), tuple(result.coeffs.tolist())))
        return rec

    @staticmethod
    def check(out) -> list[str]:
        omegas = FRONTIER[: out.n]
        problems = checks.realization_problems((omegas,), [[1.0] * out.n], out.taus, out.coeffs)
        if out.n == 1 and not problems:
            problems += checks.closed_form_single_problems(1.0, out.taus[0], out.coeffs[0])
        return [f"scalar n={out.n}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# ring_design

# (cells, factor indices, one frequency group per factor, delay layout)
RING_PROBLEMS = (
    (3, (0, 1), ((1.0,), (R2,)), {"internal": 1, "couplings": {"2": 1}}),
    (5, (1, 2), ((1.0,), (R2,)), {"couplings": {"2": 1, "3": 1}}),
    (7, (1, 2, 3), ((1.0,), (R2,), (R3,)), {"couplings": {"2": 1, "3": 1, "4": 1}}),
    (3, (1,), ((1.0, R2),), {"couplings": {"2": 2}}),
    (3, (0,), ((1.0, R2),), {"internal": 2}),
    (5, (0, 1, 2), ((1.0,), (R2,), (R3,)), {"internal": 1, "couplings": {"2": 1, "3": 1}}),
    (5, (0, 2), ((1.0, R3), (R2,)), {"internal": 2, "couplings": {"3": 1}}),
    (5, (1, 2), ((1.0, R2), (R3, R5)), {"couplings": {"2": 2, "3": 2}}),
    (7, (0, 1), ((1.0, R2), (R3, R5)), {"internal": 2, "couplings": {"2": 2}}),
    (7, (2, 3), ((R2, R3), (R5,)), {"internal": 1, "couplings": {"3": 1, "4": 1}}),
    (11, (1, 3), ((1.0, R2), (R3,)), {"couplings": {"2": 2, "4": 1}}),
    (11, (0, 2, 5), ((1.0,), (R2,), (R3,)), {"internal": 1, "couplings": {"3": 1, "6": 1}}),
    (11, (1, 4), ((1.0, R2), (R3, R5)), {"internal": 1, "couplings": {"2": 2, "5": 1}}),
)

# the README multifactor split: (1, sqrt 2) over two weighted factors
SPLIT_GROUPS = ((1.0,), (R2,))
SPLIT_WEIGHTS = ((1.0, 2.0), (1.0, -1.0))

# selections the library must refuse: (cells, indices, groups, layout)
SINGULAR_SELECTIONS = (
    (25, (5, 10), ((1.0,), (R2,)), {"couplings": {"6": 1, "11": 1}}),
    (9, (1, 2, 4), ((1.0,), (R2,), (R3,)), {"couplings": {"2": 1, "3": 1, "5": 1}}),
)
EVEN_RING = (4, (1,), ((1.0,),), {"couplings": {"2": 1}})

SINGULAR_PAIRS = 63
FIRST_SINGULAR = (25, 5, 10)


@dataclass(frozen=True)
class RingOut:
    problem: int
    ring: dict
    taus: tuple


@dataclass(frozen=True)
class SplitOut:
    taus: tuple
    coeffs: tuple


@dataclass(frozen=True)
class RefusalOut:
    label: str
    got: str
    expected: str


@dataclass(frozen=True)
class SweepOut:
    pairs: tuple
    dets: np.ndarray
    matrices: np.ndarray
    tiny: bool


@dataclass(frozen=True)
class BmatOut:
    pair: tuple
    matrix: tuple
    singular: bool
    det: float


def _problem_doc(n, indices, groups, layout) -> dict:
    payload = {"n": n, "indices": list(indices), "groups": [list(g) for g in groups], "layout": layout}
    return {"schema": "spectra-forge/1", "mode": "ring", "payload": payload}


class RingDesign:
    """The ring layer: realize_ring on odd rings of 3 to 11 cells, the
    multifactor split, expected refusals, the full two-factor B sweep, and
    a seed-chosen share of the problems sent through the CLI as JSON files.
    The frequencies are fixed; the seed picks the CLI share and the order."""

    name = "ring_design"
    by_locate = False

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = np.random.default_rng(seed)
        problems = RING_PROBLEMS[:3] if tiny else RING_PROBLEMS
        order = rng.permutation(len(problems))
        via_cli = set(rng.choice(len(problems), size=max(1, len(problems) // 3), replace=False).tolist())
        self.workdir = workdir
        self.problems = []
        for i in order.tolist():
            n, idx, groups, layout = problems[i]
            entry = {"id": i, "n": n, "idx": idx, "groups": groups, "layout": layout, "cli": i in via_cli}
            if entry["cli"]:
                entry["input"] = workdir / f"ring{i}.json"
                entry["output"] = workdir / f"ring{i}.out.json"
                entry["report"] = workdir / f"ring{i}.verify.json"
                entry["input"].write_text(json.dumps(_problem_doc(n, idx, groups, layout)))
            else:
                entry["target"] = realization.FrequencyTarget(groups)
            self.problems.append(entry)
        self.split_target = realization.FrequencyTarget(SPLIT_GROUPS)
        self.split_weights = realization.WeightTable(np.array(SPLIT_WEIGHTS))
        self.even_input = workdir / "even.json"
        self.even_input.write_text(json.dumps(_problem_doc(*EVEN_RING)))
        self.even_output = workdir / "even.out.json"
        self.singular_input = workdir / "singular.json"
        self.singular_output = workdir / "singular.out.json"
        self.singular_input.write_text(json.dumps(_problem_doc(*SINGULAR_SELECTIONS[0])))
        self.tiny = tiny
        self.pairs = tuple(checks.two_factor_pairs(27 if tiny else 101))
        chosen = rng.choice(len(self.pairs), size=4, replace=False).tolist()
        self.bmat_pairs = [FIRST_SINGULAR] + [self.pairs[k] for k in chosen]

    def _cli(self, *argv) -> int:
        return cli.main([str(a) for a in argv])

    def run_pass(self) -> PassRecord:
        rec = PassRecord()
        rings = []
        refusals = []
        dets = np.empty(len(self.pairs))
        mats = np.empty((len(self.pairs), 2, 2))
        bmat_codes = []
        split = None
        start = time.perf_counter()
        for p in self.problems:
            rec.attempted += 1
            if p["cli"]:
                code = self._cli("ring", "--input", p["input"], "--output", p["output"])
                if code == 0:
                    code = self._cli("verify", "--result", p["output"], "--input", p["input"],
                                     "--output", p["report"])
                if code != 0:
                    rec.failed += 1
                    continue
                rings.append((p, None))
                continue
            try:
                ring, result = dn_ring.realize_ring(p["n"], p["idx"], p["groups"], p["layout"])
            except PROGRAM_ERRORS:
                rec.failed += 1
                continue
            product = dn_ring.characteristic_factorization(ring)
            terms = product.factors[p["idx"][0]].terms
            certified = _plain_result([t.tau for t in terms], [t.a for t in terms])
            weights = realization.WeightTable(
                np.array([[t.b for t in product.factors[i].terms] for i in p["idx"]])
            )
            if not _timed_verify(rec, certified, p["target"], weights).passed:
                rec.failed += 1
                continue
            rings.append((p, (dn_ring.ring_to_dict(ring), result)))

        rec.attempted += 1
        try:
            split = realization.realize(self.split_target, self.split_weights)
            if not _timed_verify(rec, split, self.split_target, self.split_weights).passed:
                rec.failed += 1
                split = None
        except PROGRAM_ERRORS:
            rec.failed += 1

        for n, idx, groups, layout in SINGULAR_SELECTIONS:
            rec.attempted += 1
            try:
                dn_ring.realize_ring(n, idx, groups, layout)
                got = "realized"
            except SpectraForgeError as exc:
                got = type(exc).__name__
            refusals.append(RefusalOut(f"realize_ring({n}, {idx})", got, SingularB.__name__))
        rec.attempted += 1
        try:
            dn_ring.realize_ring(*EVEN_RING)
            got = "realized"
        except SpectraForgeError as exc:
            got = type(exc).__name__
        refusals.append(RefusalOut("realize_ring(4)", got, BadParity.__name__))
        rec.attempted += 1
        zero = dn_ring.detect_even_degeneracy(EVEN_RING[0])
        refusals.append(RefusalOut("detect_even_degeneracy(4)", repr(zero), repr(_even_zero_weights(4))))
        rec.attempted += 2
        even_code = self._cli("ring", "--input", self.even_input, "--output", self.even_output)
        singular_code = self._cli("ring", "--input", self.singular_input, "--output", self.singular_output)

        for k, (n, i1, i2) in enumerate(self.pairs):
            mats[k] = dn_ring.build_B(n, (i1, i2))
            dets[k] = dn_ring.det_B_two_factor(n, i1, i2)
        rec.attempted += len(self.pairs)
        for k, (n, i1, i2) in enumerate(self.bmat_pairs):
            rec.attempted += 1
            path = self.workdir / f"bmat{k}.json"
            bmat_codes.append((n, i1, i2, path, self._cli("bmat", "--n", n, "--indices", f"{i1},{i2}",
                                                          "--output", path)))
        rec.seconds = time.perf_counter() - start

        for p, made in rings:
            if made is None:
                doc = json.loads(p["output"].read_text())
                ring_dict, taus = doc["ring"], doc["result"]["taus"]
            else:
                ring_dict, taus = made[0], made[1].taus.tolist()
            rec.max_taus.append(max(taus))
            rec.outputs.append(RingOut(p["id"], ring_dict, tuple(taus)))
        if split is not None:
            rec.max_taus.append(float(split.taus.max()))
            rec.outputs.append(SplitOut(tuple(split.taus.tolist()), tuple(split.coeffs.tolist())))
        rec.outputs.extend(refusals)
        rec.outputs.append(RefusalOut("cli ring n=4", f"exit {even_code} {_error_type(self.even_output)}",
                                      "exit 3 EvenDegeneracy"))
        rec.outputs.append(RefusalOut("cli ring (25, (5, 10))",
                                      f"exit {singular_code} {_error_type(self.singular_output)}",
                                      "exit 2 SingularB"))
        rec.outputs.append(SweepOut(self.pairs, dets, mats, self.tiny))
        for n, i1, i2, path, code in bmat_codes:
            if code != 0:
                rec.failed += 1
                continue
            doc = json.loads(path.read_text())
            matrix = tuple(tuple(row) for row in doc["matrix"])
            rec.outputs.append(BmatOut((n, i1, i2), matrix, bool(doc["singular"]), float(doc["det"])))
        return rec

    def check(self, out) -> list[str]:
        if isinstance(out, RingOut):
            groups = RING_PROBLEMS[out.problem][2]
            return checks.ring_problems(out.ring, groups)
        if isinstance(out, SplitOut):
            return [f"split: {p}" for p in checks.realization_problems(
                SPLIT_GROUPS, SPLIT_WEIGHTS, out.taus, out.coeffs)]
        if isinstance(out, RefusalOut):
            return [] if out.got == out.expected else [f"{out.label}: {out.got}, expected {out.expected}"]
        if isinstance(out, SweepOut):
            return checks.bsweep_problems(
                out.pairs, out.dets, out.matrices,
                expect_singular=None if out.tiny else SINGULAR_PAIRS,
                expect_first=FIRST_SINGULAR,
            )
        if isinstance(out, BmatOut):
            problems = checks.bsweep_problems([out.pair], [out.det], np.array([out.matrix]))
            if out.singular != checks.singular_by_congruence(*out.pair):
                problems.append(f"bmat {out.pair} reports singular={out.singular}")
            return problems
        raise TypeError(f"unknown output {type(out).__name__}")


def _error_type(path: Path) -> str:
    return json.loads(path.read_text()).get("error", {}).get("type", "")


def _even_zero_weights(n: int) -> list[tuple[int, int]]:
    """(coupling index k, factor j) where 2 cos(2 pi (k-1) j / n) is zero,
    found by evaluating the cosine."""
    return [
        (k, j)
        for k in range(2, n // 2 + 1)
        for j in range(n)
        if abs(2.0 * math.cos(2.0 * math.pi * (k - 1) * j / n)) < 1e-12
    ]


# ---------------------------------------------------------------------------
# root_census

# (largest delay T, half-width of the box in Re, height of the box in Im)
CENSUS_RANGES = ((5.0, 0.4, 4.0), (10.0, 0.4, 3.0), (20.0, 0.2, 2.0))
CENSUS_TERMS = (3, 4, 5)
# closed-form family D = lam - w exp(-lam tau), tau = (3 pi / 2 + 2 pi j) / w
FAMILY_J = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000)
FAULT_J = 30000
FAULT_OMEGAS = (1.0, 1.5, 2.0, 2.5, 3.0)


@dataclass(frozen=True)
class CensusOut:
    item: int
    roots: tuple


@dataclass(frozen=True)
class FamilyOut:
    omega: float
    tau: float
    polished: tuple


def family_tau(omega: float, j: int) -> float:
    return (1.5 * math.pi + 2.0 * math.pi * j) / omega


def _census_terms(rng, T: float, m: int, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """m delays in (0.1 T, T], the largest in [0.9 T, T]; m - 2 random
    coefficients, and the last two solved so that i*omega is a root."""
    while True:
        taus = np.append(rng.uniform(0.1 * T, T, m - 1), T * rng.uniform(0.9, 1.0))
        coeffs = rng.uniform(-1.0, 1.0, m) * omega
        phase = np.exp(-1j * omega * taus)
        mat = np.array([[phase[-2].real, phase[-1].real], [phase[-2].imag, phase[-1].imag]])
        if abs(np.linalg.det(mat)) < 0.1:
            continue
        rhs = 1j * omega - phase[:-2] @ coeffs[:-2]
        solved = np.linalg.solve(mat, [rhs.real, rhs.imag])
        if np.abs(solved).max() > 2.0 * omega:
            continue
        coeffs[-2:] = solved
        return taus, coeffs


def _contour_clearance(taus, coeffs, box) -> float:
    """Smallest Newton distance |D| / |D'| on the box outline, a local
    estimate of how close a root comes to the contour."""
    z = checks.contour(box, 4096)
    e = np.exp(-np.multiply.outer(z, taus))
    value = z - e @ coeffs
    slope = 1.0 + e @ (coeffs * taus)
    return float((np.abs(value) / np.abs(slope)).min())


class RootCensus:
    """The spectrum layer on inputs drawn from the seed, none of them from
    realize: locate_roots on random 3- to 5-term factors with an exact root
    at i*omega, verify_realization on a closed-form family with exact roots,
    and the same family at j = 30000, where every call fails."""

    name = "root_census"
    by_locate = True

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = np.random.default_rng(seed)
        reps = 1 if tiny else 4
        self.census = []
        for T, half, height in CENSUS_RANGES:
            for m in CENSUS_TERMS[:1] if tiny else CENSUS_TERMS:
                for r in range(reps):
                    omega = 0.6 + 1.9 * (r + rng.uniform()) / reps
                    self.census.append(self._census_item(rng, T, m, omega, half, height))
        per_j = 2 if tiny else 8
        js = FAMILY_J[::4] if tiny else FAMILY_J
        self.family = []
        for j in js:
            for r in range(per_j):
                omega = 0.5 + 2.5 * (r + rng.uniform()) / per_j
                self.family.append(self._family_item(omega, j))
        self.faulty = [self._family_item(w, FAULT_J) for w in FAULT_OMEGAS[: 1 if tiny else None]]

    @staticmethod
    def _census_item(rng, T, m, omega, half, height):
        while True:
            taus, coeffs = _census_terms(rng, T, m, omega)
            for shift in range(10):
                y0 = max(omega - height * (0.3 + 0.04 * shift + 0.1 * rng.uniform()), 0.05)
                box = (-half, half, y0, y0 + height)
                if _contour_clearance(taus, coeffs, box) >= 0.01 * min(2.0 * half, height):
                    factor = quasipoly.ScalarFactor(tuple((float(a), 1.0, float(t)) for a, t in zip(coeffs, taus)))
                    terms = tuple(zip(coeffs.tolist(), taus.tolist()))
                    return factor, spectrum.Region(*box), omega, terms

    @staticmethod
    def _family_item(omega, j):
        tau = family_tau(omega, j)
        return _plain_result([tau], [omega]), realization.FrequencyTarget(((omega,),)), omega, tau

    def run_pass(self) -> PassRecord:
        rec = PassRecord()
        located = []
        family = []
        start = time.perf_counter()
        for k, (factor, region, _, _) in enumerate(self.census):
            rec.attempted += 1
            t0 = time.perf_counter()
            try:
                roots = spectrum.locate_roots(factor, region)
            except PROGRAM_ERRORS:
                rec.failed += 1
                continue
            finally:
                rec.locate_s += time.perf_counter() - t0
            rec.roots_located += len(roots)
            located.append((k, roots))
        for result, target, omega, tau in self.family:
            rec.attempted += 1
            report = _timed_verify(rec, result, target)
            if not report.passed:
                rec.failed += 1
                continue
            family.append((omega, tau, report))
        for result, target, _, _ in self.faulty:
            rec.attempted += 1
            if not _timed_verify(rec, result, target).passed:
                rec.failed += 1
        rec.seconds = time.perf_counter() - start
        rec.max_taus = [tau for *_, tau in self.family + self.faulty]
        for k, roots in located:
            rec.outputs.append(CensusOut(k, tuple(roots)))
        for omega, tau, report in family:
            rec.outputs.append(FamilyOut(omega, tau, tuple(t.polished for t in report.targets)))
        return rec

    def check(self, out) -> list[str]:
        if isinstance(out, CensusOut):
            _, region, omega, terms = self.census[out.item]
            box = (region.re_min, region.re_max, region.im_min, region.im_max)
            return [f"census {out.item}: {p}" for p in checks.census_problems(terms, box, omega, out.roots)]
        if isinstance(out, FamilyOut):
            problems = checks.realization_problems(((out.omega,),), [[1.0]], [out.tau], [out.omega])
            for z, w in zip(out.polished, (out.omega, -out.omega)):
                if z is None or abs(z - 1j * w) > 1e-8:
                    problems.append(f"polished root {z} is not {1j * w}")
            return [f"family w={out.omega}: {p}" for p in problems]
        raise TypeError(f"unknown output {type(out).__name__}")


WORKLOADS = {w.name: w for w in (ScalarLadder, RingDesign, RootCensus)}
