"""Realize prescribed rationally independent frequencies as imaginary roots.

Given positive frequencies split into r groups and a fixed r-by-n table of
nonzero weights b[j][k], the goal is delays tau_k > 0 and coefficients
a_k != 0 such that for every group j and every frequency w in it

    sum_k a_k * b[j][k] * exp(-i w tau_k) = i w,

which makes +-i*w a root of the j-th factor lam - sum_k a_k b[j][k]
exp(-lam tau_k).  With r = 1 and unit weights this is the plain scalar
problem.

The constructive path mirrors the existence proof:

1.  A base point in angle space.  Replacing each phase w*tau_k by a free
    angle turns the system into P~(angles) a = i w with P~ entrywise
    b[j][k] * exp(-i angle).  At quarter-turn angles (3*pi/2 where a sign
    pattern is +, pi/2 where it is -) the matrix collapses to i times the
    real matrix of weighted sign columns, so whenever those columns are
    independent the base amplitudes follow from one linear solve.  The
    paper's block sign pattern (the index vectors) is one such choice;
    :func:`base_point` builds it, as the near-rational precondition.
2.  A dense-torus sweep.  Because the flattened frequency vector has no
    rational relation, the line t -> t*omega fills the angle torus
    densely.  A visit to within epsilon of a quarter-turn corner names
    that corner's orthant, and :func:`realize` takes the first n
    orthants the line reaches whose weighted sign columns are
    independent: they form the base, and their visits the start delays.
    A single frequency needs no sweep: the base angle over w is exact.
    One sweep along the line serves every column: a cheap gate (every
    angle w_i*tau within epsilon of a quarter turn, read off the grid
    index for the largest frequency and off a multiply and a floor for
    the others) discards points far from all corners, and only the
    survivors are measured exactly.
3.  The openness argument made constructive: with d0 the hit's angular
    errors, phases w*tau_k - (1 - s) d0 give a system that the hit and the
    base amplitudes solve at s = 0 and that is the real one at s = 1.
    Pseudo-arclength continuation traces it to s = 1 and a plain Newton
    lands; each epsilon, large ones (small delays) first, gives a path,
    and a second one if the first fails.

All matrices here are small (n rarely above 15), so plain LAPACK via numpy
is used for determinants and solves.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    LeftDomain,
    NoConvergence,
    SearchExhausted,
    SingularIB,
    SingularJacobian,
    ZeroAmplitude,
    ZeroWeight,
)
from .quasipoly import ScalarFactor, residual_on_targets

__all__ = [
    "FrequencyTarget",
    "WeightTable",
    "BasePoint",
    "RealizationResult",
    "RealizeConfig",
    "index_vectors",
    "cal_I",
    "cal_I_B",
    "det_cal_I_B_lemma",
    "base_point",
    "delay_candidates",
    "newton_refine",
    "realize",
    "continue_realization",
    "result_factors",
    "circ_dist",
]

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class FrequencyTarget:
    """Positive target frequencies partitioned across factors.

    ``groups[j]`` holds the frequencies assigned to factor j.  Exact
    duplicates anywhere in the flattened vector are rejected up front since
    they trivially violate rational independence; anything subtler is the
    caller's responsibility, since floating-point inputs can never certify
    it (:func:`base_point` refuses targets whose base amplitudes vanish).
    """

    groups: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(float(w) for w in g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups or any(len(g) == 0 for g in groups):
            raise ValueError("every frequency group must be nonempty")
        flat = [w for g in groups for w in g]
        if any(not np.isfinite(w) or w <= 0.0 for w in flat):
            raise ValueError("frequencies must be positive and finite")
        if len(set(flat)) != len(flat):
            raise ValueError("duplicate frequency in target")

    @property
    def r(self) -> int:
        return len(self.groups)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    @property
    def prefix(self) -> tuple[int, ...]:
        """Cumulative group sizes with a leading zero, length r + 1."""
        out = [0]
        for s in self.sizes:
            out.append(out[-1] + s)
        return tuple(out)

    @property
    def n(self) -> int:
        return self.prefix[-1]

    @property
    def flat(self) -> np.ndarray:
        return np.array([w for g in self.groups for w in g], dtype=float)

    @property
    def row_group(self) -> np.ndarray:
        """Group index of each flattened row."""
        return np.repeat(np.arange(self.r), self.sizes)

    def scaled(self, c: float) -> "FrequencyTarget":
        return FrequencyTarget(tuple(tuple(c * w for w in g) for g in self.groups))

    def to_dict(self) -> dict:
        return {"groups": [list(g) for g in self.groups]}


@dataclass(frozen=True)
class WeightTable:
    """Fixed weights b[j][k]: one row per factor, one column per delay.

    Zero entries are representable (needed to report ring degeneracies) but
    :meth:`require_nonzero` must pass before a realization is attempted.
    """

    b: np.ndarray

    def __post_init__(self):
        b = np.array(self.b, dtype=float)
        if b.ndim != 2 or b.size == 0:
            raise ValueError("weight table must be a nonempty 2-D array")
        if not np.all(np.isfinite(b)):
            raise ValueError("weight table entries must be finite")
        b.setflags(write=False)
        object.__setattr__(self, "b", b)

    @classmethod
    def ones(cls, n: int, r: int = 1) -> "WeightTable":
        return cls(np.ones((r, n)))

    @property
    def r(self) -> int:
        return self.b.shape[0]

    @property
    def n(self) -> int:
        return self.b.shape[1]

    def require_nonzero(self) -> None:
        rows, cols = np.nonzero(self.b == 0.0)
        if rows.size:
            raise ZeroWeight(int(rows[0]) + 1, int(cols[0]) + 1)

    def to_dict(self) -> dict:
        return {"weights": self.b.tolist()}


@dataclass(frozen=True)
class BasePoint:
    """Linearization data at quarter-turn base angles.

    ``calIB`` is the stacked sign-and-weight matrix, ``amplitudes`` solves
    calIB @ amplitudes = omega, ``sign_matrix`` holds the sign pattern (the
    paper's block pattern from :func:`base_point`, or the orthants the
    sweep chose) and ``target_angles`` the corresponding angles (3*pi/2 for
    +, pi/2 for -), row = frequency index, column = delay index.
    """

    calIB: np.ndarray
    amplitudes: np.ndarray
    sign_matrix: np.ndarray
    target_angles: np.ndarray


@dataclass(frozen=True)
class RealizationResult:
    """Realized delays and coefficients plus solver diagnostics.

    ``residual`` is max |D_j(i w)| over every assigned target, recomputed by
    direct factor evaluation after the solve.  ``search_window`` holds the
    winning path's start offsets max_i |d0[i, k]| (radians) against the
    orthants its start chose, and ``newton_iterations`` its corrector plus
    landing iterations.  The base point is not kept: it is scaffolding of
    the construction.
    ``from_dict`` ignores the ``base`` key that older result files carry.
    """

    taus: np.ndarray
    coeffs: np.ndarray
    residual: float
    newton_iterations: int
    search_window: np.ndarray

    def to_dict(self) -> dict:
        return {
            "taus": self.taus.tolist(),
            "coeffs": self.coeffs.tolist(),
            "residual": self.residual,
            "newton_iterations": self.newton_iterations,
            "search_window": self.search_window.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RealizationResult":
        return cls(
            np.array(data["taus"], dtype=float),
            np.array(data["coeffs"], dtype=float),
            float(data["residual"]),
            int(data["newton_iterations"]),
            np.array(data.get("search_window", [0.0] * len(data["taus"])), dtype=float),
        )


@dataclass(frozen=True)
class RealizeConfig:
    """Solver knobs: the residual tolerance, the sweep radii tried in turn
    (one continuation path each), the sweep budget in grid points and the
    landing Newton's iteration cap.
    ``from_dict`` ignores unknown keys, such as the ``seed`` that older
    files carry."""

    tol: float = 1e-10
    epsilon_schedule: tuple[float, ...] = (0.8, 1.0, 1.2, 1.4, 0.4, 0.3, 0.2, 0.1)
    budget: int = 10_000_000
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol > 0.0:  # also refuses NaN
            raise ValueError("tol must be positive")
        if not self.epsilon_schedule:
            raise ValueError("epsilon schedule must be nonempty")
        if not all(0.0 < eps < 0.5 * np.pi for eps in self.epsilon_schedule):
            raise ValueError("every epsilon must lie in (0, pi/2)")
        object.__setattr__(self, "budget", _count(self.budget, "budget"))
        object.__setattr__(self, "max_iter", _count(self.max_iter, "max_iter"))

    @classmethod
    def from_dict(cls, data: dict | None) -> "RealizeConfig":
        data = dict(data or {})
        kwargs = {}
        for key in ("tol", "budget", "max_iter"):
            if key in data:
                kwargs[key] = data[key]
        if "epsilon_schedule" in data:
            kwargs["epsilon_schedule"] = tuple(float(e) for e in data["epsilon_schedule"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "epsilon_schedule": list(self.epsilon_schedule),
            "budget": self.budget,
            "max_iter": self.max_iter,
        }


def _count(value, name: str) -> int:
    """value as an int, if it is an integral number >= 1 (so a JSON 1e7
    reads as 10_000_000)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if not (float(value).is_integer() and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Sign vectors and stacked weight matrices


def index_vectors(m: int) -> list[np.ndarray]:
    """Sign vectors v_1..v_m: v_j has +1 in the first m-j+1 slots, -1 after."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = []
    for j in range(1, m + 1):
        v = np.ones(m)
        if j > 1:
            v[m - (j - 1):] = -1.0
        out.append(v)
    return out


def cal_I(m: int) -> np.ndarray:
    """Invertible m-by-m matrix whose columns are the sign vectors."""
    return np.column_stack(index_vectors(m))


def _block_signs(target: FrequencyTarget) -> np.ndarray:
    """Sign pattern of the stacked matrix: +1 outside a group's own column
    range; inside it, row l and local column c carry +1 iff l + c < group
    size (0-based), reproducing the sign-vector columns blockwise."""
    n = target.n
    signs = np.ones((n, n))
    mu = target.prefix
    for j, lj in enumerate(target.sizes):
        r0, c0 = mu[j], mu[j]
        for l in range(lj):
            for c in range(lj):
                if l + c >= lj:
                    signs[r0 + l, c0 + c] = -1.0
    return signs


def cal_I_B(weights: WeightTable, target: FrequencyTarget) -> np.ndarray:
    """Stacked sign-and-weight matrix: row-replicated weights times signs."""
    _check_shapes(weights, target)
    weights.require_nonzero()
    rows = np.repeat(weights.b, target.sizes, axis=0)
    return rows * _block_signs(target)


def det_cal_I_B_lemma(weights: WeightTable, target: FrequencyTarget) -> float:
    """Closed-form determinant of the stacked matrix, sign included.

    Inside group j, subtracting row l + 1 from row l (l < l_j - 1) leaves
    the single entry 2 * b[j][mu_j + l_j - 1 - l] in row l, so these pivots
    run along the block's anti-diagonal.  Expanding along them gives, per
    group, (-1)^(l_j (l_j - 1) / 2) * 2^(l_j - 1) times the non-leading
    in-group weights; each group's last row remains, and on the groups'
    leading columns it forms the r-by-r leading-weight matrix.
    """
    _check_shapes(weights, target)
    weights.require_nonzero()
    mu = target.prefix
    value = 1.0
    for j, lj in enumerate(target.sizes):
        value *= (-1.0) ** (lj * (lj - 1) // 2) * 2.0 ** (lj - 1)
        for s in range(2, lj + 1):
            value *= weights.b[j, mu[j] + s - 1]
    return value * float(np.linalg.det(weights.b[:, list(mu[:-1])]))


def _check_shapes(weights: WeightTable, target: FrequencyTarget) -> None:
    if weights.b.shape != (target.r, target.n):
        raise ValueError(
            f"weight table shape {weights.b.shape} does not match "
            f"target partition ({target.r} groups, {target.n} frequencies)"
        )


def base_point(target: FrequencyTarget, weights: WeightTable | None = None) -> BasePoint:
    """Solve the linearized system at the quarter-turn angles.

    Raises SingularIB when the stacked matrix is numerically singular
    (relative to its Hadamard bound) and ZeroAmplitude when a solved
    amplitude is below 1e-12 times the frequency norm, which signals a
    near-rational target.
    """
    weights = _default_weights(weights, target)
    return _solved_base(target, cal_I_B(weights, target), _block_signs(target))


def _solved_base(target: FrequencyTarget, mat: np.ndarray, signs: np.ndarray) -> BasePoint:
    """The base point of the stacked matrix mat, whose sign pattern is
    signs; raises as :func:`base_point` describes."""
    hadamard = float(np.prod(np.linalg.norm(mat, axis=0)))
    det = float(np.linalg.det(mat))
    if abs(det) <= 1e-12 * max(hadamard, 1e-300):
        raise SingularIB(f"stacked weight matrix is singular (det {det:.3e})")
    omega = target.flat
    amps = np.linalg.solve(mat, omega)
    limit = 1e-12 * float(np.linalg.norm(omega))
    small = np.nonzero(np.abs(amps) < limit)[0]
    if small.size:
        k = int(small[0])
        raise ZeroAmplitude(k + 1, float(amps[k]))
    angles = np.where(signs > 0, 1.5 * np.pi, 0.5 * np.pi)
    return BasePoint(mat, amps, signs, angles)


def _orthant_base(target: FrequencyTarget, weights: WeightTable, taus: np.ndarray) -> BasePoint:
    """The base point whose column k holds the quarter turns nearest the
    angles w*tau_k: sign +1 where 3*pi/2 is nearer, -1 where pi/2 is."""
    phase = np.mod(np.multiply.outer(target.flat, taus), _TWO_PI)
    signs = np.where(circ_dist(phase, 1.5 * np.pi) < circ_dist(phase, 0.5 * np.pi), 1.0, -1.0)
    return _solved_base(target, np.repeat(weights.b, target.sizes, axis=0) * signs, signs)


def _default_weights(weights: WeightTable | None, target: FrequencyTarget) -> WeightTable:
    if weights is None:
        return WeightTable.ones(target.n, target.r)
    return weights


# ---------------------------------------------------------------------------
# Dense-torus delay search


def circ_dist(x, y):
    """Distance on the circle of circumference 2*pi, elementwise."""
    return np.abs(np.mod(np.asarray(x) - np.asarray(y) + np.pi, _TWO_PI) - np.pi)


def _phase_offsets(omega: np.ndarray, angles: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """wrap(w_i tau_k - angles[i, k]) in [-pi, pi); its abs is circ_dist's, bit for bit."""
    phase = np.mod(np.multiply.outer(omega, taus), _TWO_PI)
    return np.mod(phase - angles + np.pi, _TWO_PI) - np.pi


def _column_distance(omega: np.ndarray, angles_col: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Worst angular error of each candidate tau against one angle column."""
    return np.abs(_phase_offsets(omega, angles_col[:, None], taus)).max(axis=0)


def _quarter_turn_offset(omega, taus: np.ndarray) -> np.ndarray:
    """Distance of each angle w*tau to the nearest quarter turn, shape
    np.shape(omega) + taus.shape.

    With u = tau * (2w/pi), the quarter turns pi/2 + m*pi are the odd u,
    and u - 2 floor(u/2) - 1 is the signed distance to the nearest one in
    quarter-turn units; multiply and floor cost a fraction of a cosine or
    a float mod.  Every quarter-turn column's exact distance in that row
    is at least this offset less :func:`_offset_slack`.
    """
    u = np.multiply.outer(omega * (2.0 / np.pi), taus)
    return (0.5 * np.pi) * np.abs(u - 2.0 * np.floor(0.5 * u) - 1.0)


def _offset_slack(tau_max: float, w_max: float) -> float:
    """Rounding allowance between :func:`_quarter_turn_offset` and
    :func:`_column_distance` for phases up to x = tau_max * w_max.

    The offset rounds tau*w in fl(2/pi)*w and in the product, a relative
    error of about 3.3e-16 in x; u - 2 floor(u/2) is exact, and the final
    -1 and *pi/2 add under 4e-16.  The exact test rounds tau*w (1.1e-16 x),
    reduces it by fl(2*pi) rather than 2*pi (4e-17 x), and rounds a few
    numbers below 2*pi in circ_dist (under 4e-15).  So the offset can
    exceed a true column distance by at most about 5e-16 x + 5e-15,
    which 1e-15 x + 1e-12 covers.
    """
    return 1e-12 + 1e-15 * tau_max * w_max


def _refine_candidate(omega, angles_col, tau, halfwidth):
    """First argmin of the column distance over an even scan of 4097
    points of [tau - halfwidth, tau + halfwidth], clipped below at
    halfwidth/4.

    The distance is measured exactly at every 64th scan point first.  It
    is Lipschitz in tau with constant max(omega), so between two such
    points, gap apart, with distances d0 and d1, it stays above
    (d0 + d1 - max(omega) * gap) / 2; less twice :func:`_offset_slack`,
    which covers the rounding at both ends, that bound holds for the
    computed distances too.  Only the blocks whose bound does not exceed
    the best coarse distance are measured in full: they hold every scan
    point at or below it, so the first argmin is the full scan's.
    """
    grid = np.linspace(max(tau - halfwidth, 0.25 * halfwidth), tau + halfwidth, 64 * 64 + 1)
    coarse = _column_distance(omega, angles_col, grid[::64])
    w_max = float(omega.max())
    low = 0.5 * (coarse[:-1] + coarse[1:] - w_max * np.diff(grid[::64]))
    blocks = np.nonzero(low - 2.0 * _offset_slack(float(grid[-1]), w_max) <= coarse.min())[0]
    inner = (64 * blocks[:, None] + np.arange(1, 64)).ravel()
    dist = _column_distance(omega, angles_col, grid[inner])
    k = int(np.argmin(coarse))
    best = (float(coarse[k]), 64 * k)  # (distance, scan index): ties go to the first
    if inner.size:
        j = int(np.argmin(dist))
        best = min(best, (float(dist[j]), int(inner[j])))
    return float(grid[best[1]]), best[0]


def _sharpened(omega, angles_col, tau, step, epsilon) -> float:
    """A hit tau sharpened by :func:`_refine_candidate` if the scan's best
    stays within epsilon of the same column, else tau itself."""
    refined, distance = _refine_candidate(omega, angles_col, tau, step)
    return refined if distance < epsilon else tau


def _quarter_turn_survivors(first: int, last: int, step: float, omega: np.ndarray,
                            reach: float) -> np.ndarray:
    """The ascending grid taus i*step, first <= i <= last, with step =
    2*pi/(64*max(omega)), at which every angle w*tau may lie within reach
    of a quarter turn: a superset of the taus that :func:`_column_distance`
    puts within reach of any quarter-turn column.

    The w_max row is decided by the residue m of i mod 64: its angle is
    i*pi/32 up to rounding, min(|m - 16|, |m - 48|) * pi/32 from the
    nearest quarter turn.  Only the indices whose residue is within reach,
    padded by one residue on each side, are enumerated, and only their
    taus are built.  The padding covers a rounding of up to pi/32; the
    rounding is about 4e-16 * i * pi/32, so it holds for every index
    below 2**50, far beyond any budget the sweep can work through.  Every
    other row is decided by its quarter-turn offset against reach plus
    the slack at the largest tau.
    """
    m = np.arange(64)
    quarter = np.minimum(np.abs(m - 16), np.abs(m - 48))
    residues = m[(quarter - 1) * (np.pi / 32.0) < reach]
    blocks = np.arange(first // 64, last // 64 + 1, dtype=np.int64)
    ids = (64 * blocks[:, None] + residues).ravel()
    taus = ids[np.searchsorted(ids, first):np.searchsorted(ids, last, "right")] * step
    top = int(np.argmax(omega))
    if taus.size:
        bound = reach + _offset_slack(float(taus[-1]), float(omega[top]))
        for w in np.delete(omega, top):
            taus = taus[_quarter_turn_offset(w, taus) < bound]
    return taus


def _grid_step(omega: np.ndarray) -> float:
    """The sweep's grid step, 1/64 of a turn of the largest frequency."""
    return _TWO_PI / (64.0 * float(omega.max()))


def _sweep(omega: np.ndarray, budget: int, reach, visit) -> bool:
    """Walk the grid tau = i*step, i = 1..budget, step = 2*pi/(64*max(omega)),
    until visit returns True (then return True) or the budget runs out.

    Chunks start at 1024 points and double up to 65536.  Each is gated by
    :func:`_quarter_turn_survivors` at reach(), and its survivors get one
    phase table mod 2*pi; visit(grid, d_half, d_3half) receives them with
    every row's distance to pi/2 and to 3*pi/2.  A quarter-turn column's
    distance is then an elementwise pick from the two and a maximum over
    rows, which is the arithmetic of :func:`_column_distance`, bit for bit.
    """
    step = _grid_step(omega)
    done, chunk = 0, 1 << 10
    while done < budget:
        count = min(chunk, budget - done)
        grid = _quarter_turn_survivors(done + 1, done + count, step, omega, reach())
        # one row per frequency, so that a column's worst row is an
        # elementwise maximum over n rows
        phase = np.mod(np.multiply.outer(omega, grid), _TWO_PI)
        if visit(grid, circ_dist(phase, 0.5 * np.pi), circ_dist(phase, 1.5 * np.pi)):
            return True
        done += count
        chunk = min(2 * chunk, 1 << 16)
    return False


class _Span:
    """Orthonormal basis of accepted columns and their volume relative to
    Hadamard's bound, the product of each column's share outside the span
    of those before it; that product is |det| / prod |column| once the
    basis is square, the test :func:`base_point` applies."""

    def __init__(self, n: int):
        self.basis = np.zeros((n, 0))
        self.volume = 1.0

    def _shares(self, cols: np.ndarray):
        """Each column's part outside the span, and its share of the column's norm."""
        rest = cols - self.basis @ (self.basis.T @ cols)
        rest -= self.basis @ (self.basis.T @ rest)  # reorthogonalized
        return rest, np.linalg.norm(rest, axis=0) / np.linalg.norm(cols, axis=0)

    def extends(self, cols: np.ndarray) -> np.ndarray:
        """Per column: would it keep the volume above 1e-12?"""
        return self.volume * self._shares(cols)[1] > 1e-12

    def add(self, col: np.ndarray) -> bool:
        """Accept col if it keeps the volume above 1e-12."""
        rest, share = self._shares(col[:, None])
        if not self.volume * share[0] > 1e-12:
            return False
        self.volume *= float(share[0])
        self.basis = np.column_stack([self.basis, rest / np.linalg.norm(rest)])
        return True


def _orthant_search(omega: np.ndarray, brows: np.ndarray, epsilon: float, budget: int,
                    skip: np.ndarray | None = None) -> tuple[list[float], _Span]:
    """The sweep's choice of orthants (see :func:`delay_candidates`),
    passing over the orthant whose rows nearer 3*pi/2 are ``skip``: the
    delays found, n of them unless the budget ran out, and their span."""
    n = omega.size
    step = _grid_step(omega)
    span, taus = _Span(n), []
    seen = set() if skip is None else {np.asarray(skip, dtype=bool).tobytes()}

    def visit(grid, d_half, d_3half):
        hits = np.nonzero(np.minimum(d_half, d_3half).max(axis=0) < epsilon)[0]
        upper = d_3half[:, hits] < d_half[:, hits]  # the rows nearer 3*pi/2
        # a new orthant can only start where the hits' orthant changes
        starts = np.r_[True, np.any(upper[:, 1:] != upper[:, :-1], axis=0)][:hits.size]
        for j in np.nonzero(starts)[0]:
            key = upper[:, j].tobytes()
            if key in seen:
                continue
            seen.add(key)
            if span.add(brows[:, len(taus)] * np.where(upper[:, j], 1.0, -1.0)):
                angles = np.where(upper[:, j], 1.5 * np.pi, 0.5 * np.pi)
                taus.append(_sharpened(omega, angles, float(grid[hits[j]]), step, epsilon))
                if len(taus) == n:
                    return True
        return False

    _sweep(omega, budget, lambda: epsilon, visit)
    return taus, span


def _outside_distance(omega: np.ndarray, brows: np.ndarray, span: _Span, budget: int) -> float:
    """Smallest quarter-turn distance over the budget of a grid point whose
    orthant, as column k = span size, lies outside the span: a sweep
    whose gate starts open and closes to the running best."""
    k, best = span.basis.shape[1], [np.inf]

    def visit(grid, d_half, d_3half):
        dist = np.minimum(d_half, d_3half).max(axis=0)
        near = np.nonzero(dist < best[0])[0]
        signs = np.where(d_3half[:, near] < d_half[:, near], 1.0, -1.0)
        outside = span.extends(brows[:, k, None] * signs)
        best[0] = min(best[0], float(dist[near][outside].min(initial=np.inf)))
        return False

    _sweep(omega, budget, lambda: best[0], visit)
    return best[0]


def delay_candidates(
    target: FrequencyTarget,
    weights: WeightTable,
    epsilon: float,
    budget: int = 10_000_000,
) -> np.ndarray:
    """Start delays within epsilon of n independent quarter-turn orthants,
    one per column, in the order the torus line reaches them.

    One sweep over the grid tau = i*step, i = 1..budget, step =
    2*pi/(64*max(omega)), serves every column: a step this fine cannot
    jump across an epsilon-window for the schedule used here.  A grid
    point is a hit when every angle w_i*tau lies within epsilon of a
    quarter turn, and the quarter turns it is near, 3*pi/2 or pi/2 per
    row, name its orthant.  The gate applies that test to each chunk of
    the grid, row by row:

    * the w_max row by residue: its angle at index i is i*pi/32 up to
      rounding, so only the indices with a residue mod 64 near 16 or 48
      are enumerated, and only their taus are built;
    * every other row by :func:`_quarter_turn_offset`, a multiply and a
      floor, keeping the points whose offset is below epsilon plus
      :func:`_offset_slack` (evaluated at the chunk's largest tau); see
      :func:`_quarter_turn_survivors`.

    The offset less that slack is a lower bound on every exact column
    distance, so the gate passes a proven superset of the hits, and the
    exact test decides (see :func:`_sweep`).

    Hits are taken in grid order, the first of each orthant only, and the
    orthant with signs s becomes the next column k when the weighted
    column b[:, k] * s (weights repeated over each group's rows) keeps the
    columns so far independent by the Hadamard-relative test of
    :func:`base_point`.  For one group this greedy basis has the smallest
    possible largest delay.  Each chosen hit is sharpened by a local scan
    (:func:`_refine_candidate`).  The sign of row i in column k is +1
    where w_i*tau_k is nearer 3*pi/2 and -1 where nearer pi/2, so the
    delays name their base.  When the budget runs out, SearchExhausted
    gives the number of columns found and the smallest quarter-turn
    distance over the budget of a grid point whose orthant, as the next
    column, lies outside their span, from a second sweep gated at its
    running best.  A successful search never pays for that second sweep.
    """
    if not (0.0 < epsilon < 0.5 * np.pi):
        raise ValueError("epsilon must lie in (0, pi/2)")
    budget = _count(budget, "budget")
    _check_shapes(weights, target)
    weights.require_nonzero()
    omega = target.flat
    brows = np.repeat(weights.b, target.sizes, axis=0)
    taus, span = _orthant_search(omega, brows, epsilon, budget)
    if len(taus) < omega.size:
        raise SearchExhausted(len(taus), _outside_distance(omega, brows, span, budget))
    return np.array(taus)


def achieved_windows(target: FrequencyTarget, base: BasePoint, taus: np.ndarray) -> np.ndarray:
    """Per-delay worst angular error of a candidate vector."""
    return np.abs(_phase_offsets(target.flat, base.target_angles, taus)).max(axis=0)


# ---------------------------------------------------------------------------
# Continuation and Newton


def _system(target: FrequencyTarget, weights: WeightTable):
    omega = target.flat
    n = omega.size
    brows = np.repeat(weights.b, target.sizes, axis=0)
    dtau = (-1j * omega)[:, None]

    def complex_rows(taus, coeffs, offset=0.0):
        ph = brows * np.exp(-1j * (np.multiply.outer(omega, taus) - offset))
        return ph @ coeffs - 1j * omega, ph

    def jacobian(taus, coeffs, ph, out=None):
        # real parts on top, imaginary parts below; into out[:2n, :2n] if given
        full = np.concatenate([dtau * ph * coeffs, ph], axis=1)
        out = np.empty((2 * n, 2 * n)) if out is None else out
        out[:n, :2 * n], out[n:2 * n, :2 * n] = full.real, full.imag
        return out

    return complex_rows, jacobian


# Continuation: step cap per path, the residual the corrector reaches
# along it (the landing Newton then polishes to the solve tolerance), and
# the growth of max |a| over max(1, max |a| at the start) that ends a path
# as diverged (landed paths stay below about 400).
_PATH_STEPS = 300
_PATH_TOL = 1e-3
_PATH_GROWTH = 1e4


def _trace_path(target: FrequencyTarget, weights: WeightTable, taus0: np.ndarray,
                amps0: np.ndarray, d0: np.ndarray) -> tuple[np.ndarray, int]:
    """Pseudo-arclength continuation (Allgower and Georg) of H(tau, a, s) = 0,
    the system with phases w_i tau_k - (1 - s) d0[i, k], from (taus0, amps0,
    0) to s = 1, where it returns the interpolated point and the corrections.
    The tangent solves the Jacobian bordered by the last one (first by the s
    axis), and Newton bordered by the tangent corrects.  A step doubles after
    one correction, predicts no further than s = 1.05, and halves when four
    miss _PATH_TOL, one fails to shrink the residual, or a delay leaves
    tau > 0.  Step underflow, s < -0.5 or _PATH_STEPS raise NoConvergence,
    and so does an accepted point whose max |a| exceeds _PATH_GROWTH times
    max(1, max |amps0|): such paths run off to infinity and never land."""
    n = target.n
    complex_rows, jacobian = _system(target, weights)
    amp_cap = _PATH_GROWTH * max(1.0, float(np.abs(amps0).max()))
    mat, unit = np.eye(2 * n + 1), np.eye(2 * n + 1)[-1]  # first border: the s axis

    def rows_at(x):  # H at x; its Jacobian goes into mat above the border
        taus, coeffs = x[:n], x[n:-1]
        rows, ph = complex_rows(taus, coeffs, (1.0 - x[-1]) * d0)
        jacobian(taus, coeffs, ph, mat)
        ds = (ph * d0) @ coeffs
        mat[:n, -1], mat[n:-1, -1] = ds.imag, -ds.real
        return rows, float(np.abs(rows).max())

    def next_tangent():
        t = np.linalg.solve(mat, unit)
        mat[-1] = t / np.linalg.norm(t)
        return mat[-1].copy()

    x = np.concatenate([taus0, amps0, [0.0]])
    rows_at(x)
    tangent, h, iterations, step = next_tangent(), 1.0, 0, 0
    while step < _PATH_STEPS and h >= 1e-6 and x[-1] >= -0.5:
        step += 1
        if tangent[-1] > 0.0:
            h = min(h, (1.05 - x[-1]) / tangent[-1])
        y, norm = x + h * tangent, np.inf
        try:
            for k in range(5):
                previous = norm
                rows, norm = rows_at(y)
                if norm < _PATH_TOL or k == 4 or norm >= previous:
                    break
                rhs = np.concatenate([rows.real, rows.imag, [tangent @ (y - x) - h]])
                y -= np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            norm = np.inf
        if not norm < _PATH_TOL or np.any(y[:n] <= 0.0):
            h *= 0.5
            continue
        iterations += k
        amp = float(np.abs(y[n:-1]).max())
        if amp > amp_cap:
            raise NoConvergence(norm, f"path diverged (max |a| {amp:.3g}) at s = {y[-1]:.6g} "
                                      f"after {step} steps")
        if y[-1] >= 1.0:
            return x + (1.0 - x[-1]) / (y[-1] - x[-1]) * (y - x), iterations
        x, tangent = y, next_tangent()
        h *= 2.0 if k <= 1 else 1.0
    why = "step underflow" if h < 1e-6 else "turned back" if x[-1] < -0.5 else "step cap"
    raise NoConvergence(
        norm, f"path stalled ({why}) at s = {x[-1]:.6g} after {step} steps, residual {norm:.2e}")


def newton_refine(
    taus0: Sequence[float],
    coeffs0: Sequence[float],
    target: FrequencyTarget,
    weights: WeightTable | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
    search_window: np.ndarray | None = None,
) -> RealizationResult:
    """Plain Newton on the 2n-real realization system.

    The residual norm is max |row| over the complex rows.  An unusable
    Jacobian raises SingularJacobian, and missing tol within max_iter
    steps raises NoConvergence with the final residual.  The step from the
    first iterate below tol is the last, kept if it lowers the residual: it
    takes the result to the rounding floor whatever tol is.  Without
    ``search_window`` the result records zeros, as
    :meth:`RealizationResult.from_dict` does for files that lack it.
    """
    weights = _default_weights(weights, target)
    _check_shapes(weights, target)
    weights.require_nonzero()
    taus = np.array(taus0, dtype=float).copy()
    coeffs = np.array(coeffs0, dtype=float).copy()
    n = target.n
    if taus.shape != (n,) or coeffs.shape != (n,):
        raise ValueError("starting point has wrong dimensions")
    complex_rows, jacobian = _system(target, weights)

    rows, ph = complex_rows(taus, coeffs)
    norm = float(np.abs(rows).max())
    iterations, last = 0, norm < tol
    while not last and iterations < max_iter:
        jac = jacobian(taus, coeffs, ph)
        if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > 1e15:
            raise SingularJacobian(f"Jacobian unusable at iteration {iterations}")
        try:
            delta = np.linalg.solve(jac, -np.concatenate([rows.real, rows.imag]))
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        last, step = norm < tol, (taus + delta[:n], coeffs + delta[n:])
        step_rows, step_ph = complex_rows(*step)
        step_norm = float(np.abs(step_rows).max())
        if not (last and step_norm >= norm):
            (taus, coeffs), rows, ph, norm = step, step_rows, step_ph, step_norm
            iterations += 1
    if not norm < tol:
        raise NoConvergence(norm, f"Newton: residual {norm:.3e} after {iterations} iterations")
    if search_window is None:
        search_window = np.zeros(n)
    return RealizationResult(
        taus=taus,
        coeffs=coeffs,
        residual=norm,
        newton_iterations=iterations,
        search_window=np.asarray(search_window, dtype=float),
    )


# ---------------------------------------------------------------------------
# Top-level drivers


def _factors(taus, coeffs, weights: WeightTable) -> list[ScalarFactor]:
    out = []
    for j in range(weights.r):
        terms = tuple(
            (float(coeffs[k]), float(weights.b[j, k]), float(taus[k]))
            for k in range(weights.n)
        )
        out.append(ScalarFactor(terms))
    return out


def result_factors(result: RealizationResult, weights: WeightTable) -> list[ScalarFactor]:
    """One scalar factor per weight row, built from realized (tau, a)."""
    return _factors(result.taus, result.coeffs, weights)


def realize(
    target: FrequencyTarget,
    weights: WeightTable | None = None,
    config: RealizeConfig | None = None,
) -> RealizationResult:
    """Full pipeline: per epsilon rung, sweep for a base, then path, landing, recheck.

    Frequencies are rescaled so max(omega) = 1 during the solve (the
    defining equations are exactly covariant under (tau, a, omega) ->
    (tau/c, c a, c omega)) and mapped back afterwards.  :func:`base_point`
    at the paper's index-vector signs is a precondition only through
    ZeroAmplitude, which refuses a near-rational target whenever that base
    is nonsingular; a singular paper base (SingularIB, possible only for
    n >= 2) refuses nothing.  For n >= 2 each rung's sweep chooses the
    base itself: :func:`delay_candidates` takes n independent quarter-turn
    orthants in the order the torus line reaches them, and the path starts
    from those hits and the base they name; if it fails, the rung tries
    once more with the last orthant replaced (see :func:`_starts`).  For
    n = 1 the closed form tau = 3*pi/(2w), a = w stands.  If no rung lands
    and passes the recheck, the last rung's error is raised with a message
    that names every rung's failure.

    For one group the columns b_k * s are independent exactly when the
    sign vectors s are, so once a sweep runs out with best distance d,
    every grid point within a smaller epsilon <= d lies in the span of
    the orthants found: a later rung with epsilon at most d runs out too,
    and is skipped.  For several groups an orthant passed over as one
    column may be independent as the next, and every rung sweeps.
    """
    config = config or RealizeConfig()
    weights = _default_weights(weights, target)
    _check_shapes(weights, target)
    weights.require_nonzero()

    scale = float(target.flat.max())
    scaled = target.scaled(1.0 / scale)
    try:
        paper = base_point(scaled, weights)
    except SingularIB:
        # only n = 1 starts from the paper's base, and with its one weight
        # nonzero that base is never singular
        paper = None
    failures = []
    spent = None  # a one-group sweep's SearchExhausted, which bounds later rungs
    for eps in config.epsilon_schedule:
        if spent is not None and eps <= spent.best_distance:
            failures.append(f"eps {eps}: skipped (no usable grid point nearer than "
                            f"{spent.best_distance:.4f} rad)")
            last = spent
            continue
        try:
            for label, base, taus0 in _starts(scaled, weights, paper, eps, config.budget):
                try:
                    d0 = _phase_offsets(scaled.flat, base.target_angles, taus0)
                    x, corrections = _trace_path(scaled, weights, taus0, base.amplitudes, d0)
                    partial = newton_refine(*np.split(x[:-1], 2), scaled, weights,
                                            tol=config.tol / scale, max_iter=config.max_iter,
                                            search_window=np.abs(d0).max(axis=0))
                    taus, coeffs = partial.taus / scale, partial.coeffs * scale
                    if np.any(taus <= 0.0) or np.any(coeffs == 0.0):
                        raise LeftDomain("landed outside the admissible region")
                    residual = _verified_residual(taus, coeffs, target, weights)
                    if not residual < config.tol:
                        raise NoConvergence(residual, "independent recheck above tolerance")
                    return replace(partial, taus=taus, coeffs=coeffs, residual=residual,
                                   newton_iterations=corrections + partial.newton_iterations)
                except (NoConvergence, LeftDomain, SingularJacobian) as exc:
                    failures.append(f"{label}: {exc}")
                    last = exc
        except SearchExhausted as exc:
            if target.r == 1:
                spent = exc
            failures.append(f"eps {eps}: {exc}")
            last = exc
    last.args = ("every epsilon rung failed; " + "; ".join(failures),)
    raise last


def _starts(scaled: FrequencyTarget, weights: WeightTable, paper: BasePoint | None, eps: float,
            budget: int):
    """The (label, base, start delays) a rung tries in turn.  For n = 1 the
    paper's base and its exact delay, the base angle over the frequency,
    with no sweep.  Otherwise the sweep's orthants, and, if their path
    fails, the same sweep passing over the last orthant chosen: the first
    n - 1 stay and the next independent orthant the line reaches replaces
    it.  A path through two merging delays,
    the usual failure, then often lands, at delays far below the next
    rung's or the paper base's.  If the budget holds no such orthant the
    rung ends with the first path's failure."""
    if scaled.n == 1:
        tau = float(paper.target_angles[0, 0]) / float(scaled.flat[0])
        yield f"eps {eps}", paper, np.array([tau])
        return
    taus0 = delay_candidates(scaled, weights, eps, budget)
    base = _orthant_base(scaled, weights, taus0)
    yield f"eps {eps}", base, taus0
    brows = np.repeat(weights.b, scaled.sizes, axis=0)
    taus, _ = _orthant_search(scaled.flat, brows, eps, budget, skip=base.sign_matrix[:, -1] > 0)
    if len(taus) == scaled.n:
        taus0 = np.array(taus)
        yield f"eps {eps}, last orthant replaced", _orthant_base(scaled, weights, taus0), taus0


def _verified_residual(taus, coeffs, target, weights) -> float:
    factors = _factors(taus, coeffs, weights)
    return max(
        residual_on_targets(f, g) for f, g in zip(factors, target.groups)
    )


def continue_realization(
    result: RealizationResult,
    new_target: FrequencyTarget,
    weights: WeightTable | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> RealizationResult:
    """Newton continuation in omega from a previous solution.

    The previous (tau, a) is the predictor; convergence is quadratic for
    small frequency steps.  A too-large step raises NoConvergence and the
    caller is expected to bisect it.
    """
    weights = _default_weights(weights, new_target)
    if len(result.taus) != new_target.n:
        raise ValueError("result dimension does not match the new target")
    refined = newton_refine(
        result.taus,
        result.coeffs,
        new_target,
        weights,
        tol=tol,
        max_iter=max_iter,
        search_window=result.search_window,
    )
    residual = _verified_residual(refined.taus, refined.coeffs, new_target, weights)
    return replace(refined, residual=residual)

