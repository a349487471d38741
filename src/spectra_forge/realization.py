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
    b[j][k] * exp(-i angle).  At the quarter-turn angles chosen here
    (3*pi/2 where the block sign pattern is +, pi/2 where it is -) the
    matrix collapses to i times a real invertible matrix, so the base
    amplitudes follow from one linear solve.
2.  A dense-torus sweep.  Because the flattened frequency vector has no
    rational relation, the line t -> t*omega fills the angle torus densely,
    and each delay column is that line's first visit to within epsilon of
    the column's quarter-turn corner.  One sweep along the line serves
    every column: a cheap gate (|cos(w_i*tau)| < sin(epsilon) in every
    row) discards points far from all corners, and only the survivors are
    tested exactly against each open column.
3.  Damped Newton on the full 2n-real system from that starting point,
    with an epsilon schedule retrying when the basin was missed.

All matrices here are small (n rarely above 10), so plain LAPACK via numpy
is used for determinants and solves.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
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
    "independence_diagnostic",
    "delay_candidates",
    "newton_refine",
    "realize",
    "continue_realization",
    "transversality_at_base",
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
    caller's responsibility (see :func:`independence_diagnostic`).
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
    """Linearization data at the quarter-turn base angles.

    ``calIB`` is the stacked sign-and-weight matrix, ``amplitudes`` solves
    calIB @ amplitudes = omega, ``sign_matrix`` holds the block sign
    pattern and ``target_angles`` the corresponding angles (3*pi/2 for +,
    pi/2 for -), row = frequency index, column = delay index.
    """

    calIB: np.ndarray
    amplitudes: np.ndarray
    sign_matrix: np.ndarray
    target_angles: np.ndarray


@dataclass(frozen=True)
class RealizationResult:
    """Realized delays and coefficients plus solver diagnostics.

    ``residual`` is max |D_j(i w)| over every assigned target, recomputed by
    direct factor evaluation after the solve.  ``search_window`` records,
    per delay, the angular error (radians) of the sweep candidate the
    Newton polish started from.  The base point is not kept: it is
    scaffolding of the construction, and :func:`base_point` rebuilds it
    from the target and the weights.  ``from_dict`` ignores the ``base``
    key that older result files carry.
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
    """Solver knobs: the residual tolerance, the sweep windows tried in
    turn, the sweep budget in grid points and the Newton iteration cap.
    ``from_dict`` ignores unknown keys, such as the ``seed`` that older
    files carry."""

    tol: float = 1e-10
    epsilon_schedule: tuple[float, ...] = (0.4, 0.3, 0.2, 0.1)
    budget: int = 10_000_000
    max_iter: int = 50

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if not self.epsilon_schedule:
            raise ValueError("epsilon schedule must be nonempty")

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
    mat = cal_I_B(weights, target)
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
    signs = _block_signs(target)
    angles = np.where(signs > 0, 1.5 * np.pi, 0.5 * np.pi)
    return BasePoint(mat, amps, signs, angles)


def _default_weights(weights: WeightTable | None, target: FrequencyTarget) -> WeightTable:
    if weights is None:
        return WeightTable.ones(target.n, target.r)
    return weights


# ---------------------------------------------------------------------------
# Rational-relation diagnostic


def independence_diagnostic(
    omegas: Sequence[float], max_coeff: int = 10, tol: float = 1e-9
) -> list[tuple[int, ...]]:
    """Integer relations |c . omega| < tol * |omega| with |c_i| <= max_coeff.

    Warn-only by design: floating-point inputs can never certify rational
    independence, so an empty list means nothing was detected at this
    budget.  The full grid has (2*max_coeff + 1)^n points and is refused
    beyond 1e8.
    """
    if max_coeff < 1:
        raise ValueError("max_coeff must be >= 1")
    w = np.asarray(list(omegas), dtype=float)
    n = w.size
    radix = 2 * max_coeff + 1
    total = radix**n
    if total > 10**8:
        raise BudgetExceeded(f"grid of {total} integer vectors exceeds 1e8")
    threshold = tol * float(np.linalg.norm(w))
    hits: list[tuple[int, ...]] = []
    chunk = 1 << 20
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        coeffs = np.empty((idx.size, n), dtype=np.int64)
        rem = idx
        for pos in range(n - 1, -1, -1):
            rem, digit = np.divmod(rem, radix)
            coeffs[:, pos] = digit - max_coeff
        vals = np.abs(coeffs @ w)
        for h in np.nonzero(vals < threshold)[0]:
            c = tuple(int(x) for x in coeffs[h])
            if any(c):
                hits.append(c)
    return hits


# ---------------------------------------------------------------------------
# Dense-torus delay search


def circ_dist(x, y):
    """Distance on the circle of circumference 2*pi, elementwise."""
    return np.abs(np.mod(np.asarray(x) - np.asarray(y) + np.pi, _TWO_PI) - np.pi)


def _column_distance(omega: np.ndarray, angles_col: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Worst angular error of each candidate tau against one angle column."""
    phase = np.mod(np.multiply.outer(taus, omega), _TWO_PI)
    return circ_dist(phase, angles_col[None, :]).max(axis=1)


def _refine_candidate(omega, angles_col, tau, halfwidth, points=4097):
    grid = np.linspace(max(tau - halfwidth, 0.25 * halfwidth), tau + halfwidth, points)
    dist = _column_distance(omega, angles_col, grid)
    k = int(np.argmin(dist))
    return float(grid[k]), float(dist[k])


def _near_quarter_turns(taus: np.ndarray, omega: np.ndarray, radius: float) -> np.ndarray:
    """The ascending taus whose every angle w_i*tau may lie within radius of
    a quarter turn, i.e. |cos(w_i*tau)| < sin(radius), filtered row by row.

    A strict superset of the taus that _column_distance puts within radius
    of any quarter-turn column: the gate reads the raw phase x = tau*w, the
    exact test x mod fl(2*pi), which is off the true angle by at most about
    4e-17 * x.  The slack bounds that at the largest phase, with room for
    the rounding of cos, sin and circ_dist.
    """
    bound = np.sin(radius) + 1e-12 + 1e-15 * float(taus[-1]) * float(omega.max())
    for w in omega:
        taus = taus[np.abs(np.cos(taus * w)) < bound]
    return taus


def delay_candidates(
    target: FrequencyTarget,
    base: BasePoint,
    epsilon: float,
    budget: int = 10_000_000,
) -> np.ndarray:
    """Smallest tau_k > 0 per column with all angles within epsilon.

    One sweep over the grid tau = (i+1)*step, step = 2*pi/(64*max(omega)),
    serves every column: a step this fine cannot jump across an
    epsilon-window for the schedule used here.  Every base angle is a
    quarter turn, so a grid point can only come within r of a column's
    angles if |cos(w_i*tau)| < sin(r) in every row.  That gate is applied
    row by row to each chunk, and only the survivors get the exact
    per-column distance; each column's first hit is then sharpened by a
    local scan.  The gate radius r is epsilon, widened while some open
    column's best distance so far is larger, so that SearchExhausted
    reports that column's true minimum over the budget.  Raises
    SearchExhausted for the first column that uses up its budget.
    """
    if not (0.0 < epsilon < 0.5 * np.pi):
        raise ValueError("epsilon must lie in (0, pi/2)")
    if budget < 1:
        raise ValueError("budget must be at least one grid point")
    angles = base.target_angles
    if not np.all((angles == 0.5 * np.pi) | (angles == 1.5 * np.pi)):
        raise ValueError("target angles must all be pi/2 or 3*pi/2")
    omega = target.flat
    n = omega.size
    if n == 1:
        # one angle: exact smallest positive solution
        return np.array([float(angles[0, 0]) / float(omega[0])])
    step = _TWO_PI / (64.0 * float(omega.max()))
    taus = np.empty(n)
    best = dict.fromkeys(range(n), np.inf)  # open column -> best distance
    done = 0
    chunk = 1 << 10
    while best and done < budget:
        count = min(chunk, budget - done)
        grid = (done + 1 + np.arange(count)) * step
        reach = max(epsilon, max(best.values()))
        if reach < 0.5 * np.pi:  # a radius of pi/2 or more admits every point
            grid = _near_quarter_turns(grid, omega, reach)
        for k in list(best):
            col = angles[:, k]
            dist = _column_distance(omega, col, grid)
            hits = np.nonzero(dist < epsilon)[0]
            if hits.size:
                tau = float(grid[hits[0]])
                refined, rd = _refine_candidate(omega, col, tau, step)
                taus[k] = refined if rd < epsilon else tau
                del best[k]
            else:
                best[k] = min(best[k], float(dist.min(initial=np.inf)))
        done += count
        chunk = min(2 * chunk, 1 << 16)
    if best:
        index = min(best)
        raise SearchExhausted(index, best[index])
    return taus


def achieved_windows(target: FrequencyTarget, base: BasePoint, taus: np.ndarray) -> np.ndarray:
    """Per-delay worst angular error of a candidate vector."""
    omega = target.flat
    out = np.empty(len(taus))
    for k, tau in enumerate(taus):
        out[k] = float(_column_distance(omega, base.target_angles[:, k], np.array([tau]))[0])
    return out


# ---------------------------------------------------------------------------
# Newton refinement


def _system(target: FrequencyTarget, weights: WeightTable):
    omega = target.flat
    brows = np.repeat(weights.b, target.sizes, axis=0)

    def complex_rows(taus, coeffs):
        ph = np.exp(-1j * np.multiply.outer(omega, taus))
        return (brows * ph) @ coeffs - 1j * omega, ph

    def jacobian(taus, coeffs, ph):
        dtau = (-1j * omega)[:, None] * (brows * ph) * coeffs[None, :]
        da = brows * ph
        top = np.hstack([dtau.real, da.real])
        bot = np.hstack([dtau.imag, da.imag])
        return np.vstack([top, bot])

    return complex_rows, jacobian


def newton_refine(
    taus0: Sequence[float],
    coeffs0: Sequence[float],
    target: FrequencyTarget,
    weights: WeightTable | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
    search_window: np.ndarray | None = None,
) -> RealizationResult:
    """Damped Newton on the 2n-real realization system.

    The residual norm is max |row| over the complex rows.  Steps are halved
    (Armijo on the norm, also rejecting tau <= 0) up to 30 times; a step
    that can only leave the tau > 0 region raises LeftDomain, an unusable
    Jacobian raises SingularJacobian, and hitting max_iter raises
    NoConvergence with the final residual.  Without ``search_window`` the
    result records the final delays' angular errors against the base
    angles.
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
    iterations = 0
    for _ in range(max_iter):
        if norm < tol:
            break
        jac = jacobian(taus, coeffs, ph)
        if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > 1e15:
            raise SingularJacobian(f"Jacobian unusable at iteration {iterations}")
        try:
            delta = np.linalg.solve(jac, -np.concatenate([rows.real, rows.imag]))
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        s = 1.0
        accepted = False
        domain_blocked = False
        for _ in range(30):
            t_new = taus + s * delta[:n]
            c_new = coeffs + s * delta[n:]
            if np.any(t_new <= 0.0):
                domain_blocked = True
                s *= 0.5
                continue
            rows_new, ph_new = complex_rows(t_new, c_new)
            norm_new = float(np.abs(rows_new).max())
            if norm_new <= (1.0 - 1e-4 * s) * norm:
                taus, coeffs, rows, ph, norm = t_new, c_new, rows_new, ph_new, norm_new
                accepted = True
                break
            s *= 0.5
        if not accepted:
            if domain_blocked:
                raise LeftDomain("Newton step cannot keep every delay positive")
            raise NoConvergence(norm, "Newton line search stalled")
        iterations += 1
    if norm >= tol:
        raise NoConvergence(norm)
    if search_window is None:
        search_window = achieved_windows(target, base_point(target, weights), taus)
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
    """Full pipeline: base point, delay sweep, Newton, independent recheck.

    Frequencies are rescaled so max(omega) = 1 during the solve (the
    defining equations are exactly covariant under (tau, a, omega) ->
    (tau/c, c a, c omega)) and mapped back afterwards.  Each epsilon in the
    schedule is attempted in turn; the last failure propagates if all of
    them miss.
    """
    config = config or RealizeConfig()
    weights = _default_weights(weights, target)
    _check_shapes(weights, target)
    weights.require_nonzero()

    scale = float(target.flat.max())
    scaled = target.scaled(1.0 / scale)
    base_s = base_point(scaled, weights)
    tol_scaled = config.tol / scale

    last_err: Exception | None = None
    for eps in config.epsilon_schedule:
        try:
            taus0 = delay_candidates(scaled, base_s, eps, config.budget)
        except SearchExhausted as exc:
            last_err = exc
            continue
        windows = achieved_windows(scaled, base_s, taus0)
        try:
            partial = newton_refine(
                taus0,
                base_s.amplitudes,
                scaled,
                weights,
                tol=tol_scaled,
                max_iter=config.max_iter,
                search_window=windows,
            )
        except (NoConvergence, LeftDomain, SingularJacobian) as exc:
            last_err = exc
            continue
        taus = partial.taus / scale
        coeffs = partial.coeffs * scale
        if np.any(taus <= 0.0) or np.any(coeffs == 0.0):
            last_err = LeftDomain("rescaled solution left the admissible region")
            continue
        residual = _verified_residual(taus, coeffs, target, weights)
        if not (residual < config.tol):
            last_err = NoConvergence(residual, "independent recheck above tolerance")
            continue
        return replace(partial, taus=taus, coeffs=coeffs, residual=residual)
    raise last_err if last_err is not None else NoConvergence(float("nan"))


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


# ---------------------------------------------------------------------------
# Transversality diagnostic


def transversality_at_base(
    target: FrequencyTarget, weights: WeightTable | None = None
) -> float:
    """Closed-form transversality determinant at the base point.

    Nonzero exactly when the realized-solution surface crosses the torus
    flow there; its magnitude is only a conditioning diagnostic.  For a
    single group this reduces to

        prod(omega) * (a_1 ... a_{n-1}) / a_n^{n-1} * det(cal_I(n)).
    """
    weights = _default_weights(weights, target)
    base = base_point(target, weights)
    n, r = target.n, target.r
    if n == 1:
        return float(target.flat[0])
    mu = target.prefix
    sizes = target.sizes
    amps = base.amplitudes
    b = weights.b

    lead = np.array([amps[mu[j + 1] - 1] * b[j, mu[j + 1] - 1] for j in range(r)])
    prefactor = (-1.0) ** (n - 1) * float(np.prod(target.flat)) * float(np.prod(amps[: n - 1]))
    denom = float(np.prod(lead ** np.array(sizes, dtype=float)))
    sign_last_block = (-1.0) ** (sizes[-1] - 1)

    mat = base.calIB.copy()
    for j in range(r):
        col = np.full(sizes[j], lead[j])
        if j == r - 1 and sizes[j] > 1:
            # last group: the rewritten column keeps that block's sign flips
            col = lead[j] * np.where(np.arange(sizes[j]) == 0, 1.0, -1.0)
        mat[mu[j]: mu[j + 1], n - 1] = col
    value = prefactor / denom * sign_last_block * float(np.linalg.det(mat))
    return value
