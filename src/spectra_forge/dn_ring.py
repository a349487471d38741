"""Rings of n identical one-dimensional cells with dihedral symmetry.

A ring is described by the internal-dynamics delay profile of one cell plus
one coupling profile per neighbour distance (distance d pairs cell i with
cells i +- d; for even n the distance n/2 neighbour is the single opposite
cell).  Mirror symmetry makes the full n-by-n kernel a symmetric circulant,
so the characteristic determinant splits into scalar factors

    D_j(lam) = lam - F(lam) - G_j(lam),      j = 0 .. floor(n/2),

where F comes from the internal profile and G_j weighs each coupling
profile by 2*cos(2*pi*(k-1)*j/n) for paired neighbours and by (-1)^j for
the opposite cell.  Factor 0 appears once, factor n/2 (even n) once, all
others twice.

A direct eigendecomposition of the circulant confirms those weights.  All
of them come from one table of 2*cos(2*pi*m/n), exact where the cosine is
rational.  The reduced matrices printed in the paper carry twice these
values (4*cos instead of 2*cos) in their coupling columns; :func:`build_B`
returns that printed matrix, and :func:`singular_selection` decides on it,
since doubling a column changes no singularity.
"""
from __future__ import annotations

import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import BadIndex, BadParity, SingularB
from .quasipoly import CharProduct, ScalarFactor, _count, _needs, _whole
from .realization import (
    FrequencyTarget,
    RealizationResult,
    RealizeConfig,
    WeightTable,
    _singular_det,
    realize,
)

__all__ = [
    "CouplingProfile",
    "RingSpec",
    "Edge",
    "ConnectionList",
    "EquivarianceReport",
    "validate_equivariance",
    "factor_weights",
    "characteristic_factorization",
    "build_B",
    "det_B_two_factor",
    "singular_selection",
    "detect_even_degeneracy",
    "ring_weight_table",
    "realize_ring",
    "ring_to_dict",
    "ring_from_dict",
]


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class CouplingProfile:
    """Finite sum of point delays: atoms (alpha, s) contribute
    alpha * x(t - s).  An empty profile means no connection."""

    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        atoms = tuple((float(a), float(s)) for a, s in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        for a, s in atoms:
            if not (s >= 0.0):
                raise ValueError(f"delay {s} is negative")
            if not np.isfinite(a) or not np.isfinite(s):
                raise ValueError("profile atoms must be finite")


def _coupling_index(key, block: str) -> int:
    """A coupling key as an int: a whole number, or a string of decimal
    digits with an optional sign (the keys of a JSON object are strings);
    otherwise a ValueError that names the key and its block."""
    if isinstance(key, str):
        if re.fullmatch(r"\s*[+-]?[0-9]+\s*", key):
            return int(key)
    elif (whole := _whole(key)) is not None:
        return whole
    raise ValueError(f"{block} coupling key {key!r} is not a whole number")


@dataclass(frozen=True)
class RingSpec:
    """Cell count, internal profile, and coupling profiles keyed by the
    coupling index k (k = 2 is the nearest neighbour, distance k - 1).

    Only one representative per mirror pair is stored; valid keys are
    2 .. (n+1)//2 for odd n and 2 .. n//2 + 1 for even n.  An empty
    internal profile is allowed: realizations driven purely by coupling
    factors produce rings whose cells have no isolated dynamics.
    """

    n: int
    internal: CouplingProfile
    couplings: Mapping[int, CouplingProfile]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("ring needs at least 3 cells")
        object.__setattr__(
            self, "couplings",
            dict(sorted((_coupling_index(k, "ring"), v) for k, v in self.couplings.items())),
        )
        kmax = self.max_coupling_index
        for k in self.couplings:
            if not (2 <= k <= kmax):
                raise ValueError(f"coupling index {k} outside 2..{kmax}")

    @property
    def max_coupling_index(self) -> int:
        return (self.n + 1) // 2 if self.n % 2 else self.n // 2 + 1


@dataclass(frozen=True)
class Edge:
    """Directed connection with src/dst cells in 1..n."""

    src: int
    dst: int
    delay: float
    tag: str


@dataclass(frozen=True)
class ConnectionList:
    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        for e in self.edges:
            if not (1 <= e.src <= self.n and 1 <= e.dst <= self.n):
                raise ValueError(f"edge {e} has cell index outside 1..{self.n}")


@dataclass(frozen=True)
class EquivarianceReport:
    passed: bool
    condition: str | None = None
    edge: Edge | None = None
    message: str = ""


# ---------------------------------------------------------------------------
# Equivariance validation


def validate_equivariance(conns: ConnectionList) -> EquivarianceReport:
    """Check the two ring-symmetry conditions on an explicit edge list.

    (i) every cell must receive, from its relative position offsets, inputs
    identical (delay and tag) to the ones cell 1 receives; (ii) every
    connection must have an identical reverse.  Delays compare exactly:
    couplings are identical only if written identically.
    """
    n = conns.n
    per_cell: dict[int, Counter] = {i: Counter() for i in range(1, n + 1)}
    for e in conns.edges:
        per_cell[e.dst][((e.src - e.dst) % n, e.delay, e.tag)] += 1
    ref = per_cell[1]
    for i in range(2, n + 1):
        cur = per_cell[i]
        if cur == ref:
            continue
        for key in sorted(set(ref) | set(cur)):
            if ref[key] != cur[key]:
                offset, delay, tag = key
                src = (i - 1 + offset) % n + 1
                edge = Edge(src, i, delay, tag)
                kind = "missing" if cur[key] < ref[key] else "unexpected"
                return EquivarianceReport(
                    False,
                    "(i)",
                    edge,
                    f"cell {i} input from cell {src} ({kind}) breaks the orbit of cell 1",
                )
    directed = Counter((e.src, e.dst, e.delay, e.tag) for e in conns.edges)
    for (src, dst, delay, tag), count in sorted(directed.items()):
        if directed[(dst, src, delay, tag)] < count:
            return EquivarianceReport(
                False,
                "(ii)",
                Edge(src, dst, delay, tag),
                f"connection {src}->{dst} has no identical reverse",
            )
    return EquivarianceReport(True, None, None, "ring is symmetric")


# ---------------------------------------------------------------------------
# Factor weights and the characteristic product


# 2*cos(t*pi/6) at the integer angles where the cosine is rational
_EXACT_DOUBLE_COS = {0: 2.0, 2: 1.0, 3: 0.0, 4: -1.0, 6: -2.0, 8: -1.0, 9: 0.0, 10: 1.0}


@lru_cache(maxsize=256)
def _double_cos(n: int) -> tuple[float, ...]:
    """2*cos(2*pi*m/n) for m = 0 .. n-1, the source of every ring weight.

    The angle is reduced in integers first, so equal angles give bitwise
    equal weights, and the multiples of pi/6 whose cosine is rational come
    out exact (0, +-1, +-2)."""
    table = (2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)).tolist()
    for t, weight in _EXACT_DOUBLE_COS.items():
        if n * t % 12 == 0:
            table[n * t // 12] = weight
    return tuple(table)


def factor_weights(n: int, j: int) -> np.ndarray:
    """Weight of each coupling profile inside factor j.

    Entry k - 2 belongs to coupling index k.  Paired neighbours carry
    2*cos(2*pi*(k-1)*j/n); for even n the last entry is the opposite-cell
    weight (-1)^j.  Symmetric in j: factor j equals factor n - j.
    """
    if n < 3:
        raise ValueError("ring needs at least 3 cells")
    if not (0 <= j <= n - 1):
        raise ValueError(f"factor index {j} outside 0..{n - 1}")
    weights = _double_cos(n)
    paired = [weights[d * j % n] for d in range(1, (n + 1) // 2)]
    return np.array(paired if n % 2 else paired + [(-1.0) ** j])


def characteristic_factorization(ring: RingSpec) -> CharProduct:
    """Factored characteristic determinant of the ring.

    Factors are ordered j = 0 .. floor(n/2); factor 0 has multiplicity 1,
    factor n/2 (even n only) has multiplicity 1, all others 2.  Every
    factor shares the same delay list and differs only in weights, so the
    product evaluates to the determinant of the full n-by-n system.
    """
    n = ring.n
    factors = []
    for j in range(n // 2 + 1):
        weights = factor_weights(n, j)
        terms = [(a, 1.0, tau) for a, tau in ring.internal.atoms]
        for k, profile in ring.couplings.items():
            w = float(weights[k - 2])
            terms.extend((alpha, w, s) for alpha, s in profile.atoms)
        mult = 1 if j == 0 or (n % 2 == 0 and j == n // 2) else 2
        factors.append(ScalarFactor(tuple(terms), mult))
    return CharProduct(tuple(factors))


# ---------------------------------------------------------------------------
# Reduced leading-weight matrices (odd n)


def _check_odd(n: int) -> None:
    if n % 2 == 0:
        raise BadParity(f"cell count {n} must be odd here")
    if n < 3:
        raise BadIndex("cell count must be >= 3")


def _check_indices(n: int, indices: Sequence[int]) -> tuple[int, ...]:
    idx = tuple(map(_whole, indices))
    if None in idx:
        raise BadIndex(f"indices {list(indices)} must be integers")
    if not idx:
        raise BadIndex("need at least one factor index")
    if not all(map(operator.lt, idx, idx[1:])):
        raise BadIndex(f"indices {idx} must be strictly increasing")
    if idx[0] < 0 or idx[-1] > (n - 1) // 2:
        raise BadIndex(f"indices {idx} outside 0..{(n - 1) // 2}")
    return idx


def build_B(n: int, indices: Sequence[int]) -> np.ndarray:
    """Reduced leading-weight matrix for a factor selection, odd n, as the
    paper prints it.

    Row p and column q hold the weight of factor indices[p] at the leading
    column of block q: 1 when indices[q] is 0 (the internal column),
    4*cos(2*pi*indices[p]*indices[q]/n) otherwise, twice the factor weight.
    The entries with a rational cosine are exact: 4 where the index product
    is 0 mod n and -2 where it is +-n/3.  The indices follow the integer
    rule of :func:`quasipoly._whole`: whole floats and numpy ints read as
    ints, and a bool, NaN, an infinity or a fractional index raises
    :class:`BadIndex`.
    """
    _check_odd(n)
    idx = _check_indices(n, indices)
    weights = _double_cos(n)
    flat = [1.0 if q == 0 else 2.0 * weights[p * q % n] for p in idx for q in idx]
    return np.array(flat).reshape(len(idx), len(idx))


def det_B_two_factor(n: int, i1: int, i2: int) -> float:
    """Closed-form determinant of the two-factor matrix of :func:`build_B`:
    4*(w_a + w_b - w_c) - 8, where w_m = 2*cos(2*pi*m/n) at
    a = i1^2 + i2^2, b = i1^2 - i2^2 and c = 2*i1*i2.

    Vanishes exactly on the singular selections.  For odd n up to 101
    these are the pairs whose two rows coincide, i1^2 = +-i1 i2 = +-i2^2
    (mod n), which can happen only when n has a square factor (first case
    n = 25, pair (5, 10)).  :func:`realize_ring` refuses them with
    :class:`SingularB`.  Indices follow the integer rule of
    :func:`build_B`; a fractional one raises :class:`BadIndex`."""
    _check_odd(n)
    if not (1 <= i1 < i2 <= (n - 1) // 2):
        raise BadIndex(f"need 1 <= i1 < i2 <= {(n - 1) // 2}, got ({i1}, {i2})")
    if type(i1) is not int or type(i2) is not int:
        i1, i2 = _check_indices(n, (i1, i2))
    w = _double_cos(n)
    return 4.0 * (w[(i1 * i1 + i2 * i2) % n] + w[(i1 * i1 - i2 * i2) % n]
                  - w[(2 * i1 * i2) % n]) - 8.0


def singular_selection(n: int, indices: Sequence[int]) -> bool:
    """Whether a factor selection of an odd ring is refused as singular:
    |det B| <= 1e-12 times the Hadamard bound (the product of its column
    norms), for B from :func:`build_B`.  The test reads the same on the
    factor weights themselves, since halving the coupling columns is exact.
    :func:`realize_ring` refuses these selections with :class:`SingularB`,
    and the CLI's bmat reports them as singular."""
    return _singular_det(build_B(n, indices)) is not None


def detect_even_degeneracy(n: int) -> list[tuple[int, int]]:
    """Zero factor weights (coupling index k, factor index j) for even n.

    2*cos(2*pi*(k-1)*j/n) vanishes exactly when 4*(k-1)*j is an odd
    multiple of n, and the weight table holds those entries as exact
    zeros.  The opposite-cell weight (-1)^j never vanishes.  Nonempty for
    n = 4.
    """
    if n % 2:
        raise BadParity(f"cell count {n} must be even here")
    if n < 4:
        raise ValueError("even ring needs at least 4 cells")
    weights = _double_cos(n)
    return [(k, j) for k in range(2, n // 2 + 1) for j in range(n)
            if weights[(k - 1) * j % n] == 0.0]


# ---------------------------------------------------------------------------
# Ring realization


def _layout_roles(
    n: int, indices: tuple[int, ...], sizes: Sequence[int], layout: Mapping
) -> list[int]:
    """Distribute delay columns (role 0 = internal, role d = coupling at
    distance d) so each selected factor's block starts with its own role."""
    # delays per role: role 0 internal, role k - 1 for coupling index k
    remaining = {0: _count(layout.get("internal", 0), "layout internal count", 0)}
    kmax = (n + 1) // 2
    for key, cnt in (layout.get("couplings") or {}).items():
        k = _coupling_index(key, "layout")
        if not (2 <= k <= kmax):
            raise ValueError(f"layout coupling index {k} outside 2..{kmax}")
        remaining[k - 1] = _count(cnt, f"layout coupling {k} count", 0)
    total = sum(remaining.values())
    if total != sum(sizes):
        raise ValueError(
            f"layout provides {total} delays but {sum(sizes)} frequencies are prescribed"
        )
    for i in indices:
        if remaining.get(i, 0) < 1:
            role = "an internal delay" if i == 0 else f"a coupling-{i + 1} delay"
            raise ValueError(f"layout lacks {role} to lead the block of factor {i}")
        remaining[i] -= 1
    filler = [d for d in sorted(remaining) for _ in range(remaining[d])]
    roles: list[int] = []
    pos = 0
    for i, size in zip(indices, sizes):
        roles.append(i)
        roles.extend(filler[pos: pos + size - 1])
        pos += size - 1
    return roles


def ring_weight_table(
    n: int, indices: Sequence[int], sizes: Sequence[int], layout: Mapping
) -> tuple[WeightTable, list[int]]:
    """Weight table of a ring realization and the role of each delay column.

    ``sizes`` holds the group size of each selected factor.  Row p belongs
    to factor indices[p]; column k is a delay of role roles[k] (0 for the
    internal profile, d for the coupling at distance d) and weighs 1 for
    the internal role and 2*cos(2*pi*d*indices[p]/n) otherwise.
    """
    idx = _check_indices(n, indices)
    if len(sizes) != len(idx):
        raise ValueError("need exactly one frequency group per selected factor")
    roles = _layout_roles(n, idx, sizes, layout)
    weights = _double_cos(n)
    rows = [[1.0 if d == 0 else weights[d * i % n] for d in roles] for i in idx]
    return WeightTable(np.array(rows)), roles


def realize_ring(
    n: int,
    indices: Sequence[int],
    groups: Sequence[Sequence[float]],
    layout: Mapping,
    config: RealizeConfig | None = None,
) -> tuple[RingSpec, RealizationResult]:
    """Realize prescribed frequencies inside selected factors of an odd ring.

    ``layout`` states how many point delays belong to the internal profile
    and to each coupling profile, e.g. {"internal": 1, "couplings": {"2": 1}};
    the total must equal the number of prescribed frequencies.  The reduced
    leading-weight matrix is checked for singularity
    (:func:`singular_selection`) before any solving.
    Realized coefficients map back one-to-one: weight-1 columns become
    internal atoms, the others coupling atoms.
    """
    _check_odd(n)
    idx = _check_indices(n, indices)
    target = FrequencyTarget(tuple(tuple(g) for g in groups))
    weights, roles = ring_weight_table(n, idx, target.sizes, layout)

    if singular_selection(n, idx):
        raise SingularB(f"factor selection {idx} has a singular leading-weight matrix")

    result = realize(target, weights, config)

    internal_atoms = []
    coupling_atoms: dict[int, list[tuple[float, float]]] = {}
    for col, d in enumerate(roles):
        atom = (float(result.coeffs[col]), float(result.taus[col]))
        if d == 0:
            internal_atoms.append(atom)
        else:
            coupling_atoms.setdefault(d + 1, []).append(atom)
    ring = RingSpec(
        n=n,
        internal=CouplingProfile(tuple(internal_atoms)),
        couplings={k: CouplingProfile(tuple(v)) for k, v in coupling_atoms.items()},
    )
    return ring, result


# ---------------------------------------------------------------------------
# JSON forms


def ring_to_dict(ring: RingSpec) -> dict:
    return {
        "n": ring.n,
        "internal": [{"a": a, "tau": s} for a, s in ring.internal.atoms],
        "couplings": {
            str(k): [{"alpha": a, "s": s} for a, s in prof.atoms]
            for k, prof in ring.couplings.items()
        },
    }


def ring_from_dict(data: dict) -> RingSpec:
    (n,) = _needs(data, "ring", "n")
    internal = [_needs(t, f"ring internal term {i}", "a", "tau")
                for i, t in enumerate(data.get("internal", []), 1)]
    couplings = {
        k: CouplingProfile(tuple(_needs(t, f"ring coupling {k} term {i}", "alpha", "s")
                                 for i, t in enumerate(atoms, 1)))
        for k, atoms in ((_coupling_index(key, "ring"), atoms)
                         for key, atoms in (data.get("couplings") or {}).items())
    }
    return RingSpec(_count(n, "ring n"), CouplingProfile(tuple(internal)), couplings)
