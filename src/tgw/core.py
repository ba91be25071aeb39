"""Finite commutative ternary gamma-semirings as explicit operation tables.

A structure is a finite commutative monoid (T, +, 0) together with a
five-slot ternary product tri(a, x, b, y, c): three elements a, b, c and two
parameters x, y drawn from a finite parameter list.  Everything is
table-driven: loading resolves labels to integer indices once, and the axiom
checker evaluates every law exhaustively, returning witnesses for each
violation instead of raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache


class WorkbenchError(Exception):
    """Base error for the workbench."""


class FixtureError(WorkbenchError):
    """Fixture text could not be turned into a structure."""


class BudgetError(WorkbenchError):
    """An enumeration exceeded its configured bound."""


class PreconditionError(WorkbenchError):
    """An operation was invoked outside its contract."""


# Non-identity permutations of the three element slots, in a fixed order.
_PERMS = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


@dataclass(frozen=True)
class FiniteTernaryGammaSemiring:
    """Operation tables for a finite commutative ternary gamma-semiring.

    `add[i][j]` and `tri[a][x][b][y][c]` hold element indices; `zero` and the
    optional `unit` are indices into `elements`.  Instances are immutable and
    hashable, so reports can be cached per structure.
    """

    name: str
    elements: tuple[str, ...]
    zero: int
    unit: int | None
    gamma: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    tri: tuple
    commutative: bool = True

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def g(self) -> int:
        return len(self.gamma)


@dataclass(frozen=True)
class Violation:
    """One failed law instance: witness indices plus both evaluated sides."""

    law: str
    witness: tuple[int, ...]
    left: int
    right: int

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "witness": list(self.witness),
            "left": self.left,
            "right": self.right,
        }


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[Violation, ...]
    warnings: tuple[Violation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
            "warnings": [v.to_dict() for v in self.warnings],
        }


def tri_eval(S: FiniteTernaryGammaSemiring, a: int, x: int, b: int, y: int, c: int) -> int:
    """Pure table lookup of tri(a, x, b, y, c) with index validation."""
    n, g = S.n, S.g
    for v, bound, kind in ((a, n, "element"), (b, n, "element"), (c, n, "element"),
                           (x, g, "parameter"), (y, g, "parameter")):
        if not 0 <= v < bound:
            raise IndexError(f"{kind} index {v} out of range for {S.name}")
    return S.tri[a][x][b][y][c]


@lru_cache(maxsize=None)
def check_axioms(S: FiniteTernaryGammaSemiring) -> AxiomReport:
    """Exhaustively test every structural law; collect all violations.

    Violation ordering is deterministic: lexicographic by law identifier,
    then by witness tuple.  Witness layouts are the ones consumed by
    `reevaluate_violation`.
    """
    out: list[Violation] = []
    n, g = S.n, S.g
    rng, grng = range(n), range(g)
    add, tri, zero = S.add, S.tri, S.zero

    if len(add) != n or any(len(row) != n for row in add):
        raise PreconditionError(f"add table of {S.name} has wrong shape")

    for i in rng:
        for j in rng:
            v = add[i][j]
            if not 0 <= v < n:
                out.append(Violation("add-closure", (i, j), v, n))
    if any(v.law == "add-closure" for v in out):
        # Remaining laws would raise IndexError; report closure alone.
        return AxiomReport(tuple(sorted(out, key=lambda v: (v.law, v.witness))))

    for a in rng:
        for x in grng:
            for b in rng:
                for y in grng:
                    for c in rng:
                        v = tri[a][x][b][y][c]
                        if not 0 <= v < n:
                            out.append(Violation("tri-closure", (a, x, b, y, c), v, n))
    if any(v.law == "tri-closure" for v in out):
        return AxiomReport(tuple(sorted(out, key=lambda v: (v.law, v.witness))))

    for i in rng:
        v = add[zero][i]
        if v != i:
            out.append(Violation("add-identity", (i,), v, i))
    for i in rng:
        for j in rng:
            if add[i][j] != add[j][i]:
                out.append(Violation("add-commutativity", (i, j), add[i][j], add[j][i]))
    for i in rng:
        for j in rng:
            for k in rng:
                left = add[add[i][j]][k]
                right = add[i][add[j][k]]
                if left != right:
                    out.append(Violation("add-associativity", (i, j, k), left, right))

    for a in rng:
        for x in grng:
            for b in rng:
                for y in grng:
                    for c in rng:
                        if a == zero or b == zero or c == zero:
                            v = tri[a][x][b][y][c]
                            if v != zero:
                                out.append(Violation("zero-absorption", (a, x, b, y, c), v, zero))

    # Distributivity over + in each element slot, all parameter pairs.
    for a in rng:
        for a2 in rng:
            for x in grng:
                for b in rng:
                    for y in grng:
                        for c in rng:
                            left = tri[add[a][a2]][x][b][y][c]
                            right = add[tri[a][x][b][y][c]][tri[a2][x][b][y][c]]
                            if left != right:
                                out.append(Violation("tri-distributivity-slot1",
                                                     (a, a2, x, b, y, c), left, right))
    for a in rng:
        for x in grng:
            for b in rng:
                for b2 in rng:
                    for y in grng:
                        for c in rng:
                            left = tri[a][x][add[b][b2]][y][c]
                            right = add[tri[a][x][b][y][c]][tri[a][x][b2][y][c]]
                            if left != right:
                                out.append(Violation("tri-distributivity-slot2",
                                                     (a, x, b, b2, y, c), left, right))
    for a in rng:
        for x in grng:
            for b in rng:
                for y in grng:
                    for c in rng:
                        for c2 in rng:
                            left = tri[a][x][b][y][add[c][c2]]
                            right = add[tri[a][x][b][y][c]][tri[a][x][b][y][c2]]
                            if left != right:
                                out.append(Violation("tri-distributivity-slot3",
                                                     (a, x, b, y, c, c2), left, right))

    # Ternary associativity: left-nesting agrees with middle- and right-nesting.
    for a in rng:
        for x in grng:
            for b in rng:
                for y in grng:
                    for c in rng:
                        for z in grng:
                            for d in rng:
                                for w in grng:
                                    for e in rng:
                                        l1 = tri[tri[a][x][b][y][c]][z][d][w][e]
                                        l2 = tri[a][x][tri[b][y][c][z][d]][w][e]
                                        l3 = tri[a][x][b][y][tri[c][z][d][w][e]]
                                        if l1 != l2:
                                            out.append(Violation("tri-associativity-ab",
                                                                 (a, x, b, y, c, z, d, w, e), l1, l2))
                                        if l1 != l3:
                                            out.append(Violation("tri-associativity-ac",
                                                                 (a, x, b, y, c, z, d, w, e), l1, l3))

    if S.commutative:
        for a in rng:
            for x in grng:
                for b in rng:
                    for y in grng:
                        for c in rng:
                            base = tri[a][x][b][y][c]
                            abc = (a, b, c)
                            for perm in _PERMS:
                                a2, b2, c2 = abc[perm[0]], abc[perm[1]], abc[perm[2]]
                                other = tri[a2][x][b2][y][c2]
                                if base != other:
                                    out.append(Violation("tri-commutativity",
                                                         (a, x, b, y, c, a2, b2, c2), base, other))

    if S.unit is not None:
        u = S.unit
        for x in grng:
            for y in grng:
                for a in rng:
                    v = tri[u][x][u][y][a]
                    if v != a:
                        out.append(Violation("unit-law", (x, y, a), v, a))

    out.sort(key=lambda v: (v.law, v.witness))
    return AxiomReport(tuple(out))


def reevaluate_violation(S: FiniteTernaryGammaSemiring, v: Violation) -> tuple[int, int]:
    """Recompute both sides of a reported violation from its witness."""
    add, tri = S.add, S.tri
    w = v.witness
    if v.law == "add-closure":
        return add[w[0]][w[1]], S.n
    if v.law == "tri-closure":
        return tri[w[0]][w[1]][w[2]][w[3]][w[4]], S.n
    if v.law == "add-identity":
        return add[S.zero][w[0]], w[0]
    if v.law == "add-commutativity":
        return add[w[0]][w[1]], add[w[1]][w[0]]
    if v.law == "add-associativity":
        i, j, k = w
        return add[add[i][j]][k], add[i][add[j][k]]
    if v.law == "zero-absorption":
        a, x, b, y, c = w
        return tri[a][x][b][y][c], S.zero
    if v.law == "tri-distributivity-slot1":
        a, a2, x, b, y, c = w
        return tri[add[a][a2]][x][b][y][c], add[tri[a][x][b][y][c]][tri[a2][x][b][y][c]]
    if v.law == "tri-distributivity-slot2":
        a, x, b, b2, y, c = w
        return tri[a][x][add[b][b2]][y][c], add[tri[a][x][b][y][c]][tri[a][x][b2][y][c]]
    if v.law == "tri-distributivity-slot3":
        a, x, b, y, c, c2 = w
        return tri[a][x][b][y][add[c][c2]], add[tri[a][x][b][y][c]][tri[a][x][b][y][c2]]
    if v.law == "tri-associativity-ab":
        a, x, b, y, c, z, d, w2, e = w
        return tri[tri[a][x][b][y][c]][z][d][w2][e], tri[a][x][tri[b][y][c][z][d]][w2][e]
    if v.law == "tri-associativity-ac":
        a, x, b, y, c, z, d, w2, e = w
        return tri[tri[a][x][b][y][c]][z][d][w2][e], tri[a][x][b][y][tri[c][z][d][w2][e]]
    if v.law == "tri-commutativity":
        a, x, b, y, c, a2, b2, c2 = w
        return tri[a][x][b][y][c], tri[a2][x][b2][y][c2]
    if v.law == "unit-law":
        x, y, a = w
        return tri[S.unit][x][S.unit][y][a], a
    raise ValueError(f"unknown law {v.law!r}")


def require_axioms(S: FiniteTernaryGammaSemiring, lenient: bool, op: str) -> AxiomReport:
    """Gate an operation on a clean axiom report unless the caller overrides."""
    report = check_axioms(S)
    if report.violations and not lenient:
        first = report.violations[0]
        raise PreconditionError(
            f"{op}: structure {S.name!r} fails {first.law} at witness {first.witness} "
            f"({first.left} != {first.right}); pass lenient=True to proceed anyway")
    return report


@dataclass
class IdealSet:
    """Subset of element indices with cached ideal/prime/maximal flags."""

    members: frozenset[int]
    is_ideal: bool | None = None
    is_prime: bool | None = None
    is_maximal: bool | None = None

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __eq__(self, other) -> bool:
        return isinstance(other, IdealSet) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def labels(self, S: FiniteTernaryGammaSemiring) -> tuple[str, ...]:
        return tuple(S.elements[i] for i in self.key())

    def to_dict(self, S: FiniteTernaryGammaSemiring) -> dict:
        return {
            "members": list(self.labels(S)),
            "is_ideal": self.is_ideal,
            "is_prime": self.is_prime,
            "is_maximal": self.is_maximal,
        }


# ---------------------------------------------------------------------------
# Partitions

class UnionFind:
    """Disjoint sets over range(size); each set's root is its least member."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def classes(self) -> list[list[int]]:
        """The sets, each sorted, ordered by least member."""
        groups: dict[int, list[int]] = {}
        for i in range(len(self.parent)):
            # Roots are least members, so a set's key is inserted at its root.
            groups.setdefault(self.find(i), []).append(i)
        return list(groups.values())


def bourne_classes(size: int, add, sub) -> list[list[int]]:
    """Classes of the Bourne congruence of the submonoid `sub` on the finite
    commutative monoid range(size) with addition `add(i, j)`: i and j share a
    class when i + h = j + h' for some h, h' in `sub` (transitively closed).
    Each class is sorted; classes are ordered by least member."""
    uf = UnionFind(size)
    first_with_sum: dict[int, int] = {}
    for i in range(size):
        for h in sub:
            uf.union(i, first_with_sum.setdefault(add(i, h), i))
    return uf.classes()


# ---------------------------------------------------------------------------
# Fixture text <-> structure

def read_labels(data: dict, key: str) -> dict[str, int]:
    """The label list `data[key]` as a label -> index map, in list order."""
    raw = data[key]
    if not (isinstance(raw, list) and raw and all(isinstance(v, str) for v in raw)
            and len(set(raw)) == len(raw)):
        raise FixtureError(f"shape error: {key} must be a nonempty list of distinct labels")
    return {label: k for k, label in enumerate(raw)}


def label_array(data: dict, key: str, shape: tuple[int, ...], index: dict[str, int],
                missing: str = "is not declared"):
    """`data[key]`, an array of labels of the given shape (() for one label),
    as nested tuples of indices.  The whole shape is checked, level by level,
    before any label is looked up."""
    level = [data[key]]
    for size in shape:
        for t in level:
            if not isinstance(t, list):
                raise FixtureError(f"shape error: {key} table is not a nested array")
            if len(t) != size:
                raise FixtureError(f"shape error: {key} table must be "
                                   + "x".join(map(str, shape)))
        level = [v for t in level for v in t]

    def read(t, depth):
        if depth:
            return tuple(read(v, depth - 1) for v in t)
        try:
            return index[t]
        except (KeyError, TypeError):
            raise FixtureError(f"reference error: label {t!r} in {key} {missing}") from None
    return read(data[key], len(shape))


def structure_from_dict(data: dict) -> FiniteTernaryGammaSemiring:
    if not isinstance(data, dict):
        raise FixtureError("parse error: top level is not an object")
    for key in ("name", "elements", "zero", "gamma", "add", "tri"):
        if key not in data:
            raise FixtureError(f"parse error: missing field {key!r}")
    elements = read_labels(data, "elements")
    gamma = read_labels(data, "gamma")
    n, g = len(elements), len(gamma)

    zero = label_array(data, "zero", (), elements)
    unit = None if data.get("unit") is None else label_array(data, "unit", (), elements)
    add = label_array(data, "add", (n, n), elements)
    tri = label_array(data, "tri", (n, g, n, g, n), elements)
    return FiniteTernaryGammaSemiring(
        name=str(data["name"]), elements=tuple(elements), zero=zero, unit=unit,
        gamma=tuple(gamma), add=add, tri=tri,
        commutative=bool(data.get("commutative", True)))


def load_structure(text: str) -> FiniteTernaryGammaSemiring:
    """Parse fixture text into a structure; no axiom checking performed."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"parse error: {exc}") from None
    return structure_from_dict(data)


def structure_to_dict(S: FiniteTernaryGammaSemiring) -> dict:
    el = S.elements
    return {
        "name": S.name,
        "elements": list(el),
        "zero": el[S.zero],
        "unit": None if S.unit is None else el[S.unit],
        "gamma": list(S.gamma),
        "add": [[el[v] for v in row] for row in S.add],
        "tri": [[[[[el[v] for v in t4] for t4 in t3] for t3 in t2] for t2 in t1] for t1 in S.tri],
        "commutative": S.commutative,
    }


def serialize_structure(S: FiniteTernaryGammaSemiring) -> str:
    return json.dumps(structure_to_dict(S), indent=2) + "\n"


def product_structure(S1: FiniteTernaryGammaSemiring, S2: FiniteTernaryGammaSemiring,
                      name: str) -> FiniteTernaryGammaSemiring:
    """Componentwise product of two structures sharing a parameter list."""
    if S1.g != S2.g:
        raise PreconditionError("product requires equally sized parameter lists")
    pairs = [(i, j) for i in range(S1.n) for j in range(S2.n)]
    idx = {p: k for k, p in enumerate(pairs)}
    labels = tuple(f"({S1.elements[i]},{S2.elements[j]})" for i, j in pairs)
    add = tuple(tuple(idx[(S1.add[a1][b1], S2.add[a2][b2])] for b1, b2 in pairs)
                for a1, a2 in pairs)
    g = S1.g
    tri = tuple(tuple(tuple(tuple(tuple(
        idx[(S1.tri[a1][x][b1][y][c1], S2.tri[a2][x][b2][y][c2])]
        for c1, c2 in pairs) for y in range(g)) for b1, b2 in pairs)
        for x in range(g)) for a1, a2 in pairs)
    unit = None
    if S1.unit is not None and S2.unit is not None:
        unit = idx[(S1.unit, S2.unit)]
    return FiniteTernaryGammaSemiring(
        name=name, elements=labels, zero=idx[(S1.zero, S2.zero)], unit=unit,
        gamma=S1.gamma, add=add, tri=tri,
        commutative=S1.commutative and S2.commutative)


def patch_add(S: FiniteTernaryGammaSemiring, i: int, j: int, value: int) -> FiniteTernaryGammaSemiring:
    """Copy of S with one add-table entry replaced (test/diagnostic helper)."""
    rows = [list(r) for r in S.add]
    rows[i][j] = value
    return replace(S, add=tuple(tuple(r) for r in rows))
