"""Finite commutative ternary gamma-semirings as explicit operation tables.

A structure is a finite commutative monoid (T, +, 0) together with a
five-slot ternary product tri(a, x, b, y, c): three elements a, b, c and two
parameters x, y drawn from a finite parameter list.  Everything is
table-driven: loading resolves labels to integer indices once.  Each law is
declared once, in `STRUCTURE_LAWS`, as both of its sides written as index
expressions over the tables; the axiom checker evaluates them on NumPy index
grids covering every instance and returns witnesses for each violation
instead of raising, and `reevaluate_violation` evaluates the same
expressions on one witness.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import NamedTuple

# numpy is imported inside the functions that use it, so that `import tgw`
# still loads it last (through geometry): loaded before the other tgw
# modules, it leaves the process about 1.7 MB larger.


class WorkbenchError(Exception):
    """Base error for the workbench."""


class FixtureError(WorkbenchError):
    """Fixture text could not be turned into a structure."""


class BudgetError(WorkbenchError):
    """A search exceeded its limit in `BUDGETS`."""


# The limit of every exponential search, by knob: submodule and ideal lattices
# (|M|), hom and isomorphism search nodes, congruence lattices (|M|),
# free-module carriers and group quotients, and tensor state spaces.
# `cli.main` sets "enum" and "hom" from TGW_BUDGET for one command.
BUDGETS = {"enum": 12, "hom": 50000, "partition": 8, "carrier": 4096, "state": 200000}


def _charge(knob: str, size: int, what: str) -> None:
    """Raise BudgetError naming `knob` when `size` exceeds its limit."""
    if size > BUDGETS[knob]:
        raise BudgetError(f"{what} = {size} exceeds the {knob} limit {BUDGETS[knob]}")


class PreconditionError(WorkbenchError):
    """An operation was invoked outside its contract."""


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
    # Every action parameter (a, x, y, b), in C order: the one order in which
    # a module action (`GammaModule.column_of`) lists them.
    quads: tuple[tuple[int, int, int, int], ...] = field(init=False, repr=False,
                                                         compare=False)
    # The hash of the compared fields, taken once: `lru_cache` hashes its key
    # on every lookup, and hashing `tri` costs about 55 us on B2^4.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Set at construction rather than as a functools.cached_property: its
        # write to the instance __dict__ makes every later attribute read of
        # the instance about 3x slower on CPython 3.11.
        n, g = range(len(self.elements)), range(len(self.gamma))
        object.__setattr__(self, "quads", tuple(itertools.product(n, g, g, n)))
        object.__setattr__(self, "_hash", hash((
            self.name, self.elements, self.zero, self.unit, self.gamma,
            self.add, self.tri, self.commutative)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def g(self) -> int:
        return len(self.gamma)


class Violation(NamedTuple):
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


class _Block(NamedTuple):
    """The violations of one law name, in witness order, as columns: the
    witness matrix (a row per violation, a column per witness slot), narrow
    and unsigned, and both sides, each in the dtype its expression gives."""

    law: str
    witness: "np.ndarray"
    left: "np.ndarray"
    right: "np.ndarray"


class Violations(Sequence):
    """The violations of one check, read-only, kept as `_Block` columns in
    (law, witness) order.  Length, truth, an index and a slice read the
    columns; iterating, comparing or hashing builds every `Violation` once."""

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        self._ends = list(itertools.accumulate(len(b.left) for b in self.blocks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def _one(self, i: int) -> Violation:
        k = bisect.bisect_right(self._ends, i)
        b, j = self.blocks[k], i - (self._ends[k - 1] if k else 0)
        return Violation(b.law, tuple(b.witness[j].tolist()), int(b.left[j]), int(b.right[j]))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._one, range(len(self))[index]))
        return self._one(range(len(self))[index])

    @cached_property
    def _tuple(self) -> tuple[Violation, ...]:
        out: list[Violation] = []
        for b in self.blocks:
            out += map(tuple.__new__, itertools.repeat(Violation), zip(
                itertools.repeat(b.law), map(tuple, b.witness.tolist()),
                b.left.tolist(), b.right.tolist()))
        return tuple(out)

    def __iter__(self):
        return iter(self._tuple)

    def __eq__(self, other):
        if isinstance(other, Violations):
            other = other._tuple
        return self._tuple == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple)

    def __repr__(self) -> str:
        return f"Violations({self._tuple!r})"


@dataclass(frozen=True)
class AxiomReport:
    violations: Sequence[Violation]
    warnings: Sequence[Violation] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def fields(self) -> dict:
        """The keys of `to_dict()`, holding the violation sequences
        themselves: `_dump` renders a `Violations` from its columns."""
        return {"passed": self.passed, "violations": self.violations,
                "warnings": self.warnings}

    def to_dict(self) -> dict:
        return {key: value if key == "passed" else [v.to_dict() for v in value]
                for key, value in self.fields().items()}


def tri_eval(S: FiniteTernaryGammaSemiring, a: int, x: int, b: int, y: int, c: int) -> int:
    """Pure table lookup of tri(a, x, b, y, c) with index validation."""
    n, g = S.n, S.g
    for v, bound, kind in ((a, n, "element"), (b, n, "element"), (c, n, "element"),
                           (x, g, "parameter"), (y, g, "parameter")):
        if not 0 <= v < bound:
            raise IndexError(f"{kind} index {v} out of range for {S.name}")
    return S.tri[a][x][b][y][c]


# ---------------------------------------------------------------------------
# Laws

class _Table:
    """A table in the smallest integer dtype holding its entries and range size,
    called with an int or index array per axis, none range-checked.  A prefix of
    indices over earlier grid axes than the rest takes its rows, then the rest's
    columns of them (none for trailing grid axes); others take via a flat index."""

    def __init__(self, rows, size: int, grid: list):
        import numpy as np
        a = np.asarray(rows)
        lo, hi = min(a.min(), 0), max(a.max(), size)
        # Beside a negative entry, a top past uint32 is sized as signed: a signed
        # dtype and uint64 promote to float64.
        top = -hi if lo < 0 and hi >> 32 else hi
        dtype = np.promote_types(np.min_scalar_type(lo), np.min_scalar_type(top))
        self.a, self.size, self.grid = a.astype(dtype, copy=False), size, grid
        # How far a step along each axis moves in the table, and in its rows.
        self.steps = [math.prod(a.shape[j + 1:]) for j in range(a.ndim)]
        self.row_steps = [[s // t for s in self.steps[:j]] for j, t in enumerate(self.steps, 1)]

    def __call__(self, *index):
        a, grid, steps = self.a, self.grid, self.steps
        # The first grid axis holds the values of a chunk, so it is never gathered.
        k, top = 0, min(len(index), len(grid) - 1)
        while k < top and index[-1 - k] is grid[-1 - k]:
            k += 1
        if k == a.ndim:
            return a
        # Suffix: the k axes, else the last index; `tail`: its shape from its first varying axis.
        j, col = a.ndim - max(k, 1), index[-1]
        if not j or not k and type(col) is int:
            return a.reshape(-1).take(_flat(index, steps))
        row, tail = _flat(index[:j], self.row_steps[j - 1]), a.shape[-k:] if k else col.shape
        while not k and tail[:1] == (1,):
            tail = tail[1:]
        if type(row) is not int:
            cut = max(row.ndim - len(tail), 0)
            if math.prod(row.shape[cut:]) != 1:
                return a.reshape(-1).take(
                    row * steps[j - 1] + (_flat(index[j:], steps[j:]) if k else col))
            row = row.reshape(row.shape[:cut])
        rows = a.reshape(-1, steps[j - 1]).take(row, axis=0)
        return rows.reshape(rows.shape[:-1] + tail) if k else rows.take(col.reshape(tail), axis=-1)


def _flat(index, steps):
    """sum(i * step), in intp wherever an index is an array: a product of
    table entries need not fit their dtype."""
    import numpy as np
    at = None
    for i, step in zip(index, steps):
        if type(i) is not int and i.dtype != np.intp:
            i = i.astype(np.intp)
        term = i * step if step != 1 else i
        at = term if at is None else at + term
    return at


@dataclass(frozen=True)
class Law:
    """A law, declared once: `left` equals `right` wherever `guard` holds (a
    closure law: 0 <= left < right).  Both are expressions over the tables
    and the names in `witness`, one per slot; a name's first letter gives its
    range (x, y, z, w a parameter, u a carrier element, others an element).
    The checker evaluates them on broadcast index grids, one grid axis per
    distinct name, in chunks of as many values of the first as fit in one
    value of the widest law checked with it; the re-evaluator evaluates them
    on the ints of one witness.  `when` says if a law applies.  No expression
    reads a parameter but as an index along axis 1 or 3 of a five-axis table,
    so a law has the same instances at parameters whose slices along those
    axes are equal in every such table."""

    name: str
    witness: str
    left: str
    right: str
    guard: str | None = None
    closure: bool = False
    when: str | None = None

    def __post_init__(self):
        for expression in (self.left, self.right, self.guard, self.when):
            _code(expression)


_RANGE = {"x": "g", "y": "g", "z": "g", "w": "g", "u": "m"}


def _grid_sizes(law: Law, tables: dict) -> tuple[list[str], tuple[int, ...]]:
    """The distinct witness names of `law`, in order, and their range sizes."""
    axes = list(dict.fromkeys(law.witness.split()))
    return axes, tuple(tables[_RANGE.get(name[0], "n")] for name in axes)


@lru_cache(maxsize=None)
def _code(expression: str | None):
    """`expression` compiled once, when the law tables are built."""
    return expression and compile(expression, expression, "eval")


@lru_cache(maxsize=None)
def _axes(sizes: tuple[int, ...]) -> tuple:
    """One arange per axis of a grid of the given sizes, shaped to broadcast."""
    import numpy as np
    return tuple(np.arange(s).reshape((1,) * k + (s,) + (1,) * (len(sizes) - 1 - k))
                 for k, s in enumerate(sizes))


def _law_violations(law: Law, tables: dict, cap: int, dtype) -> _Block | None:
    """The violations of `law` as one block, or None when it holds.  The law
    is evaluated in chunks of at most `cap` grid points or one value of the
    first axis; the witness, in the unsigned `dtype`, holds the coordinates of
    each chunk's `flatnonzero` hits in witness-slot order, and each side is
    taken at the same flat positions.  Chunks ascend and the hits run in C
    order, which is the witness order, as the grid axes are the witness names
    in order of first use.  `tables` maps the names its expressions use to
    tables and constants; its list "grid" holds the current chunk's axes."""
    import numpy as np
    axes, sizes = _grid_sizes(law, tables)
    slots = [axes.index(name) for name in law.witness.split()]
    step = max(1, cap // math.prod(sizes[1:]))
    grid, parts = tables["grid"], []
    grid[:] = _axes(sizes)
    ns, first_axis = {**tables, **dict(zip(axes, grid))}, grid[0]
    for first in range(0, sizes[0], step):
        grid[0] = ns[axes[0]] = first_axis[first:first + step]
        left, right = eval(_code(law.left), ns), eval(_code(law.right), ns)
        bad = (left < 0) | (left >= right) if law.closure else left != right
        if law.guard:
            bad = bad & eval(_code(law.guard), ns)
        # Every axis occurs in a side, so `bad` spans the whole chunk.
        if np.count_nonzero(bad):
            hits = np.flatnonzero(bad)
            coords = np.unravel_index(hits + first * math.prod(sizes[1:]), sizes)
            witness = np.empty((len(hits), len(slots)), dtype)
            for j, s in enumerate(slots):
                witness[:, j] = coords[s]
            parts.append((witness, *(np.broadcast_to(side, bad.shape).take(hits)
                                      for side in (left, right))))
    if parts:
        return _Block(law.name, *map(np.concatenate, zip(*parts)))
    return None


def _expand(block: _Block, law: Law, classes: list[list[int]]) -> _Block:
    """`block`, found at class indices, listed at every member of each class: a
    parameter name that fills several slots takes one member in all of them.
    The witness widens where it cannot hold every member.  The rows are sorted
    by witness, which is the order of the full grid."""
    import numpy as np
    names = law.witness.split()
    members, sizes = np.concatenate(classes), np.array([len(c) for c in classes])
    witness, left, right = block[1:]
    witness = witness.astype(np.promote_types(witness.dtype, np.min_scalar_type(members.max())),
                             copy=False)
    for name in dict.fromkeys(names):
        if _RANGE.get(name[0]) == "g":
            cols = [k for k, other in enumerate(names) if other == name]
            count = sizes[witness[:, cols[0]]]
            # Row i's copies take the members of its class from its first on.
            first = np.cumsum(sizes)[witness[:, cols[0]]] - np.cumsum(count)
            witness, left, right = (np.repeat(c, count, axis=0) for c in (witness, left, right))
            witness[:, cols] = members[np.repeat(first, count) + np.arange(len(left))][:, None]
    order = np.lexsort(witness.T[::-1])
    return _Block(block.law, witness[order], left[order], right[order])


def _check_laws(stages, tables: dict) -> Violations:
    """Every violation, sorted by law then witness.  No stage runs after one
    with violations, which may be entries out of range.  Parameters with equal
    slices in every five-axis table form a class; when one has several
    members, the laws run on one parameter per class (see `Law`).  Witnesses
    are unsigned, sized from the full ranges, as `_expand` writes members."""
    import numpy as np
    stages = [[law for law in stage if law.when is None or eval(_code(law.when), dict(tables))]
              for stage in stages]
    dtype = np.min_scalar_type(max(tables.get(k, 0) for k in ("n", "g", "m")))
    five = {name: t for name, t in tables.items() if isinstance(t, _Table) and t.a.ndim == 5}
    found: dict[bytes, list[int]] = {}
    for x in range(tables["g"]):
        found.setdefault(b"".join(t.a.take(x, axis).tobytes()
                                  for t in five.values() for axis in (1, 3)), []).append(x)
    classes = list(found.values()) if len(found) < tables["g"] else None
    if classes:
        reps = [c[0] for c in classes]
        tables = {**tables, "g": len(reps), **{name: _Table(
            t.a.take(reps, 1).take(reps, 3), t.size, t.grid) for name, t in five.items()}}
    cap = max(math.prod(_grid_sizes(law, tables)[1][1:]) for stage in stages for law in stage)
    blocks: list[_Block] = []
    for stage in stages:
        blocks += [block if classes is None else _expand(block, law, classes)
                   for law in stage if (block := _law_violations(law, tables, cap, dtype))]
        if blocks:
            break
    out = []
    for name, group in itertools.groupby(sorted(blocks, key=attrgetter("law")), attrgetter("law")):
        group = list(group)
        if len(group) == 1:
            out += group
            continue
        # Laws sharing a name, such as the permutations of tri-commutativity.
        witness, left, right = map(np.concatenate, list(zip(*group))[1:])
        order = np.lexsort((right, left, *witness.T[::-1]))
        out.append(_Block(name, witness[order], left[order], right[order]))
    return Violations(out)


def _reevaluate(stages, tables: dict, v: Violation) -> tuple[int, int]:
    for law in (law for stage in stages for law in stage if law.name == v.law):
        names = law.witness.split()
        if len(names) != len(v.witness):
            continue
        for name, k in zip(names, v.witness):
            if not 0 <= k < tables[_RANGE.get(name[0], "n")]:
                raise IndexError(f"witness entry {name} = {k} of {v.law} is out of range")
        ns = dict(tables)
        # A law that names one axis twice fits only witnesses that repeat it.
        if all(ns.setdefault(name, k) == k for name, k in zip(names, v.witness)):
            return int(eval(_code(law.left), ns)), int(eval(_code(law.right), ns))
    raise ValueError(f"no law {v.law!r} fits witness {v.witness}")


@lru_cache(maxsize=None)
def table_arrays(S: FiniteTernaryGammaSemiring) -> tuple:
    """`add` and `tri` as read-only arrays in `_Table`'s dtype, built once per structure."""
    add, tri = (_Table(t, S.n, []).a for t in (S.add, S.tri))
    add.flags.writeable = tri.flags.writeable = False
    return add, tri


def _structure_tables(S: FiniteTernaryGammaSemiring) -> dict:
    grid: list = []
    add, tri = table_arrays(S)
    return {"grid": grid, "n": S.n, "g": S.g, "zero": S.zero, "unit": S.unit,
            "commutative": S.commutative,
            "add": _Table(add, S.n, grid), "tri": _Table(tri, S.n, grid)}


STRUCTURE_LAWS = (
    (Law("add-closure", "i j", "add(i, j)", "n", closure=True),),
    (Law("tri-closure", "a x b y c", "tri(a, x, b, y, c)", "n", closure=True),),
    (Law("add-identity", "i", "add(zero, i)", "i"),
     Law("add-commutativity", "i j", "add(i, j)", "add(j, i)"),
     Law("add-associativity", "i j k", "add(add(i, j), k)", "add(i, add(j, k))"),
     Law("zero-absorption", "a x b y c", "tri(a, x, b, y, c)", "zero",
         guard="(a == zero) | (b == zero) | (c == zero)"),
     # Distributivity over + in each element slot, all parameter pairs.
     Law("tri-distributivity-slot1", "a a2 x b y c", "tri(add(a, a2), x, b, y, c)",
         "add(tri(a, x, b, y, c), tri(a2, x, b, y, c))"),
     Law("tri-distributivity-slot2", "a x b b2 y c", "tri(a, x, add(b, b2), y, c)",
         "add(tri(a, x, b, y, c), tri(a, x, b2, y, c))"),
     Law("tri-distributivity-slot3", "a x b y c c2", "tri(a, x, b, y, add(c, c2))",
         "add(tri(a, x, b, y, c), tri(a, x, b, y, c2))"),
     # Ternary associativity: left-nesting agrees with middle- and right-nesting.
     Law("tri-associativity-ab", "a x b y c z d w e", "tri(tri(a, x, b, y, c), z, d, w, e)",
         "tri(a, x, tri(b, y, c, z, d), w, e)"),
     Law("tri-associativity-ac", "a x b y c z d w e", "tri(tri(a, x, b, y, c), z, d, w, e)",
         "tri(a, x, b, y, tri(c, z, d, w, e))"),
     # One entry per non-identity permutation p of (a, b, c); the witness
     # appends the permuted slots.
     *(Law("tri-commutativity", "a x b y c " + " ".join(p), "tri(a, x, b, y, c)",
           "tri({}, x, {}, y, {})".format(*p), when="commutative")
       for p in itertools.permutations("abc") if p != ("a", "b", "c")),
     Law("unit-law", "x y a", "tri(unit, x, unit, y, a)", "a", when="unit is not None")),
)


@lru_cache(maxsize=None)
def check_axioms(S: FiniteTernaryGammaSemiring) -> AxiomReport:
    """Test every instance of every law in `STRUCTURE_LAWS`; collect all
    violations, ordered by law identifier, then by witness tuple."""
    if len(S.add) != S.n or any(len(row) != S.n for row in S.add):
        raise PreconditionError(f"add table of {S.name} has wrong shape")
    return AxiomReport(_check_laws(STRUCTURE_LAWS, _structure_tables(S)))


def reevaluate_violation(S: FiniteTernaryGammaSemiring, v: Violation) -> tuple[int, int]:
    """Recompute both sides of a reported violation from its witness."""
    return _reevaluate(STRUCTURE_LAWS, _structure_tables(S), v)


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

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; True when they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)
        return ra != rb

    def classes(self) -> list[list[int]]:
        """The sets, each sorted, ordered by least member."""
        groups: dict[int, list[int]] = {}
        for i in range(len(self.parent)):
            # Roots are least members, so a set's key is inserted at its root.
            groups.setdefault(self.find(i), []).append(i)
        return list(groups.values())


def row_order(a) -> tuple:
    """The stable lexicographic order of the rows of an int matrix, and a mask
    over that order, True at the first of each run of equal rows: so
    `order[new]` indexes the first occurrence in `a` of each distinct row, in
    lexicographic order.  (np.unique does this too, but imports numpy.ma on
    first use, which takes longer than a whole small tensor.)"""
    import numpy as np
    if not a.shape[1]:
        return np.arange(len(a)), np.arange(len(a)) < 1
    order = np.lexsort(a.T[::-1])  # stable: equal rows stay in the order of `a`
    # Each row as the widest unsigned words that tile it: one comparison per word.
    words = a.take(order, axis=0).view(f"u{math.gcd(8, a.itemsize * a.shape[1])}")
    new = np.ones(len(a), dtype=bool)
    new[1:] = (words[1:] != words[:-1]).any(axis=1)
    return order, new


def distinct_rows(a):
    """The distinct rows of an int matrix, in lexicographic order."""
    order, new = row_order(a)
    return a.take(order[new], axis=0)


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
# JSON text

_SCALARS = {int, float, bool, type(None)}
# The most violation records that `_violation_text` joins into one piece.
_CHUNK = 512


def _violation_text(violations: Violations, pad: str):
    """The pieces of exactly `json.dumps([v.to_dict() for v in violations],
    indent=2)` at indent `pad`, written from the columns.  A record is its
    values, each behind the fixed text that precedes it in a record; the right
    side also carries the text that closes the record.  Each block builds one
    token table, a row per kind of fixed text by a column per value from the
    block's least to its greatest (per distinct value instead, when there are
    fewer values than that span, as out-of-range closure entries can give),
    and joins the tokens of `_CHUNK` records at a time, gathered with one
    `take` through an intp index built for those records alone."""
    import numpy as np
    if not violations:
        yield "[]"
        return
    inner = pad + "  "
    key, item = inner + "  ", inner + "    "
    yield "[\n" + inner
    for b in violations.blocks:
        width, columns = b.witness.shape[1], (b.witness, b.left, b.right)
        lo, hi = min(int(c.min()) for c in columns), max(int(c.max()) for c in columns)
        keys = range(lo, hi + 1)
        if len(keys) > len(b.left) * (width + 2):
            keys = distinct_rows(np.concatenate([distinct_rows(c.reshape(-1, 1)).astype(np.intp)
                                                 for c in columns]))[:, 0]
        law = encode_basestring_ascii(b.law)
        fixed = [(f'{{\n{key}"law": {law},\n{key}"witness": [\n{item}', ""),
                 (",\n" + item, ""), (f'\n{key}],\n{key}"left": ', ""),
                 (f',\n{key}"right": ', f"\n{inner}}},\n{inner}")]
        tokens = np.array([head + str(k) + tail for head, tail in fixed for k in keys],
                          dtype=object)
        # The kind of fixed text before each value column: the record's head,
        # then witness separators, then the two sides.
        kind = np.array([0] + [1] * (width - 1) + [2, 3]) * len(keys)
        for start in range(0, len(b.left), _CHUNK):
            # Each column is cast to intp on its own: promoted together, uint64
            # beside a signed column becomes float64.
            part = slice(start, start + _CHUNK)
            at = np.concatenate([b.witness[part], b.left[part, None], b.right[part, None]],
                                axis=1, dtype=np.intp)
            at = at - lo if type(keys) is range else np.searchsorted(keys, at)
            text = "".join(tokens.take(at + kind).ravel().tolist())
            if b is violations.blocks[-1] and start + _CHUNK >= len(b.left):
                # The last record is followed by the list's end, not by a separator.
                text = text[:-len(inner) - 2] + "\n" + pad + "]"
            yield text


def _dump(obj) -> str:
    """Exactly `json.dumps(obj, indent=2)`, where a `Violations` stands for
    the list of its `to_dict()`s: the pieces of `_write`, joined."""
    return "".join(_write(obj))


def _write(obj, pad: str = ""):
    """The pieces of the text of `obj` at indent `pad`, in order.

    Python's json encoder runs in C only without indent.  This walks nonempty
    dicts with str keys and nonempty lists itself, writing str, int and bool
    leaves as json writes them and a `Violations` from its columns
    (`_violation_text`).  A float or null, and a list of numbers, bools and
    nulls, print the same with and without indent, so json writes them in C.
    Every other value goes to `json.dumps` whole."""
    kind = type(obj)
    if kind is str:
        yield encode_basestring_ascii(obj)
    elif kind is int:
        yield int.__repr__(obj)
    elif kind is bool:
        yield "true" if obj else "false"
    elif kind in _SCALARS:
        yield json.dumps(obj)
    elif kind is Violations:
        yield from _violation_text(obj, pad)
    elif kind is list and obj or kind is dict and obj and set(map(type, obj)) == {str}:
        inner = pad + "  "
        sep = ",\n" + inner
        if kind is list and set(map(type, obj)) <= _SCALARS:
            # No scalar's text holds the item separator ", ".
            yield (f"[\n{inner}" + sep.join(json.dumps(obj)[1:-1].split(", "))
                   + f"\n{pad}]")
        elif kind is list:
            lead = "[\n" + inner
            for v in obj:
                yield lead
                yield from _write(v, inner)
                lead = sep
            yield f"\n{pad}]"
        else:
            lead = "{\n" + inner
            for k, v in obj.items():
                yield f"{lead}{encode_basestring_ascii(k)}: "
                yield from _write(v, inner)
                lead = sep
            yield f"\n{pad}}}"
    else:
        # Encoded JSON holds no raw newline, so every newline starts a line.
        yield json.dumps(obj, indent=2).replace("\n", "\n" + pad)


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
                missing: str = "is not declared", nested: bool = True):
    """`data[key]`, an array of labels of the given shape (() for one label),
    as nested tuples of indices, or unless `nested` as the list of them in C order.
    The shape is checked level by level before the leaves are looked up
    (naming the first bad label in C order) and nested."""
    level = [data[key]]
    for size in shape:
        for t in level:
            if not isinstance(t, list):
                raise FixtureError(f"shape error: {key} table is not a nested array")
            if len(t) != size:
                raise FixtureError(f"shape error: {key} table must be "
                                   + "x".join(map(str, shape)))
        level = [v for t in level for v in t]
    try:
        flat = list(map(index.__getitem__, level))
    except (KeyError, TypeError):
        bad = next(t for t in level if not isinstance(t, str) or t not in index)
        raise FixtureError(f"reference error: label {bad!r} in {key} {missing}") from None
    if not nested:
        return flat
    for size in reversed(shape):
        flat = zip(*[iter(flat)] * size)
    return next(iter(flat))


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
    commutative = data.get("commutative", True)
    if not isinstance(commutative, bool):
        raise FixtureError("shape error: commutative must be true or false")
    return FiniteTernaryGammaSemiring(
        name=str(data["name"]), elements=tuple(elements), zero=zero, unit=unit,
        gamma=tuple(gamma), add=add, tri=tri, commutative=commutative)


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
    return _dump(structure_to_dict(S)) + "\n"


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
