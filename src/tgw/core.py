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

import itertools
import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import itemgetter

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
# (|M|), hom-set and isomorphism candidates, congruence lattices (|M|),
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
    # the flat view of a module action (`GammaModule.images`) lists them.
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


# ---------------------------------------------------------------------------
# Laws

class _Table:
    """An operation table in the smallest integer dtype that holds its entries
    and its range size.  Called with one index per dimension (ints, or integer
    arrays that broadcast) it returns the entries; trailing indices that are
    the trailing axes of `grid` are gathered as whole rows."""

    def __init__(self, rows, size: int, grid: list):
        import numpy as np
        a = np.array(rows)
        dtype = np.promote_types(np.min_scalar_type(min(a.min(), 0)),
                                 np.min_scalar_type(max(a.max(), size)))
        self.a, self.grid = a.astype(dtype), grid

    def __call__(self, *index):
        a, grid = self.a, self.grid
        # The first grid axis holds one value of a chunk, so it is never gathered.
        k, top = 0, min(len(index), len(grid) - 1)
        while k < top and index[-1 - k] is grid[-1 - k]:
            k += 1
        if k:
            rows = a[index[:-k]]
            lead = rows.shape[:-k]
            if not lead or lead[-k:] == (1,) * k:
                return rows.reshape(lead[:-k] + rows.shape[-k:])
        return a[index]


@dataclass(frozen=True)
class Law:
    """A law, declared once: `left` equals `right` wherever `guard` holds (a
    closure law: 0 <= left < right).  Both are expressions over the tables
    and the names in `witness`, one per slot; a name's first letter gives its
    range (x, y, z, w a parameter, u a carrier element, others an element).
    The checker evaluates them on broadcast index grids, one grid axis per
    distinct name and one value of the first at a time; the re-evaluator
    evaluates them on the ints of one witness.  `when` says if a law applies."""

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


def _law_violations(law: Law, tables: dict) -> list[Violation]:
    """Every violation of `law`.  `tables` maps the names its expressions use
    to tables and constants; its list "grid" holds the current chunk's axes."""
    import numpy as np
    axes = list(dict.fromkeys(law.witness.split()))
    slots = [axes.index(name) for name in law.witness.split()]
    sizes = tuple(tables[_RANGE.get(name[0], "n")] for name in axes)
    shape, grid, out = (1, *sizes[1:]), tables["grid"], []
    grid[:] = _axes(sizes)
    ns, first_axis = {**tables, **dict(zip(axes, grid))}, grid[0]
    for first in range(sizes[0]):
        grid[0] = ns[axes[0]] = first_axis[first:first + 1]
        left, right = eval(_code(law.left), ns), eval(_code(law.right), ns)
        bad = (left < 0) | (left >= right) if law.closure else left != right
        if law.guard:
            bad = bad & eval(_code(law.guard), ns)
        # Every axis occurs in a side, so `bad` spans the whole chunk.
        if np.count_nonzero(bad):
            hits = np.nonzero(bad)
            coords = [[first] * len(hits[0])] + [h.tolist() for h in hits[1:]]
            out += map(Violation, itertools.repeat(law.name), zip(*(coords[s] for s in slots)),
                       np.broadcast_to(left, shape)[hits].tolist(),
                       np.broadcast_to(right, shape)[hits].tolist())
    return out


def _check_laws(stages, tables: dict) -> tuple[Violation, ...]:
    """Every violation, sorted by law then witness.  No stage runs after one
    with violations, which may be entries out of range."""
    out: list[Violation] = []
    for stage in stages:
        for law in stage:
            if law.when is None or eval(_code(law.when), dict(tables)):
                out += _law_violations(law, tables)
        if out:
            break
    return tuple(sorted(out, key=lambda v: (v.law, v.witness)))


def _reevaluate(stages, tables: dict, v: Violation) -> tuple[int, int]:
    for law in (law for stage in stages for law in stage if law.name == v.law):
        ns = dict(tables)
        # A law that names one axis twice fits only witnesses that repeat it.
        if all(ns.setdefault(name, k) == k for name, k in zip(law.witness.split(), v.witness)):
            return int(eval(_code(law.left), ns)), int(eval(_code(law.right), ns))
    raise ValueError(f"no law {v.law!r} fits witness {v.witness}")


def _structure_tables(S: FiniteTernaryGammaSemiring) -> dict:
    grid: list = []
    return {"grid": grid, "n": S.n, "g": S.g, "zero": S.zero, "unit": S.unit,
            "commutative": S.commutative,
            "add": _Table(S.add, S.n, grid), "tri": _Table(S.tri, S.n, grid)}


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

_RECORD = ("law", "witness", "left", "right")
_SCALARS = {int, float, bool, type(None)}


def _records(items: list, pad: str) -> list[str] | None:
    """Each of `items`, a list of dicts, as JSON text whose braces sit at
    indent `pad`, when every item is shaped like `Violation.to_dict()`: the
    keys of `_RECORD` in that order, a str law, a nonempty list of int witness
    entries and int sides.  None when any item is not."""
    if set(map(tuple, items)) != {_RECORD}:
        return None
    laws, witnesses, lefts, rights = (list(map(itemgetter(k), items)) for k in _RECORD)
    ints = itertools.chain(lefts, rights, itertools.chain.from_iterable(witnesses))
    if (set(map(type, laws)) != {str} or set(map(type, witnesses)) != {list}
            or not all(witnesses) or set(map(type, ints)) != {int}):
        return None
    inner, deep = pad + "  ", pad + "    "
    head = f'{{\n{inner}"law": %s,\n{inner}"witness": [\n{deep}'
    tail = f'\n{inner}],\n{inner}"left": %d,\n{inner}"right": %d\n{pad}}}'
    # One template per witness length; %d renders an int as int.__repr__ does.
    forms = {k: head + (",\n" + deep).join(["%d"] * k) + tail
             for k in set(map(len, witnesses))}
    names = {law: encode_basestring_ascii(law) for law in set(laws)}
    return [forms[len(w)] % (names[law], *w, left, right)
            for law, w, left, right in zip(laws, witnesses, lefts, rights)]


def _dump(obj, pad: str = "") -> str:
    """Exactly `json.dumps(obj, indent=2)`, for `obj` placed at indent `pad`.

    Python's json encoder runs in C only without indent.  This walks nonempty
    dicts with str keys and nonempty lists itself, writing str, int and bool
    leaves as json writes them and lists of violation records from templates
    (`_records`).  A float or null, and a list of numbers, bools and nulls,
    print the same with and without indent, so json writes them in C.  Every
    other value goes to `json.dumps` whole."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind in _SCALARS:
        return json.dumps(obj)
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is list and obj:
        kinds = set(map(type, obj))
        if kinds <= _SCALARS:
            # No scalar's text holds the item separator ", ".
            body = sep.join(json.dumps(obj)[1:-1].split(", "))
        else:
            body = sep.join(kinds == {dict} and _records(obj, inner)
                            or [_dump(v, inner) for v in obj])
        return f"[\n{inner}{body}\n{pad}]"
    if kind is dict and obj and set(map(type, obj)) == {str}:
        body = sep.join([f"{encode_basestring_ascii(k)}: {_dump(v, inner)}"
                         for k, v in obj.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    # Encoded JSON holds no raw newline, so every newline starts a line.
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


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
