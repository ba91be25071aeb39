"""Finite modules over a ternary gamma-semiring: axioms, submodules,
congruences and quotients, homomorphism enumeration, simplicity and density
analysis, annihilators, module catalogs, and the Jacobson radical.

The module laws are declared once, in `MODULE_LAWS`, and checked on index
grids by the same evaluator as the structure laws in `core`.

A module stores its action once per distinct column m ↦ act(a, x, m, y, b):
`S.quads` lists the parameters (a, x, y, b) in C order.  Builders map these
columns and readers iterate them.  The nested table act[a][x][m][y][b] is the
fixture format only: `module_from_dict` reads it and `module_to_dict` writes it.

The quotient construction is subtraction-free throughout: two carrier
elements are identified when they become equal after adding elements of the
designated submodule (the Bourne relation), and the induced tables are
verified rather than assumed.  Congruences are joins of join-irreducible ones.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

from .core import (AxiomReport, FiniteTernaryGammaSemiring, FixtureError,
                   IdealSet, Law, PreconditionError, _Table,
                   UnionFind, _charge, _check_laws, _dump,
                   _structure_tables, bourne_classes, check_axioms, label_array,
                   read_labels, table_arrays)

@dataclass(frozen=True)
class GammaModule:
    """A finite commutative monoid carrying a five-slot action of the base.

    `columns[column_of[k]][m]` gives the carrier index of act(a, x, m, y, b)
    for (a, x, y, b) = base.quads[k].  The columns are distinct and in order
    of first occurrence over the quads, so equal actions have equal fields.
    A builder passes its columns (iterables will do) in the order the quads
    first read them, as the column of each quad and any map of a module's
    columns are; construction merges those that are equal.
    """

    name: str
    base: FiniteTernaryGammaSemiring
    carrier: tuple[str, ...]
    zero: int
    madd: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...]
    column_of: tuple[int, ...]
    m2_profile: str = "none"

    def __post_init__(self):
        number: dict = {}
        merged = [number.setdefault(tuple(col), len(number)) for col in self.columns]
        column_of = tuple(self.column_of)
        if len(number) < len(merged):
            column_of = tuple(map(merged.__getitem__, column_of))
        object.__setattr__(self, "columns", tuple(number))
        object.__setattr__(self, "column_of", column_of)

    @property
    def size(self) -> int:
        return len(self.carrier)

    def sum_of(self, items) -> int:
        total = self.zero
        for i in items:
            total = self.madd[total][i]
        return total


def nested_action(M: GammaModule) -> tuple:
    """The nested table act[a][x][m][y][b] of the fixture format, from the columns."""
    g, n = M.base.g, M.base.n
    rows = zip(*map(M.columns.__getitem__, M.column_of))
    blocks = [tuple(zip(*[zip(*[iter(row)] * n)] * g)) for row in rows]
    return tuple(zip(*[zip(*blocks)] * g))


def _module_tables(M: GammaModule) -> dict:
    import numpy as np
    t, n, g = _structure_tables(M.base), M.base.n, M.base.g
    act = np.array(M.columns)[np.array(M.column_of)]  # act[k, m] at quad k
    act = act.reshape(n, g, g, n, -1).transpose(0, 1, 4, 2, 3)
    return {**t, "m": M.size, "zm": M.zero, "nested": M.m2_profile == "nested",
            "madd": _Table(M.madd, M.size, t["grid"]),
            "act": _Table(np.ascontiguousarray(act), M.size, t["grid"])}


# `u` names a carrier element, `zm` is the carrier's zero.
MODULE_LAWS = (
    (Law("madd-closure", "u1 u2", "madd(u1, u2)", "m", closure=True),
     Law("act-closure", "a x u y b", "act(a, x, u, y, b)", "m", closure=True)),
    (Law("madd-identity", "u", "madd(zm, u)", "u"),
     Law("madd-commutativity", "u1 u2", "madd(u1, u2)", "madd(u2, u1)"),
     Law("madd-associativity", "u1 u2 u3", "madd(madd(u1, u2), u3)", "madd(u1, madd(u2, u3))"),
     Law("act-additivity-slot-a", "a a2 x u y b", "act(add(a, a2), x, u, y, b)",
         "madd(act(a, x, u, y, b), act(a2, x, u, y, b))"),
     Law("act-additivity-slot-m", "a x u1 u2 y b", "act(a, x, madd(u1, u2), y, b)",
         "madd(act(a, x, u1, y, b), act(a, x, u2, y, b))"),
     Law("act-additivity-slot-b", "a x u y b b2", "act(a, x, u, y, add(b, b2))",
         "madd(act(a, x, u, y, b), act(a, x, u, y, b2))"),
     Law("act-zero-module", "a x y b", "act(a, x, zm, y, b)", "zm"),
     Law("act-absorb-a", "x u y b", "act(zero, x, u, y, b)", "zm"),
     Law("act-absorb-b", "a x u y", "act(a, x, u, y, zero)", "zm"),
     # Nesting law mirroring ternary associativity with the carrier element
     # in the middle slot.
     Law("m2-nested", "a x b y c z u w e", "act(tri(a, x, b, y, c), z, u, w, e)",
         "act(a, x, act(b, y, u, z, c), w, e)", when="nested")),
)


@lru_cache(maxsize=None)
def check_module_axioms(M: GammaModule) -> AxiomReport:
    """Test every instance of every law in `MODULE_LAWS`; base-structure
    failures become warnings."""
    if M.m2_profile not in ("none", "nested"):
        raise PreconditionError(f"unknown m2_profile {M.m2_profile!r}")
    return AxiomReport(_check_laws(MODULE_LAWS, _module_tables(M)),
                       warnings=check_axioms(M.base).violations)


def require_module_axioms(M: GammaModule, lenient: bool, op: str) -> None:
    """Raise at M's first module-law violation; a lenient gate checks nothing."""
    violations = () if lenient else check_module_axioms(M).violations
    if violations:
        first = violations[0]
        raise PreconditionError(
            f"{op}: module {M.name!r} fails {first.law} at witness {first.witness}; "
            f"pass lenient=True to proceed anyway")


# ---------------------------------------------------------------------------
# Submodules

def _closure(table, seed) -> frozenset[int]:
    """Least subset of `table` = (addition, zero, action rows) holding the zero
    and the seed and closed under both.  Each element is expanded once, against
    every element present by then; one added later expands against it in turn."""
    madd, zero, rows = table
    current = {zero, *seed}
    todo = list(current)
    while todo:
        i = todo.pop()
        found = {madd[i][j] for j in current}
        found.update([madd[j][i] for j in current], rows[i])
        found -= current
        current |= found
        todo.extend(found)
    return frozenset(current)


def _table(M: GammaModule) -> tuple:
    return M.madd, M.zero, tuple(zip(*M.columns))


def _column_pairs(M: GammaModule, N: GammaModule) -> dict:
    """The distinct pairs (column of M, column of N) over the quads, numbered
    in order of first occurrence."""
    return dict(zip(dict.fromkeys(zip(M.column_of, N.column_of)), itertools.count()))


def _hom_tables(M: GammaModule, N: GammaModule) -> tuple:
    """`_table` of M and of N over one quad per pair of `_column_pairs`: quads
    with equal source and equal target columns push equal pairs in `_homs`."""
    pairs = _column_pairs(M, N)
    return tuple((X.madd, X.zero, tuple(zip(*(X.columns[p[s]] for p in pairs))))
                 for s, X in enumerate((M, N)))


def submodule_closure(M: GammaModule, seed) -> frozenset[int]:
    """Least submodule containing the seed."""
    return _closure(_table(M), seed)


def is_submodule(M: GammaModule, members: frozenset[int]) -> bool:
    if M.zero not in members:
        return False
    if any(M.madd[i][j] not in members for i in members for j in members):
        return False
    return all(col[m] in members for col in M.columns for m in members)


def enumerate_submodules(M: GammaModule) -> list[frozenset[int]]:
    _charge("enum", M.size, "enumerate_submodules: |M|")
    found: set[frozenset[int]] = set()
    table = _table(M)
    queue = [_closure(table, ())]
    while queue:
        sub = queue.pop()
        if sub in found:
            continue
        found.add(sub)
        for x in range(M.size):
            if x not in sub:
                queue.append(_closure(table, sub | {x}))
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def is_simple(M: GammaModule) -> bool:
    """No submodules besides the zero singleton and the whole carrier.

    Stated this way (rather than "exactly two submodules") because the zero
    singleton need not be action-closed when the absorption laws fail, yet
    such a module still has no proper nonzero submodule.  A proper nonzero
    submodule contains the closure of each of its nonzero elements, so M is
    simple exactly when the closure of ∅ and of each {x} is {zero} or M:
    |M| + 1 closures and no lattice.  |M| is still charged to the "enum"
    limit, as the lattice enumeration was, so every command keeps its limits.
    """
    if M.size <= 1:
        return False
    _charge("enum", M.size, "is_simple: |M|")
    table = _table(M)
    allowed = (frozenset((M.zero,)), frozenset(range(M.size)))
    return all(_closure(table, seed) in allowed
               for seed in ((), *((x,) for x in range(M.size))))


def sub_module(M: GammaModule, members: frozenset[int], name: str | None = None) -> GammaModule:
    if not is_submodule(M, members):
        raise PreconditionError("sub_module: subset is not a submodule")
    order = sorted(members)
    new_index = {orig: k for k, orig in enumerate(order)}
    madd = tuple(tuple(new_index[M.madd[i][j]] for j in order) for i in order)
    cols = (tuple(new_index[col[m]] for m in order) for col in M.columns)
    return GammaModule(
        name=name or f"{M.name}|{{{','.join(M.carrier[i] for i in order)}}}",
        base=M.base, carrier=tuple(M.carrier[i] for i in order),
        zero=new_index[M.zero], madd=madd, columns=cols, column_of=M.column_of,
        m2_profile=M.m2_profile)


# ---------------------------------------------------------------------------
# Homomorphisms

@dataclass(frozen=True)
class ModuleHom:
    source: GammaModule
    target: GammaModule
    map: tuple[int, ...]
    verified: bool = False

    def __call__(self, i: int) -> int:
        return self.map[i]

    @property
    def is_zero(self) -> bool:
        return all(v == self.target.zero for v in self.map)

    def is_bijective(self) -> bool:
        return (self.source.size == self.target.size
                and len(set(self.map)) == self.source.size)

    def after(self, other: "ModuleHom") -> "ModuleHom":
        """Composition self ∘ other."""
        return ModuleHom(other.source, self.target,
                         tuple(self.map[v] for v in other.map))


def _pointwise_sums(homs, madd) -> tuple[tuple[int | None, ...], ...]:
    """Row f, column g: the index in `homs` of the pointwise sum f + g under the
    target addition `madd`, or None when that sum is not in `homs`."""
    index = {f.map: k for k, f in enumerate(homs)}
    return tuple(tuple(index.get(tuple(madd[u][v] for u, v in zip(f.map, g.map)))
                       for g in homs) for f in homs)


def hom_violation(source: GammaModule, target: GammaModule, mapping: tuple[int, ...]):
    """First broken homomorphism law for a total carrier mapping, or None."""
    if mapping[source.zero] != target.zero:
        return ("zero", (source.zero,))
    carrier = range(source.size)
    for i in carrier:
        for j in carrier:
            if mapping[source.madd[i][j]] != target.madd[mapping[i]][mapping[j]]:
                return ("additive", (i, j))
    # The first quad of each pair of columns is the first quad to break it.
    pairs = _column_pairs(source, target)
    for m in carrier:
        for s, t in pairs:
            if mapping[source.columns[s][m]] != target.columns[t][mapping[m]]:
                k = [*zip(source.column_of, target.column_of)].index((s, t))
                a, x, y, b = source.base.quads[k]
                return ("equivariance", (a, x, m, y, b))
    return None


def _generators(table) -> tuple[int, ...]:
    """Small generating set of `table`, greedy by largest `_closure` gain."""
    size = len(table[0])
    gens: list[int] = []
    closure = _closure(table, ())
    while len(closure) < size:
        # max keeps the first of the largest closures.
        x, closure = max(((x, _closure(table, closure | {x}))
                          for x in range(size) if x not in closure),
                         key=lambda pair: len(pair[1]))
        gens.append(x)
    return tuple(gens)


def generating_set(M: GammaModule) -> tuple[int, ...]:
    """Small additive+action generating set, greedy by largest closure gain."""
    return _generators(_table(M))


def _homs(source, target, injective: bool):
    """Each hom, or each injective one, between two (addition, zero, action
    rows) triples, as a carrier mapping.  From zero ↦ zero it tries every image
    of one generator at a time, in `_generators` order, propagates through every
    sum of mapped elements and every action column, and backtracks on a
    conflict or, if `injective`, a shared image; so every complete map is a hom.
    Each image tried for a generator is one search node, charged to "hom"."""
    sadd, szero, srows = source
    tadd, tzero, trows = target

    def extend(image: list[int], m: int, v: int) -> bool:
        todo = [(m, v)]
        while todo:
            m, v = todo.pop()
            if image[m] >= 0 or injective and v in image:
                if image[m] != v:
                    return False
                continue
            image[m] = v
            todo += zip(srows[m], trows[v])
            todo += [(sadd[m][k], tadd[v][w]) for k, w in enumerate(image) if w >= 0]
            todo += [(sadd[k][m], tadd[w][v]) for k, w in enumerate(image) if w >= 0]
        return True

    gens, nodes = _generators(source), itertools.count(1)

    def search(image: list[int], depth: int):
        if depth == len(gens):
            yield tuple(image)
            return
        for v in range(len(tadd)):
            _charge("hom", next(nodes), "hom search: nodes")
            child = image.copy()
            if extend(child, gens[depth], v):
                yield from search(child, depth + 1)

    root = [-1] * len(sadd)
    if extend(root, szero, tzero):
        yield from search(root, 0)


def hom_set(M: GammaModule, N: GammaModule) -> tuple[ModuleHom, ...]:
    """All homomorphisms M -> N, ordered by mapping tuple: the backtracking
    search of `_homs` over generator images, charged per search node."""
    if M.base is not N.base and M.base != N.base:
        raise PreconditionError("hom_set: modules live over different bases")
    maps = sorted(_homs(*_hom_tables(M, N), False))
    return tuple(ModuleHom(M, N, mp, verified=True) for mp in maps)


def find_isomorphism(A: GammaModule, B: GammaModule) -> ModuleHom | None:
    """First bijective hom A -> B that the search reaches, or None.  Its
    inverse is a hom too, as for every bijective hom between total tables."""
    if A.size != B.size:
        return None
    found = next(_homs(*_hom_tables(A, B), True), None)
    return None if found is None else ModuleHom(A, B, found, verified=True)


# ---------------------------------------------------------------------------
# Annihilators and faithfulness

def annihilator_of_element(M: GammaModule, mm: int) -> frozenset[int]:
    S = M.base
    moved = {i for i, col in enumerate(M.columns) if col[mm] != M.zero}
    acting = {q[0] for q, i in zip(S.quads, M.column_of) if i in moved}
    # 0_T belongs by the ideal type invariant even when absorption fails.
    return frozenset(range(S.n)).difference(acting) | {S.zero}


def annihilator(M: GammaModule, lenient: bool = False) -> IdealSet:
    """Elements acting as zero on every carrier element, as an IdealSet."""
    require_module_axioms(M, lenient, "annihilator")
    S = M.base
    members = frozenset(range(S.n))
    for mm in range(M.size):
        members &= annihilator_of_element(M, mm)
    return IdealSet(members, is_ideal=is_submodule(_ideal_module(S), members))


def is_faithful(M: GammaModule, lenient: bool = False) -> tuple[bool, int | None]:
    ann = annihilator(M, lenient=lenient)
    nonzero = sorted(ann.members - {M.base.zero})
    if nonzero:
        return False, nonzero[0]
    return True, None


# ---------------------------------------------------------------------------
# Endomorphism semiring, Schur census, density

@dataclass
class EndReport:
    module: GammaModule
    homs: tuple[ModuleHom, ...]
    add_table: tuple
    comp_table: tuple
    add_closed: bool
    simple: bool
    schur_checked: bool
    schur_failures: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.homs)

    @property
    def schur_ok(self) -> bool:
        return self.schur_checked and not self.schur_failures

    def census(self) -> dict:
        bijective = sum(1 for f in self.homs if f.is_bijective())
        nonzero = sum(1 for f in self.homs if not f.is_zero)
        return {"size": self.size, "bijective": bijective, "nonzero": nonzero,
                "add_closed": self.add_closed}


def end_semiring(M: GammaModule, lenient: bool = False) -> EndReport:
    require_module_axioms(M, lenient, "end_semiring")
    homs = hom_set(M, M)
    index = {f.map: k for k, f in enumerate(homs)}
    add_rows = _pointwise_sums(homs, M.madd)
    add_closed = all(None not in row for row in add_rows)
    comp_rows = tuple(tuple(index[f.after(g_h).map] for g_h in homs) for f in homs)

    simple = is_simple(M)
    schur_failures = tuple(k for k, f in enumerate(homs)
                           if simple and not f.is_zero and not f.is_bijective())
    return EndReport(module=M, homs=homs, add_table=add_rows,
                     comp_table=comp_rows, add_closed=add_closed, simple=simple,
                     schur_checked=simple, schur_failures=schur_failures)


@dataclass
class DensityReport:
    module: GammaModule
    anchor: int
    ok: bool
    witnesses: tuple  # (m, n, a, x, y) with act(a, x, m, y, anchor) == n
    unsolvable: tuple
    rank2: dict | None = None

    def to_dict(self) -> dict:
        return {
            "module": self.module.name,
            "anchor": self.module.base.elements[self.anchor],
            "ok": self.ok,
            "witnesses": [list(w) for w in self.witnesses],
            "unsolvable": [list(w) for w in self.unsolvable],
            "rank2": self.rank2,
        }


def density_check(M: GammaModule, anchor: int | None = None, rank2: bool = False,
                  lenient: bool = False) -> DensityReport:
    """Transitivity of the anchored action on nonzero carrier elements.

    For every nonzero m and every n the search looks for (a, x, y) with
    act(a, x, m, y, anchor) = n; the witness table re-evaluates exactly.
    """
    require_module_axioms(M, lenient, "density_check")
    if not is_simple(M):
        raise PreconditionError("density_check: module is not simple")
    if anchor is None:
        anchor = M.base.unit
    if anchor is None:
        raise PreconditionError("density_check: no anchor available (no unit declared)")
    # The distinct columns at the quads with b = anchor, each with its first quad's (a, x, y).
    anchored = M.column_of[anchor::M.base.n]
    cols = dict.fromkeys(anchored)
    combos = [M.base.quads[anchored.index(i) * M.base.n + anchor][:3] for i in cols]
    nonzero = [mm for mm in range(M.size) if mm != M.zero]
    rows = {mm: [M.columns[i][mm] for i in cols] for mm in nonzero}
    witnesses = []
    unsolvable = []
    for mm in nonzero:
        first: dict[int, int] = {}
        for k, v in enumerate(rows[mm]):
            first.setdefault(v, k)
        for n in range(M.size):
            if n in first:
                witnesses.append((mm, n, *combos[first[n]]))
            else:
                unsolvable.append((mm, n))
    rank2_data = None
    if rank2:
        eligible = M.size ** 2 * (len(nonzero) * (len(nonzero) - 1) // 2)
        solvable = sum(len(set(zip(rows[m1], rows[m2])))
                       for m1, m2 in itertools.combinations(nonzero, 2))
        rank2_data = {"eligible": eligible, "solvable": solvable,
                      "unsolvable": eligible - solvable}
    return DensityReport(module=M, anchor=anchor, ok=not unsolvable,
                         witnesses=tuple(witnesses), unsolvable=tuple(unsolvable),
                         rank2=rank2_data)


# ---------------------------------------------------------------------------
# Congruences and quotients

@dataclass
class ModuleCongruence:
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    compatible: bool
    witness: str | None = None

    @property
    def size(self) -> int:
        return len(self.classes)


def _classes(class_of) -> tuple[tuple[int, ...], ...]:
    """Classes of a partition given as the class of each carrier element."""
    return tuple(tuple(m for m, c in enumerate(class_of) if c == k)
                 for k in range(max(class_of) + 1))


def _partition_to_congruence(M: GammaModule, class_of) -> ModuleCongruence:
    """Congruence record of a partition, with classes numbered by least member,
    checked against every translation and action column."""
    return ModuleCongruence(_classes(class_of), tuple(class_of),
                            *_congruence_compatible(M, class_of))


def _congruence_compatible(M: GammaModule, class_of) -> tuple[bool, str | None]:
    carrier = range(len(class_of))
    for m1 in carrier:
        for m2 in carrier:
            if class_of[m1] != class_of[m2]:
                continue
            for u in carrier:
                if class_of[M.madd[m1][u]] != class_of[M.madd[m2][u]]:
                    return False, f"madd: [{m1}]=[{m2}] but [{m1}+{u}]!=[{m2}+{u}]"
            for i, col in enumerate(M.columns):
                if class_of[col[m1]] != class_of[col[m2]]:
                    a, x, y, b = M.base.quads[M.column_of.index(i)]
                    return False, (f"act: [{m1}]=[{m2}] but images differ "
                                   f"at (a={a},x={x},y={y},b={b})")
    return True, None


def quotient_by_congruence(M: GammaModule, cong: ModuleCongruence,
                           name: str | None = None) -> GammaModule:
    """Quotient module on congruence classes, built from class representatives."""
    reps = [cls[0] for cls in cong.classes]
    class_of = cong.class_of
    madd = tuple(tuple(class_of[M.madd[r1][r2]] for r2 in reps) for r1 in reps)
    cols = (tuple(class_of[col[r]] for r in reps) for col in M.columns)
    labels = tuple(f"[{M.carrier[r]}]" for r in reps)
    return GammaModule(name=name or f"{M.name}/~{len(cong.classes)}",
                       base=M.base, carrier=labels, zero=class_of[M.zero], madd=madd,
                       columns=cols, column_of=M.column_of, m2_profile=M.m2_profile)


def bourne_quotient(M: GammaModule, members: frozenset[int],
                    name: str | None = None) -> tuple[GammaModule, ModuleCongruence]:
    """Quotient by a submodule: identify m ~ m' when m + k = m' + k' for k, k' in N."""
    if not is_submodule(M, members):
        raise PreconditionError("bourne_quotient: subset is not a submodule")
    sub = sorted(members)
    class_of = [0] * M.size
    for ci, cls in enumerate(bourne_classes(M.size, lambda i, j: M.madd[i][j], sub)):
        for elem in cls:
            class_of[elem] = ci
    cong = _partition_to_congruence(M, class_of)
    if name is None:
        name = f"{M.name}/{{{','.join(M.carrier[i] for i in sub)}}}"
    return quotient_by_congruence(M, cong, name=name), cong


def _below(pairs, theta) -> bool:
    """Whether the equivalence generated by `pairs` lies below `theta`."""
    return all(theta[m] == theta[r] for m, r in pairs)


def _equivalence_join(theta, pairs) -> tuple[int, ...]:
    """θ ∨ (the equivalence `pairs` generate), by union-find over θ's classes."""
    uf = UnionFind(max(theta) + 1)
    for m, r in pairs:
        uf.union(theta[m], theta[r])
    roots: dict[int, int] = {}
    return tuple(roots.setdefault(uf.find(c), len(roots)) for c in theta)


def _principals(M: GammaModule):
    """Each principal congruence Cg(a, b), a < b, as the least member of each
    element's class.  Congruences respect each m ↦ madd[m][u] and each action
    column: merging x, y pushes (f(x), f(y))."""
    maps, discrete = {*zip(*M.madd), *M.columns}, range(M.size)
    for a, b in itertools.combinations(discrete, 2):
        uf, todo = UnionFind(M.size), [(a, b)]
        while todo:
            x, y = todo.pop()
            if uf.union(x, y):
                todo.extend((f[x], f[y]) for f in maps)
        yield tuple(map(uf.find, discrete))


@lru_cache(maxsize=1)  # the catalog reads them right after its lattice did
def _join_irreducibles(M: GammaModule) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each Cg(a, b) that is not the join of the principal congruences below it,
    as its edges (m, least member of m's class)."""
    discrete = tuple(range(M.size))
    principals = {root: tuple((m, r) for m, r in enumerate(root) if r != m)
                  for root in _principals(M)}
    return tuple(sorted(p for root, p in principals.items() if not _below(p, reduce(
        _equivalence_join, (q for q in principals.values() if q != p and _below(q, root)),
        discrete))))


def is_congruence_simple(M: GammaModule) -> bool:
    """Supplementary to submodule-simplicity, and what controls quotients: the
    only congruences are the discrete and total ones, that is |M| ≥ 2 and
    every principal congruence Cg(a, b) with a ≠ b is total.  Stops at the
    first one that is not."""
    return M.size > 1 and all(max(root) == 0 for root in _principals(M))


def enumerate_module_congruences(M: GammaModule) -> list[ModuleCongruence]:
    """All congruences, in lexicographic order of `class_of`: each is a join of
    join-irreducible principal ones (Freese, Algebra Universalis 59, 2008), and
    joins of congruences are their equivalence joins (Burris & Sankappanavar, A
    Course in Universal Algebra).  θ ∨ p is skipped when p is below θ."""
    _charge("partition", M.size, "enumerate_module_congruences: |M|")
    lattice = {tuple(range(M.size))}
    for p in _join_irreducibles(M):
        lattice |= {_equivalence_join(theta, p) for theta in lattice if not _below(p, theta)}
    return [ModuleCongruence(_classes(class_of), class_of, compatible=True)
            for class_of in sorted(lattice)]


# ---------------------------------------------------------------------------
# Isomorphism theorem instance checks

@dataclass
class IsoInstanceReport:
    name: str
    holds: bool
    details: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds, "details": self.details}


def first_isomorphism_check(f: ModuleHom) -> IsoInstanceReport:
    """ker f, im f, the quotient by ker f, and bijectivity of the induced map."""
    M, N = f.source, f.target
    kernel = frozenset(m for m in range(M.size) if f.map[m] == N.zero)
    image = frozenset(f.map)
    details: dict = {
        "kernel": sorted(kernel), "image": sorted(image),
        "kernel_is_submodule": is_submodule(M, kernel),
        "image_is_submodule": is_submodule(N, image),
    }
    if not details["kernel_is_submodule"]:
        return IsoInstanceReport("first", False, details)
    quotient, cong = bourne_quotient(M, kernel)
    details["quotient_size"] = quotient.size
    induced = []
    well_defined = True
    for cls in cong.classes:
        values = {f.map[m] for m in cls}
        if len(values) > 1:
            well_defined = False
        induced.append(min(values))
    details["induced_well_defined"] = well_defined
    injective = len(set(induced)) == len(induced)
    surjective = set(induced) == set(image)
    details["induced_bijective_onto_image"] = injective and surjective
    hom_ok = False
    if details["image_is_submodule"] and well_defined:
        target_sub = sub_module(N, image)
        reindex = {orig: k for k, orig in enumerate(sorted(image))}
        hom_ok = hom_violation(quotient, target_sub,
                               tuple(reindex[v] for v in induced)) is None
    details["induced_is_hom"] = hom_ok
    holds = (well_defined and injective and surjective and hom_ok
             and details["image_is_submodule"])
    return IsoInstanceReport("first", holds, details)


def second_isomorphism_check(M: GammaModule, N: frozenset[int],
                             P: frozenset[int]) -> IsoInstanceReport:
    """(N+P)/P against N/(N∩P), compared through an explicit isomorphism search."""
    for label, subset in (("N", N), ("P", P)):
        if not is_submodule(M, subset):
            return IsoInstanceReport("second", False, {"bad_submodule": label})
    np_members = submodule_closure(M, N | P)
    np_mod = sub_module(M, np_members)
    np_index = {orig: k for k, orig in enumerate(sorted(np_members))}
    lhs, _ = bourne_quotient(np_mod, frozenset(np_index[p] for p in P))
    n_mod = sub_module(M, N)
    n_index = {orig: k for k, orig in enumerate(sorted(N))}
    rhs, _ = bourne_quotient(n_mod, frozenset(n_index[p] for p in (N & P)))
    iso = find_isomorphism(lhs, rhs)
    details = {"lhs_size": lhs.size, "rhs_size": rhs.size,
               "isomorphism_found": iso is not None}
    return IsoInstanceReport("second", iso is not None, details)


def third_isomorphism_check(M: GammaModule, N: frozenset[int],
                            P: frozenset[int]) -> IsoInstanceReport:
    """(M/P)/(N/P) against M/N for nested submodules P ⊆ N ⊆ M."""
    if not P <= N:
        return IsoInstanceReport("third", False, {"error": "P not contained in N"})
    for label, subset in (("N", N), ("P", P)):
        if not is_submodule(M, subset):
            return IsoInstanceReport("third", False, {"bad_submodule": label})
    mp, cong_p = bourne_quotient(M, P)
    n_image = frozenset(cong_p.class_of[m] for m in N)
    if not is_submodule(mp, n_image):
        return IsoInstanceReport("third", False, {"error": "N/P is not a submodule of M/P"})
    lhs, _ = bourne_quotient(mp, n_image)
    rhs, _ = bourne_quotient(M, N)
    iso = find_isomorphism(lhs, rhs)
    details = {"lhs_size": lhs.size, "rhs_size": rhs.size,
               "isomorphism_found": iso is not None}
    return IsoInstanceReport("third", iso is not None, details)


def iso_theorem_suite(first: ModuleHom | None = None,
                      second: tuple | None = None,
                      third: tuple | None = None) -> tuple[IsoInstanceReport, ...]:
    """Run the requested instance checks; these validate instances, not theorems."""
    reports = []
    if first is not None:
        reports.append(first_isomorphism_check(first))
    if second is not None:
        reports.append(second_isomorphism_check(*second))
    if third is not None:
        reports.append(third_isomorphism_check(*third))
    return tuple(reports)


# ---------------------------------------------------------------------------
# Catalogs, radical, semisimplicity

@dataclass
class CatalogEntry:
    module: GammaModule
    simple: bool
    origin: str
    congruence_simple: bool = False


def _iso_invariant(M: GammaModule) -> tuple:
    """What isomorphisms over one base keep: size, which action columns are equal
    (`column_of`), sorted fibre sizes of each distinct column, multiset of
    (is zero, #{u: m + u = m}, distinct columns fixing m)."""
    cols = M.columns
    return (M.size, M.column_of, tuple(tuple(sorted(map(col.count, set(col)))) for col in cols),
            tuple(sorted((m == M.zero, row.count(m), tuple(col[m] == m for col in cols))
                         for m, row in enumerate(M.madd))))


def cyclic_module_catalog(S: FiniteTernaryGammaSemiring,
                          lenient: bool = False) -> list[CatalogEntry]:
    """Regular module plus its quotients by its congruences, deduplicated by
    `find_isomorphism` among quotients whose `_iso_invariant` hashes agree.  If
    T's addition commutes, Con(reg/θ) is Con(reg) above θ, so reg/θ is
    congruence-simple when θ ∨ j is θ or total for each join-irreducible j."""
    reg = regular_module(S)
    require_module_axioms(reg, lenient, "cyclic_module_catalog")
    quotients = sorted(
        ((reg if cong.size == reg.size else
          quotient_by_congruence(reg, cong, name=f"{S.name}-cyclic-q{k}"), cong.class_of)
         for k, cong in enumerate(enumerate_module_congruences(reg))),
        key=lambda pair: (pair[0].size, pair[0].name))
    commutative, generators = reg.madd == tuple(zip(*reg.madd)), _join_irreducibles(reg)
    kept: list[CatalogEntry] = []
    by_invariant: dict[int, list[GammaModule]] = {}
    for q, theta in quotients:
        alike = by_invariant.setdefault(hash(_iso_invariant(q)), [])
        if all(find_isomorphism(q, other) is None for other in alike):
            alike.append(q)
            con_simple = q.size > 1 and all(
                _below(j, theta) or max(_equivalence_join(theta, j)) == 0
                for j in generators) if commutative else is_congruence_simple(q)
            kept.append(CatalogEntry(module=q, simple=is_simple(q), origin="regular-quotient",
                                     congruence_simple=con_simple))
    return kept


@dataclass
class RadicalReport:
    ideal: IdealSet
    simples_used: tuple[str, ...]
    note: str = "catalog-relative"

    def to_dict(self, S: FiniteTernaryGammaSemiring) -> dict:
        return {"members": list(self.ideal.labels(S)),
                "is_ideal": self.ideal.is_ideal,
                "simples_used": list(self.simples_used),
                "note": self.note}


def jacobson_radical(S: FiniteTernaryGammaSemiring, catalog=None,
                     lenient: bool = False) -> RadicalReport:
    """Intersection of annihilators of the catalog's simple modules."""
    if catalog is None:
        catalog = cyclic_module_catalog(S, lenient=lenient)
    simples = [e for e in catalog if e.simple]
    members = frozenset(range(S.n))
    for entry in simples:
        members &= annihilator(entry.module, lenient=lenient).members
    ideal = IdealSet(members, is_ideal=is_submodule(_ideal_module(S), members))
    return RadicalReport(ideal=ideal,
                         simples_used=tuple(e.module.name for e in simples))


def direct_sum(M1: GammaModule, M2: GammaModule, name: str | None = None) -> GammaModule:
    """Componentwise product carrier with componentwise tables."""
    if M1.base != M2.base:
        raise PreconditionError("direct_sum: modules live over different bases")
    S = M1.base
    pairs = [(i, j) for i in range(M1.size) for j in range(M2.size)]
    idx = {p: k for k, p in enumerate(pairs)}
    labels = tuple(f"({M1.carrier[i]},{M2.carrier[j]})" for i, j in pairs)
    madd = tuple(tuple(idx[(M1.madd[a1][b1], M2.madd[a2][b2])] for b1, b2 in pairs)
                 for a1, a2 in pairs)
    both = _column_pairs(M1, M2)
    cols = (tuple(map(idx.__getitem__, itertools.product(M1.columns[i], M2.columns[j])))
            for i, j in both)
    profile = M1.m2_profile if M1.m2_profile == M2.m2_profile else "none"
    return GammaModule(name=name or f"{M1.name}(+){M2.name}", base=S,
                       carrier=labels, zero=idx[(M1.zero, M2.zero)], madd=madd, columns=cols,
                       column_of=map(both.__getitem__, zip(M1.column_of, M2.column_of)),
                       m2_profile=profile)


# ---------------------------------------------------------------------------
# Module builders and fixture text

def _action_columns(flat, m: int, width: int) -> list:
    """The column of each quad, from the entries of t[a][x][u][y][b] in C order
    (width g·n)."""
    block = m * width
    return [tuple(flat[s + j:s + block:width])
            for s in range(0, len(flat), block) for j in range(width)]


@lru_cache(maxsize=None)
def regular_module(S: FiniteTernaryGammaSemiring, name: str | None = None) -> GammaModule:
    """T acting on itself by tri; built once per structure and name."""
    return GammaModule(name=name or f"{S.name}-regular", base=S, carrier=S.elements,
                       zero=S.zero, madd=S.add, column_of=range(len(S.quads)),
                       columns=_action_columns(table_arrays(S)[1].ravel().tolist(),
                                               S.n, S.g * S.n))


@lru_cache(maxsize=None)
def _ideal_module(S: FiniteTernaryGammaSemiring) -> GammaModule:
    """The module whose submodules are the ideals: T acting on itself in every
    slot, or in the middle slot alone when tri-commutativity is declared and
    `check_axioms` finds it holding; built once per structure."""
    import numpy as np
    if S.commutative and all(b.law != "tri-commutativity"
                             for b in check_axioms(S).violations.blocks):
        return regular_module(S)
    reg, t = regular_module(S), table_arrays(S)[1]
    # Past the quads (the middle slot), the columns of T in slot a, then in slot b.
    slots = np.vstack([t.reshape(S.n, -1).T, t.reshape(-1, S.n)]).tolist()
    k = len(reg.columns)
    return replace(reg, columns=[*reg.columns, *slots],
                   column_of=reg.column_of + tuple(range(k, k + len(slots))))


def zero_module(S: FiniteTernaryGammaSemiring, name: str | None = None) -> GammaModule:
    return GammaModule(name=name or f"{S.name}-zero", base=S, carrier=("0",), zero=0,
                       madd=((0,),), columns=((0,),), column_of=(0,) * len(S.quads))


def module_from_dict(data: dict, base: FiniteTernaryGammaSemiring) -> GammaModule:
    if not isinstance(data, dict):
        raise FixtureError("parse error: top level is not an object")
    for key in ("base", "carrier", "zero", "madd", "act"):
        if key not in data:
            raise FixtureError(f"parse error: missing module field {key!r}")
    if data["base"] != base.name:
        raise FixtureError(f"reference error: module declares base {data['base']!r}, "
                           f"got structure {base.name!r}")
    carrier = read_labels(data, "carrier")
    m, n, g = len(carrier), base.n, base.g
    missing = "is not in the carrier"
    zero = label_array(data, "zero", (), carrier, missing)
    madd = label_array(data, "madd", (m, m), carrier, missing)
    act = label_array(data, "act", (n, g, m, g, n), carrier, missing, nested=False)
    profile = data.get("m2_profile", "none")
    if profile not in ("none", "nested"):
        raise FixtureError(f"parse error: unknown m2_profile {profile!r}")
    return GammaModule(name=str(data.get("name", f"{base.name}-module")), base=base,
                       carrier=tuple(carrier), zero=zero, madd=madd,
                       columns=_action_columns(act, m, g * n),
                       column_of=range(len(base.quads)), m2_profile=profile)


def load_module(text: str, base: FiniteTernaryGammaSemiring) -> GammaModule:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"parse error: {exc}") from None
    return module_from_dict(data, base)


def module_to_dict(M: GammaModule) -> dict:
    c = M.carrier
    return {
        "name": M.name,
        "base": M.base.name,
        "carrier": list(c),
        "zero": c[M.zero],
        "madd": [[c[v] for v in row] for row in M.madd],
        "act": [[[[[c[v] for v in t4] for t4 in t3] for t3 in t2] for t2 in t1]
                for t1 in nested_action(M)],
        "m2_profile": M.m2_profile,
    }


def serialize_module(M: GammaModule) -> str:
    return _dump(module_to_dict(M)) + "\n"
