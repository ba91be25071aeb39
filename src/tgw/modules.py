"""Finite modules over a ternary gamma-semiring: axioms, submodules,
congruences and quotients, homomorphism enumeration, simplicity and density
analysis, annihilators, module catalogs, and the Jacobson radical.

The module laws are declared once, in `MODULE_LAWS`, and checked on index
grids by the same evaluator as the structure laws in `core`.

A module stores its action once, flat: `S.quads` lists the parameters
(a, x, y, b) in C order, and `GammaModule.images[m]` is the row of
act(a, x, m, y, b) over them.  Every reader and every builder of a module
works on these rows.  The nested table act[a][x][m][y][b] is the fixture
format only: `module_from_dict` flattens it and `module_to_dict` nests it.

The quotient construction is subtraction-free throughout: two carrier
elements are identified when they become equal after adding elements of the
designated submodule (the Bourne relation), and the induced tables are
verified rather than assumed.  Congruences are built as joins of principal ones.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .core import (AxiomReport, FiniteTernaryGammaSemiring, FixtureError,
                   IdealSet, Law, PreconditionError, Violation, _Table,
                   UnionFind, _charge, _check_laws, _dump, _reevaluate,
                   _structure_tables, bourne_classes, check_axioms, label_array,
                   read_labels)

@dataclass(frozen=True)
class GammaModule:
    """A finite commutative monoid carrying a five-slot action of the base.

    `images[m][k]` gives the carrier index of act(a, x, m, y, b) for
    (a, x, y, b) = base.quads[k]: the action of base elements a, b at
    parameters x, y on carrier element m.
    """

    name: str
    base: FiniteTernaryGammaSemiring
    carrier: tuple[str, ...]
    zero: int
    madd: tuple[tuple[int, ...], ...]
    images: tuple[tuple[int, ...], ...]
    m2_profile: str = "none"

    @property
    def size(self) -> int:
        return len(self.carrier)

    @cached_property
    def act(self) -> tuple:
        """The nested table act[a][x][m][y][b], built from `images` on first use."""
        n, g = self.base.n, self.base.g

        def block(row, a, x):
            start = (a * g + x) * g * n
            return tuple(row[start + y * n:start + (y + 1) * n] for y in range(g))

        return tuple(tuple(tuple(block(row, a, x) for row in self.images) for x in range(g))
                     for a in range(n))

    def sum_of(self, items) -> int:
        total = self.zero
        for i in items:
            total = self.madd[total][i]
        return total


def _module_tables(M: GammaModule) -> dict:
    import numpy as np
    t, n, g = _structure_tables(M.base), M.base.n, M.base.g
    act = np.array(M.images).reshape(M.size, n, g, g, n).transpose(1, 2, 0, 3, 4)
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


def reevaluate_module_violation(M: GammaModule, v: Violation) -> tuple[int, int]:
    """Recompute both sides of a reported module-law violation."""
    return _reevaluate(MODULE_LAWS, _module_tables(M), v)


def require_module_axioms(M: GammaModule, lenient: bool, op: str) -> AxiomReport:
    report = check_module_axioms(M)
    if report.violations and not lenient:
        first = report.violations[0]
        raise PreconditionError(
            f"{op}: module {M.name!r} fails {first.law} at witness {first.witness}; "
            f"pass lenient=True to proceed anyway")
    return report


# ---------------------------------------------------------------------------
# Submodules

def submodule_closure(M: GammaModule, seed) -> frozenset[int]:
    """Least submodule containing the seed.  Each element is expanded once,
    against every element present by then; an element added later expands
    against it in turn."""
    madd = M.madd
    current = {M.zero, *seed}
    todo = list(current)
    while todo:
        i = todo.pop()
        found = {madd[i][j] for j in current}
        found.update([madd[j][i] for j in current], M.images[i])
        found -= current
        current |= found
        todo.extend(found)
    return frozenset(current)


def is_submodule(M: GammaModule, members: frozenset[int]) -> bool:
    if M.zero not in members:
        return False
    if any(M.madd[i][j] not in members for i in members for j in members):
        return False
    return all(members.issuperset(M.images[m]) for m in members)


def enumerate_submodules(M: GammaModule) -> list[frozenset[int]]:
    _charge("enum", M.size, "enumerate_submodules: |M|")
    found: set[frozenset[int]] = set()
    queue = [submodule_closure(M, ())]
    while queue:
        sub = queue.pop()
        if sub in found:
            continue
        found.add(sub)
        for x in range(M.size):
            if x not in sub:
                queue.append(submodule_closure(M, sub | {x}))
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def is_simple(M: GammaModule) -> bool:
    """No submodules besides the zero singleton and the whole carrier.

    Stated this way (rather than "exactly two submodules") because the zero
    singleton need not be action-closed when the absorption laws fail, yet
    such a module still has no proper nonzero submodule.
    """
    if M.size <= 1:
        return False
    full = frozenset(range(M.size))
    zero_only = frozenset((M.zero,))
    return all(s in (zero_only, full) for s in enumerate_submodules(M))


def sub_module(M: GammaModule, members: frozenset[int], name: str | None = None) -> GammaModule:
    if not is_submodule(M, members):
        raise PreconditionError("sub_module: subset is not a submodule")
    order = sorted(members)
    new_index = {orig: k for k, orig in enumerate(order)}
    madd = tuple(tuple(new_index[M.madd[i][j]] for j in order) for i in order)
    images = tuple(tuple(new_index[v] for v in M.images[m]) for m in order)
    return GammaModule(
        name=name or f"{M.name}|{{{','.join(M.carrier[i] for i in order)}}}",
        base=M.base, carrier=tuple(M.carrier[i] for i in order),
        zero=new_index[M.zero], madd=madd, images=images, m2_profile=M.m2_profile)


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


def hom_violation(source: GammaModule, target: GammaModule, mapping: tuple[int, ...]):
    """First broken homomorphism law for a total carrier mapping, or None."""
    if mapping[source.zero] != target.zero:
        return ("zero", (source.zero,))
    carrier = range(source.size)
    for i in carrier:
        for j in carrier:
            if mapping[source.madd[i][j]] != target.madd[mapping[i]][mapping[j]]:
                return ("additive", (i, j))
    for m, row in enumerate(source.images):
        for (a, x, y, b), s, t in zip(source.base.quads, row, target.images[mapping[m]]):
            if mapping[s] != t:
                return ("equivariance", (a, x, m, y, b))
    return None


def generating_set(M: GammaModule) -> tuple[int, ...]:
    """Small additive+action generating set, greedy by largest closure gain."""
    gens: list[int] = []
    closure = submodule_closure(M, ())
    while len(closure) < M.size:
        best, best_closure = None, None
        for x in range(M.size):
            if x in closure:
                continue
            cl = submodule_closure(M, closure | {x})
            if best is None or len(cl) > len(best_closure):
                best, best_closure = x, cl
        gens.append(best)
        closure = best_closure
    return tuple(gens)


def _propagate(M: GammaModule, N: GammaModule, gens, images):
    """Extend generator images through closure; None on conflict."""
    known: dict[int, int] = {M.zero: N.zero}
    for g_elem, img in zip(gens, images):
        if known.get(g_elem, img) != img:
            return None
        known[g_elem] = img
    size = 0
    while len(known) != size:
        size = len(known)
        items = sorted(known.items())
        pairs = itertools.chain(
            ((M.madd[m1][m2], N.madd[v1][v2]) for m1, v1 in items for m2, v2 in items),
            *(zip(M.images[m], N.images[v]) for m, v in items))
        if any(known.setdefault(s, v) != v for s, v in pairs):
            return None
    if len(known) != M.size:
        return None
    return tuple(known[i] for i in range(M.size))


def hom_set(M: GammaModule, N: GammaModule) -> tuple[ModuleHom, ...]:
    """All verified homomorphisms M -> N, ordered by mapping tuple.

    Candidates are generated from generator images and propagated through the
    additive/action closure; every survivor is then re-verified pointwise.
    """
    if M.base is not N.base and M.base != N.base:
        raise PreconditionError("hom_set: modules live over different bases")
    gens = generating_set(M)
    _charge("hom", N.size ** len(gens), "hom_set: candidates")
    maps = set()
    for images in itertools.product(range(N.size), repeat=len(gens)):
        total = _propagate(M, N, gens, images)
        if total is not None and hom_violation(M, N, total) is None:
            maps.add(total)
    return tuple(ModuleHom(M, N, mp, verified=True) for mp in sorted(maps))


def find_isomorphism(A: GammaModule, B: GammaModule) -> ModuleHom | None:
    """Bijective hom whose inverse is again a hom, or None."""
    if A.size != B.size:
        return None
    for f in hom_set(A, B):
        if f.is_bijective():
            inverse = [0] * B.size
            for i, v in enumerate(f.map):
                inverse[v] = i
            if hom_violation(B, A, tuple(inverse)) is None:
                return f
    return None


# ---------------------------------------------------------------------------
# Annihilators and faithfulness

def annihilator_of_element(M: GammaModule, mm: int) -> frozenset[int]:
    S = M.base
    acting = {q[0] for q, v in zip(S.quads, M.images[mm]) if v != M.zero}
    # 0_T belongs by the ideal type invariant even when absorption fails.
    return frozenset(range(S.n)).difference(acting) | {S.zero}


def annihilator(M: GammaModule, lenient: bool = False) -> IdealSet:
    """Elements acting as zero on every carrier element, as an IdealSet."""
    require_module_axioms(M, lenient, "annihilator")
    S = M.base
    members = frozenset(range(S.n))
    for mm in range(M.size):
        members &= annihilator_of_element(M, mm)
    return IdealSet(members, is_ideal=is_submodule(regular_module(S), members))


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
    locality_failures: tuple[int, ...]

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
    add_rows = tuple(tuple(index.get(tuple(M.madd[u][v] for u, v in zip(f.map, g_h.map)))
                           for g_h in homs) for f in homs)
    add_closed = all(None not in row for row in add_rows)
    comp_rows = tuple(tuple(index[f.after(g_h).map] for g_h in homs) for f in homs)

    simple = is_simple(M)
    schur_failures: list[int] = []
    locality_failures: list[int] = []
    if simple:
        for k, f in enumerate(homs):
            if f.is_zero:
                continue
            if not f.is_bijective():
                schur_failures.append(k)
                locality_failures.append(k)
                continue
            inverse = [0] * M.size
            for i, v in enumerate(f.map):
                inverse[v] = i
            if hom_violation(M, M, tuple(inverse)) is None:
                if tuple(inverse) not in index:
                    locality_failures.append(k)
            else:
                locality_failures.append(k)
    return EndReport(module=M, homs=homs, add_table=add_rows,
                     comp_table=comp_rows, add_closed=add_closed, simple=simple,
                     schur_checked=simple, schur_failures=tuple(schur_failures),
                     locality_failures=tuple(locality_failures))


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
    # The anchored columns of `images`, keeping the (a, x, y) order of quads.
    cols = [k for k, q in enumerate(M.base.quads) if q[3] == anchor]
    combos = [M.base.quads[k][:3] for k in cols]
    nonzero = [mm for mm in range(M.size) if mm != M.zero]
    rows = {mm: [M.images[mm][k] for k in cols] for mm in nonzero}
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


def _partition_to_congruence(M: GammaModule, class_of) -> ModuleCongruence:
    """Congruence record of a partition, given as the class of each carrier
    element with classes numbered by least member."""
    classes = [[] for _ in range(max(class_of) + 1)]
    for elem, ci in enumerate(class_of):
        classes[ci].append(elem)
    compatible, witness = _congruence_compatible(M, class_of)
    return ModuleCongruence(classes=tuple(map(tuple, classes)),
                            class_of=tuple(class_of),
                            compatible=compatible, witness=witness)


def _congruence_compatible(M: GammaModule, class_of) -> tuple[bool, str | None]:
    carrier = range(len(class_of))
    for m1 in carrier:
        for m2 in carrier:
            if class_of[m1] != class_of[m2]:
                continue
            for u in carrier:
                if class_of[M.madd[m1][u]] != class_of[M.madd[m2][u]]:
                    return False, f"madd: [{m1}]=[{m2}] but [{m1}+{u}]!=[{m2}+{u}]"
            for (a, x, y, b), v1, v2 in zip(M.base.quads, M.images[m1], M.images[m2]):
                if class_of[v1] != class_of[v2]:
                    return False, (f"act: [{m1}]=[{m2}] but images differ "
                                   f"at (a={a},x={x},y={y},b={b})")
    return True, None


def quotient_by_congruence(M: GammaModule, cong: ModuleCongruence,
                           name: str | None = None) -> GammaModule:
    """Quotient module on congruence classes, built from class representatives."""
    reps = [cls[0] for cls in cong.classes]
    class_of = cong.class_of
    madd = tuple(tuple(class_of[M.madd[r1][r2]] for r2 in reps) for r1 in reps)
    images = tuple(tuple(class_of[v] for v in M.images[r]) for r in reps)
    labels = tuple(f"[{M.carrier[r]}]" for r in reps)
    return GammaModule(name=name or f"{M.name}/~{len(cong.classes)}",
                       base=M.base, carrier=labels, zero=class_of[M.zero],
                       madd=madd, images=images, m2_profile=M.m2_profile)


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


def _joins(M: GammaModule):
    """join(class_of, a, b): least congruence above the congruence `class_of`
    holding (a, b), as a restricted-growth string.  Congruences respect each
    m ↦ madd[m][u] and m ↦ images[m][k]; merging x, y pushes (f(x), f(y))."""
    maps = {*zip(*M.madd), *zip(*M.images)}

    def join(class_of, a: int, b: int) -> tuple[int, ...]:
        uf = UnionFind(M.size)
        for m, ci in enumerate(class_of):
            uf.union(class_of.index(ci), m)
        todo = [(a, b)]
        while todo:
            x, y = todo.pop()
            if uf.union(x, y):
                todo.extend((f[x], f[y]) for f in maps)
        roots: dict[int, int] = {}
        return tuple(roots.setdefault(uf.find(m), len(roots)) for m in range(M.size))
    return join


def is_congruence_simple(M: GammaModule) -> bool:
    """Supplementary to submodule-simplicity, and what controls quotients: the
    only congruences are the discrete and total ones, that is |M| ≥ 2 and
    every principal congruence Cg(a, b) with a ≠ b is total."""
    join, discrete = _joins(M), tuple(range(M.size))
    return M.size > 1 and all(max(join(discrete, a, b)) == 0
                              for a, b in itertools.combinations(discrete, 2))


def enumerate_module_congruences(M: GammaModule) -> list[ModuleCongruence]:
    """All congruences, in lexicographic order of `class_of`.  Each is a join of
    principal ones (Freese, Algebra Universalis 59, 2008); after each pair
    (a, b), `lattice` holds every join of the Cg(a, b) taken so far."""
    _charge("partition", M.size, "enumerate_module_congruences: |M|")
    join, discrete = _joins(M), tuple(range(M.size))
    lattice = {discrete}
    for a, b in itertools.combinations(discrete, 2):
        lattice |= {join(theta, a, b) for theta in lattice if theta[a] != theta[b]}
    results = [_partition_to_congruence(M, class_of) for class_of in sorted(lattice)]
    if bad := [cong for cong in results if not cong.compatible]:
        raise RuntimeError(f"enumerate_module_congruences: {bad[0].class_of}: {bad[0].witness}")
    return results


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
    """What isomorphisms over one base keep: size, sorted fibre sizes of each
    action column, multiset of (is zero, #{u: m + u = m}, columns fixing m)."""
    return (M.size, tuple(tuple(sorted(map(col.count, set(col)))) for col in zip(*M.images)),
            tuple(sorted((m == M.zero, row.count(m), tuple(v == m for v in M.images[m]))
                         for m, row in enumerate(M.madd))))


def cyclic_module_catalog(S: FiniteTernaryGammaSemiring,
                          lenient: bool = False) -> list[CatalogEntry]:
    """Regular module plus its quotients by its congruences, deduplicated by
    `find_isomorphism` among quotients whose `_iso_invariant` hashes agree."""
    reg = regular_module(S)
    require_module_axioms(reg, lenient, "cyclic_module_catalog")
    quotients: list[GammaModule] = []
    for k, cong in enumerate(enumerate_module_congruences(reg)):
        if cong.size == reg.size:
            quotients.append(reg)
        else:
            quotients.append(quotient_by_congruence(reg, cong,
                                                    name=f"{S.name}-cyclic-q{k}"))
    quotients.sort(key=lambda q: (q.size, q.name))
    kept: list[tuple[int, GammaModule]] = []
    for q in quotients:
        key = hash(_iso_invariant(q))
        if not any(key == other_key and find_isomorphism(q, other) is not None
                   for other_key, other in kept):
            kept.append((key, q))
    return [CatalogEntry(module=q, simple=is_simple(q), origin="regular-quotient",
                         congruence_simple=is_congruence_simple(q))
            for _, q in kept]


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
    ideal = IdealSet(members, is_ideal=is_submodule(regular_module(S), members))
    return RadicalReport(ideal=ideal,
                         simples_used=tuple(e.module.name for e in simples))


@dataclass
class SemisimplicityReport:
    ok: bool
    family: tuple[tuple[int, ...], ...]


def is_semisimple(M: GammaModule) -> SemisimplicityReport:
    """Search for simple submodules with trivial pairwise meets whose sum map
    is a bijection onto M; the empty family certifies the zero module."""
    subs = enumerate_submodules(M)
    simple_subs = [s for s in subs if is_simple(sub_module(M, s))]
    zero_only = {M.zero}
    for k in range(len(simple_subs) + 1):
        for family in itertools.combinations(simple_subs, k):
            sizes = 1
            for s in family:
                sizes *= len(s)
            if sizes != M.size:
                continue
            if any(set(a & b) != zero_only
                   for a, b in itertools.combinations(family, 2)):
                continue
            seen = set()
            ordered = [sorted(s) for s in family]
            for combo in itertools.product(*ordered):
                seen.add(M.sum_of(combo))
            if len(seen) == M.size:
                return SemisimplicityReport(True, tuple(tuple(sorted(s)) for s in family))
    return SemisimplicityReport(False, ())


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
    images = tuple(tuple(idx[p] for p in zip(M1.images[i], M2.images[j])) for i, j in pairs)
    profile = M1.m2_profile if M1.m2_profile == M2.m2_profile else "none"
    return GammaModule(name=name or f"{M1.name}(+){M2.name}", base=S,
                       carrier=labels, zero=idx[(M1.zero, M2.zero)],
                       madd=madd, images=images, m2_profile=profile)


# ---------------------------------------------------------------------------
# Module builders and fixture text

@lru_cache(maxsize=None)
def regular_module(S: FiniteTernaryGammaSemiring, name: str | None = None) -> GammaModule:
    """T acting on itself by tri; built once per structure and name."""
    images = tuple(tuple(S.tri[a][x][m][y][b] for a, x, y, b in S.quads) for m in range(S.n))
    return GammaModule(name=name or f"{S.name}-regular", base=S, carrier=S.elements,
                       zero=S.zero, madd=S.add, images=images, m2_profile="none")


def zero_module(S: FiniteTernaryGammaSemiring, name: str | None = None) -> GammaModule:
    return GammaModule(name=name or f"{S.name}-zero", base=S, carrier=("0",),
                       zero=0, madd=((0,),), images=((0,) * len(S.quads),),
                       m2_profile="none")


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
    act = label_array(data, "act", (n, g, m, g, n), carrier, missing)
    profile = data.get("m2_profile", "none")
    if profile not in ("none", "nested"):
        raise FixtureError(f"parse error: unknown m2_profile {profile!r}")
    images = tuple(tuple(act[a][x][u][y][b] for a, x, y, b in base.quads) for u in range(m))
    return GammaModule(name=str(data.get("name", f"{base.name}-module")), base=base,
                       carrier=tuple(carrier), zero=zero, madd=madd, images=images,
                       m2_profile=profile)


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
                for t1 in M.act],
        "m2_profile": M.m2_profile,
    }


def serialize_module(M: GammaModule) -> str:
    return _dump(module_to_dict(M)) + "\n"
