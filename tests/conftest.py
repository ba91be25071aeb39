"""Shared fixtures and brute-force oracles.

The oracles deliberately ignore the library's enumeration strategies: ideals
and submodules come from filtering every subset, hom sets from filtering
every total map, presentation isomorphisms from trying every permutation,
axiom reports from nested loops over every law instance.
Differential tests compare the fast paths against these.
"""

from __future__ import annotations

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from tgw import fixtures
from tgw.core import (BUDGETS, AxiomReport, BudgetError, FiniteTernaryGammaSemiring,
                      IdealSet, PreconditionError, UnionFind, Violation, _charge,
                      bourne_classes, distinct_rows, product_structure,
                      require_axioms, structure_from_dict)
from tgw.homology import (HomSemisimplicityReport, MonoidPresentation, TorResult,
                          _gen_label, _rep_labels, ext1, find_presentation_isomorphism,
                          free_carrier_tuples, free_module, make_presentation, tensor,
                          tensor_induced_map)
from tgw.ideals import LocalizedSemiring, _span, is_ideal_subset, is_prime
from tgw.modules import (GammaModule, ModuleCongruence, ModuleHom, _classes,
                         _partition_to_congruence, check_module_axioms,
                         cyclic_module_catalog, generating_set, hom_set, hom_violation,
                         is_submodule, jacobson_radical, nested_action,
                         require_module_axioms, sub_module)

# Every run draws the same examples, seeded from each test, so a test that
# passes keeps passing until its code or Hypothesis changes; each test keeps
# its own example count.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def b2():
    return fixtures.bundled_structure("B2")


@pytest.fixture(scope="session")
def z3():
    return fixtures.bundled_structure("Z3")


@pytest.fixture(scope="session")
def b2xb2():
    return fixtures.bundled_structure("B2xB2")


@pytest.fixture(scope="session")
def b2_reg():
    return fixtures.bundled_module("B2-regular")


@pytest.fixture(scope="session")
def b2_t2():
    return fixtures.bundled_module("B2-T2")


@pytest.fixture(scope="session")
def b2_zero():
    return fixtures.bundled_module("B2-zero")


@pytest.fixture(scope="session")
def z3_reg():
    return fixtures.bundled_module("Z3-regular")


@pytest.fixture(scope="session")
def z3_zero():
    return fixtures.bundled_module("Z3-zero")


@pytest.fixture(scope="session")
def b2xb2_reg():
    return fixtures.bundled_module("B2xB2-regular")


@pytest.fixture(scope="session")
def b2xb2_zero():
    return fixtures.bundled_module("B2xB2-zero")


@pytest.fixture(scope="session")
def one_element():
    return structure_from_dict({
        "name": "One", "elements": ["0"], "zero": "0", "unit": "0",
        "gamma": ["g0"], "add": [["0"]], "tri": [[[[["0"]]]]],
    })


@pytest.fixture(scope="session")
def f2():
    """Two-element field: addition mod 2, tri = plain product."""
    return structure_from_dict({
        "name": "F2", "elements": ["0", "1"], "zero": "0", "unit": "1",
        "gamma": ["g0"],
        "add": [["0", "1"], ["1", "0"]],
        "tri": [[[[["0", "0"]], [["0", "0"]]]], [[[["0", "0"]], [["0", "1"]]]]],
    })


@pytest.fixture(scope="session")
def z4():
    """Mod-4 structure with tri(a,x,b,y,c) = a*b*c mod 4.

    Lawful, unit-bearing, and *not* semiprimitive: 2 annihilates the only
    simple cyclic module, so the radical is {0,2} and self-extensions exist.
    """
    return integers_mod(4)


def integers_mod(n):
    """Z/n with addition mod n and tri(a,x,b,y,c) = a*b*c mod n: an abelian
    group under addition, so its tensors take the group backend."""
    labels = [str(i) for i in range(n)]
    add = [[labels[(i + j) % n] for j in range(n)] for i in range(n)]
    tri = [[[[[labels[(a * b * c) % n] for c in range(n)]] for b in range(n)]]
           for a in range(n)]
    return structure_from_dict({
        "name": f"Z{n}", "elements": labels, "zero": "0", "unit": "1",
        "gamma": ["g0"], "add": add, "tri": tri,
    })


def chain(n):
    """Chain C_n = ({0..n-1}, max, min) with one parameter: addition is max
    and tri(a,x,b,y,c) = min(a,b,c).  Lawful, idempotent, unit n-1."""
    labels = [str(i) for i in range(n)]
    add = [[labels[max(i, j)] for j in range(n)] for i in range(n)]
    tri = [[[[[labels[min(a, b, c)] for c in range(n)]] for b in range(n)]]
           for a in range(n)]
    return structure_from_dict({
        "name": f"C{n}", "elements": labels, "zero": "0", "unit": labels[-1],
        "gamma": ["g0"], "add": add, "tri": tri,
    })


def truncated_naturals(k):
    """N_k = ({0..k}, min(a+b, k), min(abc, k)) with one parameter: lawful,
    with unit 1, and for k >= 2 neither idempotent nor a group, so its
    tensors take the exact backend."""
    labels = [str(i) for i in range(k + 1)]
    add = [[labels[min(a + b, k)] for b in range(k + 1)] for a in range(k + 1)]
    tri = [[[[[labels[min(a * b * c, k)] for c in range(k + 1)]] for b in range(k + 1)]]
           for a in range(k + 1)]
    return structure_from_dict({
        "name": f"N{k}", "elements": labels, "zero": "0", "unit": "1",
        "gamma": ["g0"], "add": add, "tri": tri,
    })


def zsum(n: int) -> FiniteTernaryGammaSemiring:
    """Z/n with tri(a,x,b,y,c) = a+b+c+x+y mod n and two parameters: it breaks
    zero absorption and distributivity, so its report is witness-heavy."""
    g = 2
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    tri = tuple(tuple(tuple(tuple(tuple((a + b + c + x + y) % n for c in range(n))
                                  for y in range(g)) for b in range(n))
                      for x in range(g)) for a in range(n))
    return FiniteTernaryGammaSemiring(
        name=f"Zsum{n}", elements=tuple(str(i) for i in range(n)), zero=0,
        unit=None, gamma=("g0", "g1"), add=add, tri=tri)


def action_rows(M: GammaModule) -> tuple:
    """Row m lists act(a, x, m, y, b) over `M.base.quads`: the action expanded
    from its distinct columns."""
    return tuple(zip(*map(M.columns.__getitem__, M.column_of)))


def with_rows(M: GammaModule, rows, **fields) -> GammaModule:
    """M with the action whose row m lists act(a, x, m, y, b) over the quads."""
    return dataclasses.replace(M, columns=zip(*rows), column_of=range(len(M.base.quads)),
                               **fields)


def perturbed_t2(b2_t2):
    """B2-T2 with act(1,x,(1,1),x,1) sent to (0,1): a module-law violation."""
    images = [list(row) for row in action_rows(b2_t2)]
    images[3][b2_t2.base.quads.index((1, 0, 0, 1))] = 1
    return with_rows(b2_t2, images, name="B2-T2-perturbed")


def swapping_module(b2):
    """Over B2: the flat semilattice 0 < 1, 2, 3 < 4 on which act(1,x,m,y,1)
    permutes the atoms, by (1 2) at (x,y) = (0,1), by (2 3) at (1,0) and
    trivially otherwise.  It is lawful, but the two swaps do not commute."""
    top = 4
    swaps = {(0, 1): (0, 2, 1, 3, 4), (1, 0): (0, 1, 3, 2, 4)}
    madd = tuple(tuple(i if i == j or j == 0 else j if i == 0 else top
                       for j in range(5)) for i in range(5))
    rows = [tuple(swaps.get((x, y), range(5))[m] if a and b else 0
                  for a, x, y, b in b2.quads) for m in range(5)]
    return GammaModule(name="B2-swaps", base=b2, carrier=tuple("0123t"), zero=0,
                       madd=madd, columns=zip(*rows), column_of=range(len(b2.quads)))


def zero_action_semilattice(b2, madd, name):
    """Over B2: the join-semilattice with addition `madd` and zero 0, on
    which every action is 0.  Lawful: the module laws ask for no unit."""
    k = len(madd)
    return GammaModule(name=name, base=b2, carrier=tuple(f"e{i}" for i in range(k)),
                       zero=0, madd=tuple(map(tuple, madd)),
                       columns=((0,) * k,), column_of=(0,) * len(b2.quads))


def zero_action_chain(b2, k):
    """The chain 0 < 1 < ... < k-1 under max, with the zero action: its
    module-generating set is its k - 1 nonzero elements, none a sum of others."""
    return zero_action_semilattice(b2, [[max(i, j) for j in range(k)] for i in range(k)],
                                   f"B2-chain{k}-zero")


def zero_action_flat(b2, k):
    """The flat semilattice 0 < 1, ..., k-2 < k-1 with the zero action: any two
    distinct atoms sum to the top, so its k - 2 atoms generate it."""
    top = k - 1
    madd = [[i if i == j or j == 0 else j if i == 0 else top for j in range(k)]
            for i in range(k)]
    return zero_action_semilattice(b2, madd, f"B2-flat{k}-zero")


def nested_tuples(rows):
    """Nested lists, such as `ndarray.tolist()` gives, as nested tuples."""
    return tuple(map(nested_tuples, rows)) if isinstance(rows, list) else rows


def tri_patched_at_every_pair(S, a: int, b: int, c: int, value: int):
    """S with tri(a, x, b, y, c) set to `value` at every parameter pair
    (x, y): parameters that every table read alike stay alike."""
    tri = np.array(S.tri)
    tri[a, :, b, :, c] = value
    return dataclasses.replace(S, name=f"{S.name}-tri({a},{b},{c})={value}",
                               tri=nested_tuples(tri.tolist()))


def act_patched_at_every_pair(M, a: int, u: int, b: int, value: int):
    """M with act(a, x, u, y, b) set to `value` at every parameter pair."""
    images = [list(row) for row in action_rows(M)]
    for k, quad in enumerate(M.base.quads):
        if (quad[0], quad[3]) == (a, b):
            images[u][k] = value
    return with_rows(M, images, name=f"{M.name}-act({a},{u},{b})={value}")


def collapsed_b2_cubed():
    """B2^3 with one tri entry changed at every parameter pair: its two
    parameters stay alike, and it fails several laws."""
    b2 = fixtures.bundled_structure("B2")
    S = product_structure(product_structure(b2, b2, "B2^2"), b2, "B2^3")
    return tri_patched_at_every_pair(S, 3, 5, 6, 7)


# Non-identity permutations of the three element slots, in a fixed order.
_PERMS = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def brute_force_check_axioms(S):
    """The structure-law check as nested loops over every instance: the
    oracle for the law table of `tgw.core.check_axioms`."""
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


def brute_force_check_module_axioms(M):
    """The module-law check as nested loops over every instance: the oracle
    for `tgw.modules.check_module_axioms`.  Base-structure failures become
    warnings."""
    out: list[Violation] = []
    S = M.base
    n, g, m = S.n, S.g, M.size
    rng, grng, mrng = range(n), range(g), range(m)
    madd, act, zm = M.madd, nested_action(M), M.zero

    for i in mrng:
        for j in mrng:
            v = madd[i][j]
            if not 0 <= v < m:
                out.append(Violation("madd-closure", (i, j), v, m))
    for a in rng:
        for x in grng:
            for mm in mrng:
                for y in grng:
                    for b in rng:
                        v = act[a][x][mm][y][b]
                        if not 0 <= v < m:
                            out.append(Violation("act-closure", (a, x, mm, y, b), v, m))
    if out:
        return AxiomReport(tuple(sorted(out, key=lambda v: (v.law, v.witness))),
                           warnings=brute_force_check_axioms(S).violations)

    for i in mrng:
        if madd[zm][i] != i:
            out.append(Violation("madd-identity", (i,), madd[zm][i], i))
    for i in mrng:
        for j in mrng:
            if madd[i][j] != madd[j][i]:
                out.append(Violation("madd-commutativity", (i, j), madd[i][j], madd[j][i]))
            for k in mrng:
                left, right = madd[madd[i][j]][k], madd[i][madd[j][k]]
                if left != right:
                    out.append(Violation("madd-associativity", (i, j, k), left, right))

    for a in rng:
        for a2 in rng:
            for x in grng:
                for mm in mrng:
                    for y in grng:
                        for b in rng:
                            left = act[S.add[a][a2]][x][mm][y][b]
                            right = madd[act[a][x][mm][y][b]][act[a2][x][mm][y][b]]
                            if left != right:
                                out.append(Violation("act-additivity-slot-a",
                                                     (a, a2, x, mm, y, b), left, right))
    for a in rng:
        for x in grng:
            for m1 in mrng:
                for m2 in mrng:
                    for y in grng:
                        for b in rng:
                            left = act[a][x][madd[m1][m2]][y][b]
                            right = madd[act[a][x][m1][y][b]][act[a][x][m2][y][b]]
                            if left != right:
                                out.append(Violation("act-additivity-slot-m",
                                                     (a, x, m1, m2, y, b), left, right))
    for a in rng:
        for x in grng:
            for mm in mrng:
                for y in grng:
                    for b in rng:
                        for b2 in rng:
                            left = act[a][x][mm][y][S.add[b][b2]]
                            right = madd[act[a][x][mm][y][b]][act[a][x][mm][y][b2]]
                            if left != right:
                                out.append(Violation("act-additivity-slot-b",
                                                     (a, x, mm, y, b, b2), left, right))

    for a in rng:
        for x in grng:
            for y in grng:
                for b in rng:
                    v = act[a][x][zm][y][b]
                    if v != zm:
                        out.append(Violation("act-zero-module", (a, x, y, b), v, zm))
    for x in grng:
        for mm in mrng:
            for y in grng:
                for b in rng:
                    v = act[S.zero][x][mm][y][b]
                    if v != zm:
                        out.append(Violation("act-absorb-a", (x, mm, y, b), v, zm))
    for a in rng:
        for x in grng:
            for mm in mrng:
                for y in grng:
                    v = act[a][x][mm][y][S.zero]
                    if v != zm:
                        out.append(Violation("act-absorb-b", (a, x, mm, y), v, zm))

    if M.m2_profile == "nested":
        # Nesting law mirroring ternary associativity with the carrier element
        # in the middle slot: act(tri(a,x,b,y,c), z, m, w, e) must equal
        # act(a, x, act(b, y, m, z, c), w, e).
        for a in rng:
            for x in grng:
                for b in rng:
                    for y in grng:
                        for c in rng:
                            for z in grng:
                                for mm in mrng:
                                    for w in grng:
                                        for e in rng:
                                            left = act[S.tri[a][x][b][y][c]][z][mm][w][e]
                                            right = act[a][x][act[b][y][mm][z][c]][w][e]
                                            if left != right:
                                                out.append(Violation(
                                                    "m2-nested",
                                                    (a, x, b, y, c, z, mm, w, e),
                                                    left, right))
    elif M.m2_profile != "none":
        raise PreconditionError(f"unknown m2_profile {M.m2_profile!r}")

    out.sort(key=lambda v: (v.law, v.witness))
    return AxiomReport(tuple(out), warnings=brute_force_check_axioms(S).violations)


def brute_force_ideals(S):
    out = []
    for r in range(S.n + 1):
        for comb in itertools.combinations(range(S.n), r):
            members = frozenset(comb)
            if is_ideal_subset(S, members):
                out.append(tuple(sorted(members)))
    return sorted(out, key=lambda t: (len(t), t))


def brute_force_submodules(M):
    out = []
    for r in range(M.size + 1):
        for comb in itertools.combinations(range(M.size), r):
            members = frozenset(comb)
            if M.zero in members and is_submodule(M, members):
                out.append(tuple(sorted(members)))
    return sorted(out, key=lambda t: (len(t), t))


def brute_force_homs(M, N):
    out = []
    for mapping in itertools.product(range(N.size), repeat=M.size):
        if hom_violation(M, N, mapping) is None:
            out.append(mapping)
    return sorted(out)


def brute_force_presentation_isomorphism(A, B):
    """Zero-preserving bijection matching the addition tables, or None: the
    first of all permutations that fits."""
    if A.size != B.size:
        return None
    n = A.size
    for perm in itertools.permutations(range(n)):
        if perm[A.zero] != B.zero:
            continue
        if all(perm[A.add[i][j]] == B.add[perm[i]][perm[j]]
               for i in range(n) for j in range(n)):
            return perm
    return None


def all_bundled_modules():
    return [fixtures.bundled_module(name) for name in fixtures.MODULE_NAMES]


# The relation builder that `homology._tensor_relations` replaced, kept
# verbatim (renamed) as the oracle's source of relations.

def loop_tensor_relations(M: GammaModule, N: GammaModule):
    """Relation pairs as generator-multiset dicts, plus schema descriptions."""
    S = M.base
    rels = []
    for m1 in range(M.size):
        for m2 in range(M.size):
            for n in range(N.size):
                lhs = {(M.madd[m1][m2], n): 1}
                rhs: dict = {}
                for g in ((m1, n), (m2, n)):
                    rhs[g] = rhs.get(g, 0) + 1
                if lhs != rhs:
                    rels.append((lhs, rhs))
    for m in range(M.size):
        for n1 in range(N.size):
            for n2 in range(N.size):
                lhs = {(m, N.madd[n1][n2]): 1}
                rhs = {}
                for g in ((m, n1), (m, n2)):
                    rhs[g] = rhs.get(g, 0) + 1
                if lhs != rhs:
                    rels.append((lhs, rhs))
    # The balance relations keep this nesting order rather than the order of
    # the quads: the group backend's diagonalization follows the relation order.
    col = {q: k for k, q in enumerate(S.quads)}
    m_rows, n_rows = action_rows(M), action_rows(N)
    for a, x, m, y, b in itertools.product(range(S.n), range(S.g), range(M.size),
                                           range(S.g), range(S.n)):
        k = col[a, x, y, b]
        for n in range(N.size):
            lhs = {(m_rows[m][k], n): 1}
            rhs = {(m, n_rows[n][k]): 1}
            if lhs != rhs:
                rels.append((lhs, rhs))
    balance = len(S.quads) * M.size * N.size
    descriptions = (
        f"(m+m')⊗n ~ m⊗n + m'⊗n for all m,m' in {M.name}, n in {N.name}",
        f"m⊗(n+n') ~ m⊗n + m⊗n' for all m in {M.name}, n,n' in {N.name}",
        f"act(a,x,m,y,b)⊗n ~ m⊗act(a,x,n,y,b) for all a,b,x,y "
        f"({balance} instances)",
    )
    return rels, descriptions


def brute_force_tensor_idempotent(M, N):
    """Idempotent tensor product by plain saturation over the raw relation
    list of `loop_tensor_relations`: no deduplication, no memo, and every
    class lookup and every relation at every parameter re-saturates.  Returns
    the presentation, `gen_class`, the induced module, `module_action_ok`,
    the notes and each class's members, by generator index m·|N| + n."""
    name = f"{M.name}(x){N.name}"
    rels, descriptions = loop_tensor_relations(M, N)
    gens = [(m, n) for m in range(M.size) for n in range(N.size)]
    gidx = {g: k for k, g in enumerate(gens)}
    act = nested_action(M)

    def mask_of(d):
        mask = 0
        for g in d:
            mask |= 1 << gidx[g]
        return mask

    raw = [(mask_of(lhs), mask_of(rhs)) for lhs, rhs in rels]

    def saturate(mask):
        changed = True
        while changed:
            changed = False
            for a, b in raw:
                if a & mask == a and mask | b != mask:
                    mask |= b
                    changed = True
                if b & mask == b and mask | a != mask:
                    mask |= a
                    changed = True
        return mask

    def acted(a, x, y, b, d):
        return {(act[a][x][g[0]][y][b], g[1]): 1 for g in d}

    sat_gen = {g: saturate(1 << gidx[g]) for g in gens}
    masks = set(sat_gen.values())
    frontier = sorted(masks)
    while frontier:
        new = []
        for a in sorted(masks):
            for b in frontier:
                j = saturate(a | b)
                if j not in masks:
                    masks.add(j)
                    new.append(j)
        frontier = new
    ordered = sorted(masks, key=lambda m: (bin(m).count("1"), m))
    index = {m: k for k, m in enumerate(ordered)}
    add_rows = [[index[saturate(a | b)] for b in ordered] for a in ordered]
    zero_class = index[sat_gen[(M.zero, N.zero)]]
    reps = []
    for mask in ordered:
        direct = [g for g in gens if sat_gen[g] == mask]
        bits = [g for g in gens if mask >> gidx[g] & 1]
        reps.append(_gen_label(M, N, gidx[direct[0]]) if direct
                    else "+".join(_gen_label(M, N, gidx[g]) for g in bits[:3]))
    labels = [f"c{k}" for k in range(len(ordered))]
    pres = make_presentation(name, labels, reps, add_rows, zero_class,
                             relations=descriptions)

    def eval_sum(multiset):
        return index[saturate(mask_of(multiset))] if multiset else None

    members = [[gidx[g] for g in gens if mask >> gidx[g] & 1] for mask in ordered]
    S = M.base
    params = list(itertools.product(range(S.n), range(S.g), range(S.g),
                                    range(S.n)))
    notes = []
    action_ok = True
    if any(saturate(mask_of(acted(*p, lhs))) != saturate(mask_of(acted(*p, rhs)))
           for lhs, rhs in rels for p in params):
        action_ok = False
        notes.append("induced action is not well-defined on a relation pair")
    # `params` lists (a, x, y, b) in the order of `S.quads`.
    images = tuple(tuple(eval_sum(acted(*p, {gens[g]: 1 for g in rep})) for p in params)
                   for rep in members)
    module = GammaModule(
        name=name, base=S, carrier=tuple(labels), zero=zero_class,
        madd=tuple(tuple(r) for r in add_rows), columns=zip(*images),
        column_of=range(len(S.quads)))
    if check_module_axioms(module).violations:
        action_ok = False
        notes.append("induced module fails the module axioms")
    return SimpleNamespace(presentation=pres, gen_class=[index[sat_gen[g]] for g in gens],
                           module=module, module_action_ok=action_ok,
                           notes=tuple(notes), members=members)


# The exact tensor quotient that `full_state_tensor_saturation` replaced: it
# translates every distinct relation pair across every state and unites
# the moved pairs one at a time.  Kept verbatim (renamed) as the oracle of
# the generator closure in test_homology.py.

def union_loop_tensor_saturation(M: GammaModule, N: GammaModule, name, rels, distinct):
    """Exact tensor of any pair of modules over one base.

    Left-linearity folds each column of a sum of generators a⊗n into one
    element of A, so a sum is a state: a function from the carrier of B (the
    columns) to A with an identity E adjoined (an empty column).  The states
    form the commutative monoid (A + E)^B under pointwise addition, and the
    tensor is its quotient by the congruence the remaining relations
    generate, minus the all-E state.  On a commutative monoid that congruence
    is the equivalence closure of the translates z+a ~ z+b of the relation
    pairs (a, b).  (A, B) is (M, N) or (N, M), whichever has fewer states.
    """
    flip = (N.size + 1) ** M.size < (M.size + 1) ** N.size
    A, B = (N, M) if flip else (M, N)
    E, cols = A.size, B.size
    total = (E + 1) ** cols
    _charge("state", total, f"{name}: tensor states")
    plus = np.empty((E + 1, E + 1), dtype=np.int64)
    plus[:E, :E] = A.madd
    plus[E, :] = plus[:, E] = np.arange(E + 1)
    # State k has the column values digits[k], and digits[k] @ place == k;
    # the all-E state is the last one.
    digits = np.indices((E + 1,) * cols).reshape(cols, total).T
    place = (E + 1) ** np.arange(cols - 1, -1, -1)

    # Generator m⊗n as an element u of A in a column, and its state.
    m, n = np.divmod(np.arange(M.size * N.size), N.size)
    u, col = (n, m) if flip else (m, n)
    empty = E * place.sum()
    gen_state = empty + (u - E) * place[col]
    l, r1, r2 = distinct.T
    pair = r2 >= 0
    rhs = gen_state[r1]
    # The two generators of a sum share a column or fill two.
    p1, p2 = r1[pair], r2[pair]
    rhs[pair] = np.where(col[p1] == col[p2],
                         empty + (plus[u[p1], u[p2]] - E) * place[col[p1]],
                         gen_state[p1] + gen_state[p2] - empty)
    uf = UnionFind(total)
    for a, b in distinct_rows(np.sort(np.stack([gen_state[l], rhs], axis=1))):
        za, zb = plus[digits, digits[a]] @ place, plus[digits, digits[b]] @ place
        moved = za != zb
        for x, y in zip(za[moved].tolist(), zb[moved].tolist()):
            uf.union(x, y)
    # A relation side is never all-E, so the all-E state is a class of its
    # own, and the last one; it is left out.
    classes = uf.classes()[:-1]
    class_of = np.full(total, -1)
    for ci, cls in enumerate(classes):
        class_of[cls] = ci
    rep_digits = digits[[cls[0] for cls in classes]]
    # A state is represented by its generators, one per non-empty column.
    gen_at = np.empty((E, cols), dtype=np.int64)
    gen_at[u, col] = np.arange(M.size * N.size)
    gen_at = gen_at.tolist()
    rep_gens = [[gen_at[v][c] for c, v in enumerate(row) if v != E]
                for row in rep_digits.tolist()]
    add_rows = [class_of[plus[r, rep_digits] @ place].tolist() for r in rep_digits]
    gen_class = class_of[gen_state]
    return (add_rows, int(gen_class[M.zero * N.size + N.zero]), gen_class, rep_gens,
            _rep_labels(M, N, gen_class, rep_gens), [])


# The exact tensor quotient that `homology._tensor_reduced` replaced: the
# least congruence on all (|A|+1)^|B| full states, closed under adding each
# generator, and the union step it runs.  Kept verbatim (renamed) as the
# oracle of the least-state numbering in test_homology.py.

def pointer_jump_merge(label, a, b) -> bool:
    """Unite the classes of the pairs (a[i], b[i]) in `label`, each state's
    least class member: hook the larger label of each differing pair under
    the smaller and jump pointers until all agree; True if any merged."""
    merged = False
    while (differ := label[a] != label[b]).any():
        la, lb = label[a[differ]], label[b[differ]]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(jumped := label[label], label):
            label[:] = jumped
        merged = True
    return merged


def full_state_tensor_saturation(M: GammaModule, N: GammaModule, name, rels):
    """Exact tensor of any pair of modules over one base.

    Left-linearity folds each column of a sum of generators a⊗n into one
    element of A, so a sum is a state: a function from the carrier of B (the
    columns) to A with an identity E adjoined (an empty column).  The states
    form the commutative monoid (A + E)^B under pointwise addition, and the
    tensor is its quotient by the congruence the remaining relations
    generate, minus the all-E state.  The states are sums of generators (one
    non-empty column each), so that congruence is the least equivalence that
    holds the relation pairs and is closed under adding each generator s:
    closed once it holds (z+s, w+s) for each z and the least member w of the
    class of z.  (A, B) is (M, N) or (N, M), whichever has fewer states.
    """
    flip = (N.size + 1) ** M.size < (M.size + 1) ** N.size
    A, B = (N, M) if flip else (M, N)
    E, cols = A.size, B.size
    total = (E + 1) ** cols
    _charge("state", total, f"{name}: tensor states")
    plus = np.empty((E + 1, E + 1), dtype=np.int64)
    plus[:E, :E] = A.madd
    plus[E, :] = plus[:, E] = np.arange(E + 1)
    # State k has the column values digits[k], and digits[k] @ place == k;
    # the all-E state is the last one.
    digits = np.indices((E + 1,) * cols).reshape(cols, total).T
    place = (E + 1) ** np.arange(cols - 1, -1, -1)

    # Generator m⊗n as an element u of A in a column, and its state.
    m, n = np.divmod(np.arange(M.size * N.size), N.size)
    u, col = (n, m) if flip else (m, n)
    gen_state = E * place.sum() + (u - E) * place[col]
    l, r1, r2 = rels.T
    pair = r2 >= 0
    rhs = gen_state[r1]
    rhs[pair] = plus[digits[rhs[pair]], digits[gen_state[r2[pair]]]] @ place
    states = np.arange(total)
    label = states.copy()
    merged = pointer_jump_merge(label, gen_state[l], rhs)
    while merged:
        merged = False
        # Adding generator v in column c changes column c alone.
        for c, v in zip(col.tolist(), u.tolist()):
            t = states + (plus[digits[:, c], v] - digits[:, c]) * place[c]
            z = np.flatnonzero(label != states)
            merged |= pointer_jump_merge(label, t[z], t[label[z]])
    # A relation side is never all-E, so the all-E state is a class of its
    # own, and the last one; it is left out.
    roots = np.flatnonzero(label == states)[:-1]
    class_of = np.searchsorted(roots, label)
    rep_digits = digits[roots]
    # A state is represented by its generators, one per non-empty column.
    gen_at = np.empty((E, cols), dtype=np.int64)
    gen_at[u, col] = np.arange(M.size * N.size)
    gen_at = gen_at.tolist()
    rep_gens = [[gen_at[v][c] for c, v in enumerate(row) if v != E]
                for row in rep_digits.tolist()]
    add_rows = [class_of[plus[r, rep_digits] @ place].tolist() for r in rep_digits]
    gen_class = class_of[gen_state]
    return (add_rows, int(gen_class[M.zero * N.size + N.zero]), gen_class, rep_gens,
            _rep_labels(M, N, gen_class, rep_gens), [])


# The nested action loops that the flat action replaced, kept verbatim
# (renamed) as references for the differential tests in test_action.py.

def loop_action_rows(act, base, m):
    """The action rows (`action_rows`) from a nested table act[a][x][u][y][b]
    (or tri[a][x][m][y][b] for the regular module), one quad at a time, as
    `module_from_dict` and `regular_module` once built them."""
    return tuple(tuple(act[a][x][u][y][b] for a, x, y, b in base.quads) for u in range(m))


def loop_submodule_closure(M: GammaModule, seed) -> frozenset[int]:
    current = set(seed)
    current.add(M.zero)
    S, act = M.base, nested_action(M)
    changed = True
    while changed:
        changed = False
        snapshot = sorted(current)
        for i in snapshot:
            for j in snapshot:
                v = M.madd[i][j]
                if v not in current:
                    current.add(v)
                    changed = True
        for mm in snapshot:
            for a in range(S.n):
                for b in range(S.n):
                    for x in range(S.g):
                        for y in range(S.g):
                            v = act[a][x][mm][y][b]
                            if v not in current:
                                current.add(v)
                                changed = True
    return frozenset(current)


def loop_is_submodule(M: GammaModule, members: frozenset[int]) -> bool:
    if M.zero not in members:
        return False
    if any(M.madd[i][j] not in members for i in members for j in members):
        return False
    S, act = M.base, nested_action(M)
    return all(act[a][x][mm][y][b] in members
               for mm in members for a in range(S.n) for b in range(S.n)
               for x in range(S.g) for y in range(S.g))


def loop_hom_violation(source: GammaModule, target: GammaModule, mapping: tuple[int, ...]):
    """First broken homomorphism law for a total carrier mapping, or None."""
    if mapping[source.zero] != target.zero:
        return ("zero", (source.zero,))
    for i in range(source.size):
        for j in range(source.size):
            if mapping[source.madd[i][j]] != target.madd[mapping[i]][mapping[j]]:
                return ("additive", (i, j))
    S, source_act, target_act = source.base, nested_action(source), nested_action(target)
    for a in range(S.n):
        for x in range(S.g):
            for mm in range(source.size):
                for y in range(S.g):
                    for b in range(S.n):
                        if mapping[source_act[a][x][mm][y][b]] != \
                                target_act[a][x][mapping[mm]][y][b]:
                            return ("equivariance", (a, x, mm, y, b))
    return None


def loop_annihilator_of_element(M: GammaModule, mm: int) -> frozenset[int]:
    S, act = M.base, nested_action(M)
    ann = {a for a in range(S.n)
           if all(act[a][x][mm][y][b] == M.zero
                  for x in range(S.g) for y in range(S.g) for b in range(S.n))}
    # 0_T belongs by the ideal type invariant even when absorption fails.
    ann.add(S.zero)
    return frozenset(ann)


def loop_density_witnesses(M: GammaModule, anchor: int, rank2: bool):
    """The witness search of `density_check`, without its simplicity and
    axiom gates: (witnesses, unsolvable, rank2 counts)."""
    S, act = M.base, nested_action(M)
    witnesses = []
    unsolvable = []
    combos = [(a, x, y) for a in range(S.n) for x in range(S.g) for y in range(S.g)]
    for mm in range(M.size):
        if mm == M.zero:
            continue
        for n in range(M.size):
            hit = next(((a, x, y) for a, x, y in combos
                        if act[a][x][mm][y][anchor] == n), None)
            if hit is None:
                unsolvable.append((mm, n))
            else:
                witnesses.append((mm, n, *hit))
    rank2_data = None
    if rank2:
        solvable = unsolvable_pairs = eligible = 0
        nonzero = [mm for mm in range(M.size) if mm != M.zero]
        for m1, m2 in itertools.combinations(nonzero, 2):
            for n1 in range(M.size):
                for n2 in range(M.size):
                    eligible += 1
                    if any(act[a][x][m1][y][anchor] == n1
                           and act[a][x][m2][y][anchor] == n2
                           for a, x, y in combos):
                        solvable += 1
                    else:
                        unsolvable_pairs += 1
        rank2_data = {"eligible": eligible, "solvable": solvable,
                      "unsolvable": unsolvable_pairs}
    return tuple(witnesses), tuple(unsolvable), rank2_data


def loop_congruence_compatible(M: GammaModule, class_of) -> tuple[bool, str | None]:
    S, act = M.base, nested_action(M)
    for m1 in range(M.size):
        for m2 in range(M.size):
            if class_of[m1] != class_of[m2]:
                continue
            for x in range(M.size):
                if class_of[M.madd[m1][x]] != class_of[M.madd[m2][x]]:
                    return False, f"madd: [{m1}]=[{m2}] but [{m1}+{x}]!=[{m2}+{x}]"
            for a in range(S.n):
                for ga in range(S.g):
                    for gb in range(S.g):
                        for b in range(S.n):
                            if class_of[act[a][ga][m1][gb][b]] != \
                                    class_of[act[a][ga][m2][gb][b]]:
                                return False, (f"act: [{m1}]=[{m2}] but images differ "
                                               f"at (a={a},x={ga},y={gb},b={b})")
    return True, None


# The restricted-growth partition sweep that `enumerate_module_congruences`
# and `is_congruence_simple` replaced with principal congruences, kept
# verbatim (renamed) as references for the differential tests in
# test_action.py.

def loop_is_congruence_simple(M: GammaModule,
                              bound: int = BUDGETS["partition"]) -> bool:
    """Supplementary notion: only the discrete and total congruences exist.

    Distinct from submodule-simplicity; quotients arise from congruences, so
    this is what controls them.
    """
    if M.size <= 1:
        return False
    return len(loop_enumerate_module_congruences(M, bound=bound)) == 2


def loop_enumerate_module_congruences(
        M: GammaModule, bound: int = BUDGETS["partition"]) -> list[ModuleCongruence]:
    """All compatible congruences, via restricted-growth partition strings."""
    if M.size > bound:
        raise BudgetError(f"enumerate_module_congruences: |M| = {M.size} exceeds {bound}")
    results = []
    size = M.size

    def grow(prefix: list[int], used: int):
        if len(prefix) == size:
            # A restricted-growth string numbers classes by least member.
            cong = _partition_to_congruence(M, prefix)
            if cong.compatible:
                results.append(cong)
            return
        for cls in range(used + 1):
            prefix.append(cls)
            grow(prefix, max(used, cls + 1) if cls == used else used)
            prefix.pop()

    grow([], 0)
    return results


# The principal-congruence lattice and simplicity test that
# `enumerate_module_congruences` and `is_congruence_simple` replaced with
# join-irreducible generators and equivalence joins, kept verbatim (renamed)
# as references for the differential tests in test_action.py.

def principal_joins(M: GammaModule):
    """join(class_of, a, b): least congruence above the congruence `class_of`
    holding (a, b), as a restricted-growth string.  Congruences respect each
    m ↦ madd[m][u] and m ↦ act(a, x, m, y, b); merging x, y pushes (f(x), f(y))."""
    maps = {*zip(*M.madd), *zip(*action_rows(M))}

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


def principal_is_congruence_simple(M: GammaModule) -> bool:
    """Supplementary to submodule-simplicity, and what controls quotients: the
    only congruences are the discrete and total ones, that is |M| ≥ 2 and
    every principal congruence Cg(a, b) with a ≠ b is total."""
    join, discrete = principal_joins(M), tuple(range(M.size))
    return M.size > 1 and all(max(join(discrete, a, b)) == 0
                              for a, b in itertools.combinations(discrete, 2))


def principal_enumerate_module_congruences(M: GammaModule) -> list[ModuleCongruence]:
    """All congruences, in lexicographic order of `class_of`.  Each is a join of
    principal ones (Freese, Algebra Universalis 59, 2008); after each pair
    (a, b), `lattice` holds every join of the Cg(a, b) taken so far.  `join`
    closes under every translation and action column, so each member is a
    congruence by construction."""
    _charge("partition", M.size, "enumerate_module_congruences: |M|")
    join, discrete = principal_joins(M), tuple(range(M.size))
    lattice = {discrete}
    for a, b in itertools.combinations(discrete, 2):
        lattice |= {join(theta, a, b) for theta in lattice if theta[a] != theta[b]}
    return [ModuleCongruence(_classes(class_of), class_of, compatible=True)
            for class_of in sorted(lattice)]


# The loops that `ideals.is_prime` and `ideals.localize` replaced with
# index grids, kept verbatim (renamed) as references for the differential
# tests in test_ideals.py.

def loop_is_prime(S: FiniteTernaryGammaSemiring, I: IdealSet) -> bool:
    """Prime test: tri(a,x,b,y,c) in I for every parameter pair forces a factor in I."""
    if not is_ideal_subset(S, I.members):
        raise PreconditionError("is_prime: input subset is not an ideal")
    if len(I.members) == S.n:
        raise PreconditionError("is_prime: ideal must be proper")
    members = I.members
    rng = range(S.n)
    params = [(x, y) for x in range(S.g) for y in range(S.g)]
    for a in rng:
        for b in rng:
            for c in rng:
                if a in members or b in members or c in members:
                    continue
                if all(S.tri[a][x][b][y][c] in members for x, y in params):
                    return False
    return True


def loop_localize(S: FiniteTernaryGammaSemiring, P: IdealSet,
                  lenient: bool = False) -> LocalizedSemiring:
    """Fractions a/s with s outside P, under the witnessed equivalence.

    (a,s) ~ (b,t) iff some u outside P and parameters x, y satisfy
    tri(u,x,a,y,t) = tri(u,x,b,y,s); the transitive closure is taken and the
    induced add/tri tables are checked for representative independence
    exhaustively.
    """
    report = require_axioms(S, lenient, "localize")
    if not is_prime(S, P):
        raise PreconditionError("localize: ideal is not prime")
    lenient_tag = bool(report.violations)

    denoms = [s for s in range(S.n) if s not in P.members]
    fractions = [(a, s) for a in range(S.n) for s in denoms]
    uf = UnionFind(len(fractions))
    params = [(x, y) for x in range(S.g) for y in range(S.g)]
    for i, (a, s) in enumerate(fractions):
        for j in range(i + 1, len(fractions)):
            b, t = fractions[j]
            if any(S.tri[u][x][a][y][t] == S.tri[u][x][b][y][s]
                   for u in denoms for x, y in params):
                uf.union(i, j)

    # Fractions are listed in sorted order, so index order is fraction order.
    classes = tuple(tuple(fractions[k] for k in cls) for cls in uf.classes())
    class_of = {f: ci for ci, cls in enumerate(classes) for f in cls}
    nclasses = len(classes)
    failures: list[str] = []

    def frac_label(f):
        return f"{S.elements[f[0]]}/{S.elements[f[1]]}"

    def add_result(a, s, b, t):
        # Common denominator tri(s,x,t,y,u); commutativity makes it symmetric.
        for u in denoms:
            for x, y in params:
                den = S.tri[s][x][t][y][u]
                if den in P.members:
                    continue
                num = S.add[S.tri[a][x][t][y][u]][S.tri[b][x][s][y][u]]
                return class_of[(num, den)]
        return None

    add_table = [[0] * nclasses for _ in range(nclasses)]
    well_defined = True
    for ci, cls_i in enumerate(classes):
        for cj, cls_j in enumerate(classes):
            results = {add_result(a, s, b, t) for a, s in cls_i for b, t in cls_j}
            if None in results:
                well_defined = False
                failures.append(f"add: no admissible denominator for {ci}+{cj}")
                results.discard(None)
            if len(results) > 1:
                well_defined = False
                failures.append(
                    f"add: class {ci} + class {cj} depends on representatives "
                    f"({sorted(results)})")
            add_table[ci][cj] = min(results) if results else 0

    def tri_result(fa, x, fb, y, fc):
        a, s = fa
        b, t = fb
        c, u = fc
        den = S.tri[s][x][t][y][u]
        if den in P.members:
            return None
        return class_of[(S.tri[a][x][b][y][c], den)]

    tri_table = [[[[[0] * nclasses for _ in range(S.g)] for _ in range(nclasses)]
                  for _ in range(S.g)] for _ in range(nclasses)]
    for ci, cls_i in enumerate(classes):
        for x in range(S.g):
            for cj, cls_j in enumerate(classes):
                for y in range(S.g):
                    for ck, cls_k in enumerate(classes):
                        results = {tri_result(fa, x, fb, y, fc)
                                   for fa in cls_i for fb in cls_j for fc in cls_k}
                        had_none = None in results
                        results.discard(None)
                        if not results:
                            well_defined = False
                            failures.append(
                                f"tri: no admissible denominator for ({ci},{cj},{ck}) "
                                f"at parameters ({x},{y})")
                            results = {0}
                        elif len(results) > 1:
                            well_defined = False
                            failures.append(
                                f"tri: ({ci},{cj},{ck}) at ({x},{y}) depends on "
                                f"representatives ({sorted(results)})")
                        elif had_none:
                            # Some representatives lacked a valid denominator but
                            # all valid ones agreed; keep the common value.
                            pass
                        tri_table[ci][x][cj][y][ck] = min(results)

    zero_class = class_of[(S.zero, denoms[0])]
    unit_class = None
    if S.unit is not None:
        if S.unit in P.members:
            failures.append("unit lies in the prime; localization has no unit class")
        else:
            unit_class = class_of[(S.unit, S.unit)]

    labels = tuple(frac_label(cls[0]) for cls in classes)
    local = FiniteTernaryGammaSemiring(
        name=f"{S.name}_at_{{{','.join(P.labels(S))}}}",
        elements=labels, zero=zero_class, unit=unit_class, gamma=S.gamma,
        add=tuple(tuple(row) for row in add_table),
        tri=tuple(tuple(tuple(tuple(tuple(t4) for t4 in t3) for t3 in t2) for t2 in t1)
                  for t1 in tri_table),
        commutative=S.commutative)

    maximal = frozenset(ci for ci, cls in enumerate(classes)
                        if any(a in P.members for a, _ in cls))
    mixed = [ci for ci, cls in enumerate(classes)
             if any(a in P.members for a, _ in cls)
             and any(a not in P.members for a, _ in cls)]
    if mixed:
        failures.append(f"classes {mixed} mix numerators inside and outside the prime")

    if unit_class is not None:
        invertible = set()
        for ci in range(nclasses):
            if any(tri_table[ci][x][cj][y][unit_class] == unit_class
                   for cj in range(nclasses) for x in range(S.g) for y in range(S.g)):
                invertible.add(ci)
        non_invertible = frozenset(range(nclasses)) - invertible
        if non_invertible != maximal:
            failures.append(
                f"locality: non-invertible classes {sorted(non_invertible)} differ "
                f"from maximal ideal {sorted(maximal)}")

    return LocalizedSemiring(
        prime=P, structure=local, classes=classes, class_of=class_of,
        maximal_ideal=maximal, well_defined=well_defined,
        failures=tuple(failures), lenient=lenient_tag)


# `ideals._fraction_classes` and `ideals._sum_classes` before they worked on
# distinct rows and denominator pairs, kept verbatim (renamed): each compares
# or gathers over every (fraction, fraction) pair.

def grid_fraction_classes(tri, denoms, nums, dens) -> list[list[int]]:
    """Classes of the fractions nums[f]/dens[f]: f ~ h iff
    tri(u,x,nums[f],y,dens[h]) = tri(u,x,nums[h],y,dens[f]) for some u in
    `denoms` and parameters x, y, closed transitively."""
    import numpy as np
    n = len(tri)
    # w[a, t] lists tri(u, x, a, y, t) over (u, x, y).
    w = tri[denoms].transpose(2, 4, 0, 1, 3).reshape(n, n, -1)
    pair = w[nums[:, None], dens]
    # Links are symmetric and reflexive; labels fall to the least linked one.
    linked = (pair == pair.transpose(1, 0, 2)).any(axis=2)
    labels = np.arange(len(nums))
    while ((least := np.where(linked, labels, len(nums)).min(axis=1)) < labels).any():
        labels = least
    roots = np.flatnonzero(labels == np.arange(len(nums)))
    return [np.flatnonzero(labels == root).tolist() for root in roots]


def grid_sum_classes(tri, add, cid, outside, nums, dens):
    """cid of the sum of fractions i and j, nums[i]/dens[i] + nums[j]/dens[j],
    over the first admissible common denominator tri(s,x,t,y,u) in (u, x, y)
    order.  Commutativity makes it symmetric."""
    import numpy as np
    n, g = len(tri), tri.shape[1]
    denoms = np.flatnonzero(outside)
    common = tri[:, :, :, :, denoms].transpose(0, 2, 4, 1, 3).reshape(n, n, -1)
    # P is prime, so tri(s,x,t,y,s) lies outside P for some x, y: every pair
    # of fractions has an admissible common denominator.
    si, sj = dens[:, None], dens
    first = outside[common].argmax(axis=2)[si, sj]
    u, x, y = denoms[first // (g * g)], first // g % g, first % g
    return cid[add[tri[nums[:, None], x, sj, y, u], tri[nums, x, si, y, u]],
               tri[si, x, sj, y, u]]


# `ideals._product_span` before it reduced each block over the distinct
# pairs of tri rows met in it, kept verbatim (renamed): it gathers every
# product of three fractions, one first fraction at a time.

def loop_product_span(tri, cid, nums, dens, bounds):
    """`_span` of the class of the product tri(i, x, j, y, k) of fractions
    nums/dens over every block triple, with blocks cut at `bounds`.  The
    products are gathered one first fraction i at a time, as the flat cid
    index num * n + den."""
    import numpy as np
    n, g, count = len(tri), tri.shape[1], len(bounds) - 1
    num = tri[:, :, nums][:, :, :, :, nums] * n
    den = tri[:, :, dens][:, :, :, :, dens]
    flat = cid.ravel()
    hi = np.full((count, g, count, g, count), -1, dtype=cid.dtype)
    lo = hi.view(f"u{hi.itemsize}").copy()
    for block in range(count):
        for i in range(bounds[block], bounds[block + 1]):
            i_lo, i_hi = _span(flat[num[nums[i]] + den[dens[i]]], bounds[:-1], (1, 3))
            np.minimum(lo[block], i_lo, out=lo[block])
            np.maximum(hi[block], i_hi, out=hi[block])
    return lo, hi


# The free resolution, Ext¹ and Tor₀/Tor₁ that `homology` replaced with one
# covering loop and one kernel-modulo-image quotient, kept verbatim (renamed)
# with the Bourne-quotient routine and covering map they called, as references
# for the differential tests in test_homology.py.

def staged_bourne_quotient_presentation(name, size, add_fn, zero_idx, sub_indices,
                                        reps, relations=()) -> MonoidPresentation:
    """Quotient of a finite commutative monoid by the Bourne congruence of a
    submonoid: i ~ j when i + h = j + h' for some h, h' in the submonoid."""
    classes = bourne_classes(size, add_fn, sub_indices)
    class_of = {i: ci for ci, cls in enumerate(classes) for i in cls}
    add_rows = []
    for ci, cls_i in enumerate(classes):
        row = []
        for cj, cls_j in enumerate(classes):
            results = {class_of[add_fn(a, b)] for a in cls_i for b in cls_j}
            if len(results) > 1:
                raise PreconditionError(
                    f"{name}: Bourne quotient addition is representative-dependent "
                    f"at classes ({ci},{cj})")
            row.append(results.pop())
        add_rows.append(row)
    labels = tuple(f"c{k}" for k in range(len(classes)))
    out_reps = tuple("~".join(reps[i] for i in cls[:3]) for cls in classes)
    return make_presentation(name, labels, out_reps, add_rows,
                             class_of[zero_idx], relations=relations)


@dataclasses.dataclass
class StagedFreeResolution:
    module: GammaModule
    generators: tuple[int, ...]
    ranks: tuple[int, int, int]
    p0: GammaModule
    p1: GammaModule
    p2: GammaModule
    aug: ModuleHom
    d1: ModuleHom
    d2: ModuleHom
    params: tuple[int, int]
    aug_surjective: bool
    exact_at_p0: bool
    exact_at_p1: bool
    notes: tuple[str, ...]


def staged_covering_map(S, target: GammaModule, gens, params):
    """Free module on `gens` with the evaluation map sending (a_i) to
    sum_i act(a_i, x0, gens_i, y0, unit) inside `target`."""
    x0, y0 = params
    p = free_module(S, len(gens))
    col = {q[0]: k for k, q in enumerate(S.quads) if q[1:] == (x0, y0, S.unit)}
    rows = action_rows(target)
    mapping = tuple(target.sum_of(rows[g][col[a]] for a, g in zip(tup, gens))
                    for tup in free_carrier_tuples(S, len(gens)))
    return p, mapping


def staged_submodule_generators(M: GammaModule, members: frozenset[int]) -> tuple[int, ...]:
    sub = sub_module(M, members)
    order = sorted(members)
    return tuple(order[g] for g in generating_set(sub))


def staged_free_resolution(S: FiniteTernaryGammaSemiring, M: GammaModule,
                           params: tuple[int, int] = (0, 0),
                           lenient: bool = False) -> StagedFreeResolution:
    """Two-step free resolution P2 -> P1 -> P0 -> M with exactness checks."""
    if S.unit is None:
        raise PreconditionError("free_resolution: structure has no unit")
    require_module_axioms(M, lenient, "free_resolution")
    notes = []
    gens = generating_set(M)
    p0, aug_map = staged_covering_map(S, M, gens, params)
    aug_ok = hom_violation(p0, M, aug_map) is None
    if not aug_ok:
        notes.append("augmentation fails the homomorphism laws")
    surjective = set(aug_map) == set(range(M.size))
    if not surjective:
        notes.append("augmentation is not surjective")

    ker0 = frozenset(i for i, v in enumerate(aug_map) if v == M.zero)
    if not is_submodule(p0, ker0):
        raise PreconditionError("free_resolution: kernel of the augmentation "
                                "is not a submodule")
    k_gens = staged_submodule_generators(p0, ker0)
    p1, d1_map = staged_covering_map(S, p0, k_gens, params)
    if hom_violation(p1, p0, d1_map) is not None:
        notes.append("d1 fails the homomorphism laws")
    exact0 = frozenset(d1_map) == ker0
    if not exact0:
        notes.append("image of d1 differs from kernel of the augmentation")

    ker1 = frozenset(i for i, v in enumerate(d1_map) if v == p0.zero)
    if not is_submodule(p1, ker1):
        raise PreconditionError("free_resolution: kernel of d1 is not a submodule")
    k1_gens = staged_submodule_generators(p1, ker1)
    p2, d2_map = staged_covering_map(S, p1, k1_gens, params)
    if hom_violation(p2, p1, d2_map) is not None:
        notes.append("d2 fails the homomorphism laws")
    exact1 = frozenset(d2_map) == ker1
    if not exact1:
        notes.append("image of d2 differs from kernel of d1")

    return StagedFreeResolution(
        module=M, generators=gens,
        ranks=(len(gens), len(k_gens), len(k1_gens)),
        p0=p0, p1=p1, p2=p2,
        aug=ModuleHom(p0, M, tuple(aug_map), verified=aug_ok),
        d1=ModuleHom(p1, p0, tuple(d1_map), verified=True),
        d2=ModuleHom(p2, p1, tuple(d2_map), verified=True),
        params=params, aug_surjective=surjective,
        exact_at_p0=exact0, exact_at_p1=exact1, notes=tuple(notes))


@dataclasses.dataclass
class StagedExtResult:
    ext1: MonoidPresentation
    ext0_size: int
    hom_size: int
    ext0_matches_hom: bool
    resolution: StagedFreeResolution
    cycle_count: int
    boundary_count: int
    notes: tuple[str, ...]


def staged_ext1(S: FiniteTernaryGammaSemiring, M: GammaModule, N: GammaModule,
                params: tuple[int, int] = (0, 0), lenient: bool = False) -> StagedExtResult:
    """Cycles modulo boundaries of the dualized two-step resolution."""
    res = staged_free_resolution(S, M, params=params, lenient=lenient)
    homs0 = hom_set(res.p0, N)
    homs1 = hom_set(res.p1, N)
    idx1 = {f.map: k for k, f in enumerate(homs1)}
    notes = list(res.notes)

    boundaries = set()
    for f in homs0:
        pulled = f.after(res.d1).map
        k = idx1.get(pulled)
        if k is None:
            raise PreconditionError("ext1: a pulled-back boundary is missing from "
                                    "the enumerated hom set")
        boundaries.add(k)
    cycles = [k for k, g in enumerate(homs1) if g.after(res.d2).is_zero]
    if not boundaries <= set(cycles):
        notes.append("boundaries are not all cycles (d1∘d2 is not zero)")

    cycle_homs = [homs1[k] for k in cycles]
    cidx = {homs1[k].map: i for i, k in enumerate(cycles)}

    def add_fn(i, j):
        summed = tuple(N.madd[cycle_homs[i].map[t]][cycle_homs[j].map[t]]
                       for t in range(res.p1.size))
        k = cidx.get(summed)
        if k is None:
            raise PreconditionError("ext1: cycle monoid is not closed under "
                                    "pointwise addition")
        return k

    zero_map = tuple(N.zero for _ in range(res.p1.size))
    sub = sorted(cidx[homs1[k].map] for k in boundaries)
    reps = [f"h{k}" for k in cycles]
    pres = staged_bourne_quotient_presentation(
        f"Ext1({M.name},{N.name})", len(cycles), add_fn, cidx[zero_map], sub, reps,
        relations=(f"cycles: maps from {res.p1.name} killed by d2",
                   f"boundaries: pullbacks of maps from {res.p0.name} along d1",
                   "quotient: Bourne congruence of the boundary submonoid"))

    ext0 = [f for f in homs0 if f.after(res.d1).is_zero]
    hom_mn = hom_set(M, N)
    return StagedExtResult(ext1=pres, ext0_size=len(ext0), hom_size=len(hom_mn),
                           ext0_matches_hom=len(ext0) == len(hom_mn), resolution=res,
                           cycle_count=len(cycles), boundary_count=len(sub),
                           notes=tuple(notes))


def staged_tor1(S: FiniteTernaryGammaSemiring, M: GammaModule, N: GammaModule,
                params: tuple[int, int] = (0, 0), lenient: bool = False) -> TorResult:
    """Homology of the tensored two-step resolution in degrees 0 and 1."""
    res = staged_free_resolution(S, M, params=params, lenient=lenient)
    t0 = tensor(res.p0, N, lenient=lenient)
    t1 = tensor(res.p1, N, lenient=lenient)
    t2 = tensor(res.p2, N, lenient=lenient)
    notes = list(res.notes)

    def with_id(d):
        # d⊗id sends generator p⊗n, index p·|N| + n, to d(p)⊗n.
        return np.add.outer(np.multiply(d.map, N.size), np.arange(N.size)).ravel()

    map1 = tensor_induced_map(t1, t0, with_id(res.d1))
    map2 = tensor_induced_map(t2, t1, with_id(res.d2))
    if not (map1.well_defined and map1.additive):
        notes.append("d1⊗id is not a well-defined monoid map")
    if not (map2.well_defined and map2.additive):
        notes.append("d2⊗id is not a well-defined monoid map")

    kernel = [c for c in range(t1.size) if map1.classes[c] == t0.presentation.zero]
    image2 = sorted({map2.classes[c] for c in range(t2.size)})
    if not set(image2) <= set(kernel):
        notes.append("image of d2⊗id is not contained in the kernel of d1⊗id")
        image2 = [c for c in image2 if c in kernel]
    kpos = {c: i for i, c in enumerate(kernel)}

    def add_k(i, j):
        s = t1.presentation.add[kernel[i]][kernel[j]]
        k = kpos.get(s)
        if k is None:
            raise PreconditionError("tor1: kernel is not closed under addition")
        return k

    tor1_pres = staged_bourne_quotient_presentation(
        f"Tor1({M.name},{N.name})", len(kernel), add_k,
        kpos[t1.presentation.zero], [kpos[c] for c in image2],
        [t1.presentation.reps[c] for c in kernel],
        relations=("kernel of d1⊗id modulo the Bourne congruence of im(d2⊗id)",))

    image1 = sorted({map1.classes[c] for c in range(t1.size)})
    tor0_pres = staged_bourne_quotient_presentation(
        f"Tor0({M.name},{N.name})", t0.size,
        lambda i, j: t0.presentation.add[i][j], t0.presentation.zero,
        image1, list(t0.presentation.reps),
        relations=("coequalizer of d1⊗id via the Bourne congruence of its image",))

    # P0 often carries M's own tables (M regular), and then M⊗N is P0⊗N.
    same = ((M.madd, M.zero, action_rows(M))
            == (res.p0.madd, res.p0.zero, action_rows(res.p0)))
    tmn = t0 if same else tensor(M, N, lenient=lenient)
    iso = find_presentation_isomorphism(tor0_pres, tmn.presentation)
    return TorResult(tor1=tor1_pres, tor0=tor0_pres,
                     tor0_matches_tensor=iso is not None, notes=tuple(notes))


def pairwise_homological_semisimplicity(S: FiniteTernaryGammaSemiring, catalog=None,
                                        lenient: bool = False) -> HomSemisimplicityReport:
    """Ext¹ triviality over all catalog pairs, cross-checked against the radical."""
    if catalog is None:
        catalog = cyclic_module_catalog(S, lenient=lenient)
    witness = None
    ok = True
    pairs = 0
    for a in catalog:
        for b in catalog:
            pairs += 1
            result = ext1(S, a.module, b.module, lenient=lenient)
            if not result.ext1.is_trivial:
                ok = False
                if witness is None:
                    witness = (a.module.name, b.module.name)
    rad = jacobson_radical(S, catalog, lenient=lenient)
    radical_zero = rad.ideal.members == frozenset({S.zero})
    return HomSemisimplicityReport(ok=ok, radical_zero=radical_zero,
                                   consistent=ok == radical_zero,
                                   witness=witness, pair_count=pairs)
