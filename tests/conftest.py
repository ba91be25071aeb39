"""Shared fixtures and brute-force oracles.

The oracles deliberately ignore the library's enumeration strategies: ideals
and submodules come from filtering every subset, hom sets from filtering
every total map.  Differential tests compare the fast paths against these.
"""

from __future__ import annotations

import itertools

import pytest

from tgw import fixtures
from tgw.core import structure_from_dict
from tgw.homology import (TensorResult, _gen_label, _tensor_generators,
                          _tensor_relations, make_presentation)
from tgw.ideals import is_ideal_subset
from tgw.modules import (GammaModule, check_module_axioms, hom_violation,
                         is_submodule)


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
    n = 4
    labels = [str(i) for i in range(n)]
    add = [[labels[(i + j) % n] for j in range(n)] for i in range(n)]
    tri = [[[[[labels[(a * b * c) % n] for c in range(n)]] for b in range(n)]]
           for a in range(n)]
    return structure_from_dict({
        "name": "Z4", "elements": labels, "zero": "0", "unit": "1",
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


def all_bundled_modules():
    return [fixtures.bundled_module(name) for name in fixtures.MODULE_NAMES]


def brute_force_tensor_idempotent(M, N):
    """Idempotent tensor product by plain saturation over the raw relation
    list: no deduplication, no memo, and every class lookup re-saturates."""
    name = f"{M.name}(x){N.name}"
    rels, descriptions = _tensor_relations(M, N)
    gens, gidx = _tensor_generators(M, N)

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
        return {(M.act[a][x][g[0]][y][b], g[1]): 1 for g in d}

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
        reps.append(_gen_label(M, N, direct[0]) if direct
                    else "+".join(_gen_label(M, N, g) for g in bits[:3]))
    labels = [f"c{k}" for k in range(len(ordered))]
    pres = make_presentation(name, labels, reps, add_rows, zero_class,
                             relations=descriptions)

    def eval_sum(multiset):
        return index[saturate(mask_of(multiset))] if multiset else None

    def rep_sum(ci):
        return tuple((g, 1) for g in gens if ordered[ci] >> gidx[g] & 1)

    S = M.base
    params = list(itertools.product(range(S.n), range(S.g), range(S.g),
                                    range(S.n)))
    notes = []
    action_ok = True
    if len(gens) <= 8:
        if any(saturate(mask_of(acted(*p, lhs))) != saturate(mask_of(acted(*p, rhs)))
               for lhs, rhs in rels for p in params):
            action_ok = False
            notes.append("induced action is not well-defined on a relation pair")
    else:
        notes.append("induced action verified via module axiom check only")
    act = [[[[[None] * S.n for _ in range(S.g)] for _ in ordered]
            for _ in range(S.g)] for _ in range(S.n)]
    for (a, x, y, b), ci in itertools.product(params, range(len(ordered))):
        act[a][x][ci][y][b] = eval_sum(acted(a, x, y, b, dict(rep_sum(ci))))
    module = GammaModule(
        name=name, base=S, carrier=tuple(labels), zero=zero_class,
        madd=tuple(tuple(r) for r in add_rows),
        act=tuple(tuple(tuple(tuple(tuple(r) for r in l3) for l3 in l2)
                        for l2 in l1) for l1 in act))
    if check_module_axioms(module).violations:
        action_ok = False
        notes.append("induced module fails the module axioms")
    return TensorResult(presentation=pres, module=module, backend="idempotent",
                        gen_class={g: index[sat_gen[g]] for g in gens},
                        module_action_ok=action_ok, notes=tuple(notes),
                        rel_pairs=rels, eval_sum=eval_sum, rep_sum=rep_sum)
