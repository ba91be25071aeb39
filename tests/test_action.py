"""The module action, stored once per distinct column.

Every module the package builds is pinned by digest and checked for distinct
columns in order of first occurrence, and each reader of the action columns
is compared with the nested loop it replaced (kept in conftest.py as
`loop_*`).  The congruence lattice, built from join-irreducible
principal congruences, is compared with the partition sweep and with the
lattice of all principal congruences that it replaced.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import random

import pytest

from conftest import (action_rows, all_bundled_modules, brute_force_submodules, chain,
                      integers_mod, loop_action_rows, loop_annihilator_of_element,
                      loop_congruence_compatible, loop_density_witnesses,
                      loop_enumerate_module_congruences, loop_hom_violation,
                      loop_is_congruence_simple, loop_is_submodule,
                      loop_submodule_closure, patch_add, perturbed_t2,
                      principal_enumerate_module_congruences,
                      principal_is_congruence_simple, swapping_module, truncated_naturals,
                      with_rows, zero_action_flat, zsum)
from tgw import fixtures, modules
from tgw.core import BUDGETS, BudgetError, product_structure
from tgw.homology import free_module, hom_module, tensor
from tgw.modules import (_congruence_compatible,
                         annihilator_of_element, bourne_quotient,
                         cyclic_module_catalog, density_check, direct_sum,
                         enumerate_module_congruences,
                         enumerate_submodules, hom_violation, is_congruence_simple,
                         is_simple, is_submodule, load_module, module_from_dict,
                         module_to_dict,
                         nested_action, quotient_by_congruence, regular_module,
                         serialize_module, sub_module, submodule_closure,
                         zero_module)
from test_laws import perturbed_module


def built_modules(S):
    """One module from each builder of the package, over S."""
    reg = regular_module(S)
    twice = direct_sum(reg, reg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(BUDGETS, "enum", twice.size)
        subs = enumerate_submodules(twice)
    middle = subs[len(subs) // 2]
    congs = enumerate_module_congruences(reg)
    return {
        "free2": free_module(S, 2),
        "sub": sub_module(twice, middle),
        "quotient": quotient_by_congruence(reg, congs[len(congs) // 2]),
        "bourne": bourne_quotient(twice, subs[1])[0],
        "direct_sum": twice,
        "zero": zero_module(S),
        "hom": hom_module(reg, reg)[0],
        "tensor": tensor(reg, reg).module,
    }


def _sha(M):
    return hashlib.sha256(serialize_module(M).encode("utf-8")).hexdigest()


# sha256 of `serialize_module` (carrier, zero, madd and act) of each built
# module, recorded before the builders were rewritten over flat action rows.
BUILT_SHA256 = {
    "B2": {
        "free2":
            "1b26c014898d6797de639684c46501065d5a0278b0e1be906a479cbd713ac3ac",
        "sub":
            "705e6808d56ed71132a6b608461f6f544cbde587b8f5c76b68e6d4de7ae5e407",
        "quotient":
            "0c891c880dcecd615ad6a3f1663d8fe8b53fb487698f24e08affe55a7e784888",
        "bourne":
            "a7e28cd609edf853f033354e8677670c07b7be42508c5b7aa12e824ce01c169e",
        "direct_sum":
            "bed23638f2724c2cb5487239fd9659df7df0b8b3ccad7efa49559f444f14d526",
        "zero":
            "93771113b5830f5f39bf233b0fb0984863ae2a53bfc02b639311ffee47e012b9",
        "hom":
            "f3c415a19c6469fbfbd70dd63053b4391990f600cd49a64e23998b83da3c53a2",
        "tensor":
            "a555a450a84ee642f5a3147e1d645d0b56b895bef43f4493e83b0ab0ff8653c7",
    },
    "B2xB2": {
        "free2":
            "609a7192dde930cd04630bb7f791d9d9b9e798e18ade4127173ad3f9a15a0be8",
        "sub":
            "062240fa5d611fc6e5db94885d695dc53691bdd3df8835563a0e18f18ff2e1ca",
        "quotient":
            "353c2d908645748053e9f41329012b069310df454c1e5950792f765e006d024c",
        "bourne":
            "1a1751d94b6b5e61900a5571773081cffbb6e7eeaaff79a06bfae221a535c95f",
        "direct_sum":
            "e07c7e7fed5083359ab1bf6216e071459433db0799ed319ac829273eb477db65",
        "zero":
            "dac07098ccf13cd8a8289a26d486b29ffab1374b3dc500c6d71887fde85cd67a",
        "hom":
            "82fd0c800f15ebe130ddeaf99ba3ce1aeecf385d45c1694bb2676f9ef7f63db9",
        "tensor":
            "045e59a8818f048a43b39a97096ea5e156ea0dd2e4cc2ce756422b994c1592e6",
    },
    "C4": {
        "free2":
            "7c85bf73e9f2e8c0b37205754d9419e3b3c70548e98a4bd2e71c8e3baedbad3d",
        "sub":
            "d088590ba5d6a92d6c6cc624a02aa382b07669e72884c7e076bf12a0ced6b3fc",
        "quotient":
            "1f9064d63841f9bc4330fecc08a1139efd2a403a49b97e60586997967c2dd833",
        "bourne":
            "e3d3e7dac72fdb47ddb7f9607fa7d71d23b8a5bb6c33c09dba293a321abf9880",
        "direct_sum":
            "8a8f76a2fa524cafe04702c7335f34d7c60f4e22735096a2b623be2698724e04",
        "zero":
            "f9d702c829c206184da7569a4fa2349a7b3606f549227002793454e7b8edbe83",
        "hom":
            "15d9bd5550b0ac934439f4fc172385ea2cbae3ba4edbc96e69ab2a6b69c85056",
        "tensor":
            "a9c9ec25c99b4827e6d9bcbeef13be6f0a593c4fa2d092268bcb5aed15dad181",
    },
}


@pytest.mark.parametrize("structure", ["B2", "B2xB2", "C4"])
def test_built_modules_pinned(structure):
    S = chain(4) if structure == "C4" else fixtures.bundled_structure(structure)
    got = {name: _sha(M) for name, M in built_modules(S).items()}
    assert got == BUILT_SHA256[structure]


def test_nesting_then_flattening_gives_images():
    S = chain(4)
    n2 = regular_module(truncated_naturals(2))
    exact = tensor(n2, n2).module
    for M in [*all_bundled_modules(), *built_modules(S).values(), exact]:
        assert M.base.quads == tuple(itertools.product(
            range(M.base.n), range(M.base.g), range(M.base.g), range(M.base.n)))
        act = nested_action(M)
        assert tuple(tuple(act[a][x][m][y][b] for a, x, y, b in M.base.quads)
                     for m in range(M.size)) == action_rows(M), M.name
        assert module_from_dict(module_to_dict(M), M.base) == M, M.name


def test_action_rows_match_per_quad_lookups():
    """The fixture reader and the regular module build the same rows as the
    per-quad comprehension, on lawless modules and on 6-8 element bases."""
    b2 = fixtures.bundled_structure("B2")
    bases = [product_structure(product_structure(b2, b2, "B2^2"), b2, "B2^3"), chain(8),
             integers_mod(6)]
    for S in bases:
        assert action_rows(regular_module(S)) == loop_action_rows(S.tri, S, S.n), S.name
    mods = [perturbed_module(M, seed, entries=4) for M in all_bundled_modules()
            for seed in range(3)]
    for M in [*mods, *map(regular_module, bases)]:
        rows = loop_action_rows(nested_action(M), M.base, M.size)
        assert module_from_dict(module_to_dict(M), M.base) == with_rows(M, rows), M.name


def _skewed_t2():
    """B2-T2 with three act entries changed, so that the first parameter
    (0,0,0,0) moves (2,0) and slot a no longer mirrors slot b on (1,1)."""
    t2 = fixtures.bundled_module("B2-T2")
    col = {q: k for k, q in enumerate(t2.base.quads)}
    images = [list(row) for row in action_rows(t2)]
    images[2][col[0, 0, 0, 0]] = 1
    images[3][col[0, 0, 0, 1]] = 3
    for x, y in itertools.product(range(t2.base.g), repeat=2):
        images[3][col[1, x, y, 1]] = 0
    return with_rows(t2, images, name="B2-T2-skewed")


def _per_quad_builds(S):
    """(module, its action rows evaluated one quad at a time from tri) for
    each builder of the package over S, and for every submodule and quotient
    that the sub-module and quotient builders reach from its first modules."""
    quads = range(len(S.quads))
    tri = loop_action_rows(S.tri, S, S.n)
    reg, pairs = regular_module(S), list(itertools.product(range(S.n), repeat=2))
    twice = [[pairs.index((tri[u][k], tri[v][k])) for k in quads] for u, v in pairs]
    out = [(reg, tri), (zero_module(S), [[0 for _ in quads]]),
           (direct_sum(reg, reg), twice), (free_module(S, 2), twice)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(BUDGETS, "enum", len(pairs))
        subs = enumerate_submodules(direct_sum(reg, reg))
    for members in subs:
        order = sorted(members)
        out.append((sub_module(direct_sum(reg, reg), members),
                    [[order.index(twice[m][k]) for k in quads] for m in order]))
    for cong in enumerate_module_congruences(reg):
        out.append((quotient_by_congruence(reg, cong),
                    [[cong.class_of[tri[cls[0]][k]] for k in quads] for cls in cong.classes]))
    hom, homs = hom_module(reg, reg)
    maps = [f.map for f in homs]
    out.append((hom, [[maps.index(tuple(tri[v][k] for v in f)) for k in quads] for f in maps]))
    t = tensor(reg, reg)
    add = t.presentation.add
    out.append((t.module, [[functools.reduce(lambda c, d: add[c][d], (
        t.gen_class[tri[g // S.n][k] * S.n + g % S.n] for g in rep)) for k in quads]
        for rep in t.rep_gens]))
    return out


@pytest.mark.parametrize("structure", ["B2", "B2xB2", "C4"])
def test_every_builder_stores_distinct_columns_in_first_occurrence_order(structure):
    """Each builder's columns are pairwise distinct, listed in order of first
    occurrence over the quads, and give act(a, x, m, y, b) as the per-quad
    evaluation does; so do the fixture reader's on bundled, conftest, lenient
    and perturbed modules, and the fixture text round-trips."""
    S = chain(4) if structure == "C4" else fixtures.bundled_structure(structure)
    built = _per_quad_builds(S)
    if structure == "B2":
        t2 = fixtures.bundled_module("B2-T2")
        built += [(M, action_rows(M)) for M in (
            swapping_module(S), zero_action_flat(S, 5), perturbed_t2(t2), _skewed_t2(),
            *(perturbed_module(t2, seed, entries=4) for seed in range(3)))]
        # Every bundled module, Z3's lenient ones too, against its fixture's act.
        for name, (filename, _) in fixtures._MODULE_FILES.items():
            M, data = fixtures.bundled_module(name), json.loads(fixtures._data_text(filename))
            label = {c: k for k, c in enumerate(data["carrier"])}
            built.append((M, [[label[v] for v in row]
                              for row in loop_action_rows(data["act"], M.base, M.size)]))
    for M, rows in built:
        assert len(M.column_of) == len(M.base.quads), M.name
        _assert_canonical(M, rows)
        assert module_from_dict(module_to_dict(M), M.base) == M, M.name


def _assert_canonical(M, rows):
    """M's columns are distinct, in order of first occurrence over its slots,
    and hold act(a, x, m, y, b) as `rows[m]` lists it over the slots."""
    assert len(M.column_of) == len(rows[0]), M.name
    assert len(set(M.columns)) == len(M.columns), M.name
    assert list(dict.fromkeys(M.column_of)) == list(range(len(M.columns))), M.name
    assert all(M.columns[i][m] == rows[m][k] for k, i in enumerate(M.column_of)
               for m in range(M.size)), M.name


def test_construction_merges_equal_columns():
    """Columns that a builder passes twice, or once per quad, are merged, so
    equal actions give equal (and equally hashed) modules."""
    reg = regular_module(fixtures.bundled_structure("B2"))
    rows, k = action_rows(reg), len(reg.columns)
    twice = dataclasses.replace(reg, columns=[*reg.columns, *reg.columns],
                                column_of=[k + i for i in reg.column_of])
    for M in (twice, with_rows(reg, rows)):
        _assert_canonical(M, rows)
        assert (M.columns, M.column_of) == (reg.columns, reg.column_of)
        assert M == reg and hash(M) == hash(reg)


@pytest.mark.parametrize("structure", ["B2xB2", "C4"])
def test_ideal_module_stores_each_slot_in_first_occurrence_order(structure):
    """Without declared tri-commutativity the ideal module acts by T in the
    middle slot (the quads), then in slot a over (x, u, y, b), then in slot b
    over (a, x, u, y), each column once."""
    S = chain(4) if structure == "C4" else fixtures.bundled_structure(structure)
    S = dataclasses.replace(S, commutative=False)
    n, g, t = range(S.n), range(S.g), S.tri
    rows = [[t[a][x][m][y][b] for a, x, y, b in S.quads]
            + [t[m][x][u][y][b] for x, u, y, b in itertools.product(g, n, g, n)]
            + [t[a][x][u][y][m] for a, x, u, y in itertools.product(n, g, n, g)] for m in n]
    _assert_canonical(modules._ideal_module(S), rows)


def test_fixture_text_round_trips():
    """Loading then serializing gives the text back, on every bundled module
    and on B2^3-T2n as the benchmark writes it."""
    b2 = fixtures.bundled_structure("B2")
    b2p3 = product_structure(product_structure(b2, b2, "B2^2"), b2, "B2^3")
    reg = regular_module(b2p3)
    t2n = dataclasses.replace(direct_sum(reg, reg, name="B2^3-T2n"), m2_profile="nested")
    texts = [(serialize_module(t2n), b2p3)]
    texts += [(fixtures._data_text(name), fixtures.bundled_structure(base))
              for name, base in fixtures._MODULE_FILES.values()]
    for text, base in texts:
        assert serialize_module(load_module(text, base)) == text


def _differential_modules():
    """The bundled modules and two lawless variants of B2-T2, the regular
    modules of C5, C6 and B2^3, a Bourne quotient of B2^3's and a direct sum
    of C5's with one of its quotients."""
    b2 = fixtures.bundled_structure("B2")
    b2p3 = product_structure(fixtures.bundled_structure("B2xB2"), b2, "B2^3")
    c5, c6, r8 = (regular_module(S) for S in (chain(5), chain(6), b2p3))
    c5_low = bourne_quotient(c5, frozenset({0, 1, 2}))[0]
    return [*all_bundled_modules(), _skewed_t2(),
            perturbed_t2(fixtures.bundled_module("B2-T2")), c5, c6, r8,
            bourne_quotient(r8, frozenset({0, 1}))[0], direct_sum(c5, c5_low)]


DIFF_MODULES = _differential_modules()
DIFF_IDS = [M.name for M in DIFF_MODULES]


@pytest.mark.parametrize("M", DIFF_MODULES, ids=DIFF_IDS)
def test_submodules_match_loops(M, monkeypatch):
    carrier = range(M.size)
    for r in range(M.size + 1):
        for subset in itertools.combinations(carrier, r):
            members = frozenset(subset)
            assert is_submodule(M, members) == loop_is_submodule(M, members), subset
    for r in range(3):
        for seed in itertools.combinations(carrier, r):
            assert submodule_closure(M, seed) == loop_submodule_closure(M, seed), seed
    # Simple: no submodule besides {zero} and the carrier, even where {zero}
    # is not action-closed (Z3-regular).  is_simple charges |M| to the enum
    # limit, which the direct sum of C5's exceeds.
    monkeypatch.setitem(BUDGETS, "enum", M.size)
    others = set(brute_force_submodules(M)) - {(M.zero,), tuple(carrier)}
    assert is_simple(M) == (M.size > 1 and not others)


@pytest.mark.parametrize("M", DIFF_MODULES, ids=DIFF_IDS)
def test_hom_violation_matches_loops(M):
    """Same verdict on every map into a module over the same base; the
    equivariance witness may be another one, so it is re-checked instead."""
    m_act = nested_action(M)
    for N in DIFF_MODULES:
        if N.base != M.base or N.size ** M.size > 5000:
            continue
        n_act = nested_action(N)
        for mapping in itertools.product(range(N.size), repeat=M.size):
            got, ref = hom_violation(M, N, mapping), loop_hom_violation(M, N, mapping)
            assert (got is None) == (ref is None), mapping
            if got is None:
                continue
            assert got[0] == ref[0], mapping
            if got[0] != "equivariance":
                assert got == ref, mapping
                continue
            a, x, m, y, b = got[1]
            assert mapping[m_act[a][x][m][y][b]] != n_act[a][x][mapping[m]][y][b]


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        yield [[first], *part]
        for k in range(len(part)):
            yield [*part[:k], [first, *part[k]], *part[k + 1:]]


@pytest.mark.parametrize("M", [M for M in DIFF_MODULES if M.size <= 6],
                         ids=[M.name for M in DIFF_MODULES if M.size <= 6])
def test_congruence_compatible_matches_loops(M):
    for part in _partitions(list(range(M.size))):
        class_of = [0] * M.size
        for ci, cls in enumerate(part):
            for elem in cls:
                class_of[elem] = ci
        assert _congruence_compatible(M, class_of) == \
            loop_congruence_compatible(M, class_of), part


@pytest.mark.parametrize("M", DIFF_MODULES, ids=DIFF_IDS)
def test_annihilators_and_density_match_loops(M, monkeypatch):
    for mm in range(M.size):
        assert annihilator_of_element(M, mm) == loop_annihilator_of_element(M, mm)
    # The witness search runs on every module, simple or not.
    monkeypatch.setattr(modules, "is_simple", lambda M, bound=None: True)
    for anchor in range(M.base.n):
        report = density_check(M, anchor=anchor, rank2=True, lenient=True)
        assert (report.witnesses, report.unsolvable, report.rank2) == \
            loop_density_witnesses(M, anchor, rank2=True)


def _congruence_modules():
    """Every module above, the built modules over B2, B2xB2 and C4, and the
    regular modules of C5, C6, C8, B2^3, Zsum5, N4, Z6 and Z3xB2."""
    b2 = fixtures.bundled_structure("B2")
    b2p3 = product_structure(fixtures.bundled_structure("B2xB2"), b2, "B2^3")
    built = {f"{S.name}-{kind}": M
             for S in (b2, fixtures.bundled_structure("B2xB2"), chain(4))
             for kind, M in built_modules(S).items()}
    z3b2 = product_structure(fixtures.bundled_structure("Z3"), b2, "Z3xB2")
    bases = (chain(5), chain(6), chain(8), b2p3, zsum(5), truncated_naturals(4),
             integers_mod(6), z3b2)
    regular = {M.name: M for M in map(regular_module, bases)}
    return {**{M.name: M for M in DIFF_MODULES}, **built, **regular}


CONGRUENCE_MODULES = _congruence_modules()


def assert_same_congruences(M):
    assert enumerate_module_congruences(M) == loop_enumerate_module_congruences(M)
    assert is_congruence_simple(M) == loop_is_congruence_simple(M)


@pytest.mark.parametrize("name", CONGRUENCE_MODULES)
def test_congruences_match_sweep(name):
    """Same congruences, in the same order, and the same simplicity verdict;
    above the partition bound both enumerations refuse."""
    M = CONGRUENCE_MODULES[name]
    if M.size <= BUDGETS["partition"]:
        assert_same_congruences(M)
        return
    for enumerate_congruences in (enumerate_module_congruences,
                                  loop_enumerate_module_congruences):
        with pytest.raises(BudgetError):
            enumerate_congruences(M)


@pytest.mark.parametrize("n", [10, 12])
def test_congruences_match_principal_lattice_on_chains(n, monkeypatch):
    """C10 and C12, past the default partition limit, whose regular modules
    have 512 and 2,048 congruences."""
    monkeypatch.setitem(BUDGETS, "partition", n)
    reg = regular_module(chain(n))
    assert enumerate_module_congruences(reg) == principal_enumerate_module_congruences(reg)


def add_perturbations(count: int, seed: int):
    """`count` structures, each a base with one or two `patch_add` entries
    replaced at random; most of them have a non-commutative addition."""
    rng = random.Random(seed)
    bases = (chain(4), chain(5), fixtures.bundled_structure("B2xB2"), integers_mod(4),
             integers_mod(6), truncated_naturals(4))
    for _ in range(count):
        S = rng.choice(bases)
        for _ in range(rng.randint(1, 2)):
            S = patch_add(S, rng.randrange(S.n), rng.randrange(S.n), rng.randrange(S.n))
        yield S


def _commutes(S):
    return S.add == tuple(zip(*S.add))


def test_congruences_match_principal_lattice_on_perturbed_adds():
    structures = list(add_perturbations(240, seed=18))
    assert sum(not _commutes(S) for S in structures) >= 120
    for S in structures:
        reg = regular_module(S)
        assert enumerate_module_congruences(reg) == \
            principal_enumerate_module_congruences(reg), S.add


def _catalog_bases():
    b2 = fixtures.bundled_structure("B2")
    b2p3 = product_structure(fixtures.bundled_structure("B2xB2"), b2, "B2^3")
    return (chain(8), chain(10), b2p3, fixtures.bundled_structure("B2xB2"),
            integers_mod(6), truncated_naturals(4))


@pytest.mark.parametrize("S", _catalog_bases(), ids=lambda S: S.name)
def test_catalog_congruence_simple_matches_quotients(S, monkeypatch):
    """The catalog reads congruence-simplicity off the lattice of the regular
    module: reg/θ is congruence-simple when θ is a coatom."""
    monkeypatch.setitem(BUDGETS, "partition", S.n)
    for entry in cyclic_module_catalog(S):
        assert entry.congruence_simple == is_congruence_simple(entry.module) == \
            principal_is_congruence_simple(entry.module), entry.module.name


def test_catalog_congruence_simple_matches_quotients_of_perturbed_adds():
    """Without a commutative addition reg/θ keeps only the translations by
    class representatives, and may have more congruences than reg above θ."""
    structures = [S for S in add_perturbations(200, seed=1818) if not _commutes(S)]
    assert len(structures) >= 100
    for S in structures:
        for entry in cyclic_module_catalog(S, lenient=True):
            assert entry.congruence_simple == is_congruence_simple(entry.module) == \
                principal_is_congruence_simple(entry.module), (S.add, entry.module.name)


def entry_perturbations(M):
    """M with one madd or act entry replaced by each other carrier element,
    entry by entry."""
    S = M.base
    shapes = {"madd": (M.size, M.size), "act": (S.n, S.g, M.size, S.g, S.n)}
    for key, shape in shapes.items():
        for *path, last in itertools.product(*map(range, shape)):
            for label in M.carrier:
                data = module_to_dict(M)
                row = functools.reduce(operator.getitem, path, data[key])
                if row[last] != label:
                    row[last] = label
                    yield module_from_dict(data, S)


def test_congruences_match_sweep_on_perturbed_c4():
    """All 240 single-entry perturbations of the regular module of C4; most
    break its laws, and 214 change its lattice of 8 congruences."""
    sizes = collections.Counter()
    for M in entry_perturbations(regular_module(chain(4))):
        assert_same_congruences(M)
        sizes[len(enumerate_module_congruences(M))] += 1
    assert sizes == {3: 16, 4: 40, 5: 56, 6: 102, 8: 26}
