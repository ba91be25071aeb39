"""Module axioms, submodules, homs, density, quotients, catalogs, radical."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (action_rows, all_bundled_modules, brute_force_homs,
                      brute_force_submodules, chain, integers_mod, reevaluate_module_violation,
                      truncated_naturals)
from tgw import fixtures
from tgw.core import PreconditionError, product_structure
from tgw.modules import (GammaModule, ModuleHom, _iso_invariant,
                         annihilator, annihilator_of_element, bourne_quotient,
                         check_module_axioms, cyclic_module_catalog, density_check,
                         direct_sum, end_semiring, enumerate_module_congruences,
                         enumerate_submodules, find_isomorphism, hom_set, hom_violation,
                         is_faithful, is_simple, iso_theorem_suite,
                         jacobson_radical, load_module, nested_action, quotient_by_congruence,
                         regular_module, serialize_module)


def test_lawful_modules_pass(b2_reg, b2_t2, b2_zero, b2xb2_reg, b2xb2_zero,
                             z3_zero):
    for M in (b2_reg, b2_t2, b2_zero, b2xb2_reg, b2xb2_zero, z3_zero):
        report = check_module_axioms(M)
        assert report.passed, (M.name, report.violations[:3])


def test_z3_regular_violations(z3_reg):
    # The mod-3 action is not additive and does not absorb zero; the checker
    # must say so (and every witness must re-evaluate), while base-structure
    # failures surface as warnings.
    report = check_module_axioms(z3_reg)
    laws = {v.law for v in report.violations}
    assert "act-absorb-a" in laws
    assert "act-additivity-slot-m" in laws
    assert "act-zero-module" in laws
    assert len(report.warnings) > 0
    for v in report.violations:
        left, right = reevaluate_module_violation(z3_reg, v)
        assert (left, right) == (v.left, v.right) and left != right


def test_submodule_enumeration_matches_oracle():
    for M in all_bundled_modules():
        got = [tuple(sorted(s)) for s in enumerate_submodules(M)]
        assert got == brute_force_submodules(M), M.name


def test_submodules_expected(b2_reg, b2_t2, b2_zero):
    assert [tuple(sorted(s)) for s in enumerate_submodules(b2_reg)] == \
        [(0,), (0, 1)]
    # Brute force finds seven: the zero set, the three "axes" including the
    # diagonal, the two upper sets that contain (1,1), and everything.
    assert [tuple(sorted(s)) for s in enumerate_submodules(b2_t2)] == \
        [(0,), (0, 1), (0, 2), (0, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3)]
    assert [tuple(sorted(s)) for s in enumerate_submodules(b2_zero)] == [(0,)]


def test_is_simple(b2_reg, b2_t2, b2_zero, z3_reg):
    assert is_simple(b2_reg)
    assert not is_simple(b2_t2)
    assert not is_simple(b2_zero)
    # The zero singleton is not action-closed here, yet there is still no
    # proper nonzero submodule, so the module counts as simple.
    assert is_simple(z3_reg)


def test_annihilators(b2_reg, b2_t2, b2_zero, z3_reg):
    assert annihilator(b2_reg).key() == (0,)
    assert annihilator(b2_reg).is_ideal
    assert annihilator(b2_zero).key() == (0, 1)
    assert annihilator(b2_t2).key() == (0,)
    ann = annihilator(z3_reg, lenient=True)
    assert ann.key() == (0,)
    assert ann.is_ideal is False  # the zero singleton is not absorbing here


def test_annihilator_is_elementwise_intersection():
    for M in all_bundled_modules():
        whole = annihilator(M, lenient=True).members
        per_element = frozenset(range(M.base.n))
        for m in range(M.size):
            per_element &= annihilator_of_element(M, m)
        assert whole == per_element, M.name


def test_is_faithful(b2_reg, b2_zero, z3_reg):
    assert is_faithful(b2_reg) == (True, None)
    assert is_faithful(b2_zero) == (False, 1)
    assert is_faithful(z3_reg, lenient=True) == (True, None)


def test_hom_sets_expected(b2_reg, b2_t2, b2_zero):
    assert [h.map for h in hom_set(b2_reg, b2_reg)] == [(0, 0), (0, 1)]
    assert [h.map for h in hom_set(b2_zero, b2_reg)] == [(0,)]
    maps = [h.map for h in hom_set(b2_t2, b2_reg)]
    assert (0, 0, 1, 1) in maps  # the first-coordinate projection


def test_hom_sets_match_oracle():
    mods = all_bundled_modules()
    for M in mods:
        for N in mods:
            if M.base != N.base:
                continue
            got = [h.map for h in hom_set(M, N)]
            assert got == brute_force_homs(M, N), (M.name, N.name)


@pytest.mark.parametrize("name", ["C5", "N4", "Z6"])
def test_hom_sets_match_oracle_on_quotients(name):
    """Every ordered pair of the regular module and its proper quotients."""
    S = {"C5": chain(5), "N4": truncated_naturals(4), "Z6": integers_mod(6)}[name]
    reg = regular_module(S)
    mods = [reg, *(quotient_by_congruence(reg, cong)
                   for cong in enumerate_module_congruences(reg) if cong.size < reg.size)]
    for M in mods:
        for N in mods:
            got = [h.map for h in hom_set(M, N)]
            assert got == brute_force_homs(M, N), (M.name, N.name)


def _inverse(mapping):
    inverse = [0] * len(mapping)
    for i, v in enumerate(mapping):
        inverse[v] = i
    return tuple(inverse)


@pytest.mark.parametrize("name", ["B2", "B2xB2", "Z3", "C5"])
def test_bijective_homs_of_catalogs_have_hom_inverses(name):
    """The hom search, `find_isomorphism` and `end_semiring` check no inverse:
    the inverse of a bijective hom between total tables is a hom.  Checked on
    every bijective hom between modules of the catalog (Z3 leniently)."""
    S = chain(5) if name == "C5" else fixtures.bundled_structure(name)
    mods = [e.module for e in cyclic_module_catalog(S, lenient=name == "Z3")]
    bijective = 0
    for M in mods:
        for N in mods:
            for f in hom_set(M, N):
                if f.is_bijective():
                    bijective += 1
                    assert hom_violation(N, M, _inverse(f.map)) is None, (M.name, f.map)
    assert bijective >= len(mods)


@pytest.mark.parametrize("name", ["C8", "B2^3", "B2xB2"])
def test_isomorphisms_of_relabelled_quotients_have_hom_inverses(name):
    """The quotients and relabellings of
    `test_iso_invariant_survives_relabelling`: the isomorphism found, and every
    bijective hom between a quotient and its relabelling, has a hom inverse."""
    b2xb2 = fixtures.bundled_structure("B2xB2")
    S = {"C8": chain(8), "B2xB2": b2xb2,
         "B2^3": product_structure(b2xb2, fixtures.bundled_structure("B2"), "B2^3")}[name]
    rng = random.Random(f"relabel-{name}")
    reg = regular_module(S)
    for cong in enumerate_module_congruences(reg):
        M = quotient_by_congruence(reg, cong)
        N, _ = relabelled(M, rng)
        iso = find_isomorphism(M, N)
        assert hom_violation(N, M, _inverse(iso.map)) is None, M.name
        for f in hom_set(M, N):
            if f.is_bijective():
                assert hom_violation(N, M, _inverse(f.map)) is None, (M.name, f.map)


def test_every_hom_passes_pointwise_recheck():
    mods = all_bundled_modules()
    for M in mods:
        for N in mods:
            if M.base != N.base:
                continue
            for h in hom_set(M, N):
                assert hom_violation(M, N, h.map) is None


def test_end_semiring_b2(b2_reg):
    rep = end_semiring(b2_reg)
    assert rep.size == 2 and rep.add_closed
    assert rep.simple and rep.schur_ok
    census = rep.census()
    assert census == {"size": 2, "bijective": 1, "nonzero": 1, "add_closed": True}


def test_end_semiring_not_simple_skips_schur(b2_t2):
    rep = end_semiring(b2_t2)
    assert not rep.schur_checked


def test_end_semiring_z3(z3_reg):
    # Only the identity survives the hom laws; doubling it is not an
    # endomorphism, so the pointwise-add table has a hole.
    rep = end_semiring(z3_reg, lenient=True)
    assert rep.census() == {"size": 1, "bijective": 1, "nonzero": 1,
                            "add_closed": False}
    assert rep.schur_checked and rep.schur_ok


def test_density_b2(b2_reg):
    rep = density_check(b2_reg)
    assert rep.ok
    assert rep.witnesses == ((1, 0, 0, 0, 0), (1, 1, 1, 0, 0))


def test_density_witnesses_reevaluate(b2_reg, z3_reg, b2xb2_reg):
    entries = [e.module for e in cyclic_module_catalog(b2_reg.base) if e.simple]
    entries += [z3_reg]
    for M in entries:
        anchor = M.base.unit if M.base.unit is not None else M.base.zero
        rep, act = density_check(M, anchor=anchor, lenient=True), nested_action(M)
        assert rep.ok
        for mm, nn, a, x, y in rep.witnesses:
            assert act[a][x][mm][y][rep.anchor] == nn


def test_density_preconditions(b2_zero, z3_reg):
    with pytest.raises(PreconditionError, match="not simple"):
        density_check(b2_zero)
    with pytest.raises(PreconditionError, match="anchor"):
        density_check(z3_reg, lenient=True)  # no unit and no anchor given


def test_density_rank2_census(b2_reg, z3_reg):
    # One nonzero element only: no distinct pairs to solve.
    rep = density_check(b2_reg, rank2=True)
    assert rep.rank2 == {"eligible": 0, "solvable": 0, "unsolvable": 0}
    # For the mod-3 action the simultaneous system forces n2 - n1 = 1 (mod 3),
    # so exactly a third of the target pairs are solvable.
    rep = density_check(z3_reg, anchor=0, rank2=True, lenient=True)
    assert rep.rank2 == {"eligible": 9, "solvable": 3, "unsolvable": 6}


def test_bourne_quotient_t2(b2_reg, b2_t2):
    Q, cong = bourne_quotient(b2_t2, frozenset({0, 1}))
    assert Q.size == 2 and cong.compatible
    assert cong.classes == ((0, 1), (2, 3))
    assert find_isomorphism(Q, b2_reg) is not None


def test_bourne_quotient_degenerate(b2_t2):
    by_zero, cong0 = bourne_quotient(b2_t2, frozenset({0}))
    assert by_zero.size == 4 and cong0.compatible
    assert find_isomorphism(by_zero, b2_t2) is not None
    by_all, conga = bourne_quotient(b2_t2, frozenset(range(4)))
    assert by_all.size == 1


def test_bourne_quotient_requires_submodule(b2_t2):
    with pytest.raises(PreconditionError):
        bourne_quotient(b2_t2, frozenset({0, 3, 2, 1}) - frozenset({0}))


def test_bundled_quotients_are_well_defined(b2, b2xb2):
    for S in (b2, b2xb2):
        reg = regular_module(S)
        for members in enumerate_submodules(reg):
            _, cong = bourne_quotient(reg, members)
            assert cong.compatible, (S.name, sorted(members))


def test_iso_theorem_suite(b2_reg, b2_t2):
    projection = ModuleHom(b2_t2, b2_reg, (0, 0, 1, 1), verified=True)
    first, second, third = iso_theorem_suite(
        first=projection,
        second=(b2_t2, frozenset({0, 2}), frozenset({0, 1})),
        third=(b2_t2, frozenset({0, 1}), frozenset({0})))
    assert first.holds
    assert first.details["kernel"] == [0, 1]
    assert first.details["image"] == [0, 1]
    assert second.holds and second.details["lhs_size"] == 2
    assert third.holds and third.details["lhs_size"] == 2


def test_catalog_b2(b2):
    catalog = cyclic_module_catalog(b2)
    assert [(e.module.size, e.simple) for e in catalog] == [(1, False), (2, True)]


def test_catalog_b2xb2(b2xb2):
    catalog = cyclic_module_catalog(b2xb2)
    simples = [e.module for e in catalog if e.simple]
    assert len(simples) == 2 and all(m.size == 2 for m in simples)
    assert find_isomorphism(simples[0], simples[1]) is None


def test_catalog_dedup_no_bijective_homs(b2, b2xb2):
    for S in (b2, b2xb2):
        catalog = cyclic_module_catalog(S)
        for a, b in itertools.combinations(catalog, 2):
            if a.module.size != b.module.size:
                continue
            bijections = [h for h in hom_set(a.module, b.module)
                          if h.is_bijective()]
            assert not bijections, (a.module.name, b.module.name)


def relabelled(M: GammaModule, rng: random.Random) -> tuple[GammaModule, tuple[int, ...]]:
    """M with its carrier permuted at random, and the permutation, which is
    an isomorphism onto the result."""
    perm = list(range(M.size))
    rng.shuffle(perm)
    old = sorted(range(M.size), key=perm.__getitem__)
    N = GammaModule(
        name=f"{M.name}-relabelled", base=M.base,
        carrier=tuple(M.carrier[i] for i in old), zero=perm[M.zero],
        madd=tuple(tuple(perm[M.madd[i][j]] for j in old) for i in old),
        columns=tuple(tuple(perm[col[i]] for i in old) for col in M.columns),
        column_of=M.column_of, m2_profile=M.m2_profile)
    return N, tuple(perm)


@pytest.mark.parametrize("name", ["C8", "B2^3", "B2xB2"])
def test_iso_invariant_survives_relabelling(name):
    """The catalog compares `_iso_invariant` hashes before it searches for an
    isomorphism, so isomorphic quotients must agree on the invariant."""
    b2xb2 = fixtures.bundled_structure("B2xB2")
    S = {"C8": chain(8), "B2xB2": b2xb2,
         "B2^3": product_structure(b2xb2, fixtures.bundled_structure("B2"), "B2^3")}[name]
    rng = random.Random(f"relabel-{name}")
    reg = regular_module(S)
    for cong in enumerate_module_congruences(reg):
        M = quotient_by_congruence(reg, cong)
        N, perm = relabelled(M, rng)
        assert hom_violation(M, N, perm) is None
        assert _iso_invariant(N) == _iso_invariant(M), M.name
        iso = find_isomorphism(M, N)
        assert iso is not None and iso.is_bijective(), M.name


def test_catalog_z3_lenient(z3):
    catalog = cyclic_module_catalog(z3, lenient=True)
    simples = [e for e in catalog if e.simple]
    assert len(simples) == 1 and simples[0].module.size == 3


def test_jacobson_radical(b2, z3, b2xb2, one_element):
    assert jacobson_radical(b2).ideal.key() == (0,)
    assert jacobson_radical(z3, lenient=True).ideal.key() == (0,)
    assert jacobson_radical(b2xb2).ideal.key() == (0,)
    # No simple modules at all: the radical is everything.
    one_report = jacobson_radical(one_element)
    assert one_report.ideal.members == frozenset(range(one_element.n))
    assert not one_report.simples_used
    assert one_report.note == "catalog-relative"


def test_direct_sum_matches_bundled_t2(b2_reg, b2_t2):
    built = direct_sum(b2_reg, b2_reg)
    assert built.madd == b2_t2.madd and action_rows(built) == action_rows(b2_t2)


def test_module_round_trip():
    for name in fixtures.MODULE_NAMES:
        M = fixtures.bundled_module(name)
        assert load_module(serialize_module(M), M.base) == M


def test_m2_nested_profile(b2, b2_reg):
    from dataclasses import replace
    nested = replace(b2_reg, m2_profile="nested")
    assert check_module_axioms(nested).passed

    # act(a,x,m,y,b) = m OR (a AND b) violates the nesting law.
    madd = b2_reg.madd
    cols = (tuple(int(bool(m) or (a and b)) for m in range(2)) for a, _, _, b in b2.quads)
    bad = GammaModule(name="bad-nested", base=b2, carrier=("0", "1"), zero=0,
                      madd=madd, columns=cols, column_of=range(len(b2.quads)),
                      m2_profile="nested")
    report = check_module_axioms(bad)
    assert any(v.law == "m2-nested" for v in report.violations)


def test_enumeration_budgets(b2_t2, monkeypatch):
    from tgw.core import BUDGETS, BudgetError
    monkeypatch.setitem(BUDGETS, "enum", 2)
    with pytest.raises(BudgetError):
        enumerate_submodules(b2_t2)
    monkeypatch.setitem(BUDGETS, "hom", 1)
    with pytest.raises(BudgetError):
        hom_set(b2_t2, b2_t2)


def test_congruence_simplicity_supplementary(b2_reg, b2xb2_reg, z3_reg):
    from tgw.modules import is_congruence_simple
    assert is_congruence_simple(b2_reg)
    assert is_congruence_simple(z3_reg)
    assert not is_congruence_simple(b2xb2_reg)
    entries = cyclic_module_catalog(b2_reg.base)
    flags = {e.module.size: e.congruence_simple for e in entries}
    assert flags == {1: False, 2: True}


def test_first_iso_instances_on_every_bundled_hom():
    # The subtraction-free quotient need not be isomorphic to the image for
    # every hom (e.g. OR of the two coordinates); the check must report such
    # failures rather than silently accepting them, and must agree with the
    # fiber-partition criterion in each direction.
    from tgw.modules import first_isomorphism_check
    mods = all_bundled_modules()
    seen_failure = False
    for M in mods:
        for N in mods:
            if M.base != N.base or M.base.unit is None:
                continue
            for f in hom_set(M, N):
                report = first_isomorphism_check(f)
                _, cong = bourne_quotient(M, frozenset(
                    m for m in range(M.size) if f.map[m] == N.zero))
                fibers_match = all(
                    (f.map[i] == f.map[j]) == (cong.class_of[i] == cong.class_of[j])
                    for i in range(M.size) for j in range(M.size))
                assert report.holds == fibers_match, (M.name, N.name, f.map)
                seen_failure = seen_failure or not report.holds
    assert seen_failure  # the OR-of-coordinates hom is a genuine non-instance


def test_commutativity_flag_respected(b2):
    from dataclasses import replace
    # A table that is not symmetric in the element slots: commutative=True
    # must flag it, commutative=False must accept it.
    tri = list(list(list(list(list(t4) for t4 in t3) for t3 in t2) for t2 in t1)
               for t1 in b2.tri)
    tri[1][0][0][0][1] = 1  # tri(1,g0,0,g0,1) = 1 breaks S3 symmetry (and absorption)
    twisted = replace(b2, tri=tuple(
        tuple(tuple(tuple(tuple(t4) for t4 in t3) for t3 in t2) for t2 in t1)
        for t1 in tri))
    from tgw.core import check_axioms
    report_comm = check_axioms(twisted)
    assert any(v.law == "tri-commutativity" for v in report_comm.violations)
    relaxed = replace(twisted, commutative=False)
    report_nc = check_axioms(relaxed)
    assert not any(v.law == "tri-commutativity" for v in report_nc.violations)


@settings(max_examples=120, deadline=None)
@given(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
                 st.integers(0, 1)))
def test_hom_predicate_matches_enumeration(mapping):
    M = fixtures.bundled_module("B2-T2")
    N = fixtures.bundled_module("B2-regular")
    enumerated = {h.map for h in hom_set(M, N)}
    assert (hom_violation(M, N, mapping) is None) == (mapping in enumerated)
