"""Free resolutions, tensor backends, Ext/Tor, adjunction, internal hom."""

from __future__ import annotations

import dataclasses

import pytest

from tgw import fixtures
from tgw.core import BudgetError, PreconditionError
from tgw.homology import (_smith_diagonal, adjunction_check, ext1,
                          find_presentation_isomorphism, free_module,
                          free_resolution, homological_semisimplicity,
                          internal_hom_ternary, make_presentation, tensor,
                          tensor_induced_map, tor1)
from tgw.modules import (check_module_axioms, cyclic_module_catalog,
                         find_isomorphism, regular_module)

from conftest import brute_force_tensor_idempotent, chain


def test_free_module_rank1_is_regular(b2, b2_reg):
    free = free_module(b2, 1)
    assert free.size == 2
    assert find_isomorphism(free, b2_reg) is not None


def test_free_module_rank2_matches_t2(b2, b2_t2):
    free = free_module(b2, 2)
    assert free.madd == b2_t2.madd and free.act == b2_t2.act


def test_free_module_requires_unit(z3):
    with pytest.raises(PreconditionError):
        free_module(z3, 1)


def test_free_module_budget(b2):
    with pytest.raises(BudgetError):
        free_module(b2, 20)


def test_resolution_b2_regular(b2, b2_reg):
    res = free_resolution(b2, b2_reg)
    assert res.ranks == (1, 0, 0)
    assert res.aug.map == (0, 1)  # evaluation at the generator 1
    assert res.aug_surjective and res.aug.verified
    assert res.exact_at_p0 and res.exact_at_p1
    assert res.notes == ()


def test_resolution_b2_t2(b2, b2_t2):
    res = free_resolution(b2, b2_t2)
    assert res.ranks == (2, 0, 0)
    assert frozenset(i for i, v in enumerate(res.aug.map)
                     if v == b2_t2.zero) == frozenset({res.p0.zero})
    assert res.exact_at_p0 and res.exact_at_p1


def test_resolution_zero_module(b2, b2_zero):
    res = free_resolution(b2, b2_zero)
    assert res.ranks == (0, 0, 0)
    assert res.ranks[1] == res.ranks[0]
    assert res.aug_surjective


def test_resolution_exactness_all_unit_bearing_bundled():
    for name in fixtures.MODULE_NAMES:
        M = fixtures.bundled_module(name)
        if M.base.unit is None:
            continue
        res = free_resolution(M.base, M)
        assert res.aug_surjective, name
        assert res.exact_at_p0 and res.exact_at_p1, name
        # im d1 == ker(aug) and im d2 == ker d1, elementwise.
        ker0 = frozenset(i for i, v in enumerate(res.aug.map) if v == M.zero)
        assert frozenset(res.d1.map) == ker0
        ker1 = frozenset(i for i, v in enumerate(res.d1.map) if v == res.p0.zero)
        assert frozenset(res.d2.map) == ker1


def test_tensor_b2_regular_pair(b2_reg):
    t = tensor(b2_reg, b2_reg)
    assert t.backend == "idempotent"
    assert t.presentation.size == 2
    assert t.presentation.structure_tag == "cyclic-2"
    assert not t.presentation.approximate
    assert t.module_action_ok
    assert find_isomorphism(t.module, b2_reg) is not None
    assert len(t.presentation.relations) == 3
    assert any("act(" in r for r in t.presentation.relations)


def test_tensor_with_zero_module(b2_reg, b2_zero):
    t = tensor(b2_zero, b2_reg)
    assert t.presentation.is_trivial
    assert t.presentation.structure_tag == "trivial"


def test_tensor_backend_agreement_boolean(b2_reg):
    a = tensor(b2_reg, b2_reg, backend="idempotent")
    b = tensor(b2_reg, b2_reg, backend="saturation")
    assert not b.presentation.approximate
    assert find_presentation_isomorphism(a.presentation, b.presentation) is not None


def test_tensor_backend_agreement_one_element(one_element):
    reg = regular_module(one_element)
    results = [tensor(reg, reg, backend=be).presentation
               for be in ("idempotent", "group", "saturation")]
    assert all(p.size == 1 and not p.approximate for p in results)


def test_tensor_backend_agreement_two_element_field(f2):
    # Hand-derived: over the two-element field the regular self-tensor is the
    # order-2 cyclic group generated by 1⊗1.
    reg = regular_module(f2)
    g = tensor(reg, reg, backend="group")
    s = tensor(reg, reg, backend="saturation")
    assert g.presentation.size == 2
    assert g.presentation.structure_tag == "cyclic-2"
    assert not s.presentation.approximate
    assert find_presentation_isomorphism(g.presentation, s.presentation) is not None


def test_tensor_group_z3(z3_reg):
    # The balance relations collapse everything: u*(n-m)*(1⊗1) = 0 for all u,
    # m, n forces 1⊗1 = 0.
    t = tensor(z3_reg, z3_reg, lenient=True)
    assert t.backend == "group"
    assert t.presentation.is_trivial


def test_tensor_backend_gates(b2_reg, z3_reg):
    with pytest.raises(PreconditionError):
        tensor(b2_reg, b2_reg, backend="group")  # OR is not a group addition
    with pytest.raises(PreconditionError):
        tensor(z3_reg, z3_reg, backend="idempotent", lenient=True)


def _perturbed_t2(b2_t2):
    """B2-T2 with act(1,x,(1,1),x,1) sent to (0,1): a module-law violation."""
    act = [[[[list(r) for r in l3] for l3 in l2] for l2 in l1] for l1 in b2_t2.act]
    act[1][0][3][0][1] = 1
    frozen = tuple(tuple(tuple(tuple(tuple(r) for r in l3) for l3 in l2)
                         for l2 in l1) for l1 in act)
    return dataclasses.replace(b2_t2, name="B2-T2-perturbed", act=frozen)


def _zero_not_identity_t2(b2_t2):
    """B2-T2 with (0,0)+(0,1) = (0,0): still idempotent, but the zero is no
    longer the additive identity, so class sums must not start from it."""
    madd = [list(r) for r in b2_t2.madd]
    madd[0][1] = madd[1][0] = 0
    return dataclasses.replace(b2_t2, name="B2-T2-zero-not-identity",
                               madd=tuple(map(tuple, madd)))


@pytest.mark.parametrize("case", ["C3", "C4", "C5", "T2xT2", "regxT2",
                                  "perturbed", "regxperturbed",
                                  "zero-not-identity"])
def test_idempotent_tensor_matches_oracle(case, b2_reg, b2_t2):
    perturbed = _perturbed_t2(b2_t2)
    odd_zero = _zero_not_identity_t2(b2_t2)
    assert check_module_axioms(perturbed).violations
    assert check_module_axioms(odd_zero).violations
    if case.startswith("C"):
        M = N = regular_module(chain(int(case[1:])))
    else:
        M, N = {"T2xT2": (b2_t2, b2_t2), "regxT2": (b2_reg, b2_t2),
                "perturbed": (perturbed, perturbed),
                "regxperturbed": (b2_reg, perturbed),
                "zero-not-identity": (odd_zero, odd_zero)}[case]
    lenient = case in ("perturbed", "regxperturbed", "zero-not-identity")
    new = tensor(M, N, backend="idempotent", lenient=lenient)
    old = brute_force_tensor_idempotent(M, N)
    assert new.presentation.to_dict() == old.presentation.to_dict()
    assert new.gen_class == old.gen_class
    assert new.module.act == old.module.act
    assert new.module_action_ok == old.module_action_ok
    assert new.notes == old.notes
    gated = len(new.gen_class) <= 8
    assert gated == (case in ("regxT2", "regxperturbed"))
    assert ("induced action verified via module axiom check only"
            in new.notes) != gated
    for lhs, rhs in new.rel_pairs:
        assert new.eval_sum(lhs) == old.eval_sum(lhs)
        assert new.eval_sum(rhs) == old.eval_sum(rhs)
    for ci in range(new.size):
        assert new.rep_sum(ci) == old.rep_sum(ci)
        assert new.eval_sum(dict(new.rep_sum(ci))) == ci


def test_tensor_induced_map_identity(b2_reg):
    t = tensor(b2_reg, b2_reg)
    ind = tensor_induced_map(t, t, lambda g: g)
    assert ind.well_defined and ind.additive
    assert ind.classes == tuple(range(t.size))


def test_ext1_b2(b2, b2_reg):
    result = ext1(b2, b2_reg, b2_reg)
    assert result.ext1.is_trivial
    assert result.ext1.structure_tag == "trivial"
    assert result.ext0_size == result.hom_size == 2
    assert result.ext0_matches_hom


def test_ext1_zero_module(b2, b2_zero, b2_reg):
    assert ext1(b2, b2_zero, b2_reg).ext1.is_trivial


def test_ext1_b2xb2_catalog_pairs(b2xb2):
    catalog = cyclic_module_catalog(b2xb2)
    for a in catalog:
        for b in catalog:
            result = ext1(b2xb2, a.module, b.module)
            assert result.ext1.is_trivial, (a.module.name, b.module.name)
            assert result.ext0_matches_hom


def test_ext_requires_unit(z3, z3_reg):
    with pytest.raises(PreconditionError):
        ext1(z3, z3_reg, z3_reg, lenient=True)


def test_tor1_b2(b2, b2_reg):
    result = tor1(b2, b2_reg, b2_reg)
    assert result.tor1.is_trivial
    assert result.tor0_matches_tensor
    assert result.tor0.size == 2


def test_tor1_zero(b2, b2_zero, b2_reg):
    result = tor1(b2, b2_zero, b2_reg)
    assert result.tor1.is_trivial


def test_adjunction_b2(b2_reg):
    rep = adjunction_check(b2_reg, b2_reg, b2_reg)
    assert rep.lhs_size == rep.rhs_size == 2
    assert rep.holds


def test_adjunction_zero_factor(b2_reg, b2_zero):
    rep = adjunction_check(b2_reg, b2_zero, b2_reg)
    assert rep.lhs_size == rep.rhs_size == 1
    assert rep.holds


def test_adjunction_b2xb2(b2xb2_reg):
    rep = adjunction_check(b2xb2_reg, b2xb2_reg, b2xb2_reg)
    assert rep.sizes_equal and rep.holds
    assert rep.lhs_size == 4


def test_internal_hom_b2(b2_reg):
    rep = internal_hom_ternary(b2_reg)
    assert len(rep.homs) == 2 and rep.closed
    ident = next(k for k, h in enumerate(rep.homs) if h.map == (0, 1))
    zero = next(k for k, h in enumerate(rep.homs) if h.map == (0, 0))
    for x in range(2):
        for y in range(2):
            assert rep.table[(x, y, ident, ident, ident)] == ident
            assert rep.table[(x, y, zero, ident, ident)] == zero


def test_homological_semisimplicity(b2, b2xb2):
    for S in (b2, b2xb2):
        rep = homological_semisimplicity(S)
        assert rep.ok and rep.radical_zero and rep.consistent


def test_ext0_matches_hom_on_all_unit_bearing_pairs():
    mods = [fixtures.bundled_module(name) for name in fixtures.MODULE_NAMES]
    for M in mods:
        for N in mods:
            if M.base != N.base or M.base.unit is None:
                continue
            result = ext1(M.base, M, N)
            assert result.ext0_matches_hom, (M.name, N.name)


def test_adjunction_all_boolean_triples():
    names = ("B2-regular", "B2-T2", "B2-zero")
    mods = [fixtures.bundled_module(n) for n in names]
    for M in mods:
        for N in mods:
            for P in mods:
                rep = adjunction_check(M, N, P)
                assert rep.sizes_equal and rep.holds, (M.name, N.name, P.name)


def test_nonsplit_extension_detected(z4):
    # Lawful structure, not semiprimitive: the only simple cyclic module is
    # the mod-2 quotient, annihilated by {0,2}.  Hand computation: the cycle
    # monoid has two elements and the boundary submonoid only the zero map,
    # so the self-extensions form an order-2 cyclic monoid; same for Tor1.
    from tgw.core import check_axioms
    from tgw.modules import jacobson_radical
    assert check_axioms(z4).passed
    catalog = cyclic_module_catalog(z4)
    simples = [e.module for e in catalog if e.simple]
    assert len(simples) == 1 and simples[0].size == 2
    m2 = simples[0]
    assert jacobson_radical(z4, catalog).ideal.key() == (0, 2)
    ext = ext1(z4, m2, m2)
    assert ext.ext1.size == 2
    assert ext.ext1.structure_tag == "cyclic-2"
    assert ext.ext0_matches_hom
    tor = tor1(z4, m2, m2)
    assert tor.tor1.size == 2
    assert tor.tor0_matches_tensor
    rep = homological_semisimplicity(z4, catalog)
    assert not rep.ok and not rep.radical_zero
    assert rep.consistent and rep.witness is not None


def test_presentation_tags():
    mod3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    p = make_presentation("m3", ["a", "b", "c"], ["0", "1", "2"], mod3, 0)
    assert p.structure_tag == "cyclic-3"
    flat = make_presentation("t", ["z"], ["0"], [[0]], 0)
    assert flat.structure_tag == "trivial"
    klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    q = make_presentation("k4", list("abcd"), list("0123"), klein, 0)
    assert q.structure_tag == "monoid-4"


def test_smith_diagonal_known_cases():
    diag, _ = _smith_diagonal([[2, 0], [0, 3]], 2)
    assert sorted(d for d in diag if d) == [2, 3]
    diag, _ = _smith_diagonal([[6, 4]], 2)
    assert sorted(diag) == [0, 2]
    diag, _ = _smith_diagonal([[1, 0], [0, 1]], 2)
    assert diag == [1, 1]
    diag, _ = _smith_diagonal([], 3)
    assert diag == [0, 0, 0]
