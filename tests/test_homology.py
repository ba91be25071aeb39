"""Free resolutions, tensor backends, Ext/Tor, adjunction, internal hom."""

from __future__ import annotations

import dataclasses

import pytest

from tgw import fixtures
from tgw.cli import main
from tgw.core import BudgetError, PreconditionError, serialize_structure
from tgw.homology import (_smith_diagonal, adjunction_check, ext1,
                          find_presentation_isomorphism, free_module,
                          free_resolution, homological_semisimplicity,
                          internal_hom_ternary, make_presentation, tensor,
                          tensor_induced_map, tor1)
from tgw.modules import (GammaModule, act_from_images, check_module_axioms,
                         cyclic_module_catalog, find_isomorphism, hom_violation,
                         regular_module)

from conftest import (all_bundled_modules, brute_force_tensor_idempotent, chain,
                      integers_mod, truncated_naturals)


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
    assert t.presentation.to_dict()["approximate"] is False
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
    assert b.presentation.to_dict()["approximate"] is False
    assert find_presentation_isomorphism(a.presentation, b.presentation) is not None


def test_tensor_backend_agreement_one_element(one_element):
    reg = regular_module(one_element)
    results = [tensor(reg, reg, backend=be).presentation
               for be in ("idempotent", "group", "saturation")]
    assert all(p.size == 1 and p.to_dict()["approximate"] is False for p in results)


def test_tensor_backend_agreement_two_element_field(f2):
    # Hand-derived: over the two-element field the regular self-tensor is the
    # order-2 cyclic group generated by 1⊗1.
    reg = regular_module(f2)
    g = tensor(reg, reg, backend="group")
    s = tensor(reg, reg, backend="saturation")
    assert g.presentation.size == 2
    assert g.presentation.structure_tag == "cyclic-2"
    assert s.presentation.to_dict()["approximate"] is False
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


def _backend_pairs():
    bundled = all_bundled_modules()
    pairs = [(M, N) for M in bundled for N in bundled if M.base == N.base]
    for S in (chain(3), *map(integers_mod, range(2, 6))):
        pairs.append((regular_module(S),) * 2)
    return pairs


BACKEND_PAIRS = _backend_pairs()


@pytest.mark.parametrize("M,N", BACKEND_PAIRS,
                         ids=[f"{M.name}-{N.name}" for M, N in BACKEND_PAIRS])
def test_exact_tensor_matches_other_backends(M, N):
    """The exact backend against the idempotent or group backend: the identity
    on generators induces a bijective monoid map between the two quotients."""
    exact = tensor(M, N, backend="saturation", lenient=True)
    other = tensor(M, N, lenient=True)
    assert other.backend in ("idempotent", "group")
    assert exact.module_action_ok and exact.notes == ()
    for lhs, rhs in exact.rel_pairs:
        assert exact.eval_sum(lhs) == exact.eval_sum(rhs)
    ind = tensor_induced_map(exact, other, lambda g: g)
    assert ind.well_defined and ind.additive, ind.notes
    assert sorted(ind.classes) == list(range(other.size))
    assert all(ind.classes[c] == other.gen_class[g] for g, c in exact.gen_class.items())
    assert ind.classes[exact.presentation.zero] == other.presentation.zero
    if other.module is not None:
        assert hom_violation(exact.module, other.module, ind.classes) is None


@pytest.mark.parametrize("k,size", [(2, 3), (3, 4)])
def test_exact_tensor_truncated_naturals(k, size, capsys, tmp_path):
    reg = regular_module(truncated_naturals(k))
    t = tensor(reg, reg)
    assert t.backend == "saturation"
    assert t.size == size and t.module_action_ok
    assert check_module_axioms(t.module).passed
    assert adjunction_check(reg, reg, reg).holds
    path = tmp_path / f"N{k}.json"
    path.write_text(serialize_structure(reg.base), encoding="utf-8")
    for command in ("tor", "ext", "adjunction"):
        assert main([command, str(path)]) == 0, command
    assert "bijection: Yes" in capsys.readouterr().out


def test_exact_tensor_folds_along_the_smaller_state_space():
    # Folding along the 9-element module would need 4^9 states.
    S = truncated_naturals(2)
    reg, free = regular_module(S), free_module(S, 2)
    for M, N in ((reg, free), (free, reg)):
        t = tensor(M, N)
        assert t.size == 9 and t.module_action_ok
        assert set(t.gen_class) == {(m, n) for m in range(M.size) for n in range(N.size)}
        for g, c in t.gen_class.items():
            assert t.eval_sum(dict(t.rep_sum(c))) == c == t.eval_sum({g: 1})
    assert adjunction_check(reg, free, reg).holds


def _swapping_module(b2):
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
                       madd=madd, act=act_from_images(b2, rows))


def test_exact_tensor_flags_an_ill_defined_action(b2):
    # Balance identifies (m, n) with (s m, s n) for each swap s, so the classes
    # of generators between atoms are the diagonal and the off-diagonal pairs;
    # (1 2) on the left sends the off-diagonal 1⊗2 to the diagonal 2⊗2 but
    # 1⊗3 to the off-diagonal 2⊗3.
    M = _swapping_module(b2)
    assert check_module_axioms(M).passed
    t = tensor(M, M, backend="saturation")
    assert not t.module_action_ok
    assert "induced action is not well-defined on a class" in t.notes
    assert t.gen_class[(1, 2)] == t.gen_class[(1, 3)] != t.gen_class[(2, 2)]


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
