"""Free resolutions, tensor backends, Ext/Tor, adjunction, internal hom."""

from __future__ import annotations

import collections
import dataclasses
import random

import numpy as np
import pytest

from tgw import fixtures, homology
from tgw.cli import main
from tgw.core import (BUDGETS, BudgetError, PreconditionError, product_structure,
                      serialize_structure)
from tgw.homology import (HomActionError, HomModuleError, _smith_diagonal, _tensor_group,
                          _tensor_quotient, _tensor_relations, adjunction_check, ext1,
                          find_presentation_isomorphism, free_module,
                          free_resolution, hom_module, homological_semisimplicity,
                          internal_hom_ternary, make_presentation, tensor,
                          tensor_induced_map, tor1)
from tgw.ideals import enumerate_ideals
from tgw.modules import (GammaModule, annihilator, check_module_axioms,
                         cyclic_module_catalog, density_check, end_semiring,
                         enumerate_module_congruences, find_isomorphism, hom_set,
                         hom_violation, nested_action, regular_module, sub_module)

from conftest import (action_rows, all_bundled_modules, brute_force_presentation_isomorphism,
                      brute_force_tensor_idempotent, chain, forced,
                      full_state_tensor_saturation, integers_mod, loop_tensor_relations,
                      pairwise_homological_semisimplicity, patch_add, perturbed_t2,
                      staged_ext1, staged_free_resolution, staged_tor1, swapping_module,
                      tensor_idempotent, truncated_naturals, union_loop_tensor_saturation,
                      with_rows, zero_action_chain, zero_action_flat)


def test_free_module_rank1_is_regular(b2, b2_reg):
    free = free_module(b2, 1)
    assert free.size == 2
    assert find_isomorphism(free, b2_reg) is not None


def test_free_module_rank2_matches_t2(b2, b2_t2):
    free = free_module(b2, 2)
    assert (free.madd, free.columns, free.column_of) == (b2_t2.madd, b2_t2.columns,
                                                          b2_t2.column_of)


def test_free_module_requires_unit(z3):
    with pytest.raises(PreconditionError):
        free_module(z3, 1)


def test_free_module_budget(b2):
    with pytest.raises(BudgetError):
        free_module(b2, 20)


def test_free_module_built_once_and_charged_every_call(b2, monkeypatch):
    """One module per structure and rank, whose carrier is still charged on
    each call: a cached module does not get past a lowered limit."""
    free = free_module(b2, 2)
    assert free_module(b2, 2) is free
    monkeypatch.setitem(BUDGETS, "carrier", 1)
    with pytest.raises(BudgetError, match="carrier size = 4 exceeds the carrier limit 1$"):
        free_module(b2, 2)


@pytest.mark.parametrize("knob", sorted(BUDGETS))
def test_each_budget_names_its_limit(knob, b2, b2_reg, monkeypatch):
    """Lowering one limit makes its search raise a BudgetError that names the
    limit; with the limit restored the same search runs."""
    search = {"enum": lambda: enumerate_ideals(b2),
              "hom": lambda: hom_set(b2_reg, b2_reg),
              "partition": lambda: enumerate_module_congruences(b2_reg),
              "carrier": lambda: free_module(b2, 2),
              "state": lambda: forced(tensor, "saturation", b2_reg, b2_reg)}[knob]
    with monkeypatch.context() as mp:
        mp.setitem(BUDGETS, knob, 1)
        with pytest.raises(BudgetError, match=f"exceeds the {knob} limit 1$"):
            search()
    search()


def test_presentation_isomorphism_charges_hom(monkeypatch):
    """Each image tried for a generator is one search node charged to "hom":
    Z4 has the one generator 1, whose image 0 conflicts with the zero and
    whose image 1 completes the isomorphism, so the pair needs 2 nodes."""
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    relabel = (0, 2, 3, 1)
    twisted = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            twisted[relabel[i]][relabel[j]] = relabel[z4[i][j]]
    A = make_presentation("A", "abcd", "abcd", z4, 0)
    B = make_presentation("B", "abcd", "abcd", twisted, 0)
    monkeypatch.setitem(BUDGETS, "hom", 1)
    with pytest.raises(BudgetError, match="nodes = 2 exceeds the hom limit 1$"):
        find_presentation_isomorphism(A, B)
    monkeypatch.setitem(BUDGETS, "hom", 2)
    perm = find_presentation_isomorphism(A, B)
    assert perm is not None and perm[0] == 0
    assert all(perm[z4[i][j]] == twisted[perm[i]][perm[j]]
               for i in range(4) for j in range(4))


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
    a = tensor(b2_reg, b2_reg)
    b = forced(tensor, "saturation", b2_reg, b2_reg)
    assert (a.backend, b.backend) == ("idempotent", "saturation")
    assert b.presentation.to_dict()["approximate"] is False
    assert find_presentation_isomorphism(a.presentation, b.presentation) is not None


def test_tensor_backend_agreement_one_element(one_element):
    reg = regular_module(one_element)
    results = [forced(tensor, be, reg, reg) for be in ("idempotent", "group", "saturation")]
    assert [t.backend for t in results] == ["idempotent", "group", "saturation"]
    assert all(t.size == 1 and t.presentation.to_dict()["approximate"] is False
               for t in results)


def test_tensor_backend_agreement_two_element_field(f2):
    # Hand-derived: over the two-element field the regular self-tensor is the
    # order-2 cyclic group generated by 1⊗1.
    reg = regular_module(f2)
    g = tensor(reg, reg)
    s = forced(tensor, "saturation", reg, reg)
    assert (g.backend, s.backend) == ("group", "saturation")
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


def _dispatch_cases():
    b2_reg, b2_zero, z3_reg = map(fixtures.bundled_module, ("B2-regular", "B2-zero", "Z3-regular"))
    n3_reg = regular_module(truncated_naturals(3))
    z3_chain = zero_action_chain(z3_reg.base, 3)
    return {"B2-regular-squared": (b2_reg, b2_reg, "idempotent", 2),
            "B2-zero-B2-regular": (b2_zero, b2_reg, "idempotent", 1),
            "Z3-regular-squared": (z3_reg, z3_reg, "group", 1),
            "N3-regular-squared": (n3_reg, n3_reg, "saturation", 4),
            # An idempotent addition against a group one.
            "Z3-chain3-Z3-regular": (z3_chain, z3_reg, "saturation", 1),
            "Z3-regular-Z3-chain3": (z3_reg, z3_chain, "saturation", 1)}


DISPATCH_CASES = _dispatch_cases()


@pytest.mark.parametrize("M,N,backend,size", DISPATCH_CASES.values(), ids=DISPATCH_CASES)
def test_tensor_engine_follows_the_additions(M, N, backend, size):
    """The pair's additions alone pick the engine: idempotent when both are
    idempotent, else group when both are groups, else saturation."""
    t = tensor(M, N, lenient=True)
    assert (t.backend, t.size, t.module_action_ok) == (backend, size, True)


def _zero_not_identity_t2(b2_t2):
    """B2-T2 with (0,0)+(0,1) = (0,0): still idempotent, but the zero is no
    longer the additive identity, so class sums must not start from it."""
    madd = [list(r) for r in b2_t2.madd]
    madd[0][1] = madd[1][0] = 0
    return dataclasses.replace(b2_t2, name="B2-T2-zero-not-identity",
                               madd=tuple(map(tuple, madd)))


IDEMPOTENT_CASES = ["C3", "C4", "C5", "T2xT2", "regxT2", "perturbed", "regxperturbed",
                    "zero-not-identity", "swaps"]


def _idempotent_case(case, b2_reg, b2_t2):
    """The pair (M, N) of an idempotent oracle case, and whether it is
    lenient."""
    perturbed = perturbed_t2(b2_t2)
    odd_zero = _zero_not_identity_t2(b2_t2)
    assert check_module_axioms(perturbed).violations
    assert check_module_axioms(odd_zero).violations
    if case.startswith("C"):
        M = N = regular_module(chain(int(case[1:])))
    else:
        M, N = {"T2xT2": (b2_t2, b2_t2), "regxT2": (b2_reg, b2_t2),
                "perturbed": (perturbed, perturbed),
                "regxperturbed": (b2_reg, perturbed),
                "zero-not-identity": (odd_zero, odd_zero),
                # Lawful, with an ill-defined induced action.
                "swaps": (swapping_module(b2_reg.base),) * 2}[case]
    return M, N, case in ("perturbed", "regxperturbed", "zero-not-identity")


@pytest.mark.parametrize("case", IDEMPOTENT_CASES)
def test_idempotent_tensor_matches_oracle(case, b2_reg, b2_t2):
    M, N, lenient = _idempotent_case(case, b2_reg, b2_t2)
    new = tensor(M, N, lenient=lenient)
    old = brute_force_tensor_idempotent(M, N)
    assert new.backend == "idempotent"
    assert new.presentation.to_dict() == old.presentation.to_dict()
    assert new.gen_class.tolist() == old.gen_class
    assert (new.module.columns, new.module.column_of) == (old.module.columns,
                                                          old.module.column_of)
    assert new.module_action_ok == old.module_action_ok
    assert new.notes == old.notes
    assert new.rep_gens == old.members
    # Each loop relation is one generator on the left, one or two on the right.
    gens = {(m, n): m * N.size + n for m in range(M.size) for n in range(N.size)}
    rows = []
    for lhs, rhs in loop_tensor_relations(M, N)[0]:
        right = [gens[g] for g, c in rhs.items() for _ in range(c)]
        rows.append([*(gens[g] for g in lhs), right[0], right[1] if len(right) == 2 else -1])
    assert _tensor_relations(M, N)[0].tolist() == rows
    assert new.relations.tolist() == [list(r) for r in dict.fromkeys(map(tuple, rows))]


def _backend_pairs():
    bundled = all_bundled_modules()
    pairs = [(M, N) for M in bundled for N in bundled if M.base == N.base]
    for S in (chain(3), *map(integers_mod, range(2, 6))):
        pairs.append((regular_module(S),) * 2)
    return pairs


BACKEND_PAIRS = _backend_pairs()
# Six classes of Z2^2 ⊗ Z2^2 hold no single generator, so the group backend
# represents them by sums.  Its 16 classes would put it past the permutation
# oracle in the presentation pool below.  Z6 ⊗ Z6 runs the exact numbering,
# whose full-state oracle closes 117,649 states, and free_module(B2, 2) ⊗ B2-T2
# is an idempotent pair of two
# 4-element modules, one built and one bundled.
AGREEMENT_PAIRS = [*BACKEND_PAIRS, (free_module(integers_mod(2), 2),) * 2,
                   (regular_module(integers_mod(6)),) * 2,
                   (free_module(fixtures.bundled_structure("B2"), 2),
                    fixtures.bundled_module("B2-T2"))]


@pytest.mark.parametrize("M,N", AGREEMENT_PAIRS,
                         ids=[f"{M.name}-{N.name}" for M, N in AGREEMENT_PAIRS])
def test_exact_tensor_matches_other_backends(M, N):
    """The least-state numbering against the idempotent numbering or the group
    backend: the identity
    on generators induces a bijective monoid map between the two quotients."""
    exact = forced(tensor, "saturation", M, N, lenient=True)
    other = tensor(M, N, lenient=True)
    assert other.backend in ("idempotent", "group")
    assert exact.module_action_ok and exact.notes == ()
    gens = np.arange(M.size * N.size)
    assert tensor_induced_map(exact, exact, gens).well_defined
    ind = tensor_induced_map(exact, other, gens)
    assert ind.well_defined and ind.additive, ind.notes
    assert sorted(ind.classes) == list(range(other.size))
    assert all(ind.classes[c] == other.gen_class[g] for g, c in enumerate(exact.gen_class))
    assert ind.classes[exact.presentation.zero] == other.presentation.zero
    assert hom_violation(exact.module, other.module, ind.classes) is None


@pytest.mark.parametrize("M,N", AGREEMENT_PAIRS,
                         ids=[f"{M.name}-{N.name}" for M, N in AGREEMENT_PAIRS])
def test_tensor_quotient_matches_tensor(M, N):
    """On each engine that takes the pair, the quotient that Tor reads is the
    one `tensor` builds its induced module on, and `tensor`'s notes begin
    with the quotient's.  Its relations are the rows of `_tensor_relations`,
    each once, in the order of their first occurrence."""
    takes = {"idempotent": homology._is_idempotent, "group": homology._is_group,
             "saturation": lambda X: True}
    for backend, admits in takes.items():
        if not (admits(M) and admits(N)):
            continue
        full = forced(tensor, backend, M, N, lenient=True)
        quotient = forced(_tensor_quotient, backend, M, N, lenient=True)
        assert quotient.presentation.to_dict() == full.presentation.to_dict()
        assert quotient.gen_class.tolist() == full.gen_class.tolist()
        assert quotient.rep_gens == full.rep_gens
        assert quotient.relations.tolist() == full.relations.tolist()
        assert quotient.backend == full.backend == backend
        assert quotient.notes == full.notes[:len(quotient.notes)]
        rows = list(map(tuple, _tensor_relations(M, N)[0].tolist()))
        assert list(map(tuple, quotient.relations.tolist())) == list(dict.fromkeys(rows))


def addition_or_action_perturbations(S, count: int, seed: int):
    """`count` copies of the regular module of S, each with one to three
    entries replaced at random: addition entries in the even copies, action
    entries in the odd ones."""
    rng = random.Random(seed)
    reg = regular_module(S)
    for k in range(count):
        madd, images = [list(r) for r in reg.madd], [list(r) for r in action_rows(reg)]
        rows = images if k % 2 else madd
        for _ in range(rng.randint(1, 3)):
            rows[rng.randrange(reg.size)][rng.randrange(len(rows[0]))] = rng.randrange(reg.size)
        yield with_rows(reg, images, name=f"{reg.name}~{k}", madd=tuple(map(tuple, madd)))


def _group_modules():
    """Regular Z2-Z8, free Z2^2 and Z3^2, and seeded addition and action
    perturbations of regular Z3-Z5 that the group backend still takes."""
    lawful = [regular_module(integers_mod(n)) for n in range(2, 9)]
    lawful += [free_module(integers_mod(n), 2) for n in (2, 3)]
    perturbed = [M for n, count, seed in ((3, 84, 31), (4, 60, 37), (5, 28, 41))
                 for M in addition_or_action_perturbations(integers_mod(n), count, seed)
                 if homology._is_group(M)]
    return lawful, perturbed


def test_group_tensor_on_first_occurrences_matches_all_rows():
    """The group backend on each relation row once, where it first occurs,
    against the same backend on every row of `_tensor_relations`: the
    diagonalization follows the row order, and dropping the repeats leaves
    the classes, their numbering, representatives, labels and notes as they
    were."""
    lawful, perturbed = _group_modules()
    assert len(perturbed) >= 150
    for M in lawful + perturbed:
        q = _tensor_quotient(M, M, lenient=True)
        assert q.backend == "group"
        add_rows, zero, gen_class, rep_gens, labels, notes = _tensor_group(
            M, M, q.presentation.name, _tensor_relations(M, M)[0])
        assert q.presentation.add == tuple(map(tuple, add_rows))
        assert q.presentation.zero == zero
        assert q.gen_class.tolist() == gen_class.tolist()
        assert q.rep_gens == rep_gens
        assert list(q.presentation.reps) == labels
        assert q.notes == tuple(notes)


def _oracle_pairs():
    regular = [regular_module(S) for S in (*map(truncated_naturals, (2, 3, 4)),
                                           *map(integers_mod, (2, 3, 4, 5)),
                                           chain(3), chain(4))]
    n3 = regular_module(truncated_naturals(3))
    # A submodule of 3 elements against the regular module of 4: the states
    # run over the columns of the larger one, so the two orders take both
    # assignments of (A, B).
    sub = sub_module(n3, frozenset({0, 2, 3}))
    pairs = [(M, M) for M in regular] + [(n3, sub), (sub, n3)]
    pairs += [(M, M) for M in addition_or_action_perturbations(truncated_naturals(3), 16, 23)]
    pairs += [(M, M) for M in addition_or_action_perturbations(truncated_naturals(4), 6, 29)]
    return pairs


ORACLE_PAIRS = _oracle_pairs()


@pytest.mark.parametrize("M,N", ORACLE_PAIRS,
                         ids=[f"{M.name}-{N.name}" for M, N in ORACLE_PAIRS])
def test_exact_tensor_matches_union_loop(M, N, monkeypatch):
    """The least-state numbering against the union loop that the full-state
    closure replaced: the same presentation, classes, representatives,
    induced module and verdict."""
    def fields(t):
        return (t.presentation.to_dict(), t.gen_class.tolist(), t.rep_gens, t.notes,
                t.module.columns, t.module.column_of, t.module_action_ok)

    new = fields(forced(tensor, "saturation", M, N, lenient=True))
    # The oracle reads only its last argument, the distinct rows, in any order.
    monkeypatch.setattr(homology, "_tensor_reduced", lambda M, N, name, rels, idempotent:
                        union_loop_tensor_saturation(M, N, name, rels, rels))
    assert new == fields(forced(tensor, "saturation", M, N, lenient=True))


def _engine_pairs():
    """Every pair above, the idempotent oracle cases, regular C8 and B2^3,
    and the zero-action 5-chain and flat 6-element semilattice, whose 4
    generators make 4 kept columns, each tensored with itself, and the free
    B2-module of rank 3 with the zero-action 4-chain, whose fewer full
    states have more reduced ones, keyed by a test id."""
    b2_reg, b2_t2 = fixtures.bundled_module("B2-regular"), fixtures.bundled_module("B2-T2")
    b2 = b2_reg.base
    b2p3 = product_structure(fixtures.bundled_structure("B2xB2"), b2, "B2^3")
    pairs = [*ORACLE_PAIRS, *AGREEMENT_PAIRS,
             *(_idempotent_case(case, b2_reg, b2_t2)[:2] for case in IDEMPOTENT_CASES),
             *((regular_module(S),) * 2 for S in (chain(8), b2p3)),
             *((M,) * 2 for M in (zero_action_chain(b2, 5), zero_action_flat(b2, 6))),
             (free_module(b2, 3), zero_action_chain(b2, 4))]
    return {f"{M.name}-{N.name}": (M, N) for M, N in pairs}


ENGINE_PAIRS = _engine_pairs()

# The full-state oracle runs where the smaller full state space, (|A|+1)^|B|,
# is at most this many states: the same cases as under the state limit of
# 200,000 that its tests were written for, so their time stays put.
FULL_STATE_ORACLE_LIMIT = 200_000


def assert_quotient_matches(q, M, N, oracle):
    """The tensor quotient `q` of M and N equals the oracle's on the same
    relation rows, field by field."""
    add_rows, zero, gen_class, rep_gens, labels, notes = oracle(
        M, N, q.presentation.name, q.relations)
    assert q.presentation.add == tuple(map(tuple, add_rows))
    assert q.presentation.zero == zero
    assert q.gen_class.tolist() == list(gen_class)
    assert q.rep_gens == rep_gens
    assert list(q.presentation.reps) == labels
    assert q.notes == tuple(notes)


@pytest.mark.parametrize("M,N", ENGINE_PAIRS.values(), ids=ENGINE_PAIRS)
def test_reduced_engine_matches_full_state_oracles(M, N):
    """The quotient over reduced states, under each numbering that takes the
    pair, against the Horn closure on idempotent pairs, and against the
    closure of every full state, which the least-state numbering replaced,
    where `FULL_STATE_ORACLE_LIMIT` admits the full state space."""
    numberings = {"saturation": full_state_tensor_saturation}
    if homology._is_idempotent(M) and homology._is_idempotent(N):
        numberings["idempotent"] = tensor_idempotent
    if min((M.size + 1) ** N.size, (N.size + 1) ** M.size) > FULL_STATE_ORACLE_LIMIT:
        del numberings["saturation"]
    assert numberings
    for backend, oracle in numberings.items():
        assert_quotient_matches(forced(_tensor_quotient, backend, M, N, lenient=True),
                                M, N, oracle)


def test_wide_idempotent_pair_runs_the_reduced_engine_under_the_state_limit(b2, monkeypatch):
    """The zero-action 7-chain has 6 generators, none a sum of others, so its
    tensor square keeps 6 columns in either orientation: 8^6 = 262,144
    reduced states, within the default state limit.  The reduced engine
    takes it and agrees with the Horn closure: C(12, 6) = 924 classes, one
    per down-set of the 6 × 6 grid of nonzero pairs.  Below 8^6 states the
    same call raises a BudgetError naming the state limit."""
    M = zero_action_chain(b2, 7)
    assert not check_module_axioms(M).violations
    calls = []
    engine = homology._tensor_reduced
    monkeypatch.setattr(homology, "_tensor_reduced",
                        lambda *args, **kw: calls.append(args) or engine(*args, **kw))
    q = _tensor_quotient(M, M)
    assert len(calls) == 1 and q.presentation.size == 924
    assert_quotient_matches(q, M, M, tensor_idempotent)
    monkeypatch.setitem(BUDGETS, "state", 8 ** 6 - 1)
    with pytest.raises(BudgetError, match="states = 262144 exceeds the state limit 262143$"):
        _tensor_quotient(M, M)


def _relabelled_presentation(P, rng):
    """P with its classes renumbered by a seeded permutation."""
    perm = list(range(P.size))
    rng.shuffle(perm)
    add = [[0] * P.size for _ in range(P.size)]
    for i in range(P.size):
        for j in range(P.size):
            add[perm[i]][perm[j]] = perm[P.add[i][j]]
    return make_presentation(f"{P.name}~", P.classes, P.reps, add, perm[P.zero])


def _presentation_pool():
    """The distinct presentations of both backends over `BACKEND_PAIRS`, each
    with a seeded relabelling."""
    rng = random.Random("presentations")
    pool = {}
    for M, N in BACKEND_PAIRS:
        for t in (forced(tensor, "saturation", M, N, lenient=True), tensor(M, N, lenient=True)):
            P = t.presentation
            for Q in (P, _relabelled_presentation(P, rng)):
                pool.setdefault((Q.add, Q.zero), Q)
    return list(pool.values())


PRESENTATIONS = _presentation_pool()


@pytest.mark.parametrize("size", sorted({P.size for P in PRESENTATIONS}))
def test_presentation_isomorphism_matches_permutations(size):
    """Same verdict as trying every permutation, on every ordered pair of one
    size, and a zero-preserving bijection matching the tables when found.  The
    pairs hold relabellings and non-isomorphic monoids of one size: Z2, Z3 and
    Z4 against, in turn, the 2-element semilattice, C3 and the 4-element
    semilattices.
    Above 8 classes, out of the oracle's reach, every pair is isomorphic."""
    group = [P for P in PRESENTATIONS if P.size == size]
    verdicts = set()
    for A in group:
        for B in group:
            perm = find_presentation_isomorphism(A, B)
            expected = (brute_force_presentation_isomorphism(A, B) is not None
                        if size <= 8 else True)
            assert (perm is not None) == expected, (A.name, B.name)
            verdicts.add(expected)
            if perm is not None:
                assert sorted(perm) == list(range(size)) and perm[A.zero] == B.zero
                assert all(perm[A.add[i][j]] == B.add[perm[i]][perm[j]]
                           for i in range(size) for j in range(size))
    assert verdicts == ({True, False} if size in (2, 3, 4) else {True})


# More lawful inputs on which tor, ext and adjunction exit 0, split over the
# two cases below: Z/n takes the group backend, N4 the exact one.
CLI_EXTRAS = {2: [integers_mod(n) for n in range(2, 7)], 3: [truncated_naturals(4)]}


@pytest.mark.parametrize("k,size", [(2, 3), (3, 4)])
def test_exact_tensor_truncated_naturals(k, size, capsys, tmp_path):
    reg = regular_module(truncated_naturals(k))
    t = tensor(reg, reg)
    assert t.backend == "saturation"
    assert t.size == size and t.module_action_ok
    assert check_module_axioms(t.module).passed
    assert adjunction_check(reg, reg, reg).holds
    for S in (reg.base, *CLI_EXTRAS[k]):
        path = tmp_path / f"{S.name}.json"
        path.write_text(serialize_structure(S), encoding="utf-8")
        for command in ("tor", "ext", "adjunction"):
            assert main([command, str(path)]) == 0, (S.name, command)
        assert "bijection: Yes" in capsys.readouterr().out, S.name


def test_exact_tensor_folds_along_the_smaller_state_space():
    # Folding along the 9-element module would need 4^9 states.
    S = truncated_naturals(2)
    reg, free = regular_module(S), free_module(S, 2)
    for M, N in ((reg, free), (free, reg)):
        t = tensor(M, N)
        assert t.size == 9 and t.module_action_ok
        assert len(t.gen_class) == M.size * N.size
        # Each representative folds back to its own class.
        for c, rep in enumerate(t.rep_gens):
            total = t.gen_class[rep[0]]
            for g in rep[1:]:
                total = t.presentation.add[total][t.gen_class[g]]
            assert total == c
    assert adjunction_check(reg, free, reg).holds


@pytest.mark.parametrize("backend", ["idempotent", "saturation"])
def test_exact_tensor_flags_an_ill_defined_action(b2, backend):
    # Balance identifies (m, n) with (s m, s n) for each swap s, so the classes
    # of generators between atoms are the diagonal and the off-diagonal pairs;
    # (1 2) on the left sends the off-diagonal 1⊗2 to the diagonal 2⊗2 but
    # 1⊗3 to the off-diagonal 2⊗3.
    M = swapping_module(b2)
    assert check_module_axioms(M).passed
    t = forced(tensor, backend, M, M)
    exact = forced(tensor, "saturation", M, M)
    assert t.backend == backend
    assert not t.module_action_ok
    assert "induced action is not well-defined on a relation pair" in t.notes
    assert t.notes == exact.notes
    k = M.size
    assert t.gen_class[1 * k + 2] == t.gen_class[1 * k + 3] != t.gen_class[2 * k + 2]
    # The same partition of the generators, up to the class numbering.
    ours, theirs = t.gen_class.tolist(), exact.gen_class.tolist()
    assert len(set(zip(ours, theirs))) == len(set(ours)) == len(set(theirs))
    assert t.size == exact.size


def test_hom_set_open_under_the_action_is_a_verified_finding(b2):
    M = swapping_module(b2)
    with pytest.raises(HomActionError) as info:
        hom_module(M, M)
    homs = hom_set(M, M)
    a, x, y, b = info.value.quad
    act = nested_action(M)
    moved = tuple(act[a][x][v][y][b] for v in homs[info.value.hom].map)
    assert hom_violation(M, M, moved) is not None
    rep = adjunction_check(M, M, M)
    assert rep.rhs_size is None and not rep.holds
    assert rep.notes[-1] == str(info.value)


def test_hom_set_without_the_zero_map_is_a_verified_finding(z3_reg):
    # Z3, taken leniently, breaks tri-distributivity: the only endomorphism
    # of Z3-regular is the identity, not the zero map, so Hom carries no
    # module structure.
    assert [h.map for h in hom_set(z3_reg, z3_reg)] == [(0, 1, 2)]
    with pytest.raises(HomModuleError, match="the zero map is not a homomorphism"):
        hom_module(z3_reg, z3_reg)
    rep = adjunction_check(z3_reg, z3_reg, z3_reg, lenient=True)
    assert rep.rhs_size is None and not rep.holds
    assert rep.notes[-1].startswith("hom_module: the zero map")


def test_tensor_induced_map_identity(b2_reg):
    t = tensor(b2_reg, b2_reg)
    ind = tensor_induced_map(t, t, np.arange(b2_reg.size ** 2))
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


@pytest.mark.parametrize("S", [fixtures.bundled_structure("B2"),
                               fixtures.bundled_structure("B2xB2"), chain(4), chain(5),
                               integers_mod(4), truncated_naturals(4)],
                         ids=lambda S: S.name)
def test_homological_semisimplicity_matches_pairwise(S):
    catalog = cyclic_module_catalog(S)
    new = homological_semisimplicity(S, catalog)
    old = pairwise_homological_semisimplicity(S, catalog)
    assert new.to_dict() == old.to_dict() and new.pair_count == len(catalog) ** 2


def test_homological_semisimplicity_matches_pairwise_on_perturbed_adds():
    """120 bases, B2xB2 or C4 with one or two `patch_add` entries replaced at
    random, run leniently, catalog included.  Where the pairwise oracle raises,
    the new code raises the same error with the same text."""
    rng = random.Random(20)
    outcomes = collections.Counter()
    for _ in range(120):
        S = rng.choice((fixtures.bundled_structure("B2xB2"), chain(4)))
        for _ in range(rng.randint(1, 2)):
            S = patch_add(S, rng.randrange(S.n), rng.randrange(S.n), rng.randrange(S.n))
        try:
            old = pairwise_homological_semisimplicity(S, lenient=True)
        except (PreconditionError, BudgetError) as exc:
            with pytest.raises(type(exc)) as info:
                homological_semisimplicity(S, lenient=True)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
            outcomes[str(exc)] += 1
            continue
        new = homological_semisimplicity(S, lenient=True)
        assert new.to_dict() == old.to_dict() and new.pair_count == old.pair_count, S.add
        outcomes[f"ok={old.ok} consistent={old.consistent}"] += 1
    assert outcomes == {
        "ok=True consistent=True": 13, "ok=True consistent=False": 9,
        "ok=False consistent=False": 9,
        "free_resolution: kernel of the augmentation is not a submodule": 2,
        "free_resolution: kernel of d1 is not a submodule": 24,
        "ext1: a pulled-back boundary is missing from the enumerated hom set": 46,
        "ext1: the zero map P1 -> N is not a homomorphism": 11,
        "ext1: cycle monoid is not closed under pointwise addition": 5,
        "Ext1(C4-cyclic-q1,C4-regular): Bourne quotient addition is "
        "representative-dependent at classes (0,2)": 1}


def test_lenient_gates_compute_no_module_report(b2_t2):
    """Lenient callers go past the module-law gate without a law check; strict
    ones still stop at the first violation.  The catalog gates the regular
    module of its base, so it runs on Z3, whose regular module fails the laws;
    the others run on the perturbed B2-T2."""
    M = perturbed_t2(b2_t2)
    z3 = fixtures.bundled_structure("Z3")
    witness = "act-additivity-slot-m at witness (1, 0, 1, 2, 0, 1)"
    calls = {"free_resolution": lambda lenient: free_resolution(M.base, M, lenient=lenient),
             "ext1": lambda lenient: ext1(M.base, M, M, lenient=lenient),
             "cyclic_module_catalog": lambda lenient: cyclic_module_catalog(z3, lenient),
             "density_check": lambda lenient: density_check(M, lenient=lenient),
             "annihilator": lambda lenient: annihilator(M, lenient),
             "end_semiring": lambda lenient: end_semiring(M, lenient)}
    for op, call in calls.items():
        check_module_axioms.cache_clear()
        if op == "density_check":
            with pytest.raises(PreconditionError, match="^density_check: module is not simple$"):
                call(True)
        else:
            call(True)
        assert check_module_axioms.cache_info()[:2] == (0, 0), op
        with pytest.raises(PreconditionError) as info:
            call(False)
        gate = "free_resolution" if op == "ext1" else op
        fails = ("'Z3-regular' fails act-absorb-a at witness (0, 0, 0, 1)"
                 if op == "cyclic_module_catalog" else f"'B2-T2-perturbed' fails {witness}")
        assert str(info.value) == (f"{gate}: module {fails}; "
                                   "pass lenient=True to proceed anyway")


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


def action_perturbations(count: int, seed: int):
    """`count` modules, each B2-T2 or a regular module of B2xB2, C4, Z/4 or
    N4 with one or two action entries replaced at random; most of them break
    the module laws, so they are resolved leniently."""
    rng = random.Random(seed)
    bases = (fixtures.bundled_module("B2-T2"),
             *map(regular_module, (fixtures.bundled_structure("B2xB2"), chain(4),
                                   integers_mod(4), truncated_naturals(4))))
    for k in range(count):
        M = rng.choice(bases)
        images = [list(row) for row in action_rows(M)]
        for _ in range(rng.randint(1, 2)):
            images[rng.randrange(M.size)][rng.randrange(len(M.base.quads))] = \
                rng.randrange(M.size)
        yield with_rows(M, images, name=f"{M.name}~{k}")


def _staged_or_new(staged, new, *args):
    """Both results, or the error both raised: the same error, or a KeyError
    from the staged code and a PreconditionError from the new."""
    try:
        old = staged(*args, lenient=True)
    except KeyError:
        with pytest.raises(PreconditionError) as info:
            new(*args, lenient=True)
        return f"KeyError -> {info.value}", None
    except (PreconditionError, BudgetError) as exc:
        with pytest.raises(type(exc)) as info:
            new(*args, lenient=True)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return str(exc), None
    return old, new(*args, lenient=True)


def _resolution_fields(res):
    return (res.generators, res.ranks, res.p0, res.p1, res.p2,
            [(h.source, h.target, h.map) for h in (res.aug, res.d1, res.d2)],
            res.aug_surjective, res.exact_at_p0, res.exact_at_p1, res.notes)


def assert_homology_matches_staged(S, M, N, outcomes, with_tor=True):
    """Compare the resolution, Ext and Tor with the staged code, tallying each
    outcome; a Tor that matches where P2 is not P1 (so P2⊗N is a tensor of its
    own) is tallied a second time, as "tor1 ok, P2 is not P1"."""
    old, res = _staged_or_new(staged_free_resolution, free_resolution, S, M)
    if res is None:
        outcomes[old] += 1
    else:
        assert _resolution_fields(res) == _resolution_fields(old), M.name
        assert res.aug.verified == old.aug.verified
        for h in (res.aug, res.d1, res.d2):
            assert h.verified == (hom_violation(h.source, h.target, h.map) is None)
        outcomes.update(old.notes)
    old, new = _staged_or_new(staged_ext1, ext1, S, M, N)
    if new is None:
        outcomes[f"ext1: {old}"] += 1
    else:
        assert (new.ext1.to_dict(), new.ext0_size, new.hom_size, new.ext0_matches_hom,
                new.notes) == (old.ext1.to_dict(), old.ext0_size, old.hom_size,
                               old.ext0_matches_hom, old.notes), (M.name, N.name)
        outcomes["ext1 ok"] += 1
    if not with_tor:
        return
    old, new = _staged_or_new(staged_tor1, tor1, S, M, N)
    if new is None:
        outcomes[f"tor1: {old}"] += 1
    else:
        assert (new.tor1.to_dict(), new.tor0.to_dict(), new.tor0_matches_tensor,
                new.notes) == (old.tor1.to_dict(), old.tor0.to_dict(),
                               old.tor0_matches_tensor, old.notes), (M.name, N.name)
        outcomes["tor1 ok"] += 1
        if res.p2 is not res.p1:
            outcomes["tor1 ok, P2 is not P1"] += 1


def test_homology_matches_staged_on_bundled_pairs():
    outcomes = collections.Counter()
    mods = all_bundled_modules()
    for M in mods:
        for N in mods:
            if M.base == N.base:
                assert_homology_matches_staged(M.base, M, N, outcomes)
    unitless = "free_resolution: structure has no unit"
    assert outcomes == {"ext1 ok": 13, "tor1 ok": 13, unitless: 4,
                        f"ext1: {unitless}": 4, f"tor1: {unitless}": 4}


def test_homology_matches_staged_on_chain_quotients():
    """Every pair of cyclic modules over C3 and over C4.  Four of them, C3's q1
    and C4's q1, q2 and q3, resolve with ranks (1, 1, 0), so their P2 is not
    P1, and 28 of the 80 Tor pairs tensor P2 on its own."""
    outcomes = collections.Counter()
    for S in (chain(3), chain(4)):
        mods = [entry.module for entry in cyclic_module_catalog(S)]
        for M in mods:
            for N in mods:
                assert_homology_matches_staged(S, M, N, outcomes)
    assert outcomes == {"ext1 ok": 80, "tor1 ok": 80, "tor1 ok, P2 is not P1": 28}


def test_homology_matches_staged_on_perturbed_actions():
    """Self-pairs of 300 perturbed modules.  Where the staged Ext¹ failed with a
    KeyError (the zero map P1 -> N is no hom), the new one raises a
    PreconditionError.  Tor over N4 takes the exact tensor backend at about
    0.05 s a call, and the staged Tor as long; to keep the test near 7 s, Tor
    is compared on the first 30 of the 53 N4 modules."""
    outcomes, n4_tor = collections.Counter(), 0
    for M in action_perturbations(300, seed=19):
        with_tor = M.base.name != "N4" or n4_tor < 30
        n4_tor += M.base.name == "N4" and with_tor
        assert_homology_matches_staged(M.base, M, M, outcomes, with_tor)
    kernel = "free_resolution: kernel of the augmentation is not a submodule"
    assert outcomes == {"augmentation fails the homomorphism laws": 255,
                        "augmentation is not surjective": 118, kernel: 6,
                        "ext1 ok": 220, f"ext1: {kernel}": 6,
                        "ext1: KeyError -> ext1: the zero map P1 -> N is not a "
                        "homomorphism": 74,
                        "tor1 ok": 271, f"tor1: {kernel}": 6}
