"""Ideal lattice, primes, Zariski identities, localization, Gelfand map."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_force_ideals, chain, grid_fraction_classes, grid_sum_classes,
                      loop_is_prime, loop_localize, loop_product_span)
from tgw import fixtures
from tgw.cli import main
from tgw.core import (PreconditionError, check_axioms, product_structure,
                      serialize_structure, structure_from_dict, structure_to_dict,
                      table_arrays)
from tgw.ideals import (IdealSet, _fraction_classes, _product_span, _sum_classes,
                        enumerate_ideals, gelfand_injectivity,
                        ideal_closure, is_ideal_subset, is_prime, localize,
                        spectrum, zariski_report)
from tgw.modules import _ideal_module, annihilator, jacobson_radical, regular_module


def keys(ideals):
    return [i.key() for i in ideals]


def test_ideal_closure_examples(b2, b2xb2):
    assert ideal_closure(b2, {1}).key() == (0, 1)
    assert ideal_closure(b2, set()).key() == (0,)
    # (1,0) has index 2 in the (0,0),(0,1),(1,0),(1,1) ordering.
    assert ideal_closure(b2xb2, {2}).key() == (0, 2)


def test_closure_is_closure_operator(b2xb2):
    S = b2xb2
    subsets = [frozenset(c) for r in range(S.n + 1)
               for c in itertools.combinations(range(S.n), r)]
    oracle = [frozenset(k) for k in brute_force_ideals(S)]
    for seed in subsets:
        closed = ideal_closure(S, seed).members
        assert seed <= closed
        assert ideal_closure(S, closed).members == closed
        # Least ideal containing the seed.
        assert closed == min((i for i in oracle if seed <= i), key=len)
    for small in subsets:
        for big in subsets:
            if small <= big:
                assert ideal_closure(S, small).members <= \
                    ideal_closure(S, big).members


def test_enumerate_matches_brute_force(b2, z3, b2xb2, one_element):
    b2_cubed = product_structure(product_structure(b2, b2, "B2^2"), b2, "B2^3")
    for S, lenient in ((b2, False), (z3, True), (b2xb2, False),
                       (one_element, False), (chain(5), False),
                       (chain(6), False), (b2_cubed, False)):
        assert keys(enumerate_ideals(S, lenient=lenient)) == brute_force_ideals(S)


def test_enumerate_expected_values(b2, z3, b2xb2):
    assert keys(enumerate_ideals(b2)) == [(0,), (0, 1)]
    assert keys(enumerate_ideals(b2xb2)) == [(0,), (0, 1), (0, 2), (0, 1, 2, 3)]
    # The zero singleton is not absorbing under the mod-3 product, so the
    # whole carrier is the only ideal.
    assert keys(enumerate_ideals(z3, lenient=True)) == [(0, 1, 2)]


def three_slot_ideals(S):
    """All-subsets filter: the subsets that hold the zero, are closed under
    addition, and hold tri(a, x, b, y, c) whenever a, b or c is a member."""
    out = []
    for r in range(S.n + 1):
        for members in map(frozenset, itertools.combinations(range(S.n), r)):
            if S.zero in members and all(S.add[i][j] in members
                                         for i in members for j in members) and all(
                    S.tri[a][x][b][y][c] in members
                    for a, x, b, y, c in itertools.product(range(S.n), range(S.g), range(S.n),
                                                           range(S.g), range(S.n))
                    if {a, b, c} & members):
                out.append(tuple(sorted(members)))
    return sorted(out, key=lambda t: (len(t), t))


def middle_slot_structure(b2xb2):
    """B2xB2 declared non-commutative, with every tri(a, g0, b, g0, c) set to
    tri(a, g0, b, g0, unit): absorbing in the middle slot is no longer
    absorbing in the outer ones."""
    u = b2xb2.unit
    tri = tuple(tuple(tuple(tuple(tuple(t_axby[u] if x == y == 0 else v for v in t_axby)
                                  for y, t_axby in enumerate(t_axb))
                            for t_axb in t_ax) for x, t_ax in enumerate(t_a))
                for t_a in b2xb2.tri)
    return replace(b2xb2, name="B2xB2-mid", tri=tri, commutative=False)


def test_non_commutative_ideals_absorb_in_every_slot(b2xb2, capsys, tmp_path):
    S = middle_slot_structure(b2xb2)
    oracle = three_slot_ideals(S)
    # The middle slot alone kept {(0,0)}, {(0,0),(0,1)} and {(0,0),(1,0)}.
    assert oracle == [(0, 1, 2, 3)]
    assert keys(enumerate_ideals(S, lenient=True)) == oracle
    subsets = [frozenset(c) for r in range(S.n + 1)
               for c in itertools.combinations(range(S.n), r)]
    for seed in subsets:
        assert is_ideal_subset(S, seed) == (tuple(sorted(seed)) in oracle)
        assert ideal_closure(S, seed).key() == min(
            (i for i in oracle if seed <= set(i)), key=len)
    # The annihilator and the radical flag their ideals by the same test.
    assert annihilator(regular_module(S), lenient=True).members == {0}
    assert not annihilator(regular_module(S), lenient=True).is_ideal
    assert not jacobson_radical(S, lenient=True).ideal.is_ideal
    path = tmp_path / "mid.json"
    path.write_text(serialize_structure(S), encoding="utf-8")
    assert main(["ideals", str(path), "--lenient"]) == 0
    assert capsys.readouterr().out.endswith(
        "B2xB2-mid: 1 ideal(s)\n  {(0,0),(0,1),(1,0),(1,1)}\n")


def test_false_commutativity_claim_takes_three_slot_ideals(b2xb2):
    # Declared tri-commutative, but the axiom check finds that it fails: the
    # ideals must still absorb in all three slots.
    S = replace(middle_slot_structure(b2xb2), commutative=True)
    assert "tri-commutativity" in {v.law for v in check_axioms(S).violations}
    assert keys(enumerate_ideals(S, lenient=True)) == three_slot_ideals(S) == [(0, 1, 2, 3)]
    assert [is_ideal_subset(S, {0, k}) for k in (1, 2)] == [False, False]


def test_z3_requires_lenient(z3):
    with pytest.raises(PreconditionError):
        enumerate_ideals(z3)


def test_is_prime_examples(b2, b2xb2):
    assert is_prime(b2, IdealSet(frozenset({0})))
    assert not is_prime(b2xb2, IdealSet(frozenset({0})))
    assert is_prime(b2xb2, IdealSet(frozenset({0, 1})))
    assert is_prime(b2xb2, IdealSet(frozenset({0, 2})))


def test_is_prime_preconditions(b2, b2xb2):
    with pytest.raises(PreconditionError):
        is_prime(b2xb2, IdealSet(frozenset({0, 3})))  # not an ideal
    with pytest.raises(PreconditionError):
        is_prime(b2, IdealSet(frozenset({0, 1})))  # improper


def test_spectrum_points(b2, b2xb2):
    assert [p.key() for p in spectrum(b2).points] == [(0,)]
    spc = spectrum(b2xb2)
    assert [p.key() for p in spc.points] == [(0, 1), (0, 2)]
    assert all(p.is_maximal for p in spc.points)
    # V(zero ideal) is everything, V(T) is empty.
    assert spc.closed_sets[(0,)] == (0, 1)
    assert spc.closed_sets[(0, 1, 2, 3)] == ()


def test_zariski_identities(b2, b2xb2):
    for S in (b2, b2xb2):
        report = zariski_report(S, spectrum(S))
        assert report.passed, report.to_dict()


def test_v_is_inclusion_reversing(b2xb2):
    spc = spectrum(b2xb2)
    for I in spc.ideals:
        for J in spc.ideals:
            if I.members <= J.members:
                assert set(spc.closed_sets[J.key()]) <= set(spc.closed_sets[I.key()])


def test_localize_b2(b2):
    loc = localize(b2, spectrum(b2).points[0])
    assert len(loc.classes) == 2
    assert loc.well_defined and not loc.failures
    assert sorted(loc.maximal_ideal) == [0]
    # The induced structure is the Boolean structure again.
    assert check_axioms(loc.structure).passed
    assert loc.structure.add == b2.add
    assert loc.structure.tri == b2.tri
    assert loc.structure.unit is not None


def test_localize_b2xb2_collapses_component(b2xb2):
    spc = spectrum(b2xb2)
    p = spc.points[0]  # {(0,0),(0,1)}
    loc = localize(b2xb2, p)
    assert len(loc.classes) == 2
    assert loc.well_defined and not loc.failures
    # Fractions whose numerators differ only in the collapsed component agree.
    assert loc.class_of[(0, 3)] == loc.class_of[(1, 3)]
    assert loc.class_of[(2, 3)] == loc.class_of[(3, 3)]
    assert sorted(loc.maximal_ideal) == [0]


def test_zero_fraction_lies_in_maximal_ideal(b2, b2xb2):
    for S in (b2, b2xb2):
        for p in spectrum(S).points:
            loc = localize(S, p)
            for s in range(S.n):
                if s not in p.members:
                    assert loc.class_of[(S.zero, s)] in loc.maximal_ideal


def test_localization_random_representative_repicks(b2xb2):
    S = b2xb2
    rng = random.Random(99)
    for p in spectrum(S).points:
        loc = localize(S, p)
        denoms = [s for s in range(S.n) if s not in p.members]
        params = [(x, y) for x in range(S.g) for y in range(S.g)]
        for _ in range(1000):
            ci = rng.randrange(len(loc.classes))
            cj = rng.randrange(len(loc.classes))
            a, s = rng.choice(loc.classes[ci])
            b, t = rng.choice(loc.classes[cj])
            u = rng.choice(denoms)
            x, y = rng.choice(params)
            den = S.tri[s][x][t][y][u]
            if den in p.members:
                continue
            num = S.add[S.tri[a][x][t][y][u]][S.tri[b][x][s][y][u]]
            assert loc.class_of[(num, den)] == loc.structure.add[ci][cj]


def test_localize_rejects_non_prime(b2xb2):
    with pytest.raises(PreconditionError):
        localize(b2xb2, IdealSet(frozenset({0})))


def test_tables_are_built_once_per_structure():
    """The spectrum of C12 and its localizations at all 11 primes read one
    array form of its tables, which refuses writes."""
    S = chain(12)
    table_arrays.cache_clear()
    points = spectrum(S).points
    assert len(points) == 11
    for P in points:
        localize(S, P)
    assert table_arrays.cache_info().misses == 1
    for table in table_arrays(S):
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1


def test_ideal_module_is_built_once_per_structure(monkeypatch):
    """C8 declared non-commutative takes the three-slot ideal module: the
    spectrum and its Zariski report build it once, and give what the uncached
    builder gives, and what C8 as declared gives."""
    S = replace(chain(8), commutative=False)

    def spec(X):
        spc = spectrum(X)
        return spc.to_dict(X), zariski_report(X, spc).to_dict()
    _ideal_module.cache_clear()
    got = spec(S)
    assert _ideal_module.cache_info().misses == 1
    monkeypatch.setattr("tgw.ideals._ideal_module", _ideal_module.__wrapped__)
    assert spec(S) == got == spec(chain(8))


def test_gelfand(b2, b2xb2, z3, one_element):
    assert gelfand_injectivity(b2, spectrum(b2)).injective
    assert gelfand_injectivity(b2xb2, spectrum(b2xb2)).injective
    one_report = gelfand_injectivity(one_element, spectrum(one_element))
    assert one_report.injective and one_report.vacuous
    with pytest.raises(PreconditionError, match="no unit"):
        gelfand_injectivity(z3, spectrum(z3, lenient=True), lenient=True)


def test_localization_inverses_match_maximal_ideal(b2, b2xb2):
    # Locality: the non-invertible classes are exactly the maximal ideal.
    for S in (b2, b2xb2):
        for p in spectrum(S).points:
            loc = localize(S, p)
            L = loc.structure
            invertible = set()
            for ci in range(L.n):
                if any(L.tri[ci][x][cj][y][L.unit] == L.unit
                       for cj in range(L.n)
                       for x in range(L.g) for y in range(L.g)):
                    invertible.add(ci)
            assert set(range(L.n)) - invertible == set(loc.maximal_ideal)


@settings(max_examples=80, deadline=None)
@given(st.sets(st.integers(0, 3)))
def test_is_ideal_matches_oracle(members):
    S = fixtures.bundled_structure("B2xB2")
    oracle = set(brute_force_ideals(S))
    assert is_ideal_subset(S, frozenset(members)) == \
        (tuple(sorted(members)) in oracle)


def b2_cubed():
    b2 = fixtures.bundled_structure("B2")
    return product_structure(product_structure(b2, b2, "B2^2"), b2, "B2^3")


def assert_same_localization(S, P, lenient=False):
    """`localize` agrees with the loop it replaced on every output."""
    fast, loop = localize(S, P, lenient=lenient), loop_localize(S, P, lenient=lenient)
    assert fast.classes == loop.classes
    assert fast.class_of == loop.class_of
    assert fast.structure.add == loop.structure.add
    assert fast.structure.tri == loop.structure.tri
    assert fast.structure == loop.structure
    assert fast.well_defined == loop.well_defined
    assert fast.failures == loop.failures
    assert (fast.maximal_ideal, fast.lenient) == (loop.maximal_ideal, loop.lenient)
    return fast


def tri_perturbations(S):
    """S with one tri entry replaced by each other element, entry by entry."""
    for a, x, b, y, c in itertools.product(range(S.n), range(S.g), range(S.n),
                                           range(S.g), range(S.n)):
        for v in range(S.n):
            if v != S.tri[a][x][b][y][c]:
                data = structure_to_dict(S)
                data["tri"][a][x][b][y][c] = S.elements[v]
                yield structure_from_dict(data)


@pytest.mark.parametrize("make", [lambda: chain(5), lambda: chain(8), lambda: chain(12),
                                  b2_cubed, lambda: fixtures.bundled_structure("B2"),
                                  lambda: fixtures.bundled_structure("B2xB2")],
                         ids=["C5", "C8", "C12", "B2^3", "B2", "B2xB2"])
def test_grid_localize_and_is_prime_match_loops(make):
    S = make()
    spc = spectrum(S)
    for ideal in spc.ideals:
        if len(ideal.members) < S.n:
            assert is_prime(S, ideal) == loop_is_prime(S, ideal)
    assert spc.points
    for P in spc.points:
        assert_same_localization(S, P)


def test_grid_localize_matches_loop_on_perturbed_c4():
    """Every single-entry tri perturbation of C4, leniently, at every prime;
    then those of B2xB2 at tri(unit, x, unit, y, c)."""
    b2xb2 = fixtures.bundled_structure("B2xB2")
    u = b2xb2.unit
    unit_rows = [S for S in tri_perturbations(b2xb2)
                 if any(S.tri[u][x][u] != b2xb2.tri[u][x][u] for x in range(S.g))]
    for perturbations, counts, kinds in (
            # 244 localizations of 192 structures, 42 of them ill defined.
            # 180 of the structures fail tri-commutativity, so their ideals
            # absorb in all three slots; before that was checked, 370
            # localizations ran, at subsets that were not all ideals.
            (tri_perturbations(chain(4)), (244, 42), {"add:", "tri:"}),
            # 64 localizations of 48 structures, all well defined; some mix
            # classes across the prime or are not local.
            (unit_rows, (64, 0), {"classes", "locality:"})):
        failures, localizations, ill_defined = set(), 0, 0
        for S in perturbations:
            spc = spectrum(S, lenient=True)
            for ideal in spc.ideals:
                if len(ideal.members) < S.n:
                    assert is_prime(S, ideal) == loop_is_prime(S, ideal)
            for P in spc.points:
                loc = assert_same_localization(S, P, lenient=True)
                localizations += 1
                ill_defined += not loc.well_defined
                failures.update(f.split(" ")[0] for f in loc.failures)
        assert (localizations, ill_defined, failures) == (*counts, kinds)


def kernel_case(rng, n, g, size=None):
    """Random `_fraction_classes` and `_sum_classes` inputs: tri and add
    tables over n elements and g parameters, whose entries take a random
    number of values (few values link many fractions), `size` denominators
    (a random number if None), the fractions over them in a random order,
    and a random cid that is -1 at some entries."""
    values = int(rng.integers(1, n + 1))
    tri = rng.integers(0, values, (n, g, n, g, n)).astype(np.uint8)
    add = rng.integers(0, n, (n, n)).astype(np.uint8)
    outside = np.zeros(n, dtype=bool)
    outside[rng.choice(n, size=size or int(rng.integers(1, n + 1)), replace=False)] = True
    denoms = np.flatnonzero(outside)
    order = rng.permutation(n * len(denoms))
    nums, dens = np.repeat(np.arange(n), len(denoms))[order], np.tile(denoms, n)[order]
    cid = rng.integers(-1, len(nums), (n, n)).astype(np.min_scalar_type(-n * n))
    return tri, add, cid, outside, nums, dens


KERNEL_CASES = {
    "g1": lambda rng: kernel_case(rng, int(rng.integers(1, 9)), 1),
    # Few denominators, or nearly every pair of fractions links at some (u, x, y).
    "g2": lambda rng: kernel_case(rng, int(rng.integers(2, 9)), 2, size=int(rng.integers(1, 3))),
    "one-denominator": lambda rng: kernel_case(rng, int(rng.integers(1, 9)),
                                               int(rng.integers(1, 3)), size=1),
}


def assert_kernels_match_grids(tri, add, cid, outside, nums, dens):
    """`_fraction_classes` and `_sum_classes` give what the fraction-pair
    grids they replaced give, values and dtype; returns the classes."""
    denoms = np.flatnonzero(outside)
    classes = _fraction_classes(tri, denoms, nums, dens)
    assert classes == grid_fraction_classes(tri, denoms, nums, dens)
    fast, grid = (f(tri, add, cid, outside, nums, dens) for f in (_sum_classes, grid_sum_classes))
    assert fast.dtype == grid.dtype
    assert np.array_equal(fast, grid)
    return classes


@pytest.mark.parametrize("kind", list(KERNEL_CASES))
def test_fraction_and_sum_kernels_match_grids_on_random_tables(kind):
    """On 100 seeded random tables of each kind, with fractions in a random
    order; some tables give several classes, not all of them singletons."""
    rng = np.random.default_rng(sorted(KERNEL_CASES).index(kind))
    sizes = set()
    for _ in range(100):
        tri, add, cid, outside, nums, dens = KERNEL_CASES[kind](rng)
        if kind == "one-denominator":
            assert outside.sum() == 1
        classes = assert_kernels_match_grids(tri, add, cid, outside, nums, dens)
        sizes.add((len(classes) == 1, len(classes) == len(nums)))
    assert (False, False) in sizes


def test_fraction_and_sum_kernels_match_grids_on_perturbed_tables():
    """At every prime of the lenient perturbations of
    `test_grid_localize_matches_loop_on_perturbed_c4` (C4 with g = 1, and
    B2xB2's unit rows with g = 2), on the inputs that `localize` builds: the
    fractions in sorted order, then class by class with their cid."""
    b2xb2 = fixtures.bundled_structure("B2xB2")
    u = b2xb2.unit
    unit_rows = [S for S in tri_perturbations(b2xb2)
                 if any(S.tri[u][x][u] != b2xb2.tri[u][x][u] for x in range(S.g))]
    for perturbations, count in ((tri_perturbations(chain(4)), 244), (unit_rows, 64)):
        seen = 0
        for S in perturbations:
            n, (add, tri) = S.n, table_arrays(S)
            for P in spectrum(S, lenient=True).points:
                outside = np.ones(n, dtype=bool)
                outside[list(P.members)] = False
                denoms = np.flatnonzero(outside)
                nums, dens = np.repeat(np.arange(n), len(denoms)), np.tile(denoms, n)
                classes = grid_fraction_classes(tri, denoms, nums, dens)
                order = np.concatenate(classes)
                cid = np.full((n, n), -1, dtype=np.min_scalar_type(-n * n))
                cid[nums[order], dens[order]] = np.repeat(np.arange(len(classes)),
                                                          [len(c) for c in classes])
                assert_kernels_match_grids(tri, add, cid, outside, nums, dens)
                assert_kernels_match_grids(tri, add, cid, outside, nums[order], dens[order])
                seen += 1
        assert seen == count


def span_case(rng, n, g, singletons=False, distinct=False, pool=None,
              all_denoms=False, classes=None):
    """Random `_product_span` inputs: a tri table over n elements and g
    parameters (with pairwise distinct rows if `distinct`, or rows drawn
    from `pool` random ones), the fractions over a random set of
    denominators (every element if `all_denoms`; else a product can land on
    a fraction outside them, whose cid is -1), and a random cut of the
    shuffled fractions into `classes` blocks."""
    itype = np.min_scalar_type(-n * n)
    if distinct:
        codes = rng.choice(n ** n, size=n * n * g * g, replace=False)
        tri = codes[:, None] // n ** np.arange(n) % n
    elif pool:
        tri = rng.integers(0, n, (pool, n))[rng.integers(0, pool, n * n * g * g)]
    else:
        tri = rng.integers(0, n, n ** 3 * g * g)
    tri = tri.reshape(n, g, n, g, n).astype(itype)
    size = n if all_denoms else int(rng.integers(1, n + 1))
    denoms = np.sort(rng.choice(n, size=size, replace=False))
    order = rng.permutation(n * size)
    nums, dens = np.repeat(np.arange(n), size)[order], np.tile(denoms, n)[order]
    count = len(nums) if singletons else classes or int(rng.integers(1, len(nums) + 1))
    cuts = np.sort(rng.choice(np.arange(1, len(nums)), size=count - 1, replace=False))
    bounds = [0, *cuts.tolist(), len(nums)]
    cid = np.full((n, n), -1, dtype=itype)
    cid[nums, dens] = np.repeat(np.arange(count), np.diff(bounds))
    return tri, cid, nums, dens, bounds


def met_pairs(tri, nums, dens, bounds):
    """The distinct (block, row pair) combinations of (i, x, j, y)."""
    g = tri.shape[1]
    cls = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds)).tolist()
    return {(cls[i], x, cls[j], y, tri[nums[i], x, nums[j], y].tobytes(),
             tri[dens[i], x, dens[j], y].tobytes())
            for i, j in itertools.product(range(len(nums)), repeat=2)
            for x, y in itertools.product(range(g), repeat=2)}


SPAN_CASES = {
    "g1": lambda rng: span_case(rng, int(rng.integers(1, 8)), 1),
    "g2": lambda rng: span_case(rng, int(rng.integers(1, 6)), 2),
    "minus-one": lambda rng: span_case(rng, int(rng.integers(2, 6)), int(rng.integers(1, 3)),
                                       singletons=True),
    "singletons": lambda rng: span_case(rng, int(rng.integers(1, 7)), int(rng.integers(1, 3)),
                                        singletons=True, all_denoms=True),
    "distinct-rows": lambda rng: span_case(rng, int(rng.integers(4, 7)), 1, distinct=True),
    # Few row pairs: a chunk holds several fractions of a class at once.
    "repeated-rows": lambda rng: span_case(rng, int(rng.integers(3, 7)), int(rng.integers(1, 3)),
                                           pool=int(rng.integers(1, 4))),
    "chunked": lambda rng: span_case(rng, 5, int(rng.integers(1, 3)), distinct=True,
                                     all_denoms=True, classes=int(rng.integers(2, 4))),
    # The widest keys: 64 singleton classes make (64·2)² = 16,384 blocks, and
    # the 256 tri rows are distinct.
    "wide": lambda rng: span_case(rng, 8, 2, singletons=True, distinct=True, all_denoms=True),
}


def _row_classes(t):
    """The distinct rows of `t`, in lexicographic order, and the index among
    them of each row of `t`: the `rows` that `_product_span` takes."""
    rows, inverse = np.unique(t, axis=0, return_inverse=True)
    return rows, inverse.ravel()


@pytest.mark.parametrize("kind", list(SPAN_CASES))
def test_product_span_matches_loop_on_random_tables(kind):
    """The pair-of-rows reduction gives the fraction-triple loop's lo and hi,
    values and dtypes, on 50 seeded random tables of each kind."""
    rng = np.random.default_rng(sorted(SPAN_CASES).index(kind))
    saw_empty_block = False
    for _ in range(50):
        tri, cid, nums, dens, bounds = SPAN_CASES[kind](rng)
        n, g = len(tri), tri.shape[1]
        fast = _product_span(tri, cid, nums, dens, bounds, _row_classes(tri.reshape(-1, n)))
        loop = loop_product_span(tri, cid, nums, dens, bounds)
        for ours, theirs in zip(fast, loop):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
        saw_empty_block |= bool((loop[1] < 0).any())
        if kind in ("distinct-rows", "chunked", "wide"):
            assert len({row.tobytes() for row in tri.reshape(-1, n)}) == n * n * g * g
        if kind == "chunked":
            # A chunk holds (i, x, j, y) grid // met pairs fractions, fewer
            # than all of them, and the classes straddle chunks.
            assert len(met_pairs(tri, nums, dens, bounds)) > len(nums) * g * g
    if kind == "minus-one":
        assert saw_empty_block


def test_product_span_memory_stays_below_the_fraction_triples():
    """No working array spans the fraction triples: with F = 64 fractions in
    two classes and every tri row distinct, the peak stays below one byte
    per triple."""
    tri, cid, nums, dens, bounds = span_case(np.random.default_rng(3), 8, 1, distinct=True,
                                             all_denoms=True, classes=2)
    rows = _row_classes(tri.reshape(-1, len(tri)))
    tracemalloc.start()
    try:
        _product_span(tri, cid, nums, dens, bounds, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(nums) ** 3


def test_localize_ill_defined_tri():
    data = structure_to_dict(chain(4))
    data["tri"][0][0][0][0][2] = "1"
    S = structure_from_dict(data)
    P = IdealSet(frozenset({0, 1}))
    loc = assert_same_localization(S, P, lenient=True)
    assert not loc.well_defined
    assert loc.failures == ("tri: (0,0,2) at (0,0) depends on representatives ([0, 1])",)


def test_localize_no_admissible_denominator():
    """B2 with a second parameter, whose products with x = g0 are all 0: at
    the prime {0} no representative product at (g0, g0) or (g0, g1) has a
    denominator outside the prime, and a sum's first admissible common
    denominator is at (g1, g0)."""
    tri = [[[[["0" if x == 0 else str(a * b * c) for c in range(2)] for y in range(2)]
             for b in range(2)] for x in range(2)] for a in range(2)]
    S = structure_from_dict({"name": "B2null", "elements": ["0", "1"], "zero": "0",
                             "unit": "1", "gamma": ["g0", "g1"],
                             "add": [["0", "1"], ["1", "1"]], "tri": tri})
    loc = assert_same_localization(S, IdealSet(frozenset({0})), lenient=True)
    assert not loc.well_defined
    assert loc.failures[:2] == (
        "tri: no admissible denominator for (0,0,0) at parameters (0,0)",
        "tri: no admissible denominator for (0,0,0) at parameters (0,1)")
