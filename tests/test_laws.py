"""Differential tests: the law table, evaluated on index grids, against the
nested-loop checkers in conftest.py.

Whole reports are compared, so the laws, witness order, duplicate
witnesses, both sides of every violation and the base-structure warnings of
a module report must all agree.  Every reported witness must re-evaluate to
its recorded sides.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (act_patched_at_every_pair, action_rows, brute_force_check_axioms,
                      brute_force_check_module_axioms, chain, collapsed_b2_cubed,
                      nested_tuples, patch_add, reevaluate_module_violation,
                      reevaluate_violation, swapping_module, tri_patched_at_every_pair,
                      with_rows, zsum)
from tgw import core, fixtures
from tgw.core import (STRUCTURE_LAWS, Violation, _axes, _Table, check_axioms,
                      product_structure)
from tgw.modules import GammaModule, check_module_axioms, regular_module


def _set(table, index, value):
    """Copy of a nested-tuple table with one entry replaced."""
    if not index:
        return value
    head, rest = index[0], index[1:]
    return tuple(_set(row, rest, value) if k == head else row
                 for k, row in enumerate(table))


def _perturb(table, shape, values, rng, entries):
    for _ in range(entries):
        table = _set(table, tuple(rng.randrange(s) for s in shape), rng.randrange(values))
    return table


def perturbed_structure(S, seed: int, entries: int = 2):
    rng = random.Random(seed)
    n, g = S.n, S.g
    return replace(S, name=f"{S.name}~{seed}",
                   add=_perturb(S.add, (n, n), n, rng, entries // 2),
                   tri=_perturb(S.tri, (n, g, n, g, n), n, rng, entries - entries // 2))


def _act_index(M, a, x, u, y, b):
    """Where act(a, x, u, y, b) sits in `action_rows(M)`."""
    return u, M.base.quads.index((a, x, y, b))


def perturbed_module(M, seed: int, entries: int = 2):
    rng = random.Random(seed)
    n, g, m = M.base.n, M.base.g, M.size
    madd, images = _perturb(M.madd, (m, m), m, rng, 1), action_rows(M)
    for _ in range(entries):
        index = _act_index(M, *(rng.randrange(s) for s in (n, g, m, g, n)))
        images = _set(images, index, rng.randrange(m))
    return with_rows(M, images, name=f"{M.name}~{seed}", madd=madd)


def second_parameter_sum(n: int):
    """Z/n with tri(a, x, b, y, c) = a+b+c+y mod n: its slices along the
    first parameter slot are all equal, and along the second they differ."""
    tri = np.add.outer(np.add.outer(np.arange(n), np.zeros(2, int)),
                       np.add.outer(np.add.outer(np.arange(n), np.arange(2)), np.arange(n)))
    return replace(zsum(n), name=f"Zsum{n}-y", tri=nested_tuples((tri % n).tolist()))


def _structures():
    base = [fixtures.bundled_structure(name) for name in fixtures.STRUCTURE_NAMES]
    b2 = base[0]
    out = base + [chain(6), product_structure(product_structure(b2, b2, "B2^2"), b2, "B2^3"),
                  zsum(5), second_parameter_sum(4)]
    out += [replace(S, name=f"{S.name}-nc", commutative=False) for S in base]
    out += [perturbed_structure(S, seed) for S in base for seed in range(6)]
    out += [replace(perturbed_structure(fixtures.bundled_structure("B2xB2"), 9, 4),
                    commutative=False)]
    return out


def _closure_failures():
    b2xb2 = fixtures.bundled_structure("B2xB2")
    return [replace(b2xb2, name="add-out", add=_set(b2xb2.add, (1, 2), b2xb2.n)),
            replace(b2xb2, name="tri-out", tri=_set(b2xb2.tri, (3, 1, 0, 0, 2), -1)),
            replace(b2xb2, name="both-out", add=_set(b2xb2.add, (0, 0), 9),
                    tri=_set(b2xb2.tri, (0, 0, 0, 0, 0), 7))]


def _assert_same_report(report, oracle):
    assert report.violations == oracle.violations
    assert report.warnings == oracle.warnings
    assert report == oracle
    for b in report.violations.blocks + getattr(report.warnings, "blocks", ()):
        assert b.witness.dtype.kind == "u" and b.witness.dtype.itemsize <= 2


@pytest.mark.parametrize("S", _structures() + _closure_failures(), ids=lambda S: S.name)
def test_check_axioms_matches_loops(S):
    report = check_axioms(S)
    _assert_same_report(report, brute_force_check_axioms(S))
    for v in report.violations:
        assert reevaluate_violation(S, v) == (v.left, v.right)


def _alike(X, x: int, x2: int) -> bool:
    """Whether tri, and the action of a module X, read x and x2 alike."""
    S = X.base if isinstance(X, GammaModule) else X
    tables = [np.array(S.tri)]
    if isinstance(X, GammaModule):
        act = np.array(action_rows(X)).reshape(X.size, S.n, S.g, S.g, S.n)
        tables.append(act.transpose(1, 2, 0, 3, 4))
    return all(np.array_equal(t.take(x, axis), t.take(x2, axis))
               for t in tables for axis in (1, 3))


def with_three_parameters(S):
    """S over parameters (g0, g1, g0'): tri at (x, y) is S's at (p[x], p[y])
    for p = (0, 1, 0), so the first and last parameters are read alike."""
    p = [0, 1, 0]
    tri = np.array(S.tri)[:, p][:, :, :, p]
    return replace(S, name=f"{S.name}-g3", gamma=("g0", "g1", "g0'"),
                   tri=nested_tuples(tri.tolist()))


def _collapsed_structures():
    """Structures whose parameters every table reads alike and that fail laws:
    tri entries changed at every parameter pair and add entries changed, in
    B2, B2xB2 and B2^3, each commutative and not; and two structures over
    three parameters, of which exactly two are alike."""
    b2, b2xb2 = fixtures.bundled_structure("B2"), fixtures.bundled_structure("B2xB2")
    b2p3 = collapsed_b2_cubed()
    out = [tri_patched_at_every_pair(b2, 1, 1, 1, 0),
           tri_patched_at_every_pair(b2xb2, 1, 1, 2, 3),
           tri_patched_at_every_pair(b2xb2, 3, 3, 3, 1), b2p3]
    out += [replace(patch_add(S, i, j, value), name=f"{S.name}-add({i},{j})={value}")
            for S, i, j, value in ((b2, 0, 1, 0), (b2xb2, 1, 2, 1), (b2p3, 3, 5, 0))]
    out += [replace(S, name=f"{S.name}-nc", commutative=False) for S in out]
    one_pair = replace(b2xb2, name="B2xB2-tri(1,0,1,0,2)=3",
                       tri=_set(b2xb2.tri, (1, 0, 1, 0, 2), 3))
    return out + [with_three_parameters(zsum(4)), with_three_parameters(one_pair)]


@pytest.mark.parametrize("S", _collapsed_structures(), ids=lambda S: S.name)
def test_check_axioms_matches_loops_on_alike_parameters(S):
    # The first and last parameters are alike, and a third differs.
    assert _alike(S, 0, S.g - 1)
    assert S.g == 2 or not _alike(S, 0, 1)
    report = check_axioms(S)
    assert not report.passed
    _assert_same_report(report, brute_force_check_axioms(S))
    for v in report.violations:
        assert reevaluate_violation(S, v) == (v.left, v.right)


def _collapsed_modules():
    """Modules whose actions fail laws: over B2, where tri reads the two
    parameters alike, action entries changed at every parameter pair, in the
    plain and the nested profile and with a changed base; and the swapping
    module, whose action separates the parameters that tri merges."""
    t2, b2xb2 = fixtures.bundled_module("B2-T2"), fixtures.bundled_structure("B2xB2")
    nested = replace(fixtures.bundled_module("B2xB2-regular"), name="B2xB2-nested",
                     m2_profile="nested")
    base = tri_patched_at_every_pair(b2xb2, 1, 1, 2, 3)
    swaps = swapping_module(fixtures.bundled_structure("B2"))
    return [act_patched_at_every_pair(t2, 1, 3, 1, 1),
            act_patched_at_every_pair(replace(t2, name="B2-T2n", m2_profile="nested"),
                                      1, 3, 1, 0),
            act_patched_at_every_pair(nested, 1, 2, 3, 1),
            replace(act_patched_at_every_pair(nested, 3, 3, 3, 1), base=base),
            replace(regular_module(with_three_parameters(base)), m2_profile="nested"),
            act_patched_at_every_pair(swaps, 1, 1, 1, 3), perturbed_module(swaps, 2, 3)]


@pytest.mark.parametrize("M", _collapsed_modules(), ids=lambda M: M.name)
def test_check_module_axioms_matches_loops_on_alike_parameters(M):
    assert _alike(M.base, 0, M.base.g - 1)
    assert _alike(M, 0, M.base.g - 1) != M.name.startswith("B2-swaps")
    report = check_module_axioms(M)
    assert not report.passed
    _assert_same_report(report, brute_force_check_module_axioms(M))
    for v in report.violations:
        assert reevaluate_module_violation(M, v) == (v.left, v.right)


def test_closure_failures_stop_the_check():
    add_out, tri_out, both_out = _closure_failures()
    assert {v.law for v in check_axioms(add_out).violations} == {"add-closure"}
    assert {v.law for v in check_axioms(tri_out).violations} == {"tri-closure"}
    # add-closure is checked first and alone.
    assert {v.law for v in check_axioms(both_out).violations} == {"add-closure"}


def test_commutativity_witnesses_keep_duplicates():
    # With a == b != c, the permutations (a,c,b) and (b,c,a) give one witness.
    b2xb2 = fixtures.bundled_structure("B2xB2")
    value = (b2xb2.tri[1][0][1][0][2] + 1) % b2xb2.n
    S = replace(b2xb2, tri=_set(b2xb2.tri, (1, 0, 1, 0, 2), value))
    assert check_axioms(S) == brute_force_check_axioms(S)
    witnesses = [v.witness for v in check_axioms(S).violations
                 if v.law == "tri-commutativity"]
    assert len(witnesses) > len(set(witnesses))


def test_expand_lists_every_member_of_wide_classes():
    """A block found at class indices, in a one-byte witness column, lists
    every member of each class, members above 255 included, one member in
    both slots of a parameter name that fills two, in witness order."""
    law = core.Law("twice", "x a y x", "a", "a")
    classes = [[0, 300], [256, 257, 258], [5]]
    witness = np.array([[0, 7, 1, 0], [2, 3, 0, 2], [1, 0, 2, 1]], dtype=np.uint8)
    left, right = np.array([1, -2, 3], dtype=np.int8), np.array([4, 5, 6], dtype=np.uint64)
    out = core._expand(core._Block("twice", witness, left, right), law, classes)
    want = sorted((mx, a, my, mx, lv, rv)
                  for (x, a, y, _), lv, rv in zip(witness.tolist(), left.tolist(), right.tolist())
                  for mx in classes[x] for my in classes[y])
    assert list(zip(*out.witness.T.tolist(), out.left.tolist(), out.right.tolist())) == want


def _modules():
    t2 = fixtures.bundled_module("B2-T2")
    nested = replace(t2, name="B2-T2n", m2_profile="nested")
    out = [fixtures.bundled_module(name) for name in fixtures.MODULE_NAMES] + [nested]
    out += [perturbed_module(M, seed) for M in (t2, nested) for seed in range(4)]
    lax = perturbed_module(nested, 11)
    out += [replace(lax, name="base-perturbed",
                    base=perturbed_structure(t2.base, 5))]
    m = t2.size
    out += [replace(t2, name="madd-out", madd=_set(t2.madd, (1, 2), m)),
            with_rows(t2, _set(action_rows(t2), _act_index(t2, 1, 0, 2, 1, 1), m + 3),
                      name="act-out"),
            with_rows(nested, _set(action_rows(t2), _act_index(t2, 0, 1, 3, 0, 1), m),
                      name="both-out", madd=_set(t2.madd, (0, 3), -1))]
    return out


@pytest.mark.parametrize("M", _modules(), ids=lambda M: M.name)
def test_check_module_axioms_matches_loops(M):
    report = check_module_axioms(M)
    _assert_same_report(report, brute_force_check_module_axioms(M))
    for v in report.violations:
        assert reevaluate_module_violation(M, v) == (v.left, v.right)


def test_module_closure_failures_stop_the_check():
    laws = {M.name: {v.law for v in check_module_axioms(M).violations} for M in _modules()}
    assert laws["madd-out"] == {"madd-closure"}
    assert laws["act-out"] == {"act-closure"}
    assert laws["both-out"] == {"madd-closure", "act-closure"}
    assert "m2-nested" in set().union(*(laws[f"B2-T2n~{seed}"] for seed in range(4)))


def test_unknown_law_is_rejected():
    with pytest.raises(ValueError):
        reevaluate_violation(fixtures.bundled_structure("B2"), Violation("nope", (0,), 0, 0))
    with pytest.raises(ValueError):
        reevaluate_module_violation(fixtures.bundled_module("B2-T2"),
                                    Violation("nope", (0,), 0, 0))


def test_table_gathers_rows_only_where_the_prefix_allows():
    S = fixtures.bundled_structure("Z3")
    grid: list = []
    tri = _Table(S.tri, S.n, grid)
    grid[:] = _axes((S.n, S.g, S.n, S.g, S.n))
    a, x, b, y, c = grid
    full = np.array(S.tri)
    for index in ((a, x, b, y, c), (b, x, a, y, c), (a, x, c, y, c), (c, y, c, y, c),
                  (S.zero, x, S.zero, y, c), (1, 0, 2, 1, 0)):
        expected = full[tuple(np.broadcast_arrays(*index))]
        assert np.array_equal(np.broadcast_to(tri(*index), expected.shape), expected)


def _observed_chunks(monkeypatch, check, X) -> dict:
    """Per law name, the lengths (values of the first axis) of the chunks
    that an uncached `check(X)` evaluates the law in."""
    events, law_violations, count_nonzero = [], core._law_violations, np.count_nonzero
    monkeypatch.setattr(core, "_law_violations",
                        lambda law, *rest: events.append(law.name) or law_violations(law, *rest))
    monkeypatch.setattr(np, "count_nonzero", lambda bad: events.append(len(bad)) or count_nonzero(bad))
    check.__wrapped__(X)
    monkeypatch.undo()
    chunks: dict = {}
    for event in events:
        if isinstance(event, str):
            lengths = chunks.setdefault(event, [])
        else:
            lengths.append(event)
    return chunks


def _patched_b2_cubed(witness, value):
    """B2^3 with tri at `witness` set to `value`, or, for a witness (a, b, c),
    at (a, x, b, y, c) for every parameter pair, so that its two parameters
    stay alike: tri-associativity-ac then fails, and its right side
    tri(a, x, b, y, tri(c, z, d, w, e)) is a lookup whose last index varies
    only along grid axes after the others'."""
    b2 = fixtures.bundled_structure("B2")
    S = product_structure(product_structure(b2, b2, "B2^2"), b2, "B2^3")
    if len(witness) == 3:
        return tri_patched_at_every_pair(S, *witness, value)
    return replace(S, name=f"B2^3-tri{witness}={value}", tri=_set(S.tri, witness, value))


@pytest.mark.parametrize("S", [zsum(5), zsum(6), patch_add(chain(6), 2, 3, 4),
                               _patched_b2_cubed((7, 0, 7, 0, 7), 0),
                               _patched_b2_cubed((3, 1, 5, 0, 6), 7),
                               _patched_b2_cubed((7, 7, 7), 0),
                               _patched_b2_cubed((3, 5, 6), 7)],
                         ids=lambda S: S.name)
def test_check_axioms_matches_loops_over_several_chunks(S, monkeypatch):
    # Associativity is the widest structure law, so it runs one value of its
    # first axis per chunk; every narrower law fits in one chunk.
    chunks = _observed_chunks(monkeypatch, check_axioms, S)
    entries = Counter(law.name for stage in STRUCTURE_LAWS for law in stage)
    for law, lengths in chunks.items():
        if law.startswith("tri-associativity"):
            assert lengths == [1] * S.n
        else:
            assert len(lengths) == entries[law], law
    report = check_axioms(S)
    _assert_same_report(report, brute_force_check_axioms(S))
    for v in report.violations:
        assert reevaluate_violation(S, v) == (v.left, v.right)
    if S.name.startswith("B2^3"):
        assert any(v.law == "tri-associativity-ac" for v in report.violations)


def zero_action_module(S, m: int, name: str):
    """Over S: the chain 0 < 1 < ... < m-1 under max, acted on by zero.  It
    is lawful for every m."""
    return GammaModule(name=name, base=S, carrier=tuple(map(str, range(m))), zero=0,
                       madd=tuple(tuple(max(i, j) for j in range(m)) for i in range(m)),
                       columns=((0,) * m,), column_of=(0,) * len(S.quads))


def _several_chunk_modules():
    nested = replace(fixtures.bundled_module("B2xB2-regular"), name="B2xB2-nested",
                     m2_profile="nested")
    # Over Z3 (n = 3) with 7 carrier elements, the widest law is additivity in
    # the carrier slot, so additivity in the a and b slots runs in chunks of
    # 7 // 3 = 2 values of its first axis: 2, then 1.
    wide = zero_action_module(fixtures.bundled_structure("Z3"), 7, "Z3-C7")
    return [nested, perturbed_module(nested, 3, entries=3), wide,
            perturbed_module(wide, 5, entries=3)]


@pytest.mark.parametrize("M", _several_chunk_modules(), ids=lambda M: M.name)
def test_check_module_axioms_matches_loops_over_several_chunks(M, monkeypatch):
    chunks = _observed_chunks(monkeypatch, check_module_axioms, M)
    if M.m2_profile == "nested":
        assert chunks["m2-nested"] == [1] * M.base.n
    else:
        assert chunks["act-additivity-slot-a"] == chunks["act-additivity-slot-b"] == [2, 1]
    report = check_module_axioms(M)
    _assert_same_report(report, brute_force_check_module_axioms(M))
    for v in report.violations:
        assert reevaluate_module_violation(M, v) == (v.left, v.right)
    assert report.passed == ("~" not in M.name)


@pytest.mark.parametrize("witness", [(0, 2, 1, 0, 1), (0, 0, 1, -1, 1), (2, 0, 0, 0, 0),
                                     (0, 0, 0, 0, -1)])
def test_reevaluate_rejects_witnesses_out_of_range(witness):
    # A flat index would alias an out-of-range entry onto another instance.
    with pytest.raises(IndexError):
        reevaluate_violation(fixtures.bundled_structure("B2"),
                             Violation("zero-absorption", witness, 0, 0))


@pytest.mark.parametrize("witness", [(0, 0, 4, 0, 1), (0, 0, -1, 0, 1), (0, 2, 0, 0, 1)])
def test_reevaluate_module_rejects_witnesses_out_of_range(witness):
    M = fixtures.bundled_module("B2-T2")
    assert M.size == 4
    with pytest.raises(IndexError):
        reevaluate_module_violation(M, Violation("act-closure", witness, 0, 0))


@st.composite
def _lookups(draw):
    """A chunk's grid, a table, and one index per table axis: an int, an axis
    of the grid, or table entries (uint8) over some of the grid's axes.  The
    last few indices may be the trailing grid axes themselves.  In the split
    arm, the indices before a drawn table axis j use only the grid axes before
    a drawn grid axis p, the others only the axes from p on, and the last index
    is a second table's lookup on those later axes, as in tri(a, x, b, y,
    tri(c, z, d, w, e))."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    grid = list(_axes(tuple(sizes)))
    start = draw(st.integers(0, sizes[0] - 1))
    grid[0] = grid[0][start:start + draw(st.integers(1, sizes[0]))]
    ndim = draw(st.integers(1, 5))
    j = draw(st.integers(0, ndim - 1)) if len(grid) > 1 else 0
    p = draw(st.integers(1, len(grid) - 1)) if j else 0
    tail = 0 if j else draw(st.integers(0, min(ndim, len(grid) - 1)))

    def one(kind, axes, dims):
        """An index of `kind` over the grid axes numbered in `axes`; its
        table axis's size is appended to `dims`."""
        if kind in ("tail", "axis"):
            axis = grid[draw(st.sampled_from(axes)) if kind == "axis" else len(dims) - ndim]
            # As in a law, an axis other than the chunk's spans its table axis.
            extra = draw(st.integers(0, 1)) if axis is grid[0] else 0
            dims.append(int(axis.max()) + 1 + extra)
            return axis
        dims.append(draw(st.integers(1, 3)))
        if kind == "int":
            return draw(st.integers(0, dims[-1] - 1))
        shape = [axis.size if k in axes and draw(st.booleans()) else 1
                 for k, axis in enumerate(grid)]
        values = draw(st.lists(st.integers(0, dims[-1] - 1), min_size=math.prod(shape),
                               max_size=math.prod(shape)))
        return np.array(values, dtype=np.uint8).reshape(shape)

    def table(dims, low, high):
        entries = iter(draw(st.lists(st.integers(low, high), min_size=math.prod(dims),
                                     max_size=math.prod(dims))))

        def nest(level):
            return (tuple(nest(level + 1) for _ in range(dims[level])) if level < len(dims)
                    else next(entries))
        return nest(0)

    kinds = st.sampled_from(["int", "axis", "entries"])
    index, dims = [], []
    for k in range(ndim - (j > 0)):
        axes = range(len(grid)) if not j else range(p) if k < j else range(p, len(grid))
        index.append(one("tail" if k >= ndim - tail else draw(kinds), axes, dims))
    if j:
        inner_dims, later = [], range(p, len(grid))
        inner = [one(draw(st.sampled_from(["int", "axis"])), later, inner_dims)
                 for _ in range(draw(st.integers(1, 3)))]
        dims.append(draw(st.integers(1, 3)))
        index.append(_Table(table(inner_dims, 0, dims[-1] - 1), dims[-1], grid)(*inner))
    return grid, table(dims, -1, 300), index


@settings(max_examples=300, deadline=None)
@given(_lookups())
def test_table_matches_nested_lookup(case):
    grid, rows, index = case
    got = _Table(rows, 300, grid)(*index)
    shape = np.broadcast_shapes(*(np.shape(i) for i in index))
    got = np.broadcast_to(got, shape)
    for point in itertools.product(*map(range, shape)):
        entry = rows
        for i in index:
            entry = entry[i if type(i) is int else int(np.broadcast_to(i, shape)[point])]
        assert got[point] == entry
