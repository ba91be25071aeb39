"""Differential tests: the law table, evaluated on index grids, against the
nested-loop checkers in conftest.py.

Whole reports are compared, so the laws, witness order, duplicate
witnesses, both sides of every violation and the base-structure warnings of
a module report must all agree.  Every reported witness must re-evaluate to
its recorded sides.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from conftest import (brute_force_check_axioms, brute_force_check_module_axioms,
                      chain, zsum)
from tgw import fixtures
from tgw.core import check_axioms, product_structure, reevaluate_violation
from tgw.modules import check_module_axioms, reevaluate_module_violation


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
    """Where act(a, x, u, y, b) sits in `M.images`."""
    return u, M.base.quads.index((a, x, y, b))


def perturbed_module(M, seed: int, entries: int = 2):
    rng = random.Random(seed)
    n, g, m = M.base.n, M.base.g, M.size
    madd, images = _perturb(M.madd, (m, m), m, rng, 1), M.images
    for _ in range(entries):
        index = _act_index(M, *(rng.randrange(s) for s in (n, g, m, g, n)))
        images = _set(images, index, rng.randrange(m))
    return replace(M, name=f"{M.name}~{seed}", madd=madd, images=images)


def _structures():
    base = [fixtures.bundled_structure(name) for name in fixtures.STRUCTURE_NAMES]
    b2 = base[0]
    out = base + [chain(6), product_structure(product_structure(b2, b2, "B2^2"), b2, "B2^3"),
                  zsum(5)]
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


@pytest.mark.parametrize("S", _structures() + _closure_failures(), ids=lambda S: S.name)
def test_check_axioms_matches_loops(S):
    report = check_axioms(S)
    _assert_same_report(report, brute_force_check_axioms(S))
    for v in report.violations:
        assert reevaluate_violation(S, v) == (v.left, v.right)


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
            replace(t2, name="act-out",
                    images=_set(t2.images, _act_index(t2, 1, 0, 2, 1, 1), m + 3)),
            replace(nested, name="both-out", madd=_set(t2.madd, (0, 3), -1),
                    images=_set(t2.images, _act_index(t2, 0, 1, 3, 0, 1), m))]
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
    from tgw.core import Violation
    with pytest.raises(ValueError):
        reevaluate_violation(fixtures.bundled_structure("B2"), Violation("nope", (0,), 0, 0))
    with pytest.raises(ValueError):
        reevaluate_module_violation(fixtures.bundled_module("B2-T2"),
                                    Violation("nope", (0,), 0, 0))


def test_table_gathers_rows_only_where_the_prefix_allows():
    import numpy as np
    from tgw.core import _axes, _Table
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
