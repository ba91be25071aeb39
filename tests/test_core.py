"""Structure loading, axiom checking, and witness diagnostics."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_check_axioms, chain, patch_add, reevaluate_violation, zsum
from tgw import core, fixtures
from tgw.core import (AxiomReport, FixtureError, Violations, _dump, _write, check_axioms,
                      distinct_rows, load_structure, row_order, serialize_structure,
                      structure_from_dict, tri_eval)
from tgw.modules import check_module_axioms

B2_DICT = {
    "name": "B2", "elements": ["0", "1"], "zero": "0", "unit": "1",
    "gamma": ["g0", "g1"],
    "add": [["0", "1"], ["1", "1"]],
    "tri": [[[[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
             [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]],
            [[[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
             [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]]],
}


def test_load_b2_shape(b2):
    assert b2.n == 2 and b2.g == 2
    assert b2.zero == 0 and b2.unit == 1
    assert b2.elements == ("0", "1")


def test_load_z3_shape(z3):
    assert z3.n == 3 and z3.g == 2
    assert z3.unit is None


def test_load_b2xb2_shape(b2xb2):
    assert b2xb2.n == 4 and b2xb2.g == 2
    assert b2xb2.elements[b2xb2.unit] == "(1,1)"


def test_shape_error_wrong_add_width():
    bad = dict(B2_DICT, add=[["0", "1", "0"], ["1", "1", "0"]])
    with pytest.raises(FixtureError, match="shape error"):
        structure_from_dict(bad)


def test_reference_error_unknown_label():
    bad = dict(B2_DICT, zero="7")
    with pytest.raises(FixtureError, match="reference error"):
        structure_from_dict(bad)


def test_parse_error_bad_json():
    with pytest.raises(FixtureError, match="parse error"):
        load_structure("{not json")


def test_lawful_fixtures_pass(b2, b2xb2, one_element):
    for S in (b2, b2xb2, one_element):
        report = check_axioms(S)
        assert report.passed and report.violations == ()


def test_z3_violations_reported(z3):
    report = check_axioms(z3)
    assert not report.passed
    laws = {v.law for v in report.violations}
    assert "zero-absorption" in laws
    assert "tri-distributivity-slot1" in laws
    # Witness a=b=c=0 at parameters (g0, g1): tri evaluates to 0+0+0+0+1 = 1.
    absorption = [v for v in report.violations if v.law == "zero-absorption"]
    assert any(v.witness == (0, 0, 0, 1, 0) and v.left == 1 and v.right == 0
               for v in absorption)
    # Associativity and commutativity hold for the mod-3 sum form.
    assert not any(v.law.startswith("tri-associativity") for v in report.violations)
    assert "tri-commutativity" not in laws


def test_checker_is_pure(z3):
    assert check_axioms(z3) == check_axioms(z3)


def test_all_z3_witnesses_reevaluate(z3):
    report = check_axioms(z3)
    for v in report.violations:
        left, right = reevaluate_violation(z3, v)
        assert (left, right) == (v.left, v.right)
        assert left != right


def test_violation_ordering_deterministic(z3):
    vs = check_axioms(z3).violations
    assert list(vs) == sorted(vs, key=lambda v: (v.law, v.witness))


def test_patched_identity_violation(b2):
    broken = patch_add(b2, 0, 1, 0)
    report = check_axioms(broken)
    assert not report.passed
    identity = [v for v in report.violations if v.law == "add-identity"]
    assert identity and identity[0].witness == (1,) and identity[0].left == 0


def test_patched_or_to_xor_is_lawful(b2):
    # Flipping add(1,1) to 0 turns OR into XOR, which together with the
    # Boolean triple product is the two-element field: every law still holds.
    assert check_axioms(patch_add(b2, 1, 1, 0)).passed


def test_tri_eval_examples(b2, z3):
    assert tri_eval(b2, 1, 0, 1, 0, 1) == 1
    assert tri_eval(b2, 0, 0, 1, 1, 1) == 0
    assert tri_eval(z3, 1, 0, 2, 1, 0) == 1  # (1+2+0+0+1) mod 3


def test_tri_eval_range_check(b2):
    with pytest.raises(IndexError):
        tri_eval(b2, 2, 0, 0, 0, 0)
    with pytest.raises(IndexError):
        tri_eval(b2, 0, 5, 0, 0, 0)


def test_round_trip_all_bundled():
    for name in fixtures.STRUCTURE_NAMES:
        S = fixtures.bundled_structure(name)
        assert load_structure(serialize_structure(S)) == S


def test_passing_structure_random_spot_checks(b2xb2):
    # Independent re-check of 1000 random law instances on a passing structure.
    rng = random.Random(20250808)
    S = b2xb2
    n, g = S.n, S.g
    for _ in range(1000):
        a, b, c, d, e = (rng.randrange(n) for _ in range(5))
        x, y, z, w = (rng.randrange(g) for _ in range(4))
        assert S.add[a][b] == S.add[b][a]
        assert S.add[S.add[a][b]][c] == S.add[a][S.add[b][c]]
        assert S.tri[S.add[a][b]][x][c][y][d] == \
            S.add[S.tri[a][x][c][y][d]][S.tri[b][x][c][y][d]]
        assert S.tri[S.zero][x][a][y][b] == S.zero
        l1 = S.tri[S.tri[a][x][b][y][c]][z][d][w][e]
        assert l1 == S.tri[a][x][S.tri[b][y][c][z][d]][w][e]
        assert l1 == S.tri[a][x][b][y][S.tri[c][z][d][w][e]]
        assert S.tri[a][x][b][y][c] == S.tri[b][x][a][y][c] == S.tri[c][x][b][y][a]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_random_add_patches_give_reevaluable_witnesses(i, j, v):
    S = patch_add(fixtures.bundled_structure("B2xB2"), i, j, v)
    report = check_axioms(S)
    for violation in report.violations:
        left, right = reevaluate_violation(S, violation)
        assert (left, right) == (violation.left, violation.right)
        assert left != right


def test_equal_structures_hash_alike_and_share_cached_reports():
    text = serialize_structure(fixtures.bundled_structure("B2xB2"))
    first, second = load_structure(text), load_structure(text)
    assert first is not second and first == second
    assert hash(first) == hash(second)
    report = check_axioms(first)
    before = check_axioms.cache_info()
    assert check_axioms(second) is report
    after = check_axioms.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    patched = patch_add(second, 0, 1, 0)
    assert patched != first
    assert check_axioms(patched) is not report
    assert check_axioms(patched).violations


@pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint8, np.bool_])
def test_distinct_rows_matches_unique(dtype):
    """`distinct_rows` gives np.unique's rows and order, and `row_order` its
    first occurrences, on seeded random matrices, and on no rows, one row,
    no columns and equal rows."""
    rng = np.random.default_rng(11)
    # Signed entries are negative and span several bytes; the narrow ones repeat.
    values = [-1000, 0, 1000] if dtype in (np.int64, np.int16) else [0, 1]
    # Narrow rows of 1, 2, 3, 12 and 40 bytes are read as 1-, 2-, 1-, 4- and 8-byte words.
    shapes = [(0, 3), (1, 3), (5, 0), (0, 0), (1, 0), (200, 3), (300, 40), (17, 1), (60, 2),
              (60, 12)]
    cases = [rng.choice(values, size=shape).astype(dtype) for shape in shapes]
    cases.append(np.ones((7, 5), dtype=dtype))
    for a in cases:
        rows, (order, new) = distinct_rows(a), row_order(a)
        want, want_first = np.unique(a, axis=0, return_index=True)
        assert rows.dtype == a.dtype and rows.shape == want.shape
        assert np.array_equal(rows, want)
        assert order[new].tolist() == want_first.tolist()


# ---------------------------------------------------------------------------
# `_dump` against json.dumps(indent=2)

def _record(law, witness, left, right):
    return {"law": law, "witness": witness, "left": left, "right": right}


# Violation-shaped dicts, whole and broken in each of these ways: the writer
# renders plain dicts on its generic path, which must match json.dumps.
_BREAKS = {
    "bool left": lambda r: {**r, "left": True},
    "empty witness": lambda r: {**r, "witness": []},
    "fifth key": lambda r: {**r, "note": None},
    "key order": lambda r: dict(reversed(r.items())),
    "bool entry": lambda r: {**r, "witness": [*r["witness"], False]},
    "float side": lambda r: {**r, "right": 1.0},
    "tuple witness": lambda r: {**r, "witness": tuple(r["witness"])},
    "dict witness": lambda r: {**r, "witness": dict.fromkeys(r["witness"], 0)},
    "int law": lambda r: {**r, "law": 3},
}

_INTS = st.integers() | st.integers(-2 ** 70, 2 ** 70)
_RECORDS = st.builds(_record, st.text(), st.lists(_INTS, min_size=1, max_size=9),
                     _INTS, _INTS)
_BROKEN = st.builds(lambda r, how: _BREAKS[how](r), _RECORDS, st.sampled_from(sorted(_BREAKS)))
_SCALARS = _INTS | st.floats() | st.booleans() | st.none()
_LEAVES = (_SCALARS | st.text() | _RECORDS | _BROKEN
           | st.lists(_INTS, min_size=1) | st.lists(_SCALARS, min_size=1)
           | st.lists(_RECORDS, min_size=1) | st.lists(_RECORDS | _BROKEN, min_size=1))
_KEYS = st.text() | st.integers() | st.booleans() | st.floats() | st.none()
_PAYLOADS = st.recursive(_LEAVES, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=4)), max_leaves=20)


@pytest.mark.parametrize("obj", [
    1.5, float("nan"), float("inf"), -float("inf"), "caf\u00e9 \u2603 \"\n\\", True, None,
    (1, 2), [], {}, [[], {}, ()], {1: 2, True: 3, None: 4, 1.5: 5}, [True, 1],
    [1, 1.5, 1e16, float("nan"), -float("inf"), False, None, -2 ** 80], ["a, b", 1],
    [_record("law", [0, 1], 2, 3), _record("law", [], 2, 3)],
    {"violations": [_record("caf\u00e9", [0], -1, 2 ** 80)]},
], ids=repr)
def test_dump_matches_json_on_fallback_cases(obj):
    assert _dump(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("how", sorted(_BREAKS))
def test_dump_matches_json_on_broken_records(how):
    record = _record("law", [0, 1], 2, 3)
    obj = {"violations": [record, _BREAKS[how](record)]}
    assert _dump(obj) == json.dumps(obj, indent=2)


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS)
def test_dump_matches_json_on_drawn_payloads(obj):
    assert _dump(obj) == json.dumps(obj, indent=2)


# ---------------------------------------------------------------------------
# Violation columns against json.dumps of `AxiomReport.to_dict()`

def _assert_renders_as_dicts(report):
    """The JSON writer, given the violation sequences themselves (`fields()`),
    writes what json.dumps writes for the dicts of `to_dict()`, at every
    indent."""
    columns = report.fields()
    assert columns["violations"] is report.violations
    dicts = report.to_dict()
    for wrap in (lambda r: r, lambda r: r["violations"], lambda r: r["warnings"],
                 lambda r: {"result": [r, {"again": [r]}]}):
        assert _dump(wrap(columns)) == json.dumps(wrap(dicts), indent=2)


def _with_entries(S, table, entries):
    """Copy of S with `table` ("add" or "tri") entries set, by index."""
    a = np.array(getattr(S, table))
    for index, value in entries:
        a[index] = value

    def nest(t):
        return tuple(map(nest, t)) if isinstance(t, list) else t
    return replace(S, **{table: nest(a.tolist())})


def _commutativity_failure():
    # Two changed entries break several permutations of tri-commutativity.
    b2xb2 = fixtures.bundled_structure("B2xB2")
    return _with_entries(b2xb2, "tri", [((1, 0, 2, 1, 3), 0), ((3, 1, 2, 0, 1), 2)])


def _cases():
    b2xb2 = fixtures.bundled_structure("B2xB2")
    z3reg = fixtures.bundled_module("Z3-regular")
    n = b2xb2.n
    return {
        "Zsum5": check_axioms(zsum(5)),
        "Zsum6": check_axioms(zsum(6)),
        "C6-patched": check_axioms(patch_add(chain(6), 2, 3, 0)),
        "Z3": check_axioms(fixtures.bundled_structure("Z3")),
        "Z3-regular": check_module_axioms(z3reg),
        "Z3-regular-madd": check_module_axioms(replace(z3reg, madd=(
            (1, 1, 2), *z3reg.madd[1:]))),
        "commutativity": check_axioms(_commutativity_failure()),
        # Closure sides at and far beyond n, and below 0.
        "add-out": check_axioms(_with_entries(
            b2xb2, "add", [((0, 1), n), ((2, 3), 10 ** 9), ((3, 3), -5)])),
        "tri-out": check_axioms(_with_entries(b2xb2, "tri", [((0, 1, 2, 0, 3), n + 3)])),
        "B2": check_axioms(fixtures.bundled_structure("B2")),
        "B2-regular": check_module_axioms(fixtures.bundled_module("B2-regular")),
    }


@pytest.mark.parametrize("name", sorted(_cases()))
def test_violation_columns_render_as_dicts(name):
    report = _cases()[name]
    if name in ("B2", "B2-regular"):
        assert not report.violations and not report.warnings
    _assert_renders_as_dicts(report)


_CHUNK = core._CHUNK


# Per block, cyclically: the witness dtype and the dtypes of the two sides.
# Each block sets uint64 beside a signed dtype, whose common NumPy type is
# float64, so a writer that mixes the columns prints 0 as 0.0.
_COLUMN_DTYPES = [(np.uint8, np.int8, np.uint64), (np.uint16, np.int64, np.uint64),
                  (np.uint8, np.uint64, np.int8)]


def _sized_report(sizes):
    """A report whose violations are blocks of these many seeded records,
    with the column dtypes of `_COLUMN_DTYPES`, alternating narrow values and
    values too far apart for a token column each (witness entries above 255
    and sides up to 5e9), and whose warnings are its first block."""
    rng = np.random.default_rng(len(sizes) * 1000 + sizes[-1])
    blocks = []
    for k, size in enumerate(sizes):
        witness, left, right = _COLUMN_DTYPES[k % 3]
        low = -2 if np.issubdtype(left, np.signedinteger) else 0
        blocks.append(core._Block(
            f"law {k}", rng.integers(0, 300 if k % 2 else 5, (size, 3 + k % 3)).astype(witness),
            rng.integers(low, 5, size).astype(left),
            rng.integers(0, 5 * 10 ** (9 * (k % 2)), size).astype(right)))
    return AxiomReport(Violations(blocks), Violations(blocks[:1]))


@pytest.mark.parametrize("sizes", [
    (1,), (_CHUNK - 1,), (_CHUNK,), (_CHUNK + 1,), (3 * _CHUNK + 5,),
    (_CHUNK, _CHUNK + 1, 5), (2, 3 * _CHUNK + 5, _CHUNK - 1), (_CHUNK + 1, 1),
], ids=repr)
def test_violation_chunks_render_as_dicts(sizes):
    """Each block's records are joined at most `_CHUNK` to a piece, and the
    pieces render as the dicts do, whichever block a chunk ends."""
    report = _sized_report(sizes)
    assert max(piece.count('"law"') for piece in _write(report.violations)) == min(
        max(sizes), _CHUNK)
    _assert_renders_as_dicts(report)


def test_same_named_laws_merge_in_witness_order():
    S = _commutativity_failure()
    report = check_axioms(S)
    assert report.violations == brute_force_check_axioms(S).violations
    assert [b.law for b in report.violations.blocks].count("tri-commutativity") == 1
    witnesses = [v.witness for v in report.violations if v.law == "tri-commutativity"]
    # Several permutations fail at the same (a, x, b, y, c).
    assert len({w[:5] for w in witnesses}) < len(witnesses)


def test_negative_and_wide_entries_keep_an_integer_table():
    """A table with -1 and an entry past uint32 is held as int64: a signed
    dtype beside uint64 promotes to float64, whose violation columns the
    JSON writer cannot cast to intp."""
    S = replace(fixtures.bundled_structure("B2xB2"), commutative=False)
    S = _with_entries(S, "add", [((0, 0), -1), ((0, 1), 2 ** 32)])
    assert core.table_arrays(S)[0].dtype == np.int64
    _assert_renders_as_dicts(check_axioms(S))


_ENTRIES = st.lists(st.tuples(st.sampled_from(["add", "tri"]),
                              st.lists(st.integers(0, 3), min_size=5, max_size=5),
                              st.integers(-1, 4) | st.integers(-2 ** 40, 2 ** 40)),
                    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(_ENTRIES, st.booleans())
def test_perturbed_tables_render_as_dicts(entries, commutative):
    S = replace(fixtures.bundled_structure("B2xB2"), commutative=commutative)
    for table, index, value in entries:
        at = tuple(index[:2]) if table == "add" else (index[0], index[1] % 2, index[2],
                                                      index[3] % 2, index[4])
        S = _with_entries(S, table, [(at, value)])
    _assert_renders_as_dicts(check_axioms(S))
