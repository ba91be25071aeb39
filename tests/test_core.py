"""Structure loading, axiom checking, and witness diagnostics."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgw import fixtures
from tgw.core import (FixtureError, _dump, check_axioms, load_structure,
                      patch_add, reevaluate_violation, serialize_structure,
                      structure_from_dict, tri_eval)

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


# ---------------------------------------------------------------------------
# `_dump` against json.dumps(indent=2)

def _record(law, witness, left, right):
    return {"law": law, "witness": witness, "left": left, "right": right}


# Ways a violation-shaped dict can break the record template; each must still
# render exactly as json.dumps renders it.
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
