"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and runtime bounds are pinned here, not configurable.
"""

from __future__ import annotations

import subprocess
import sys
import time

from conftest import (all_bundled_modules, brute_force_homs, brute_force_ideals,
                      brute_force_submodules)
from tgw import fixtures
from tgw.core import check_axioms, reevaluate_violation
from tgw.geometry import embed
from tgw.homology import (adjunction_check, ext1, free_resolution, tensor,
                          find_presentation_isomorphism, tor1)
from tgw.ideals import enumerate_ideals, ideal_closure, spectrum, zariski_report
from tgw.modules import (ModuleHom, annihilator, bourne_quotient,
                         cyclic_module_catalog, density_check, end_semiring,
                         enumerate_submodules, first_isomorphism_check,
                         hom_set, is_simple, jacobson_radical, regular_module)


def _ok(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_boolean_density_pipeline(b2):
    start = time.perf_counter()
    catalog = cyclic_module_catalog(b2)
    simples = [e for e in catalog if e.simple]
    assert len(simples) == 1
    report = density_check(simples[0].module)
    assert report.ok
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _ok(1, "Boolean pipeline: 1 simple cyclic module, density Yes")


def test_criterion_2_boolean_homology(b2, b2_reg):
    start = time.perf_counter()
    ext = ext1(b2, b2_reg, b2_reg)
    tor = tor1(b2, b2_reg, b2_reg)
    assert ext.ext1.is_trivial and ext.ext1.structure_tag == "trivial"
    assert tor.tor1.is_trivial and tor.tor1.structure_tag == "trivial"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _ok(2, "Ext1 and Tor1 of the Boolean regular module are trivial")


def test_criterion_3_boolean_adjunction(b2_reg):
    report = adjunction_check(b2_reg, b2_reg, b2_reg)
    assert report.lhs_size == 2 and report.rhs_size == 2
    assert report.phi_bijective and report.round_trips_ok and report.holds
    _ok(3, "adjunction cardinalities 2 = 2 with a verified bijection")


def test_criterion_4_projection_instance(b2_reg, b2_t2):
    projection = ModuleHom(b2_t2, b2_reg, (0, 0, 1, 1), verified=True)
    report = first_isomorphism_check(projection)
    # Kernel {(0,0),(0,1)}, image all of the regular carrier.
    assert report.details["kernel"] == [0, 1]
    assert report.details["image"] == [0, 1]
    assert report.details["induced_bijective_onto_image"]
    assert report.details["induced_is_hom"]
    assert report.holds
    _ok(4, "projection: kernel {(0,y)}, image T, induced map an isomorphism")


def test_criterion_5_lenient_mod3_instances(z3, z3_reg):
    assert is_simple(z3_reg)
    assert annihilator(z3_reg, lenient=True).key() == (0,)
    assert jacobson_radical(z3, lenient=True).ideal.key() == (0,)
    census = end_semiring(z3_reg, lenient=True).census()
    assert census["size"] >= 1  # census reported
    axioms = check_axioms(z3)
    absorption = [v for v in axioms.violations if v.law == "zero-absorption"]
    assert absorption, "checker must flag zero absorption"
    witness = absorption[0]
    left, right = reevaluate_violation(z3, witness)
    assert (left, right) == (witness.left, witness.right) and left != right
    _ok(5, f"mod-3 lenient: simple, Ann={{0}}, J={{0}}, |End|={census['size']}, "
           f"absorption flagged at {witness.witness}")


def test_criterion_6_oracle_equivalence(b2, z3, b2xb2, one_element):
    start = time.perf_counter()
    for S, lenient in ((b2, False), (z3, True), (b2xb2, False),
                       (one_element, False)):
        got = [i.key() for i in enumerate_ideals(S, lenient=lenient)]
        assert got == brute_force_ideals(S), S.name
    mods = all_bundled_modules()
    for M in mods:
        got = [tuple(sorted(s)) for s in enumerate_submodules(M)]
        assert got == brute_force_submodules(M), M.name
    for M in mods:
        for N in mods:
            if M.base != N.base:
                continue
            assert [h.map for h in hom_set(M, N)] == brute_force_homs(M, N), \
                (M.name, N.name)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    _ok(6, f"ideal/submodule/hom enumeration matches brute force "
           f"({elapsed:.2f}s)")


def test_criterion_7_invariant_suites(b2, z3, b2xb2):
    # Axiom-checker witness re-evaluation.
    for v in check_axioms(z3).violations:
        assert reevaluate_violation(z3, v) == (v.left, v.right)
    # Resolution exactness on every unit-bearing bundled module.
    for name in fixtures.MODULE_NAMES:
        M = fixtures.bundled_module(name)
        if M.base.unit is None:
            continue
        res = free_resolution(M.base, M)
        assert res.exact_at_p0 and res.exact_at_p1, name
    # Schur census: zero failures on every flagged simple.
    for S, lenient in ((b2, False), (b2xb2, False), (z3, True)):
        for entry in cyclic_module_catalog(S, lenient=lenient):
            if entry.simple:
                rep = end_semiring(entry.module, lenient=lenient)
                assert rep.schur_checked and not rep.schur_failures, \
                    entry.module.name
    # V(I) ∩ V(J) = V(I+J) over the full ideal lattices.
    for S in (b2, b2xb2):
        spc = spectrum(S)
        assert zariski_report(S, spc).passed
        for I in spc.ideals:
            for J in spc.ideals:
                lhs = set(spc.closed_sets[I.key()]) & set(spc.closed_sets[J.key()])
                rhs = set(spc.closed_sets[ideal_closure(S, I.members | J.members).key()])
                assert lhs == rhs
    # Bourne-quotient well-definedness on all bundled quotients.
    for S in (b2, b2xb2):
        reg = regular_module(S)
        for members in enumerate_submodules(reg):
            _, cong = bourne_quotient(reg, members)
            assert cong.compatible
    # Tensor backend agreement where two backends apply.
    b2reg = fixtures.bundled_module("B2-regular")
    a = tensor(b2reg, b2reg, backend="idempotent").presentation
    b = tensor(b2reg, b2reg, backend="saturation").presentation
    assert b.to_dict()["approximate"] is False
    assert find_presentation_isomorphism(a, b) is not None
    _ok(7, "witness re-evaluation, exactness, Schur census, closed-set "
           "identities, quotient well-definedness, backend agreement")


def test_criterion_8_numerical_embedding(b2xb2):
    graph = embed(b2xb2, spectrum(b2xb2), k=1)
    assert graph.reconstruction_error() <= 1e-9
    assert graph.orthonormality_error() <= 1e-9
    assert abs(graph.eigenvalues[0] - 0.5) <= 1e-12
    assert abs(graph.eigenvalues[1] - 0.0) <= 1e-12
    _ok(8, "eigen reconstruction and orthonormality within 1e-9, "
           "eigenvalues {0.5, 0} within 1e-12")


def test_criterion_9_report_byte_determinism():
    cmd = [sys.executable, "-m", "tgw.cli", "report"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0
    assert b"2, 2, 1, Yes, Boolean" in first.stdout
    _ok(9, "tgw report byte-identical across consecutive runs")
