"""Spectral pseudometric, fuzzy weights, Jacobi eigensolver, embedding, export."""

from __future__ import annotations

import json

import numpy as np
import pytest

from tgw.core import FixtureError, PreconditionError
from tgw.geometry import (ValuationTable, embed, export_graph,
                          fuzzy_weights, jacobi_eigh, metric_matrix,
                          valuation_from_dict)
from tgw.ideals import IdealSet, SpectrumSpace, spectrum


def test_metric_diagonal_and_symmetry(b2, b2xb2):
    for S in (b2, b2xb2):
        spc = spectrum(S)
        d, notes = metric_matrix(S, spc)
        assert np.allclose(np.diag(d), 0.0)
        assert np.allclose(d, d.T)
        assert (d >= 0).all()
        assert notes == ()


def test_metric_b2xb2_offdiagonal_zero(b2xb2):
    # Only (1,1) survives outside both primes; one shared survivor gives 0.
    d, _ = metric_matrix(b2xb2, spectrum(b2xb2))
    assert d.shape == (2, 2) and np.allclose(d, 0.0)


def test_metric_empty_survivors_get_max_d(b2xb2):
    # Two fake points that jointly cover the carrier: MAX_D = 1 + spread.
    fake = SpectrumSpace(
        points=(IdealSet(frozenset({0, 1})), IdealSet(frozenset({2, 3}))),
        ideals=(), closed_sets={})
    d, notes = metric_matrix(b2xb2, fake)
    assert d[0, 1] == 1.0 + 3.0  # index valuation spans 0..3
    assert notes and "MAX_D" in notes[0]
    table = ValuationTable(values=((0.0, 1.0, 5.0, 9.0), (0.0, 1.0, 5.0, 9.0)))
    d2, _ = metric_matrix(b2xb2, fake, table)
    assert d2[0, 1] == 10.0


def test_valuation_loader(b2):
    table = valuation_from_dict(b2, {"g0": [0, 1], "g1": [0.5, 2.5]})
    assert table.of(1, 1) == 2.5
    with pytest.raises(FixtureError):
        valuation_from_dict(b2, {"g0": [0, 1]})
    with pytest.raises(FixtureError):
        valuation_from_dict(b2, {"g0": [0, 1], "g1": [1]})


def test_fuzzy_weights_b2xb2(b2xb2):
    spc = spectrum(b2xb2)
    rep = fuzzy_weights(b2xb2, spc)
    assert rep.weights == (0.5, 0.5)
    assert rep.monotone and not rep.failures
    # The whole carrier is an ideal with empty V: sup over nothing is 0.
    assert rep.closed_set_membership[(0, 1, 2, 3)] == 0.0


def test_fuzzy_weights_table_validation(b2xb2):
    spc = spectrum(b2xb2)
    rep = fuzzy_weights(b2xb2, spc, table=(1.0, 0.25))
    assert rep.weights == (1.0, 0.25)
    with pytest.raises(FixtureError):
        fuzzy_weights(b2xb2, spc, table=(0.5,))
    with pytest.raises(FixtureError):
        fuzzy_weights(b2xb2, spc, table=(0.5, 1.5))


def test_jacobi_against_numpy():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5, 7):
        raw = rng.normal(size=(n, n))
        A = (raw + raw.T) / 2
        values, vectors = jacobi_eigh(A)
        expected = np.sort(np.linalg.eigvalsh(A))[::-1]
        assert np.allclose(values, expected, atol=1e-9)
        assert np.max(np.abs(A - vectors @ np.diag(values) @ vectors.T)) <= 1e-9
        assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= 1e-9
        for col in range(n):
            lead = next(v for v in vectors[:, col] if abs(v) > 1e-12)
            assert lead > 0


def test_jacobi_rejects_asymmetric():
    with pytest.raises(PreconditionError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_embed_b2(b2):
    g = embed(b2, spectrum(b2), k=1)
    assert g.adjacency.tolist() == [[0.25]]
    assert g.coordinates.tolist() == [[1.0]]
    assert g.eigenvalues.tolist() == [0.25]


def test_embed_b2xb2_closed_form(b2xb2):
    g = embed(b2xb2, spectrum(b2xb2), k=1)
    assert np.allclose(g.adjacency, 0.25 * np.ones((2, 2)))
    assert abs(g.eigenvalues[0] - 0.5) <= 1e-12
    assert abs(g.eigenvalues[1]) <= 1e-12
    assert np.allclose(g.coordinates[:, 0], 1 / np.sqrt(2), atol=1e-12)
    assert g.reconstruction_error() <= 1e-9
    assert g.orthonormality_error() <= 1e-9


def test_embed_clamps_k(b2xb2):
    g = embed(b2xb2, spectrum(b2xb2), k=5)
    assert g.k == 2
    assert any("clamped" in note for note in g.notes)
    g = embed(b2xb2, spectrum(b2xb2), k=-3)
    assert g.k == 1
    assert any("clamped" in note for note in g.notes)


def test_embed_deterministic(b2xb2):
    spc = spectrum(b2xb2)
    g1 = embed(b2xb2, spc, k=2)
    g2 = embed(b2xb2, spc, k=2)
    assert export_graph(g1, "json") == export_graph(g2, "json")


def test_export_formats(b2, b2xb2):
    g1 = embed(b2, spectrum(b2), k=1)
    dot = export_graph(g1, "dot")
    assert dot.count("--") == 0 and 'label="{0}"' in dot
    g2 = embed(b2xb2, spectrum(b2xb2), k=1)
    dot2 = export_graph(g2, "dot")
    assert dot2.count("--") == 1 and '[label="0.250000"]' in dot2
    csv = export_graph(g2, "csv")
    assert len(csv.strip().splitlines()) == 1 + 2  # header + one row per point
    parsed = json.loads(export_graph(g2, "json"))
    assert parsed["k"] == 1 and len(parsed["points"]) == 2
    with pytest.raises(PreconditionError):
        export_graph(g1, "svg")
