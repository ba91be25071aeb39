"""Spectral-fuzzy embedding of the prime spectrum.

Pipeline: pairwise pseudometric from a valuation table, per-point fuzzy
weights, adjacency A[p][q] = exp(-d(p,q)) * mu(p) * mu(q), symmetric
eigendecomposition by cyclic Jacobi rotations, and top-k coordinates per
point.  Everything is deterministic: eigenvalues are sorted descending with a
stable order and each eigenvector's first nonzero entry is made positive, so
exports are byte-stable across runs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (FiniteTernaryGammaSemiring, FixtureError, PreconditionError,
                   _dump)
from .ideals import SpectrumSpace

_OFFDIAG_TOL = 1e-12
_SIGN_EPS = 1e-12


@dataclass(frozen=True)
class ValuationTable:
    """Real valuation per (parameter, element), indexed values[x][element]."""

    values: tuple[tuple[float, ...], ...]

    def of(self, x: int, element: int) -> float:
        return self.values[x][element]


def index_valuation(S: FiniteTernaryGammaSemiring) -> ValuationTable:
    """Default valuation: the element's position in the declared ordering."""
    row = tuple(float(i) for i in range(S.n))
    return ValuationTable(values=tuple(row for _ in range(S.g)))


def valuation_from_dict(S: FiniteTernaryGammaSemiring, data: dict) -> ValuationTable:
    if not isinstance(data, dict):
        raise FixtureError("shape error: valuation must map parameter labels to rows")
    rows = []
    for label in S.gamma:
        if label not in data:
            raise FixtureError(f"reference error: valuation missing parameter {label!r}")
        row = data[label]
        # Finite numbers only; JSON true and false are not numbers here.
        if not isinstance(row, list) or not all(
                type(v) in (int, float) and abs(v) <= sys.float_info.max for v in row):
            raise FixtureError(f"shape error: valuation row for {label!r} must be a "
                               f"list of numbers")
        if len(row) != S.n:
            raise FixtureError(f"shape error: valuation row for {label!r} must have "
                               f"{S.n} entries")
        rows.append(tuple(float(v) for v in row))
    return ValuationTable(values=tuple(rows))


def metric_matrix(S: FiniteTernaryGammaSemiring, spec: SpectrumSpace,
                  valuation: ValuationTable | None = None):
    """Pairwise min over parameters and surviving elements of valuation gaps.

    d(P,Q) minimizes |v_x(a) - v_x(b)| over parameters x and elements a, b
    outside P ∪ Q.  Pairs with no survivors get MAX_D = 1 + the largest
    attainable valuation gap and are listed in the returned notes.
    """
    if not spec.points:
        raise PreconditionError("metric_matrix: empty spectrum")
    if valuation is None:
        valuation = index_valuation(S)
    spread = max(max(row) - min(row) for row in valuation.values)
    max_d = 1.0 + spread
    k = len(spec.points)
    out = np.zeros((k, k))
    notes = []
    for i in range(k):
        for j in range(i + 1, k):
            union = spec.points[i].members | spec.points[j].members
            survivors = [a for a in range(S.n) if a not in union]
            if not survivors:
                d = max_d
                notes.append(f"no survivors for point pair ({i},{j}); "
                             f"distance set to MAX_D={max_d}")
            else:
                d = min(abs(valuation.of(x, a) - valuation.of(x, b))
                        for x in range(S.g) for a in survivors for b in survivors)
            out[i, j] = out[j, i] = d
    return out, tuple(notes)


@dataclass
class WeightReport:
    weights: tuple[float, ...]
    closed_set_membership: dict
    monotone: bool
    failures: tuple

    def to_dict(self) -> dict:
        return {"weights": list(self.weights),
                "monotone": self.monotone,
                "failures": [list(map(list, f)) for f in self.failures]}


def fuzzy_weights(S: FiniteTernaryGammaSemiring, spec: SpectrumSpace,
                  table: tuple[float, ...] | None = None) -> WeightReport:
    """Point weights in [0,1] plus the sup-extension over closed sets.

    Default scheme: mu(P) = 1 - |P|/|T|.  The report checks that the extended
    membership mu(V(I)) = sup over P in V(I) is decreasing as I grows.
    """
    if table is None:
        weights = tuple(1.0 - len(p.members) / S.n for p in spec.points)
    else:
        if len(table) != len(spec.points):
            raise FixtureError(f"shape error: weight table must have "
                               f"{len(spec.points)} entries")
        if any(not 0.0 <= w <= 1.0 for w in table):
            raise FixtureError("shape error: weights must lie in [0,1]")
        weights = tuple(float(w) for w in table)
    membership = {}
    for key, point_ids in spec.closed_sets.items():
        membership[key] = max((weights[p] for p in point_ids), default=0.0)
    failures = []
    for I in spec.ideals:
        for J in spec.ideals:
            if I.members <= J.members:
                if membership[I.key()] < membership[J.key()] - 1e-15:
                    failures.append((I.key(), J.key()))
    return WeightReport(weights=weights, closed_set_membership=membership,
                        monotone=not failures, failures=tuple(failures))


def jacobi_eigh(A: np.ndarray, tol: float = _OFFDIAG_TOL,
                max_sweeps: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues (descending) and an orthonormal column matrix V,
    rotated until the off-diagonal Frobenius norm is at most `tol`.  The sign
    convention makes the first entry of each column with magnitude above
    1e-12 positive.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise PreconditionError("jacobi_eigh: matrix must be square")
    if not np.allclose(A, A.T, atol=1e-12):
        raise PreconditionError("jacobi_eigh: matrix must be symmetric")
    V = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2) * 2.0)
        if off <= tol:
            break
        for p in range(n):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= tol / max(n * n, 1):
                    continue
                phi = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(phi), np.sin(phi)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
                V = V @ rot
    order = np.argsort(-np.diag(A), kind="stable")
    values = np.diag(A)[order]
    V = V[:, order]
    for col in range(n):
        for row in range(n):
            if abs(V[row, col]) > _SIGN_EPS:
                if V[row, col] < 0:
                    V[:, col] = -V[:, col]
                break
    return values, V


@dataclass
class SpectrumGraph:
    """Full embedding record for one spectrum: matrices, eigenpairs, coords."""

    structure_name: str
    point_labels: tuple[str, ...]
    metric: np.ndarray
    weights: tuple[float, ...]
    adjacency: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    coordinates: np.ndarray
    k: int
    notes: tuple[str, ...] = field(default_factory=tuple)

    def reconstruction_error(self) -> float:
        rebuilt = self.eigenvectors @ np.diag(self.eigenvalues) @ self.eigenvectors.T
        return float(np.max(np.abs(self.adjacency - rebuilt)))

    def orthonormality_error(self) -> float:
        gram = self.eigenvectors.T @ self.eigenvectors
        return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))

    def to_dict(self) -> dict:
        return {
            "structure": self.structure_name,
            "points": list(self.point_labels),
            "k": self.k,
            "metric": [[float(v) for v in row] for row in self.metric],
            "weights": list(self.weights),
            "adjacency": [[float(v) for v in row] for row in self.adjacency],
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "eigenvectors": [[float(v) for v in row] for row in self.eigenvectors],
            "coordinates": [[float(v) for v in row] for row in self.coordinates],
            "notes": list(self.notes),
        }


def embed(S: FiniteTernaryGammaSemiring, spec: SpectrumSpace, k: int = 2,
          valuation: ValuationTable | None = None,
          weight_table: tuple[float, ...] | None = None) -> SpectrumGraph:
    """Metric, weights, adjacency, eigenpairs, and top-k coordinates."""
    metric, notes = metric_matrix(S, spec, valuation)
    notes = list(notes)
    wrep = fuzzy_weights(S, spec, table=weight_table)
    if not wrep.monotone:
        notes.append("fuzzy weight extension is not monotone over the ideal lattice")
    mu = np.array(wrep.weights)
    adjacency = np.exp(-metric) * np.outer(mu, mu)
    values, vectors = jacobi_eigh(adjacency)
    npoints = len(spec.points)
    if k > npoints:
        notes.append(f"k={k} clamped to the number of points ({npoints})")
        k = npoints
    floor = min(1, npoints)
    if k < floor:
        notes.append(f"k={k} clamped to {floor}")
        k = floor
    coordinates = vectors[:, :k].copy()
    return SpectrumGraph(structure_name=S.name,
                         point_labels=spec.point_labels(S),
                         metric=metric, weights=wrep.weights,
                         adjacency=adjacency, eigenvalues=values,
                         eigenvectors=vectors, coordinates=coordinates,
                         k=k, notes=tuple(notes))


def export_graph(G: SpectrumGraph, fmt: str) -> str:
    """Render the embedding as json, dot, or csv text."""
    if fmt == "json":
        return _dump(G.to_dict()) + "\n"
    if fmt == "dot":
        lines = [f'graph "{G.structure_name}" {{']
        for i, label in enumerate(G.point_labels):
            coords = ",".join(f"{v:.6f}" for v in G.coordinates[i])
            lines.append(f'  p{i} [label="{label}" weight="{G.weights[i]:.6f}" '
                         f'pos="{coords}"];')
        n = len(G.point_labels)
        for i in range(n):
            for j in range(i + 1, n):
                lines.append(f'  p{i} -- p{j} [label="{G.adjacency[i][j]:.6f}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        header = ["point", "weight"] + [f"x{t}" for t in range(G.k)]
        lines = [",".join(header)]
        for i, label in enumerate(G.point_labels):
            row = [f'"{label}"', f"{G.weights[i]:.12g}"]
            row += [f"{v:.12g}" for v in G.coordinates[i]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"
    raise PreconditionError(f"export_graph: unknown format {fmt!r}")
