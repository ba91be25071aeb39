"""Seeded benchmark inputs: chains, Boolean powers, Zsum8 and B2^3-T2n.

Every structure is built in memory by the functions of
``scripts/gen_fixtures.py`` and ``tgw.core.product_structure`` plus the
chain and Zsum8 functions below, then written as fixture JSON into a scratch
directory.  The seed permutes element order and element labels (seed 0
keeps the canonical order).  A permutation is an isomorphism, so every
invariant the benchmark checks is the same on every seed.
"""

from __future__ import annotations

import importlib.util
import json
import random
from dataclasses import replace
from pathlib import Path

from tgw.core import (FiniteTernaryGammaSemiring, product_structure,
                      serialize_structure)
from tgw.modules import direct_sum, regular_module, serialize_module


def _load_gen_fixtures(root: Path):
    """Import ``scripts/gen_fixtures.py`` from the checkout (it is no package)."""
    path = root / "scripts" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("tgw_gen_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_chain(n: int) -> FiniteTernaryGammaSemiring:
    """C_n = ({0..n-1}, max, min) with one parameter; 0 is zero, n-1 is unit."""
    add = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
    tri = tuple(tuple(tuple(tuple(tuple(min(a, b, c) for c in range(n))
                                  for _ in range(1)) for b in range(n))
                      for _ in range(1)) for a in range(n))
    return FiniteTernaryGammaSemiring(
        name=f"C{n}", elements=tuple(str(i) for i in range(n)), zero=0,
        unit=n - 1, gamma=("g0",), add=add, tri=tri, commutative=True)


def build_zsum(n: int) -> FiniteTernaryGammaSemiring:
    """Z/n with tri(a,x,b,y,c) = a+b+c+x+y mod n and two parameters.

    Like the bundled Z3 it breaks zero absorption and distributivity, so its
    axiom check is witness-heavy.
    """
    g = 2
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    tri = tuple(tuple(tuple(tuple(tuple((a + b + c + x + y) % n for c in range(n))
                                  for y in range(g)) for b in range(n))
                      for x in range(g)) for a in range(n))
    return FiniteTernaryGammaSemiring(
        name=f"Zsum{n}", elements=tuple(str(i) for i in range(n)), zero=0,
        unit=None, gamma=("g0", "g1"), add=add, tri=tri, commutative=True)


def boolean_power(b2: FiniteTernaryGammaSemiring, k: int) -> FiniteTernaryGammaSemiring:
    power = b2
    for i in range(2, k + 1):
        power = product_structure(power, b2, f"B2^{i}")
    return power


def permute(S: FiniteTernaryGammaSemiring, rng: random.Random | None):
    """Reorder the elements of S and reassign its labels; None is the identity.

    Returns the permuted structure and ``order``, where ``order[new] = old``
    gives the element placed at each new index.  The element at new index k
    takes the k-th label of an independently shuffled label list.
    """
    n = S.n
    if rng is None:
        return S, list(range(n))
    order = list(range(n))
    rng.shuffle(order)
    pos = [0] * n
    for new, old in enumerate(order):
        pos[old] = new
    labels = list(S.elements)
    rng.shuffle(labels)
    add = tuple(tuple(pos[S.add[i][j]] for j in order) for i in order)
    g = range(S.g)
    tri = tuple(tuple(tuple(tuple(tuple(pos[S.tri[a][x][b][y][c]] for c in order)
                                  for y in g) for b in order) for x in g)
                for a in order)
    return replace(S, elements=tuple(labels), zero=pos[S.zero],
                   unit=None if S.unit is None else pos[S.unit],
                   add=add, tri=tri), order


def write_inputs(root: Path, outdir: Path, seed: int, ids) -> dict[str, str]:
    """Write the fixtures named in ``ids`` for ``seed``; return id -> path.

    Ids: C8, C12, B2p3, B2p4, Zsum8, B2p3-T2n, and C12-valuation (the
    valuation that gives each element of C12 its canonical index, so the
    embedding does not depend on the seed).
    """
    ids = set(ids)
    gen = _load_gen_fixtures(root)
    makers = {
        "C8": lambda: build_chain(8),
        "C12": lambda: build_chain(12),
        "B2p3": lambda: boolean_power(gen.build_b2(), 3),
        "B2p4": lambda: boolean_power(gen.build_b2(), 4),
        "Zsum8": lambda: build_zsum(8),
    }
    outdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, str] = {}

    def write(fid: str, text: str) -> None:
        path = outdir / f"{fid}.json"
        path.write_text(text, encoding="utf-8")
        paths[fid] = str(path)

    for fid, make in makers.items():
        if not ids & {fid, f"{fid}-T2n", f"{fid}-valuation"}:
            continue
        # One generator per structure, so its permutation does not depend on
        # which other inputs a workload asks for.
        S, order = permute(make(), None if seed == 0 else random.Random(f"{seed}:{fid}"))
        if fid == "B2p3" and "B2p3-T2n" in ids:
            reg = regular_module(S)
            t2n = replace(direct_sum(reg, reg, name="B2^3-T2n"), m2_profile="nested")
            write("B2p3-T2n", serialize_module(t2n))
        if fid == "C12" and "C12-valuation" in ids:
            values = [float(old) for old in order]
            write("C12-valuation", json.dumps({x: values for x in S.gamma}))
        if fid in ids:
            write(fid, serialize_structure(S))
    return paths
