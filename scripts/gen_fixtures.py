#!/usr/bin/env python3
"""Regenerate the bundled fixture JSON files under src/tgw/data/.

The fixture bytes are derived data; this script is their single source of
truth.  Run it after changing a builder and commit the result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tgw.core import (FiniteTernaryGammaSemiring, product_structure,
                      serialize_structure)
from tgw.modules import (GammaModule, direct_sum, regular_module,
                         serialize_module, zero_module)

DATA = ROOT / "src" / "tgw" / "data"


def build_b2() -> FiniteTernaryGammaSemiring:
    """Two-element Boolean structure: addition is OR, tri is AND of all three
    element slots, independent of the parameters."""
    n, g = 2, 2
    add = tuple(tuple(int(i or j) for j in range(n)) for i in range(n))
    tri = tuple(tuple(tuple(tuple(tuple(int(a and b and c) for c in range(n))
                                  for _ in range(g)) for b in range(n))
                      for _ in range(g)) for a in range(n))
    return FiniteTernaryGammaSemiring(
        name="B2", elements=("0", "1"), zero=0, unit=1, gamma=("g0", "g1"),
        add=add, tri=tri, commutative=True)


def build_z3() -> FiniteTernaryGammaSemiring:
    """Mod-3 structure with tri(a,x,b,y,c) = a+b+c+x+y (mod 3).

    Deliberately kept exactly as stated even though it breaks zero absorption
    and distributivity; the axiom checker is expected to flag it and lenient
    mode is expected to carry on.
    """
    n, g = 3, 2
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    tri = tuple(tuple(tuple(tuple(tuple((a + b + c + x + y) % n for c in range(n))
                                  for y in range(g)) for b in range(n))
                      for x in range(g)) for a in range(n))
    return FiniteTernaryGammaSemiring(
        name="Z3", elements=("0", "1", "2"), zero=0, unit=None,
        gamma=("g0", "g1"), add=add, tri=tri, commutative=True)


def build_z3_regular(z3: FiniteTernaryGammaSemiring) -> GammaModule:
    """Carrier Z3 with act(a,x,m,y,b) = a+m+b+x+y (mod 3)."""
    cols = (tuple((a + m + b + x + y) % 3 for m in range(3)) for a, x, y, b in z3.quads)
    return GammaModule(name="Z3-regular", base=z3, carrier=("0", "1", "2"),
                       zero=0, madd=z3.add, columns=cols,
                       column_of=range(len(z3.quads)), m2_profile="none")


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    b2 = build_b2()
    z3 = build_z3()
    b2xb2 = product_structure(b2, b2, "B2xB2")

    structures = {"b2.json": b2, "z3.json": z3, "b2xb2.json": b2xb2}
    for filename, s in structures.items():
        (DATA / filename).write_text(serialize_structure(s), encoding="utf-8")

    b2_reg = regular_module(b2, "B2-regular")
    modules = {
        "b2_regular.json": b2_reg,
        "b2_t2.json": direct_sum(b2_reg, b2_reg, name="B2-T2"),
        "b2_zero.json": zero_module(b2, "B2-zero"),
        "z3_regular.json": build_z3_regular(z3),
        "z3_zero.json": zero_module(z3, "Z3-zero"),
        "b2xb2_regular.json": regular_module(b2xb2, "B2xB2-regular"),
        "b2xb2_zero.json": zero_module(b2xb2, "B2xB2-zero"),
    }
    for filename, m in modules.items():
        (DATA / filename).write_text(serialize_module(m), encoding="utf-8")
    print(f"wrote {len(structures)} structures and {len(modules)} modules to {DATA}")


if __name__ == "__main__":
    main()
