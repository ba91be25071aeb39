"""Ideal lattice, prime spectrum, Zariski-style closed sets, and localization.

An ideal is an additive submonoid that absorbs the ternary product tri in
every element slot.  Under tri-commutativity, declared and found by the axiom
check, that is the middle slot alone, so the ideals are the submodules of the
regular module, in which the structure acts on itself through tri.  All
enumerations are deterministic: subsets are ordered by cardinality then
lexicographically by sorted members.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import (FiniteTernaryGammaSemiring, IdealSet, PreconditionError,
                   _charge, distinct_rows, require_axioms, row_order, table_arrays)
from .modules import (_closure, _ideal_module, _table, enumerate_submodules, is_submodule,
                      submodule_closure)


def is_ideal_subset(S: FiniteTernaryGammaSemiring, members: frozenset[int]) -> bool:
    return is_submodule(_ideal_module(S), members)


def ideal_closure(S: FiniteTernaryGammaSemiring, seed) -> IdealSet:
    """Least ideal containing the seed."""
    return IdealSet(submodule_closure(_ideal_module(S), seed), is_ideal=True)


def enumerate_ideals(S: FiniteTernaryGammaSemiring, lenient: bool = False) -> list[IdealSet]:
    """All ideals, ordered by size then members; tests cross-check against the
    all-subsets filter."""
    _charge("enum", S.n, "enumerate_ideals: |T|")
    require_axioms(S, lenient, "enumerate_ideals")
    return [IdealSet(members, is_ideal=True)
            for members in enumerate_submodules(_ideal_module(S))]


def is_prime(S: FiniteTernaryGammaSemiring, I: IdealSet) -> bool:
    """Prime test: tri(a,x,b,y,c) in I for every parameter pair forces a factor in I."""
    if not is_ideal_subset(S, I.members):
        raise PreconditionError("is_prime: input subset is not an ideal")
    if len(I.members) == S.n:
        raise PreconditionError("is_prime: ideal must be proper")
    import numpy as np
    outside = np.ones(S.n, dtype=bool)
    outside[list(I.members)] = False
    # forced[a, b, c]: tri(a, x, b, y, c) lies in I at every parameter pair.
    forced = ~outside[table_arrays(S)[1]].any(axis=(1, 3))
    return not (forced & outside[:, None, None] & outside[:, None] & outside).any()


@dataclass
class SpectrumSpace:
    """Prime points plus the closed-set table V(I) over the full ideal lattice."""

    points: tuple[IdealSet, ...]
    ideals: tuple[IdealSet, ...]
    closed_sets: dict  # ideal key -> tuple of point indices

    def point_labels(self, S: FiniteTernaryGammaSemiring) -> tuple[str, ...]:
        return tuple("{" + ",".join(p.labels(S)) + "}" for p in self.points)

    def to_dict(self, S: FiniteTernaryGammaSemiring) -> dict:
        return {
            "points": [p.to_dict(S) for p in self.points],
            "ideals": [i.to_dict(S) for i in self.ideals],
            "closed_sets": {",".join(S.elements[i] for i in key) or "(empty)": list(val)
                            for key, val in self.closed_sets.items()},
        }


def spectrum(S: FiniteTernaryGammaSemiring, lenient: bool = False) -> SpectrumSpace:
    ideals = enumerate_ideals(S, lenient=lenient)
    proper = [i for i in ideals if len(i.members) < S.n]
    for ideal in ideals:
        ideal.is_ideal = True
        if len(ideal.members) == S.n:
            ideal.is_prime = ideal.is_maximal = False
        else:
            ideal.is_prime = is_prime(S, ideal)
            ideal.is_maximal = not any(ideal.members < other.members for other in proper)
    points = tuple(i for i in ideals if i.is_prime)
    closed = {ideal.key(): tuple(k for k, p in enumerate(points) if ideal.members <= p.members)
              for ideal in ideals}
    return SpectrumSpace(points=points, ideals=tuple(ideals), closed_sets=closed)


@dataclass
class ZariskiReport:
    t0_ok: bool
    t0_failures: tuple
    intersection_ok: bool
    intersection_failures: tuple
    inclusion_ok: bool
    inclusion_failures: tuple

    @property
    def passed(self) -> bool:
        return self.t0_ok and self.intersection_ok and self.inclusion_ok

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "t0_ok": self.t0_ok,
            "t0_failures": [list(w) for w in self.t0_failures],
            "intersection_ok": self.intersection_ok,
            "intersection_failures": [list(map(list, w)) for w in self.intersection_failures],
            "inclusion_ok": self.inclusion_ok,
            "inclusion_failures": [list(map(list, w)) for w in self.inclusion_failures],
        }


def zariski_report(S: FiniteTernaryGammaSemiring, spec: SpectrumSpace) -> ZariskiReport:
    """Check V(I) ∩ V(J) = V(I+J), inclusion reversal, and T0 separation.
    Each I+J is closed on one closure table of the ideal module."""
    v = spec.closed_sets
    table = _table(_ideal_module(S))
    inter_fail, incl_fail = [], []
    for I in spec.ideals:
        for J in spec.ideals:
            lhs = tuple(sorted(set(v[I.key()]) & set(v[J.key()])))
            rhs = v[tuple(sorted(_closure(table, I.members | J.members)))]
            if lhs != rhs:
                inter_fail.append((I.key(), J.key(), lhs, rhs))
            if I.members <= J.members and not set(v[J.key()]) <= set(v[I.key()]):
                incl_fail.append((I.key(), J.key(), v[I.key()], v[J.key()]))
    t0_fail = [(a, b) for (a, P), (b, Q) in itertools.combinations(enumerate(spec.points), 2)
               if v[P.key()] == v[Q.key()]]
    return ZariskiReport(
        t0_ok=not t0_fail, t0_failures=tuple(t0_fail),
        intersection_ok=not inter_fail, intersection_failures=tuple(inter_fail),
        inclusion_ok=not incl_fail, inclusion_failures=tuple(incl_fail))


# ---------------------------------------------------------------------------
# Localization at a prime

@dataclass
class LocalizedSemiring:
    """Fraction classes at a prime, with induced tables and locality data.

    `structure` is the induced table structure on classes; `classes[k]` lists
    the fraction pairs (numerator, denominator) making up class k.
    `well_defined` records whether the induced tables were independent of the
    representative choice; failures carry a witness description instead of
    raising.
    """

    prime: IdealSet
    structure: FiniteTernaryGammaSemiring
    classes: tuple[tuple[tuple[int, int], ...], ...]
    class_of: dict
    maximal_ideal: frozenset[int]
    well_defined: bool
    failures: tuple[str, ...]
    lenient: bool = False

    def to_dict(self, S: FiniteTernaryGammaSemiring) -> dict:
        return {
            "prime": list(self.prime.labels(S)),
            "classes": [[f"{S.elements[a]}/{S.elements[s]}" for a, s in cls]
                        for cls in self.classes],
            "maximal_ideal": sorted(self.maximal_ideal),
            "well_defined": self.well_defined,
            "failures": list(self.failures),
            "lenient": self.lenient,
        }


def _span(values, starts, axes):
    """The least and greatest class in each block that `starts` cuts `values`
    into along `axes`, ignoring -1 (no admissible denominator): the unsigned
    view puts -1 above every class, so a block of -1 alone spans from the
    unsigned maximum down to -1."""
    import numpy as np
    lo, hi = values.view(f"u{values.itemsize}"), values
    for axis in axes:
        lo = np.minimum.reduceat(lo, starts, axis=axis)
        hi = np.maximum.reduceat(hi, starts, axis=axis)
    return lo, hi


def _row_ids(a) -> tuple:
    """The distinct rows of an int matrix, sorted, and the index among them of each row."""
    import numpy as np
    order, new = row_order(a)
    ids = np.empty(len(a), dtype=np.intp)
    ids[order] = np.cumsum(new) - 1
    return a.take(order[new], axis=0), ids


def _fraction_classes(tri, denoms, nums, dens) -> list[list[int]]:
    """Classes of the fractions nums[f]/dens[f]: f ~ h iff
    tri(u,x,nums[f],y,dens[h]) = tri(u,x,nums[h],y,dens[f]) for some u in
    `denoms` and parameters x, y, closed transitively.  Both sides are rows
    of w, so each pair of distinct rows is compared once."""
    import numpy as np
    n = len(tri)
    # w[a * n + t] lists tri(u, x, a, y, t) over (u, x, y); side[f, h] numbers
    # the row w[nums[f] * n + dens[h]].
    rows, rid = _row_ids(tri[denoms].transpose(2, 4, 0, 1, 3).reshape(n * n, -1))
    side = rid.take(nums[:, None] * n + dens)
    # Links are symmetric and reflexive; labels fall to the least linked one.
    linked = (rows[:, None] == rows).any(axis=2).ravel().take(side * len(rows) + side.T)
    labels = np.arange(len(nums))
    while ((least := np.where(linked, labels, len(nums)).min(axis=1)) < labels).any():
        labels = least
    # Each class in index order, the classes by least member.
    members, sizes = np.argsort(labels, kind="stable").tolist(), np.bincount(labels)
    cuts = np.cumsum(sizes[sizes > 0]).tolist()
    return [members[b:e] for b, e in zip([0] + cuts, cuts)]


def _sum_classes(tri, add, cid, outside, nums, dens):
    """cid of the sum of fractions i and j, nums[i]/dens[i] + nums[j]/dens[j],
    over the first admissible common denominator tri(s,x,t,y,u) in (u, x, y)
    order.  Commutativity makes it symmetric.  (u, x, y) depends on the
    denominators alone, so each term is tabled over a numerator and a pair of
    denominators, and the result over all fraction pairs is gathered flat."""
    import numpy as np
    n, g = len(tri), tri.shape[1]
    denoms = np.flatnonzero(outside)
    d, s, t = len(denoms), denoms[:, None], denoms
    # P is prime, so tri(s,x,t,y,s) lies outside P for some x, y: every pair
    # of denominators has an admissible common denominator.
    first = outside[tri[s[:, :, None], :, t[:, None], :, denoms].reshape(d, d, -1)].argmax(axis=2)
    u, x, y = denoms[first // (g * g)], first // g % g, first % g
    # Per numerator and pair of denominators: flat `add` index left + right, and the denominator.
    a = np.arange(n)[:, None, None]
    left = tri[a, x, t, y, u].astype(np.intp).ravel() * n
    right, den = tri[a, x, s, y, u].ravel(), tri[s, x, t, y, u].ravel()
    p = np.searchsorted(denoms, dens)
    pair, at = p[:, None] * d + p, nums * d * d
    num = add.ravel().take(left.take(at[:, None] + pair) + right.take(at + pair))
    return cid.ravel().take(num.astype(np.intp) * n + den.take(pair))


def _product_span(tri, cid, nums, dens, bounds, rows):
    """`_span` of the class of the product tri(i, x, j, y, k) of fractions
    nums/dens over every block triple, with blocks cut at `bounds`; `rows` is
    the distinct tri rows and the index of each tri row among them.

    The class of tri(a_i,x,a_j,y,a_k)/tri(s_i,x,s_j,y,s_k) depends on
    (i, x, j, y) only through the pair of tri rows tri(a_i,x,a_j,y,·) and
    tri(s_i,x,s_j,y,·).  So each distinct row pair met in some block is
    looked up at every fraction k, as the flat cid index num * n + den, in
    chunks of at most 2^14 products, and reduced over each class of k; then
    each block (ci, x, cj, y) is reduced over its pairs.  No working array
    spans the fraction triples; only the result holds count³g²."""
    import numpy as np
    n, g, count = len(tri), tri.shape[1], len(bounds) - 1
    rows, row_of = rows
    blocks, size = (count * g) ** 2, len(rows)
    # (i, x, j, y) is keyed (block·size + num row)·size + den row in the narrowest
    # dtype holding every key.  A stable sort takes the radix path up to 16 bits
    # and pages in no SIMD sort code, which would raise the call's peak RSS.
    # Block (ci, x, cj, y) is numbered (ci·g + x)·count·g + cj·g + y.
    narrow = np.min_scalar_type(blocks * size * size - 1)
    row_of = row_of.astype(narrow).reshape(n, g, n, g)
    cls = np.repeat(np.arange(count), np.diff(bounds))
    side = (cls[:, None] * g + np.arange(g)).astype(narrow)
    keys = (side[:, :, None, None] * (count * g) + side) * size + row_of[nums][:, :, nums]
    keys = np.sort(keys * size + row_of[dens][:, :, dens], axis=None, kind="stable")
    met = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    # Every block is met, so block b's pairs start at starts[b].
    starts = np.searchsorted(met // size // size, np.arange(blocks))
    pairs, pair_of = _row_ids((met // size % size * size + met % size)[:, None])
    num_row, den_row = pairs[:, 0] // size, pairs[:, 0] % size
    num, den, flat = rows.T * n, rows.T, cid.ravel()
    hi = np.full((count, len(pairs)), -1, dtype=cid.dtype)
    lo = hi.view(f"u{hi.itemsize}").copy()
    step = max(1, (1 << 14) // len(pairs))
    for f0 in range(0, len(nums), step):
        part = slice(f0, f0 + step)
        c0, c1 = cls[f0], cls[part][-1] + 1
        vals = flat[num[nums[part]].take(num_row, axis=1) + den[dens[part]].take(den_row, axis=1)]
        # Each class's share of the chunk, reduced along the fraction axis;
        # reduceat would only copy shares of one fraction each.
        cuts = np.maximum(bounds[c0:c1], f0) - f0
        k_lo, k_hi = vals.view(lo.dtype), vals
        if len(cuts) < len(vals):
            k_lo, k_hi = np.minimum.reduceat(k_lo, cuts), np.maximum.reduceat(k_hi, cuts)
        np.minimum(lo[c0:c1], k_lo, out=lo[c0:c1])
        np.maximum(hi[c0:c1], k_hi, out=hi[c0:c1])
    lo, hi = lo.take(pair_of, axis=1), hi.take(pair_of, axis=1)
    if blocks < len(met):  # else each block holds one pair
        lo, hi = np.minimum.reduceat(lo, starts, axis=1), np.maximum.reduceat(hi, starts, axis=1)
    return tuple(k.T.reshape(count, g, count, g, count) for k in (lo, hi))


@lru_cache(maxsize=None)
def _tri_rows(S: FiniteTernaryGammaSemiring) -> tuple:
    """`distinct_rows` of S's tri rows, which hold every flat index num * n + den,
    and the index among them of each tri row."""
    import numpy as np
    rows, row_of = _row_ids(table_arrays(S)[1].reshape(-1, S.n))
    return rows.astype(np.min_scalar_type(-S.n * S.n)), row_of


def localize(S: FiniteTernaryGammaSemiring, P: IdealSet,
             lenient: bool = False) -> LocalizedSemiring:
    """Fractions a/s with s outside P, under the witnessed equivalence.

    (a,s) ~ (b,t) iff some u outside P and parameters x, y satisfy
    tri(u,x,a,y,t) = tri(u,x,b,y,s); the transitive closure is taken and the
    induced add/tri tables are checked for representative independence
    exhaustively.

    The work runs on NumPy index grids.  The equivalence compares each pair
    of distinct rows of tri values once.  The fractions are then ordered
    class by class, and `cid[num, den]` maps a fraction to its class, or to
    -1 when den lies in P.  Every sum of two representatives and every
    product of three is mapped through `cid`, and reduced over the class
    blocks to its least and greatest class: a class combination is well
    defined iff the two agree.  Products are looked up per distinct pair of
    tri rows, in chunks, so no working array holds all fraction triples.
    """
    import numpy as np
    report = require_axioms(S, lenient, "localize")
    if not is_prime(S, P):
        raise PreconditionError("localize: ideal is not prime")

    n, (add, tri) = S.n, table_arrays(S)
    outside = np.ones(n, dtype=bool)
    outside[list(P.members)] = False
    denoms = np.flatnonzero(outside)
    nums, dens = np.repeat(np.arange(n), len(denoms)), np.tile(denoms, n)
    fractions = list(zip(nums.tolist(), dens.tolist()))
    groups = _fraction_classes(tri, denoms, nums, dens)

    # Fractions are listed in sorted order, so index order is fraction order.
    classes = tuple(tuple(fractions[k] for k in cls) for cls in groups)
    class_of = {f: ci for ci, cls in enumerate(classes) for f in cls}
    failures: list[str] = []

    # From here on the fractions are taken class by class: class ci is
    # cnum[blocks[ci]]/cden[blocks[ci]].
    order = np.concatenate(groups)
    cnum, cden = nums[order], dens[order]
    bounds = np.cumsum([0] + [len(cls) for cls in groups]).tolist()
    blocks = [slice(b, e) for b, e in zip(bounds, bounds[1:])]
    # Holds -1, every class index and every flat index num * n + den.
    cid = np.full((n, n), -1, dtype=np.min_scalar_type(-n * n))
    cid[cnum, cden] = np.repeat(np.arange(len(classes)), np.diff(bounds))

    def found(values) -> list[int]:
        return distinct_rows(values[values >= 0].reshape(-1, 1)).ravel().tolist()

    sums = _sum_classes(tri, add, cid, outside, cnum, cden)
    lo, hi = _span(sums, bounds[:-1], (0, 1))
    add_table = lo.tolist()
    for ci, cj in zip(*(k.tolist() for k in np.nonzero(hi > lo))):
        failures.append(
            f"add: class {ci} + class {cj} depends on representatives "
            f"({found(sums[blocks[ci], blocks[cj]])})")

    lo, hi = _product_span(tri, cid, cnum, cden, bounds, _tri_rows(S))
    tri_classes = np.where(hi >= 0, lo, 0)
    for ci, x, cj, y, ck in zip(*(k.tolist() for k in np.nonzero((hi < 0) | (hi > lo)))):
        if hi[ci, x, cj, y, ck] < 0:
            failures.append(
                f"tri: no admissible denominator for ({ci},{cj},{ck}) "
                f"at parameters ({x},{y})")
            continue
        (a, s), (b, t), (c, u) = ((cnum[blocks[q]], cden[blocks[q]]) for q in (ci, cj, ck))
        products = cid[tri[a[:, None, None], x, b[:, None], y, c],
                       tri[s[:, None, None], x, t[:, None], y, u]]
        failures.append(
            f"tri: ({ci},{cj},{ck}) at ({x},{y}) depends on "
            f"representatives ({found(products)})")
    well_defined = not failures

    zero_class = class_of[(S.zero, int(denoms[0]))]
    unit_class = None
    if S.unit in P.members:
        failures.append("unit lies in the prime; localization has no unit class")
    elif S.unit is not None:
        unit_class = class_of[(S.unit, S.unit)]

    labels = tuple(f"{S.elements[a]}/{S.elements[s]}" for (a, s), *_ in classes)
    local = FiniteTernaryGammaSemiring(
        name=f"{S.name}_at_{{{','.join(P.labels(S))}}}",
        elements=labels, zero=zero_class, unit=unit_class, gamma=S.gamma,
        add=tuple(tuple(row) for row in add_table),
        tri=tuple(tuple(tuple(tuple(tuple(t4) for t4 in t3) for t3 in t2) for t2 in t1)
                  for t1 in tri_classes.tolist()),
        commutative=S.commutative)

    inside = ~outside[cnum]
    some, every = (f.reduceat(inside, bounds[:-1]) for f in (np.logical_or, np.logical_and))
    maximal = frozenset(np.flatnonzero(some).tolist())
    mixed = np.flatnonzero(some & ~every).tolist()
    if mixed:
        failures.append(f"classes {mixed} mix numerators inside and outside the prime")

    if unit_class is not None:
        invertible = (tri_classes[..., unit_class] == unit_class).any(axis=(1, 2, 3))
        non_invertible = frozenset(np.flatnonzero(~invertible).tolist())
        if non_invertible != maximal:
            failures.append(
                f"locality: non-invertible classes {sorted(non_invertible)} differ "
                f"from maximal ideal {sorted(maximal)}")

    return LocalizedSemiring(
        prime=P, structure=local, classes=classes, class_of=class_of,
        maximal_ideal=maximal, well_defined=well_defined,
        failures=tuple(failures), lenient=bool(report.violations))


@dataclass
class GelfandReport:
    injective: bool
    witness: tuple | None
    maximal_points: tuple[int, ...]
    vacuous: bool = False

    def to_dict(self, S=None) -> dict:
        return {
            "injective": self.injective,
            "witness": None if self.witness is None else list(self.witness),
            "maximal_points": list(self.maximal_points),
            "vacuous": self.vacuous,
        }


def gelfand_injectivity(S: FiniteTernaryGammaSemiring, spec: SpectrumSpace,
                        lenient: bool = False) -> GelfandReport:
    """Injectivity of a -> (class of a/1 at each maximal prime)."""
    if S.unit is None:
        raise PreconditionError("gelfand_injectivity: no unit declared")
    if S.n == 1:
        return GelfandReport(True, None, (), vacuous=True)
    maximal_points = tuple(k for k, p in enumerate(spec.points) if p.is_maximal)
    if not maximal_points:
        raise PreconditionError("gelfand_injectivity: no maximal ideals found")
    locals_ = [localize(S, spec.points[k], lenient=lenient) for k in maximal_points]
    images = [tuple(loc.class_of[(a, S.unit)] for loc in locals_) for a in range(S.n)]
    for a, b in itertools.combinations(range(S.n), 2):
        if images[a] == images[b]:
            return GelfandReport(False, (a, b), maximal_points)
    return GelfandReport(True, None, maximal_points)
