"""Free modules and resolutions, tensor products, Ext and Tor in degrees 0
and 1, the tensor-Hom adjunction, and the pointwise ternary structure on hom
sets.

Tensor products are finite monoid presentations: the free additive semigroup
on generator pairs m⊗n modulo bilinearity in both slots and the balance law
act(a,x,m,y,b)⊗n ~ m⊗act(a,x,n,y,b).  Three engines realize the quotient:

* group - both carrier additions are abelian groups; relation differences
  span an integer lattice and the quotient comes from a diagonalized relation
  matrix, whose column operations number the classes.
* reduced states - every pair, exactly: left-linearity folds a sum of
  generators into a function from the columns of one carrier to the other;
  the generators in columns outside a module-generating set are eliminated,
  a Tietze transformation (`_reduction` cites it), so the quotient is a
  congruence on functions from a few columns.  Idempotent pairs number its
  classes by their closed sets of generators, all others by their least
  full functions.
* Horn closure (`horn`, loaded only for these) - idempotent pairs whose
  reduced states exceed the state limit: the classes are the sets of
  generators closed under the relations read as Horn rules, closed many
  sets at a time as rows of one boolean matrix, and numbered as the
  reduced states number them.

Each reads one relation array, each row once, where it first occurs, and
computes only the quotient: the class of each generator, the class addition
table and a representative sum of generators per class.  Tor's induced maps
read these quotients and that array alone.  `tensor` folds generator classes
through the table to build the induced module, checks the induced action on
every relation row and checks the module laws.

Every presentation records the relation schemas that were imposed, so results
are auditable.  Each search charges a limit of `core.BUDGETS`: free-module
carriers and group quotients "carrier", reduced state spaces "state" (which
idempotent pairs never exceed: past it they take the Horn closure), and the
search nodes of hom sets and presentation isomorphisms "hom".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .core import (BUDGETS, FiniteTernaryGammaSemiring, PreconditionError, _charge,
                   bourne_classes, row_order)
from .modules import (GammaModule, ModuleHom, _column_pairs, _homs, _pointwise_sums,
                      check_module_axioms, generating_set, hom_set, hom_violation,
                      require_module_axioms, regular_module, sub_module,
                      is_submodule, cyclic_module_catalog,
                      jacobson_radical)


# ---------------------------------------------------------------------------
# Monoid presentations

@dataclass(frozen=True)
class MonoidPresentation:
    """Finite commutative monoid given by classes and an addition table."""

    name: str
    classes: tuple[str, ...]
    reps: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    zero: int
    structure_tag: str
    relations: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.classes)

    @property
    def is_trivial(self) -> bool:
        return self.size == 1

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "classes": list(self.classes),
            "reps": list(self.reps),
            "add": [list(r) for r in self.add],
            "zero": self.zero,
            "structure_tag": self.structure_tag,
            "approximate": False,
            "relations": list(self.relations),
        }


def _structure_tag(add, zero) -> str:
    k = len(add)
    if k == 1:
        return "trivial"
    for c in range(k):
        orbit = set()
        cur = c
        while cur not in orbit:
            orbit.add(cur)
            cur = add[cur][c]
        if len(orbit | {zero}) == k:
            return f"cyclic-{k}"
    return f"monoid-{k}"


def make_presentation(name, labels, reps, add_rows, zero,
                      relations=()) -> MonoidPresentation:
    add = tuple(tuple(row) for row in add_rows)
    return MonoidPresentation(name=name, classes=tuple(labels), reps=tuple(reps),
                              add=add, zero=zero,
                              structure_tag=_structure_tag(add, zero),
                              relations=tuple(relations))


def find_presentation_isomorphism(A: MonoidPresentation, B: MonoidPresentation):
    """Zero-preserving bijection matching the addition tables, or None: the hom
    search of `modules._homs` over monoids with no action columns."""
    if A.size != B.size:
        return None
    return next(_homs((A.add, A.zero, ((),) * A.size), (B.add, B.zero, ((),) * B.size),
                      True), None)


def bourne_quotient_presentation(name, add, zero, members, sub, reps, error,
                                 relations=()) -> MonoidPresentation:
    """Kernel modulo image: the submonoid `members` of the finite commutative
    monoid with addition table `add` and zero `zero`, modulo the Bourne
    congruence of its submonoid `sub` (i ~ j when i + h = j + h' for some h, h'
    in `sub`).  Members are numbered in the order given; `reps` labels every
    element of the ambient monoid, and elements of `sub` outside `members` are
    ignored.  Raises PreconditionError(error) when the zero or a sum of two
    members is not a member."""
    pos = {m: k for k, m in enumerate(members)}
    if zero not in pos:
        raise PreconditionError(error)

    def add_fn(i, j):
        k = pos.get(add[members[i]][members[j]])
        if k is None:
            raise PreconditionError(error)
        return k

    classes = bourne_classes(len(pos), add_fn, [pos[h] for h in sub if h in pos])
    class_of = {i: ci for ci, cls in enumerate(classes) for i in cls}
    add_rows = []
    for ci, cls_i in enumerate(classes):
        row = []
        for cj, cls_j in enumerate(classes):
            results = {class_of[add_fn(a, b)] for a in cls_i for b in cls_j}
            if len(results) > 1:
                raise PreconditionError(
                    f"{name}: Bourne quotient addition is representative-dependent "
                    f"at classes ({ci},{cj})")
            row.append(results.pop())
        add_rows.append(row)
    labels = tuple(f"c{k}" for k in range(len(classes)))
    out_reps = tuple("~".join(reps[members[i]] for i in cls[:3]) for cls in classes)
    return make_presentation(name, labels, out_reps, add_rows,
                             class_of[pos[zero]], relations=relations)


# ---------------------------------------------------------------------------
# Free modules and resolutions

def free_carrier_tuples(S: FiniteTernaryGammaSemiring, r: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(S.n), repeat=r))


def free_module(S: FiniteTernaryGammaSemiring, r: int) -> GammaModule:
    """Rank-r free module: carrier T^r with componentwise tables.  Its size is
    charged on every call; the module is built once per structure and rank."""
    if S.unit is None:
        raise PreconditionError("free_module: structure has no unit for basis vectors")
    _charge("carrier", S.n ** r, "free_module: carrier size")
    return _free_module(S, r)


@lru_cache(maxsize=None)
def _free_module(S: FiniteTernaryGammaSemiring, r: int) -> GammaModule:
    tuples = free_carrier_tuples(S, r)
    idx = {t: k for k, t in enumerate(tuples)}
    labels = tuple(S.elements[t[0]] if r == 1 else f"({','.join(S.elements[i] for i in t)})"
                   for t in tuples)
    madd = tuple(tuple(idx[tuple(S.add[a[i]][b[i]] for i in range(r))] for b in tuples)
                 for a in tuples)
    reg = regular_module(S)
    cols = (tuple(idx[tuple(col[e] for e in t)] for t in tuples) for col in reg.columns)
    return GammaModule(name=f"{S.name}^{r}", base=S, carrier=labels,
                       zero=idx[tuple(S.zero for _ in range(r))],
                       madd=madd, columns=cols, column_of=reg.column_of, m2_profile="none")


@dataclass
class FreeResolution:
    module: GammaModule
    generators: tuple[int, ...]
    ranks: tuple[int, int, int]
    p0: GammaModule
    p1: GammaModule
    p2: GammaModule
    aug: ModuleHom
    d1: ModuleHom
    d2: ModuleHom
    aug_surjective: bool
    exact_at_p0: bool
    exact_at_p1: bool
    notes: tuple[str, ...]


def _covering_map(S, target: GammaModule, gens):
    """Free module on `gens` with the evaluation map sending (a_i) to
    sum_i act(a_i, x0, gens_i, y0, unit) inside `target`, at the first
    parameters x0 = y0 = 0."""
    p = free_module(S, len(gens))
    # The column of each a at (a, 0, 0, unit): one quad in every |quads| / |T|.
    cols = [target.columns[i] for i in target.column_of[S.unit::len(S.quads) // S.n]]
    mapping = tuple(target.sum_of(cols[a][g] for a, g in zip(tup, gens))
                    for tup in free_carrier_tuples(S, len(gens)))
    return p, mapping


def free_resolution(S: FiniteTernaryGammaSemiring, M: GammaModule,
                    lenient: bool = False) -> FreeResolution:
    """Two-step free resolution P2 -> P1 -> P0 -> M with exactness checks.
    Each step covers the kernel of the step before it by a free module; the
    augmentation covers M itself, so its exactness is surjectivity."""
    if S.unit is None:
        raise PreconditionError("free_resolution: structure has no unit")
    require_module_axioms(M, lenient, "free_resolution")
    notes, maps, covers, exact = [], [], [], []
    target, members = M, frozenset(range(M.size))
    for name, before in (("augmentation", None), ("d1", "the augmentation"), ("d2", "d1")):
        if maps:
            members = frozenset(i for i, v in enumerate(maps[-1].map)
                                if v == maps[-1].target.zero)
            if not is_submodule(target, members):
                raise PreconditionError(f"free_resolution: kernel of {before} "
                                        "is not a submodule")
        order = sorted(members)
        covers.append(tuple(order[g] for g in generating_set(sub_module(target, members))))
        source, mapping = _covering_map(S, target, covers[-1])
        verified = hom_violation(source, target, mapping) is None
        if not verified:
            notes.append(f"{name} fails the homomorphism laws")
        exact.append(frozenset(mapping) == members)
        if not exact[-1]:
            notes.append(f"image of {name} differs from kernel of {before}" if before
                         else "augmentation is not surjective")
        maps.append(ModuleHom(source, target, mapping, verified))
        target = source
    aug, d1, d2 = maps
    return FreeResolution(
        module=M, generators=covers[0], ranks=tuple(map(len, covers)),
        p0=aug.source, p1=d1.source, p2=d2.source, aug=aug, d1=d1, d2=d2,
        aug_surjective=exact[0], exact_at_p0=exact[1], exact_at_p1=exact[2],
        notes=tuple(notes))


# ---------------------------------------------------------------------------
# Tensor products

def _tensor_relations(M: GammaModule, N: GammaModule):
    """Relation rows (l, r1, r2) over the generators m·|N| + n: generator l
    equals r1 + r2, or r1 alone when r2 = -1.  Plus schema descriptions."""
    S = M.base
    size = N.size
    narrow = np.min_scalar_type(-M.size * size)

    def rows(l, r1, r2):
        return np.stack([a.ravel() for a in np.broadcast_arrays(l, r1, r2)], 1, dtype=narrow)

    m1, m2, n = np.ix_(range(M.size), range(M.size), range(size))
    left = rows(np.asarray(M.madd)[m1, m2] * size + n, m1 * size + n, m2 * size + n)
    m, n1, n2 = np.ix_(range(M.size), range(size), range(size))
    right = rows(m * size + np.asarray(N.madd)[n1, n2], m * size + n1, m * size + n2)
    # The balance relations keep the nesting order (a, x, m, y, b, n), one
    # row per quad rather than per column: the group backend's diagonalization
    # follows the relation order.  `S.quads` lists (a, x, y, b) in product order.
    a, x, m, y, b, n = np.ix_(range(S.n), range(S.g), range(M.size), range(S.g),
                              range(S.n), range(size))
    k = ((a * S.g + x) * S.g + y) * S.n + b
    mk, nk = (np.asarray(X.columns)[np.asarray(X.column_of)] for X in (M, N))
    balance = rows(mk[k, m] * size + n, m * size + nk[k, n], -1)
    rels = np.concatenate([left, right, balance[balance[:, 0] != balance[:, 1]]])
    descriptions = (
        f"(m+m')⊗n ~ m⊗n + m'⊗n for all m,m' in {M.name}, n in {N.name}",
        f"m⊗(n+n') ~ m⊗n + m⊗n' for all m in {M.name}, n,n' in {N.name}",
        f"act(a,x,m,y,b)⊗n ~ m⊗act(a,x,n,y,b) for all a,b,x,y "
        f"({len(S.quads) * M.size * N.size} instances)",
    )
    return rels, descriptions


def _is_idempotent(M: GammaModule) -> bool:
    return all(M.madd[i][i] == i for i in range(M.size))


def _is_group(M: GammaModule) -> bool:
    return all(any(M.madd[i][j] == M.zero for j in range(M.size))
               for i in range(M.size))


@dataclass
class TensorQuotient:
    """The presentation of M⊗N.  Generator m⊗n is index m·|N| + n:
    `gen_class` maps each to its class, `relations` holds each row of
    `_tensor_relations` once, where it first occurs, and `rep_gens[c]` lists
    the generators whose sum represents class c."""

    presentation: MonoidPresentation
    backend: str
    gen_class: np.ndarray
    notes: tuple[str, ...]
    relations: np.ndarray = field(repr=False)
    rep_gens: list = field(repr=False)

    @property
    def size(self) -> int:
        return self.presentation.size


@dataclass
class TensorResult(TensorQuotient):
    """The presentation of M⊗N and its induced module."""

    module: GammaModule
    module_action_ok: bool


def _gen_label(M, N, g) -> str:
    return f"{M.carrier[g // N.size]}⊗{N.carrier[g % N.size]}"


def _first_generators(gen_class) -> dict:
    """Each class that a generator lands in, mapped to its first generator."""
    first = {}
    for g, c in enumerate(gen_class.tolist()):
        first.setdefault(c, g)
    return first


def _rep_labels(M, N, gen_class, rep_gens) -> list[str]:
    """Each class's first generator, else the first three generators of its
    representative."""
    first = _first_generators(gen_class)
    return [_gen_label(M, N, first[c]) if c in first
            else "+".join(_gen_label(M, N, g) for g in rep[:3])
            for c, rep in enumerate(rep_gens)]


def _class_sums(table, classes, rep_gens):
    """Row c is the class of the sum of `rep_gens[c]`: the classes of its
    generators (rows of `classes`) folded left through the addition `table`."""
    out = classes[[rep[0] for rep in rep_gens]]
    for j in range(1, max(map(len, rep_gens))):
        live = [c for c, rep in enumerate(rep_gens) if len(rep) > j]
        out[live] = table[out[live], classes[[rep_gens[c][j] for c in live]]]
    return out


def _respects(rels, table, classes) -> bool:
    """Whether each relation row lands on one class under g -> classes[g]."""
    l, r1, r2 = rels.T
    pair = r2 >= 0
    rhs = classes[r1]
    rhs[pair] = table[rhs[pair], classes[r2[pair]]]
    return np.array_equal(classes[l], rhs)


def _smith_diagonal(rows, n):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (diag, V) where V accumulates the column operations: the quotient
    of Z^n by the row span is read off coordinatewise after the change of
    basis y = x·V.
    """
    A = [list(r) for r in rows]
    m = len(A)
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_op(j1, j2, q):
        for row in A:
            row[j2] -= q * row[j1]
        for row in V:
            row[j2] -= q * row[j1]

    def col_swap(j1, j2):
        for row in A:
            row[j1], row[j2] = row[j2], row[j1]
        for row in V:
            row[j1], row[j2] = row[j2], row[j1]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (pivot is None
                                     or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        if pj != t:
            col_swap(t, pj)
        while True:
            moved = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    for j in range(n):
                        A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        moved = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(t, j, q)
                    if A[t][j]:
                        col_swap(t, j)
                        moved = True
            if not moved:
                break
        t += 1
    return [abs(A[i][i]) if i < m else 0 for i in range(n)], V


def _tensor_group(M: GammaModule, N: GammaModule, name, rels):
    G = M.size * N.size
    vecs = np.zeros((len(rels), G), dtype=np.int64)
    for sign, col in ((1, rels[:, 0]), (-1, rels[:, 1]), (-1, rels[:, 2])):
        used = col >= 0
        np.add.at(vecs, (np.flatnonzero(used), col[used]), sign)
    diag, V = _smith_diagonal(vecs[vecs.any(axis=1)].tolist(), G)
    # Row k of V holds generator k's coordinates after the change of basis.
    if any(diag[j] == 0 and any(V[k][j] != 0 for k in range(G)) for j in range(G)):
        raise PreconditionError(f"{name}: group backend found an infinite quotient; "
                                f"the carrier additions are not genuinely group-like")
    live = [j for j in range(G) if diag[j] > 1]
    _charge("carrier", math.prod(diag[j] for j in live), f"{name}: group quotient order")
    classes = list(itertools.product(*[range(diag[j]) for j in live]))
    index = {c: k for k, c in enumerate(classes)}
    add_rows = [[index[tuple((a[t] + b[t]) % diag[j] for t, j in enumerate(live))]
                 for b in classes] for a in classes]
    gen_class = np.array([index[tuple(V[k][j] % diag[j] for j in live)] for k in range(G)])
    zero_class = index[tuple(0 for _ in live)]
    notes = []
    if gen_class[M.zero * N.size + N.zero] != zero_class:
        notes.append("zero generator does not map to the zero class")
    # A class with a generator is represented by its first one; the rest are
    # reached breadth-first through the addition table.  The generator
    # classes generate a submonoid of a finite group, which is the quotient.
    first = _first_generators(gen_class)
    rep_gens = [None] * len(classes)
    for c, g in first.items():
        rep_gens[c] = [g]
    queue = list(first)
    for c in queue:
        for d, g in first.items():
            s = add_rows[c][d]
            if rep_gens[s] is None:
                rep_gens[s] = rep_gens[c] + [g]
                queue.append(s)
    labels = [_gen_label(M, N, first[c]) if c in first else "aggregate"
              for c in range(len(classes))]
    return add_rows, zero_class, gen_class, rep_gens, labels, notes


def _merge(label, a, b) -> bool:
    """Unite the classes of the pairs (a[i], b[i]) in `label`, each state's
    least class member: hook the larger label of each differing pair under
    the smaller (under one of them, where pairs share the larger) and jump
    pointers until all agree; True if any merged."""
    merged = False
    while (differ := label[a] != label[b]).any():
        la, lb = label[a[differ]], label[b[differ]]
        label[np.maximum(la, lb)] = np.minimum(la, lb)
        while not np.array_equal(jumped := label[label], label):
            label[:] = jumped
        merged = True
    return merged


def _reduction(A: GammaModule, B: GammaModule):
    """A's addition `plus` with an identity E = |A| adjoined (an empty
    column), `red[u, b]`, the reduced state of u⊗b, and the kept columns K.

    From the columns of `generating_set(B)`, breadth first and by actions
    before sums, a balance row rewrites u⊗act_k(x) as act_k(u)⊗x and a
    linearity row u⊗(x + y) as u⊗x + u⊗y.  Eliminating the generators of the
    columns so derived is a Tietze transformation (Ruškuc, Semigroup
    Presentations, St Andrews 1995): the generators of the kept columns,
    those not derived (any column not reached among them), present the same
    monoid, and red[u, b] holds a value of A + E in each kept column."""
    E = A.size
    plus = np.empty((E + 1, E + 1), dtype=np.int64)
    plus[:E, :E] = A.madd
    plus[E, :] = plus[:, E] = np.arange(E + 1)
    pairs = _column_pairs(A, B)  # one quad per distinct pair of columns
    a_cols = np.asarray(A.columns)[[i for i, _ in pairs]]
    b_cols, b_add = np.asarray(B.columns)[[j for _, j in pairs]], np.asarray(B.madd)
    # red[u, b] starts as u⊗b itself, in its own column.
    red = np.full((E, B.size, B.size), E, dtype=np.min_scalar_type(E))
    red[:, range(B.size), range(B.size)] = np.arange(E)[:, None]
    known = np.zeros(B.size, dtype=bool)
    derived = known.copy()
    queue = list(generating_set(B))
    known[queue] = True
    while queue:
        for x in queue:
            for b, a_col in zip(b_cols[:, x].tolist(), a_cols):
                if not known[b]:
                    known[b] = derived[b] = True
                    red[:, b] = red[a_col, x]
                    queue.append(b)
        # Each new column that a sum of known columns reaches, from one such
        # pair (any will do); the sums are collected once per round.
        pairs = np.argwhere(known[:, None] & known & ~known[b_add]).tolist()
        via = {b_add[x, y]: (x, y) for x, y in pairs}
        for b, (x, y) in via.items():
            red[:, b] = plus[red[:, x], red[:, y]]
        queue = list(via)
        known[queue] = derived[queue] = True
    return plus, red, np.flatnonzero(~derived)


def _tensor_reduced(M: GammaModule, N: GammaModule, name, rels, idempotent: bool):
    """Exact tensor of any pair of modules over one base.

    Left-linearity folds each column of a sum of generators a⊗n into one
    element of A, with an identity E adjoined for an empty column; (A, B) is
    (M, N) or (N, M), whichever has fewer such full states (A + E)^B.
    `_reduction` keeps the columns K of B that present the same monoid, and
    the tensor is the quotient of the reduced states (A + E)^K by the least
    equivalence that holds the relation rows, mapped to states, and is
    closed under adding each kept generator, minus the all-E state.  With
    `idempotent`, class c is numbered by its closed set
    {g : c + class(g) = c}, by size, then by bitmask Σ 2^g, and represented
    by its members; otherwise by `_least_full_states`.  The closed sets read
    the quotient alone, so an idempotent pair that keeps several columns
    takes whichever orientation has fewer reduced states, and past the state
    limit `horn.tensor_idempotent`."""
    flip = (N.size + 1) ** M.size < (M.size + 1) ** N.size
    options = [(flip, *_reduction(*((N, M) if flip else (M, N))))]
    if idempotent and len(options[0][3]) > 1:
        options.append((not flip, *_reduction(*((M, N) if flip else (N, M)))))
    flip, plus, red, kept = min(options, key=lambda o: len(o[1]) ** len(o[3]))
    E = len(plus) - 1
    total = (E + 1) ** len(kept)
    if idempotent and total > BUDGETS["state"]:
        from .horn import tensor_idempotent
        return tensor_idempotent(M, N, name, rels)
    _charge("state", total, f"{name}: tensor states")
    # State k has the column values digits[k], and digits[k] · place == k;
    # the all-E state is the last one.
    place = np.array([(E + 1) ** k for k in range(len(kept) - 1, -1, -1)])
    states = np.arange(total)
    digits = np.indices((E + 1,) * len(kept)).reshape(len(kept), total).T

    # Generator m⊗n as an element u of A in a column, and its state.
    m, n = np.indices((M.size, N.size)).reshape(2, -1)
    u, col = (n, m) if flip else (m, n)
    gen_digits = red[u, col][:, kept]
    gen_state = (gen_digits * place).sum(1)
    l, r1, r2 = rels.T
    pair = r2 >= 0
    rhs = gen_state[r1]
    rhs[pair] = (plus[gen_digits[r1[pair]], gen_digits[r2[pair]]] * place).sum(1)
    label = states.copy()
    merged = _merge(label, gen_state[l], rhs)
    while merged:
        merged = False
        # Adding generator v in column c changes column c alone.
        for c, v in itertools.product(range(len(kept)), range(E)):
            t = states + (plus[digits[:, c], v] - digits[:, c]) * place[c]
            z = np.flatnonzero(label != states)
            merged |= _merge(label, t[z], t[label[z]])
    # A relation side is never all-E, so the all-E state is a class of its
    # own, and the last one; it is left out.
    roots = np.flatnonzero(label == states)[:-1]
    class_of = (np.cumsum(label == states) - 1)[label]
    reps = digits[roots]
    table = np.array([class_of[(plus[r, reps] * place).sum(1)] for r in reps])
    gen_class = class_of[gen_state]
    if idempotent:
        closed = table[:, gen_class] == np.arange(len(roots))[:, None]
        order = np.lexsort(np.c_[closed, closed.sum(1)].T)
        rep_gens = [np.flatnonzero(row).tolist() for row in closed[order]]
    else:
        gen_at = np.empty((E, red.shape[1]), dtype=np.int64)
        gen_at[u, col] = np.arange(M.size * N.size)
        least = _least_full_states(table, gen_class[gen_at])
        order = np.lexsort(least.T[::-1])
        rep_gens = [[gen_at[v, c] for c, v in enumerate(row) if v != E]
                    for row in least[order].tolist()]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    gen_class = rank[gen_class]
    return (rank[table[np.ix_(order, order)]].tolist(),
            int(gen_class[M.zero * N.size + N.zero]), gen_class, rep_gens,
            _rep_labels(M, N, gen_class, rep_gens), [])


def _least_full_states(table, gen_class):
    """Row c is the least full state of class c, column 0 the most significant
    digit and the empty value E = |A| the largest, found without listing the
    full states: the class of value v < E in column b is `gen_class[v, b]`,
    and a full state's class is the sum of its columns' classes.  A backward
    pass finds the classes (ε for the empty sum) that each suffix of columns
    sums to; a forward pass picks, for all classes at once, the least value
    in each column from which the class can still be reached."""
    size, cols = len(table), gen_class.shape[1]
    full = np.empty((size + 1, size + 1), dtype=np.int64)
    full[:size, :size] = table
    full[size, :] = full[:, size] = np.arange(size + 1)
    values = np.vstack([gen_class, np.full(cols, size)])  # class `size` is ε
    suffix = np.zeros((cols + 1, size + 1), dtype=bool)
    suffix[cols, size] = True
    for c in range(cols - 1, -1, -1):
        suffix[c, full[np.ix_(values[:, c], np.flatnonzero(suffix[c + 1]))]] = True
    classes = np.arange(size)
    prefix = np.full(size, size)
    least = np.empty((size, cols), dtype=np.int64)
    for c in range(cols):
        # reach[q, t]: prefix class q plus some sum of the later columns is t.
        reach = np.zeros((size + 1, size + 1), dtype=bool)
        reach[np.arange(size + 1)[:, None], full[:, suffix[c + 1]]] = True
        step = full[prefix[:, None], values[:, c]]
        least[:, c] = reach[step, classes[:, None]].argmax(1)
        prefix = step[classes, least[:, c]]
    return least


def _tensor_quotient(M: GammaModule, N: GammaModule, backend: str = "auto",
                     lenient: bool = False) -> TensorQuotient:
    """The presentation of M⊗N from the backend that `tensor` picks."""
    if M.base != N.base:
        raise PreconditionError("tensor: modules live over different bases")
    require_module_axioms(M, lenient, "tensor")
    require_module_axioms(N, lenient, "tensor")
    name = f"{M.name}(x){N.name}"
    idem = _is_idempotent(M) and _is_idempotent(N)
    group = _is_group(M) and _is_group(N)
    if backend == "auto":
        backend = "idempotent" if idem else ("group" if group else "saturation")
    if backend == "idempotent" and not idem:
        raise PreconditionError("tensor: idempotent backend needs idempotent "
                                "additions on both carriers")
    if backend == "group" and not group:
        raise PreconditionError("tensor: group backend needs group additions "
                                "on both carriers")
    quotient = {"idempotent": partial(_tensor_reduced, idempotent=True), "group": _tensor_group,
                "saturation": partial(_tensor_reduced, idempotent=False)}.get(backend)
    if quotient is None:
        raise PreconditionError(f"tensor: unknown backend {backend!r}")
    # Many quads act alike, so relation rows repeat.  Each is kept once, where
    # it first occurs, as the group backend follows the relation order.
    rels, descriptions = _tensor_relations(M, N)
    order, new = row_order(rels)
    first = np.zeros(len(rels), dtype=bool)
    first[order[new]] = True
    rels = rels.compress(first, axis=0)
    add_rows, zero, gen_class, rep_gens, labels, notes = quotient(M, N, name, rels)
    pres = make_presentation(name, [f"c{k}" for k in range(len(add_rows))], labels,
                             add_rows, zero, relations=descriptions)
    return TensorQuotient(presentation=pres, backend=backend, gen_class=gen_class,
                          notes=tuple(notes), relations=rels, rep_gens=rep_gens)


def tensor(M: GammaModule, N: GammaModule, backend: str = "auto",
           lenient: bool = False) -> TensorResult:
    """Tensor product presentation over the common base, and its induced
    module.

    `auto` picks `idempotent` when both additions are idempotent, `group`
    when both are groups, and otherwise `saturation`.  All but `group` run
    one engine over reduced states (`_tensor_reduced`), which takes every
    pair and charges its state count to the "state" limit of `core.BUDGETS`;
    `idempotent` numbers the classes by their closed sets of generators and
    `saturation` by their least full states.  An idempotent pair past that
    limit takes the Horn closure instead (`horn.tensor_idempotent`), with the
    same numbering.  Each backend computes only the
    quotient (`_tensor_quotient`, all that Tor reads); the induced action
    act(a, x, m⊗n, y, b) = act(a, x, m, y, b)⊗n is built here for all three,
    from each class's representative, and is well defined exactly when, at
    each of M's action columns, every relation row lands on one class.  (The action is
    additive on the free monoid, so the pairs it respects form a congruence,
    which holds the generated one as soon as it holds the relations.)  The
    induced module is then checked against the module laws."""
    q = _tensor_quotient(M, N, backend, lenient)
    pres, gen_class, notes = q.presentation, q.gen_class, list(q.notes)
    table = np.array(pres.add)
    # acted[g, i] is the class of act(m)⊗n in M's column i, for g = m·|N| + n.
    acted = gen_class[np.asarray(M.columns).T[:, None, :] * N.size
                      + np.arange(N.size)[:, None]].reshape(len(gen_class), -1)
    action_ok = all(_respects(q.relations, table, column) for column in acted.T)
    if not action_ok:
        notes.append("induced action is not well-defined on a relation pair")
    cols = _class_sums(table, acted, q.rep_gens).T.tolist()
    module = GammaModule(name=pres.name, base=M.base, carrier=pres.classes, zero=pres.zero,
                         madd=pres.add, columns=cols, column_of=M.column_of)
    if check_module_axioms(module).violations:
        action_ok = False
        notes.append("induced module fails the module axioms")
    return TensorResult(**{**vars(q), "notes": tuple(notes)}, module=module,
                        module_action_ok=action_ok)


@dataclass
class InducedMap:
    classes: tuple[int, ...]
    well_defined: bool
    additive: bool
    notes: tuple[str, ...]


def tensor_induced_map(src: TensorQuotient, dst: TensorQuotient, gen_map) -> InducedMap:
    """Class map induced by a generator map: `gen_map[g]` is the generator
    of `dst` that generator g of `src` goes to."""
    classes = dst.gen_class[gen_map]
    table = np.array(dst.presentation.add)
    well = _respects(src.relations, table, classes)
    notes = [] if well else ["a relation pair maps to distinct target classes"]
    image = _class_sums(table, classes, src.rep_gens)
    additive = np.array_equal(image[np.array(src.presentation.add)], table[image[:, None], image])
    if not additive:
        notes.append("induced map is not additive on classes")
    return InducedMap(classes=tuple(image.tolist()), well_defined=well,
                      additive=additive, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Ext and Tor in degrees 0 and 1

@dataclass
class ExtResult:
    ext1: MonoidPresentation
    ext0_size: int
    hom_size: int
    ext0_matches_hom: bool
    notes: tuple[str, ...]


def ext1(S: FiniteTernaryGammaSemiring, M: GammaModule, N: GammaModule,
         lenient: bool = False) -> ExtResult:
    """Cycles modulo boundaries of M's two-step resolution, which `_ext1` dualizes
    into N inside the monoid of homs P1 -> N under pointwise addition."""
    return _ext1(free_resolution(S, M, lenient=lenient), N)


def _ext1(res: FreeResolution, N: GammaModule) -> ExtResult:
    homs0 = hom_set(res.p0, N)
    homs1 = hom_set(res.p1, N)
    idx1 = {f.map: k for k, f in enumerate(homs1)}

    boundaries = set()
    for f in homs0:
        pulled = f.after(res.d1).map
        k = idx1.get(pulled)
        if k is None:
            raise PreconditionError("ext1: a pulled-back boundary is missing from "
                                    "the enumerated hom set")
        boundaries.add(k)
    cycles = [k for k, g in enumerate(homs1) if g.after(res.d2).is_zero]
    zero = idx1.get((N.zero,) * res.p1.size)
    if zero is None:
        raise PreconditionError("ext1: the zero map P1 -> N is not a homomorphism")
    pres = bourne_quotient_presentation(
        f"Ext1({res.module.name},{N.name})", _pointwise_sums(homs1, N.madd), zero, cycles,
        sorted(boundaries), [f"h{k}" for k in range(len(homs1))],
        "ext1: cycle monoid is not closed under pointwise addition",
        relations=(f"cycles: maps from {res.p1.name} killed by d2",
                   f"boundaries: pullbacks of maps from {res.p0.name} along d1",
                   "quotient: Bourne congruence of the boundary submonoid"))

    ext0 = [f for f in homs0 if f.after(res.d1).is_zero]
    hom_mn = hom_set(res.module, N)
    return ExtResult(ext1=pres, ext0_size=len(ext0), hom_size=len(hom_mn),
                     ext0_matches_hom=len(ext0) == len(hom_mn), notes=res.notes)


@dataclass
class TorResult:
    tor1: MonoidPresentation
    tor0: MonoidPresentation
    tor0_matches_tensor: bool
    notes: tuple[str, ...]


def tor1(S: FiniteTernaryGammaSemiring, M: GammaModule, N: GammaModule,
         lenient: bool = False) -> TorResult:
    """Homology of the tensored two-step resolution in degrees 0 and 1, which
    reads the tensor quotients alone.  Free modules of equal rank are one
    object, and then P2⊗N is P1⊗N."""
    res = free_resolution(S, M, lenient=lenient)
    t0 = _tensor_quotient(res.p0, N, lenient=lenient)
    t1 = _tensor_quotient(res.p1, N, lenient=lenient)
    t2 = t1 if res.p2 is res.p1 else _tensor_quotient(res.p2, N, lenient=lenient)
    notes = list(res.notes)

    def with_id(d):
        # d⊗id sends generator p⊗n, index p·|N| + n, to d(p)⊗n.
        return np.add.outer(np.multiply(d.map, N.size), np.arange(N.size)).ravel()

    map1 = tensor_induced_map(t1, t0, with_id(res.d1))
    map2 = tensor_induced_map(t2, t1, with_id(res.d2))
    if not (map1.well_defined and map1.additive):
        notes.append("d1⊗id is not a well-defined monoid map")
    if not (map2.well_defined and map2.additive):
        notes.append("d2⊗id is not a well-defined monoid map")

    p0n, p1n = t0.presentation, t1.presentation
    kernel = [c for c in range(t1.size) if map1.classes[c] == p0n.zero]
    image2 = sorted(set(map2.classes))
    if not set(image2) <= set(kernel):
        notes.append("image of d2⊗id is not contained in the kernel of d1⊗id")
    tor1_pres = bourne_quotient_presentation(
        f"Tor1({M.name},{N.name})", p1n.add, p1n.zero, kernel, image2, p1n.reps,
        "tor1: kernel is not closed under addition",
        relations=("kernel of d1⊗id modulo the Bourne congruence of im(d2⊗id)",))
    tor0_pres = bourne_quotient_presentation(
        f"Tor0({M.name},{N.name})", p0n.add, p0n.zero, range(t0.size),
        sorted(set(map1.classes)), p0n.reps, "tor1: P0⊗N is not closed under addition",
        relations=("coequalizer of d1⊗id via the Bourne congruence of its image",))

    # P0 often carries M's own tables (M regular), and then M⊗N is P0⊗N.
    same = ((M.madd, M.zero, M.columns, M.column_of)
            == (res.p0.madd, res.p0.zero, res.p0.columns, res.p0.column_of))
    tmn = t0 if same else _tensor_quotient(M, N, lenient=lenient)
    iso = find_presentation_isomorphism(tor0_pres, tmn.presentation)
    return TorResult(tor1=tor1_pres, tor0=tor0_pres,
                     tor0_matches_tensor=iso is not None, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Hom modules, adjunction, internal ternary hom

class HomModuleError(PreconditionError):
    """Hom(N, P) carries no module structure: a verified property of N and
    P, which `adjunction_check` reports as a finding."""


class HomActionError(HomModuleError):
    """Hom(N, P) is not closed under the induced action: hom number `hom`,
    moved by the parameter `quad` = (a, x, y, b), is no hom."""

    def __init__(self, N: GammaModule, P: GammaModule, hom: int, image, quad):
        S, (a, x, y, b) = N.base, quad
        labels = ", ".join(P.carrier[v] for v in image)
        super().__init__(
            f"Hom({N.name},{P.name}) is not closed under the induced action: for h{hom} = "
            f"({labels}) and (a, x, y, b) = ({S.elements[a]}, {S.gamma[x]}, {S.gamma[y]}, "
            f"{S.elements[b]}), m -> act(a, x, h{hom}(m), y, b) is not a hom")
        self.hom, self.quad = hom, quad


def hom_module(N: GammaModule, P: GammaModule) -> tuple[GammaModule, tuple[ModuleHom, ...]]:
    """Hom(N, P) as a module: pointwise addition, action through the target.
    Raises HomModuleError when the zero map or a pointwise sum is no hom,
    and HomActionError, naming a hom and a parameter, when the action leaves
    the hom set."""
    homs = hom_set(N, P)
    index = {f.map: k for k, f in enumerate(homs)}
    S = N.base
    zero_map = tuple(P.zero for _ in range(N.size))
    if zero_map not in index:
        raise HomModuleError("hom_module: the zero map is not a homomorphism "
                             "here, so Hom carries no module structure")
    madd_rows = _pointwise_sums(homs, P.madd)
    if any(None in row for row in madd_rows):
        raise HomModuleError("hom_module: hom set is not closed under "
                             "pointwise addition")
    # Per column of P, the hom m -> act(a, x, f(m), y, b) of each hom f, by index.
    cols = [tuple(index.get(tuple(map(col.__getitem__, f.map))) for f in homs)
            for col in P.columns]
    for k, row in enumerate(zip(*cols)):
        if None in row:
            raise HomActionError(N, P, k, homs[k].map, S.quads[P.column_of.index(row.index(None))])
    module = GammaModule(name=f"Hom({N.name},{P.name})", base=S,
                         carrier=tuple(f"h{k}" for k in range(len(homs))),
                         zero=index[zero_map], madd=madd_rows,
                         columns=cols, column_of=P.column_of)
    return module, homs


@dataclass
class AdjunctionReport:
    lhs_size: int
    rhs_size: int | None  # None when the action leaves Hom(N, P); the last note says where
    sizes_equal: bool
    phi_bijective: bool
    round_trips_ok: bool
    notes: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return self.sizes_equal and self.phi_bijective and self.round_trips_ok

    def to_dict(self) -> dict:
        return {"lhs_size": self.lhs_size, "rhs_size": self.rhs_size,
                "sizes_equal": self.sizes_equal,
                "phi_bijective": self.phi_bijective,
                "round_trips_ok": self.round_trips_ok,
                "holds": self.holds, "notes": list(self.notes)}


def adjunction_check(M: GammaModule, N: GammaModule, P: GammaModule,
                     lenient: bool = False) -> AdjunctionReport:
    """Explicit currying bijection between Hom(M⊗N, P) and Hom(M, Hom(N, P))."""
    t = tensor(M, N, lenient=lenient)
    notes = list(t.notes)
    lhs = hom_set(t.module, P)
    try:
        hmod, nphoms = hom_module(N, P)
    except HomModuleError as exc:
        # Hom(M, Hom(N, P)) is undefined, so the bijection fails: a finding.
        return AdjunctionReport(lhs_size=len(lhs), rhs_size=None, sizes_equal=False,
                                phi_bijective=False, round_trips_ok=False,
                                notes=(*notes, str(exc)))
    rhs = hom_set(M, hmod)
    np_index = {h.map: k for k, h in enumerate(nphoms)}
    rhs_index = {h.map: k for k, h in enumerate(rhs)}
    lhs_index = {h.map: k for k, h in enumerate(lhs)}

    phi = []
    for f in lhs:
        # Φ(f)(m) is the hom n ↦ f(m⊗n), looked up by its values.
        slices = np.asarray(f.map)[t.gen_class].reshape(M.size, N.size).tolist()
        rows = tuple(np_index.get(tuple(inner)) for inner in slices)
        if None in rows:
            notes.append("Φ image slice is not a hom from N to P")
            phi.append(None)
            continue
        phi.append(rhs_index.get(rows))
        if phi[-1] is None:
            notes.append("Φ image is not a hom from M to Hom(N,P)")

    psi = []
    for g in rhs:
        psi.append(lhs_index.get(tuple(
            P.sum_of(nphoms[g.map[m]].map[n] for m, n in (divmod(gi, N.size) for gi in rep))
            for rep in t.rep_gens)))
        if psi[-1] is None:
            notes.append("Ψ image is not a hom from M⊗N to P")
    phi_ok, psi_ok = None not in phi, None not in psi

    round_ok = (phi_ok and psi_ok
                and all(psi[phi[i]] == i for i in range(len(lhs)))
                and all(phi[psi[j]] == j for j in range(len(rhs))))
    bijective = (phi_ok and len(set(phi)) == len(lhs) == len(rhs))
    return AdjunctionReport(lhs_size=len(lhs), rhs_size=len(rhs),
                            sizes_equal=len(lhs) == len(rhs),
                            phi_bijective=bijective, round_trips_ok=round_ok,
                            notes=tuple(notes))


@dataclass
class InternalHomReport:
    homs: tuple[ModuleHom, ...]
    closed: bool
    failures: tuple
    table: dict

    def to_dict(self) -> dict:
        return {"size": len(self.homs), "closed": self.closed,
                "failures": [list(f) for f in self.failures]}


def internal_hom_ternary(N: GammaModule) -> InternalHomReport:
    """Pointwise ternary product {f,g,h} on hom maps into the regular module."""
    S = N.base
    reg = regular_module(S)
    homs = hom_set(N, reg)
    index = {f.map: k for k, f in enumerate(homs)}
    table = {}
    failures = []
    indexed = list(enumerate(homs))
    for x, y, (i, f), (j, g), (k, h) in itertools.product(range(S.g), range(S.g),
                                                          indexed, indexed, indexed):
        combo = tuple(S.tri[f.map[m]][x][g.map[m]][y][h.map[m]] for m in range(N.size))
        hit = index.get(combo)
        table[(x, y, i, j, k)] = hit
        if hit is None:
            failures.append((x, y, i, j, k))
    return InternalHomReport(homs=homs, closed=not failures,
                             failures=tuple(failures), table=table)


@dataclass
class HomSemisimplicityReport:
    ok: bool
    radical_zero: bool
    consistent: bool
    witness: tuple | None
    pair_count: int

    def to_dict(self) -> dict:
        return {"ok": self.ok, "radical_zero": self.radical_zero,
                "consistent": self.consistent,
                "witness": None if self.witness is None else list(self.witness),
                "pair_count": self.pair_count}


def homological_semisimplicity(S: FiniteTernaryGammaSemiring, catalog=None,
                               lenient: bool = False) -> HomSemisimplicityReport:
    """Ext¹ triviality over all catalog pairs, cross-checked against the radical.
    Each catalog module is resolved once, before its row of partners."""
    if catalog is None:
        catalog = cyclic_module_catalog(S, lenient=lenient)
    witness, ok, pairs = None, True, 0
    for a in catalog:
        res = free_resolution(S, a.module, lenient=lenient)
        for b in catalog:
            pairs += 1
            if not _ext1(res, b.module).ext1.is_trivial:
                ok = False
                if witness is None:
                    witness = (a.module.name, b.module.name)
    rad = jacobson_radical(S, catalog, lenient=lenient)
    radical_zero = rad.ideal.members == frozenset({S.zero})
    return HomSemisimplicityReport(ok=ok, radical_zero=radical_zero,
                                   consistent=ok == radical_zero,
                                   witness=witness, pair_count=pairs)
