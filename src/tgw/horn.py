"""The Horn closure: the idempotent tensor quotient on sets of generators.

`homology._tensor_reduced` imports this module only for an idempotent pair
whose reduced states exceed the "state" limit, so every other call leaves it
unloaded.  Its cost grows with the classes rather than with the reduced
state space, (|A|+1)^|K|, and it charges no limit.
"""

from __future__ import annotations

import numpy as np

from .core import distinct_rows
from .homology import _rep_labels
from .modules import GammaModule


def horn_closure(rules, seeds, rows):
    """Close each row of the boolean matrix `seeds` under the Horn rules
    (p, q, c): a row holding columns p and q gets column c (a rule with one
    premise has q = p).  A pass fires every rule at once, OR-reducing the
    rules grouped by the column they write, and passes repeat until no row
    changes.  Seeds are closed `rows` at a time, so a pass's working
    matrices stay near `rows` × len(rules) booleans."""
    out = seeds.copy()
    if not len(rules):
        return out
    p, q, c = rules[np.argsort(rules[:, 2], kind="stable")].T
    starts = np.flatnonzero(np.diff(c, prepend=-1))
    heads = c[starts]
    for lo in range(0, len(out), rows):
        X = out[lo:lo + rows]
        while True:
            fired = X[:, p]
            fired &= X[:, q]
            fired = np.logical_or.reduceat(fired, starts, axis=1) & ~X[:, heads]
            if not fired.any():
                break
            X[:, heads] |= fired
    return out


def tensor_idempotent(M: GammaModule, N: GammaModule, name, rels):
    """Quotient of the free join-semilattice on the generators.

    A sum of generators is the set of them.  Relation row l = r1 + r2 puts
    r1 and r2 below l and l below their join: the Horn rules l ⊢ r1, l ⊢ r2
    and r1 ∧ r2 ⊢ l.  The closure of a set holds exactly the generators below
    its sum, so two sets are congruent iff their closures agree.  Hence the
    classes are the closed sets reached from the generators by joins, the
    class of A ∪ B is the closure of A ∪ B, and a class is represented by the
    sum of its members.  Classes are ordered by size, then by bitmask Σ 2^g."""
    G = M.size * N.size
    l, r1, r2 = rels.T
    r2 = np.where(r2 < 0, r1, r2)
    rules = np.concatenate([np.c_[l, l, r1], np.c_[l, l, r2], np.c_[r1, r2, l]])
    rules = distinct_rows(rules[(rules[:, 2] != rules[:, 0]) & (rules[:, 2] != rules[:, 1])])
    # Seeds are closed in chunks whose working matrices stay below the int64
    # columns of the G·(|M| + |N| + |quads|) rows `_tensor_relations` stacks.
    rows = max(1, 6 * G * (M.size + N.size + len(M.base.quads)) // max(1, len(rules)))

    def close(seeds):
        return horn_closure(rules, seeds, rows)

    def joins(a, b):
        return (a[:, None] | b[None]).reshape(-1, G)

    gen_sets = close(np.eye(G, dtype=bool))
    classes = frontier = distinct_rows(gen_sets)
    while len(frontier):
        known = {row.tobytes() for row in classes}
        sums = close(distinct_rows(joins(classes, frontier)))
        frontier = distinct_rows(sums[[row.tobytes() not in known for row in sums]])
        classes = np.concatenate([classes, frontier])
    classes = classes[np.lexsort(np.c_[classes, classes.sum(1)].T)]
    index = {row.tobytes(): k for k, row in enumerate(classes)}

    def class_of(sets):
        return np.array([index[row.tobytes()] for row in sets])

    add_rows = class_of(close(joins(classes, classes))).reshape(len(classes), -1).tolist()
    gen_class = class_of(gen_sets)
    members = [np.flatnonzero(row).tolist() for row in classes]
    return (add_rows, int(gen_class[M.zero * N.size + N.zero]), gen_class, members,
            _rep_labels(M, N, gen_class, members), [])
