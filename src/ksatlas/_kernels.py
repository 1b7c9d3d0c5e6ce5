"""The exact classical oracle: max-sum variable elimination.

Maximizing an integer-weighted sum of outcome events over all
deterministic assignments is the one hot classical question of the
package. It is answered by bucket elimination (Dechter, Artif. Intell.
113, 1999):

- one table per term scope holds the summed scaled coefficients;
- variables are eliminated in a greedy min-fill order over the term
  hypergraph;
- eliminating a variable broadcast-adds the tables that mention it and
  keeps the max, and the argmax, along its axis;
- the argmax tables, decoded in reverse order, give a maximizer.

A full assignment scan is the case of a single bucket; the per-party
decomposition of a Bell scenario is the case that eliminates the largest
party first. Tables are int64 while the absolute coefficients sum below
2**62, which bounds every entry, and object arrays of Python ints
otherwise, so every result is exact.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded

# The oracle is numpy only; the flag remains for run records that name the kernel.
USE_NUMBA = False

INT64_LIMIT = 1 << 62

__all__ = ["best_assignment", "decode_assignment", "term_event"]


def term_event(members, outs):
    """{measurement: outcome} of a term, or None when the term names a
    measurement twice with different outcomes and so never fires."""
    event = {}
    if any(event.setdefault(m, o) != o for m, o in zip(members, outs)):
        return None
    return event


def _scope_tables(radices, terms, dtype):
    """One table per scope (sorted measurement tuple), summing the
    coefficients of every term on that scope."""
    tables = {}
    for members, outs, coef in terms:
        event = term_event(members, outs)
        if event is None:
            continue
        scope = tuple(sorted(event))
        tab = tables.get(scope)
        if tab is None:
            tab = tables[scope] = np.zeros([radices[m] for m in scope], dtype=dtype)
        tab[tuple(event[m] for m in scope)] += coef
    return tables


def _elimination_order(radices, scopes, budget):
    """Greedy min-fill elimination order over the variables in scopes.

    Ties go to the smaller elimination table, then to the lower index.
    Returns (variable, neighbors) pairs in elimination order; the sorted
    neighbors at elimination time are the scope of the table it leaves
    behind. Raises BudgetExceeded as soon as an elimination table (the
    variable and its neighbors) would have more than budget entries.
    """
    adj = {}
    for scope in scopes:
        for v in scope:
            adj.setdefault(v, set()).update(scope)
    for v, nb in adj.items():
        nb.discard(v)

    def cost(v):
        nb = adj[v]
        fill = sum(1 for a in nb for b in nb if a < b and b not in adj[a])
        size = radices[v]
        for u in nb:
            size *= radices[u]
        return fill, size, v

    order = []
    while adj:
        _, size, v = min(cost(v) for v in adj)
        if budget is not None and size > budget:
            raise BudgetExceeded(
                f"elimination table of {size} entries exceeds budget {budget}")
        nb = adj.pop(v)
        for u in nb:
            adj[u].discard(v)
            adj[u].update(nb)
            adj[u].discard(u)
        order.append((v, tuple(sorted(nb))))
    return order


def best_assignment(radices, terms, budget=None):
    """Maximize the sum of integer term coefficients over all assignments.

    radices: outcome count per measurement. terms: iterable of
    (measurement index tuple, outcome index tuple, int coefficient).
    budget caps the entries of the largest elimination table (None: no
    cap); with a single bucket that is the assignment count. Returns
    (best value, mixed-radix index of a maximizer); measurements that no
    term mentions take outcome index 0.
    """
    radices = [int(r) for r in radices]
    terms = list(terms)
    wide = sum(abs(c) for _, _, c in terms) >= INT64_LIMIT
    dtype = object if wide else np.int64
    factors = list(_scope_tables(radices, terms, dtype).items())
    order = _elimination_order(radices, [s for s, _ in factors], budget)

    argmaxes = []
    for v, rest in order:
        scope = tuple(sorted(rest + (v,)))
        total = np.zeros([radices[u] for u in scope], dtype=dtype)
        kept = []
        for fscope, tab in factors:
            if v in fscope:
                total += tab.reshape([radices[u] if u in fscope else 1 for u in scope])
            else:
                kept.append((fscope, tab))
        axis = scope.index(v)
        arg = total.argmax(axis=axis).astype(np.min_scalar_type(radices[v] - 1))
        kept.append((rest, total.max(axis=axis)))
        factors = kept
        argmaxes.append((v, rest, arg))

    best = sum(int(tab) for _, tab in factors)
    digits = [0] * len(radices)
    for v, rest, arg in reversed(argmaxes):
        digits[v] = int(arg[tuple(digits[u] for u in rest)])
    index = 0
    for d, r in zip(digits, radices):
        index = index * r + d
    return best, index


def decode_assignment(index, radices):
    """Mixed-radix digits of an assignment index (last digit fastest)."""
    digits = []
    for r in reversed(radices):
        digits.append(index % r)
        index //= r
    return list(reversed(digits))
