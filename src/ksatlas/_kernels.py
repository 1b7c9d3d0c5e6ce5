"""The exact classical oracle: max-sum variable elimination.

Maximizing an integer-weighted sum of outcome events over all
deterministic assignments is the one hot classical question of the
package. It is answered by bucket elimination (Dechter, Artif. Intell.
113, 1999):

- one table per term scope holds the summed scaled coefficients;
- variables are eliminated in a greedy min-fill order over the term
  hypergraph;
- eliminating a variable broadcast-adds the tables that mention it and
  passes on the max along its axis;
- the elimination tables, walked in reverse order, give every maximizer.

A full assignment scan is the case of a single bucket; the per-party
decomposition of a Bell scenario is the case that eliminates the largest
party first.

scope_tables is the one integer form of an inequality in the package.
It reads integer index terms on distinct measurements, already checked
and made canonical by whoever built them (check_inequality through
polytope._int_terms, the SIC lift), and handles no repeated measurement
and no term that never fires. One pass sums each scope's cells in a
dict, and then fills each scope's table once. Its tables are int64
while the absolute coefficients sum below 2**62, which bounds every
entry and every sum of entries, and object arrays of Python ints
otherwise, so every result is exact. One elimination of it answers the
classical bound (best_assignment), which is also the bound of a
membership test's separating witness and of the SIC lift, and a facet
test's bound and face (polytope.tightness_test reads maximizers).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded

# The oracle is numpy only; the flag remains for run records that name the kernel.
USE_NUMBA = False

INT64_LIMIT = 1 << 62

__all__ = ["best_assignment", "maximizers", "scope_tables"]


def scope_tables(radices, terms):
    """{scope: table}: one table per scope (sorted measurement tuple),
    summing the integer coefficients of every term on that scope.

    terms: iterable of (measurement index tuple, outcome index tuple,
    int coefficient), each naming distinct measurements, in any order.
    One pass sums each term into its scope's cell. Each table is then
    filled once, and those that are zero everywhere are dropped. Tables
    are int64 while the absolute coefficients sum below INT64_LIMIT,
    object arrays of Python ints otherwise.
    """
    width = 0
    cells = {}  # scope -> {row-major cell position: summed coefficient}
    layouts = {}  # members -> (scope, strides)
    for members, outs, coef in terms:
        width += abs(coef)
        layout = layouts.get(members)
        if layout is None:
            layout = layouts[members] = _layout(radices, members)
        scope, strides = layout
        pos = 0
        for o, stride in zip(outs, strides):
            pos += o * stride
        sums = cells.get(scope)
        if sums is None:
            sums = cells[scope] = {}
        sums[pos] = sums.get(pos, 0) + coef
    dtype = object if width >= INT64_LIMIT else np.int64
    tables = {}
    for scope, sums in cells.items():
        if not any(sums.values()):
            continue
        shape = [radices[m] for m in scope]
        flat = [0] * math.prod(shape)
        for pos, coef in sums.items():
            flat[pos] = coef
        tables[scope] = np.array(flat, dtype=dtype).reshape(shape)
    return tables


def _layout(radices, members):
    """(scope, strides): the sorted scope of a term on distinct members
    and the stride, in that scope's row-major table, of each member's
    outcome."""
    scope = tuple(sorted(members))
    stride, size = {}, 1
    for m in reversed(scope):
        stride[m] = size
        size *= radices[m]
    return scope, [stride[m] for m in members]


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
    (best value, elimination): (variable, scope, table) per eliminated
    variable, in order, the table summing the factors that mention it.
    """
    radices = [int(r) for r in radices]
    factors = list(scope_tables(radices, terms).items())
    dtype = factors[0][1].dtype if factors else np.int64
    order = _elimination_order(radices, [s for s, _ in factors], budget)

    elimination = []
    for v, rest in order:
        scope = tuple(sorted(rest + (v,)))
        total = np.zeros([radices[u] for u in scope], dtype=dtype)
        kept = []
        for fscope, tab in factors:
            if v in fscope:
                total += tab.reshape([radices[u] if u in fscope else 1 for u in scope])
            else:
                kept.append((fscope, tab))
        kept.append((rest, total.max(axis=scope.index(v))))
        factors = kept
        elimination.append((v, scope, total))
    return sum(int(tab) for _, tab in factors), elimination


def maximizers(radices, elimination, limit=None):
    """Every maximizing assignment of an elimination, as one outcome-index
    array per measurement.

    Measurements no table mentions take every outcome, in mixed-radix
    order (with no elimination: all assignments in index order). The
    tables, walked in reverse order, keep each outcome that attains the
    max given the neighbors' outcomes. Every such choice extends to an
    optimum, so the count never falls; BudgetExceeded is raised as soon as
    it passes limit (None: no cap).
    """
    eliminated = {v for v, _, _ in elimination}
    free = [m for m in range(len(radices)) if m not in eliminated]
    spread = math.prod(radices[m] for m in free)
    if limit is not None and spread > limit:
        raise BudgetExceeded(f"at least {spread} maximizers exceed the face limit {limit}")
    # a free measurement ties on all its outcomes, as on a zero table
    steps = [(m, (m,), np.zeros(radices[m], np.int8)) for m in free]
    digits, count = {}, 1
    for v, scope, total in steps + elimination[::-1]:
        index = tuple(np.arange(radices[v]) if u == v else digits[u][:, None]
                      for u in scope)
        vals = np.broadcast_to(total[index], (count, radices[v]))
        ties = vals == vals.max(axis=1, keepdims=True)
        count = int(np.count_nonzero(ties))
        if limit is not None and count > limit:
            raise BudgetExceeded(f"at least {count} maximizers exceed the face limit {limit}")
        rows, outs = np.nonzero(ties)
        digits = {u: d[rows] for u, d in digits.items()}
        digits[v] = outs.astype(np.min_scalar_type(radices[v] - 1))
    return [digits[m] for m in range(len(radices))]
