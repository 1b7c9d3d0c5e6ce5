"""Exact linear programming with a revised, fraction-free simplex.

Only the phase-1 feasibility question is needed by the toolkit: is there
x >= 0 with A x = b? The simplex runs with Bland's rule, so it cannot
cycle, and every step is exact integer arithmetic (Edmonds, J. Res. NBS
71B, 1967; the fraction-free pivoting of Bareiss):

- each row (negated where b_i < 0) is scaled by the lcm s_i of its
  coefficients' denominators; its artificial column stays the unit
  vector, so the artificial of row i stands for s_i times the original.
  A row of Python ints has s_i = 1 and skips the lcm: every row of the
  membership LP is one;
- artificial i costs L / s_i, with L the lcm of all s_i, which is the
  original phase-1 objective times L;
- the right-hand side is scaled by one common R, the lcm of the scaled
  b_i's denominators, which multiplies every variable by R. Only that
  column carries R, so a rational b with large denominators (rationalized
  floats) leaves the coefficient columns small;
- the full tableau would hold d * B^-1 [A' | I | R b] with d = det B > 0,
  A' the scaled rows, and the reduced-cost row kept the same way below
  it. A pivot on p = T[r, e] replaces every other row by
  (p * T - T[:, e] T[r]) / d, an exact division, and d becomes p;
- ratio tests compare cross-multiplied integers.

The simplex is revised (Dantzig and Orchard-Hays, 1954): it pivots only
the (m+1) x (m+1) block of that tableau over the artificial columns and
the right-hand side, [d B^-1 | d B^-1 R b] with its cost row t. A pivot
updates each tableau column from that column and the pivot column alone,
so the block's entries are the full tableau's, integer for integer:

- the columns of A' are stored once, as their nonzeros (a vertex column
  of the membership LP has one per context plus the normalization);
- with u = t + d * L/s (the duals times d), the cost-row entry of
  structural column j is u . a'_j. A run of columns is priced by one
  gather, multiply and segmented sum over its nonzeros. Bland's rule
  needs only the lowest-index positive entry, so runs of doubling width
  are priced from column 0 until one holds it; only when no structural
  column improves do the artificial entries t_k, read from the block,
  decide;
- the entering column is d B^-1 a'_j = block @ a'_j, or block column k
  for artificial k.

These are the full tableau's reduced costs and columns, so Bland's
choices, the point x and the certificate are those of the full tableau,
at O(m^2) per pivot plus the nonzeros priced, instead of O(m (n + m)).

The block is held as two parts. The right-hand side d B^-1 R b, with the
cost row's entry, carries R and is a list of Python ints throughout; a
pivot updates it in O(m). The rest, inv = d B^-1 over its cost row t,
is an int64 array, as are the stored nonzeros and the artificial costs,
while a bound proves that no product or sum leaves (-2^63, 2^63):

- before pricing, (max|inv| + d * max L/s) * W < 2^63, where W is the
  largest |a'_ij| times the most nonzeros in a column, bounds u, each
  product u_i a'_ij and the sums u . a'_j and d B^-1 a'_j;
- before a pivot, max|inv| * p + max|column| * max|pivot row| < 2^63
  bounds inv * p - column (x) pivot_row; the exact division by d only
  shrinks it.

On the first failed bound the arrays become Python ints for the rest of
the solve. int64 arithmetic that does not overflow is exact, so every
reduced cost, column, ratio and pivot is the one Python ints give: the
dtype never changes the answer, only its cost. On membership LPs of
0/1 vertex columns d and the entries of d B^-1 stay small (11 bits at
most on the uniform 12-cycle), so the whole solve runs in int64 while
only the right-hand side is wide.

All three rescalings are positive, so every reduced cost keeps its sign
and every ratio keeps its order: the pivot sequence, the point x and the
certificate are those of the same simplex over Fractions. On
infeasibility the certificate y, read from the artificial columns of the
cost row, satisfies y . A <= 0 componentwise and y . b > 0, which is
what the polytope separation step consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailure

__all__ = ["FeasibilityResult", "solve_feasibility"]

ZERO = Fraction(0)
# int64 holds every integer of absolute value below this
_INT64 = 2**63


@dataclass
class FeasibilityResult:
    feasible: bool
    x: list | None            # a feasible point (length = number of columns)
    certificate: list | None  # y with y.A <= 0 and y.b > 0 when infeasible
    objective: Fraction       # final phase-1 objective (0 iff feasible)
    pivots: int               # simplex pivots taken


def _integer_row(row, rhs):
    """(scale, sign, integer coefficients, Fraction rhs >= 0) of one row:
    the row times the lcm of its coefficients' denominators and times the
    sign that makes the rhs nonnegative."""
    sign = -1 if rhs < 0 else 1
    if set(map(type, row)) <= {int}:
        return 1, sign, list(row) if sign > 0 else [-v for v in row], Fraction(rhs) * sign
    vals = [v if isinstance(v, int) else Fraction(v) for v in row]
    scale = math.lcm(*(v.denominator for v in vals))
    return scale, sign, [int(v * scale) * sign for v in vals], Fraction(rhs) * scale * sign


def _abs_max(a):
    """Largest |entry| of an integer array, as a Python int (0 if empty)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def solve_feasibility(a_rows, b):
    """Decide {x >= 0 : A x = b} with exact arithmetic.

    a_rows: list of rows, each a sequence of ints or Fractions.
    b: list of ints or Fractions.

    Only the block [d B^-1 | d B^-1 R b] and its cost row are pivoted;
    each step prices the structural columns from their nonzeros, in
    runs from column 0 until the first improving one (see the module
    docstring). The reduced costs and entering columns are the full
    Bland tableau's, so the pivots, x, the certificate and the objective
    are too. Rows of Python ints are used unscaled; rows with Fractions
    are scaled by the lcm of their denominators.

    d B^-1, its cost row, the column nonzeros and the artificial costs
    are int64 while a bound checked before each pricing and each update
    keeps every product and sum below 2^63, and Python ints from the
    first step where it does not; the right-hand side is always Python
    ints. Every step is exact either way, so the dtype never changes a
    pivot. Every entry of x, the certificate and the objective is a
    Fraction of Python ints.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    scaled = [_integer_row(row, rhs) for row, rhs in zip(a_rows, b)]
    scales = [s for s, _, _, _ in scaled]
    lcm = math.lcm(*scales)
    rhs_scale = math.lcm(*(rhs.denominator for _, _, _, rhs in scaled))
    costs = [lcm // s for s in scales]

    # the columns of A' as nonzeros: rows[starts[k]:ends[k]] and
    # vals[...] for structural column live[k]; all-zero columns never
    # enter, so they are not stored
    ints = [row for _, _, row, _ in scaled]
    try:
        a_t = np.array(ints, dtype=np.int64).reshape(m, n).T
    except OverflowError:
        a_t = np.array(ints, dtype=object).reshape(m, n).T
    col_of, rows = np.nonzero(a_t != 0)
    vals = a_t[col_of, rows]
    counts = np.bincount(col_of, minlength=n)
    live = np.flatnonzero(counts)
    ends = np.cumsum(counts)[live]
    starts = ends - counts[live]
    # |u . a'_j| <= max|u| * width for every column j
    width = max(1, _abs_max(vals) * int(counts.max(initial=0)))
    cost_max = max(costs, default=0)
    # the loop's pricing bound at d = 1 and inv = I
    wide = a_t.dtype == object or (1 + cost_max) * width >= _INT64
    if wide:
        vals = vals.astype(object)

    # inv, rows 0..m-1: d B^-1 over the artificial columns; row m: the
    # cost row z_j - c_j there (an entry > 0 improves the phase-1
    # objective), 0 at the start. rhs: d B^-1 R b and, last, the cost
    # row's entry, as Python ints.
    inv = np.eye(m + 1, m, dtype=vals.dtype)
    cost = np.array(costs, dtype=vals.dtype)
    rhs = [int(r * rhs_scale) for _, _, _, r in scaled]
    rhs.append(sum(c * r for c, r in zip(costs, rhs)))
    inv_max = 1
    basis = list(range(n, n + m))
    det = 1
    pivots = 0

    while True:
        # pricing reads u, u * a'_j and their sums; past 2^63 the block
        # and the columns go to Python ints for the rest of the solve
        if not wide and (inv_max + det * cost_max) * width >= _INT64:
            wide = True
            inv, vals, cost = inv.astype(object), vals.astype(object), cost.astype(object)
        # Bland: lowest-index column with positive z_j - c_j; every
        # structural column precedes every artificial one. Only the first
        # such column matters, so the structural columns are priced in
        # doubling runs (the first as wide as the block) until one has it.
        u = inv[m] + det * cost
        column = None
        lo, hi = 0, min(m + 1, live.size)
        while column is None and lo < hi:
            nz = slice(starts[lo], ends[hi - 1])
            reduced = np.add.reduceat(u[rows[nz]] * vals[nz], starts[lo:hi] - starts[lo])
            improving = np.flatnonzero(reduced > 0)
            if improving.size:
                k = lo + int(improving[0])
                enter = int(live[k])
                seg = slice(starts[k], ends[k])
                column = np.empty(m + 1, dtype=inv.dtype)
                column[:m] = inv[:m, rows[seg]] @ vals[seg]
                column[m] = reduced[improving[0]]
            lo, hi = hi, min(2 * hi, live.size)
        if column is None:
            improving = np.flatnonzero(inv[m] > 0)
            if improving.size == 0:
                break
            k = int(improving[0])
            enter = n + k
            column = inv[:, k]
        col = column.tolist()
        # ratio test, cross-multiplied; Bland tie-break on smallest
        # basis variable
        leave = -1
        for i in np.flatnonzero(column[:m] > 0):
            if leave < 0:
                leave = i
                continue
            left, right = rhs[i] * col[leave], rhs[leave] * col[i]
            if left < right or (left == right and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            # phase-1 objective is bounded below by 0, so this cannot occur
            raise ConvergenceFailure("phase-1 simplex reported unboundedness")
        piv = col[leave]
        pivot_row = inv[leave].copy()
        # the update forms inv * piv - column (x) pivot_row
        if not wide and inv_max * piv + _abs_max(column) * _abs_max(pivot_row) >= _INT64:
            wide = True
            inv, vals, cost = inv.astype(object), vals.astype(object), cost.astype(object)
            column, pivot_row = column.astype(object), pivot_row.astype(object)
        inv = (inv * piv - np.outer(column, pivot_row)) // det
        inv[leave] = pivot_row
        if not wide:
            inv_max = _abs_max(inv)
        r = rhs[leave]
        rhs = [(v * piv - c * r) // det for v, c in zip(rhs, col)]
        rhs[leave] = r
        det = piv
        basis[leave] = enter
        pivots += 1

    # phase-1 value: the cost row's rhs is det * L * R * (original objective)
    objective = Fraction(rhs[m], det * lcm * rhs_scale)
    if objective == 0:
        x = [ZERO] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = Fraction(rhs[i], det * rhs_scale)
        return FeasibilityResult(True, x, None, ZERO, pivots)

    # infeasible: the multiplier of scaled row i is t_i/det + L/s_i, t the
    # cost row of inv; undoing the row scale and the factor L gives the
    # original multiplier, and rows that were sign-flipped flip it back.
    y = [sign * Fraction(t * s + det * lcm, det * lcm)
         for t, (s, sign, _, _) in zip(inv[m].tolist(), scaled)]
    return FeasibilityResult(False, None, y, objective, pivots)
