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
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    scaled = [_integer_row(row, rhs) for row, rhs in zip(a_rows, b)]
    scales = [s for s, _, _, _ in scaled]
    lcm = math.lcm(*scales)
    rhs_scale = math.lcm(*(rhs.denominator for _, _, _, rhs in scaled))
    cost = np.array([lcm // s for s in scales], dtype=object)

    # the columns of A' as nonzeros: rows[starts[k]:ends[k]] and
    # vals[...] for structural column live[k]; all-zero columns never
    # enter, so they are not stored
    a_t = np.array([ints for _, _, ints, _ in scaled], dtype=object).reshape(m, n).T
    col_of, rows = np.nonzero(a_t != 0)
    vals = a_t[col_of, rows]
    counts = np.bincount(col_of, minlength=n)
    live = np.flatnonzero(counts)
    ends = np.cumsum(counts)[live]
    starts = ends - counts[live]

    # rows 0..m-1: d B^-1 over the artificial columns, then d B^-1 R b;
    # row m: the cost row z_j - c_j there (an entry > 0 improves the
    # phase-1 objective); it starts at 0 on the artificials
    block = np.zeros((m + 1, m + 1), dtype=object)
    for i, (_, _, _, rhs) in enumerate(scaled):
        block[i, i] = 1
        block[i, m] = int(rhs * rhs_scale)
    block[m, m] = cost @ block[:m, m]
    basis = list(range(n, n + m))
    det = 1
    pivots = 0

    while True:
        # Bland: lowest-index column with positive z_j - c_j; every
        # structural column precedes every artificial one. Only the first
        # such column matters, so the structural columns are priced in
        # doubling runs (the first as wide as the block) until one has it.
        u = block[m, :m] + det * cost
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
                column = np.empty(m + 1, dtype=object)
                column[:m] = block[:m, rows[seg]] @ vals[seg]
                column[m] = reduced[improving[0]]
            lo, hi = hi, min(2 * hi, live.size)
        if column is None:
            improving = np.flatnonzero(block[m, :m] > 0)
            if improving.size == 0:
                break
            k = int(improving[0])
            enter = n + k
            column = block[:, k]
        # ratio test, cross-multiplied; Bland tie-break on smallest
        # basis variable
        leave = -1
        for i in np.flatnonzero(column[:m] > 0):
            if leave < 0:
                leave = i
                continue
            lhs = block[i, m] * column[leave]
            rhs = block[leave, m] * column[i]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            # phase-1 objective is bounded below by 0, so this cannot occur
            raise ConvergenceFailure("phase-1 simplex reported unboundedness")
        piv = column[leave]
        pivot_row = block[leave].copy()
        block = (block * piv - np.outer(column, pivot_row)) // det
        block[leave] = pivot_row
        det = piv
        basis[leave] = enter
        pivots += 1

    # phase-1 value: the cost row's rhs is det * L * R * (original objective)
    objective = Fraction(block[m, m], det * lcm * rhs_scale)
    if objective == 0:
        x = [ZERO] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = Fraction(block[i, m], det * rhs_scale)
        return FeasibilityResult(True, x, None, ZERO, pivots)

    # infeasible: the multiplier of scaled row i is block[m, i]/det + L/s_i;
    # undoing the row scale and the factor L gives the original
    # multiplier, and rows that were sign-flipped flip it back.
    y = [sign * Fraction(block[m, i] * s + det * lcm, det * lcm)
         for i, (s, sign, _, _) in enumerate(scaled)]
    return FeasibilityResult(False, None, y, objective, pivots)
