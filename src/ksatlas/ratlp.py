"""Exact linear programming on an integer-preserving tableau.

Only the phase-1 feasibility question is needed by the toolkit: is there
x >= 0 with A x = b? The simplex runs with Bland's rule, so it cannot
cycle, and every step is exact integer arithmetic (Edmonds, J. Res. NBS
71B, 1967; the fraction-free pivoting of Bareiss):

- each row (negated where b_i < 0) is scaled by the lcm s_i of its
  coefficients' denominators; its artificial column stays the unit
  vector, so the artificial of row i stands for s_i times the original;
- artificial i costs L / s_i, with L the lcm of all s_i, which is the
  original phase-1 objective times L;
- the right-hand side is scaled by one common R, the lcm of the scaled
  b_i's denominators, which multiplies every variable by R. Only that
  column carries R, so a rational b with large denominators (rationalized
  floats) leaves the coefficient columns small;
- the tableau holds d * B^-1 [A | I | R b] with d = det B > 0, and the
  reduced-cost row is kept the same way below it. A pivot on p = T[r, e]
  replaces every other row by (p * T - T[:, e] T[r]) / d, an exact
  division, and d becomes p;
- ratio tests compare cross-multiplied integers.

All three rescalings are positive, so every reduced cost keeps its sign
and every ratio keeps its order: the pivot sequence, the point x and the
certificate are those of the same simplex over Fractions. On
infeasibility the certificate y, read from the artificial columns of the
reduced-cost row, satisfies y . A <= 0 componentwise and y . b > 0,
which is what the polytope separation step consumes.
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


def _integer_row(row, rhs):
    """(scale, sign, integer coefficients, Fraction rhs >= 0) of one row:
    the row times the lcm of its coefficients' denominators and times the
    sign that makes the rhs nonnegative."""
    vals = [v if isinstance(v, int) else Fraction(v) for v in row]
    scale = math.lcm(*(v.denominator for v in vals))
    sign = -1 if rhs < 0 else 1
    return scale, sign, [int(v * scale) * sign for v in vals], Fraction(rhs) * scale * sign


def solve_feasibility(a_rows, b):
    """Decide {x >= 0 : A x = b} with exact arithmetic.

    a_rows: list of rows, each a sequence of ints or Fractions.
    b: list of ints or Fractions.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    width = n + m
    scaled = [_integer_row(row, rhs) for row, rhs in zip(a_rows, b)]
    scales = [s for s, _, _, _ in scaled]
    lcm = math.lcm(*scales)
    rhs_scale = math.lcm(*(rhs.denominator for _, _, _, rhs in scaled))

    # rows 0..m-1: [A | I | R b] scaled; row m: reduced costs z_j - c_j
    # (an entry > 0 means the column improves the phase-1 objective)
    tab = np.zeros((m + 1, width + 1), dtype=object)
    for i, (_, _, ints, rhs) in enumerate(scaled):
        tab[i, :n] = ints
        tab[i, n + i] = 1
        tab[i, width] = int(rhs * rhs_scale)
    cost = np.array([lcm // s for s in scales], dtype=object)
    tab[m] = cost @ tab[:m] if m else 0
    tab[m, n:width] -= cost
    basis = list(range(n, width))
    det = 1

    while True:
        # Bland: lowest-index column with positive z_j - c_j
        improving = np.flatnonzero(tab[m, :width] > 0)
        if improving.size == 0:
            break
        enter = int(improving[0])
        # ratio test, cross-multiplied; Bland tie-break on smallest
        # basis variable
        leave = -1
        for i in np.flatnonzero(tab[:m, enter] > 0):
            if leave < 0:
                leave = i
                continue
            lhs = tab[i, width] * tab[leave, enter]
            rhs = tab[leave, width] * tab[i, enter]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            # phase-1 objective is bounded below by 0, so this cannot occur
            raise ConvergenceFailure("phase-1 simplex reported unboundedness")
        piv = tab[leave, enter]
        pivot_row = tab[leave].copy()
        tab = (tab * piv - np.outer(tab[:, enter], pivot_row)) // det
        tab[leave] = pivot_row
        det = piv
        basis[leave] = enter

    # phase-1 value: the cost row's rhs is det * L * R * (original objective)
    objective = Fraction(tab[m, width], det * lcm * rhs_scale)
    if objective == 0:
        x = [ZERO] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = Fraction(tab[i, width], det * rhs_scale)
        return FeasibilityResult(True, x, None, ZERO)

    # infeasible: the multiplier of scaled row i is tab[m, n+i]/det + L/s_i;
    # undoing the row scale and the factor L gives the original
    # multiplier, and rows that were sign-flipped flip it back.
    y = [sign * Fraction(tab[m, n + i] * s + det * lcm, det * lcm)
         for i, (s, sign, _, _) in enumerate(scaled)]
    return FeasibilityResult(False, None, y, objective)
