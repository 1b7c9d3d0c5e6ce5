"""Exact linear programming over Fractions.

Only the phase-1 feasibility question is needed by the toolkit: is there
x >= 0 with A x = b? The simplex runs with Bland's rule, so it cannot
cycle, and everything is exact. On infeasibility the certificate y from
the final multiplier row satisfies y . A <= 0 componentwise and
y . b > 0, which is what the polytope separation step consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConvergenceFailure

__all__ = ["FeasibilityResult", "solve_feasibility"]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class FeasibilityResult:
    feasible: bool
    x: list | None            # a feasible point (length = number of columns)
    certificate: list | None  # y with y.A <= 0 and y.b > 0 when infeasible
    objective: Fraction       # final phase-1 objective (0 iff feasible)


def solve_feasibility(a_rows, b):
    """Decide {x >= 0 : A x = b} with exact arithmetic.

    a_rows: list of rows, each a list of Fractions (or ints).
    b: list of Fractions.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    rows = [[Fraction(v) for v in row] for row in a_rows]
    rhs = [Fraction(v) for v in b]
    flipped = [False] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            flipped[i] = True

    # tableau columns: n structural + m artificial, then rhs
    width = n + m
    tab = [rows[i] + [ONE if j == i else ZERO for j in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]

    # phase-1 cost: sum of artificials; reduced-cost row z_j - c_j kept
    # explicitly (entry > 0 means the column improves the objective)
    cost = [ZERO] * n + [ONE] * m
    red = [ZERO] * (width + 1)
    for j in range(width + 1):
        s = ZERO
        for i in range(m):
            s += tab[i][j]
        red[j] = s - (cost[j] if j < width else ZERO)

    while True:
        # Bland: lowest-index column with positive z_j - c_j
        enter = -1
        for j in range(width):
            if red[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        # ratio test; Bland tie-break on smallest basis variable
        leave, best = -1, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            # phase-1 objective is bounded below by 0, so this cannot occur
            raise ConvergenceFailure("phase-1 simplex reported unboundedness")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        if red[enter] != 0:
            f = red[enter]
            red = [v - f * w for v, w in zip(red, tab[leave])]
        basis[leave] = enter

    # phase-1 value: total artificial mass still in the basis
    objective = ZERO
    for i in range(m):
        if basis[i] >= n:
            objective += tab[i][width]

    if objective == 0:
        x = [ZERO] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = tab[i][width]
        return FeasibilityResult(True, x, None, ZERO)

    # infeasible: multipliers from the artificial columns. For artificial
    # j the reduced entry is z_j - 1 = y_i - 1, so y_i = red[n+i] + 1;
    # rows that were sign-flipped flip y back.
    y = []
    for i in range(m):
        yi = red[n + i] + ONE
        y.append(-yi if flipped[i] else yi)
    return FeasibilityResult(False, None, y, objective)
