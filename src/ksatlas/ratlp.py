"""Exact linear programming with a revised, fraction-free simplex.

Only the phase-1 feasibility question is needed by the toolkit: is there
x >= 0 with A x = b? A is given as integer rows; b may hold ints,
Fractions or floats (read as the rationals they hold). Every step is
exact integer arithmetic (Edmonds, J. Res. NBS 71B, 1967; the
fraction-free pivoting of Bareiss):

- each row is negated where b_i < 0, giving A'; every artificial column
  is a unit vector of cost 1, the original phase-1 objective;
- the right-hand side is scaled by one common R, the lcm of b's
  denominators, which multiplies every variable by R. Only that column
  carries R, so a rational b with large denominators (rationalized
  floats) leaves the coefficient columns small. R b_i is formed in
  integers from b_i's numerator and denominator;
- the full tableau would hold d * B^-1 [A' | I | R b] with d = det B > 0,
  and the reduced-cost row kept the same way below it. A pivot on
  p = T[r, e] replaces every other row by (p * T - T[:, e] T[r]) / d, an
  exact division, and d becomes p;
- ratio tests compare cross-multiplied integers.

The simplex is revised (Dantzig and Orchard-Hays, 1954): it pivots only
the (m+1) x (m+1) block of that tableau over the artificial columns and
the right-hand side, [d B^-1 | d B^-1 R b] with its cost row t. A pivot
updates each tableau column from that column and the pivot column alone,
so the block's entries are the full tableau's, integer for integer:

- the columns of A' are stored once, as their nonzeros (a vertex column
  of the membership LP has one per context plus the normalization);
- with u = t + d (the duals times d), the cost-row entry of structural
  column j is u . a'_j. Every structural column is priced by one
  gather, multiply and segmented sum over the nonzeros; the artificial
  entries t_k are read from the block;
- the entering column is d B^-1 a'_j = block @ a'_j, or block column k
  for artificial k.

These are the full tableau's reduced costs and columns, at O(m^2) per
pivot plus the nonzeros, instead of O(m (n + m)).

The entering rule is Dantzig's: the structural column with the largest
positive reduced cost, lowest index on ties. An artificial enters,
lowest index first, only when no structural column improves. Every
structural reduced cost is d times the original one, so the choice
does not depend on the scaling. A pivot whose leaving row has a zero
right-hand side is degenerate: it leaves the objective where it was.
After m consecutive degenerate pivots (m rows) Bland's rule (Math. Oper.
Res. 2, 103, 1977) enters instead, the lowest-index improving column
with structural columns before artificial ones, until a pivot moves the
objective. The ratio test always breaks ties on the smallest basis
variable, as Bland's rule asks. On the uniform 12-cycle's membership LP
this takes 42 pivots where Bland's rule alone takes 2,570.

The solve terminates. A pivot that moves the objective lowers it
strictly, and the objective is a function of the basis, so no basis
recurs across such a pivot and there are finitely many of them. An
endless run would therefore end in an endless stretch of degenerate
pivots; from its m-th pivot on every pivot follows Bland's rule, which
cannot cycle, yet an endless run through finitely many bases must.

The block is held as two parts. The right-hand side d B^-1 R b, with the
cost row's entry, carries R and is a list of Python ints throughout; a
pivot updates it in O(m). The rest, inv = d B^-1 over its cost row t,
is an int64 array, as are the stored nonzeros, while a bound proves that
no product or sum leaves (-2^63, 2^63):

- before pricing, (max|inv| + d) * W < 2^63, where W is the largest
  |a'_ij| times the most nonzeros in a column, bounds u, each product
  u_i a'_ij and the sums u . a'_j and d B^-1 a'_j;
- before a pivot, max|inv| * p + max|column| * max|pivot row| < 2^63
  bounds inv * p - column (x) pivot_row; the exact division by d only
  shrinks it.

On the first failed bound the arrays become Python ints for the rest of
the solve, as they are from the start when an entry of A' does not fit
int64. int64 arithmetic that does not overflow is exact, so every
reduced cost, column, ratio and pivot is the one Python ints give: the
dtype never changes the answer, only its cost. On membership LPs of
0/1 vertex columns d and the entries of d B^-1 stay small (19 bits at
most on the uniform 12-cycle, 30 on the 16-cycle), so the whole solve
runs in int64 while only the right-hand side is wide.

Both rescalings are positive, so every reduced cost keeps its sign,
the structural ones keep their order, and every ratio keeps its order:
the pivot sequence, the point x and the certificate are those of the
same simplex over Fractions. On infeasibility the certificate y, read
from the artificial columns of the cost row, satisfies y . A <= 0
componentwise and y . b > 0, which is what the polytope separation step
consumes.
"""

from __future__ import annotations

import math
import numbers
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


def _ratio(v):
    """(numerator, denominator) of an int, Fraction or float, as Python ints."""
    if not isinstance(v, (int, Fraction)):
        v = Fraction(v)
    return int(v.numerator), int(v.denominator)


def _integer_system(a_rows, b):
    """(A', signs, R, R b' as Python ints): row i of A' is row i of A
    times the sign that makes b_i >= 0, b' = |b|, and R the lcm of the
    denominators of b.

    A' is int64, or object (Python ints) when an entry does not fit. A
    row entry that is not an integer (a Fraction, even an integral one,
    or a float) raises TypeError. R b'_i is formed from the numerator
    and denominator of b_i.
    """
    a = np.array(a_rows)
    if a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64):
        a = a.astype(np.int64, copy=False)
    else:
        # numpy holds ints past int64 as object, uint64 or even float64,
        # so every entry is checked as the object it is
        a = np.array(a_rows, dtype=object)
        if not all(isinstance(v, numbers.Integral) for v in a.flat):
            raise TypeError("solve_feasibility reads integer rows only")
        a = np.frompyfunc(int, 1, 1)(a)

    rhs = [_ratio(v) for v in b]
    signs = [-1 if p < 0 else 1 for p, _ in rhs]
    flip = [i for i, sign in enumerate(signs) if sign < 0]
    if a.dtype != object and flip and int(a[flip].min(initial=0)) == -_INT64:
        a = a.astype(object)  # -(-2^63) is not an int64
    a[flip] *= -1
    rhs_scale = math.lcm(*(q for _, q in rhs))
    return a, signs, rhs_scale, [abs(p) * (rhs_scale // q) for p, q in rhs]


def _abs_max(a):
    """Largest |entry| of an integer array, as a Python int (0 if empty)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def solve_feasibility(a_rows, b):
    """Decide {x >= 0 : A x = b} with exact arithmetic.

    a_rows: list of integer rows, each an integer numpy array or a
    sequence of ints (Python ints past int64 are solved exactly too); a
    Fraction or float entry raises TypeError, even when it is integral.
    b: list of ints, Fractions or floats.

    Only the block [d B^-1 | d B^-1 R b] and its cost row are pivoted;
    each step prices every structural column from its nonzeros and
    enters the largest positive reduced cost, or, after m consecutive
    degenerate pivots and until the objective moves, the lowest-index
    improving column (Bland); see the module docstring. The reduced
    costs and entering columns are the full tableau's, so the pivots,
    x, the certificate and the objective are too.

    d B^-1, its cost row and the column nonzeros are int64 while a bound
    checked before each pricing and each update keeps every product and
    sum below 2^63, and Python ints from the first step where it does
    not; the right-hand side is always Python ints. Every entry of x,
    the certificate and the objective is a Fraction of Python ints.
    """
    a, signs, rhs_scale, rhs = _integer_system(a_rows, b)
    m, n = a.shape

    # the columns of A' as nonzeros: rows[starts[k]:ends[k]] and
    # vals[...] for structural column live[k]; all-zero columns never
    # enter, so they are not stored
    a_t = a.T
    col_of, rows = np.nonzero(a_t != 0)
    vals = a_t[col_of, rows]
    counts = np.bincount(col_of, minlength=n)
    live = np.flatnonzero(counts)
    ends = np.cumsum(counts)[live]
    starts = ends - counts[live]
    # |u . a'_j| <= max|u| * width for every column j
    width = max(1, _abs_max(vals) * int(counts.max(initial=0)))
    # the loop's pricing bound at d = 1 and inv = I
    wide = a_t.dtype == object or 2 * width >= _INT64
    if wide:
        vals = vals.astype(object)

    # inv, rows 0..m-1: d B^-1 over the artificial columns; row m: the
    # cost row z_j - c_j there (an entry > 0 improves the phase-1
    # objective), 0 at the start. rhs: d B^-1 R b and, last, the cost
    # row's entry, as Python ints.
    inv = np.eye(m + 1, m, dtype=vals.dtype)
    rhs.append(sum(rhs))
    inv_max = 1
    basis = list(range(n, n + m))
    det = 1
    pivots = 0
    # consecutive degenerate pivots; from m on, Bland's rule enters
    degenerate = 0
    while True:
        # pricing reads u, u * a'_j and their sums; past 2^63 the block
        # and the columns go to Python ints for the rest of the solve
        if not wide and (inv_max + det) * width >= _INT64:
            wide = True
            inv, vals = inv.astype(object), vals.astype(object)
        # every structural z_j - c_j in one pass; the largest positive
        # one enters (lowest index on ties), or under Bland the first
        u = inv[m] + det
        column = None
        if live.size:
            reduced = np.add.reduceat(u[rows] * vals, starts)
            k = int(np.argmax(reduced > 0) if degenerate >= m else np.argmax(reduced))
            if reduced[k] > 0:
                enter = int(live[k])
                seg = slice(starts[k], ends[k])
                column = np.empty(m + 1, dtype=inv.dtype)
                column[:m] = inv[:m, rows[seg]] @ vals[seg]
                column[m] = reduced[k]
        # an artificial, lowest index first, only when no structural
        # column improves; every structural column precedes it
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
            inv, vals = inv.astype(object), vals.astype(object)
            column, pivot_row = column.astype(object), pivot_row.astype(object)
        inv = (inv * piv - np.outer(column, pivot_row)) // det
        inv[leave] = pivot_row
        if not wide:
            inv_max = _abs_max(inv)
        r = rhs[leave]
        # the pivot moves the objective unless the leaving row's rhs is 0
        degenerate = degenerate + 1 if r == 0 else 0
        rhs = [(v * piv - c * r) // det for v, c in zip(rhs, col)]
        rhs[leave] = r
        det = piv
        basis[leave] = enter
        pivots += 1

    # phase-1 value: the cost row's rhs is det * R * (original objective)
    objective = Fraction(rhs[m], det * rhs_scale)
    if objective == 0:
        x = [ZERO] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = Fraction(rhs[i], det * rhs_scale)
        return FeasibilityResult(True, x, None, ZERO, pivots)

    # infeasible: the multiplier of row i is t_i/det + 1, t the cost row
    # of inv, flipped back on rows that were sign-flipped
    y = [sign * Fraction(t + det, det) for t, sign in zip(inv[m].tolist(), signs)]
    return FeasibilityResult(False, None, y, objective, pivots)
