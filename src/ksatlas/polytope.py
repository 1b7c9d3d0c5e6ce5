"""Exact geometry of the non-contextual / local polytope.

Vertices are the behaviors of global deterministic assignments. All
verdicts (classical bounds, membership, facet tightness) are exact, and
each fact has one path. The polytope's dimension is a closed form read
from the scenario (polytope_dimension). An inequality has one integer
form, one table per scope from _kernels.scope_tables, maximized by
variable elimination. One pass over the terms (check_inequality) both
checks them and writes them in canonical form (each measurement once,
in index order, outcome indices, terms that never fire dropped), and
_int_terms scales such a list over its common denominator with no
check, so a caller holding checked terms passes them on.
classical_bound reads the maximum, which also bounds membership_test's
separating witness, and tightness_test reads the maximum and the
maximizers, whose rows alone the exact rank sees. Integer terms, from
_int_terms or built integer and valid as the SIC lift builds them, go
to the elimination directly (_scaled_maximum). Only membership builds
every vertex (enumerate_vertices).

Coordinates follow the scenario's cached coordinate form: a vertex or
behavior is read in `Scenario.grids` order, and the coordinate count D
comes from `Scenario.radices` and the contexts alone, so every budget
check runs before a grid is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from ._kernels import best_assignment, maximizers
from .errors import BudgetExceeded, NoDisturbanceViolated
from .ratlp import solve_feasibility
from .scenario import (
    Behavior,
    Inequality,
    Scenario,
    check_inequality,
    frac,
    frac_str,
    validate_behavior,
)

__all__ = [
    "DEFAULT_BUDGET",
    "PolytopeDescription",
    "TightnessReport",
    "MembershipResult",
    "enumerate_vertices",
    "classical_bound",
    "membership_test",
    "polytope_dimension",
    "tightness_test",
    "int_rank",
]

DEFAULT_BUDGET = 1 << 24
MEMORY_BUDGET = 1 << 26  # max stored coordinate entries (rows * D)


@dataclass
class PolytopeDescription:
    scenario: Scenario
    coords: np.ndarray          # (N, D) uint8, row i: assignment i's vertex

    @property
    def n_vertices(self):
        return self.coords.shape[0]

    def vertex_behavior(self, i):
        s = self.scenario
        values = iter(self.coords[i].tolist())
        tables = {ctx: {asg: Fraction(next(values)) for asg in grid}
                  for ctx, grid in zip(s.contexts, s.grids)}
        return Behavior(s, "rational", tables)


@dataclass(frozen=True)
class TightnessReport:
    verdict: str                 # facet | lower-dimensional face | not supporting | violated-by-vertex
    classical_bound: Fraction
    saturating_vertices: int
    face_dimension: int          # -1 when no vertex saturates
    polytope_dimension: int

    def to_json(self):
        return {**asdict(self), "classical_bound": frac_str(self.classical_bound)}


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    weights: dict | None = None       # vertex index -> Fraction
    witness: Inequality | None = None
    witness_value: Fraction | None = None

    def to_json(self, scenario):
        out = {"member": self.member}
        if self.weights is not None:
            out["weights"] = {str(k): frac_str(w) for k, w in self.weights.items() if w}
        if self.witness is not None:
            out["witness"] = self.witness.to_json(scenario)
            out["witness_value"] = frac_str(self.witness_value)
        return out


def _coordinate_count(scenario):
    """D: the summed table sizes of the maximal contexts."""
    radices = scenario.radices
    return sum(math.prod(radices[m] for m in ctx) for ctx in scenario.contexts)


def _coordinate_rows(scenario, digits):
    """Exact 0/1 coordinate rows, in `scenario.grids` order, of the
    assignments given as one outcome-index array per measurement."""
    radices = scenario.radices
    n = len(digits[0]) if digits else 1  # no measurements: one empty assignment
    coords = np.zeros((n, _coordinate_count(scenario)), dtype=np.uint8)
    offset = 0
    for ctx in scenario.contexts:
        pos = np.zeros(n, dtype=np.int64)  # int64 first: small digits never wrap
        for m in ctx:
            pos = pos * radices[m] + digits[m]
        coords[np.arange(n), offset + pos] = 1
        offset += math.prod(radices[m] for m in ctx)
    return coords


def enumerate_vertices(scenario, budget=DEFAULT_BUDGET):
    """All deterministic-assignment behaviors as exact 0/1 coordinate rows,
    one per assignment in mixed-radix order.

    The rows are distinct: every measurement lies in some maximal context
    (isolated ones in a singleton), so a vertex's coordinates determine
    its assignment and no deduplication is needed.
    """
    total = math.prod(scenario.radices)
    if total > budget:
        raise BudgetExceeded(f"{total} assignments exceed budget {budget}")
    size = _coordinate_count(scenario)
    if total * size > MEMORY_BUDGET:
        raise BudgetExceeded(
            f"{total} x {size} coordinate entries exceed the memory budget")
    # the maximizers of the empty inequality: every assignment, in index order
    coords = _coordinate_rows(scenario, maximizers(scenario.radices, []))
    return PolytopeDescription(scenario, coords)


def _int_terms(terms):
    """The integer form of canonical terms (check_inequality's list, which
    this does not check again): the coefficients scaled to integers over
    their common denominator; returns (terms, denominator)."""
    denom = math.lcm(*{c.denominator for _, _, c in terms})
    return [(m, o, c.numerator * (denom // c.denominator)) for m, o, c in terms], denom


def classical_bound(inequality, scenario, budget=DEFAULT_BUDGET):
    """Exact maximum of the inequality over deterministic assignments.

    One path: check_inequality's one pass checks the terms
    (ScenarioMismatch) and indexes their outcomes, the coefficients are
    scaled to integers over their common denominator, and variable
    elimination maximizes them, on int64 tables or, when the scaled coefficients are too wide
    for those, on Python ints. budget caps the entries of the largest
    elimination table.
    """
    return _eliminate(inequality, scenario, budget)[0]


def _eliminate(inequality, scenario, budget):
    """(maximum, elimination) of the inequality's integer form; the
    elimination record gives the maximizers."""
    terms, denom = _int_terms(check_inequality(scenario, inequality))
    best, elimination = best_assignment(scenario.radices, terms, budget)
    return Fraction(best, denom), elimination


def _scaled_maximum(radices, terms, scale, budget):
    """Fraction(maximum, scale) of integer index terms (best_assignment's
    terms) that are valid already, from _int_terms or as the SIC lift
    builds them: no check runs."""
    return Fraction(best_assignment(radices, terms, budget)[0], scale)


def polytope_dimension(scenario):
    """Affine dimension of the polytope in closed form: the sum over the
    nonempty cliques C of the compatibility graph of prod_{m in C} (o_m - 1).

    Linear functionals on the vertices are the functions of the assignment
    that sum functions of one maximal context each. Taking the constant and
    o_m - 1 outcome indicators as the basis for measurement m, their
    products over clique subsets (the clique monomials, the Collins-Gisin
    coordinates: J. Phys. A 37, 1775, 2004) are a basis of that span. The
    constant is in it, since each context's indicators sum to one, so the
    affine dimension counts the nonempty monomials. No vertex is built.
    """
    cliques = set()
    for ctx in scenario.contexts:
        for k in range(1, len(ctx) + 1):
            cliques.update(itertools.combinations(ctx, k))
    return sum(math.prod(scenario.radices[m] - 1 for m in c) for c in cliques)


def int_rank(rows):
    """Rank over the rationals of an integer matrix (Bareiss elimination;
    every intermediate value is an integer minor, so each division by the
    previous pivot is exact)."""
    rows = [[int(v) for v in r] for r in rows]
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    rank = 0
    prev = 1
    for c in range(n):
        piv = None
        for i in range(rank, m):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][c]
        for i in range(rank + 1, m):
            ric = rows[i][c]
            if ric == 0 and p == prev:
                # the update would leave the row unchanged
                continue
            row_i, row_r = rows[i], rows[rank]
            for j in range(c + 1, n):
                row_i[j] = (row_i[j] * p - ric * row_r[j]) // prev
            row_i[c] = 0
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def _affine_rank(coords):
    """Dimension of the affine hull of 0/1 coordinate rows.

    The hull's dimension is the rank of the difference rows A from the
    first vertex, and over Q rank(A) = rank(A^T A) = rank(A A^T), so
    int_rank runs on the smaller of the two Gram matrices. A's entries
    are in {-1, 0, 1}, so each Gram entry is an integer no larger than
    A's longer side, which stays below 2**53: the float64 product is
    exact.
    """
    if coords.shape[0] <= 1:
        return 0
    diffs = coords[1:].astype(np.float64) - coords[0]
    assert max(diffs.shape) < 1 << 53, "float64 Gram entries would not be exact"
    gram = diffs.T @ diffs if diffs.shape[1] <= diffs.shape[0] else diffs @ diffs.T
    return int_rank(gram.astype(np.int64).tolist())


def tightness_test(inequality, scenario, budget=DEFAULT_BUDGET):
    """Facet verdict for the inequality at its stored bound, all exact:
    one elimination gives the bound and the face's vertices. budget caps
    the largest elimination table, the coordinate count D and, with
    MEMORY_BUDGET // D, the face, each before the work it guards."""
    max_val, elimination = _eliminate(inequality, scenario, budget)
    return _face_verdict(inequality, scenario, max_val, elimination, budget)


def _face_verdict(inequality, scenario, max_val, elimination, budget):
    """tightness_test's verdict from an elimination already run: max_val
    and elimination may come from another scenario with the same
    outcome counts and terms, whose maximizers are the same assignments."""
    size = _coordinate_count(scenario)
    if size > budget:
        raise BudgetExceeded(f"{size} coordinates exceed budget {budget}")
    poly_dim = polytope_dimension(scenario)  # admitted: walks at most D subsets
    if max_val > inequality.bound:
        return TightnessReport("violated-by-vertex", max_val, 0, -1, poly_dim)
    if max_val < inequality.bound:
        return TightnessReport("not supporting", max_val, 0, -1, poly_dim)
    face = maximizers(scenario.radices, elimination,
                      limit=min(budget, MEMORY_BUDGET // max(size, 1)))
    rows = _coordinate_rows(scenario, face)
    face_dim = _affine_rank(rows)
    verdict = "facet" if face_dim == poly_dim - 1 else "lower-dimensional face"
    return TightnessReport(verdict, max_val, rows.shape[0], face_dim, poly_dim)


def _membership_lp(coords, coords_b, tol):
    """Feasibility system for convex weights, optionally with slack tol.

    Columns: N vertex weights, then for tol > 0 per coordinate a +slack,
    a -slack and a cap filler. Rows: D coordinate equations, the weight
    normalization, and for tol > 0 the slack caps. The coefficients are
    one int64 array, built once and returned as the list of its rows,
    since solve_feasibility reads integer rows only; the behavior and
    tol enter through the right-hand sides alone, as Fractions.
    """
    n, d = coords.shape
    caps = 0 if tol == 0 else d
    a = np.zeros((d + 1 + caps, n + 3 * caps), dtype=np.int64)
    a[:d, :n] = coords.T
    a[d, :n] = 1
    rhs = [*coords_b, Fraction(1)]
    if caps:
        i = np.arange(d)
        a[i, n + 3 * i] = 1
        a[i, n + 3 * i + 1] = -1
        for k in range(3):
            a[d + 1 + i, n + 3 * i + k] = 1
        rhs += [tol] * d
    return list(a), rhs


def membership_test(behavior, scenario, tol=None, budget=DEFAULT_BUDGET):
    """Exact membership in the convex hull of deterministic behaviors.

    Rational behaviors are decided exactly at the default tol 0; float
    behaviors are read as the exact rationals their entries hold, with tol
    defaulting to 1e-9. A tol > 0, read as the exact rational it holds,
    allows a slack of tol around each coordinate, which makes the verdict
    approximate in the documented sense. One validate_behavior call checks
    the behavior at the same tol, so membership accepts what validation
    accepts, and the right-hand side is the integer form that call checked
    (ValidationReport.tables), so each behavior is read once.
    Non-members come with an exact separating inequality respected by
    every vertex and strictly violated by every behavior within tol of
    the (rationalized) behavior. A negative or non-finite tol raises
    InvalidTolerance in that validate_behavior call.
    """
    report = validate_behavior(scenario, behavior, tol=tol)  # raises InvalidTolerance
    if not report.ok:
        raise NoDisturbanceViolated(
            "behavior fails normalization/no-disturbance; not a polytope question")
    tol = frac((0 if behavior.mode == "rational" else 1e-9) if tol is None else tol)

    desc = enumerate_vertices(scenario, budget=budget)
    den, nums = report.tables
    b = [Fraction(v, den) for row in nums for v in row]

    rows, rhs = _membership_lp(desc.coords, b, tol)
    res = solve_feasibility(rows, rhs)
    if res.feasible:
        weights = {i: res.x[i] for i in range(desc.n_vertices) if res.x[i] != 0}
        return MembershipResult(True, weights=weights)

    # the slack columns force y_cap <= 0 and |y_i| <= -y_cap_i, so y.b > 0
    # puts b past every vertex by more than tol * sum |y_i|: y[:D] separates
    # every behavior within tol of b strictly
    coefs = res.certificate[: len(b)]
    value = sum(c * v for c, v in zip(coefs, b) if c)
    events = ((ctx, asg) for ctx, grid in zip(scenario.contexts, scenario.grids)
              for asg in grid)
    terms = tuple((ctx, asg, c) for (ctx, asg), c in zip(events, coefs) if c)
    # within budget: no elimination table exceeds the admitted assignment count
    bound = classical_bound(Inequality(terms, 0), scenario, budget=budget)
    witness = Inequality(terms, bound, kind="NCHV", label="separating-witness")
    return MembershipResult(False, witness=witness, witness_value=value)
