"""Exact geometry of the non-contextual / local polytope.

Vertices are the behaviors of global deterministic assignments. All
verdicts (classical bounds, membership, facet tightness) are exact.
An inequality has one integer form: its coefficients scaled to integers
over their common denominator and summed into one table per scope by
_kernels.scope_tables (int64 tables, or Python ints when those could
overflow). Three questions read that form: classical_bound maximizes it
by variable elimination, tightness_test takes every vertex's value as
the sum of the tables at the vertex's outcome digits, and
membership_test bounds its separating witness the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._kernels import best_assignment, scope_tables
from .errors import BudgetExceeded, NoDisturbanceViolated
from .ratlp import solve_feasibility
from .scenario import (
    Behavior,
    Inequality,
    check_inequality,
    frac,
    maximal_contexts,
    outcome_grid,
    validate_behavior,
)

__all__ = [
    "DEFAULT_BUDGET",
    "Layout",
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
MEMORY_BUDGET = 1 << 26  # max stored coordinate entries (N * D)


class Layout:
    """Flat coordinate order: maximal contexts lexicographically, each
    table in row-major outcome order."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.contexts = tuple(c.members for c in maximal_contexts(scenario))
        self.grids = [outcome_grid(scenario, c) for c in self.contexts]
        self.offsets = []
        d = 0
        for g in self.grids:
            self.offsets.append(d)
            d += len(g)
        self.size = d
        self.pairs = [
            (ctx, asg)
            for ctx, grid in zip(self.contexts, self.grids)
            for asg in grid
        ]

    def behavior_coords(self, behavior):
        vec = []
        for ctx, grid in zip(self.contexts, self.grids):
            tab = behavior.table(ctx)
            for asg in grid:
                v = tab[asg]
                vec.append(v if isinstance(v, Fraction) else frac(v))
        return vec

    def behavior_from_row(self, row, mode="rational"):
        tables = {}
        for ctx, grid, off in zip(self.contexts, self.grids, self.offsets):
            tab = {}
            for k, asg in enumerate(grid):
                v = row[off + k]
                tab[asg] = Fraction(int(v)) if mode == "rational" else float(v)
            tables[ctx] = tab
        return Behavior(self.scenario, mode, tables)


@dataclass
class PolytopeDescription:
    scenario: object
    layout: Layout
    coords: np.ndarray          # (N, D) uint8, one row per vertex
    assignment_index: np.ndarray  # the assignment realizing each vertex
    digits: list                # per measurement, its outcome index at each vertex

    @property
    def n_vertices(self):
        return self.coords.shape[0]

    def vertex_behavior(self, i):
        return self.layout.behavior_from_row(self.coords[i])

    _dim_cache: int | None = field(default=None, repr=False)

    @property
    def dimension(self):
        if self._dim_cache is None:
            self._dim_cache = _affine_rank(self.coords)
        return self._dim_cache


@dataclass(frozen=True)
class TightnessReport:
    verdict: str                 # facet | lower-dimensional face | not supporting | violated-by-vertex
    classical_bound: Fraction
    saturating_vertices: int
    face_dimension: int          # -1 when no vertex saturates
    polytope_dimension: int

    def to_json(self):
        from .scenario import frac_str
        return {
            "verdict": self.verdict,
            "classical_bound": frac_str(self.classical_bound),
            "saturating_vertices": self.saturating_vertices,
            "face_dimension": self.face_dimension,
            "polytope_dimension": self.polytope_dimension,
        }


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    weights: dict | None = None       # vertex index -> Fraction
    witness: Inequality | None = None
    witness_value: Fraction | None = None

    def to_json(self, scenario):
        from .scenario import frac_str
        out = {"member": self.member}
        if self.weights is not None:
            out["weights"] = {str(k): frac_str(w) for k, w in self.weights.items() if w}
        if self.witness is not None:
            out["witness"] = self.witness.to_json(scenario)
            out["witness_value"] = frac_str(self.witness_value)
        return out


def _assignment_space(scenario):
    radices = [len(o) for o in scenario.outcomes]
    total = 1
    for r in radices:
        total *= r
    return radices, total


def enumerate_vertices(scenario, budget=DEFAULT_BUDGET):
    """All deterministic-assignment behaviors as exact 0/1 coordinate rows,
    one per assignment in mixed-radix order.

    The rows are distinct: every measurement lies in some maximal context
    (isolated ones in a singleton), so a vertex's coordinates determine
    its assignment and no deduplication is needed.
    """
    layout = Layout(scenario)
    radices, total = _assignment_space(scenario)
    if total > budget:
        raise BudgetExceeded(f"{total} assignments exceed budget {budget}")
    if total * layout.size > MEMORY_BUDGET:
        raise BudgetExceeded(
            f"{total} x {layout.size} coordinate entries exceed the memory budget")

    # one digit vector per measurement, in the smallest dtype that holds
    # it, so no total x n_meas int64 matrix is ever built
    idx = np.arange(total, dtype=np.int64)
    digits = [None] * len(radices)
    stride = 1
    for m in range(len(radices) - 1, -1, -1):
        digits[m] = ((idx // stride) % radices[m]).astype(
            np.min_scalar_type(radices[m] - 1))
        stride *= radices[m]

    coords = np.zeros((total, layout.size), dtype=np.uint8)
    for ci, ctx in enumerate(layout.contexts):
        pos = np.full(total, layout.offsets[ci], dtype=np.int64)
        s = 1
        for m in reversed(ctx):
            # widen first: a small-dtype digit times a stride past its
            # range would wrap under NumPy 1.x value-based casting
            pos += digits[m].astype(np.int64) * s
            s *= radices[m]
        coords[idx, pos] = 1

    return PolytopeDescription(scenario, layout, coords, idx, digits)


def _int_terms(scenario, inequality):
    """Terms with outcome labels replaced by indices and coefficients
    scaled to integers; returns (terms, denominator)."""
    label_pos = [
        {o: k for k, o in enumerate(outs)} for outs in scenario.outcomes
    ]
    denom = math.lcm(*(coef.denominator for _, _, coef in inequality.terms))
    terms = []
    for members, asg, coef in inequality.terms:
        terms.append((
            tuple(members),
            tuple(label_pos[m][o] for m, o in zip(members, asg)),
            int(coef * denom),
        ))
    return terms, denom


def classical_bound(inequality, scenario, budget=DEFAULT_BUDGET):
    """Exact maximum of the inequality over deterministic assignments.

    One path: the coefficients are scaled to integers over their common
    denominator and maximized by variable elimination, on int64 tables or,
    when the scaled coefficients are too wide for those, on Python ints.
    budget caps the entries of the largest elimination table.
    """
    check_inequality(scenario, inequality)
    terms, denom = _int_terms(scenario, inequality)
    radices, _ = _assignment_space(scenario)
    best, _ = best_assignment(radices, terms, budget)
    return Fraction(best, denom)


def _vertex_values(desc, inequality):
    """Exact scaled inequality value of every enumerated vertex, the sum
    of its scope tables at the vertex's outcome digits; returns
    (values, denominator)."""
    terms, denom = _int_terms(desc.scenario, inequality)
    radices, _ = _assignment_space(desc.scenario)
    vals = np.zeros(desc.n_vertices, dtype=np.int64)
    for scope, tab in scope_tables(radices, terms).items():
        vals = vals + tab[tuple(desc.digits[m] for m in scope)]
    return vals, denom


def polytope_dimension(scenario, budget=DEFAULT_BUDGET):
    """Affine dimension of the vertex set, by fraction-free rank."""
    return enumerate_vertices(scenario, budget=budget).dimension


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
    """Facet verdict for the inequality at its stored bound, all exact."""
    check_inequality(scenario, inequality)
    desc = enumerate_vertices(scenario, budget=budget)
    vals, denom = _vertex_values(desc, inequality)
    max_val = Fraction(int(vals.max()), denom)
    poly_dim = desc.dimension

    if max_val > inequality.bound:
        return TightnessReport("violated-by-vertex", max_val, 0, -1, poly_dim)
    if max_val < inequality.bound:
        return TightnessReport("not supporting", max_val, 0, -1, poly_dim)
    sat = np.nonzero(vals == int(inequality.bound * denom))[0]
    face_dim = _affine_rank(desc.coords[sat])
    verdict = "facet" if face_dim == poly_dim - 1 else "lower-dimensional face"
    return TightnessReport(verdict, max_val, int(len(sat)), face_dim, poly_dim)


def _membership_lp(coords, coords_b, tol):
    """Feasibility system for convex weights, optionally with slack tol.

    Columns: N vertex weights, then for tol > 0 per coordinate a +slack,
    a -slack and a cap filler. Rows: D coordinate equations, the weight
    normalization, and for tol > 0 the slack caps. Coefficients are
    Python ints; only the right-hand sides are Fractions.
    """
    n, d = coords.shape
    extra = 0 if tol == 0 else 3 * d
    rows = [row + [0] * extra for row in coords.T.tolist()]
    rhs = list(coords_b)
    rows.append([1] * n + [0] * extra)
    rhs.append(Fraction(1))
    if tol != 0:
        for i in range(d):
            rows[i][n + 3 * i] = 1
            rows[i][n + 3 * i + 1] = -1
            row = [0] * (n + extra)
            row[n + 3 * i: n + 3 * i + 3] = [1, 1, 1]
            rows.append(row)
            rhs.append(tol)
    return rows, rhs


def membership_test(behavior, scenario, tol=None, budget=DEFAULT_BUDGET):
    """Exact membership in the convex hull of deterministic behaviors.

    Rational behaviors are decided exactly (tol defaults to 0); float
    behaviors are rationalized entrywise and tested with a slack of tol
    (default 1e-9) around each coordinate, which makes the verdict
    approximate in the documented sense. Non-members come with an exact
    separating inequality respected by every vertex and strictly violated
    by every behavior within tol of the (rationalized) behavior.
    """
    report = validate_behavior(scenario, behavior,
                               tol=None if behavior.mode == "rational" else (tol or 1e-9))
    if not report.ok:
        raise NoDisturbanceViolated(
            "behavior fails normalization/no-disturbance; not a polytope question")
    if tol is None:
        tol = 0 if behavior.mode == "rational" else 1e-9
    tol = frac(tol)

    desc = enumerate_vertices(scenario, budget=budget)
    layout = desc.layout
    b = layout.behavior_coords(behavior)

    rows, rhs = _membership_lp(desc.coords, b, tol)
    res = solve_feasibility(rows, rhs)
    if res.feasible:
        weights = {i: res.x[i] for i in range(desc.n_vertices) if res.x[i] != 0}
        return MembershipResult(True, weights=weights)

    # the slack columns force y_cap <= 0 and |y_i| <= -y_cap_i, so y.b > 0
    # puts b past every vertex by more than tol * sum |y_i|: y[:D] separates
    # every behavior within tol of b strictly
    coefs = res.certificate[: layout.size]
    value = sum(c * b[i] for i, c in enumerate(coefs) if c)
    terms = tuple(
        (layout.pairs[i][0], layout.pairs[i][1], coefs[i])
        for i in range(layout.size)
        if coefs[i] != 0
    )
    vals, denom = _vertex_values(desc, Inequality(terms, 0))
    bound = Fraction(int(vals.max()), denom)
    witness = Inequality(terms, bound, kind="NCHV", label="separating-witness")
    return MembershipResult(False, witness=witness, witness_value=value)
