from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_simplex
from ksatlas.polytope import _membership_lp
from ksatlas.ratlp import solve_feasibility

F = Fraction


def check_certificate(a_rows, b, y):
    """y must separate: y.A <= 0 on every column yet y.b > 0."""
    m, n = len(a_rows), len(a_rows[0])
    for j in range(n):
        assert sum(y[i] * a_rows[i][j] for i in range(m)) <= 0
    assert sum(y[i] * b[i] for i in range(m)) > 0


def test_feasible_point_is_exact():
    # x1 + x2 = 1, x1 - x2 = 1/3  ->  x = (2/3, 1/3)
    a = [[F(1), F(1)], [F(1), F(-1)]]
    b = [F(1), F(1, 3)]
    res = solve_feasibility(a, b)
    assert res.feasible
    assert sum(xi * ai for xi, ai in zip(res.x, a[0])) == b[0]
    assert sum(xi * ai for xi, ai in zip(res.x, a[1])) == b[1]
    assert all(xi >= 0 for xi in res.x)


def test_infeasible_has_valid_certificate():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    a = [[F(1), F(1)], [F(1), F(1)]]
    b = [F(1), F(2)]
    res = solve_feasibility(a, b)
    assert not res.feasible
    check_certificate(a, b, res.certificate)


def test_negative_rhs_rows_are_handled():
    a = [[F(1), F(-2)]]
    b = [F(-3)]
    res = solve_feasibility(a, b)
    assert res.feasible
    assert res.x[0] - 2 * res.x[1] == -3


def test_random_convex_hull_instances_match_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(41)
    for _ in range(25):
        nv, d = int(rng.integers(3, 9)), int(rng.integers(2, 5))
        verts = rng.integers(0, 2, size=(nv, d))
        if rng.random() < 0.5:
            w = rng.dirichlet(np.ones(nv))
            point = w @ verts
        else:
            point = rng.uniform(-0.5, 1.5, size=d)
        a = [[F(int(verts[j][i])) for j in range(nv)] for i in range(d)]
        a.append([F(1)] * nv)
        b = [F(x).limit_denominator(10**6) for x in point] + [F(1)]
        res = solve_feasibility(a, b)
        ref = linprog(np.zeros(nv), A_eq=np.vstack([verts.T, np.ones(nv)]),
                      b_eq=np.array([float(x) for x in b]),
                      bounds=(0, None), method="highs")
        assert res.feasible == ref.success
        if not res.feasible:
            check_certificate(a, b, res.certificate)


def test_degenerate_system_does_not_cycle():
    # classic degeneracy: redundant equalities with a zero rhs
    a = [
        [F(1), F(1), F(1), F(0)],
        [F(1), F(1), F(1), F(0)],
        [F(0), F(0), F(0), F(1)],
    ]
    b = [F(0), F(0), F(1)]
    res = solve_feasibility(a, b)
    assert res.feasible
    assert res.x[3] == 1


fractions = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 5, 6, 7]))


@st.composite
def systems(draw):
    """Small systems with mixed denominators, negative right-hand sides,
    and degenerate rows: zero rows with zero rhs and rescaled copies."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    a = [draw(st.lists(fractions, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(fractions, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["zero", "copy"]))
        if kind == "zero":
            a.append([F(0)] * n)
            b.append(F(0))
        else:
            i = draw(st.integers(0, len(a) - 1))
            f = draw(st.sampled_from([F(1), F(-1), F(2, 3), F(-5, 2)]))
            a.append([f * v for v in a[i]])
            b.append(f * b[i])
    return a, b


@settings(max_examples=300, deadline=None)
@given(systems())
def test_feasibility_answer_is_certified(system):
    a, b = system
    res = solve_feasibility(a, b)
    if res.feasible:
        assert all(xi >= 0 for xi in res.x)
        for row, rhs in zip(a, b):
            assert sum(v * xi for v, xi in zip(row, res.x)) == rhs
        assert res.objective == 0
    else:
        check_certificate(a, b, res.certificate)
        assert res.objective > 0
    assert (res.feasible, res.x, res.certificate, res.objective,
            res.pivots) == fraction_simplex(a, b)


@st.composite
def membership_systems(draw):
    """Systems shaped like the membership LP, with 6-20 rows before the
    extra ones: 0/1 vertex columns, the weight normalization and
    optionally the slack block of polytope._membership_lp. The
    right-hand side is a convex mixture of the columns (a member), a
    point drawn independently of them (mostly a non-member), or a float
    mixture with noise, rationalized exactly (denominators near 2^53).
    Up to three rows that are Fraction combinations of others make the
    system redundant and run the row-scaling path."""
    tol = draw(st.sampled_from([0, 0, F(1e-9), F(1, 8)]))
    d = draw(st.integers(5, 19) if tol == 0 else st.integers(3, 9))
    n = draw(st.integers(1, 40))
    coords = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                                    min_size=n, max_size=n)), dtype=np.uint8)
    kind = draw(st.sampled_from(["member", "nonmember", "float"]))
    if kind == "nonmember":
        point = draw(st.lists(fractions, min_size=d, max_size=d))
    else:
        raw = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        raw[0] += not any(raw)
        weights = [F(w, sum(raw)) for w in raw]
        point = [sum(w * int(c) for w, c in zip(weights, col)) for col in coords.T]
        if kind == "float":
            noise = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
            point = [F(float(p) + 1e-12 * e) for p, e in zip(point, noise)]
    a, b = _membership_lp(coords, point, tol)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a) - 1))
        f, g = draw(fractions), draw(fractions)
        a.append([f * u + g * v for u, v in zip(a[i], a[j])])
        b.append(f * b[i] + g * b[j])
    return a, b


@settings(max_examples=60, deadline=None)
@given(membership_systems())
def test_membership_shaped_systems_take_the_reference_path(system):
    a, b = system
    res = solve_feasibility(a, b)
    assert (res.feasible, res.x, res.certificate, res.objective,
            res.pivots) == fraction_simplex(a, b)


@st.composite
def wide_systems(draw):
    """Systems whose int64 block outgrows 2^63 part-way through the solve:
    coefficients of 2^29-2^40 among small ones, in rows of ints or of
    Fractions with small denominators. The right-hand side is A x for a
    small x >= 0 (feasible) or drawn freely."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    big = 2 ** draw(st.integers(30, 40))
    entry = st.one_of(st.integers(-3, 3), st.builds(lambda s, v: s * v, st.sampled_from([1, -1]),
                                                    st.integers(big // 2, big)))
    a = []
    for _ in range(m):
        row = draw(st.lists(entry, min_size=n, max_size=n))
        if draw(st.booleans()):
            den = draw(st.sampled_from([2, 3, 7]))
            row = [F(v, den) for v in row]
        a.append(row)
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        b = [sum(v * xi for v, xi in zip(row, x)) for row in a]
    else:
        b = draw(st.lists(st.integers(-big, big), min_size=m, max_size=m))
    return a, b


@settings(max_examples=200, deadline=None)
@given(wide_systems())
def test_systems_that_outgrow_int64_take_the_reference_path(system):
    a, b = system
    res = solve_feasibility(a, b)
    assert (res.feasible, res.x, res.certificate, res.objective,
            res.pivots) == fraction_simplex(a, b)


def test_int64_guard_keeps_wide_systems_exact():
    # feasible with x = (0, 1): after the first pivot, pricing multiplies
    # det ~ 2^31.9 by coefficients ~ 2^31.9, past 2^63; unchecked, int64
    # wraps and the solver reports infeasible
    res = solve_feasibility([[3943913018, 3], [-3, 2602656453]], [3, 2602656453])
    assert (res.feasible, res.x, res.pivots) == (True, [F(0), F(1)], 2)
    # feasible with x = (2, 2): here the update inv * piv - column (x)
    # pivot_row is what leaves int64
    res = solve_feasibility([[1817072, 1], [0, -3862693]], [3634146, -7725386])
    assert (res.feasible, res.x, res.pivots) == (True, [F(2), F(2)], 2)
    # the artificial costs L / s_i pass 2^63 before any pivot
    a = [[F(1, 2**32 - 5), 1], [1, F(1, 2**31 - 1)], [F(1, 2**33 + 1), F(1, 7)]]
    res = solve_feasibility(a, [1, 1, 1])
    assert (res.feasible, res.x, res.certificate, res.objective,
            res.pivots) == fraction_simplex(a, [1, 1, 1])


def test_outputs_are_fractions_of_python_ints():
    point = [F(v) for v in (0.1, 0.3, 0.7)]
    cases = [
        # int64 throughout, feasible and infeasible
        ([[1, 1], [1, -1]], [1, F(1, 3)]),
        ([[1, 1], [1, 1]], [1, 2]),
        # promoted part-way, feasible and infeasible
        ([[3943913018, 3], [-3, 2602656453]], [3, 2602656453]),
        ([[3943913018, 3], [-3, 2602656453]], [-3, 2602656453]),
        # Python ints from the start: a coefficient, then the costs, past int64
        ([[2**70, 1], [1, 1]], [F(1, 3), 1]),
        ([[F(1, 2**32 - 5), 1], [1, F(1, 2**31 - 1)], [F(1, 2**33 + 1), F(1, 7)]], [1, 1, 1]),
        # scaled Fraction rows; a rationalized float right-hand side
        ([[F(1, 3), 1], [1, F(2, 7)]], [F(1, 2), 1]),
        _membership_lp(np.array([[0, 0, 1], [1, 1, 0], [0, 1, 1]], dtype=np.uint8), point, 0),
    ]
    for a, b in cases:
        res = solve_feasibility(a, b)
        for v in [res.objective, *(res.x or []), *(res.certificate or [])]:
            assert type(v) is F and type(v.numerator) is int and type(v.denominator) is int
