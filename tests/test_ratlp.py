from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksatlas.ratlp import solve_feasibility

F = Fraction


def fraction_simplex(a_rows, b):
    """Reference: the phase-1 Bland simplex on a Fraction tableau.
    Returns (feasible, x, certificate, objective)."""
    m, n = len(a_rows), len(a_rows[0])
    tab = []
    for i, (row, rhs) in enumerate(zip(a_rows, b)):
        sign = -1 if rhs < 0 else 1
        tab.append([sign * F(v) for v in row] + [F(int(j == i)) for j in range(m)]
                   + [sign * F(rhs)])
    width = n + m
    basis = list(range(n, width))
    red = [sum(r[j] for r in tab) - (j >= n and j < width) for j in range(width + 1)]
    while True:
        enter = next((j for j in range(width) if red[j] > 0), None)
        if enter is None:
            break
        cand = [i for i in range(m) if tab[i][enter] > 0]
        leave = min(cand, key=lambda i: (tab[i][width] / tab[i][enter], basis[i]))
        row = [v / tab[leave][enter] for v in tab[leave]]
        tab = [row if i == leave else [v - t[enter] * w for v, w in zip(t, row)]
               for i, t in enumerate(tab)]
        red = [v - red[enter] * w for v, w in zip(red, row)]
        basis[leave] = enter
    objective = sum(tab[i][width] for i in range(m) if basis[i] >= n)
    if objective == 0:
        x = [F(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = tab[i][width]
        return True, x, None, F(0)
    y = [(red[n + i] + 1) * (-1 if b[i] < 0 else 1) for i in range(m)]
    return False, None, y, objective


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
    assert (res.feasible, res.x, res.certificate, res.objective) == fraction_simplex(a, b)
