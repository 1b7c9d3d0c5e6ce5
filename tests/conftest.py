import itertools
import numbers
from fractions import Fraction

import numpy as np
import pytest

from ksatlas.bridge import chsh_example, n_cycle, pearle_hexagon, pm_square
from ksatlas.errors import MissingContextTable, NegativeProbability
from ksatlas.quantum import _operator, mat_to_json, observable_effects
from ksatlas.scenario import outcome_grid

F = Fraction


def _exact(v):
    """v as a Fraction of Python ints; numpy integers become ints first."""
    return F(int(v)) if isinstance(v, numbers.Integral) else F(v)


def fraction_simplex(a_rows, b, bland_after=None):
    """Reference: the phase-1 simplex on a full Fraction tableau. The
    structural column with the largest positive reduced cost enters
    (lowest index on ties); an artificial, lowest index first, only when
    no structural column improves. After bland_after consecutive
    degenerate pivots (zero right-hand side in the leaving row; default
    m, the row count) the lowest-index improving column enters until a
    pivot moves the objective. Ratio ties go to the smallest basis
    variable. Returns (feasible, x, certificate, objective, pivots), the
    fields of ratlp.FeasibilityResult in order."""
    m, n = len(a_rows), len(a_rows[0])
    tab = []
    for i, (row, rhs) in enumerate(zip(a_rows, b)):
        sign = -1 if rhs < 0 else 1
        tab.append([sign * _exact(v) for v in row] + [F(int(j == i)) for j in range(m)]
                   + [sign * _exact(rhs)])
    width = n + m
    basis = list(range(n, width))
    red = [sum(r[j] for r in tab) - (j >= n and j < width) for j in range(width + 1)]
    bland_after = m if bland_after is None else bland_after
    pivots = degenerate = 0
    while True:
        improving = [j for j in range(n) if red[j] > 0]
        if not improving:
            enter = next((j for j in range(n, width) if red[j] > 0), None)
        elif degenerate >= bland_after:
            enter = improving[0]
        else:
            enter = max(improving, key=lambda j: (red[j], -j))
        if enter is None:
            break
        cand = [i for i in range(m) if tab[i][enter] > 0]
        leave = min(cand, key=lambda i: (tab[i][width] / tab[i][enter], basis[i]))
        degenerate = degenerate + 1 if tab[leave][width] == 0 else 0
        row = [v / tab[leave][enter] for v in tab[leave]]
        tab = [row if i == leave else [v - t[enter] * w for v, w in zip(t, row)]
               if t[enter] else t for i, t in enumerate(tab)]
        red = [v - red[enter] * w for v, w in zip(red, row)]
        basis[leave] = enter
        pivots += 1
    objective = sum(tab[i][width] for i in range(m) if basis[i] >= n)
    if objective == 0:
        x = [F(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = tab[i][width]
        return True, x, None, F(0), pivots
    y = [(red[n + i] + 1) * (-1 if b[i] < 0 else 1) for i in range(m)]
    return False, None, y, objective, pivots


def fraction_validation(scenario, behavior, tol=0, floor=0):
    """Reference: validate_behavior on a rational behavior in Fraction
    arithmetic, entry by entry; an entry below floor is negative. Returns
    (ok, normalization, no_disturbance) as the report holds them, or
    raises what validate_behavior raises."""
    tol = F(tol)
    ctxs = scenario.contexts
    norm = []
    for ctx in ctxs:
        tab = behavior.table(ctx)
        grid = outcome_grid(scenario, ctx)
        for asg in grid:
            if asg not in tab:
                raise MissingContextTable(f"context {ctx} lacks entry for {asg}")
            if tab[asg] < floor:
                raise NegativeProbability(f"P{asg}|{ctx} = {tab[asg]}")
        dev = abs(sum(tab[asg] for asg in grid) - 1)
        if dev > tol:
            norm.append((ctx, dev))
    disturbance = []
    for a, b in itertools.combinations(ctxs, 2):
        shared = tuple(sorted(set(a) & set(b)))
        if not shared:
            continue
        ta, tb = behavior.marginal_table(a, shared), behavior.marginal_table(b, shared)
        worst = max(abs(ta[asg] - tb[asg]) for asg in outcome_grid(scenario, shared))
        if worst > tol:
            disturbance.append((a, b, shared, worst))
    return not (norm or disturbance), tuple(norm), tuple(disturbance)


def rotated_a11(pm, angle=0.05):
    """The PM square's effects with A11 = Z (x) I turned towards X (x) I by
    angle, so that A11 no longer commutes with its compatible A13 = Z (x) Z,
    and the set's JSON with them and with q = Tr(W)/d of its witness."""
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    a11 = np.kron(np.cos(angle) * z + np.sin(angle) * x, np.eye(2))
    effects = (observable_effects(a11),) + tuple(pm.effects[1:])
    data = pm.to_json()
    data["measurements"][0]["effects"] = [mat_to_json(e) for e in effects[0]]
    data["q"] = float(np.trace(_operator(4, effects, pm.terms)).real) / 4
    return effects, data


@pytest.fixture(scope="session")
def hexagon():
    return n_cycle(6)


@pytest.fixture(scope="session")
def pearle():
    return pearle_hexagon()


@pytest.fixture(scope="session")
def chsh():
    return chsh_example()


@pytest.fixture(scope="session")
def pm():
    return pm_square()
