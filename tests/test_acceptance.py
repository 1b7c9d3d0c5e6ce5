"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its runtime (run with `pytest -v -s`
to see them); tolerances and time limits are asserted, not just
reported. Oracles are computed independently inside this module where
the criterion calls for them.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ksatlas.bridge import bell_to_ks, ks_to_bell, n_cycle, pearle_hexagon, pm_square, sic_to_bell
from ksatlas.cli import main
from ksatlas.graphs import Graph, complete_graph, cycle_graph, independence_number, lovasz_theta
from ksatlas.polytope import classical_bound, enumerate_vertices, membership_test, tightness_test
from ksatlas.quantum import neumark_dilation, random_state, seesaw_max, verify_sic, criticality_check, witness_operator
from ksatlas.scenario import (
    Behavior,
    build_scenario,
    evaluate,
    mix_behaviors,
    outcome_grid,
    uniform_behavior,
)

F = Fraction


def report(num, text, t0, limit):
    dt = time.monotonic() - t0
    assert dt < limit, f"criterion {num} took {dt:.1f}s, limit {limit}s"
    print(f"PASS criterion {num}: {text} ({dt:.2f}s < {limit}s)")


@pytest.fixture(scope="module")
def pearle_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept")
    assert main(["examples", "pearle", "--out", str(out)]) == 0
    return out


def test_criterion_1_hexagon_bound(pearle_files, capsys):
    t0 = time.monotonic()
    code = main(["bound", str(pearle_files / "pearle.scenario.json"),
                 str(pearle_files / "pearle.gamma.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["classical_bound"] == "4"
    report(1, "hexagon witness classical bound is exactly 4", t0, 1.0)


def test_criterion_2_hexagon_tightness(pearle_files, capsys):
    t0 = time.monotonic()
    code = main(["tight", str(pearle_files / "pearle.scenario.json"),
                 str(pearle_files / "pearle.gamma.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["verdict"] == "facet"
    report(2, "hexagon witness is a facet (exact arithmetic)", t0, 10.0)


def test_criterion_3_pearle_bell_not_tight(pearle_files, capsys):
    t0 = time.monotonic()
    code = main(["bound", str(pearle_files / "pearle.bell_scenario.json"),
                 str(pearle_files / "pearle.gamma_prime.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["result"]["classical_bound"] == "4"
    code = main(["tight", str(pearle_files / "pearle.bell_scenario.json"),
                 str(pearle_files / "pearle.gamma_prime.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["verdict"] == "lower-dimensional face"
    report(3, "3x3-setting Bell version: bound 4 but not a facet", t0, 60.0)


def test_criterion_4_seesaw_cycle_maxima():
    targets = {4: 2.828427, 5: 4.045085, 6: 5.196152, 8: 7.391036}
    for n, approx in targets.items():
        t0 = time.monotonic()
        scenario, ineq = n_cycle(n)
        res = seesaw_max(ineq, scenario, dim=2, restarts=20, seed=0)
        closed_form = n * math.cos(math.pi / n)
        assert abs(closed_form - approx) < 5e-7  # published digits sanity
        assert abs(res.value - closed_form) < 1e-6
        report(4, f"seesaw on the {n}-cycle reaches {closed_form:.6f}", t0, 30.0)


def test_criterion_5_bell_to_ks_invariance(pearle_files):
    t0 = time.monotonic()
    from ksatlas.bridge import chsh_example
    for scenario, ineq in (chsh_example(),
                           (pearle_hexagon().bell_scenario,
                            pearle_hexagon().gamma_prime)):
        rep = bell_to_ks(scenario, ineq)
        assert rep.source_bound == rep.target_bound
        assert rep.source_tightness.verdict == rep.target_tightness.verdict
        assert rep.target_scenario == scenario
        back = ks_to_bell(rep.target_scenario, rep.target_inequality, rep.partition)
        assert back.target_scenario == scenario
        assert back.target_inequality.terms == ineq.terms
        assert back.target_inequality.bound == ineq.bound
        assert back.target_inequality.kind == ineq.kind
        assert back.target_tightness.verdict == rep.source_tightness.verdict
    report(5, "Bell<->KS relabeling preserves bound and tightness, round trip", t0, 60.0)


def test_criterion_6_neumark_dilations():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)

    def check(effects, d):
        dil = neumark_dilation(effects)
        v = dil.isometry
        assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-10
        for p in dil.projectors:
            assert np.abs(p @ p - p).max() < 1e-10
        for i in range(len(dil.projectors)):
            for j in range(i + 1, len(dil.projectors)):
                assert np.abs(dil.projectors[i] @ dil.projectors[j]).max() < 1e-10
        for _ in range(100):
            psi = random_state(d, rng)
            for k, e in enumerate(effects):
                want = float((psi.conj() @ e @ psi).real)
                assert abs(want - dil.outcome_probability(k, psi)) < 1e-10

    trine = [(2 / 3) * np.outer(v, v).astype(complex) for v in (
        np.array([math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)])
        for k in range(3))]
    check(trine, 2)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        mats = []
        for _ in range(k):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            mats.append(g @ g.conj().T)
        total = sum(mats)
        vals, vecs = np.linalg.eigh(total)
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
        effects = [0.5 * (m + m.conj().T) for m in
                   (inv_sqrt @ m @ inv_sqrt for m in mats)]
        check(effects, d)
    report(6, "trine + 50 random POVMs dilate with 1e-10 fidelity", t0, 5.0)


def test_criterion_7_graph_invariants():
    t0 = time.monotonic()
    assert independence_number(cycle_graph(5)) == 2
    lo, hi = lovasz_theta(cycle_graph(5), tol=1e-6)
    assert hi - lo <= 1e-6 and lo <= math.sqrt(5) <= hi
    for n in range(2, 11):
        klo, khi = lovasz_theta(complete_graph(n), tol=1e-8)
        assert abs(klo - 1) <= 1e-8 and abs(khi - 1) <= 1e-8
        elo, ehi = lovasz_theta(Graph(n, ()), tol=1e-8)
        assert abs(elo - n) <= 1e-8 and abs(ehi - n) <= 1e-8
    rng = np.random.default_rng(7)
    tol = 1e-5
    for _ in range(200):
        n = int(rng.integers(2, 21))
        p = rng.uniform(0.1, 0.9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = Graph(n, tuple(edges))
        alpha = independence_number(g)
        lo, hi = lovasz_theta(g, tol=tol)
        assert alpha <= lo + tol
    report(7, "alpha/theta certified on named families and 200 random graphs",
           t0, 60.0)


def test_criterion_8_pm_square_verification():
    t0 = time.monotonic()
    pm = pm_square()
    w = witness_operator(pm)
    assert np.linalg.norm(w - 6 * np.eye(4)) <= 1e-9
    # independent brute force over all sign assignments respecting contexts
    contexts = list(pm.scenario.contexts)
    signs = {}
    for ctx in contexts:
        mats = []
        for m in ctx:
            mats.append(pm.effects[m][0] - pm.effects[m][1])
        prod = mats[0] @ mats[1] @ mats[2]
        signs[ctx] = 1 if prod[0, 0].real > 0 else -1
    best = None
    for assign in itertools.product((1, -1), repeat=9):
        v = sum(signs[ctx] * assign[ctx[0]] * assign[ctx[1]] * assign[ctx[2]]
                for ctx in contexts)
        best = v if best is None else max(best, v)
    assert best == 4 == pm.mu
    critical, breaks = criticality_check(pm)
    assert critical and all(breaks) and len(breaks) == 9
    report(8, "PM square: W = 6I, brute NCHV bound 4, all 9 removals critical",
           t0, 30.0)


def test_criterion_9_sic_to_bell_lift():
    t0 = time.monotonic()
    pm = pm_square()
    rep = sic_to_bell(pm)
    assert isinstance(rep.local_bound, Fraction)
    assert rep.local_bound == F(16, 3)
    assert rep.quantum_value > float(rep.local_bound) + 0.5
    assert abs(rep.quantum_value - 6.0) < 1e-9
    assert len(rep.removal_violations) == 9
    for _, v in rep.removal_violations:
        assert v <= 1e-9
    report(9, "PM lift: exact local bound 16/3, quantum value 6, removals kill it",
           t0, 300.0)


def _oracle_membership(scenario, behavior):
    """Independent decomposition-as-mixture LP: one weight per global
    deterministic assignment, solved in floats by scipy."""
    from scipy.optimize import linprog

    contexts = list(scenario.contexts)
    assignments = list(itertools.product(*scenario.outcomes))
    rows, rhs = [], []
    for ctx in contexts:
        for asg in outcome_grid(scenario, ctx):
            rows.append([
                1.0 if tuple(a[m] for m in ctx) == asg else 0.0
                for a in assignments
            ])
            rhs.append(float(behavior.table(ctx)[asg]))
    rows.append([1.0] * len(assignments))
    rhs.append(1.0)
    res = linprog(np.zeros(len(assignments)), A_eq=np.array(rows),
                  b_eq=np.array(rhs), bounds=(0, None), method="highs")
    return res.success


def test_criterion_10_membership_against_oracle():
    pytest.importorskip("scipy")
    t0 = time.monotonic()
    rng = np.random.default_rng(10)

    scenarios = []
    for n in (4, 5, 6, 8):
        scenarios.append(build_scenario(
            [f"m{i}" for i in range(n)], [2] * n,
            [(i, (i + 1) % n) for i in range(n)]))
    scenarios.append(build_scenario(
        ["a1", "a2", "a3", "b1", "b2", "b3"], [2] * 6,
        [(i, j) for i in range(3) for j in range(3, 6)]))

    descs = {s: enumerate_vertices(s) for s in scenarios}
    checked = 0
    while checked < 100:
        s = scenarios[checked % len(scenarios)]
        desc = descs[s]
        if checked % 2 == 0:
            # interior member: mixture with a uniform floor
            k = int(rng.integers(2, 6))
            idx = rng.choice(desc.n_vertices, size=k, replace=False)
            raw = [int(rng.integers(1, 9)) for _ in range(k)]
            tot = 4 * sum(raw)
            parts = [desc.vertex_behavior(i) for i in idx] + [uniform_behavior(s)]
            weights = [F(3 * r, tot) for r in raw] + [F(1, 4)]
            beh = mix_behaviors(parts, weights)
            expect_member = True
        else:
            # no-disturbing non-member: uniform marginals, strong correlators
            r = F(9, 10)
            tables = {}
            for ctx in s.contexts:
                sign = -1 if ctx == (0, len(s.measurements) - 1) else 1
                tables[ctx] = {
                    (a, b): F(1, 4) + F(a * b * sign, 4) * r
                    for a, b in itertools.product((1, -1), repeat=2)
                }
            beh = Behavior(s, "rational", tables)
            expect_member = False
        res = membership_test(beh, s)
        oracle = _oracle_membership(s, beh)
        assert res.member == oracle == expect_member, (checked, res.member, oracle)
        if not res.member:
            # exact witness check on every vertex and on the behavior
            for i in range(desc.n_vertices):
                assert evaluate(res.witness, desc.vertex_behavior(i)) \
                    <= res.witness.bound
            assert evaluate(res.witness, beh) > res.witness.bound
        checked += 1
    report(10, "membership agrees with the decomposition-LP oracle on 100 "
               "behaviors, witnesses exact", t0, 600.0)
