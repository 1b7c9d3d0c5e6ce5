import collections
import dataclasses
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ksatlas.bridge
import ksatlas.cli
import ksatlas.polytope
import ksatlas.quantum
import ksatlas.scenario
from ksatlas.bridge import (
    bell_to_ks,
    chsh_example,
    ks_to_bell,
    map_report,
    n_cycle,
    pearle_hexagon,
    pm_square,
    sic_to_bell,
)
from ksatlas.errors import (
    NonCommutingContext,
    NotABellScenario,
    InvalidPartition,
    TooSmall,
    UndersizedPart,
)
from ksatlas.graphs import Partition
from ksatlas.polytope import classical_bound, tightness_test
from ksatlas.quantum import (
    QuantumModel,
    criticality_check,
    quantum_behavior,
    remove_measurement,
    witness_operator,
)
from ksatlas.scenario import (
    Inequality,
    build_scenario,
    check_inequality,
    correlator_decomposition,
    correlator_inequality,
    evaluate,
)


def brute_cycle_bound(n):
    """Oracle: scan all sign assignments of the chained cycle expression."""
    best = None
    for signs in itertools.product((1, -1), repeat=n):
        v = sum(signs[i] * signs[i + 1] for i in range(n - 1))
        v -= signs[n - 1] * signs[0]
        best = v if best is None else max(best, v)
    return best


# -- canned examples ------------------------------------------------------------

def test_pearle_canned_values(pearle):
    assert pearle.gamma.bound == 4
    assert pearle.gamma.kind == "NCHV"
    assert pearle.gamma_prime.bound == 4
    assert pearle.gamma_prime.kind == "LR"
    assert pearle.partition.parts == ((0, 2, 4), (1, 3, 5))


def test_pearle_gamma_has_six_correlators_one_negative(pearle):
    coeffs, const = correlator_decomposition(pearle.scenario, pearle.gamma)
    assert const == 0
    assert len(coeffs) == 6
    negatives = [t for t, c in coeffs.items() if c < 0]
    assert negatives == [(0, 5)] and coeffs[(0, 5)] == -1


def test_n_cycle_reproduces_pearle(pearle):
    s6, g6 = n_cycle(6)
    assert s6 == pearle.scenario
    assert g6.terms == pearle.gamma.terms
    assert g6.bound == pearle.gamma.bound


def test_n_cycle_bounds_match_brute_force():
    for n in (4, 5, 6, 7, 8):
        _, ineq = n_cycle(n)
        assert ineq.bound == brute_cycle_bound(n) == n - 2


def test_n_cycle_rejects_small():
    with pytest.raises(TooSmall):
        n_cycle(3)


# -- bell_to_ks -------------------------------------------------------------------

def test_chsh_bell_to_ks(chsh):
    scenario, ineq = chsh
    rep = bell_to_ks(scenario, ineq)
    assert rep.connection == "one-to-one"
    assert rep.target_inequality.kind == "NCHV"
    assert rep.source_bound == rep.target_bound == 2
    assert rep.source_tightness.verdict == "facet"
    assert rep.target_tightness.verdict == "facet"
    assert rep.bound_preserved and rep.tightness_preserved


def test_gamma_prime_bell_to_ks(pearle):
    rep = bell_to_ks(pearle.bell_scenario, pearle.gamma_prime)
    assert rep.source_bound == rep.target_bound == 4
    assert rep.source_tightness.verdict == rep.target_tightness.verdict \
        == "lower-dimensional face"


def test_bell_to_ks_rejects_non_bell(pearle):
    with pytest.raises(NotABellScenario):
        bell_to_ks(pearle.scenario, pearle.gamma)  # hexagon is incomplete
    s = build_scenario(["a", "b"], [2, 2], [])
    from ksatlas.scenario import Inequality
    with pytest.raises(NotABellScenario):
        bell_to_ks(s, Inequality((), 0))


# -- ks_to_bell -------------------------------------------------------------------

def test_hexagon_ks_to_bell_loses_tightness(pearle):
    rep = ks_to_bell(pearle.scenario, pearle.gamma, pearle.partition)
    assert rep.connection == "partial"
    assert rep.source_bound == rep.target_bound == 4
    assert rep.source_tightness.verdict == "facet"
    assert rep.target_tightness.verdict == "lower-dimensional face"
    assert not rep.tightness_preserved
    # relabeling carries party prefixes
    assert rep.target_scenario.measurements == (
        "A_M1", "B_M2", "A_M3", "B_M4", "A_M5", "B_M6")


def test_complete_bipartite_ks_to_bell_is_identity(chsh):
    scenario, ineq = chsh
    ks = bell_to_ks(scenario, ineq)
    back = ks_to_bell(ks.target_scenario, ks.target_inequality, ks.partition)
    assert back.connection == "one-to-one"
    assert back.target_scenario == scenario
    assert back.target_inequality.terms == ineq.terms
    assert back.target_inequality.bound == ineq.bound
    assert back.target_inequality.kind == "LR"
    assert back.target_tightness.verdict == ks.source_tightness.verdict


def test_ks_to_bell_bound_never_drops(pearle):
    # source deterministic assignments embed into the target, exactly
    for n in (4, 6, 8):
        s, ineq = n_cycle(n)
        part = Partition((tuple(range(0, n, 2)), tuple(range(1, n, 2))))
        rep = ks_to_bell(s, ineq, part)
        assert rep.target_bound == rep.source_bound


@st.composite
def partitioned_scenarios(draw):
    """Dichotomic scenarios with a valid party partition: 2-3 parts of 2-3
    measurements each, no edge inside a part, a random subset of the
    cross-part pairs as edges, and terms on single measurements and edges
    at a bound that may or may not be the classical maximum."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    cuts = list(itertools.accumulate(sizes, initial=0))
    part = Partition(tuple(tuple(order[a:b]) for a, b in zip(cuts, cuts[1:])))
    part_of = {m: k for k, p in enumerate(part.parts) for m in p}
    cross = [(i, j) for i in range(n) for j in range(i + 1, n)
             if part_of[i] != part_of[j]]
    edges = draw(st.lists(st.sampled_from(cross), unique=True))
    s = build_scenario([f"M{i}" for i in range(n)], [2] * n, edges)
    scopes = [(m,) for m in range(n)] + sorted(edges)
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        members = draw(st.sampled_from(scopes))
        asg = tuple(draw(st.sampled_from((1, -1))) for _ in members)
        coef = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        terms.append((members, asg, coef))
    return s, Inequality(tuple(terms), draw(st.integers(-2, 4)), "NCHV"), part


@settings(max_examples=60, deadline=None)
@given(partitioned_scenarios())
def test_target_bound_is_the_source_maximum(case):
    # the target inequality is built at the source's elimination maximum;
    # recompute bound and verdict on the target and by brute force
    s, ineq, part = case
    rep = ks_to_bell(s, ineq, part)
    brute = max(
        sum((c for members, asg, c in ineq.terms
             if all(signs[m] == o for m, o in zip(members, asg))), Fraction(0))
        for signs in itertools.product((1, -1), repeat=len(s.measurements))
    )
    assert rep.target_bound == rep.target_inequality.bound == brute
    assert rep.target_bound == classical_bound(ineq, rep.target_scenario)
    assert rep.target_tightness == tightness_test(rep.target_inequality,
                                                  rep.target_scenario)


def test_eight_cycle_bell_bound_six():
    s, ineq = n_cycle(8)
    part = Partition((tuple(range(0, 8, 2)), tuple(range(1, 8, 2))))
    rep = ks_to_bell(s, ineq, part)
    assert rep.target_bound == 6
    assert rep.target_tightness.verdict == "lower-dimensional face"


def test_ks_to_bell_partition_validation(pearle):
    with pytest.raises(InvalidPartition):
        ks_to_bell(pearle.scenario, pearle.gamma,
                   Partition(((0, 1, 2), (3, 4, 5))))  # parts not independent
    with pytest.raises(UndersizedPart):
        s = build_scenario(["a", "b", "c"], [2] * 3, [(0, 1), (0, 2)])
        from ksatlas.scenario import Inequality
        ks_to_bell(s, Inequality((), 0), Partition(((0,), (1, 2))))


# -- map_report --------------------------------------------------------------------

def test_map_report_hexagon_partial(pearle):
    rep = map_report(pearle.scenario, pearle.gamma)
    assert rep.connection == "partial"
    assert rep.partition.parts == pearle.partition.parts
    assert not rep.tightness_preserved
    assert any("tightness lost" in note for note in rep.notes)
    assert any("quantum value" in note for note in rep.notes)


def test_map_report_chsh_one_to_one(chsh):
    scenario, ineq = chsh
    rep = map_report(scenario, ineq)
    assert rep.connection == "one-to-one"
    assert rep.bound_preserved and rep.tightness_preserved


def test_map_report_checks_a_given_partition_of_a_bell_scenario(chsh):
    # CHSH's own parties drive both directions of its map; a given
    # partition is still checked, and a valid one changes nothing
    scenario, ineq = chsh
    for witness in (ineq, dataclasses.replace(ineq, kind="NCHV")):
        with pytest.raises(InvalidPartition):
            map_report(scenario, witness, Partition(((0, 9), (1, 2, 3))))
        with pytest.raises(InvalidPartition):
            map_report(scenario, witness, Partition(((0, 2), (1, 3))))
        with pytest.raises(UndersizedPart):
            map_report(scenario, witness, Partition(((0, 1), (2,), (3,))))
        given = map_report(scenario, witness, Partition(((0, 1), (2, 3))))
        assert given.to_json() == map_report(scenario, witness).to_json()


def test_map_report_triangle_generic_lift():
    s = build_scenario(["a", "b", "c"], [2] * 3, [(0, 1), (1, 2), (0, 2)])
    ineq = correlator_inequality(s, [((0, 1), 1)], 1, "NCHV")
    rep = map_report(s, ineq)
    assert rep.connection == "generic-lift"
    assert rep.target_scenario is None
    assert "SIC" in rep.notes[0]


def test_map_report_quantum_values(pearle):
    rep = map_report(pearle.scenario, pearle.gamma, with_quantum=True,
                     dim=2, restarts=6, seed=4)
    want = 3 * math.sqrt(3)
    assert abs(rep.source_quantum - want) < 1e-6
    assert abs(rep.target_quantum - want) < 1e-6
    assert "seesaw" in rep.quantum_method


# -- SIC -> Bell ---------------------------------------------------------------------

def test_pm_lift_report(pm):
    rep = sic_to_bell(pm)
    assert rep.local_bound == Fraction(16, 3)
    assert rep.constant == 0
    assert not rep.local_bound_matches_mu  # 16/3 != 4, flagged not hidden
    assert abs(rep.quantum_value - 6.0) < 1e-9
    assert rep.violation > 0.5
    assert len(rep.removal_violations) == 9
    for _, v in rep.removal_violations:
        assert v <= 1e-9
    # scenario: 6 joint settings for Alice, 9 transposed settings for Bob
    assert len(rep.scenario.measurements) == 15
    assert len([m for m in rep.scenario.measurements if m.startswith("A(")]) == 6


def test_pm_lift_bound_via_full_enumeration_cross_check(pm):
    # the per-party decomposition must agree with an independent
    # two-layer brute force: enumerate Bob assignments, decompose Alice
    rep = sic_to_bell(pm)
    subsets, _ = correlator_decomposition(pm.scenario, pm.witness)
    contexts = sorted(subsets)
    best = None
    for bob in itertools.product((1, -1), repeat=9):
        total = Fraction(0)
        for t in contexts:
            c = subsets[t]
            k = len(t)
            ctx_best = None
            for asg in itertools.product((1, -1), repeat=k):
                v = Fraction(0)
                for pos, j in enumerate(t):
                    partial = 1
                    for p, o in enumerate(asg):
                        if p != pos:
                            partial *= o
                    v += Fraction(c, k) * partial * bob[j]
                ctx_best = v if ctx_best is None else max(ctx_best, v)
            total += ctx_best
        best = total if best is None else max(best, total)
    assert best == rep.local_bound


def test_lift_has_no_dimension_cap(pm):
    # the PM square tensored with I_3 (d = 12): no step of the lift reads d
    effects = tuple(tuple(np.kron(e, np.eye(3)) for e in eff) for eff in pm.effects)
    rep = sic_to_bell(dataclasses.replace(pm, dim=12, effects=effects))
    assert rep.local_bound == Fraction(16, 3)
    assert abs(rep.quantum_value - 6.0) < 1e-9
    assert len(rep.removal_violations) == 9
    for _, v in rep.removal_violations:
        assert v <= 1e-9


def test_sic_to_bell_rejects_broken_set(pm):
    from ksatlas.errors import SicVerificationFailed
    broken = remove_measurement(pm, 4)
    with pytest.raises(SicVerificationFailed):
        sic_to_bell(broken)


def maximally_entangled_lift_model(sic, bell):
    """Oracle: the lifted Bell scenario realized on |Phi> = sum_i |ii>/sqrt(d).

    Alice's setting A(m1&m2&...) has the joint effects prod_m E_m(o_m) (x) I,
    Bob's setting B(m) the effects I (x) E_m(b)^T; settings are matched to
    the SIC measurements by name only.
    """
    d = sic.dim
    eye = np.eye(d, dtype=complex)
    index = {mid: k for k, mid in enumerate(sic.scenario.measurements)}

    def effect(m, o):
        return sic.effects[m][sic.scenario.outcomes[m].index(o)]

    effects = []
    for mid, outs in zip(bell.measurements, bell.outcomes):
        names = mid[2:-1].split("&")
        if mid.startswith("A("):
            members = [index[x] for x in names]
            joint = []
            for label in outs:
                op = eye
                for m, sign in zip(members, label):
                    op = op @ effect(m, 1 if sign == "+" else -1)
                joint.append(np.kron(op, eye))
            effects.append(tuple(joint))
        else:
            (m,) = [index[x] for x in names]
            effects.append(tuple(np.kron(eye, effect(m, b).T) for b in outs))
    phi = np.eye(d, dtype=complex).reshape(d * d) / math.sqrt(d)
    return QuantumModel(d * d, phi, tuple(effects))


def test_pm_lift_value_matches_the_entangled_model(pm):
    rep = sic_to_bell(dataclasses.replace(pm, embedded=(0,)))
    model = maximally_entangled_lift_model(pm, rep.scenario)
    value = evaluate(rep.inequality, quantum_behavior(model, rep.scenario))
    assert abs(value - rep.quantum_value) < 1e-9


def test_lift_rejects_noncommuting_compatible_effects(pm):
    # A11 = Z (x) I replaced by X (x) I (the effects of A22): the
    # compatibility graph still joins A11 to A13 = Z (x) Z, which X (x) I
    # does not commute with
    effects = (pm.effects[4],) + tuple(pm.effects[1:])
    with pytest.raises(NonCommutingContext):
        sic_to_bell(dataclasses.replace(pm, effects=effects))


def reference_lift(s, witness, budget=ksatlas.polytope.DEFAULT_BUDGET):
    """Reference: the lift with Fraction terms over outcome labels, bounded
    by classical_bound on the lifted scenario. Returns (scenario,
    inequality at its local bound, constant)."""
    subsets, const = correlator_decomposition(s, witness)
    alice_settings = sorted(subsets)
    bob_meas = sorted({m for t in subsets for m in t})
    alice_ids = ["A(" + "&".join(s.measurements[m] for m in t) + ")"
                 for t in alice_settings]
    bob_ids = ["B(" + s.measurements[m] + ")" for m in bob_meas]

    def joint_label(asg):
        return "".join("+" if o == 1 else "-" for o in asg)

    alice_outcomes = [
        tuple(joint_label(asg) for asg in itertools.product(*([(1, -1)] * len(t))))
        for t in alice_settings
    ]
    n_a = len(alice_settings)
    edges = [(i, n_a + j) for i in range(n_a) for j in range(len(bob_meas))]
    bell = build_scenario(alice_ids + bob_ids,
                          list(alice_outcomes) + [(1, -1)] * len(bob_meas), edges)
    bob_index = {m: n_a + k for k, m in enumerate(bob_meas)}
    terms = []
    for ti, t in enumerate(alice_settings):
        c = subsets[t]
        k = len(t)
        for pos, j in enumerate(t):
            for asg in itertools.product(*([(1, -1)] * k)):
                partial = 1
                for p, o in enumerate(asg):
                    if p != pos:
                        partial *= o
                for b in (1, -1):
                    terms.append(((ti, bob_index[j]), (joint_label(asg), b),
                                  Fraction(c, k) * partial * b))
    probe = Inequality(tuple(terms), 0, "LR", "sic-lift")
    return bell, dataclasses.replace(
        probe, bound=classical_bound(probe, bell, budget=budget)), const


def reference_removals(sic, budget=ksatlas.polytope.DEFAULT_BUDGET):
    """Reference removal violations: each embedded measurement's reduced
    witness (the terms as written that do not involve it) lifted by
    reference_lift, with its operator from witness_operator."""
    s = sic.scenario
    out = []
    for m in sic.embedded or range(len(s.measurements)):
        witness = dataclasses.replace(sic.witness, terms=tuple(
            t for t in sic.witness.terms if m not in t[0]))
        w = witness_operator(dataclasses.replace(sic, witness=witness))
        if not witness.terms:
            out.append((s.measurements[m], 0.0))
            continue
        _, lifted, const = reference_lift(s, witness, budget)
        q = float(np.trace(w).real)
        out.append((s.measurements[m], q / sic.dim - float(const) - float(lifted.bound)))
    return tuple(out)


@pytest.mark.parametrize("embedded", [None, *((m,) for m in range(9))])
def test_integer_lift_equals_the_fraction_reference(pm, embedded):
    # the integer lift gives the reference's scenario, expression (terms in
    # order, bound, kind, label), constant and removal violations, for the
    # full set and for each single embedded removal
    sic = pm if embedded is None else dataclasses.replace(pm, embedded=embedded)
    rep = sic_to_bell(sic)
    bell, lifted, const = reference_lift(pm.scenario, pm.witness)
    assert rep.scenario == bell and rep.scenario.to_json() == bell.to_json()
    assert rep.inequality == lifted
    assert rep.constant == const
    assert rep.removal_violations == reference_removals(sic)
    assert len(rep.removal_violations) == (9 if embedded is None else 1)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.sampled_from([1, 2, 3, 5])),
                min_size=6, max_size=6),
       st.integers(0, 8))
def test_integer_lift_equals_the_reference_on_rescaled_witnesses(pm, coefs, m):
    # other coefficients and denominators per correlator: the shared scale
    # lcm(den(c_T) * |T|) still gives the reference's terms and bound, and a
    # witness with a removed measurement still its bound alone
    correlators = [(ctx, Fraction(a, b)) for ctx, (a, b) in zip(pm.scenario.contexts, coefs)]
    witness = correlator_inequality(pm.scenario, correlators, 0)
    if not any(a for a, _ in coefs):
        return
    terms = check_inequality(pm.scenario, witness)
    bell, lifted, const = ksatlas.bridge._lift_once(pm.scenario, terms, 1 << 24)
    assert (bell, lifted, const) == reference_lift(pm.scenario, witness)
    # a removal's lift, as sic_to_bell bounds it: the canonical terms that
    # do not involve m, against the reference on the terms as written
    kept = [t for t in terms if m not in t[0]]
    reduced = dataclasses.replace(witness, terms=tuple(
        t for t in witness.terms if m not in t[0]))
    if reduced.terms and correlator_decomposition(pm.scenario, reduced)[0]:
        _, ref, ref_const = reference_lift(pm.scenario, reduced)
        _, _, radices, lift, scale, const_m = ksatlas.bridge._lift_terms(pm.scenario, kept)
        bound_m = ksatlas.polytope._scaled_maximum(radices, lift, scale, 1 << 24)
        assert (bound_m, const_m) == (ref.bound, ref_const)


# -- work done ---------------------------------------------------------------------

def count_calls(monkeypatch, targets):
    """Wrap each (module, attribute, name) target so that its calls are
    counted under name; returns work(f), the counts of one call of f."""
    calls = collections.Counter()
    for module, attr, name in targets:
        def wrapper(*args, _f=getattr(module, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    def work(f):
        calls.clear()
        f()
        return dict(calls)
    return work


def test_each_bridge_fact_is_computed_once(monkeypatch, pearle, chsh, pm):
    # eliminations (classical bounds and facet verdicts) and seesaw runs
    work = count_calls(monkeypatch, [
        (ksatlas.polytope, "best_assignment", "elim"),
        (ksatlas.bridge, "seesaw_max", "seesaw"),
    ])
    # one elimination per map: the target's bound and face are the source's
    assert work(lambda: ks_to_bell(pearle.scenario, pearle.gamma,
                                   pearle.partition)) == {"elim": 1}
    assert work(lambda: map_report(pearle.scenario, pearle.gamma)) == {"elim": 1}
    # the witness's bound; the Bell target reuses it, so no map runs
    assert work(pearle_hexagon) == {"elim": 1}
    # the lift and each removal's lift; no reduced witness bound (the set's
    # own bound is derived once, when it is built)
    pm_0 = dataclasses.replace(pm, embedded=(0,))
    assert work(lambda: sic_to_bell(pm_0)) == {"elim": 2}
    assert work(lambda: sic_to_bell(pm)) == {"elim": 10}
    assert work(lambda: criticality_check(pm)) == {"elim": 9}
    # one seesaw per map: the target run would repeat the source run
    assert work(lambda: map_report(*chsh, with_quantum=True, restarts=2)) \
        == {"elim": 1, "seesaw": 1}
    assert work(lambda: map_report(pearle.scenario, pearle.gamma, with_quantum=True,
                                   restarts=2)) == {"elim": 1, "seesaw": 1}


def test_criticality_and_pearle_rebuild_nothing(monkeypatch, pm):
    work = count_calls(monkeypatch, [
        (ksatlas.polytope, "best_assignment", "elim"),
        (ksatlas.quantum, "build_scenario", "build"),
        (ksatlas.quantum, "_operator", "operator"),
        (ksatlas.quantum, "random_state", "state"),
        (ksatlas.bridge, "_face_verdict", "face"),
    ])
    # the full set's operator is read off the set (verify_sic computes
    # none); sampled states, then per removal one operator and one bound on
    # the same scenario
    assert work(lambda: criticality_check(pm)) \
        == {"elim": 9, "operator": 9, "state": 50}
    # the closure scenario and the target are read off, no verdict is made
    assert work(pearle_hexagon) == {"elim": 1}


def count_term_checks(monkeypatch, extra=()):
    """count_calls on scenario.check_inequality and quantum.validate_model
    at every ksatlas.* module binding of them, so readers that imported
    the names count too, and on the extra targets."""
    counted = [(ksatlas.scenario.check_inequality, "check"),
               (ksatlas.quantum.validate_model, "validate")]
    targets = [(module, attr, label)
               for name, module in list(sys.modules.items()) if name.startswith("ksatlas")
               for attr, value in list(vars(module).items())
               for f, label in counted if value is f]
    return count_calls(monkeypatch, targets + list(extra))


def test_a_sic_set_bounds_its_witness_once(monkeypatch, pm):
    # the witness comes at bound 0 and the set derives mu once, stores the
    # witness at it, and builds the same set as before
    work = count_term_checks(monkeypatch, [(ksatlas.polytope, "best_assignment", "elim")])
    built = []
    assert work(lambda: built.append(pm_square())) \
        == {"elim": 1, "check": 2, "validate": 1}
    assert work(lambda: built.append(remove_measurement(pm, 0))) \
        == {"elim": 1, "check": 1, "validate": 1}
    assert built[0] == pm and built[0].witness.bound == pm.mu == 4
    assert built[1].witness.bound == built[1].mu == 4


def test_each_question_checks_its_terms_once(monkeypatch, tmp_path, capsys, pm):
    for which in ("chsh", "pearle", "pm-square"):
        assert ksatlas.cli.main(["examples", which, "--out", str(tmp_path)]) == 0
    pm_0 = dataclasses.replace(pm, embedded=(0,))
    work = count_term_checks(monkeypatch)
    # a built set is checked already: its canonical terms, which every
    # removal filters, are read off it, and its model is not validated again
    assert work(lambda: criticality_check(pm)) == {}
    assert work(lambda: sic_to_bell(pm)) == {}
    assert work(lambda: sic_to_bell(pm_0)) == {}
    # the CLI leaves the check to the library call; a map with the seesaw
    # checks once for the bound and once for the expansion, and sic verify
    # and critical check once, when the stored set is built
    chsh = [str(tmp_path / f) for f in ("chsh.scenario.json", "chsh.inequality.json")]
    pearle = [str(tmp_path / f) for f in ("pearle.scenario.json", "pearle.gamma.json")]
    pm_files = [str(tmp_path / f) for f in ("pm_square.scenario.json", "pm_square.witness.json")]
    cases = [
        (["bound", *chsh], 1),
        (["tight", *chsh], 1),
        (["qvalue", *chsh, "--dim", "2", "--restarts", "2"], 1),
        (["map", *chsh], 1),
        (["map", *pearle, "--partition", str(tmp_path / "pearle.partition.json")], 1),
        (["map", *pm_files], 1),
        (["map", *chsh, "--quantum", "--restarts", "2"], 2),
        (["sic", "verify", str(tmp_path / "pm_square.sicset.json")], 1),
        (["sic", "critical", str(tmp_path / "pm_square.sicset.json")], 1),
    ]
    for argv, passes in cases:
        codes = []
        validations = {"validate": 1} if argv[0] == "sic" else {}
        assert work(lambda: codes.append(ksatlas.cli.main(argv))) \
            == {"check": passes, **validations}, argv
        assert codes == [0], argv
    capsys.readouterr()
