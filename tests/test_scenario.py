import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_validation
from ksatlas.errors import (
    DuplicateMeasurement,
    InvalidEdge,
    MissingContextTable,
    NegativeProbability,
    ScenarioMismatch,
    TooFewOutcomes,
)
from ksatlas.scenario import (
    Behavior,
    Inequality,
    Scenario,
    build_scenario,
    correlator_decomposition,
    correlator_inequality,
    deterministic_behavior,
    evaluate,
    mix_behaviors,
    uniform_behavior,
    validate_behavior,
)


def brute_force_maximal_cliques(n, edges):
    """Oracle: scan all vertex subsets for maximal cliques."""
    edge_set = {(min(e), max(e)) for e in edges}
    cliques = []
    for r in range(1, n + 1):
        for sub in itertools.combinations(range(n), r):
            if all((a, b) in edge_set for a, b in itertools.combinations(sub, 2)):
                cliques.append(set(sub))
    return sorted(
        tuple(sorted(c)) for c in cliques
        if not any(c < other for other in cliques)
    )


def test_build_scenario_rejects_bad_input():
    # out of range and self-loops are the Graph's refusals; a pair given
    # twice, in either order, is build_scenario's
    for edges in ([(0, 0)], [(0, 1), (1, 0)], [(0, 1), (0, 1)], [(0, 2)], [(-1, 0)]):
        with pytest.raises(InvalidEdge):
            build_scenario(["a", "b"], [2, 2], edges)
    assert build_scenario(["a", "b"], [2, 2], [(1, 0)]).compat.edges == ((0, 1),)
    with pytest.raises(TooFewOutcomes):
        build_scenario(["a"], [1], [])
    with pytest.raises(DuplicateMeasurement):
        build_scenario(["a", "a"], [2, 2], [])


@pytest.mark.parametrize("labels", [(1, "1"), ("-1", -1, 0), (1, 1.0)])
def test_outcome_labels_that_coincide_as_strings_are_refused(labels):
    # behavior keys and JSON files write labels as strings, so 1 and "1"
    # would read back as one outcome: a term on "1" would become a term
    # on 1, and a table would keep half its entries
    with pytest.raises(TooFewOutcomes):
        build_scenario(["a", "b"], [labels, 2], [(0, 1)])
    with pytest.raises(TooFewOutcomes):
        Scenario.from_json({"measurements": [{"id": "a", "outcomes": list(labels)}],
                            "compat": []})
    assert build_scenario(["a"], [(1, "-1")], []).outcomes == ((1, "-1"),)


@pytest.mark.parametrize("ids, outcomes, error", [
    (["A,1", "B"], [2, 2], DuplicateMeasurement),
    (["A", "B"], [("x,y", "z"), 2], TooFewOutcomes),
], ids=["id", "label"])
def test_ids_and_labels_with_a_comma_are_refused(ids, outcomes, error):
    # behavior JSON joins ids and labels with ',' in its keys, so such a
    # scenario's own behaviors could not be read back
    with pytest.raises(error):
        build_scenario(ids, outcomes, [(0, 1)])


def test_hexagon_contexts(hexagon):
    scenario, _ = hexagon
    members = list(scenario.contexts)
    assert members == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_trivial_singleton_scenario():
    s = build_scenario(["m"], [2], [])
    assert list(s.contexts) == [(0,)]


def test_edgeless_three_singletons():
    s = build_scenario(["a", "b", "c"], [2, 2, 2], [])
    assert list(s.contexts) == [(0,), (1,), (2,)]


def test_k22_contexts_match_brute_force():
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    s = build_scenario(["A1", "A2", "B1", "B2"], [2] * 4, edges)
    got = list(s.contexts)
    assert got == brute_force_maximal_cliques(4, edges)
    assert got == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_contexts_cover_edges_and_are_non_nested():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        s = build_scenario([f"m{i}" for i in range(n)], [2] * n, edges)
        ctxs = [set(c) for c in s.contexts]
        for a in ctxs:
            for b in ctxs:
                assert a == b or not a < b
        covered = set()
        for c in ctxs:
            covered |= {(min(i, j), max(i, j))
                        for i, j in itertools.combinations(sorted(c), 2)}
        assert covered == set(s.compat.edges)


def test_uniform_behavior_is_valid(hexagon):
    scenario, _ = hexagon
    rep = validate_behavior(scenario, uniform_behavior(scenario))
    assert rep.ok


def test_no_disturbance_violation_is_flagged(hexagon):
    scenario, _ = hexagon
    b = uniform_behavior(scenario)
    # force P(+,+|M1,M2)=1 while the (M6,M1) table stays uniform, so the
    # M1 marginal disagrees between the two contexts
    tab = {asg: Fraction(0) for asg in b.tables[(0, 1)]}
    tab[(1, 1)] = Fraction(1)
    tables = dict(b.tables)
    tables[(0, 1)] = tab
    bad = Behavior(scenario, "rational", tables)
    rep = validate_behavior(scenario, bad)
    assert not rep.ok
    pairs = {frozenset((a, b_)) for a, b_, _, _ in rep.no_disturbance}
    assert frozenset(((0, 1), (0, 5))) in pairs


def test_validate_raises_on_missing_and_negative(hexagon):
    scenario, _ = hexagon
    b = uniform_behavior(scenario)
    tables = dict(b.tables)
    del tables[(0, 1)]
    with pytest.raises(MissingContextTable):
        validate_behavior(scenario, Behavior(scenario, "rational", tables))
    tables = {k: dict(v) for k, v in b.tables.items()}
    tables[(0, 1)][(1, 1)] = Fraction(-1, 4)
    with pytest.raises(NegativeProbability):
        validate_behavior(scenario, Behavior(scenario, "rational", tables))


def test_gamma_on_deterministic_all_plus_is_four(hexagon):
    scenario, gamma = hexagon
    det = deterministic_behavior(scenario, {m: 1 for m in range(6)})
    assert evaluate(gamma, det) == 4


def test_gamma_on_uniform_is_zero(hexagon):
    scenario, gamma = hexagon
    assert evaluate(gamma, uniform_behavior(scenario)) == 0


def test_evaluate_is_exact_and_linear(hexagon):
    scenario, gamma = hexagon
    rng = np.random.default_rng(11)
    for _ in range(10):
        a1 = {m: int(rng.integers(0, 2)) * 2 - 1 for m in range(6)}
        a2 = {m: int(rng.integers(0, 2)) * 2 - 1 for m in range(6)}
        b1 = deterministic_behavior(scenario, a1)
        b2 = deterministic_behavior(scenario, a2)
        lam = Fraction(int(rng.integers(0, 8)), 7)
        mixed = mix_behaviors([b1, b2], [lam, 1 - lam])
        assert evaluate(gamma, mixed) == (
            lam * evaluate(gamma, b1) + (1 - lam) * evaluate(gamma, b2))


def test_evaluate_matches_brute_force_marginals():
    # oracle: sum every table entry of the first maximal context that
    # contains the term's sub-context and agrees with its assignment
    s = build_scenario(["a", "b", "c", "d"], [2, 3, 2, 2], [(0, 1), (1, 2), (0, 2), (2, 3)])
    ctxs = list(s.contexts)
    rng = np.random.default_rng(41)
    for _ in range(20):
        b = uniform_behavior(s)
        terms = []
        for _ in range(8):
            ctx = ctxs[int(rng.integers(len(ctxs)))]
            sub = tuple(sorted(rng.choice(ctx, size=int(rng.integers(1, len(ctx) + 1)),
                                          replace=False).tolist()))
            asg = tuple(s.outcomes[m][int(rng.integers(len(s.outcomes[m])))] for m in sub)
            terms.append((sub, asg, Fraction(int(rng.integers(-5, 6)), 3)))
        ineq = Inequality(tuple(terms), 0)
        want = Fraction(0)
        for sub, asg, coef in ineq.terms:
            ctx = next(c for c in ctxs if set(sub) <= set(c))
            for full, p in b.table(ctx).items():
                if all(full[ctx.index(m)] == o for m, o in zip(sub, asg)):
                    want += coef * p
        assert evaluate(ineq, b) == want
        fb = Behavior(s, "float", {c: {a: float(p) for a, p in t.items()}
                                   for c, t in b.tables.items()})
        assert abs(evaluate(ineq, fb) - float(want)) <= 1e-12


def test_evaluate_never_fires_a_term_with_conflicting_outcomes():
    # the same event semantics as classical_bound, whose maximum here is 0
    s = build_scenario(["a", "b"], [2, 2], [(0, 1)])
    ineq = Inequality((((0, 0), (1, -1), 1),), 0)
    for a, b in itertools.product((1, -1), repeat=2):
        assert evaluate(ineq, deterministic_behavior(s, {0: a, 1: b})) == 0


def test_validation_closed_under_mixtures(hexagon):
    scenario, _ = hexagon
    rng = np.random.default_rng(3)
    behaviors = [
        deterministic_behavior(
            scenario, {m: int(rng.integers(0, 2)) * 2 - 1 for m in range(6)})
        for _ in range(4)
    ]
    w = [Fraction(1, 4)] * 4
    assert validate_behavior(scenario, mix_behaviors(behaviors, w)).ok


def test_evaluate_rejects_foreign_scenario(hexagon, chsh):
    scenario, gamma = hexagon
    other, _ = chsh
    with pytest.raises(ScenarioMismatch):
        evaluate(gamma, uniform_behavior(other))


def test_correlator_decomposition_inverts_expansion(hexagon):
    scenario, gamma = hexagon
    coeffs, const = correlator_decomposition(scenario, gamma)
    assert const == 0
    expect = {(i, i + 1): Fraction(1) for i in range(5)}
    expect[(0, 5)] = Fraction(-1)
    assert coeffs == expect


def fraction_correlator_decomposition(scenario, inequality):
    """Reference: every subset share added in Fraction arithmetic."""
    coeffs, const = {}, Fraction(0)
    for members, asg, coef in inequality.terms:
        for m in members:
            if set(scenario.outcomes[m]) != {1, -1}:
                raise ScenarioMismatch(f"measurement {m} is not a +-1 observable")
        w = Fraction(coef, 2 ** len(members))
        for r in range(len(members) + 1):
            for subset in itertools.combinations(range(len(members)), r):
                sign = 1
                for pos in subset:
                    sign *= asg[pos]
                key = tuple(members[pos] for pos in subset)
                if key == ():
                    const += w * sign
                else:
                    coeffs[key] = coeffs.get(key, Fraction(0)) + w * sign
    return {k: v for k, v in coeffs.items() if v != 0}, const


@st.composite
def pm1_inequalities(draw):
    """A scenario on up to 6 pairwise compatible measurements, some of them
    +-1, and terms on sorted subsets of up to 4 of them with small
    rational coefficients."""
    n = draw(st.integers(1, 6))
    outcomes = [draw(st.sampled_from([2, 2, 2, 3])) for _ in range(n)]
    scenario = build_scenario([f"m{i}" for i in range(n)], outcomes,
                              list(itertools.combinations(range(n), 2)))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        members = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                            max_size=min(4, n)))))
        asg = tuple(draw(st.sampled_from(scenario.outcomes[m])) for m in members)
        coef = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 12)))
        terms.append((members, asg, coef))
    return scenario, Inequality(tuple(terms), 0)


@settings(max_examples=200, deadline=None)
@given(case=pm1_inequalities())
def test_correlator_decomposition_matches_fraction_reference(case):
    scenario, ineq = case
    try:
        want = fraction_correlator_decomposition(scenario, ineq)
    except ScenarioMismatch as exc:
        with pytest.raises(ScenarioMismatch, match=f"^{re.escape(str(exc))}$"):
            correlator_decomposition(scenario, ineq)
        return
    coeffs, const = correlator_decomposition(scenario, ineq)
    assert list(coeffs.items()) == list(want[0].items())
    assert all(type(v) is Fraction for v in coeffs.values())
    assert type(const) is Fraction and const == want[1]


def test_correlator_decomposition_checks_terms_first():
    # the terms are read in check_inequality's form, so a term outside
    # every context raises its ScenarioMismatch
    scenario = build_scenario(["a", "b"], [2, 2], [])
    ineq = Inequality((((0,), (1,), 1), ((0, 1), (1, 1), 1)), 0)
    with pytest.raises(ScenarioMismatch, match="not inside any maximal context"):
        correlator_decomposition(scenario, ineq)


def test_scenario_and_inequality_json_round_trip(hexagon):
    scenario, gamma = hexagon
    from ksatlas.scenario import Scenario
    s2 = Scenario.from_json(scenario.to_json())
    assert s2 == scenario
    g2 = Inequality.from_json(s2, gamma.to_json(scenario))
    assert g2.terms == gamma.terms and g2.bound == gamma.bound


def test_behavior_json_round_trip(hexagon):
    scenario, gamma = hexagon
    b = uniform_behavior(scenario)
    b2 = Behavior.from_json(scenario, b.to_json())
    assert b2.tables == b.tables
    det = deterministic_behavior(scenario, {m: -1 for m in range(6)}, mode="float")
    d2 = Behavior.from_json(scenario, det.to_json())
    assert d2.tables == det.tables


def test_behavior_context_key_in_any_order(chsh):
    # token k of an assignment key is the outcome of the k-th measurement
    # named in the context key, whatever order the key names them in
    s, _ = chsh
    values = {"1,1": "1/2", "1,-1": "0", "-1,1": "1/8", "-1,-1": "3/8"}
    sorted_key = {"mode": "rational", "tables": {"A1,B1": values}}
    reversed_key = {"mode": "rational", "tables": {"B1,A1": {
        ",".join(reversed(k.split(","))): v for k, v in values.items()}}}
    b = Behavior.from_json(s, sorted_key)
    r = Behavior.from_json(s, reversed_key)
    assert r.tables == b.tables
    assert r.tables[(0, 2)][(-1, 1)] == Fraction(1, 8)  # A1 = -1, B1 = 1
    assert r.to_json() == b.to_json() == sorted_key
    with pytest.raises(ScenarioMismatch):
        Behavior.from_json(s, {"mode": "rational", "tables": {"B1,A1": {"1,1,1": "1"}}})


@pytest.mark.parametrize("key,table,message", [
    ("A1,A2", {"1,1": "1"}, "is not a maximal context"),     # an incompatible pair
    ("A1,A1", {"1,1": "1"}, "is not a maximal context"),     # one measurement twice
    ("A1", {"1": "1", "-1": "0"}, "is not a maximal context"),  # inside a context
    ("B1,A1", {"1,1": "1", "1,-1": "0", "-1,1": "0", "-1,-1": "0"},
     "names the context of an earlier key"),
])
def test_behavior_tables_are_distinct_maximal_contexts(chsh, key, table, message):
    # an extra table is refused, not stored beside (or over) the uniform
    # tables where validation would never read it
    s, _ = chsh
    data = uniform_behavior(s).to_json()
    assert Behavior.from_json(s, data).tables == uniform_behavior(s).tables
    data["tables"][key] = table
    with pytest.raises(ScenarioMismatch, match=message):
        Behavior.from_json(s, data)


@pytest.mark.parametrize("context,assignment", [(["A1", "B1"], [1]), (["A1"], [1, -1])])
def test_inequality_term_lengths_must_agree(chsh, context, assignment):
    s, _ = chsh
    data = {"terms": [{"context": context, "assignment": assignment, "coef": "1"}],
            "bound": "1"}
    with pytest.raises(ScenarioMismatch, match="differ in length"):
        Inequality.from_json(s, data)


# denominators of several sizes: small, decimal, near 2^40 and 2^61
# (primes), and powers of two up to 2^80 (rationalized floats)
BIG_DENOMINATORS = [1, 2, 3, 7, 10**6, 2**40 - 87, 2**61 - 1, 2**53, 2**80]


@st.composite
def rational_behaviors(draw):
    """A random scenario (2-4 measurements, 2-3 outcomes each) with a
    mixture of deterministic behaviors, weights over mixed large
    denominators, then up to three edits: an entry pair shifted by
    +-delta (no-disturbance breaks), delta added to an entry
    (normalization breaks), an entry made negative, an entry or a table
    deleted."""
    n = draw(st.integers(2, 4))
    radices = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    edges = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    s = build_scenario([f"m{i}" for i in range(n)], radices, edges)
    k = draw(st.integers(1, 4))
    weights = [Fraction(draw(st.integers(0, 10**6)), 10**6 * k * draw(st.sampled_from(BIG_DENOMINATORS)))
               for _ in range(k - 1)]
    weights.append(1 - sum(weights))
    dets = [deterministic_behavior(s, {m: draw(st.sampled_from(s.outcomes[m])) for m in range(n)})
            for _ in range(k)]
    tables = {ctx: dict(tab) for ctx, tab in mix_behaviors(dets, weights).tables.items()}
    for _ in range(draw(st.integers(0, 3))):
        ctx = draw(st.sampled_from(s.contexts))
        if not tables.get(ctx):
            continue
        tab = tables[ctx]
        keys = list(tab)
        edit = draw(st.sampled_from(["shift"] * 3 + ["add"] * 2 + ["negative", "drop", "drop-table"]))
        i, j = draw(st.integers(0, len(keys) - 1)), draw(st.integers(0, len(keys) - 1))
        delta = Fraction(draw(st.integers(1, 1000)), draw(st.sampled_from(BIG_DENOMINATORS)))
        if edit == "shift" and keys[i] in tab and tab.get(keys[j], 0) > 0:
            # moves a share of entry j (all of it at most) to entry i
            delta = tab[keys[j]] * min(delta, 1)
            tab[keys[i]] += delta
            tab[keys[j]] -= delta
        elif edit == "add" and keys[i] in tab:
            tab[keys[i]] += delta
        elif edit == "negative" and keys[i] in tab:
            tab[keys[i]] = -delta
        elif edit == "drop":
            tab.pop(keys[i], None)
        elif edit == "drop-table":
            del tables[ctx]
    tol = draw(st.sampled_from([None, 0, Fraction(1, 2**70), Fraction(1, 1000), 1e-9]))
    return s, Behavior(s, "rational", tables), tol


def _outcome(call):
    try:
        return call()
    except (MissingContextTable, NegativeProbability) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(rational_behaviors())
def test_integer_validation_matches_the_fraction_reference(case):
    s, beh, tol = case

    def integer():
        rep = validate_behavior(s, beh, tol=tol)
        deviations = [d for *_, d in rep.normalization + rep.no_disturbance]
        assert all(type(d) is Fraction for d in deviations)
        return rep.ok, rep.normalization, rep.no_disturbance

    assert _outcome(integer) == _outcome(
        lambda: fraction_validation(s, beh, 0 if tol is None else tol))


@st.composite
def float_behaviors(draw):
    """A random scenario (2-3 measurements, 2-3 outcomes each) with a
    float mixture of deterministic behaviors, weights c_i / sum(c), a
    tol in {0, 1e-12, 1e-9}, then up to three edits by k * step (step =
    tol, or 1e-12 at tol 0; k in {0, 1/2, 1, 2}) that land near a
    boundary: an entry pair shifted (no-disturbance), an entry moved
    (normalization), an entry set to -k * step (the negativity floor)."""
    n = draw(st.integers(2, 3))
    radices = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    edges = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    s = build_scenario([f"m{i}" for i in range(n)], radices, edges)
    counts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    weights = [c / sum(counts) for c in counts]
    dets = [deterministic_behavior(
        s, {m: draw(st.sampled_from(s.outcomes[m])) for m in range(n)}, mode="float")
        for _ in counts]
    tables = {ctx: dict(tab) for ctx, tab in mix_behaviors(dets, weights).tables.items()}
    tol = draw(st.sampled_from([0, 1e-12, 1e-9]))
    step = tol or 1e-12
    for _ in range(draw(st.integers(0, 3))):
        tab = tables[draw(st.sampled_from(s.contexts))]
        keys = list(tab)
        i, j = draw(st.integers(0, len(keys) - 1)), draw(st.integers(0, len(keys) - 1))
        delta = draw(st.sampled_from([0, 0.5, 1, 2])) * step * draw(st.sampled_from([1, -1]))
        edit = draw(st.sampled_from(["shift", "add", "floor"]))
        if edit == "shift":
            tab[keys[i]] += delta
            tab[keys[j]] -= delta
        elif edit == "add":
            tab[keys[i]] += delta
        else:
            tab[keys[i]] = -abs(delta)
    return s, Behavior(s, "float", tables), tol


@settings(max_examples=300, deadline=None)
@given(float_behaviors())
def test_float_validation_is_exact_on_the_rationals_held(case):
    # the verdict and deviations are those of the Fraction reference on
    # the rationals the floats hold, at the rational tol holds; entries
    # in [-tol, 0) pass the negativity check
    s, beh, tol = case
    exact = Behavior(s, "rational", {ctx: {a: Fraction(v) for a, v in tab.items()}
                                     for ctx, tab in beh.tables.items()})

    def outcome(call):
        try:
            ok, norm, nd = call()
        except NegativeProbability:
            return NegativeProbability
        return (ok, [(c, float(d)) for c, d in norm],
                [(a, b, sh, float(d)) for a, b, sh, d in nd])

    def floats():
        rep = validate_behavior(s, beh, tol=tol)
        assert all(type(d) is float for *_, d in rep.normalization + rep.no_disturbance)
        return rep.ok, rep.normalization, rep.no_disturbance

    assert outcome(floats) == outcome(
        lambda: fraction_validation(s, exact, Fraction(tol), floor=-Fraction(tol)))


def test_deviation_at_tol_is_not_reported(chsh):
    # CHSH uniform with 1/40 moved from P(1,-1|A1,B1) to P(1,1|A1,B1):
    # B1's marginal is off by exactly 1/40 between (A1,B1) and (A2,B1)
    s, _ = chsh
    tables = {ctx: dict(tab) for ctx, tab in uniform_behavior(s).tables.items()}
    tables[(0, 2)][(1, 1)] += Fraction(1, 40)
    tables[(0, 2)][(1, -1)] -= Fraction(1, 40)
    beh = Behavior(s, "rational", tables)
    assert validate_behavior(s, beh, tol=Fraction(1, 40)).ok
    rep = validate_behavior(s, beh, tol=Fraction(1, 41))
    assert rep.normalization == ()
    assert rep.no_disturbance == (((0, 2), (1, 2), (2,), Fraction(1, 40)),)
    assert rep.to_json(s)["no_disturbance"][0]["deviation"] == "1/40"
