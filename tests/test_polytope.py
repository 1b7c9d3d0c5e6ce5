import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_simplex
from ksatlas import polytope
from ksatlas import scenario as scenario_module
from ksatlas.bridge import n_cycle, n_cycle_quantum_model
from ksatlas.errors import BudgetExceeded, NoDisturbanceViolated, ScenarioMismatch
from ksatlas.polytope import (
    DEFAULT_BUDGET,
    _affine_rank,
    classical_bound,
    enumerate_vertices,
    int_rank,
    membership_test,
    polytope_dimension,
    tightness_test,
)
from ksatlas.quantum import quantum_behavior
from ksatlas.ratlp import FeasibilityResult
from ksatlas.scenario import (
    Behavior,
    Inequality,
    build_scenario,
    check_inequality,
    correlator_inequality,
    deterministic_behavior,
    evaluate,
    frac,
    mix_behaviors,
    outcome_grid,
    uniform_behavior,
    validate_behavior,
)

F = Fraction


def brute_vertices(scenario):
    """Oracle: behaviors of all assignments via itertools, deduplicated."""
    seen = []
    for combo in itertools.product(*scenario.outcomes):
        vec = []
        for ctx, grid in zip(scenario.contexts, scenario.grids):
            want = tuple(combo[m] for m in ctx)
            vec.extend(1 if asg == want else 0 for asg in grid)
        if vec not in seen:
            seen.append(vec)
    return seen


def product_scenario_dim(settings_per_party, outcomes=2):
    """Independent-parameter count for complete multipartite scenarios:
    per-setting marginals plus per-context joint correlations."""
    parties = [settings_per_party] if isinstance(settings_per_party, int) \
        else list(settings_per_party)
    total = sum(p * (outcomes - 1) for p in parties)
    prod = 1
    for p in parties:
        prod *= p * (outcomes - 1)
    return total + prod


# -- enumeration ----------------------------------------------------------------

def test_hexagon_vertex_count_and_distinctness(hexagon):
    scenario, _ = hexagon
    desc = enumerate_vertices(scenario)
    assert desc.n_vertices == 64
    assert len({bytes(r) for r in desc.coords}) == 64
    assert sorted(map(list, desc.coords)) == sorted(brute_vertices(scenario))


def test_single_measurement_two_vertices():
    s = build_scenario(["m"], [2], [])
    desc = enumerate_vertices(s)
    assert desc.n_vertices == 2
    assert polytope_dimension(s) == 1


def test_chsh_sixteen_vertices_dim8(chsh):
    scenario, _ = chsh
    desc = enumerate_vertices(scenario)
    assert desc.n_vertices == 16
    assert polytope_dimension(scenario) == 8 == product_scenario_dim([2, 2])
    # float-rank oracle agrees
    diffs = desc.coords[1:].astype(float) - desc.coords[0].astype(float)
    assert np.linalg.matrix_rank(diffs, tol=1e-9) == 8


@pytest.mark.parametrize("radices, edges", [
    ([3, 2, 3, 2], [(0, 1), (1, 2), (2, 3)]),
    ([8, 8, 5], [(0, 1), (1, 2), (0, 2)]),  # table positions past 255
])
def test_rows_follow_first_realizing_assignment(radices, edges):
    # mixed radices: row order and rows match the first-occurrence scan
    # of the brute-force oracle exactly, so row i is assignment i's vertex
    s = build_scenario([f"m{i}" for i in range(len(radices))], radices, edges)
    desc = enumerate_vertices(s)
    assert desc.coords.tolist() == brute_vertices(s)
    # and vertex_behavior(i) reads row i back as assignment i's behavior
    for i, combo in enumerate(itertools.product(*s.outcomes)):
        assert desc.vertex_behavior(i) == deterministic_behavior(s, combo)


def test_budget_is_enforced():
    s = build_scenario([f"m{i}" for i in range(8)], [2] * 8, [])
    with pytest.raises(BudgetExceeded):
        enumerate_vertices(s, budget=100)


@pytest.mark.parametrize("budget", [1000, DEFAULT_BUDGET])
def test_budgets_are_checked_before_the_grids_are_built(budget):
    # K20 of dichotomic measurements: 2^20 assignments exceed a budget of
    # 1000, and at the default budget 2^20 x 2^20 coordinate entries exceed
    # the memory budget; both refusals come before the grid is built
    s = build_scenario([f"m{i}" for i in range(20)], [2] * 20,
                       list(itertools.combinations(range(20), 2)))
    with pytest.raises(BudgetExceeded):
        enumerate_vertices(s, budget=budget)
    assert "grids" not in vars(s)


def test_tightness_budget_is_checked_before_the_grids_are_built(monkeypatch):
    # K20 of dichotomic measurements: its 2^20 coordinates exceed a budget
    # of 1000, refused before the grid or the walk over 2^20 clique subsets
    s = build_scenario([f"m{i}" for i in range(20)], [2] * 20,
                       list(itertools.combinations(range(20), 2)))
    ineq = Inequality((((0, 1), (1, 1), F(1)),), 1)

    def too_early(scenario):
        raise AssertionError("cliques walked before the budget checks")

    monkeypatch.setattr("ksatlas.polytope.polytope_dimension", too_early)
    with pytest.raises(BudgetExceeded):
        tightness_test(ineq, s, budget=1000)
    assert "grids" not in vars(s)


def test_vertex_behaviors_are_valid(hexagon):
    scenario, _ = hexagon
    desc = enumerate_vertices(scenario)
    from ksatlas.scenario import validate_behavior
    for i in (0, 17, 63):
        assert validate_behavior(scenario, desc.vertex_behavior(i)).ok


# -- rank -----------------------------------------------------------------------

def test_int_rank_matches_numpy():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = rng.integers(-3, 4, size=(int(rng.integers(1, 8)),
                                      int(rng.integers(1, 8))))
        assert int_rank(m.tolist()) == np.linalg.matrix_rank(m.astype(float))


def test_int_rank_handles_dependent_rows():
    assert int_rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert int_rank([[0, 0], [0, 0]]) == 0


def fraction_rank(rows):
    """Oracle: Gaussian elimination over Fractions."""
    rows = [[F(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_int_rank_scales_rows_with_zero_in_pivot_column():
    # the row with a zero below the second pivot must still be scaled by
    # it, or the next exact division goes wrong; the determinant is 1
    assert int_rank([[2, 0, -1], [1, -1, -1], [0, 3, 1]]) == 3


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 3), min_size=n, max_size=n),
    min_size=1, max_size=6)))
def test_int_rank_matches_fraction_elimination(rows):
    assert int_rank(rows) == fraction_rank(rows)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_affine_rank_matches_float_rank_on_cycles(n):
    scenario, _ = n_cycle(n)
    coords = enumerate_vertices(scenario).coords
    rng = np.random.default_rng(n)
    subsets = [coords] + [
        coords[np.sort(rng.choice(len(coords), size=int(rng.integers(n, 3 * n)),
                                  replace=False))]
        for _ in range(100)
    ]
    for rows in subsets:
        diffs = rows[1:].astype(float) - rows[0]
        assert _affine_rank(rows) == np.linalg.matrix_rank(diffs)


@st.composite
def small_scenarios(draw, max_coords=120):
    """1-7 measurements with 2-4 outcomes and a random compatibility graph
    (isolated measurements allowed); edges are dropped from the end until
    the coordinate count is at most max_coords."""
    n = draw(st.integers(1, 7))
    radices = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    while True:
        s = build_scenario([f"m{i}" for i in range(n)], radices, edges)
        size = sum(int(np.prod([radices[m] for m in c]))
                   for c in s.contexts)
        if size <= max_coords:
            return s
        edges = edges[:-1]


@settings(max_examples=40, deadline=None)
@given(small_scenarios())
def test_closed_form_dimension_matches_vertex_rank(s):
    coords = enumerate_vertices(s).coords
    diffs = coords[1:].astype(float) - coords[0]
    assert polytope_dimension(s) == _affine_rank(coords) == np.linalg.matrix_rank(diffs)


# -- classical bounds -------------------------------------------------------------

def test_hexagon_bound_and_dimension(hexagon):
    scenario, gamma = hexagon
    assert classical_bound(gamma, scenario) == 4
    assert polytope_dimension(scenario) == 12


def test_chsh_bound_matches_brute_force(chsh):
    scenario, ineq = chsh
    assert classical_bound(ineq, scenario) == 2
    desc = enumerate_vertices(scenario)
    values = [evaluate(ineq, desc.vertex_behavior(i))
              for i in range(desc.n_vertices)]
    assert max(values) == 2


def test_empty_inequality_bound_is_zero(hexagon):
    scenario, _ = hexagon
    assert classical_bound(Inequality((), 0), scenario) == 0


def test_bound_decomposition_agrees_with_scan(chsh):
    # a budget of 8 entries still admits the elimination order, whose
    # largest table (one party setting with its two partners) has 2^3
    # entries, while a one-bucket scan of the 2^4 assignments would not fit
    scenario, ineq = chsh
    full = classical_bound(ineq, scenario, budget=1 << 24)
    decomposed = classical_bound(ineq, scenario, budget=8)
    assert full == decomposed == 2


def test_fractional_coefficients_stay_exact(hexagon):
    scenario, _ = hexagon
    terms = (((0, 1), (1, 1), F(1, 3)), ((0, 1), (-1, -1), F(1, 7)))
    ineq = Inequality(terms, 1)
    assert classical_bound(ineq, scenario) == F(1, 3)


def test_pearle_bell_bound(pearle):
    assert classical_bound(pearle.gamma_prime, pearle.bell_scenario) == 4


@st.composite
def bound_instances(draw):
    """A scenario of up to five measurements with 2 to 4 outcomes, and
    terms inside its contexts: coefficients over mixed denominators, some
    past 2**62 (the object tables), terms naming one measurement twice
    with equal or with different outcomes, and cancelling pairs."""
    counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=5))
    n = len(counts)
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    s = build_scenario([f"M{i}" for i in range(n)], counts, edges)
    coef = st.one_of(
        st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 5, 7, 12])),
        st.builds(lambda k, d: F((k << 62) + d, 3), st.integers(-3, 3), st.integers(-5, 5)),
    )
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        ctx = draw(st.sampled_from(s.contexts))
        members = draw(st.lists(st.sampled_from(ctx), min_size=1, max_size=3))
        if draw(st.booleans()):  # repeats keep one outcome per measurement
            picked = {m: draw(st.sampled_from(s.outcomes[m])) for m in members}
            asg = [picked[m] for m in members]
        else:
            asg = [draw(st.sampled_from(s.outcomes[m])) for m in members]
        c = draw(coef)
        terms.append((tuple(members), tuple(asg), c))
        if draw(st.booleans()):  # the same event in reverse order cancels it
            terms.append((tuple(members[::-1]), tuple(asg[::-1]), -c))
    return s, Inequality(tuple(terms), 0)


def brute_bound(s, ineq):
    """Oracle: the largest value over every assignment of outcome labels;
    a term counts where each of its (measurement, label) pairs holds."""
    return max(
        sum((c for members, asg, c in ineq.terms
             if all(labels[m] == o for m, o in zip(members, asg))), F(0))
        for labels in itertools.product(*s.outcomes))


@settings(max_examples=150, deadline=None)
@given(bound_instances())
def test_classical_bound_matches_brute_force(instance):
    s, ineq = instance
    assert classical_bound(ineq, s) == brute_bound(s, ineq)


def test_repeated_measurement_in_a_term():
    # a measurement named twice with equal outcomes counts once; a term
    # naming one with different outcomes never fires
    s = build_scenario(["M0", "M1"], [2, 2], [(0, 1)])
    terms = (((0, 0), (-1, -1), F(3)), ((1, 0, 1), (-1, 1, 1), F(7)),
             ((0, 1), (1, -1), F(1)))
    ineq = Inequality(terms, 0)
    assert classical_bound(ineq, s) == brute_bound(s, ineq) == 3


def outcome_of(f):
    try:
        f()
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    return None


@settings(max_examples=100, deadline=None)
@given(bound_instances(), st.data())
def test_classical_bound_rejects_what_check_inequality_rejects(instance, data):
    # one malformed term among valid ones: classical_bound checks its terms
    # in check_inequality's pass, so it raises the same type and message
    # (an unhashable label included) before any table is built
    s, ineq = instance
    n = len(s.measurements)
    outside = [p for p in itertools.combinations(range(n), 2) if not s.compat.has_edge(*p)]
    bad = data.draw(st.sampled_from([
        ((0,), (s.outcomes[0][0], s.outcomes[0][0]), F(1)),       # length mismatch
        ((n,), (1,), F(1)),                                       # no such measurement
        ((0,), ("x",), F(1)),                                     # not an outcome label
        ((0,), ([1],), F(1)),                                     # an unhashable label
        *([(outside[0], (s.outcomes[outside[0][0]][0], s.outcomes[outside[0][1]][0]), F(1))]
          if outside else []),                                    # incompatible pair
    ]))
    at = data.draw(st.integers(0, len(ineq.terms)))
    broken = Inequality(ineq.terms[:at] + (bad,) + ineq.terms[at:], 0)
    expected = outcome_of(lambda: check_inequality(s, broken))
    assert expected is not None and expected[0] is ScenarioMismatch
    assert outcome_of(lambda: classical_bound(broken, s)) == expected


# -- tightness ---------------------------------------------------------------------

def test_gamma_is_a_facet(hexagon):
    scenario, gamma = hexagon
    rep = tightness_test(gamma, scenario)
    assert rep.verdict == "facet"
    assert rep.polytope_dimension == 12
    assert rep.face_dimension == 11
    assert rep.saturating_vertices == 12


def test_gamma_prime_is_not_a_facet(pearle):
    rep = tightness_test(pearle.gamma_prime, pearle.bell_scenario)
    assert rep.verdict == "lower-dimensional face"
    assert rep.polytope_dimension == 15 == product_scenario_dim([3, 3])
    assert rep.face_dimension < 14


def test_chsh_is_a_facet(chsh):
    scenario, ineq = chsh
    rep = tightness_test(ineq, scenario)
    assert rep.verdict == "facet"
    assert rep.face_dimension == 7


def chained_bell(m):
    """m x m chained Bell: correlators A_k B_k and A_{k+1} B_k with sign +1
    and the wrap A_0 B_{m-1} with sign -1; local bound 2m - 2."""
    s = build_scenario([f"A{i}" for i in range(m)] + [f"B{i}" for i in range(m)],
                       [2] * (2 * m), [(i, m + j) for i in range(m) for j in range(m)])
    corr = [((k, m + k), 1) for k in range(m)]
    corr += [((k + 1, m + k), 1) for k in range(m - 1)] + [((0, 2 * m - 1), -1)]
    return s, correlator_inequality(s, corr, 2 * m - 2, "LR")


@pytest.mark.parametrize("case, verdict, dim", [
    (lambda: n_cycle(20), "facet", 40),
    # 2^20 assignments x 80 or 200 coordinates: past the memory budget
    # for a vertex list, yet only 40 vertices saturate
    (lambda: chained_bell(10), "lower-dimensional face", 120),
])
def test_tightness_reads_the_face_not_the_vertex_list(case, verdict, dim):
    scenario, ineq = case()
    assert ineq.bound == 18
    rep = tightness_test(ineq, scenario)
    assert (rep.verdict, rep.classical_bound, rep.saturating_vertices,
            rep.face_dimension, rep.polytope_dimension) == (verdict, 18, 40, 39, dim)
    with pytest.raises(BudgetExceeded):
        enumerate_vertices(scenario)


def test_scenario_without_measurements():
    # one vertex, the empty assignment, with no coordinates
    s = build_scenario([], [], [])
    rep = tightness_test(Inequality((), 0), s)
    assert (rep.saturating_vertices, rep.face_dimension, rep.polytope_dimension) == (1, 0, 0)
    assert enumerate_vertices(s).coords.shape == (1, 0)


def test_tightness_edge_verdicts(hexagon):
    scenario, gamma = hexagon
    loose = Inequality(gamma.terms, 5, gamma.kind)
    assert tightness_test(loose, scenario).verdict == "not supporting"
    violated = Inequality(gamma.terms, 3, gamma.kind)
    assert tightness_test(violated, scenario).verdict == "violated-by-vertex"


def test_tightness_with_coefficients_past_int64(chsh):
    # coefficients 1/p for primes near 10**6: scaled to their common
    # denominator they are far past int64, yet the verdict stays exact
    scenario, _ = chsh
    a, b = scenario.outcomes[0]
    events = [((0, 2), (a, a)), ((0, 3), (a, b)), ((1, 2), (b, a)),
              ((1, 3), (b, b)), ((0,), (a,))]
    primes = [999953, 999959, 999961, 999979, 999983]
    terms = tuple((m, o, F(1, p)) for (m, o), p in zip(events, primes))
    bound = classical_bound(Inequality(terms, 0, "LR"), scenario)
    ineq = Inequality(terms, bound, "LR")
    desc = enumerate_vertices(scenario)
    assert bound == max(evaluate(ineq, desc.vertex_behavior(i))
                        for i in range(desc.n_vertices))
    assert tightness_test(ineq, scenario).classical_bound == bound


def test_conflicting_outcome_term_never_fires(chsh):
    # a term naming measurement 0 twice with different outcomes has no
    # vertex on which it fires, in tightness_test as in classical_bound
    scenario, _ = chsh
    a, b = scenario.outcomes[0]
    terms = (((0, 0), (b, a), F(1)), ((0, 2), (a, a), F(1)))
    bound = classical_bound(Inequality(terms, 0, "LR"), scenario)
    assert bound == 1
    rep = tightness_test(Inequality(terms, bound, "LR"), scenario)
    assert rep.classical_bound == bound
    assert rep.verdict != "violated-by-vertex"


def test_facet_bound_perturbation_is_violated(hexagon):
    # any positive rational drop of the bound must be beaten by a vertex
    scenario, gamma = hexagon
    eps = F(1, 997)
    desc = enumerate_vertices(scenario)
    values = [evaluate(gamma, desc.vertex_behavior(i))
              for i in range(desc.n_vertices)]
    assert max(values) > 4 - eps


def test_bell_to_ks_vertex_sets_identical(chsh):
    # same measurements, outcomes, compatibility -> same polytope
    scenario, _ = chsh
    a = enumerate_vertices(scenario)
    b = enumerate_vertices(scenario)
    assert np.array_equal(a.coords, b.coords)


# -- membership ---------------------------------------------------------------------

def test_vertices_are_members(hexagon):
    scenario, _ = hexagon
    det = deterministic_behavior(scenario, {m: 1 for m in range(6)})
    res = membership_test(det, scenario)
    assert res.member
    assert sum(res.weights.values()) == 1


def test_uniform_is_member(hexagon):
    scenario, _ = hexagon
    assert membership_test(uniform_behavior(scenario), scenario).member


def test_repeated_calls_build_no_grid(monkeypatch):
    # the coordinate form is cached on the scenario: over two rounds of
    # membership (rational and float) and quantum_behavior, each maximal
    # context's grid is built once, on first use
    s, _ = n_cycle(6)
    built = []
    grid = outcome_grid

    def counting(scenario, members):
        if tuple(members) in scenario.contexts:
            built.append(tuple(members))
        return grid(scenario, members)

    monkeypatch.setattr("ksatlas.scenario.outcome_grid", counting)
    rational, floats = uniform_behavior(s), uniform_behavior(s, "float")
    model = n_cycle_quantum_model(6)
    for _ in range(2):
        assert membership_test(rational, s).member
        assert membership_test(floats, s).member
        quantum_behavior(model, s)
    assert sorted(built) == sorted(s.contexts)


def test_random_mixtures_are_members(chsh):
    scenario, _ = chsh
    rng = np.random.default_rng(7)
    desc = enumerate_vertices(scenario)
    for _ in range(5):
        k = int(rng.integers(2, 6))
        idx = rng.choice(desc.n_vertices, size=k, replace=False)
        raw = [int(rng.integers(1, 9)) for _ in range(k)]
        weights = [F(r, sum(raw)) for r in raw]
        mixed = mix_behaviors([desc.vertex_behavior(i) for i in idx], weights)
        assert membership_test(mixed, scenario).member


def hexagon_correlator_behavior(scenario, rs):
    """No-disturbing hexagon behavior with uniform marginals and the given
    edge correlators: P(a,b) = (1 + ab r)/4 on each context."""
    tables = {}
    for ctx, r in zip(scenario.contexts, rs):
        tables[ctx] = {
            (a, b): F(1, 4) + F(a * b, 4) * r
            for a, b in itertools.product((1, -1), repeat=2)
        }
    return Behavior(scenario, "rational", tables)


def quantum_like_hexagon(scenario):
    """Rational stand-in for the quantum maximizer: correlators ~ cos(pi/6),
    the (0, 5) context anticorrelated."""
    r = F(866, 1000)
    rs = [r if ctx != (0, 5) else -r for ctx in scenario.contexts]
    return hexagon_correlator_behavior(scenario, rs)


def test_quantum_like_maximizer_is_separated(hexagon):
    scenario, gamma = hexagon
    beh = quantum_like_hexagon(scenario)
    value = evaluate(gamma, beh)
    assert value == 6 * F(866, 1000) > 4
    res = membership_test(beh, scenario)
    assert not res.member
    # witness is exactly respected by every vertex and beaten by the behavior
    desc = enumerate_vertices(scenario)
    for i in range(desc.n_vertices):
        assert evaluate(res.witness, desc.vertex_behavior(i)) <= res.witness.bound
    assert evaluate(res.witness, beh) == res.witness_value > res.witness.bound


def test_membership_rejects_disturbing_behavior(hexagon):
    scenario, _ = hexagon
    b = uniform_behavior(scenario)
    tables = {k: dict(v) for k, v in b.tables.items()}
    tables[(0, 1)] = {asg: F(0) for asg in tables[(0, 1)]}
    tables[(0, 1)][(1, 1)] = F(1)
    bad = Behavior(scenario, "rational", tables)
    with pytest.raises(NoDisturbanceViolated):
        membership_test(bad, scenario)


def noisy_chsh_mixture(scenario):
    """A third each of three CHSH vertices, as floats shifted by 1e-13."""
    desc = enumerate_vertices(scenario)
    mixed = mix_behaviors([desc.vertex_behavior(i) for i in (0, 5, 9)],
                          [F(1, 3)] * 3)
    return Behavior(scenario, "float", {
        ctx: {asg: float(p) + 1e-13 * (1 if asg[0] == 1 else -1)
              for asg, p in tab.items()}
        for ctx, tab in mixed.tables.items()
    })


def noisy_pr_box(scenario):
    """0.9 PR box + 0.1 uniform noise on CHSH, as floats."""
    tables = {}
    for ctx in scenario.contexts:
        anti = ctx == (1, 3)
        tables[ctx] = {
            (a, b): 0.475 if (a == b) != anti else 0.025
            for a, b in itertools.product((1, -1), repeat=2)
        }
    return Behavior(scenario, "float", tables)


def test_float_mode_membership_is_tolerant(chsh):
    scenario, _ = chsh
    assert membership_test(noisy_chsh_mixture(scenario), scenario, tol=1e-9).member


def test_float_tol_zero_validates_exactly(chsh):
    # CHSH uniform with P(1,1|A1,B1) and P(1,-1|A1,B1) moved by +-1e-12:
    # B1's marginal disagrees by 1e-12, so a tolerance below that, 0
    # included, refuses the behavior before the LP; the default 1e-9
    # accepts it and the slack system calls it a member
    scenario, _ = chsh
    beh = uniform_behavior(scenario, "float")
    tab = beh.tables[(0, 2)]
    tab[(1, 1)] += 1e-12
    tab[(1, -1)] -= 1e-12
    for tol in (0, 0.0, 1e-15):
        with pytest.raises(NoDisturbanceViolated):
            membership_test(beh, scenario, tol=tol)
    assert membership_test(beh, scenario).member
    assert membership_test(beh, scenario, tol=1e-9).member
    # every table (0.1, 0.2, 0.3, 0.4): the float sum rounds to 1.0, but
    # the rationals these floats hold, which the LP reads, sum to
    # 1 + 2^-55, so tol=0 refuses the behavior instead of separating it
    values = (0.1, 0.2, 0.3, 0.4)
    assert sum(values) == 1.0 and sum(map(F, values)) == 1 + F(1, 2**55)
    tables = {ctx: dict(zip(outcome_grid(scenario, ctx), values)) for ctx in scenario.contexts}
    beh = Behavior(scenario, "float", tables)
    for tol in (0, 0.0, F(0)):
        with pytest.raises(NoDisturbanceViolated):
            membership_test(beh, scenario, tol=tol)
    assert membership_test(beh, scenario).member


def test_rational_membership_validates_at_the_given_tol(chsh):
    # CHSH uniform with 10^-9 moved from P(1,-1|A1,B1) to P(1,1|A1,B1): B1's
    # marginals differ by 10^-9, so membership refuses the behavior at tol 0,
    # as validation does, and at tol 1e-6 both accept it and the slack
    # system holds it
    scenario, _ = chsh
    beh = uniform_behavior(scenario)
    tab = beh.tables[(0, 2)]
    tab[(1, 1)] += F(1, 10**9)
    tab[(1, -1)] -= F(1, 10**9)
    assert not validate_behavior(scenario, beh).ok
    with pytest.raises(NoDisturbanceViolated):
        membership_test(beh, scenario)
    assert validate_behavior(scenario, beh, tol=1e-6).ok
    assert membership_test(beh, scenario, tol=1e-6).member
    # the PR box is far outside the polytope: the slack of tol still separates it
    pr = Behavior(scenario, "rational", {
        ctx: {(a, b): F(1, 2) if (a == b) != (ctx == (1, 3)) else F(0)
              for a, b in itertools.product((1, -1), repeat=2)}
        for ctx in scenario.contexts})
    res = membership_test(pr, scenario, tol=1e-6)
    assert not res.member and res.witness_value > res.witness.bound


def test_membership_reads_the_behavior_once(hexagon, chsh):
    # one integer form per call, whichever name it is called by: the
    # validation's form is the right-hand side
    code = scenario_module._integer_tables.__code__
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(1)

    cases = [(hexagon[0], uniform_behavior(hexagon[0])),
             (hexagon[0], uniform_behavior(hexagon[0], "float")),
             (chsh[0], noisy_pr_box(chsh[0]))]
    for s, beh in cases:
        for run in (lambda: membership_test(beh, s), lambda: validate_behavior(s, beh)):
            calls.clear()
            previous = sys.getprofile()
            sys.setprofile(count)
            try:
                run()
            finally:
                sys.setprofile(previous)
            assert len(calls) == 1


def test_float_mode_non_member_gets_a_strict_witness(chsh):
    # 0.9 PR box + 0.1 uniform noise: CHSH value 3.6 > 2, entries that
    # floats cannot hold exactly, so the slack system (tol 1e-9) decides
    scenario, ineq = chsh
    beh = noisy_pr_box(scenario)
    assert evaluate(ineq, beh) > 3.5
    res = membership_test(beh, scenario)
    assert not res.member
    desc = enumerate_vertices(scenario)
    bound = res.witness.bound
    assert max(evaluate(res.witness, desc.vertex_behavior(i))
               for i in range(desc.n_vertices)) == bound
    # strict for every behavior within tol of the rationalized one
    slack = F(1e-9) * sum(abs(c) for _, _, c in res.witness.terms)
    assert res.witness_value - slack > bound
    assert abs(evaluate(res.witness, beh) - float(res.witness_value)) < 1e-12


def test_membership_reports_equal_the_fraction_simplex_reports(hexagon, chsh, monkeypatch):
    # every report, weights and witness included, is the one the full
    # Fraction tableau gives when it stands in for the exact LP
    hex_s, _ = hexagon
    chsh_s, _ = chsh
    c5, _ = n_cycle(5)
    cases = [(hex_s, quantum_like_hexagon(hex_s), None),
             (chsh_s, noisy_pr_box(chsh_s), None),
             (chsh_s, noisy_chsh_mixture(chsh_s), 1e-9)]
    for s, picks in ((chsh_s, (1, 6, 11, 12)), (c5, (0, 7, 19, 30))):
        desc = enumerate_vertices(s)
        cases.append((s, mix_behaviors([desc.vertex_behavior(i) for i in picks],
                                       [F(1, 2), F(1, 4), F(1, 6), F(1, 12)]), None))
    reports = [membership_test(b, s, tol=tol).to_json(s) for s, b, tol in cases]
    monkeypatch.setattr(polytope, "solve_feasibility",
                        lambda rows, rhs: FeasibilityResult(*fraction_simplex(rows, rhs)))
    assert [membership_test(b, s, tol=tol).to_json(s) for s, b, tol in cases] == reports
    assert [r["member"] for r in reports] == [False, False, True, True, True]


@st.composite
def shared_form_cases(draw):
    """Mixed radices 2-4, a random compatibility graph and terms on
    sub-contexts (each scope repeated, once permuted), one term naming a
    measurement twice, coefficients small, fractional and past 2**62."""
    n = draw(st.integers(2, 4))
    radices = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    s = build_scenario([f"m{i}" for i in range(n)], radices, edges)
    contexts = list(s.contexts)
    coef = st.one_of(
        st.integers(-6, 6),
        st.fractions(min_value=-3, max_value=3, max_denominator=7),
        st.integers(1, 9).map(lambda k: k << 62),
        st.integers(-(1 << 70), 1 << 70),
    )
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        ctx = draw(st.sampled_from(contexts))
        sub = draw(st.lists(st.sampled_from(ctx), min_size=1, max_size=len(ctx),
                            unique=True))
        for order in (sorted(sub), sorted(sub, reverse=True)):
            asg = tuple(draw(st.sampled_from(s.outcomes[m])) for m in order)
            terms.append((tuple(order), asg, draw(coef)))
    m = draw(st.integers(0, n - 1))
    twice = tuple(draw(st.sampled_from(s.outcomes[m])) for _ in range(2))
    terms.append(((m, m), twice, draw(coef)))
    return s, tuple(terms)


@settings(max_examples=60, deadline=None)
@given(shared_form_cases())
def test_tightness_and_bound_read_one_integer_form(case):
    # the bound and the face come from one elimination of the integer
    # form: both must agree with brute-force evaluate on every vertex
    s, terms = case
    bound = classical_bound(Inequality(terms, 0), s)
    ineq = Inequality(terms, bound)
    desc = enumerate_vertices(s)
    values = [evaluate(ineq, desc.vertex_behavior(i)) for i in range(desc.n_vertices)]
    rep = tightness_test(ineq, s)
    assert rep.classical_bound == bound == max(values)
    assert rep.saturating_vertices == values.count(bound)
    # the face from the elimination's maximizers against all vertex rows
    sat = [i for i, v in enumerate(values) if v == bound]
    assert rep.face_dimension == _affine_rank(desc.coords[sat])


def test_membership_grid_search_agreement():
    # tiny scenario: exhaustive grid over vertex weights agrees with the LP
    s = build_scenario(["a", "b"], [2, 2], [(0, 1)])
    desc = enumerate_vertices(s)
    grid_members = []
    for w in itertools.product(range(5), repeat=desc.n_vertices):
        if sum(w) != 4:
            continue
        vec = sum(F(wi, 4) * desc.coords[i].astype(int)
                  for i, wi in enumerate(w))
        grid_members.append(tuple(vec))
    for vec in grid_members:
        tables = {}
        pos = 0
        for ctx, grid in zip(s.contexts, s.grids):
            tables[ctx] = {asg: frac(vec[pos + k]) for k, asg in enumerate(grid)}
            pos += len(grid)
        beh = Behavior(s, "rational", tables)
        assert membership_test(beh, s).member
