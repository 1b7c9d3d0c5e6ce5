import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksatlas.bridge import n_cycle
from ksatlas.errors import BudgetExceeded, NoDisturbanceViolated
from ksatlas.polytope import (
    Layout,
    _affine_rank,
    classical_bound,
    enumerate_vertices,
    int_rank,
    membership_test,
    polytope_dimension,
    tightness_test,
)
from ksatlas.scenario import (
    Behavior,
    Inequality,
    build_scenario,
    correlator_inequality,
    deterministic_behavior,
    evaluate,
    frac,
    maximal_contexts,
    mix_behaviors,
    outcome_grid,
    uniform_behavior,
)

F = Fraction


def brute_vertices(scenario):
    """Oracle: behaviors of all assignments via itertools, deduplicated."""
    layout = Layout(scenario)
    seen = []
    for combo in itertools.product(*scenario.outcomes):
        vec = []
        for ctx in layout.contexts:
            want = tuple(combo[m] for m in ctx)
            vec.extend(1 if asg == want else 0
                       for asg in outcome_grid(scenario, ctx))
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
    assert desc.dimension == 1


def test_chsh_sixteen_vertices_dim8(chsh):
    scenario, _ = chsh
    desc = enumerate_vertices(scenario)
    assert desc.n_vertices == 16
    assert desc.dimension == 8 == product_scenario_dim([2, 2])
    # float-rank oracle agrees
    diffs = desc.coords[1:].astype(float) - desc.coords[0].astype(float)
    assert np.linalg.matrix_rank(diffs, tol=1e-9) == 8


@pytest.mark.parametrize("radices, edges", [
    ([3, 2, 3, 2], [(0, 1), (1, 2), (2, 3)]),
    ([8, 8, 5], [(0, 1), (1, 2), (0, 2)]),  # table positions past 255
])
def test_rows_follow_first_realizing_assignment(radices, edges):
    # mixed radices: row order, rows and assignment_index match the
    # first-occurrence scan of the brute-force oracle exactly
    s = build_scenario([f"m{i}" for i in range(len(radices))], radices, edges)
    desc = enumerate_vertices(s)
    assert desc.coords.tolist() == brute_vertices(s)
    assert desc.assignment_index.tolist() == list(range(int(np.prod(radices))))


def test_budget_is_enforced():
    s = build_scenario([f"m{i}" for i in range(8)], [2] * 8, [])
    with pytest.raises(BudgetExceeded):
        enumerate_vertices(s, budget=100)


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
    for ctx, r in zip([c.members for c in maximal_contexts(scenario)], rs):
        tables[ctx] = {
            (a, b): F(1, 4) + F(a * b, 4) * r
            for a, b in itertools.product((1, -1), repeat=2)
        }
    return Behavior(scenario, "rational", tables)


def test_quantum_like_maximizer_is_separated(hexagon):
    scenario, gamma = hexagon
    # rational stand-in for the quantum maximizer: correlators ~ cos(pi/6)
    r = F(866, 1000)
    order = [c.members for c in maximal_contexts(scenario)]
    rs = [r if ctx != (0, 5) else -r for ctx in order]
    beh = hexagon_correlator_behavior(scenario, rs)
    value = evaluate(gamma, beh)
    assert value == 6 * r > 4
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


def test_float_mode_membership_is_tolerant(chsh):
    scenario, _ = chsh
    desc = enumerate_vertices(scenario)
    mixed = mix_behaviors([desc.vertex_behavior(i) for i in (0, 5, 9)],
                          [F(1, 3)] * 3)
    noisy = Behavior(scenario, "float", {
        ctx: {asg: float(p) + 1e-13 * (1 if asg[0] == 1 else -1)
              for asg, p in tab.items()}
        for ctx, tab in mixed.tables.items()
    })
    assert membership_test(noisy, scenario, tol=1e-9).member


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
    layout = desc.layout
    for vec in grid_members:
        tables = {}
        pos = 0
        for ctx, grid in zip(layout.contexts, layout.grids):
            tables[ctx] = {asg: frac(vec[pos + k]) for k, asg in enumerate(grid)}
            pos += len(grid)
        beh = Behavior(s, "rational", tables)
        assert membership_test(beh, s).member
