import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksatlas.errors import ConvergenceFailure, InvalidTolerance, SizeLimitExceeded, TooSmall
from ksatlas.graphs import (
    Graph,
    _greedy_clique_cover,
    _greedy_independent_set,
    _sdp_theta,
    complete_graph,
    complete_multipartite_graph,
    contextuality_ratio,
    cycle_graph,
    enumerate_n_partitions,
    exclusivity_graph,
    find_n_partition,
    independence_number,
    is_complete_n_partite,
    lovasz_theta,
    maximal_cliques,
)
from ksatlas.scenario import build_scenario, correlator_inequality, Inequality


def brute_alpha(g):
    best = 0
    edge_set = set(g.edges)
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), r):
            if all((a, b) not in edge_set for a, b in itertools.combinations(sub, 2)):
                return r
    return best


def brute_chromatic(g):
    for k in range(1, g.n + 1):
        for coloring in itertools.product(range(k), repeat=g.n):
            if all(coloring[i] != coloring[j] for i, j in g.edges):
                return k
    return g.n


def random_graph(rng, n_max=10, p=None):
    n = int(rng.integers(2, n_max + 1))
    p = rng.uniform(0.2, 0.8) if p is None else p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, tuple(edges))


# -- cliques -----------------------------------------------------------------

def test_maximal_cliques_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = random_graph(rng)
        want = sorted(tuple(sorted(c)) for c in
                      nx.find_cliques(nx.Graph([(i, j) for i, j in g.edges] +
                                               [(v, v) for v in range(g.n)]))
                      )
        want = sorted(tuple(sorted(set(c))) for c in want)
        got = maximal_cliques(g)
        assert got == want


# -- partitions ---------------------------------------------------------------

def test_hexagon_bipartition_is_odd_even():
    part = find_n_partition(cycle_graph(6), 2)
    assert part.parts == ((0, 2, 4), (1, 3, 5))
    assert part.undersized_parts() == []


def test_triangle_has_no_bipartition():
    assert find_n_partition(cycle_graph(3), 2) is None


def test_k22_bipartition():
    part = find_n_partition(complete_multipartite_graph([2, 2]), 2)
    assert part.parts == ((0, 1), (2, 3))


def test_partition_exists_iff_chromatic_number_allows():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = random_graph(rng, n_max=7)
        chi = brute_chromatic(g)
        for n in range(1, g.n + 1):
            part = find_n_partition(g, n)
            if chi <= n <= g.n:
                assert part is not None, (g, n, chi)
                assert sorted(v for p in part.parts for v in p) == list(range(g.n))
                for p in part.parts:
                    assert all(not g.has_edge(a, b)
                               for a, b in itertools.combinations(p, 2))
            else:
                assert part is None


def test_small_parts_are_flagged():
    part = find_n_partition(Graph(3, ((0, 1),)), 2)
    assert part is not None and part.undersized_parts()


def test_enumerate_partitions_is_deterministic():
    got = list(enumerate_n_partitions(cycle_graph(4), 2))
    assert got[0].parts == ((0, 2), (1, 3))


def test_enumerate_partitions_matches_brute_force_on_all_small_graphs():
    # every partition into k independent parts exactly once, in the
    # lexicographic order of its canonical colour vector (colours first
    # used in the order 0, 1, ..., k-1), on every graph with n <= 5
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(1, n + 2):
            canonical = [c for c in itertools.product(range(k), repeat=n)
                         if list(dict.fromkeys(c)) == list(range(k))]
            for mask in range(1 << len(pairs)):
                g = Graph(n, tuple(p for b, p in enumerate(pairs) if mask >> b & 1))
                want = [tuple(tuple(v for v in range(n) if c[v] == col) for col in range(k))
                        for c in canonical if all(c[i] != c[j] for i, j in g.edges)]
                assert [p.parts for p in enumerate_n_partitions(g, k)] == want, (g, k)


# -- complete multipartite ------------------------------------------------------

def test_complete_multipartite_detection():
    assert is_complete_n_partite(complete_multipartite_graph([2, 2])).parts == \
        ((0, 1), (2, 3))
    assert is_complete_n_partite(cycle_graph(6)) is None  # misses (0,3) etc.
    k222 = is_complete_n_partite(complete_multipartite_graph([2, 2, 2]))
    assert k222 is not None and [len(p) for p in k222.parts] == [2, 2, 2]


def test_complete_multipartite_iff_nonadjacency_transitive():
    rng = np.random.default_rng(13)
    for _ in range(40):
        g = random_graph(rng, n_max=8)
        non_edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                     if not g.has_edge(i, j)]
        transitive = True
        for (a, b), (c, d) in itertools.product(non_edges, repeat=2):
            # treat non-adjacency (plus identity) as a relation and check
            # transitivity through shared endpoints
            chain = {a: b, b: a}.get(c)
            if chain is not None and chain != d and g.has_edge(chain, d):
                transitive = False
        verdict = is_complete_n_partite(g)
        if verdict is not None:
            for p in verdict.parts:
                for a, b in itertools.combinations(p, 2):
                    assert not g.has_edge(a, b)
            for pa, pb in itertools.combinations(verdict.parts, 2):
                for a in pa:
                    for b in pb:
                        assert g.has_edge(a, b)
        else:
            assert not transitive or verdict is None



def _brute_force_multipartite(g):
    """The one partition into independent parts with every cross-part pair
    an edge, searched over every part count, or None."""
    found = [part for n in range(1, g.n + 1)
             for part in enumerate_n_partitions(g, n)
             if all(g.has_edge(a, b)
                    for pa, pb in itertools.combinations(part.parts, 2)
                    for a in pa for b in pb)]
    assert len(found) <= 1
    return found[0] if found else None


def test_complete_multipartite_matches_brute_force_on_all_small_graphs():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, tuple(e for k, e in enumerate(pairs) if (mask >> k) & 1))
            assert is_complete_n_partite(g) == _brute_force_multipartite(g), g

# -- independence number ----------------------------------------------------------

def test_alpha_c5_brute_force():
    assert independence_number(cycle_graph(5)) == 2 == brute_alpha(cycle_graph(5))


def test_alpha_trivial_families():
    for n in (1, 4, 9):
        assert independence_number(Graph(n, ())) == n
        assert independence_number(complete_graph(n)) == 1


def test_alpha_random_vs_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = random_graph(rng, n_max=12)
        assert independence_number(g) == brute_alpha(g)


def test_alpha_size_limit():
    with pytest.raises(SizeLimitExceeded):
        independence_number(Graph(80, ()), size_limit=64)


# -- Lovasz theta ------------------------------------------------------------------

def test_theta_c5_contains_sqrt5():
    lo, hi = lovasz_theta(cycle_graph(5), tol=1e-6)
    assert hi - lo <= 1e-6
    assert lo <= math.sqrt(5) <= hi


def test_theta_closed_forms_for_families():
    for n in range(2, 9):
        lo, hi = lovasz_theta(complete_graph(n), tol=1e-8)
        assert abs(lo - 1) <= 1e-8 and abs(hi - 1) <= 1e-8
        lo, hi = lovasz_theta(Graph(n, ()), tol=1e-8)
        assert abs(lo - n) <= 1e-8 and abs(hi - n) <= 1e-8


def test_theta_odd_cycle_closed_form():
    for n in (5, 7, 9):
        want = n * math.cos(math.pi / n) / (1 + math.cos(math.pi / n))
        lo, hi = lovasz_theta(cycle_graph(n), tol=1e-6)
        assert lo - 1e-9 <= want <= hi + 1e-9


def test_theta_against_cvxpy():
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(23)
    for _ in range(5):
        g = random_graph(rng, n_max=9)
        lo, hi = lovasz_theta(g, tol=1e-6)
        x = cp.Variable((g.n, g.n), symmetric=True)
        cons = [cp.trace(x) == 1, x >> 0] + [x[i, j] == 0 for i, j in g.edges]
        prob = cp.Problem(cp.Maximize(cp.sum(x)), cons)
        prob.solve(solver=cp.SCS, eps=1e-8)
        assert lo - 1e-5 <= prob.value <= hi + 1e-5


def test_sandwich_on_random_graphs():
    rng = np.random.default_rng(29)
    for _ in range(25):
        g = random_graph(rng, n_max=14)
        alpha = independence_number(g)
        lo, hi = lovasz_theta(g, tol=1e-5)
        assert alpha <= lo + 1e-5
        assert hi <= g.n + 1e-9


def test_contextuality_ratio_values():
    inv = contextuality_ratio(cycle_graph(5), tol=1e-6)
    assert inv.alpha == 2
    assert abs(inv.ratio_lower - math.sqrt(5) / 2) < 1e-5
    inv = contextuality_ratio(complete_graph(6), tol=1e-6)
    assert inv.alpha == 1 and abs(inv.ratio_upper - 1) < 1e-6
    c7 = contextuality_ratio(cycle_graph(7), tol=1e-6)
    want = 7 * math.cos(math.pi / 7) / (1 + math.cos(math.pi / 7)) / 3
    assert c7.alpha == 3
    assert abs(c7.ratio_lower - want) < 1e-5


def test_theta_unreachable_tol_raises_convergence_failure():
    t0 = time.monotonic()
    with pytest.raises(ConvergenceFailure, match="theta interval"):
        lovasz_theta(cycle_graph(5), tol=1e-300)
    assert time.monotonic() - t0 < 5.0


@st.composite
def small_graphs(draw, max_n=16):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple(e for e, k in zip(pairs, keep) if k))


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(), tol=st.sampled_from([1e-4, 1e-6, 1e-8]))
def test_theta_interval_is_ordered_and_tol_wide(g, tol):
    for theta in (lovasz_theta, _sdp_theta):
        lo, hi = theta(g, tol=tol)
        assert lo <= hi
        assert hi - lo <= tol


@settings(max_examples=100, deadline=None)
@given(g=small_graphs(max_n=12))
def test_contextuality_ratio_alpha_is_the_independence_number(g):
    # where the sandwich step closes, alpha comes from the greedy set alone
    inv = contextuality_ratio(g, tol=1e-6)
    assert inv.alpha == independence_number(g)
    assert inv.alpha <= inv.theta_lower <= inv.theta_upper
    lo, hi = lovasz_theta(g, tol=1e-6)
    assert inv.theta_upper == hi and inv.theta_lower == max(lo, inv.alpha)


def test_contextuality_ratio_checks_size_before_tol():
    with pytest.raises(SizeLimitExceeded):
        contextuality_ratio(cycle_graph(9), tol=0, size_limit=8)
    with pytest.raises(InvalidTolerance):
        contextuality_ratio(cycle_graph(9), tol=0)


def test_theta_interval_stays_ordered_below_rounding():
    # at tol=1e-15 the gap is down to rounding; any interval returned must
    # still be ordered (theta(K_n) = 1, theta(empty) = n)
    for n in range(2, 12):
        for g in (complete_graph(n), Graph(n, ())):
            try:
                lo, hi = lovasz_theta(g, tol=1e-15)
            except ConvergenceFailure:
                continue
            assert lo <= hi, (g, lo, hi)


# degenerate SDPs on which the interior-point solve used to stall or hit a
# singular Schur matrix before reaching tol=1e-8; each has alpha = clique
# cover number, so lovasz_theta closes them without the solve and the tests
# run _sdp_theta on them as well
DEGENERATE_THETA = [
    # prime graph, theta = 4
    (Graph(10, ((0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 3), (1, 5), (1, 8), (2, 4),
                (2, 5), (2, 7), (2, 8), (3, 4), (3, 7), (4, 5), (4, 6), (4, 7), (5, 7),
                (5, 9), (6, 7), (6, 9), (7, 8), (8, 9))), 4),
    # prime graph, theta = 3
    (Graph(6, ((0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5))), 3),
    # vertex 3 is universal
    (Graph(7, ((0, 3), (0, 5), (0, 6), (1, 3), (1, 5), (1, 6), (2, 3), (2, 4), (3, 4),
               (3, 5), (3, 6), (4, 5), (4, 6))), 3),
    # C4 + 2 K2 + 3 isolated vertices
    (Graph(11, ((0, 8), (0, 9), (1, 7), (2, 5), (8, 10), (9, 10))), 7),
    # theta = alpha = 4: the Newton step stalls 1e-8 to 1e-7 wide, and the
    # independent-set lower end closes the interval
    (Graph(8, ((0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (2, 6), (2, 7),
               (3, 4), (3, 7), (4, 5), (4, 6), (4, 7), (5, 7))), 4),
    (Graph(9, ((0, 1), (0, 8), (1, 3), (1, 4), (2, 4), (2, 6), (3, 8), (4, 6), (5, 7),
               (6, 8))), 4),
]


@pytest.mark.parametrize("g, theta", DEGENERATE_THETA)
def test_theta_reaches_tight_tol_on_degenerate_graphs(g, theta):
    for solve in (lovasz_theta, _sdp_theta):
        lo, hi = solve(g, tol=1e-8)
        assert hi - lo <= 1e-8
        assert lo <= theta <= hi


def test_theta_strips_universal_and_isolated_vertices_exactly():
    c5 = cycle_graph(5)
    # join a universal vertex 5, then add isolated vertices 6 and 7
    g = Graph(8, c5.edges + tuple((v, 5) for v in range(5)))
    for theta in (lovasz_theta, _sdp_theta):
        lo, hi = theta(c5, tol=1e-8)
        glo, ghi = theta(g, tol=1e-8)
        assert ghi - glo <= 1e-8
        assert glo <= 2 + math.sqrt(5) <= ghi
        assert abs(glo - (lo + 2)) <= 1e-8 and abs(ghi - (hi + 2)) <= 1e-8


def test_theta_memory_guard_fires_before_allocating(monkeypatch):
    # C5 joined with a universal vertex: the stripped C5 asks for a
    # (5 + 1)^2 Schur matrix, so a budget one below refuses theta and the
    # ratio before the solve (and the branch and bound) starts, and a
    # budget of exactly 36 solves
    import ksatlas.graphs as graphs
    import ksatlas.polytope as polytope

    g = Graph(6, cycle_graph(5).edges + tuple((v, 5) for v in range(5)))
    solve = graphs._certified_lower_from_point

    def no_work(*args, **kwargs):
        raise AssertionError("theta solve started past the memory guard")

    monkeypatch.setattr(graphs, "_certified_lower_from_point", no_work)
    monkeypatch.setattr(graphs, "independence_number", no_work)
    monkeypatch.setattr(polytope, "MEMORY_BUDGET", 35)
    for invariant in (lovasz_theta, contextuality_ratio):
        with pytest.raises(SizeLimitExceeded):
            invariant(g)
    monkeypatch.setattr(graphs, "_certified_lower_from_point", solve)
    monkeypatch.setattr(polytope, "MEMORY_BUDGET", 36)
    lo, hi = lovasz_theta(g)
    assert lo <= math.sqrt(5) <= hi


def circulant(n, jumps):
    return Graph(n, tuple((i, (i + d) % n) for i in range(n) for d in jumps))


def kneser(n, k):
    verts = list(itertools.combinations(range(n), k))
    return Graph(len(verts), tuple((a, b) for a, b in itertools.combinations(range(len(verts)), 2)
                                   if not set(verts[a]) & set(verts[b])))


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, tuple((a, b) for a, b in itertools.combinations(range(q), 2)
                          if (b - a) % q in squares))


@pytest.mark.parametrize("g", [cycle_graph(n) for n in range(5, 26, 2)]
                         + [circulant(n, (1, 3)) for n in (9, 11, 13, 17)]
                         + [kneser(6, 2), kneser(7, 2), kneser(7, 3), paley(13)],
                         ids=lambda g: f"n{g.n}-e{len(g.edges)}")
def test_theta_product_is_n_on_vertex_transitive_graphs(g):
    # Lovasz 1979: theta(G) * theta(complement) = n for vertex-transitive G
    lo, hi = lovasz_theta(g, tol=1e-6)
    clo, chi = lovasz_theta(g.complement(), tol=1e-6)
    assert lo * clo <= g.n <= hi * chi


def test_theta_product_at_least_n_on_random_graphs():
    # Lovasz 1979: theta(G) * theta(complement) >= n for every graph
    rng = np.random.default_rng(31)
    for _ in range(50):
        g = random_graph(rng, n_max=20)
        _, hi = lovasz_theta(g, tol=1e-6)
        _, chi = lovasz_theta(g.complement(), tol=1e-6)
        assert hi * chi >= g.n


# -- the sandwich step ------------------------------------------------------------

def brute_clique_cover(g):
    """Least number of cliques partitioning the vertices, by backtracking."""
    best, cliques = g.n, []

    def place(v):
        nonlocal best
        if len(cliques) >= best:
            return
        if v == g.n:
            best = len(cliques)
            return
        for c in cliques:
            if all(g.has_edge(u, v) for u in c):
                c.append(v)
                place(v + 1)
                c.pop()
        cliques.append([v])
        place(v + 1)
        cliques.pop()

    place(0)
    return best


@settings(max_examples=150, deadline=None)
@given(g=small_graphs(max_n=12))
def test_sandwich_certificates_are_exact(g):
    adj = g.adjacency_masks
    ind = _greedy_independent_set(adj)
    assert len(set(ind)) == len(ind)
    assert not any(g.has_edge(a, b) for a, b in itertools.combinations(ind, 2))
    cover = _greedy_clique_cover(adj)
    assert sorted(v for c in cover for v in c) == list(range(g.n))
    assert all(g.has_edge(a, b) for c in cover for a, b in itertools.combinations(c, 2))
    lo, hi = lovasz_theta(g, tol=1e-6)
    if len(ind) == len(cover):
        assert (lo, hi) == (float(len(ind)), float(len(ind)))
    if lo == hi:
        assert lo == independence_number(g) == brute_clique_cover(g)


def test_sandwich_closes_kneser_6_2():
    assert lovasz_theta(kneser(6, 2)) == (5.0, 5.0)


def test_sandwich_closes_perfect_graphs_at_any_tol():
    # C5 at this tol raises (test_theta_unreachable_tol_raises_convergence_failure)
    assert lovasz_theta(cycle_graph(6), tol=1e-300) == (3.0, 3.0)
    assert lovasz_theta(complete_multipartite_graph([2, 3, 4]), tol=1e-300) == (4.0, 4.0)


@pytest.mark.parametrize("g, theta", [(cycle_graph(n), n * math.cos(math.pi / n)
                                       / (1 + math.cos(math.pi / n))) for n in (5, 7, 9)]
                         + [(kneser(5, 2), 4)], ids=["c5", "c7", "c9", "petersen"])
def test_sdp_runs_where_the_sandwich_stays_open(g, theta):
    adj = g.adjacency_masks
    assert len(_greedy_independent_set(adj)) < len(_greedy_clique_cover(adj))
    lo, hi = lovasz_theta(g, tol=1e-6)
    assert (lo, hi) == _sdp_theta(g, 1e-6)
    assert lo < hi and hi - lo <= 1e-6
    assert lo - 1e-9 <= theta <= hi + 1e-9


def test_complement_and_has_edge_agree_with_edge_list():
    rng = np.random.default_rng(37)
    for _ in range(20):
        g = random_graph(rng, n_max=12)
        comp = g.complement()
        for i, j in itertools.combinations(range(g.n), 2):
            assert g.has_edge(i, j) == g.has_edge(j, i) == ((i, j) in g.edges)
            assert comp.has_edge(i, j) != g.has_edge(i, j)
        assert comp.complement() == g


# -- exclusivity graphs ---------------------------------------------------------

def kcbs_witness():
    s = build_scenario([f"m{i}" for i in range(5)], [2] * 5,
                       [(i, (i + 1) % 5) for i in range(5)])
    terms = []
    for i in range(5):
        ctx = tuple(sorted((i, (i + 1) % 5)))
        asg = (1, -1) if ctx[0] == i else (-1, 1)
        terms.append((ctx, asg, 1))
    return s, Inequality(tuple(terms), 2, "NCHV", "kcbs")


def test_kcbs_exclusivity_is_c5():
    nx = pytest.importorskip("networkx")
    s, w = kcbs_witness()
    g = exclusivity_graph(w, s)
    assert g.n == 5 and len(g.edges) == 5
    got = nx.Graph(list(g.edges))
    assert nx.is_isomorphic(got, nx.cycle_graph(5))


def test_single_event_witness():
    s = build_scenario(["a", "b"], [2, 2], [(0, 1)])
    w = Inequality((((0, 1), (1, 1), 1),), 1, "NCHV")
    g = exclusivity_graph(w, s)
    assert g.n == 1 and g.edges == ()


def test_chsh_event_form_is_circulant_8_1_4(chsh):
    nx = pytest.importorskip("networkx")
    scenario, ineq = chsh
    g = exclusivity_graph(ineq, scenario)
    assert g.n == 8
    want = nx.circulant_graph(8, [1, 4])
    assert nx.is_isomorphic(nx.Graph(list(g.edges)), want)


def test_event_form_gives_one_event_per_term_order(chsh):
    # a term written in reversed member order is the same event: the
    # exclusivity graph and theta stay those of plain CHSH (8 events,
    # theta = 2 + sqrt 2), not 9 events with theta near 4.06
    scenario, ineq = chsh
    (members, asg, coef), *rest = ineq.terms
    flipped = Inequality(((members[::-1], asg[::-1], coef), *rest), ineq.bound)
    g = exclusivity_graph(flipped, scenario)
    assert g == exclusivity_graph(ineq, scenario) and g.n == 8
    lo, hi = lovasz_theta(g)
    assert lo - 1e-6 <= 2 + math.sqrt(2) <= hi + 1e-6


def test_graph_sizes_without_an_answer_are_refused():
    # no graph has -1 vertices, and theta / alpha is 0 / 0 without a vertex
    with pytest.raises(TooSmall):
        Graph(-1)
    with pytest.raises(TooSmall):
        Graph.from_json({"n": -1, "edges": []})
    empty = Graph(0)
    assert independence_number(empty) == 0 and lovasz_theta(empty) == (0.0, 0.0)
    with pytest.raises(TooSmall):
        contextuality_ratio(empty)
