"""Undirected simple graphs and the graph invariants the toolkit needs.

The same Graph type plays two roles: compatibility graphs of measurement
scenarios (cliques = contexts, multipartite structure = party structure)
and exclusivity graphs of witnesses (independence number bounds the
classical value, the Lovasz number the quantum one).

The independence number is exact (branch and bound). The Lovasz number
is first bracketed by Lovasz's sandwich theorem, alpha <= theta <= clique
cover number, with two integer certificates from greedy passes: an
independent set (minimum degree first) and a clique cover (a DSATUR
colouring of the complement). When their sizes meet, theta is that
integer exactly. Otherwise it is a certified interval from one primal-dual
interior-point solve of its SDP: a feasible primal point, made exactly
feasible by a diagonal shift, gives the lower end, and lambda_max of the
dual matrix plus its eigen-residual gives the upper end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConvergenceFailure, InvalidEdge, InvalidTolerance, SizeLimitExceeded

__all__ = [
    "Graph",
    "Partition",
    "GraphInvariants",
    "maximal_cliques",
    "find_n_partition",
    "enumerate_n_partitions",
    "is_complete_n_partite",
    "independence_number",
    "lovasz_theta",
    "contextuality_ratio",
    "exclusivity_graph",
    "cycle_graph",
    "complete_graph",
    "complete_multipartite_graph",
]

DEFAULT_SIZE_LIMIT = 64


def _canon_edges(n, edges):
    out = set()
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidEdge(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise InvalidEdge(f"self-loop at vertex {i}")
        out.add((min(i, j), max(i, j)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", _canon_edges(self.n, self.edges))

    def adjacency_masks(self):
        """Neighborhoods as python-int bitsets."""
        masks = [0] * self.n
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return masks

    @cached_property
    def _edge_set(self):
        return frozenset(self.edges)

    def has_edge(self, i, j):
        return (min(i, j), max(i, j)) in self._edge_set

    def degree_sequence(self):
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def complement(self):
        comp = [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if (i, j) not in self._edge_set]
        return Graph(self.n, tuple(comp))

    def to_json(self):
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, data):
        return cls(int(data["n"]), tuple((int(i), int(j)) for i, j in data["edges"]))


@dataclass(frozen=True)
class Partition:
    """Disjoint independent vertex sets covering a graph."""

    parts: tuple

    def __post_init__(self):
        canon = tuple(sorted((tuple(sorted(p)) for p in self.parts), key=lambda p: p[0]))
        object.__setattr__(self, "parts", canon)

    @property
    def n_parts(self):
        return len(self.parts)

    def undersized_parts(self):
        """Indices of parts with fewer than two vertices."""
        return [k for k, p in enumerate(self.parts) if len(p) < 2]

    def to_json(self):
        return {"parts": [list(p) for p in self.parts]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(tuple(int(v) for v in p) for p in data["parts"]))


@dataclass(frozen=True)
class GraphInvariants:
    alpha: int
    theta_lower: float
    theta_upper: float
    ratio_lower: float = field(init=False)
    ratio_upper: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ratio_lower", self.theta_lower / self.alpha)
        object.__setattr__(self, "ratio_upper", self.theta_upper / self.alpha)

    def to_json(self):
        return {
            "alpha": self.alpha,
            "theta": [self.theta_lower, self.theta_upper],
            "ratio": [self.ratio_lower, self.ratio_upper],
        }


# -- constructors -------------------------------------------------------------

def cycle_graph(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n):
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_multipartite_graph(part_sizes):
    parts, v = [], 0
    for s in part_sizes:
        parts.append(list(range(v, v + s)))
        v += s
    edges = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            edges.extend((i, j) for i in parts[a] for j in parts[b])
    return Graph(v, tuple(edges))


# -- maximal cliques ----------------------------------------------------------

def _bits(mask):
    """Set bit positions of a python-int bitset, lowest first."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def maximal_cliques(graph):
    """All maximal cliques, each sorted, the list in lexicographic order.

    Bron-Kerbosch with pivoting on bitset neighborhoods; isolated vertices
    yield singleton cliques.
    """
    n = graph.n
    adj = graph.adjacency_masks()
    out = []

    def expand(r, p, x):
        if p == 0 and x == 0:
            out.append(tuple(sorted(r)))
            return
        pivot_pool = p | x
        pivot = max(_bits(pivot_pool), key=lambda v: (adj[v] & p).bit_count())
        for v in _bits(p & ~adj[pivot]):
            expand(r + [v], p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    if n:
        expand([], (1 << n) - 1, 0)
    return sorted(out)


# -- n-partitions -------------------------------------------------------------

def enumerate_n_partitions(graph, n):
    """All partitions into exactly n nonempty independent parts.

    Proper colorings are enumerated with canonical color introduction
    (vertex 0 gets color 0, a new color only when all earlier ones have
    appeared), so each partition is produced once, in lexicographic order
    of the color vector.
    """
    nv = graph.n
    if not (1 <= n <= nv):
        return
    adj = graph.adjacency_masks()
    colors = [-1] * nv

    def backtrack(v, used):
        if v == nv:
            if used == n:
                parts = [[] for _ in range(n)]
                for u, c in enumerate(colors):
                    parts[c].append(u)
                yield Partition(tuple(tuple(p) for p in parts))
            return
        # cannot introduce enough new colors with the vertices left
        if used + (nv - v) < n:
            return
        limit = min(used + 1, n)
        for c in range(limit):
            ok = all(not (adj[v] >> u) & 1 or colors[u] != c for u in range(v))
            if ok:
                colors[v] = c
                yield from backtrack(v + 1, max(used, c + 1))
                colors[v] = -1

    yield from backtrack(0, 0)


def find_n_partition(graph, n):
    """First partition of the vertices into n independent parts, or None."""
    for part in enumerate_n_partitions(graph, n):
        return part
    return None


def is_complete_n_partite(graph):
    """The unique multipartite structure if the graph is complete n-partite.

    Closed non-adjacency must be an equivalence relation; the parts are its
    classes. Once each member's closed non-neighbourhood is its class, the
    classes are disjoint, so every cross-part pair is an edge.
    """
    n = graph.n
    if n == 0:
        return None
    adj = graph.adjacency_masks()
    full = (1 << n) - 1
    non_adj = [(~adj[v]) & full for v in range(n)]  # includes v itself
    seen = 0
    parts = []
    for v in range(n):
        if (seen >> v) & 1:
            continue
        cls = non_adj[v]
        members = tuple(_bits(cls))
        if any(non_adj[u] != cls for u in members):
            return None
        parts.append(members)
        seen |= cls
    return Partition(tuple(parts))


# -- independence number ------------------------------------------------------

def independence_number(graph, size_limit=DEFAULT_SIZE_LIMIT):
    """Exact alpha(G) = clique number of the complement.

    Branch and bound in the Tomita style: candidates are greedily colored
    (a clique cover of G restricted to the candidates) and the color count
    prunes the search. Vertices are ordered by descending degree for
    determinism and pruning strength.
    """
    if graph.n > size_limit:
        raise SizeLimitExceeded(f"graph has {graph.n} > {size_limit} vertices")
    if graph.n == 0:
        return 0
    comp = graph.complement()
    deg = comp.degree_sequence()
    order = sorted(range(comp.n), key=lambda v: (-deg[v], v))
    relabel = {v: k for k, v in enumerate(order)}
    adj = [0] * comp.n
    for i, j in comp.edges:
        a, b = relabel[i], relabel[j]
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    best = 0

    def color_sort(cand_mask):
        """Greedy coloring of candidates; returns vertices with their color
        numbers in color order (ascending bound)."""
        colored = []
        uncolored = cand_mask
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = next(_bits(avail))
                colored.append((v, color))
                avail &= ~adj[v]
                avail &= ~(1 << v)
                uncolored &= ~(1 << v)
        return colored

    def expand(size, cand_mask):
        nonlocal best
        colored = color_sort(cand_mask)
        for v, c in reversed(colored):
            if size + c <= best:
                return
            nxt = cand_mask & adj[v]
            if size + 1 > best:
                best = size + 1
            if nxt:
                expand(size + 1, nxt)
            cand_mask &= ~(1 << v)

    expand(0, (1 << comp.n) - 1)
    return best


# -- Lovasz theta -------------------------------------------------------------

# Newton steps before lovasz_theta gives up; the predictor-corrector closes
# tol=1e-6 on random graphs with up to 30 vertices in at most 15 steps.
_MAX_NEWTON_STEPS = 100
# share of the distance to the psd boundary that a corrector step takes
_STEP_FRACTION = 0.95


def _eig_margin(a, vals, vecs):
    """Frobenius norm of the eigendecomposition residual, a safe bound on
    how far any quoted eigenvalue may sit from the true spectrum."""
    r = a @ vecs - vecs * vals
    return float(np.linalg.norm(r))


def _certified_lower_from_point(x_ref, n):
    """<J, X> for an exactly feasible X built from x_ref.

    x_ref has zero edge entries and unit trace; its smallest eigenvalue
    (less the residual margin) is shifted out with a multiple of the
    identity, which keeps both affine constraints after renormalization.
    The value is lowered by a bound on the rounding of the n^2-term sum
    and of the unit trace, so it never exceeds the true <J, X>.
    """
    vals, vecs = np.linalg.eigh(x_ref)
    delta = max(0.0, -float(vals[0]) + _eig_margin(x_ref, vals, vecs))
    rounding = n * n * np.finfo(float).eps * np.abs(x_ref).sum()
    return float((x_ref.sum() + delta * n) / (1.0 + delta * n) - rounding)


def _certified_upper(m):
    """lambda_max(J + Lambda) for an edge-supported Lambda is an upper
    bound on theta for any choice of multipliers."""
    vals, vecs = np.linalg.eigh(m)
    return float(vals[-1]) + _eig_margin(m, vals, vecs)


def _step_to_boundary(chol_inv, d):
    """Largest a with S + a*d psd (inf if every a is); chol_inv = L^-1, S = L L^T."""
    low = float(np.linalg.eigvalsh(chol_inv @ d @ chol_inv.T)[0])
    if not np.isfinite(low):
        raise np.linalg.LinAlgError("non-finite search direction")
    return -1.0 / low if low < 0 else np.inf


def _strip_universal_and_isolated(graph):
    """(core, k) with theta(graph) = theta(core) + k exactly.

    A vertex adjacent to all others leaves theta unchanged (theta of a join
    is the larger one) and an isolated vertex adds one (theta of a disjoint
    union is the sum). Both make the SDP degenerate, and the interior-point
    solve can stall before the interval closes to 1e-8.
    """
    adj = graph.adjacency_masks()
    alive = (1 << graph.n) - 1
    k = 0
    changed = True
    while changed:
        changed = False
        for v in _bits(alive):
            nbrs = adj[v] & alive
            if nbrs == 0:
                k += 1
            elif nbrs != alive ^ (1 << v):
                continue
            alive ^= 1 << v
            changed = True
    index = {v: i for i, v in enumerate(_bits(alive))}
    core = tuple((index[a], index[b]) for a, b in graph.edges if a in index and b in index)
    return Graph(len(index), core), k


def _greedy_independent_set(adj):
    """Independent set by the minimum-degree greedy rule: take the vertex
    with the fewest neighbours among those left (lowest index on ties),
    then drop it and its neighbours. adj holds the neighbourhood bitsets."""
    alive = (1 << len(adj)) - 1
    chosen = []
    while alive:
        v = min(_bits(alive), key=lambda u: (adj[u] & alive).bit_count())
        chosen.append(v)
        alive &= ~(adj[v] | (1 << v))
    return chosen


def _greedy_clique_cover(adj):
    """Cliques covering every vertex: the colour classes of a DSATUR
    colouring of the complement (Brelaz, Commun. ACM 22, 1979). The next
    vertex has the most distinct colours among its coloured non-neighbours,
    then the most non-neighbours, then the lowest index; it takes the
    lowest colour that none of them has."""
    n = len(adj)
    full = (1 << n) - 1
    non_adj = [full ^ adj[v] ^ (1 << v) for v in range(n)]
    deg = [m.bit_count() for m in non_adj]
    seen = [0] * n  # colours of each vertex's coloured non-neighbours, as bits
    cliques = []
    left = full
    while left:
        v = max(_bits(left), key=lambda u: (seen[u].bit_count(), deg[u], -u))
        c = (~seen[v] & (seen[v] + 1)).bit_length() - 1
        if c == len(cliques):
            cliques.append(0)
        cliques[c] |= 1 << v
        left ^= 1 << v
        for u in _bits(non_adj[v] & left):
            seen[u] |= 1 << c
    return [tuple(_bits(m)) for m in cliques]


def _sandwich(graph, tol, size_limit):
    """(k, closed) for alpha <= theta <= clique cover number: k is the size
    of the greedy independent set, and closed says that the greedy clique
    cover has size k too, so that alpha = theta = k exactly. Checks the size
    limit, then tol, as lovasz_theta and contextuality_ratio promise."""
    if graph.n > size_limit:
        raise SizeLimitExceeded(f"graph has {graph.n} > {size_limit} vertices")
    if tol <= 0:
        raise InvalidTolerance("tol must be positive")
    adj = graph.adjacency_masks()
    k = len(_greedy_independent_set(adj))
    return k, k == len(_greedy_clique_cover(adj))


def lovasz_theta(graph, tol=1e-6, size_limit=DEFAULT_SIZE_LIMIT):
    """Certified interval (lower, upper) for the Lovasz number.

    The sandwich theorem alpha <= theta <= clique cover number (Lovasz,
    IEEE Trans. Inf. Theory 25, 1979) is tried first, with two integer
    certificates from O(n^2) greedy passes: an independent set
    (`_greedy_independent_set`) and a clique cover (`_greedy_clique_cover`).
    When both have size k, theta = k and (k, k) is returned exactly.

    Otherwise the interval comes from the SDP (`_sdp_theta`): universal
    and isolated vertices are stripped exactly
    (`_strip_universal_and_isolated`), and the primal SDP
    max <J,X>  s.t.  Tr X = 1, X_ij = 0 on edges, X psd
    and its dual  min t  s.t.  Z = t I + sum_e y_e A_e - J psd  (A_e the
    symmetric unit matrix of edge e) are solved together by the HRVW/XZ
    primal-dual interior-point method (Helmberg, Rendl, Vanderbei and
    Wolkowicz, SIAM J. Optim. 6, 1996): HKM search directions with
    Mehrotra's predictor-corrector, one Schur system of size |E|+1 per
    Newton step. Each iterate yields two certificates:

    - lower: X projected onto Tr X = 1 with zero edge entries, made psd by
      a diagonal shift (`_certified_lower_from_point`);
    - upper: lambda_max(J - sum_e y_e A_e) plus its eigen-residual margin,
      valid for any multipliers y (`_certified_upper`).

    Returns the best interval once it is at most tol wide. A failed
    factorization, a stalled step or _MAX_NEWTON_STEPS steps end the solve;
    the greedy independent set of what is left then raises the lower end
    to its size if that is higher, and if the interval is still wider than
    tol, ConvergenceFailure carries it.
    """
    k, closed = _sandwich(graph, tol, size_limit)
    if closed:
        return (float(k), float(k))
    return _sdp_theta(graph, tol)


def _sdp_theta(graph, tol):
    """lovasz_theta's interval from the interior-point solve alone, after
    the exact strip of universal and isolated vertices."""
    graph, k = _strip_universal_and_isolated(graph)
    n = graph.n
    if n == 0:
        return (float(k), float(k))
    # adding k rounds each end outward by at most 1.5 ulp(n + k)
    gap = tol - 4 * math.ulp(n + k) if k else tol

    def shifted(lo, hi):
        if not k:
            return (lo, hi)
        return (math.nextafter(lo + k, -math.inf), math.nextafter(hi + k, math.inf))

    ei = np.array([e[0] for e in graph.edges], dtype=np.intp)
    ej = np.array([e[1] for e in graph.edges], dtype=np.intp)
    j, eye = np.ones((n, n)), np.eye(n)
    b = np.zeros(len(ei) + 1)
    b[0] = 1.0

    def a_op(g):
        """<A_k, g> for the trace constraint and every edge."""
        return np.concatenate(([np.trace(g)], g[ei, ej] + g[ej, ei]))

    def on_edges(base, v):
        s = base.copy()
        s[ei, ej] += v
        s[ej, ei] += v
        return s

    def a_adj(y):
        return on_edges(y[0] * eye, y[1:])

    def schur(x, w):
        """M_kl = Tr(A_k X A_l W); an edge pair is a sum of four products."""
        m = np.empty((len(b), len(b)))
        xw = x @ w
        m[0, 0] = np.sum(x * w)
        m[0, 1:] = m[1:, 0] = xw[ei, ej] + xw[ej, ei]
        m[1:, 1:] = (x[np.ix_(ej, ei)] * w[np.ix_(ei, ej)] + x[np.ix_(ej, ej)] * w[np.ix_(ei, ei)]
                     + x[np.ix_(ei, ei)] * w[np.ix_(ej, ej)] + x[np.ix_(ei, ej)] * w[np.ix_(ej, ei)])
        return m

    x = eye / n
    y = b * (n + 1.0)
    z = a_adj(y) - j
    lo, hi = 0.0, float(n)
    why = f"no convergence in {_MAX_NEWTON_STEPS} Newton steps"
    try:
        for _ in range(_MAX_NEWTON_STEPS):
            x_ref = x.copy()
            x_ref[ei, ej] = x_ref[ej, ei] = 0.0
            x_ref[np.diag_indices(n)] += (1.0 - np.trace(x_ref)) / n
            lo = max(lo, _certified_lower_from_point(x_ref, n))
            hi = min(hi, _certified_upper(on_edges(j, -y[1:])))
            if hi - lo <= gap:
                return shifted(lo, hi)

            lxi = np.linalg.inv(np.linalg.cholesky(x))
            lzi = np.linalg.inv(np.linalg.cholesky(z))
            w = lzi.T @ lzi
            m = schur(x, w)
            rp = b - a_op(x)
            rd = j - a_adj(y) + z
            xz, xrd = x @ z, x @ rd

            def direction(rc):
                """HKM step for X dZ + dX Z = rc with the residuals closed.

                The Schur system grows ill-conditioned as mu -> 0, so dX is
                put back on A(dX) = rp exactly: edge entries -X_e and a
                multiple of I for the trace. Otherwise the iterate drifts off
                the zero-edge face and the lower certificate pays for it.
                """
                rhs = a_op((rc + xrd) @ w) - rp
                try:
                    dy = np.linalg.solve(m, rhs)
                except np.linalg.LinAlgError:  # singular to working precision
                    dy = np.linalg.lstsq(m, rhs, rcond=None)[0]
                dz = a_adj(dy) - rd
                dx = (rc - x @ dz) @ w
                dx = 0.5 * (dx + dx.T)
                dx[ei, ej] = dx[ej, ei] = -x[ei, ej]
                dx[np.diag_indices(n)] += (rp[0] - np.trace(dx)) / n
                return dx, dy, dz

            mu = np.trace(xz) / n
            dx, dy, dz = direction(-xz)
            ap = min(1.0, _step_to_boundary(lxi, dx))
            ad = min(1.0, _step_to_boundary(lzi, dz))
            sigma = (np.sum((x + ap * dx) * (z + ad * dz)) / (n * mu)) ** 3
            dx, dy, dz = direction(sigma * mu * eye - xz - dx @ dz)
            ap = min(1.0, _STEP_FRACTION * _step_to_boundary(lxi, dx))
            ad = min(1.0, _STEP_FRACTION * _step_to_boundary(lzi, dz))
            if max(ap, ad) < 1e-8:
                why = "the Newton step stalled"
                break
            x, y, z = x + ap * dx, y + ad * dy, z + ad * dz
    except np.linalg.LinAlgError as exc:
        why = f"linear algebra failed: {exc}"
    # an independent set is an exact lower end; where the solve stalls on a
    # degenerate optimal face, theta often equals alpha and this closes it
    lo = max(lo, float(len(_greedy_independent_set(graph.adjacency_masks()))))
    if hi - lo <= gap:
        return shifted(lo, hi)
    raise ConvergenceFailure(f"theta interval {shifted(lo, hi)} wider than tol={tol}: {why}")


def contextuality_ratio(graph, tol=1e-6, size_limit=DEFAULT_SIZE_LIMIT):
    """alpha, certified theta interval and their ratio, bundled.

    When lovasz_theta's sandwich step closes (`_sandwich`), alpha = theta
    = k and neither the branch and bound nor the SDP runs. Otherwise an
    independent set of size alpha gives a feasible primal point, so alpha
    is itself an exact lower bound on theta and tightens the interval's
    lower end.
    """
    k, closed = _sandwich(graph, tol, size_limit)
    if closed:
        return GraphInvariants(alpha=k, theta_lower=float(k), theta_upper=float(k))
    alpha = independence_number(graph, size_limit=size_limit)
    lo, hi = _sdp_theta(graph, tol)
    return GraphInvariants(alpha=alpha, theta_lower=max(lo, float(alpha)), theta_upper=hi)


# -- exclusivity graphs -------------------------------------------------------

def event_form(inequality, scenario):
    """Rewrite an inequality as nonnegative weights on event probabilities.

    Terms are grouped by the referenced sub-context; each group is
    completed to the full outcome grid of that sub-context and shifted by
    its minimum (the grid sums to one, so the shift only moves the bound).
    Returns (events, weights, bound) with events as (context, assignment)
    pairs carrying strictly positive weights.
    """
    from .scenario import outcome_grid  # local import to avoid a cycle

    groups = {}
    for ctx, assignment, coef in inequality.terms:
        groups.setdefault(ctx, {})
        groups[ctx][assignment] = groups[ctx].get(assignment, Fraction(0)) + coef
    events, weights = [], []
    bound = inequality.bound
    for ctx in sorted(groups):
        grid = outcome_grid(scenario, ctx)
        dense = {asg: groups[ctx].get(asg, Fraction(0)) for asg in grid}
        low = min(dense.values())
        if low < 0:
            bound = bound - low
            dense = {a: c - low for a, c in dense.items()}
        for asg in grid:
            c = dense[asg]
            if c > 0:
                events.append((ctx, asg))
                weights.append(c)
    return events, weights, bound


def exclusivity_graph(inequality, scenario):
    """Graph of mutual exclusivity between the witness events.

    One vertex per event (in canonical order); an edge whenever two events
    assign different outcomes to a shared measurement.
    """
    events, _, _ = event_form(inequality, scenario)
    n = len(events)
    edges = []
    for a in range(n):
        ctx_a, asg_a = events[a]
        map_a = dict(zip(ctx_a, asg_a))
        for b in range(a + 1, n):
            ctx_b, asg_b = events[b]
            if any(m in map_a and map_a[m] != o for m, o in zip(ctx_b, asg_b)):
                edges.append((a, b))
    return Graph(n, tuple(edges))
