"""Independent oracles for the benchmark's answers.

Nothing here calls into `ksatlas`: bounds are recomputed by brute force
over the +-1 variables a correlator expression touches, facet verdicts by
a floating-point rank of the 0/1 vertex matrix, membership by a scipy LP
over deterministic assignments plus an exact check of the returned
certificate, and graph invariants by networkx and closed forms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

CHUNK = 1 << 16


def _lcm_den(coefs):
    den = 1
    for c in coefs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return den


def correlator_max(correlators):
    """Exact max of sum c * prod(s_m) over s in {+1,-1}^touched.

    correlators: list of (member tuple, Fraction). Variables no correlator
    touches do not change the value, so only touched ones are enumerated.
    """
    covered = sorted({m for ms, _ in correlators for m in ms})
    pos = {m: k for k, m in enumerate(covered)}
    den = _lcm_den(c for _, c in correlators)
    ints = [int(c * den) for _, c in correlators]
    if sum(abs(v) for v in ints) >= 1 << 62 or len(covered) <= 10:
        best = None
        for signs in itertools.product((1, -1), repeat=len(covered)):
            v = 0
            for (ms, _), c in zip(correlators, ints):
                p = c
                for m in ms:
                    p *= signs[pos[m]]
                v += p
            best = v if best is None or v > best else best
        return Fraction(best, den)
    k = len(covered)
    shifts = np.arange(k, dtype=np.int64)
    best = None
    for start in range(0, 1 << k, CHUNK):
        idx = np.arange(start, min(start + CHUNK, 1 << k), dtype=np.int64)
        sign = 1 - 2 * ((idx[:, None] >> shifts) & 1)
        val = np.zeros(idx.shape[0], dtype=np.int64)
        for (ms, _), c in zip(correlators, ints):
            term = np.full(idx.shape[0], c, dtype=np.int64)
            for m in ms:
                term *= sign[:, pos[m]]
            val += term
        top = int(val.max())
        best = top if best is None or top > best else best
    return Fraction(best, den)


def bipartite_correlator_max(correlators, alice, bob):
    """Local bound of a two-party correlator expression: for each setting
    of Bob's signs every Alice setting takes the sign of its row sum."""
    den = _lcm_den(c for _, c in correlators)
    ai = {m: k for k, m in enumerate(alice)}
    bi = {m: k for k, m in enumerate(bob)}
    mat = np.zeros((len(alice), len(bob)), dtype=np.int64)
    for (x, y), c in correlators:
        a, b = (x, y) if x in ai else (y, x)
        mat[ai[a], bi[b]] += int(c * den)
    idx = np.arange(1 << len(bob), dtype=np.int64)
    signs = 1 - 2 * ((idx[:, None] >> np.arange(len(bob))) & 1)
    best = int(np.abs(signs @ mat.T).sum(axis=1).max())
    return Fraction(best, den)


def _assignments(n):
    """All +-1 assignments of n dichotomic measurements as 0/1 digits, in
    mixed-radix order with the last measurement fastest (digit 0 = +1)."""
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)


def vertex_matrix(n, contexts):
    """0/1 coordinates of every deterministic assignment: one block per
    context, one-hot on the joint outcome."""
    digits = _assignments(n)
    blocks = []
    for ctx in contexts:
        joint = np.zeros(digits.shape[0], dtype=np.int64)
        for m in ctx:
            joint = joint * 2 + digits[:, m]
        block = np.zeros((digits.shape[0], 1 << len(ctx)), dtype=np.int8)
        block[np.arange(digits.shape[0]), joint] = 1
        blocks.append(block)
    return digits, np.concatenate(blocks, axis=1)


def _affine_rank(rows):
    if rows.shape[0] <= 1:
        return 0
    diffs = rows[1:].astype(np.float64) - rows[0].astype(np.float64)
    return int(np.linalg.matrix_rank(diffs))


def face_report(n, contexts, correlators, stored_bound):
    """Expected (verdict, bound, saturating vertices, face dim, polytope
    dim) for a correlator inequality over n dichotomic measurements."""
    digits, coords = vertex_matrix(n, contexts)
    den = _lcm_den([c for _, c in correlators] + [Fraction(stored_bound)])
    sign = 1 - 2 * digits.astype(np.int64)
    vals = np.zeros(digits.shape[0], dtype=np.int64)
    for ms, c in correlators:
        term = np.full(digits.shape[0], int(c * den), dtype=np.int64)
        for m in ms:
            term *= sign[:, m]
        vals += term
    coords, first = np.unique(coords, axis=0, return_index=True)
    vals = vals[first]
    top = Fraction(int(vals.max()), den)
    poly_dim = _affine_rank(coords)
    stored = Fraction(stored_bound)
    if top > stored:
        return ("violated-by-vertex", top, 0, -1, poly_dim)
    if top < stored:
        return ("not supporting", top, 0, -1, poly_dim)
    sat = coords[vals == int(stored * den)]
    face_dim = _affine_rank(sat)
    verdict = "facet" if face_dim == poly_dim - 1 else "lower-dimensional face"
    return (verdict, top, int(sat.shape[0]), face_dim, poly_dim)


def lp_member(n, contexts, tables):
    """Membership by a float LP over all 2^n deterministic assignments.

    tables: per context, probabilities indexed by the joint outcome in
    the order of `vertex_matrix`."""
    from scipy.optimize import linprog

    _, coords = vertex_matrix(n, contexts)
    b = np.concatenate([np.asarray(t, dtype=np.float64) for t in tables])
    res = linprog(np.zeros(coords.shape[0]), A_eq=coords.T.astype(np.float64),
                  b_eq=b, bounds=(0, None), method="highs")
    return res.status == 0


def check_weights(n, contexts, tables, weights, tol=0):
    """A member certificate: nonnegative weights on vertices (vertex i is
    assignment i, last measurement fastest) that sum to one and reproduce
    every table entry, exactly when tol is 0."""
    _, coords = vertex_matrix(n, contexts)
    if any(w < 0 for w in weights.values()) or sum(weights.values()) != 1:
        return "weights are not a convex combination"
    b = [Fraction(v) for t in tables for v in t]
    acc = [Fraction(0)] * len(b)
    for i, w in weights.items():
        for j in np.nonzero(coords[int(i)])[0]:
            acc[j] += w
    worst = max(abs(x - y) for x, y in zip(acc, b))
    if worst > Fraction(tol) * 2:
        return f"weights miss the behavior by {float(worst):.3g}"
    return None


def check_witness(n, contexts, tables, coefs, bound, value):
    """A non-member certificate: a linear functional on the coordinates
    that every vertex keeps at or below `bound` and the behavior exceeds."""
    _, coords = vertex_matrix(n, contexts)
    den = _lcm_den(list(coefs) + [Fraction(bound)])
    w = [int(c * den) for c in coefs]
    worst = max(sum(w[j] for j in np.nonzero(row)[0]) for row in coords)
    if Fraction(worst, den) > bound:
        return "a vertex violates the separating witness"
    b = [Fraction(v) for t in tables for v in t]
    got = sum(c * x for c, x in zip(coefs, b))
    if got <= bound or got != value:
        return "the witness does not separate the behavior"
    return None


def cycle_quantum_max(n):
    """Quantum maximum of the n-cycle correlator expression (Araujo et al.,
    PRA 88, 022118)."""
    c = math.cos(math.pi / n)
    return n * c if n % 2 == 0 else (3 * n * c - n) / (1 + c)


def odd_cycle_theta(n):
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


def alpha(n, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    comp = nx.complement(g)
    return max(len(c) for c in nx.find_cliques(comp)) if n else 0


def clique_cover_upper(n, edges):
    """Greedy colouring of the complement: an upper bound on the clique
    cover number, hence on theta."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    col = nx.greedy_color(nx.complement(g), strategy="largest_first")
    return 1 + max(col.values()) if n else 0


def colourable(n, edges, k):
    """Whether the graph has a proper k-colouring (backtracking)."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    colours = [-1] * n

    def place(v):
        if v == n:
            return True
        for c in range(k):
            if all(colours[u] != c for u in adj[v]):
                colours[v] = c
                if place(v + 1):
                    return True
        colours[v] = -1
        return False

    return place(0)


def seesaw_value(state, observables, correlators):
    """Value of a correlator expression on a pure state, each product
    symmetrised over orderings as in the seesaw objective."""
    psi = np.asarray(state, dtype=complex)
    total = 0.0
    for ms, c in correlators:
        acc = np.zeros_like(observables[0])
        perms = list(itertools.permutations(ms))
        for perm in perms:
            p = np.eye(observables[0].shape[0], dtype=complex)
            for m in perm:
                p = p @ observables[m]
            acc = acc + p
        total += float(c) * float((psi.conj() @ (acc / len(perms)) @ psi).real)
    return total
