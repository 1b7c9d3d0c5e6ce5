"""Finite-dimensional quantum models for measurement scenarios.

Covers behavior generation from states and (commuting-per-context)
measurements, dilation of POVMs to projective measurements on a larger
space, seesaw maximization of correlator inequalities over dichotomic
observables, and verification of state-independent witness sets, which
are checked once, when built, and hold what every SIC question reads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceFailure,
    InvalidModel,
    InvalidSet,
    NonCommutingContext,
    NotAPOVM,
    NotDichotomic,
    RankDeficiencyAmbiguous,
    SizeLimitExceeded,
)
from .polytope import DEFAULT_BUDGET, MEMORY_BUDGET, _int_terms, _scaled_maximum
from .scenario import (
    Behavior,
    Inequality,
    Scenario,
    _correlators,
    build_scenario,
    check_inequality,
    frac,
    frac_str,
)

__all__ = [
    "QuantumModel",
    "DilationResult",
    "SICSet",
    "SeesawResult",
    "SicReport",
    "quantum_behavior",
    "neumark_dilation",
    "seesaw_max",
    "verify_sic",
    "criticality_check",
    "remove_measurement",
    "observable_effects",
    "witness_operator",
    "random_state",
    "mat_to_json",
    "mat_from_json",
]

ATOL = 1e-10
SEESAW_FTOL = 1e-13
SIC_MARGIN = 1e-9  # a SIC witness's minimum must exceed its bound by more


# -- small dense linear algebra helpers ----------------------------------------

def herm(a):
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def eigh_sorted(a):
    """Ascending eigendecomposition of the Hermitian part (of each matrix
    of a stack)."""
    return np.linalg.eigh(herm(a))


def polar_sign(a):
    """Hermitian sign factor of a Hermitian operator (of each matrix of a
    stack): eigenvalues mapped to +-1 (zero goes to +1, which keeps the
    result deterministic)."""
    vals, vecs = eigh_sorted(a)
    signs = np.where(vals < 0.0, -1.0, 1.0)
    # signs[..., None, :] scales each matrix's columns by its own signs;
    # plain `vecs * signs` broadcasts without error for a stack of d
    # matrices of size d and pairs each matrix with another one's signs
    return (vecs * signs[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def random_state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def mat_to_json(a):
    a = np.asarray(a, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def mat_from_json(data):
    return np.array([[complex(re, im) for re, im in row] for row in data])


# -- models ---------------------------------------------------------------------

@dataclass
class QuantumModel:
    """State plus one effect list per scenario measurement."""

    dim: int
    state: np.ndarray            # (d,) pure vector or (d,d) density matrix
    effects: tuple               # per measurement: tuple of (d,d) effects
    pvm_flags: tuple = ()        # optional per-measurement PVM claim

    def density(self):
        s = np.asarray(self.state, dtype=complex)
        if s.ndim == 1:
            return np.outer(s, s.conj())
        return s

    def to_json(self, scenario):
        s = np.asarray(self.state, dtype=complex)
        kind = "pure" if s.ndim == 1 else "mixed"
        data = [[float(x.real), float(x.imag)] for x in s] if s.ndim == 1 else mat_to_json(s)
        return {
            "d": self.dim,
            "state": {"kind": kind, "data": data},
            "measurements": [
                {
                    "id": scenario.measurements[k],
                    "effects": [mat_to_json(e) for e in eff],
                    "pvm": bool(self.pvm_flags[k]) if self.pvm_flags else False,
                }
                for k, eff in enumerate(self.effects)
            ],
        }

    @classmethod
    def from_json(cls, data):
        d = int(data["d"])
        st = data["state"]
        if st["kind"] == "pure":
            state = np.array([complex(re, im) for re, im in st["data"]])
        else:
            state = mat_from_json(st["data"])
        effects = tuple(
            tuple(mat_from_json(e) for e in m["effects"]) for m in data["measurements"]
        )
        flags = tuple(bool(m.get("pvm", False)) for m in data["measurements"])
        return cls(d, state, effects, flags)


def _check_povm(effects, d, error, where=""):
    """Raise error, prefixing where, at the first failed POVM check at ATOL:
    each effect in turn is d x d and psd, then the effects sum to I."""
    total = np.zeros((d, d), dtype=complex)
    for e in effects:
        if e.shape != (d, d):
            raise error(f"{where}effect shape {e.shape} is not ({d}, {d})")
        if np.linalg.eigvalsh(herm(e))[0] < -ATOL:
            raise error(f"{where}effect has a negative eigenvalue")
        total += e
    if np.abs(total - np.eye(d)).max() > ATOL:
        raise error(f"{where}effects do not sum to the identity")


def validate_model(model, scenario):
    """Shape, positivity, completeness, PVM and edge-commutation checks."""
    d = model.dim
    rho = model.density()
    if rho.shape != (d, d):
        raise InvalidModel(f"state shape {rho.shape} does not match d={d}")
    if abs(np.trace(rho) - 1.0) > 1e-8 or np.linalg.eigvalsh(herm(rho))[0] < -1e-8:
        raise InvalidModel("state is not a unit-trace positive matrix")
    if len(model.effects) != len(scenario.measurements):
        raise InvalidModel("one effect list per scenario measurement required")
    for k, eff in enumerate(model.effects):
        if len(eff) != len(scenario.outcomes[k]):
            raise InvalidModel(
                f"measurement {k}: {len(eff)} effects for "
                f"{len(scenario.outcomes[k])} outcomes")
        _check_povm(eff, d, InvalidModel, f"measurement {k}: ")
        if model.pvm_flags and model.pvm_flags[k]:
            for a, ea in enumerate(eff):
                if np.abs(ea @ ea - ea).max() > ATOL:
                    raise InvalidModel(f"measurement {k}: effect {a} not idempotent")
                for eb in eff[a + 1:]:
                    if np.abs(ea @ eb).max() > ATOL:
                        raise InvalidModel(f"measurement {k}: projectors not orthogonal")
    for i, j in scenario.compat.edges:
        for ea in model.effects[i]:
            for eb in model.effects[j]:
                if np.abs(ea @ eb - eb @ ea).max() > ATOL:
                    raise NonCommutingContext(
                        f"effects of compatible measurements {i},{j} do not commute")


def quantum_behavior(model, scenario):
    """Joint probabilities per maximal context from commuting effects.

    P(a,b,...|ctx) = Tr(rho E_a E_b ...) with effects multiplied in
    ascending measurement-index order; commutation makes the order
    irrelevant, fixing it keeps results bit-reproducible.
    """
    validate_model(model, scenario)
    rho = model.density()
    label_index = scenario.label_index
    tables = {}
    for members, grid in zip(scenario.contexts, scenario.grids):
        tab = {}
        for asg in grid:
            op = rho
            for m, o in zip(members, asg):
                op = op @ model.effects[m][label_index[m][o]]
            p = float(np.trace(op).real)
            tab[asg] = 0.0 if abs(p) < 1e-15 else p
        tables[members] = tab
    return Behavior(scenario, "float", tables)


# -- Neumark dilation ------------------------------------------------------------

@dataclass
class DilationResult:
    isometry: np.ndarray        # (D, d), V^dagger V = I_d
    projectors: tuple           # per outcome, (D, D) orthogonal projectors
    blocks: tuple               # per outcome, (offset, rank)

    @property
    def dilated_dim(self):
        return self.isometry.shape[0]

    def outcome_probability(self, k, psi):
        w = self.isometry @ np.asarray(psi, dtype=complex)
        off, r = self.blocks[k]
        return float(np.linalg.norm(w[off:off + r]) ** 2)


def neumark_dilation(effects):
    """Dilate a POVM to a projective measurement on dimension sum-of-ranks.

    Row k of the isometry block for effect E is sqrt(lam) v^dagger over
    the eigenpairs of E with lam above threshold; the projectors select
    the blocks. Eigenvalues in the ambiguous band (1e-12, 1e-9) relative
    to the largest one raise RankDeficiencyAmbiguous rather than silently
    choosing a rank.
    """
    effects = [np.asarray(e, dtype=complex) for e in effects]
    if not effects:
        raise NotAPOVM("a POVM needs at least one effect")
    _check_povm(effects, effects[0].shape[0], NotAPOVM)

    rows = []
    blocks = []
    for e in effects:
        vals, vecs = eigh_sorted(e)
        top = float(vals[-1])
        if top <= 0.0:
            blocks.append((len(rows), 0))
            continue
        rel = vals / top
        if np.any((rel > 1e-12) & (rel < 1e-9)):
            raise RankDeficiencyAmbiguous(
                "effect eigenvalue in the ambiguous band (1e-12, 1e-9) of the max")
        keep = rel >= 1e-9
        off = len(rows)
        for lam, v in zip(vals[keep], vecs[:, keep].T):
            rows.append(np.sqrt(lam) * v.conj())
        blocks.append((off, int(keep.sum())))
    v_iso = np.array(rows)
    big = v_iso.shape[0]
    projectors = []
    for off, r in blocks:
        p = np.zeros((big, big), dtype=complex)
        for k in range(off, off + r):
            p[k, k] = 1.0
        projectors.append(p)
    return DilationResult(v_iso, tuple(projectors), tuple(blocks))


# -- seesaw maximization ----------------------------------------------------------

@dataclass
class SeesawResult:
    value: float
    model: QuantumModel
    converged: bool
    restarts: int
    iterations: int

    def to_json(self, scenario):
        return {
            "value": self.value,
            "converged": self.converged,
            "restarts": self.restarts,
            "iterations": self.iterations,
            "model": self.model.to_json(scenario),
        }


def _sym_product(mats):
    """Average of the operator product over all orderings."""
    if len(mats) == 1:
        return mats[0]
    acc = np.zeros_like(mats[0])
    for perm in itertools.permutations(mats):
        p = perm[0]
        for m in perm[1:]:
            p = p @ m
        acc = acc + p
    return acc / math.factorial(len(mats))


class _Terms(NamedTuple):
    """The correlator expansion held for the seesaw kernels: the constant,
    the single-measurement coefficients, the symmetric pair matrix C (zero
    diagonal; C[i, j] is the coefficient of Sym(M_i M_j)), the terms of 3 or
    more members, and the colour classes of the term graph."""

    const: float
    linear: np.ndarray
    pairs: np.ndarray
    higher: tuple
    classes: tuple


def _colour_classes(keys, n_meas):
    """Greedy colouring, in index order, of the term graph: measurements
    are adjacent when one term holds both. Returns the classes as index
    arrays; no term has two members in one class."""
    colour = []
    for m in range(n_meas):
        used = {colour[j] for members in keys if m in members for j in members if j < m}
        colour.append(min(set(range(len(used) + 1)) - used))
    colour = np.array(colour, dtype=int)
    return tuple(np.flatnonzero(colour == c) for c in range(colour.max(initial=-1) + 1))


def _split_terms(subsets, const, n_meas):
    linear = np.zeros(n_meas)
    pairs = np.zeros((n_meas, n_meas), dtype=complex)
    higher = []
    for members, coef in subsets.items():
        if len(members) == 1:
            linear[members[0]] += coef
        elif len(members) == 2:
            pairs[members] += coef
            pairs[members[::-1]] += coef
        else:
            higher.append((members, coef))
    return _Terms(const, linear, pairs, tuple(higher), _colour_classes(subsets, n_meas))


def _objective(terms, obs):
    """Objective operator of each restart, from its (R, n, d, d) stack of
    observables: const + sum_m a_m M_m + 1/2 sum_s M_s N_s, N = C M, plus
    the symmetrized products of the larger terms."""
    r, n_meas, dim, _ = obs.shape
    flat = obs.reshape(r, n_meas, dim * dim)
    n_mat = (terms.pairs @ flat).reshape(obs.shape)
    b = (0.5 * (obs @ n_mat).sum(axis=1) + (terms.linear @ flat).reshape(r, dim, dim)
         + terms.const * np.eye(dim))
    for members, coef in terms.higher:
        b = b + coef * _sym_product([obs[:, m] for m in members])
    return b


def _class_operator(terms, obs, rho, cls):
    """(R, |cls|, d, d) stack of F_t, t in cls: Tr(M_t F_t) is the part of
    the objective linear in M_t under the states rho (R, d, d).

    Pair terms give 1/2 (rho N_t + N_t rho) and single terms a_t rho.
    Tr(rho pre M_t post) = Tr(M_t post rho pre), and over the orderings of
    a larger term S containing t, post rho pre runs once through every
    ordering of rho with the other members, so S adds c_S Sym(rho, M_{S-t}).
    No term holds two members of a class, so no F_t reads another."""
    r, n_meas, dim, _ = obs.shape
    n_cls = (terms.pairs[cls] @ obs.reshape(r, n_meas, dim * dim)).reshape(r, len(cls), dim, dim)
    rho = rho[:, None]
    f = 0.5 * (rho @ n_cls + n_cls @ rho) + terms.linear[cls, None, None] * rho
    for k, t in enumerate(cls):
        for members, coef in terms.higher:
            if t in members:
                others = [obs[:, m] for m in members if m != t]
                f[:, k] += coef * _sym_product([rho[:, 0], *others])
    return f


def _require_dichotomic(scenario):
    for mid, outs in zip(scenario.measurements, scenario.outcomes):
        if set(outs) != {1, -1}:
            raise NotDichotomic(f"measurement {mid} has outcomes {list(outs)}, "
                                "not the +-1 of an observable")


def _random_observables(dim, rng, count):
    """(count, d, d) stack of random +-1 observables with both signs, drawn
    one after another from rng and orthonormalized by one stacked QR."""
    g = np.empty((count, dim, dim), dtype=complex)
    signs = np.empty((count, dim))
    for k in range(count):
        g[k] = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        signs[k] = rng.integers(0, 2, size=dim) * 2.0 - 1.0
    signs[(signs == signs[:, :1]).all(axis=1), 0] *= -1.0
    q, _ = np.linalg.qr(g)
    return herm((q * signs[:, None, :]) @ q.conj().swapaxes(-1, -2))


def seesaw_max(inequality, scenario, dim, restarts=20, iters=300, seed=0):
    """Alternating maximization of a correlator inequality over dichotomic
    observables and a pure state of the given dimension.

    The terms are checked before every guard (ScenarioMismatch) and
    expanded into products of +-1 observables (raising NotDichotomic if
    any measurement is not +-1 valued); products are fully symmetrized so
    the objective stays Hermitian off the commuting manifold (the
    orderings are closed under reversal). State updates
    take the top eigenvector of the objective operator, observable
    updates the polar sign of the effective operator F_t, whose trace
    with M_t is the part of the objective linear in M_t (_class_operator).

    The observables update by the colour classes of the term graph
    (measurements adjacent when one term holds both, coloured greedily in
    index order: 2 classes for even cycles and CHSH, 3 for odd cycles). No
    term holds two members of a class, so the objective is separately
    linear in each member and one polar sign per member, all taken at
    once, is the exact maximizer over the whole class. Every update is an
    exact block maximizer, so the value is monotone within a run; a drop
    by more than 1e-9 raises ConvergenceFailure.

    The restarts are independent and run as one stack: every restart's
    starting observables are drawn up front (restart by restart, so the
    random stream is that of running them one after another), and each
    step is one stacked eigendecomposition of the objective and one
    stacked polar sign per class, over its members and the live restarts.
    A restart leaves the stack when its value moves by at most SEESAW_FTOL
    relative to 1 + |value|; iterations sums the restarts' steps. The
    best value over all restarts (the first restart reaching it gives the
    model) is a lower bound on the quantum maximum. The model's effects
    follow the scenario's outcome order: outcome l of observable M gets
    (I + l M)/2. A stack of more than polytope.MEMORY_BUDGET entries
    (measurements x restarts x dim^2) raises SizeLimitExceeded before it
    is allocated.
    """
    checked = check_inequality(scenario, inequality)
    _require_dichotomic(scenario)
    if dim < 2:
        raise InvalidModel("dim must be >= 2")
    if restarts < 1:
        raise InvalidModel("restarts must be >= 1")
    n_meas = len(scenario.measurements)
    if n_meas * restarts * dim * dim > MEMORY_BUDGET:
        raise SizeLimitExceeded(
            f"{restarts} restarts of {n_meas} observables of dimension {dim} exceed "
            f"the budget of {MEMORY_BUDGET} stored entries")
    subsets, const = _correlators(scenario, checked)
    terms = _split_terms({k: float(v) for k, v in subsets.items()}, float(const), n_meas)
    rng = np.random.default_rng(seed)

    # (R, n, d, d): every restart's observables, drawn restart by restart;
    # `obs` holds the live restarts' rows, `final` gets a row when its
    # restart leaves
    final = _random_observables(dim, rng, restarts * n_meas).reshape(
        restarts, n_meas, dim, dim)
    obs = final.copy()
    live = np.arange(restarts)
    prev = np.full(restarts, -np.inf)
    converged = np.zeros(restarts, dtype=bool)
    total_iters = 0

    for _ in range(iters):
        if not live.size:
            break
        total_iters += live.size
        vals, vecs = eigh_sorted(_objective(terms, obs))
        state = vecs[..., -1]
        rho = state[:, :, None] * state.conj()[:, None, :]
        for cls in terms.classes:
            obs[:, cls] = polar_sign(_class_operator(terms, obs, rho, cls))
        val = vals[:, -1]
        if np.any(val < prev - 1e-9):
            raise ConvergenceFailure("seesaw lost monotonicity")
        done = np.abs(val - prev) <= SEESAW_FTOL * (1.0 + np.abs(val))
        prev = val
        if done.any():
            converged[live[done]] = True
            final[live[done]] = obs[done]
            obs, live, prev = obs[~done], live[~done], prev[~done]
    final[live] = obs

    vals, vecs = eigh_sorted(_objective(terms, final))
    best = int(np.argmax(vals[:, -1]))
    effects = tuple(
        tuple(0.5 * (np.eye(dim) + label * o) for label in outs)
        for o, outs in zip(final[best], scenario.outcomes)
    )
    model = QuantumModel(dim, vecs[best, :, -1], effects)
    return SeesawResult(float(vals[best, -1]), model, bool(converged[best]),
                        restarts, total_iters)


# -- state-independent witness sets ------------------------------------------------

@dataclass(frozen=True)
class SICSet:
    """Measurements claimed to witness contextuality for every state,
    checked once, when built: dim >= 3 and embedded in range (InvalidSet),
    the effects (validate_model: one list per measurement, POVMs, commuting
    when compatible) and the witness's terms (check_inequality). Every SIC
    question reads what is derived then: the witness's canonical terms,
    classical (NCHV) bound mu, operator W and q = Tr(W)/d. The witness is
    stored at bound mu (the bound it came with is not kept). Sets are equal
    when their fields are, the effect matrices entry for entry."""

    dim: int
    scenario: Scenario
    effects: tuple               # per measurement, per outcome effects
    witness: Inequality
    embedded: tuple | None = None  # contextual subset driving the Bell lift
                                   # (None means the whole set)
    mu: Fraction = field(init=False)
    q: float = field(init=False)
    terms: list = field(init=False, repr=False, compare=False)
    operator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 3:
            raise InvalidSet("state-independent witness sets need dimension >= 3")
        validate_model(QuantumModel(self.dim, np.eye(self.dim) / self.dim, self.effects),
                       self.scenario)
        terms = check_inequality(self.scenario, self.witness)
        if not all(0 <= m < len(self.scenario.measurements) for m in self.embedded or ()):
            raise InvalidSet(f"embedded {self.embedded} names no measurement of the set")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "operator", _operator(self.dim, self.effects, terms))
        object.__setattr__(self, "q", float(np.trace(self.operator).real) / self.dim)
        object.__setattr__(self, "mu", _scaled_maximum(
            self.scenario.radices, *_int_terms(terms), DEFAULT_BUDGET))
        object.__setattr__(self, "witness", replace(self.witness, bound=self.mu))

    def __eq__(self, other):
        if not isinstance(other, SICSet):
            return NotImplemented
        return ((self.dim, self.scenario, self.witness, self.embedded)
                == (other.dim, other.scenario, other.witness, other.embedded)
                and all(np.array_equal(a, b) for ea, eb in zip(self.effects, other.effects)
                        for a, b in zip(ea, eb)))

    def to_json(self):
        return {
            "d": self.dim,
            "scenario": self.scenario.to_json(),
            "measurements": [
                {
                    "id": self.scenario.measurements[k],
                    "effects": [mat_to_json(e) for e in eff],
                }
                for k, eff in enumerate(self.effects)
            ],
            "witness": self.witness.to_json(self.scenario),
            "mu": frac_str(self.mu),
            "q": self.q,
        }

    @classmethod
    def from_json(cls, data):
        """The set stored by to_json, built (and so checked) from its
        dimension, scenario, effects and witness; a stored mu, witness
        bound or q other than the derived one raises InvalidSet."""
        scenario = Scenario.from_json(data["scenario"])
        effects = tuple(
            tuple(mat_from_json(e) for e in m["effects"])
            for m in data["measurements"]
        )
        witness = Inequality.from_json(scenario, data["witness"])
        sic = cls(int(data["d"]), scenario, effects, witness)
        mu, q = frac(data["mu"]), float(data["q"])
        for name, value in (("mu", mu), ("witness bound", witness.bound)):
            if value != sic.mu:
                raise InvalidSet(f"stored {name} {frac_str(value)} is not the witness's "
                                 f"classical bound {frac_str(sic.mu)}")
        if abs(q - sic.q) > 1e-9:
            raise InvalidSet(f"stored q {q} differs from Tr(W)/d = {sic.q}")
        return sic


def observable_effects(observable):
    """Effects (E_+, E_-) of a +-1 observable (Hermitian involution)."""
    m = np.asarray(observable, dtype=complex)
    if np.abs(m @ m - np.eye(m.shape[0])).max() > 1e-9:
        raise InvalidModel("observable is not an involution")
    eye = np.eye(m.shape[0])
    return (0.5 * (eye + m), 0.5 * (eye - m))


def witness_operator(sic_set):
    """A copy of the set's witness operator W, computed when it was built."""
    return sic_set.operator.copy()


def _operator(d, effects, terms):
    """Sum of coef times the (commuting) product of the effects selected
    by each of check_inequality's canonical terms."""
    w = np.zeros((d, d), dtype=complex)
    for members, outs, coef in terms:
        op = np.eye(d, dtype=complex)
        for m, o in zip(members, outs):
            op = op @ effects[m][o]
        w = w + float(coef) * op
    return herm(w)


@dataclass
class SicReport:
    is_sic: bool
    q_estimate: float                 # Tr(W)/d
    identity_deviation: float         # ||W - q I||_F
    min_eigenvalue: float
    sample_min: float | None          # None when no state was sampled
    mu: Fraction

    def to_json(self):
        return {
            "is_sic": self.is_sic,
            "q_estimate": self.q_estimate,
            "identity_deviation": self.identity_deviation,
            "min_eigenvalue": self.min_eigenvalue,
            "sample_min": self.sample_min,
            "mu": frac_str(self.mu),
        }


def verify_sic(sic_set, sample_states=100, seed=0):
    """State-independence diagnostics read off the set's W, q and mu.

    Two diagnostics are reported separately: the deviation of W from
    q times the identity, and its minimum eigenvalue (the exact minimum
    of the witness value over states). The verdict requires the minimum
    over states to exceed the classical bound mu by more than SIC_MARGIN.
    """
    w, d, q = sic_set.operator, sic_set.dim, sic_set.q
    dev = float(np.linalg.norm(w - q * np.eye(d)))
    lam_min = float(np.linalg.eigvalsh(w)[0])
    rng = np.random.default_rng(seed)
    psis = (random_state(d, rng) for _ in range(sample_states))
    sample_min = min((float((psi.conj() @ w @ psi).real) for psi in psis), default=None)
    is_sic = lam_min > float(sic_set.mu) + SIC_MARGIN
    return SicReport(is_sic, q, dev, lam_min, sample_min, sic_set.mu)


def remove_measurement(sic_set, index):
    """The witness set with one measurement deleted: the witness terms that
    involve it are dropped (the removal rule of criticality_check), and the
    set is restricted to the induced scenario, where the new set derives
    the witness's classical bound mu exactly, once, and stores the witness
    at it; it equals the bound on the full scenario."""
    s, witness = sic_set.scenario, sic_set.witness
    keep = [m for m in range(len(s.measurements)) if m != index]
    remap = {m: k for k, m in enumerate(keep)}
    edges = [(remap[i], remap[j]) for i, j in s.compat.edges if index not in (i, j)]
    reduced = build_scenario([s.measurements[m] for m in keep],
                             [s.outcomes[m] for m in keep], edges)
    terms = tuple((tuple(remap[m] for m in members), asg, coef)
                  for members, asg, coef in witness.terms if index not in members)
    witness = Inequality(terms, 0, witness.kind, witness.label + f"-minus-{s.measurements[index]}")
    return SICSet(sic_set.dim, reduced, tuple(sic_set.effects[m] for m in keep), witness)


def criticality_check(sic_set, sample_states=50, seed=0):
    """Per-element effect of removal on the SIC property.

    Returns (critical, breaks) where breaks[k] is True when deleting
    measurement k destroys the SIC property; the set is critical when
    every removal does. Only the full set goes through verify_sic and its
    state sampling. Removing k keeps the set's canonical terms (checked
    when it was built) that do not involve k, on the same scenario; that
    breaks the set when none is left, or when the exact minimum
    (eigenvalue) of their operator is not above their classical bound by
    more than SIC_MARGIN, both read off the kept terms.
    """
    base = verify_sic(sic_set, sample_states=sample_states, seed=seed)
    if not base.is_sic:
        raise InvalidSet("the full set is not a SIC set")
    s = sic_set.scenario
    breaks = []
    for k in range(len(s.measurements)):
        kept = [t for t in sic_set.terms if k not in t[0]]
        if kept:
            low = np.linalg.eigvalsh(_operator(sic_set.dim, sic_set.effects, kept))[0]
            mu = _scaled_maximum(s.radices, *_int_terms(kept), DEFAULT_BUDGET)
        breaks.append(not kept or float(low) <= float(mu) + SIC_MARGIN)
    return all(breaks), breaks
