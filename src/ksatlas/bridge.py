"""Conversions between Bell scenarios and KS contextuality scenarios.

Implements the arrows of the connection map: the identity lift from Bell
to KS (same measurements, outcomes and compatibility), the distribution
of a multipartite KS scenario among spatially separated parties (which
completes the compatibility graph and may cost tightness), the canned
examples used throughout (hexagon with its six-term witness, n-cycles,
CHSH, the two-qubit Peres-Mermin square), and the lift of a
state-independent witness set to a bipartite Bell inequality. The lift
is built from the witness's canonical terms as integer index terms over
one scale, and one elimination of them gives its local bound; only the
reported expression is written with outcome labels and Fractions.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    InvalidPartition,
    NotABellScenario,
    SicVerificationFailed,
    TooSmall,
    UndersizedPart,
)
from .graphs import (
    Partition,
    enumerate_n_partitions,
    is_complete_n_partite,
)
from .polytope import (
    DEFAULT_BUDGET,
    _eliminate,
    _face_verdict,
    _scaled_maximum,
    classical_bound,
    tightness_test,
)
from .quantum import (
    QuantumModel,
    SICSet,
    _operator,
    _require_dichotomic,
    observable_effects,
    seesaw_max,
    verify_sic,
)
from .scenario import (
    Inequality,
    Scenario,
    _correlators,
    build_scenario,
    correlator_inequality,
    frac_str,
)

__all__ = [
    "MappingReport",
    "SicBellReport",
    "PearleExample",
    "bell_to_ks",
    "ks_to_bell",
    "pearle_hexagon",
    "n_cycle",
    "n_cycle_quantum_model",
    "chsh_example",
    "pm_square",
    "sic_to_bell",
    "map_report",
]

PARTY_LETTERS = string.ascii_uppercase


@dataclass
class MappingReport:
    direction: str               # "bell-to-ks" or "ks-to-bell"
    connection: str              # "one-to-one", "partial" or "generic-lift"
    source_scenario: Scenario
    source_inequality: Inequality
    source_tightness: object      # TightnessReport; its maximum is the bound
    target_scenario: Scenario | None = None
    target_inequality: Inequality | None = None
    target_tightness: object | None = None
    partition: Partition | None = None
    source_quantum: float | None = None
    target_quantum: float | None = None
    quantum_method: str = ""
    notes: tuple = ()

    @property
    def source_bound(self):
        return self.source_tightness.classical_bound

    @property
    def target_bound(self):
        if self.target_tightness is not None:
            return self.target_tightness.classical_bound

    @property
    def bound_preserved(self):
        if self.target_tightness is not None:
            return self.source_bound == self.target_bound

    @property
    def tightness_preserved(self):
        if self.target_tightness is not None:
            return self.source_tightness.verdict == self.target_tightness.verdict

    def to_json(self):
        out = {
            "direction": self.direction,
            "connection": self.connection,
            "source": {
                "scenario": self.source_scenario.to_json(),
                "inequality": self.source_inequality.to_json(self.source_scenario),
            },
            "notes": list(self.notes),
        }
        if self.target_scenario is not None:
            out["target"] = {
                "scenario": self.target_scenario.to_json(),
                "inequality": self.target_inequality.to_json(self.target_scenario),
            }
        out["source_bound"] = frac_str(self.source_bound)
        if self.target_tightness is not None:
            out["target_bound"] = frac_str(self.target_bound)
            out["bound_preserved"] = self.bound_preserved
        out["source_tightness"] = self.source_tightness.to_json()
        if self.target_tightness is not None:
            out["target_tightness"] = self.target_tightness.to_json()
            out["tightness_preserved"] = self.tightness_preserved
        if self.partition is not None:
            out["partition"] = self.partition.to_json()
        if self.source_quantum is not None:
            out["quantum"] = {
                "source": self.source_quantum,
                "target": self.target_quantum,
                "method": self.quantum_method,
            }
        return out


def _bell_partition(graph):
    """The parties of a Bell compatibility graph (complete n-partite, with
    n >= 2 parts of >= 2 measurements each), or None for any other graph."""
    p = is_complete_n_partite(graph)
    return p if p is not None and p.n_parts >= 2 and not p.undersized_parts() else None


def bell_to_ks(scenario, inequality, budget=DEFAULT_BUDGET):
    """Identity lift: a Bell inequality read as a KS non-contextuality
    inequality on the scenario with the same measurements, outcomes and
    compatibility. Both sides share terms, scenario and bound, so one
    tightness test gives the verdict and, as its elimination maximum,
    the classical bound of both."""
    partition = _bell_partition(scenario.compat)
    if partition is None:
        raise NotABellScenario("compatibility graph is not complete n-partite "
                               "with >= 2 parties of >= 2 measurements each")
    target_ineq = replace(inequality, kind="NCHV")
    tight = tightness_test(inequality, scenario, budget=budget)
    return MappingReport(
        direction="bell-to-ks",
        connection="one-to-one",
        source_scenario=scenario,
        source_inequality=inequality,
        source_tightness=tight,
        target_scenario=scenario,
        target_inequality=target_ineq,
        target_tightness=tight,
        partition=partition,
    )


def _party_closure(scenario, partition):
    """The Bell scenario of a party partition of the measurements: the
    complete n-partite closure of the compatibility graph over the parts,
    with party-prefixed identifiers. When the scenario already is its
    closure, the scenario itself is returned. The partition must be valid
    (InvalidPartition, UndersizedPart otherwise)."""
    n = len(scenario.measurements)
    seen = set()
    for part in partition.parts:
        for m in part:
            if not (0 <= m < n) or m in seen:
                raise InvalidPartition(f"partition does not partition 0..{n-1}")
            seen.add(m)
        for a in part:
            for b in part:
                if a < b and scenario.compat.has_edge(a, b):
                    raise InvalidPartition(
                        f"part {part} is not independent: edge ({a},{b})")
    if len(seen) != n:
        raise InvalidPartition("partition misses some measurements")
    if partition.undersized_parts():
        raise UndersizedPart(
            "every party needs at least two (incompatible) measurements")
    part_of = {m: k for k, part in enumerate(partition.parts) for m in part}
    closure_edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if part_of[i] != part_of[j]
    )
    if set(closure_edges) == set(scenario.compat.edges):
        return scenario
    ids = [f"{PARTY_LETTERS[part_of[m]]}_{scenario.measurements[m]}" for m in range(n)]
    return build_scenario(ids, scenario.outcomes, closure_edges)


def ks_to_bell(scenario, inequality, partition, budget=DEFAULT_BUDGET):
    """Distribute the measurements of a multipartite KS scenario among
    spatially separated parties.

    The target compatibility graph is the complete n-partite closure over
    the parts (space-like separation makes all cross-party pairs
    compatible). Inequality terms are carried verbatim, and measurements
    and outcomes are unchanged, so every deterministic assignment of the
    source is one of the target and gives the same value: the classical
    bound depends only on the outcome counts and the terms (the graph only
    decides which terms are valid, and the closure keeps every source
    context). The target inequality therefore sits at the source's
    elimination maximum, and the source's maximizers are the target's
    face; only its rank is computed again, on the target's contexts,
    whose polytope differs. When the source is already complete n-partite
    the map is the identity (ids included) and the source verdict is
    reused; otherwise measurements get party-prefixed identifiers.
    """
    target = _party_closure(scenario, partition)
    identity = target is scenario
    max_val, elimination = _eliminate(inequality, scenario, budget)
    src_tight = _face_verdict(inequality, scenario, max_val, elimination, budget)
    # indices unchanged, only ids renamed
    target_ineq = Inequality(inequality.terms, max_val, "LR", inequality.label)
    if identity and max_val == inequality.bound:
        tgt_tight = src_tight
    else:
        # same terms and outcome counts: the source's elimination is the
        # target's, and only the face walk sees the target's contexts
        tgt_tight = _face_verdict(target_ineq, target, max_val, elimination, budget)
    return MappingReport(
        direction="ks-to-bell",
        connection="one-to-one" if identity else "partial",
        source_scenario=scenario,
        source_inequality=inequality,
        source_tightness=src_tight,
        target_scenario=target,
        target_inequality=target_ineq,
        target_tightness=tgt_tight,
        partition=partition,
    )


# -- canned examples -----------------------------------------------------------

def n_cycle(n):
    """n dichotomic measurements on a cycle with the chained correlator
    expression; the classical bound is computed, not hardcoded."""
    if n < 4:
        raise TooSmall("the cycle family starts at n = 4")
    scenario = build_scenario(
        [f"M{i+1}" for i in range(n)], [2] * n,
        [(i, (i + 1) % n) for i in range(n)],
    )
    correlators = [((i, i + 1), 1) for i in range(n - 1)] + [((n - 1, 0), -1)]
    probe = correlator_inequality(scenario, correlators, 0, "NCHV", f"cycle-{n}")
    return scenario, replace(probe, bound=classical_bound(probe, scenario))


def n_cycle_quantum_model(n):
    """Closed-form maximizer for even cycles: odd measurements act on the
    first qubit, even ones on the second, at angles spaced pi/n, on the
    maximally entangled two-qubit state. Reaches n cos(pi/n)."""
    if n < 4 or n % 2:
        raise TooSmall("closed-form cycle models exist for even n >= 4")

    eye = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)

    def rot(theta):
        return np.cos(theta) * z + np.sin(theta) * x

    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    effects = []
    for i in range(n):
        theta = -i * np.pi / n
        local = rot(theta)
        obs = np.kron(local, eye) if i % 2 == 0 else np.kron(eye, local.T)
        effects.append(observable_effects(obs))
    return QuantumModel(4, phi, tuple(effects))


def pearle_hexagon():
    """The hexagon scenario, its six-correlator witness with bound 4, the
    odd/even bipartition, and the Bell inequality it maps to: the same terms
    on the party closure, at the witness's elimination maximum (where
    ks_to_bell places them), so no map has to run."""
    scenario, gamma = n_cycle(6)
    partition = Partition(((0, 2, 4), (1, 3, 5)))
    return PearleExample(
        scenario=scenario,
        gamma=gamma,
        partition=partition,
        bell_scenario=_party_closure(scenario, partition),
        gamma_prime=Inequality(gamma.terms, gamma.bound, "LR", gamma.label),
    )


@dataclass(frozen=True)
class PearleExample:
    scenario: Scenario
    gamma: Inequality
    partition: Partition
    bell_scenario: Scenario
    gamma_prime: Inequality


def chsh_example():
    """The two-party two-setting scenario and its facet inequality."""
    scenario = build_scenario(
        ["A1", "A2", "B1", "B2"], [2] * 4,
        [(0, 2), (0, 3), (1, 2), (1, 3)],
    )
    correlators = [((0, 2), 1), ((0, 3), 1), ((1, 2), 1), ((1, 3), -1)]
    probe = correlator_inequality(scenario, correlators, 0, "LR", "chsh")
    return scenario, replace(probe, bound=classical_bound(probe, scenario))


def pm_square():
    """The two-qubit Peres-Mermin square as a critical SIC set.

    Nine dichotomic observables whose commutation graph has the six
    row/column contexts; the witness adds the six context correlators
    with the sign of the corresponding operator product, so its operator
    form is 6 times the identity while the classical bound is 4, which
    the set derives once (the witness is built at bound 0).
    """
    eye = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    grid = [
        ("A11", np.kron(z, eye)), ("A12", np.kron(eye, z)), ("A13", np.kron(z, z)),
        ("A21", np.kron(eye, x)), ("A22", np.kron(x, eye)), ("A23", np.kron(x, x)),
        ("A31", np.kron(z, x)), ("A32", np.kron(x, z)), ("A33", np.kron(y, y)),
    ]
    ids = [g[0] for g in grid]
    mats = [g[1] for g in grid]
    edges = [
        (i, j) for i in range(9) for j in range(i + 1, 9)
        if np.abs(mats[i] @ mats[j] - mats[j] @ mats[i]).max() < 1e-12
    ]
    scenario = build_scenario(ids, [2] * 9, edges)
    correlators = []
    for ctx in scenario.contexts:
        prod = np.eye(4, dtype=complex)
        for m in ctx:
            prod = prod @ mats[m]
        sign = 1 if prod[0, 0].real > 0 else -1
        correlators.append((ctx, sign))
    witness = correlator_inequality(scenario, correlators, 0, "NCHV", "pm-witness")
    return SICSet(4, scenario, tuple(observable_effects(m) for m in mats), witness)


# -- SIC set to bipartite Bell -----------------------------------------------------

@dataclass
class SicBellReport:
    scenario: Scenario
    inequality: Inequality        # lifted Bell expression, bound = exact local bound
    mu: Fraction
    constant: Fraction            # additive constant dropped from the expression
    quantum_value: float          # on the maximally entangled state
    removal_violations: tuple     # (measurement id, violation after removal)

    @property
    def local_bound(self):
        return self.inequality.bound

    @property
    def local_bound_matches_mu(self):
        return self.local_bound + self.constant == self.mu

    @property
    def violation(self):
        return self.quantum_value - float(self.local_bound)

    def to_json(self):
        return {
            "scenario": self.scenario.to_json(),
            "inequality": self.inequality.to_json(self.scenario),
            "local_bound": frac_str(self.local_bound),
            "mu": frac_str(self.mu),
            "local_bound_matches_mu": self.local_bound_matches_mu,
            "constant": frac_str(self.constant),
            "quantum_value": self.quantum_value,
            "violation": self.violation,
            "removals": [
                {"removed": mid, "violation": v} for mid, v in self.removal_violations
            ],
        }


def _lift_terms(s, checked):
    """The lift of a witness's canonical terms (not checked again) on the
    dichotomic scenario s as integer index terms over one scale.

    For every correlator subset T of the witness (coefficient c_T) and
    every j in T, Alice jointly measures T and contributes the product of
    her outcomes except the one for j, while Bob measures the transposed
    partner observable of j; on the maximally entangled state each such
    term reproduces the witness correlator, so their |T|-average restores
    the witness value q (minus the constant term, which is returned
    separately). Alice's setting k is the k-th subset in sorted order, with
    the 2^|T| joint outcomes in itertools.product order over (+1, -1), and
    Bob's settings follow hers, one per measurement in a subset, outcomes
    (+1, -1); the radices are read from that encoding. Every term's
    coefficient c_T/|T| * (+-1) is an integer over the common scale
    L = lcm over T of den(c_T) * |T|.

    Returns (alice subsets, Bob's measurements, radices, terms, L,
    constant), each term (setting pair, outcome index pair, integer
    coefficient).
    """
    subsets, const = _correlators(s, checked)
    if not subsets:
        raise SicVerificationFailed("witness has no correlator content")
    alice_settings = sorted(subsets)           # tuples of measurement indices
    bob_meas = sorted({m for t in subsets for m in t})
    bob_setting = {m: len(alice_settings) + k for k, m in enumerate(bob_meas)}
    radices = [1 << len(t) for t in alice_settings] + [2] * len(bob_meas)
    scale = math.lcm(*(subsets[t].denominator * len(t) for t in alice_settings))
    terms = []
    for ti, t in enumerate(alice_settings):
        c, k = subsets[t], len(t)
        w = c.numerator * (scale // (c.denominator * k))
        for pos, j in enumerate(t):
            pair = (ti, bob_setting[j])
            own = 1 << (k - 1 - pos)  # the bit of j's outcome (set: -1)
            for a in range(1 << k):
                v = -w if (a & ~own).bit_count() & 1 else w
                terms.append((pair, (a, 0), v))
                terms.append((pair, (a, 1), -v))
    return alice_settings, bob_meas, radices, terms, scale, const


def _lift_once(s, checked, budget):
    """The bipartite Bell scenario of the lift (_lift_terms) of one
    witness's canonical terms and its expression at the exact local
    bound: one elimination of the integer terms gives the bound, and the
    scenario's outcome labels write the same terms as the expression.
    Returns (scenario, inequality, constant)."""
    alice_settings, bob_meas, radices, terms, scale, const = _lift_terms(s, checked)
    bound = _scaled_maximum(radices, terms, scale, budget)
    alice_ids = ["A(" + "&".join(s.measurements[m] for m in t) + ")"
                 for t in alice_settings]
    bob_ids = ["B(" + s.measurements[m] + ")" for m in bob_meas]
    alice_outcomes = [
        tuple("".join("+" if o == 1 else "-" for o in asg)
              for asg in itertools.product((1, -1), repeat=len(t)))
        for t in alice_settings
    ]
    n_a = len(alice_settings)
    edges = [(i, n_a + j) for i in range(n_a) for j in range(len(bob_meas))]
    bell = build_scenario(alice_ids + bob_ids,
                          alice_outcomes + [(1, -1)] * len(bob_meas), edges)
    out = bell.outcomes
    labelled = tuple(((a, b), (out[a][x], out[b][y]), Fraction(v, scale))
                     for (a, b), (x, y), v in terms)
    return bell, Inequality(labelled, bound, "LR", "sic-lift"), const


def sic_to_bell(sic_set, budget=DEFAULT_BUDGET):
    """Lift a verified SIC set to a bipartite Bell inequality.

    The local bound is computed exactly on the lifted scenario. The
    quantum value is that of the two-qudit maximally entangled state,
    where <Phi| A (x) B^T |Phi> = Tr(AB)/d: compatible effects commute
    in a SICSet, so each lifted term of a correlator subset T reads
    Tr(prod over T of A_m)/d and the lifted value is q minus the constant
    term that the lift drops. A local bound other than mu is reported and
    flagged, not hidden. The set's canonical terms feed the lift and every
    removal: removing a measurement m of the embedded contextual subset
    keeps the terms without m, lifted on the same measurements (m gets no
    setting), and reports the residual violation Tr(W_m)/d minus the
    dropped constant minus the local bound, with no check, scenario or
    expression made for it.
    """
    rep = verify_sic(sic_set, sample_states=0)
    if not rep.is_sic:
        raise SicVerificationFailed(
            f"not a SIC set: min witness value {rep.min_eigenvalue} "
            f"vs bound {sic_set.mu}")
    s = sic_set.scenario
    _require_dichotomic(s)
    bell, lifted, const = _lift_once(s, sic_set.terms, budget)

    removals = []
    for m in sic_set.embedded or range(len(s.measurements)):
        kept = [t for t in sic_set.terms if m not in t[0]]
        if not kept:
            removals.append((s.measurements[m], 0.0))
            continue
        _, _, radices, lift, scale, const_m = _lift_terms(s, kept)
        bound_m = _scaled_maximum(radices, lift, scale, budget)
        q_m = float(np.trace(_operator(sic_set.dim, sic_set.effects, kept)).real)
        removals.append((s.measurements[m],
                         q_m / sic_set.dim - float(const_m) - float(bound_m)))

    return SicBellReport(
        scenario=bell,
        inequality=lifted,
        mu=sic_set.mu,
        constant=const,
        quantum_value=rep.q_estimate - float(const),
        removal_violations=tuple(removals),
    )


# -- end-to-end driver ---------------------------------------------------------

def _first_valid_partition(graph):
    """Lexicographically smallest partition into >= 2 parts of size >= 2."""
    for n_parts in range(2, graph.n // 2 + 1):
        for part in enumerate_n_partitions(graph, n_parts):
            if not part.undersized_parts():
                return part
    return None


def map_report(scenario, inequality, partition=None, with_quantum=False,
               dim=2, restarts=8, seed=0, budget=DEFAULT_BUDGET):
    """Detect the applicable arrow for the scenario and run it.

    Complete n-partite compatibility gives the one-to-one connection (run
    in the direction matching the inequality's bound kind); other
    n-partite graphs with >= 2 measurements per part give the partial
    connection via the lexicographically smallest valid partition; when
    no such partition exists only the generic witness-set lift applies,
    which needs a SIC set rather than a bare inequality and is therefore
    only reported. A given partition is checked even where the scenario's
    own parties are used (InvalidPartition, UndersizedPart).
    """
    cnp = _bell_partition(scenario.compat)
    if cnp is not None:
        if partition is not None:
            _party_closure(scenario, partition)
        if inequality.kind == "LR":
            report = bell_to_ks(scenario, inequality, budget=budget)
        else:
            report = ks_to_bell(scenario, inequality, cnp, budget=budget)
    else:
        part = partition or _first_valid_partition(scenario.compat)
        if part is None:
            return MappingReport(
                direction="ks-to-bell",
                connection="generic-lift",
                source_scenario=scenario,
                source_inequality=inequality,
                source_tightness=tightness_test(inequality, scenario, budget=budget),
                notes=(
                    "no n-partition with two measurements per part exists; "
                    "only the generic SIC-set lift arrow applies",
                ),
            )
        report = ks_to_bell(scenario, inequality, part, budget=budget)

    notes = list(report.notes)
    if report.connection == "partial" and not report.tightness_preserved:
        notes.append("tightness lost under the party closure")
    if report.connection == "partial":
        notes.append(
            "quantum value of the source witness may be unattainable in the "
            "Bell scenario; compare the reported quantum values")
    report.notes = tuple(notes)

    if with_quantum and report.target_scenario is not None:
        # every map keeps outcomes, measurement order and terms, and the
        # seesaw reads no bound and no compatibility edge, so the source run
        # is the target run
        report.source_quantum = report.target_quantum = seesaw_max(
            report.source_inequality, report.source_scenario,
            dim=dim, restarts=restarts, seed=seed).value
        report.quantum_method = (
            f"seesaw(dim={dim}, restarts={restarts}, seed={seed}); "
            "lower bounds on the quantum maxima")
    return report
