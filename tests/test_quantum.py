import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rotated_a11
from ksatlas.bridge import chsh_example, n_cycle, n_cycle_quantum_model, pm_square
from ksatlas.errors import (
    ConvergenceFailure,
    InvalidSet,
    NonCommutingContext,
    NotAPOVM,
    NotDichotomic,
    RankDeficiencyAmbiguous,
    ScenarioMismatch,
    SizeLimitExceeded,
)
from ksatlas.graphs import exclusivity_graph
from ksatlas.quantum import (
    SEESAW_FTOL,
    QuantumModel,
    _class_operator,
    _colour_classes,
    _objective,
    _operator,
    _random_observables,
    _split_terms,
    _sym_product,
    SICSet,
    criticality_check,
    eigh_sorted,
    herm,
    neumark_dilation,
    observable_effects,
    polar_sign,
    quantum_behavior,
    random_state,
    remove_measurement,
    seesaw_max,
    verify_sic,
    witness_operator,
)
from ksatlas.polytope import classical_bound
from ksatlas.scenario import (
    Inequality,
    build_scenario,
    correlator_decomposition,
    correlator_inequality,
    evaluate,
    validate_behavior,
)

I2 = np.eye(2, dtype=complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_pvm(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    return tuple(np.outer(q[:, k], q[:, k].conj()) for k in range(dim))


def random_povm(dim, n_effects, rng):
    """Random POVM by normalizing positive matrices with the inverse
    square root of their sum."""
    mats = []
    for _ in range(n_effects):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(g @ g.conj().T)
    total = sum(mats)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [herm(inv_sqrt @ m @ inv_sqrt) for m in mats]


# -- linear algebra kernel ---------------------------------------------------

def test_eigh_residual_is_small():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = herm(a)
        vals, vecs = eigh_sorted(a)
        assert np.linalg.norm(a @ vecs - vecs * vals) <= 1e-9 * max(
            1.0, np.linalg.norm(a))


def test_polar_sign_is_involution():
    rng = np.random.default_rng(5)
    a = herm(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    s = polar_sign(a)
    assert np.abs(s @ s - np.eye(4)).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stacks_give_per_matrix_results(data):
    # R = d is the case where a misaligned broadcast of the signs would
    # pass silently
    d = data.draw(st.integers(2, 4))
    r = data.draw(st.one_of(st.just(d), st.integers(1, 6)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    stack = herm(rng.normal(size=(r, d, d)) + 1j * rng.normal(size=(r, d, d)))
    vals, vecs = eigh_sorted(stack)
    signs = polar_sign(stack)
    assert vals.shape == (r, d) and vecs.shape == signs.shape == (r, d, d)
    for k in range(r):
        one_vals, one_vecs = eigh_sorted(stack[k])
        assert np.array_equal(vals[k], one_vals)
        assert np.array_equal(vecs[k], one_vecs)
        assert np.array_equal(signs[k], polar_sign(stack[k]))


# -- quantum behaviors ----------------------------------------------------------

def test_mixed_state_pvm_behavior_is_no_disturbing():
    rng = np.random.default_rng(7)
    s = build_scenario(["a", "b", "c"], [2, 2, 2], [(0, 1), (1, 2)])
    # one shared PVM basis per context keeps compatible pairs commuting
    basis = random_pvm(4, rng)
    eff_a = (basis[0] + basis[1], basis[2] + basis[3])
    eff_b = (basis[0] + basis[2], basis[1] + basis[3])
    eff_c = (basis[0], basis[1] + basis[2] + basis[3])
    model = QuantumModel(4, np.eye(4, dtype=complex) / 4, (eff_a, eff_b, eff_c))
    beh = quantum_behavior(model, s)
    assert validate_behavior(s, beh, tol=1e-12).ok


def test_random_pvm_behaviors_pass_validation():
    rng = np.random.default_rng(11)
    s = build_scenario(["a", "b"], [2, 2], [(0, 1)])
    for _ in range(10):
        basis = random_pvm(4, rng)
        eff_a = (basis[0] + basis[1], basis[2] + basis[3])
        eff_b = (basis[0] + basis[2], basis[1] + basis[3])
        psi = random_state(4, rng)
        model = QuantumModel(4, psi, (eff_a, eff_b))
        beh = quantum_behavior(model, s)
        assert validate_behavior(s, beh, tol=1e-10).ok


def test_noncommuting_context_is_rejected():
    s = build_scenario(["a", "b"], [2, 2], [(0, 1)])
    model = QuantumModel(2, np.array([1, 0], dtype=complex),
                         (observable_effects(PZ), observable_effects(PX)))
    with pytest.raises(NonCommutingContext):
        quantum_behavior(model, s)


def test_chsh_tsirelson_closed_form_model():
    # singlet-equivalent construction through the even-cycle model family
    scenario, ineq = n_cycle(4)
    model = n_cycle_quantum_model(4)
    beh = quantum_behavior(model, scenario)
    assert validate_behavior(scenario, beh, tol=1e-10).ok
    assert abs(evaluate(ineq, beh) - 2 * math.sqrt(2)) < 1e-9


def test_hexagon_maximizer_value():
    scenario, gamma = n_cycle(6)
    beh = quantum_behavior(n_cycle_quantum_model(6), scenario)
    assert abs(evaluate(gamma, beh) - 3 * math.sqrt(3)) < 1e-6


# -- Neumark dilation ---------------------------------------------------------

def test_pvm_dilates_to_itself():
    rng = np.random.default_rng(13)
    pvm = random_pvm(3, rng)
    dil = neumark_dilation(pvm)
    assert dil.dilated_dim == 3
    for _ in range(20):
        psi = random_state(3, rng)
        for k, e in enumerate(pvm):
            want = float((psi.conj() @ e @ psi).real)
            assert abs(want - dil.outcome_probability(k, psi)) < 1e-10


def test_trine_povm_dilation():
    vecs = [np.array([math.cos(2 * math.pi * k / 3),
                      math.sin(2 * math.pi * k / 3)]) for k in range(3)]
    effects = [(2 / 3) * np.outer(v, v).astype(complex) for v in vecs]
    dil = neumark_dilation(effects)
    assert dil.dilated_dim == 3
    v = dil.isometry
    assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-10
    rng = np.random.default_rng(17)
    for _ in range(100):
        psi = random_state(2, rng)
        for k, e in enumerate(effects):
            want = float((psi.conj() @ e @ psi).real)
            assert abs(want - dil.outcome_probability(k, psi)) < 1e-10


def test_random_povm_dilation_properties():
    rng = np.random.default_rng(19)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        effects = random_povm(d, k, rng)
        dil = neumark_dilation(effects)
        v = dil.isometry
        assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-10
        # projectors idempotent, orthogonal, complete
        total = np.zeros((dil.dilated_dim, dil.dilated_dim), dtype=complex)
        for p in dil.projectors:
            assert np.abs(p @ p - p).max() < 1e-12
            total += p
        assert np.abs(total - np.eye(dil.dilated_dim)).max() < 1e-12
        for i in range(len(dil.projectors)):
            for j in range(i + 1, len(dil.projectors)):
                assert np.abs(dil.projectors[i] @ dil.projectors[j]).max() < 1e-12
        assert dil.dilated_dim == sum(r for _, r in dil.blocks)


def test_not_a_povm_is_rejected():
    with pytest.raises(NotAPOVM):
        neumark_dilation([np.eye(2, dtype=complex) * 0.9])
    with pytest.raises(NotAPOVM):
        neumark_dilation([PZ, np.eye(2, dtype=complex) - PZ])  # PZ not psd


def test_ambiguous_rank_is_flagged():
    e1 = np.diag([1.0, 5e-10]).astype(complex)
    e2 = np.eye(2, dtype=complex) - e1
    with pytest.raises(RankDeficiencyAmbiguous):
        neumark_dilation([e1, e2])


# -- seesaw ----------------------------------------------------------------------

def test_seesaw_reaches_cycle_closed_forms():
    for n in (4, 5, 6):
        scenario, ineq = n_cycle(n)
        res = seesaw_max(ineq, scenario, dim=2, restarts=6, seed=1)
        want = n * math.cos(math.pi / n)
        assert abs(res.value - want) < 1e-6
        assert res.value <= want + 1e-9  # analytic ceiling for this family


def test_seesaw_chsh_joint_dimension_four():
    scenario, ineq = chsh_example()
    res = seesaw_max(ineq, scenario, dim=4, restarts=10, seed=2)
    assert abs(res.value - 2 * math.sqrt(2)) < 1e-6
    # Alice's and Bob's observables are the two colour classes
    subsets, _ = correlator_decomposition(scenario, ineq)
    assert [c.tolist() for c in _colour_classes(subsets, 4)] == [[0, 1], [2, 3]]


def test_seesaw_model_is_consistent_with_its_value():
    scenario, ineq = n_cycle(4)
    res = seesaw_max(ineq, scenario, dim=2, restarts=6, seed=3)
    for eff_pair in res.model.effects:
        total = eff_pair[0] + eff_pair[1]
        assert np.abs(total - np.eye(2)).max() < 1e-9


def _pre_post_effective_operator(subsets, observables, rho, target, dim):
    """F_t as an explicit sum over orderings: an ordering pre M_t post of
    a subset contributes post rho pre, since Tr(rho pre M_t post) =
    Tr(M_t post rho pre)."""
    f = np.zeros((dim, dim), dtype=complex)
    for members, coef in subsets.items():
        if target not in members:
            continue
        scale = coef / math.factorial(len(members))
        for perm in itertools.permutations(members):
            pos = perm.index(target)
            pre = np.eye(dim, dtype=complex)
            for m in perm[:pos]:
                pre = pre @ observables[m]
            post = np.eye(dim, dtype=complex)
            for m in perm[pos + 1:]:
                post = post @ observables[m]
            f = f + scale * (post @ rho @ pre)
    return herm(f)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_effective_operator_is_the_target_linear_part(data):
    # subsets of 1 to 4 members: single terms, the pair matrix and the
    # ordering products of the larger terms
    dim = data.draw(st.integers(2, 4))
    n_meas = data.draw(st.integers(1, 5))
    members = st.sets(st.integers(0, n_meas - 1), min_size=1, max_size=min(4, n_meas))
    keys = data.draw(st.lists(members, min_size=1, max_size=6, unique_by=frozenset))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    subsets = {tuple(sorted(k)): float(rng.normal()) for k in keys}
    terms = _split_terms(subsets, 0.0, n_meas)
    observables = _random_observables(dim, rng, n_meas)
    psi = random_state(dim, rng)
    rho = np.outer(psi, psi.conj())
    x = herm(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

    def value(target, m_t):
        obs = observables.copy()
        obs[target] = m_t
        return np.trace(rho @ _objective(terms, obs[None])[0]).real

    for cls in terms.classes:
        f = _class_operator(terms, observables[None], rho[None], cls)[0]
        for k, target in enumerate(cls):
            linear = value(target, x) - value(target, np.zeros((dim, dim), dtype=complex))
            assert abs(np.trace(x @ f[k]).real - linear) < 1e-12
            reference = _pre_post_effective_operator(subsets, observables, rho, target, dim)
            assert np.abs(f[k] - reference).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_colour_classes_partition_and_split_every_term(data):
    n_meas = data.draw(st.integers(1, 8))
    members = st.sets(st.integers(0, n_meas - 1), min_size=1, max_size=min(4, n_meas))
    keys = [tuple(sorted(k)) for k in data.draw(st.lists(members, max_size=10))]
    classes = _colour_classes(keys, n_meas)
    assert sorted(np.concatenate(classes).tolist()) == list(range(n_meas))
    colour = {int(m): c for c, cls in enumerate(classes) for m in cls}
    for k in keys:
        assert len({colour[m] for m in k}) == len(k)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 40))
def test_cycle_term_graphs_take_two_or_three_classes(n):
    subsets, _ = correlator_decomposition(*n_cycle(n))
    assert len(_colour_classes(subsets, n)) == (2 if n % 2 == 0 else 3)


def test_seesaw_reaches_the_pm_witness_value(pm):
    # products of three observables per context: the seesaw finds the
    # state-independent value Tr(W)/d = 6 of the Peres-Mermin square
    res = seesaw_max(pm.witness, pm.scenario, dim=4, restarts=4, seed=1)
    assert abs(res.value - 6) < 1e-6
    assert res.converged


def _sequential_seesaw_max(inequality, scenario, dim, restarts, iters=300, seed=0):
    """seesaw_max with the restarts run one after another, each step
    sweeping the colour classes in order: (value, iterations, converged,
    state, observables) of the best restart."""
    subsets, const = correlator_decomposition(scenario, inequality)
    n_meas = len(scenario.measurements)
    terms = _split_terms({k: float(v) for k, v in subsets.items()}, float(const), n_meas)
    rng = np.random.default_rng(seed)
    best = (-np.inf,)
    total_iters = 0
    for _ in range(restarts):
        observables = _random_observables(dim, rng, n_meas)
        prev = -np.inf
        converged = False
        for _ in range(iters):
            total_iters += 1
            vals, vecs = eigh_sorted(_objective(terms, observables[None])[0])
            state = vecs[:, -1]
            rho = np.outer(state, state.conj())
            for cls in terms.classes:
                observables[cls] = polar_sign(
                    _class_operator(terms, observables[None], rho[None], cls)[0])
            val = float(vals[-1])
            if val < prev - 1e-9:
                raise ConvergenceFailure("seesaw lost monotonicity")
            if abs(val - prev) <= SEESAW_FTOL * (1.0 + abs(val)):
                converged = True
                break
            prev = val
        vals, vecs = eigh_sorted(_objective(terms, observables[None])[0])
        if float(vals[-1]) > best[0]:
            best = (float(vals[-1]), converged, vecs[:, -1], observables)
    value, converged, state, observables = best
    return value, total_iters, converged, state, observables


def _seesaw_cases():
    for n in range(4, 9):
        for dim in (2, 4):
            yield pytest.param(*n_cycle(n), dim, 3, n, id=f"cycle{n}-d{dim}")
    yield pytest.param(*chsh_example(), 4, 10, 2, id="chsh-d4")
    pm = pm_square()
    yield pytest.param(pm.scenario, pm.witness, 4, 2, 1, id="pm-d4")
    # P(A1 = 1) + P(A1 = -1): a constant, so the pair matrix is zero and
    # every observable is polar_sign(0) = I
    s, chsh = chsh_example()
    yield pytest.param(s, Inequality((((0,), (1,), 1), ((0,), (-1,), 1)), 1), 2, 3, 1,
                       id="constant-d2")
    # CHSH with a fifth measurement that no term mentions
    s = build_scenario(["A1", "A2", "B1", "B2", "C"], [2] * 5,
                       [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4)])
    yield pytest.param(s, chsh, 4, 3, 1, id="chsh-unmentioned-d4")


@pytest.mark.parametrize("scenario,ineq,dim,restarts,seed", _seesaw_cases())
def test_stacked_seesaw_matches_sequential_restarts(scenario, ineq, dim, restarts, seed):
    res = seesaw_max(ineq, scenario, dim=dim, restarts=restarts, seed=seed)
    value, iterations, converged, state, observables = _sequential_seesaw_max(
        ineq, scenario, dim, restarts, seed=seed)
    assert (res.value, res.iterations, res.converged) == (value, iterations, converged)
    assert np.array_equal(res.model.state, state)
    for (plus, minus), o in zip(res.model.effects, observables):
        assert np.array_equal(plus, 0.5 * (np.eye(dim) + o))
        assert np.array_equal(minus, 0.5 * (np.eye(dim) - o))


def test_seesaw_memory_guard_fires_before_allocating(monkeypatch):
    # 4 observables x 1 restart x (2^14)^2 entries is above MEMORY_BUDGET;
    # a draw would allocate, so drawing fails the test instead
    import ksatlas.quantum as quantum

    def no_draw(*args):
        raise AssertionError("observables drawn past the memory guard")

    monkeypatch.setattr(quantum, "_random_observables", no_draw)
    scenario, ineq = chsh_example()
    with pytest.raises(SizeLimitExceeded):
        seesaw_max(ineq, scenario, dim=2 ** 14, restarts=1)


def test_seesaw_requires_dichotomic_outcomes():
    from ksatlas.scenario import Inequality
    s = build_scenario(["a", "b"], [3, 2], [(0, 1)])
    ineq = Inequality((((0,), (0,), 1),), 1)
    with pytest.raises(NotDichotomic):
        seesaw_max(ineq, s, dim=2)



def test_seesaw_effects_follow_the_outcome_labels():
    # CHSH plus <A1>, with Bob's outcomes listed as (-1, 1): reading the
    # model by its labels must reproduce the reported value
    s = build_scenario(["A1", "A2", "B1", "B2"], [(1, -1), (1, -1), (-1, 1), (-1, 1)],
                       [(0, 2), (0, 3), (1, 2), (1, 3)])
    ineq = correlator_inequality(
        s, [((0, 2), 1), ((0, 3), 1), ((1, 2), 1), ((1, 3), -1), ((0,), 1)], 4)
    res = seesaw_max(ineq, s, dim=4, restarts=4, seed=1)
    observables = [eff[outs.index(1)] - eff[outs.index(-1)]
                   for eff, outs in zip(res.model.effects, s.outcomes)]
    subsets, const = correlator_decomposition(s, ineq)
    psi = res.model.state
    value = float(const) + sum(
        float(c) * (psi.conj() @ _sym_product([observables[m] for m in members]) @ psi).real
        for members, c in subsets.items())
    assert abs(value - res.value) < 1e-9

# -- SIC sets ----------------------------------------------------------------------

def test_pm_witness_operator_is_six_identity(pm):
    w = witness_operator(pm)
    assert np.linalg.norm(w - 6 * np.eye(4)) <= 1e-9


def test_pm_verify(pm):
    rep = verify_sic(pm, sample_states=1000, seed=0)
    assert rep.is_sic
    assert pm.mu == 4
    assert abs(rep.q_estimate - 6) < 1e-12
    assert rep.identity_deviation <= 1e-9
    # state independence: all sampled values within 1e-8 of q
    assert abs(rep.sample_min - rep.q_estimate) < 1e-8
    assert abs(rep.min_eigenvalue - 6) < 1e-12


def test_pm_is_critical(pm):
    critical, breaks = criticality_check(pm)
    assert critical and len(breaks) == 9 and all(breaks)


def pm_with_duplicate(pm):
    """The PM square plus a copy of its first observable, under the same
    witness."""
    s = pm.scenario
    obs0 = pm.effects[0][0] - pm.effects[0][1]
    mats = [eff[0] - eff[1] for eff in pm.effects] + [obs0]
    ids = list(s.measurements) + ["dup"]
    edges = [
        (i, j) for i in range(10) for j in range(i + 1, 10)
        if np.abs(mats[i] @ mats[j] - mats[j] @ mats[i]).max() < 1e-12
    ]
    bigger = build_scenario(ids, [2] * 10, edges)
    witness = pm.witness  # same six contexts, still sub-cliques
    return SICSet(4, bigger, tuple(pm.effects) + (pm.effects[0],), witness)


def test_pm_with_redundant_duplicate_is_not_critical(pm):
    # removing the copy changes nothing, so the enlarged set cannot be
    # critical
    sic = pm_with_duplicate(pm)
    assert verify_sic(sic).is_sic
    critical, breaks = criticality_check(sic)
    assert not critical
    assert breaks[:9] == [True] * 9 and breaks[9] is False


def rebuilt_criticality(sic):
    """Reference: every removal rebuilt on the induced scenario, with its
    own bound there, and verified as a set of its own."""
    breaks = []
    for k in range(len(sic.scenario.measurements)):
        r = remove_measurement(sic, k)
        breaks.append(not r.witness.terms or not verify_sic(r).is_sic)
    return all(breaks), breaks


def criticality_cases(pm):
    yield "pm", pm
    effects = tuple(tuple(np.kron(e, np.eye(3)) for e in eff) for eff in pm.effects)
    yield "pm x I3", replace(pm, dim=12, effects=effects)
    yield "pm + duplicate", pm_with_duplicate(pm)
    doubled = Inequality(tuple((m, a, 2 * c) for m, a, c in pm.witness.terms),
                         2 * pm.mu, pm.witness.kind)
    yield "2 pm", replace(pm, witness=doubled)
    terms = pm.witness.terms + correlator_inequality(
        pm.scenario, [((0,), Fraction(1, 2))], 0).terms
    probe = Inequality(terms, 0, pm.witness.kind)
    witness = replace(probe, bound=classical_bound(probe, pm.scenario))
    yield "pm + A11/2", replace(pm, witness=witness)


def test_criticality_matches_rebuilt_removals(pm):
    seen = []
    for name, sic in criticality_cases(pm):
        assert verify_sic(sic).is_sic, name
        critical, breaks = criticality_check(sic)
        assert all(type(b) is bool for b in breaks), name
        assert (critical, breaks) == rebuilt_criticality(sic), name
        seen.append(critical)
    # both verdicts occur
    assert True in seen and False in seen


def brute_force_bound(scenario, inequality):
    """Oracle: the largest value over every deterministic assignment."""
    return max(
        sum((c for members, asg, c in inequality.terms
             if all(a[m] == o for m, o in zip(members, asg))), Fraction(0))
        for a in itertools.product(*scenario.outcomes)
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dropping_a_measurement_keeps_the_induced_bound(data):
    # a measurement no term mentions is free, so the bound on the full
    # scenario is the bound on the scenario induced on the others
    n = data.draw(st.integers(3, 5))
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    s = build_scenario([f"M{i}" for i in range(n)], [2] * n, edges)
    cliques = [sub for ctx in s.contexts
               for r in range(1, len(ctx) + 1)
               for sub in itertools.combinations(ctx, r)]
    correlators = data.draw(st.lists(
        st.tuples(st.sampled_from(cliques), st.integers(-3, 3)), min_size=1, max_size=6))
    probe = correlator_inequality(s, correlators, 0)
    m = data.draw(st.integers(0, n - 1))
    eye = np.eye(3, dtype=complex)
    sic = SICSet(3, s, ((eye, 0 * eye),) * n, probe)
    witness = replace(probe, terms=tuple(t for t in probe.terms if m not in t[0]))
    assume(witness.terms)
    full = classical_bound(witness, s)
    assert full == remove_measurement(sic, m).mu == brute_force_bound(s, witness)
def test_stored_q_must_match_the_witness_trace(pm):
    # a stored q is compared with the derived Tr(W)/d, 6 for the PM witness
    with pytest.raises(InvalidSet):
        SICSet.from_json({**pm.to_json(), "q": 5})
    assert verify_sic(SICSet.from_json(pm.to_json())).is_sic


def test_noncommuting_compatible_effects_are_refused_when_built(pm):
    # the rotated A11 no longer commutes with A13 = Z (x) Z; its W still
    # has minimum above mu = 4, so only the model check can refuse it
    effects, data = rotated_a11(pm)
    assert np.linalg.eigvalsh(_operator(4, effects, pm.terms))[0] > 4
    with pytest.raises(NonCommutingContext):
        SICSet(4, pm.scenario, effects, pm.witness)
    with pytest.raises(NonCommutingContext):
        replace(pm, effects=effects)
    with pytest.raises(NonCommutingContext):
        SICSet.from_json(data)



def test_stored_mu_must_be_the_witness_bound(pm):
    # a stored mu below the classical bound would let verify_sic certify
    # a set that is not SIC: PM without its (A13, A23, A33) context has
    # classical bound 5 and W = 5 I
    data = pm.to_json()
    with pytest.raises(InvalidSet):
        SICSet.from_json({**data, "mu": "3"})
    # the witness's own stored bound must be mu as well
    with pytest.raises(InvalidSet):
        SICSet.from_json({**data, "witness": {**data["witness"], "bound": "7"}})
    dropped = {**data["witness"], "terms": [
        t for t in data["witness"]["terms"] if t["context"] != ["A13", "A23", "A33"]]}
    with pytest.raises(InvalidSet):
        SICSet.from_json({**data, "witness": dropped, "mu": "4", "q": 5})
    with pytest.raises(InvalidSet):
        SICSet.from_json({**data, "witness": dropped, "mu": "5", "q": 5})
    dropped["bound"] = "5"
    assert SICSet.from_json({**data, "witness": dropped, "mu": "5", "q": 5}).mu == 5


def test_the_witness_is_stored_at_mu(pm):
    # the bound a witness is given with is not kept
    for bound in (0, 7):
        sic = SICSet(4, pm.scenario, pm.effects, replace(pm.witness, bound=bound))
        assert sic.witness.bound == sic.mu == 4 and sic == pm
    data = pm.to_json()
    assert data["witness"]["bound"] == data["mu"] == "4"


def test_sic_sets_compare_by_their_effect_matrices(pm):
    assert pm_square() == pm
    # A11's effects swapped: A11 -> -A11, which still commutes where it did
    flipped = SICSet(4, pm.scenario, (pm.effects[0][::-1],) + pm.effects[1:], pm.witness)
    assert flipped != pm and pm != flipped
    assert replace(pm, embedded=(0,)) != pm
    assert pm != pm.to_json()

def test_reduced_pm_set_is_state_dependent(pm):
    reduced = remove_measurement(pm, 0)
    rep = verify_sic(reduced)
    assert not rep.is_sic
    assert rep.min_eigenvalue <= float(reduced.mu) + 1e-9
    assert reduced.mu == 4


def test_commuting_triple_is_not_sic():
    # three commuting observables witness nothing: value = classical bound
    z1 = np.kron(PZ, I2)
    z2 = np.kron(I2, PZ)
    z3 = np.kron(PZ, PZ)
    mats = [z1, z2, z3]
    s = build_scenario(["a", "b", "c"], [2] * 3, [(0, 1), (0, 2), (1, 2)])
    probe = correlator_inequality(s, [((0, 1, 2), 1)], 0)
    witness = correlator_inequality(s, [((0, 1, 2), 1)], classical_bound(probe, s))
    sic = SICSet(4, s, tuple(observable_effects(m) for m in mats), witness)
    assert not verify_sic(sic).is_sic
    with pytest.raises(InvalidSet):
        criticality_check(sic)


# -- one canonical term form -------------------------------------------------------

@st.composite
def same_meaning(draw, scenario, inequality):
    """The inequality with its terms rewritten without changing what they
    mean: each term's members permuted, perhaps one of them named twice
    with its outcome, and up to two terms that never fire (a measurement
    named twice with different outcomes) inserted anywhere."""
    terms = []
    for members, asg, coef in inequality.terms:
        pairs = list(zip(members, asg))
        if draw(st.booleans()):
            pairs.append(draw(st.sampled_from(pairs)))
        pairs = draw(st.permutations(pairs))
        terms.append((tuple(m for m, _ in pairs), tuple(o for _, o in pairs), coef))
    for _ in range(draw(st.integers(0, 2))):
        ctx = draw(st.sampled_from(scenario.contexts))
        m, other = draw(st.sampled_from(ctx)), draw(st.sampled_from(ctx))
        pairs = [(m, scenario.outcomes[m][0]), (m, scenario.outcomes[m][1]),
                 (other, draw(st.sampled_from(scenario.outcomes[other])))]
        pairs = draw(st.permutations(pairs[:draw(st.integers(2, 3))]))
        term = (tuple(m for m, _ in pairs), tuple(o for _, o in pairs),
                Fraction(draw(st.integers(-5, 5))))
        terms.insert(draw(st.integers(0, len(terms))), term)
    return replace(inequality, terms=tuple(terms))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_terms_of_the_same_meaning_give_the_same_answers(chsh, pm, data):
    # every reader of the terms reads check_inequality's canonical form,
    # so no answer depends on how a term is written
    for scenario, ineq in (chsh, (pm.scenario, pm.witness)):
        other = data.draw(same_meaning(scenario, ineq))
        assert classical_bound(other, scenario) == classical_bound(ineq, scenario)
        got, want = (correlator_decomposition(scenario, x) for x in (other, ineq))
        assert list(got[0].items()) == list(want[0].items()) and got[1] == want[1]
        assert exclusivity_graph(other, scenario) == exclusivity_graph(ineq, scenario)
    scenario, ineq = chsh
    other = data.draw(same_meaning(scenario, ineq))
    a, b = (seesaw_max(x, scenario, dim=2, restarts=2, iters=60, seed=3)
            for x in (ineq, other))
    assert (b.value, b.iterations) == (a.value, a.iterations)
    witness = data.draw(same_meaning(pm.scenario, pm.witness))
    assert np.array_equal(witness_operator(replace(pm, witness=witness)),
                          witness_operator(pm))


@pytest.mark.parametrize("bad", [
    ((0, 1), (1, 1)),   # A1 and A2: no context holds both
    ((0,), (7,)),       # 7 is not an outcome of A1
    ((9,), (1,)),       # CHSH has 4 measurements
], ids=["incompatible-pair", "unknown-label", "unknown-measurement"])
def test_seesaw_refuses_a_term_outside_the_scenario(chsh, bad):
    scenario, ineq = chsh
    broken = Inequality(ineq.terms + (bad + (Fraction(1),),), ineq.bound)
    with pytest.raises(ScenarioMismatch):
        seesaw_max(broken, scenario, dim=2, restarts=1, iters=5)
