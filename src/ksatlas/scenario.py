"""Measurement scenarios, behaviors, and linear inequalities over them.

A scenario is a list of measurements with finite outcome sets plus a
compatibility graph. It caches its coordinate form on first use: the
contexts (`Scenario.contexts`, the maximal cliques), the outcome counts
(`radices`), the label-to-index maps (`label_index`) and each context's
outcome grid (`grids`). The grids, in context order and each row-major,
are the one coordinate order of behaviors and polytope vertices. A
behavior stores one probability table per maximal context, either as
exact rationals or as floats. Both modes are validated on one exact
path: float entries and the tolerance are read as the exact rationals
they hold, and the tables as integers over one common denominator
(_integer_tables), the form membership also reads. Inequalities are
linear functionals over event probabilities; correlator expressions are
stored expanded into event terms so a single evaluation path serves
both forms. check_inequality alone reads the terms as written: it
checks them and gives each in one canonical form (its measurements
sorted and each listed once, outcome indices, terms that never fire
dropped). Callers pass that list, not the inequality, down to the
private readers of it: the classical bound's integer form
(polytope._int_terms), the correlator expansion (_correlators, hence
the seesaw and the SIC lift) and the witness operator; a SIC set's
removals filter it. evaluate reads the labels as written, an
independent check of that form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import (
    DuplicateMeasurement,
    InvalidEdge,
    InvalidTolerance,
    MissingContextTable,
    NegativeProbability,
    ScenarioMismatch,
    TooFewOutcomes,
)
from .graphs import Graph, maximal_cliques

__all__ = [
    "Scenario",
    "Behavior",
    "Inequality",
    "ValidationReport",
    "build_scenario",
    "validate_behavior",
    "evaluate",
    "frac",
    "frac_str",
    "outcome_grid",
    "correlator_inequality",
    "correlator_decomposition",
    "uniform_behavior",
    "deterministic_behavior",
    "mix_behaviors",
]


def frac(x):
    """Coerce ints, 'p/q' strings, floats and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def frac_str(x):
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


@dataclass(frozen=True)
class Scenario:
    """Measurements, outcome labels and compatibility graph. The
    coordinate form (contexts, radices, label_index, grids) is computed
    on first use and kept on the instance; == and hash read only the
    three fields."""

    measurements: tuple          # measurement identifiers, in index order
    outcomes: tuple              # per measurement, tuple of outcome labels
    compat: Graph                # edge = compatible pair of measurement indices

    @cached_property
    def contexts(self):
        """Maximal cliques of `compat`: sorted index tuples, lexicographic."""
        return tuple(maximal_cliques(self.compat))

    @cached_property
    def radices(self):
        """Outcome count of each measurement."""
        return tuple(len(outs) for outs in self.outcomes)

    @cached_property
    def label_index(self):
        """Per measurement, {outcome label: outcome index}."""
        return tuple({o: k for k, o in enumerate(outs)} for outs in self.outcomes)

    @cached_property
    def grids(self):
        """outcome_grid of each maximal context, in `contexts` order: the
        coordinate order of behaviors and polytope vertices."""
        return tuple(tuple(outcome_grid(self, ctx)) for ctx in self.contexts)

    def index_of(self, mid):
        try:
            return self.measurements.index(mid)
        except ValueError:
            raise ScenarioMismatch(f"unknown measurement id {mid!r}") from None

    def to_json(self):
        return {
            "measurements": [
                {"id": m, "outcomes": list(self.outcomes[k])}
                for k, m in enumerate(self.measurements)
            ],
            "compat": [list(e) for e in self.compat.edges],
        }

    @classmethod
    def from_json(cls, data):
        ids = [m["id"] for m in data["measurements"]]
        outs = [tuple(m["outcomes"]) for m in data["measurements"]]
        edges = tuple((int(i), int(j)) for i, j in data["compat"])
        return build_scenario(ids, outs, edges)


def build_scenario(measurements, outcomes, compat_edges):
    """Validated scenario constructor.

    `outcomes` may be a per-measurement list of outcome labels or a list
    of outcome counts (count k yields labels 0..k-1; count 2 yields the
    dichotomic labels +1/-1). Labels must differ, also as strings (TooFewOutcomes).
    No id (DuplicateMeasurement) or label may contain ',', which joins them
    in behavior keys. `Graph` checks the edges; a pair given twice is refused
    here (InvalidEdge).
    """
    ids = tuple(measurements)
    if len(set(ids)) != len(ids) or any("," in str(m) for m in ids):
        raise DuplicateMeasurement("measurement identifiers must be unique, without ','")
    out_sets = []
    for spec in outcomes:
        if isinstance(spec, int):
            labels = (1, -1) if spec == 2 else tuple(range(spec))
        else:
            labels = tuple(spec)
        if len(labels) < 2:
            raise TooFewOutcomes(f"measurement needs >= 2 outcomes, got {labels}")
        strs = set(map(str, labels))
        if len(set(labels)) != len(labels) or len(strs) != len(labels) or "," in "".join(strs):
            raise TooFewOutcomes(f"duplicate outcome labels, or one with ',': {labels}")
        out_sets.append(labels)
    if len(out_sets) != len(ids):
        raise TooFewOutcomes("one outcome set per measurement required")
    edges = tuple(compat_edges)
    compat = Graph(len(ids), edges)
    if len(compat.edges) < len(edges):
        raise InvalidEdge("duplicate compatibility edge")
    return Scenario(ids, tuple(out_sets), compat)


def outcome_grid(scenario, members):
    """Cartesian product of outcome labels for the given measurement
    indices, in index order (row-major)."""
    return list(itertools.product(*(scenario.outcomes[m] for m in members)))


def context_key(scenario, members):
    return ",".join(scenario.measurements[m] for m in sorted(members))


@dataclass(frozen=True)
class Behavior:
    """Probability tables over the maximal contexts of a scenario.

    mode 'rational' keeps Fraction entries (required by the polytope
    operations); mode 'float' keeps floats with tolerance-based checks.
    """

    scenario: Scenario
    mode: str
    tables: dict  # context members tuple -> {assignment tuple: value}

    def table(self, members):
        key = tuple(sorted(members))
        if key not in self.tables:
            raise MissingContextTable(f"no table for context {key}")
        return self.tables[key]

    def marginal_table(self, members, sub):
        """{assignment on sub: probability} from one pass over the table
        of `members`; assignments that never occur are absent."""
        pos = {m: k for k, m in enumerate(sorted(members))}
        idx = [pos[m] for m in sub]
        out = {}
        for asg, p in self.table(members).items():
            key = tuple(asg[k] for k in idx)
            out[key] = out[key] + p if key in out else p
        return out

    def prob_table(self, sub):
        """marginal_table of sub in the first maximal context containing it."""
        sub = tuple(sub)
        for ctx in self.scenario.contexts:
            if set(sub) <= set(ctx):
                return self.marginal_table(ctx, sub)
        raise ScenarioMismatch(f"{sub} is not inside any maximal context")

    def to_json(self):
        s = self.scenario
        tables = {}
        for members, tab in sorted(self.tables.items()):
            entries = {}
            for asg, p in tab.items():
                k = ",".join(str(o) for o in asg)
                entries[k] = frac_str(p) if self.mode == "rational" else p
            tables[context_key(s, members)] = entries
        return {"mode": self.mode, "tables": tables}

    @classmethod
    def from_json(cls, scenario, data):
        """Tables keyed by maximal context; a key that names no maximal
        context, or the same context as an earlier key, raises
        ScenarioMismatch."""
        mode = data["mode"]
        contexts = set(scenario.contexts)
        tables = {}
        for ckey, entries in data["tables"].items():
            named = [scenario.index_of(x) for x in ckey.split(",")]
            # token k of an assignment key is the outcome of measurement
            # named[k]; the table is stored in measurement-index order
            order = sorted(range(len(named)), key=named.__getitem__)
            members = tuple(named[k] for k in order)
            if members not in contexts:
                raise ScenarioMismatch(f"table key {ckey!r} is not a maximal context")
            if members in tables:
                raise ScenarioMismatch(
                    f"table key {ckey!r} names the context of an earlier key")
            label_map = [
                {str(o): o for o in scenario.outcomes[named[k]]} for k in order
            ]
            tab = {}
            for akey, val in entries.items():
                toks = akey.split(",")
                if len(toks) != len(named):
                    raise ScenarioMismatch(
                        f"assignment {akey!r} does not match context {ckey!r}")
                asg = tuple(lbl[toks[k]] for lbl, k in zip(label_map, order))
                tab[asg] = frac(val) if mode == "rational" else float(val)
            tables[members] = tab
        return cls(scenario, mode, tables)


@dataclass(frozen=True)
class Inequality:
    """sum coef * P(assignment | context)  <=  bound.

    Each term references a sub-context (sorted measurement indices) of
    some maximal context and an outcome assignment for it.
    """

    terms: tuple     # ((members, assignment, Fraction coef), ...)
    bound: Fraction
    kind: str = "NCHV"   # "NCHV" or "LR"
    label: str = ""

    def __post_init__(self):
        canon = tuple(
            (tuple(m), tuple(a), frac(c)) for m, a, c in self.terms
        )
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "bound", frac(self.bound))

    def to_json(self, scenario):
        return {
            "terms": [
                {
                    "context": [scenario.measurements[m] for m in members],
                    "assignment": list(asg),
                    "coef": frac_str(coef),
                }
                for members, asg, coef in self.terms
            ],
            "bound": frac_str(self.bound),
            "kind": self.kind,
            "label": self.label,
        }

    @classmethod
    def from_json(cls, scenario, data):
        terms = []
        for t in data["terms"]:
            if len(t["context"]) != len(t["assignment"]):
                raise ScenarioMismatch(
                    f"term context {t['context']} and assignment {t['assignment']} "
                    "differ in length")
            pairs = sorted(
                zip((scenario.index_of(x) for x in t["context"]), t["assignment"])
            )
            members = tuple(m for m, _ in pairs)
            asg = []
            for m, o in pairs:
                match = [lbl for lbl in scenario.outcomes[m] if lbl == o or str(lbl) == str(o)]
                if not match:
                    raise ScenarioMismatch(f"outcome {o!r} unknown for measurement {m}")
                asg.append(match[0])
            terms.append((members, tuple(asg), frac(t["coef"])))
        return cls(tuple(terms), frac(data["bound"]), data.get("kind", "NCHV"),
                   data.get("label", ""))


def check_inequality(scenario, inequality):
    """Every term context must sit inside some maximal context and use
    valid outcome labels; raises ScenarioMismatch at the first term that
    does not (assignment length, then context, then each label).

    The same pass writes each term in its canonical form, the one every
    other reader of the terms reads: a list of (scope, outcome indices,
    coef), the scope being the term's measurements sorted and each listed
    once, the outcomes read through `Scenario.label_index`. A measurement
    named twice with equal outcomes is kept once; a term that names one
    with different outcomes never fires and is dropped, after its checks.
    Callers that only check ignore the list.
    """
    label_index = scenario.label_index
    ctx_sets = [set(c) for c in scenario.contexts]
    forms = {}  # term context inside a maximal context -> (label maps, scope)
    terms = []
    for members, asg, coef in inequality.terms:
        if len(members) != len(asg):
            raise ScenarioMismatch(f"term {members} has mismatched assignment {asg}")
        form = forms.get(members)
        if form is None:
            if not any(map(set(members).issubset, ctx_sets)):
                raise ScenarioMismatch(f"term context {members} not inside any maximal context")
            form = forms[members] = ([label_index[m] for m in members],
                                     tuple(sorted(set(members))))
        index, scope = form
        try:
            outs = tuple([labels[o] for labels, o in zip(index, asg)])
        except (KeyError, TypeError):  # TypeError: an unhashable label
            m, o = next((m, o) for m, o in zip(members, asg)
                        if o not in scenario.outcomes[m])
            raise ScenarioMismatch(f"outcome {o!r} invalid for measurement index {m}") from None
        if scope != members:  # a measurement repeats or is out of order
            event = {}
            if any(event.setdefault(m, o) != o for m, o in zip(members, outs)):
                continue  # conflicting outcomes: the term never fires
            outs = tuple([event[m] for m in scope])
        terms.append((scope, outs, coef))
    return terms


def correlator_inequality(scenario, correlators, bound, kind="NCHV", label=""):
    """Expand <M_a M_b ...> correlators over dichotomic +-1 measurements
    into event terms: each correlator contributes one term per joint
    outcome, weighted by coef times the product of outcomes."""
    terms = []
    for members, coef in correlators:
        members = tuple(sorted(members))
        coef = frac(coef)
        for m in members:
            if set(scenario.outcomes[m]) != {1, -1}:
                raise ScenarioMismatch(
                    f"correlator needs +-1 outcomes on measurement {m}")
        for asg in outcome_grid(scenario, members):
            sign = 1
            for o in asg:
                sign *= o
            terms.append((members, asg, coef * sign))
    ineq = Inequality(tuple(terms), frac(bound), kind, label)
    check_inequality(scenario, ineq)
    return ineq


def correlator_decomposition(scenario, inequality):
    """Exact expansion of the inequality into products of +-1 observables.

    Returns ({subset: Fraction}, constant): the inequality value on any
    behavior equals constant + sum over subsets of coef * <prod M_i>.
    The terms are read in check_inequality's canonical form, so they are
    checked first (ScenarioMismatch) and every subset is a sorted tuple of
    distinct measurements; every measurement they reference must then be
    dichotomic +-1, and each sign is the label at its outcome index.

    A term on k members spreads coef / 2^k over the 2^k subsets. Every
    share is accumulated as an integer numerator over the common
    denominator 2^(largest k) * lcm(coefficient denominators), and each
    subset's Fraction is built once at the end.
    """
    return _correlators(scenario, check_inequality(scenario, inequality))


def _correlators(scenario, terms):
    """correlator_decomposition of check_inequality's canonical terms."""
    outcomes = scenario.outcomes
    for m in dict.fromkeys(m for members, _, _ in terms for m in members):
        if set(outcomes[m]) != {1, -1}:
            raise ScenarioMismatch(f"measurement {m} is not a +-1 observable")
    top = max((len(members) for members, _, _ in terms), default=0)
    den = math.lcm(*(coef.denominator for _, _, coef in terms)) << top
    nums = {}
    const = 0
    for members, outs, coef in terms:
        k = len(members)
        w = coef.numerator * (den // (coef.denominator << k))
        signs = [1 if outcomes[m][o] == 1 else -1 for m, o in zip(members, outs)]
        const += w  # the empty subset
        for r in range(1, k + 1):
            for subset in itertools.combinations(range(k), r):
                v = w
                for pos in subset:
                    v *= signs[pos]
                key = tuple(members[pos] for pos in subset)
                nums[key] = nums.get(key, 0) + v
    coeffs = {key: Fraction(v, den) for key, v in nums.items() if v}
    return coeffs, Fraction(const, den)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    normalization: tuple = ()      # (context, deviation) pairs
    negativity: tuple = ()         # (context, assignment, value)
    no_disturbance: tuple = ()     # (ctx_a, ctx_b, shared, max deviation)
    tables: tuple | None = field(default=None, repr=False, compare=False)  # (den, nums)

    def to_json(self, scenario):
        key = lambda c: context_key(scenario, c)
        return {
            "ok": self.ok,
            "normalization": [
                {"context": key(c), "deviation": str(d)} for c, d in self.normalization
            ],
            "negativity": [
                {"context": key(c), "assignment": [str(o) for o in a], "value": str(v)}
                for c, a, v in self.negativity
            ],
            "no_disturbance": [
                {
                    "contexts": [key(a), key(b)],
                    "shared": key(s),
                    "deviation": str(d),
                }
                for a, b, s, d in self.no_disturbance
            ],
        }


def _integer_tables(scenario, behavior, floor):
    """(den, nums): the behavior's table on each maximal context as
    integer numerators over one common denominator den > 0, the lcm of
    the entries' denominators. nums[k][j] / den is entry j of context k,
    in `scenario.grids` order. Float entries are read as the exact
    rationals they hold. This one form is what validate_behavior checks
    and what membership_test's right-hand side reads.

    Contexts are read in order and each table in grid order. The first
    missing table or entry raises MissingContextTable, and the first
    entry that is NaN, infinite or below the Fraction `floor` (0 for
    rational behaviors, -tol for float ones) NegativeProbability, where
    it is met.
    """
    lo, lo_den = floor.numerator, floor.denominator
    ratios = []
    for ctx, grid in zip(scenario.contexts, scenario.grids):
        tab = behavior.table(ctx)  # raises MissingContextTable
        row = []
        for asg in grid:
            if asg not in tab:
                raise MissingContextTable(f"context {ctx} lacks entry for {asg}")
            v = tab[asg]
            try:
                q = frac(v)
            except (ValueError, OverflowError):  # NaN and +-inf hold no rational
                raise NegativeProbability(f"P{asg}|{ctx} = {v}") from None
            num, q = int(q.numerator), int(q.denominator)
            if num * lo_den < lo * q:
                raise NegativeProbability(f"P{asg}|{ctx} = {v}")
            row.append((num, q))
        ratios.append(row)
    den = math.lcm(*{q for row in ratios for _, q in row})
    return den, [[p * (den // q) for p, q in row] for row in ratios]


@lru_cache(maxsize=256)
def _marginal_index(radices, keep):
    """(size, target): entry j of a row-major table over `radices` adds
    into entry target[j] of its row-major marginal on the axes `keep`
    (ascending), which has `size` entries."""
    stride, size = {}, 1
    for k in reversed(keep):
        stride[k] = size
        size *= radices[k]
    target = [0]
    for k, r in enumerate(radices):
        step = stride.get(k, 0)
        target = [t + o * step for t in target for o in range(r)]
    return size, tuple(target)


def _marginal(nums, radices, keep):
    """The marginal of a row-major table on the axes `keep`."""
    size, target = _marginal_index(radices, keep)
    out = [0] * size
    for t, v in zip(target, nums):
        out[t] += v
    return out


def _overlaps(contexts):
    """(a, b, shared) for every pair a < b of contexts that share a
    measurement, shared being the sorted common members."""
    for a in range(len(contexts)):
        for b in range(a + 1, len(contexts)):
            shared = tuple(sorted(set(contexts[a]) & set(contexts[b])))
            if shared:
                yield a, b, shared


def validate_behavior(scenario, behavior, tol=None):
    """Normalization and no-disturbance checks, exact in both modes.

    tol defaults to 0 for rational behaviors and 1e-9 for float ones, and
    is read as the exact rational it holds, as are float entries. One
    path checks the integer form of the tables (_integer_tables): sums
    and marginals are integer numerators over the common denominator, and
    a deviation is built only for each issue reported, as a Fraction in
    rational mode and as its nearest float in float mode. The report
    keeps the form it checked (`tables`). A negative or non-finite tol
    raises InvalidTolerance. Missing tables raise MissingContextTable;
    entries below 0 (float mode: below -tol) or not finite raise
    NegativeProbability. Normalization and marginal mismatches are
    reported.
    """
    if tol is not None and not 0 <= tol < math.inf:
        raise InvalidTolerance("tol must be finite and >= 0")
    if behavior.scenario != scenario:
        raise ScenarioMismatch("behavior belongs to a different scenario")
    exact = behavior.mode == "rational"
    tol = frac((0 if exact else 1e-9) if tol is None else tol)
    tables = _integer_tables(scenario, behavior, Fraction(0) if exact else -tol)
    norm_issues, nd_issues = _exact_issues(scenario, tables, tol)
    if not exact:
        norm_issues = [(c, float(d)) for c, d in norm_issues]
        nd_issues = [(a, b, shared, float(d)) for a, b, shared, d in nd_issues]
    ok = not (norm_issues or nd_issues)
    return ValidationReport(ok, tuple(norm_issues), (), tuple(nd_issues), tables)


def _exact_issues(scenario, tables, tol):
    """validate_behavior's normalization and no-disturbance issues of the
    integer form `tables` = (den, nums) of a behavior: a deviation
    dev / den exceeds the Fraction tol = t / u exactly when
    dev * u > t * den."""
    den, nums = tables
    limit = tol.numerator * den
    ctxs = scenario.contexts
    norm_issues = []
    for ctx, row in zip(ctxs, nums):
        dev = abs(sum(row) - den)
        if dev * tol.denominator > limit:
            norm_issues.append((ctx, Fraction(dev, den)))
    shapes = [tuple(scenario.radices[m] for m in ctx) for ctx in ctxs]
    nd_issues = []
    for a, b, shared in _overlaps(ctxs):
        ta = _marginal(nums[a], shapes[a], tuple(map(ctxs[a].index, shared)))
        tb = _marginal(nums[b], shapes[b], tuple(map(ctxs[b].index, shared)))
        worst = max(abs(x - y) for x, y in zip(ta, tb))
        if worst * tol.denominator > limit:
            nd_issues.append((ctxs[a], ctxs[b], shared, Fraction(worst, den)))
    return norm_issues, nd_issues


def evaluate(inequality, behavior):
    """Value of the inequality functional on a behavior; exact in rational
    mode."""
    check_inequality(behavior.scenario, inequality)
    exact = behavior.mode == "rational"
    total = Fraction(0) if exact else 0.0
    tables = {}  # one pass over a context table per distinct sub-context
    for members, asg, coef in inequality.terms:
        if members not in tables:
            tables[members] = behavior.prob_table(members)
        p = tables[members].get(asg)
        if p:  # zero and absent events add nothing
            total += (coef if exact else float(coef)) * p
    return total


# -- behavior constructors ----------------------------------------------------

def uniform_behavior(scenario, mode="rational"):
    tables = {}
    for ctx, grid in zip(scenario.contexts, scenario.grids):
        p = Fraction(1, len(grid)) if mode == "rational" else 1.0 / len(grid)
        tables[ctx] = {asg: p for asg in grid}
    return Behavior(scenario, mode, tables)


def deterministic_behavior(scenario, assignment, mode="rational"):
    """Behavior of one global valuation: every context table is the
    indicator of the restricted assignment."""
    one = Fraction(1) if mode == "rational" else 1.0
    zero = Fraction(0) if mode == "rational" else 0.0
    tables = {}
    for ctx, grid in zip(scenario.contexts, scenario.grids):
        want = tuple(assignment[m] for m in ctx)
        tables[ctx] = {asg: (one if asg == want else zero) for asg in grid}
    return Behavior(scenario, mode, tables)


def mix_behaviors(behaviors, weights):
    """Convex mixture; all behaviors must share scenario and mode."""
    first = behaviors[0]
    if first.mode == "rational":
        weights = [frac(w) for w in weights]
    s = first.scenario
    tables = {}
    for ctx, grid in zip(s.contexts, s.grids):
        tab = {}
        for asg in grid:
            tab[asg] = sum(w * b.table(ctx)[asg] for w, b in zip(weights, behaviors))
        tables[ctx] = tab
    return Behavior(s, first.mode, tables)
