import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksatlas._kernels import best_assignment, maximizers, scope_tables
from ksatlas.errors import BudgetExceeded


def value_of(combo, terms):
    return sum(c for members, outs, c in terms
               if all(combo[m] == o for m, o in zip(members, outs)))


def brute(radices, terms):
    return max(value_of(combo, terms)
               for combo in itertools.product(*(range(r) for r in radices)))


def brute_maximizers(radices, terms):
    best = brute(radices, terms)
    return {combo for combo in itertools.product(*(range(r) for r in radices))
            if value_of(combo, terms) == best}


def face(radices, terms, budget=None, limit=None):
    """best_assignment's maximum and maximizers' rows as a set of tuples;
    the rows must be distinct."""
    best, elimination = best_assignment(radices, terms, budget)
    digits = maximizers(radices, elimination, limit)
    rows = list(zip(*(d.tolist() for d in digits)))
    assert len(set(rows)) == len(rows)
    return best, set(rows)


def random_instance(rng):
    n = int(rng.integers(1, 8))
    radices = [int(rng.integers(2, 4)) for _ in range(n)]
    terms = []
    for _ in range(int(rng.integers(1, 10))):
        k = int(rng.integers(1, min(3, n) + 1))
        members = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        outs = tuple(int(rng.integers(0, radices[m])) for m in members)
        terms.append((members, outs, int(rng.integers(-6, 7))))
    return radices, terms


def test_kernel_paths_agree_with_brute_force():
    rng = np.random.default_rng(43)
    for _ in range(30):
        radices, terms = random_instance(rng)
        best, rows = face(radices, terms)
        assert best == brute(radices, terms)
        assert rows == brute_maximizers(radices, terms)


@st.composite
def instances(draw):
    radices = draw(st.lists(st.integers(2, 4), min_size=1, max_size=6))
    n = len(radices)
    coef = st.one_of(
        st.integers(-6, 6),
        st.integers(1, 9).map(lambda k: k << 62),
        st.integers(-(1 << 70), 1 << 70),
    )
    scopes = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=min(4, n), unique=True),
        min_size=1, max_size=6))
    terms = []
    for members in scopes:
        # every scope repeats: once in draw order, once permuted
        for order in (members, sorted(members, reverse=True)):
            outs = tuple(draw(st.integers(0, radices[m] - 1)) for m in order)
            terms.append((tuple(order), outs, draw(coef)))
    return radices, terms


@settings(max_examples=200, deadline=None)
@given(instances())
def test_elimination_matches_brute_force(instance):
    radices, terms = instance
    best, rows = face(radices, terms)
    assert best == brute(radices, terms)
    assert rows == brute_maximizers(radices, terms)


def test_wide_coefficients_stay_exact():
    big = (1 << 62) + 1
    terms = [((0,), (1,), big), ((0, 1), (1, 1), big), ((1,), (1,), -1)]
    best, rows = face([2, 2], terms)
    assert best == 2 * big - 1
    assert isinstance(best, int) and rows == {(1, 1)}
    # a tie past int64: both outcomes of measurement 1 stay
    tie = [((0,), (1,), big), ((0, 1), (1, 0), big), ((0, 1), (1, 1), big)]
    assert face([2, 2], tie) == (2 * big, {(1, 0), (1, 1)})


def test_unmentioned_measurements_take_every_outcome():
    best, rows = face([3, 2, 3], [((1,), (1,), 5)])
    assert best == 5 and rows == {(a, 1, c) for a in range(3) for c in range(3)}
    # the empty inequality: every assignment, in mixed-radix order
    best, elimination = best_assignment([2, 3], [])
    assert (best, elimination) == (0, [])
    digits = maximizers([2, 3], elimination)
    assert list(zip(*(d.tolist() for d in digits))) == list(itertools.product(range(2), range(3)))


def test_scope_tables_drop_zero_tables_and_widen_past_int64():
    # the same event written in two member orders cancels to a zero table
    cancel = [((0, 1), (1, 0), 2), ((1, 0), (0, 1), -2)]
    narrow = scope_tables([2, 2], cancel + [((1,), (1,), 5)])
    assert list(narrow) == [(1,)] and narrow[(1,)].dtype == np.int64
    wide = scope_tables([2, 2], cancel + [((1,), (1,), 1 << 62)])
    assert list(wide) == [(1,)] and wide[(1,)].dtype == object
    assert wide[(1,)].tolist() == [0, 1 << 62]


def test_budget_caps_the_largest_table():
    # every pair of 8 dichotomic measurements shares a term, so the
    # first elimination already joins all of them: a 2^8-entry table
    n = 8
    terms = [((a, b), (1, 1), 1 + a + b) for a, b in itertools.combinations(range(n), 2)]
    best, _ = best_assignment([2] * n, terms, 1 << 8)
    assert best == sum(c for _, _, c in terms)
    with pytest.raises(BudgetExceeded):
        best_assignment([2] * n, terms, (1 << 8) - 1)


def test_sparse_terms_stay_under_a_small_budget():
    # a 40-measurement chain: 2^40 assignments, elimination tables of 4
    n = 40
    terms = [((i, i + 1), (i % 2, (i + 1) % 2), 1) for i in range(n - 1)]
    best, rows = face([2] * n, terms, 4)
    assert best == n - 1
    assert rows == {tuple(i % 2 for i in range(n))}


def test_face_past_the_limit_is_refused():
    # one term on a 30-measurement chain: 2^28 maximizers, refused from the
    # free measurements' outcome counts before a digit array is built
    n = 30
    best, elimination = best_assignment([2] * n, [((0, 1), (1, 1), 1)])
    with pytest.raises(BudgetExceeded):
        maximizers([2] * n, elimination, limit=1 << 20)
    # ties found during the walk count too: x0 + x1 + x2 - 2 per pair of
    # ones is maximal (1) at the 3 assignments with exactly one 1
    terms = [((i,), (1,), 1) for i in range(3)] + [
        ((i, j), (1, 1), -2) for i, j in itertools.combinations(range(3), 2)]
    best, elimination = best_assignment([2] * 3, terms)
    assert best == 1
    assert len(maximizers([2] * 3, elimination, limit=3)[0]) == 3
    with pytest.raises(BudgetExceeded):
        maximizers([2] * 3, elimination, limit=2)
