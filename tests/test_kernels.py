import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksatlas._kernels import best_assignment, decode_assignment, scope_tables
from ksatlas.errors import BudgetExceeded


def value_at(radices, terms, index):
    combo = decode_assignment(index, radices)
    return sum(c for members, outs, c in terms
               if all(combo[m] == o for m, o in zip(members, outs)))


def brute(radices, terms):
    best = None
    for combo in itertools.product(*(range(r) for r in radices)):
        v = sum(c for members, outs, c in terms
                if all(combo[m] == o for m, o in zip(members, outs)))
        if best is None or v > best:
            best = v
    return best


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
        best, index = best_assignment(radices, terms)
        assert best == brute(radices, terms)
        assert value_at(radices, terms, index) == best


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
    best, index = best_assignment(radices, terms)
    assert best == brute(radices, terms)
    assert 0 <= index < int(np.prod(radices))
    assert value_at(radices, terms, index) == best


def test_wide_coefficients_stay_exact():
    big = (1 << 62) + 1
    terms = [((0,), (1,), big), ((0, 1), (1, 1), big), ((1,), (1,), -1)]
    best, index = best_assignment([2, 2], terms)
    assert best == 2 * big - 1
    assert isinstance(best, int) and decode_assignment(index, [2, 2]) == [1, 1]


def test_unmentioned_measurements_take_outcome_zero():
    best, index = best_assignment([3, 2, 3], [((1,), (1,), 5)])
    assert best == 5 and decode_assignment(index, [3, 2, 3]) == [0, 1, 0]
    assert best_assignment([2, 2], []) == (0, 0)


def test_scope_tables_drop_zero_tables_and_widen_past_int64():
    # the same event written in two member orders cancels to a zero table
    cancel = [((0, 1), (1, 0), 2), ((1, 0), (0, 1), -2)]
    narrow = scope_tables([2, 2], cancel + [((1,), (1,), 5)])
    assert list(narrow) == [(1,)] and narrow[(1,)].dtype == np.int64
    wide = scope_tables([2, 2], cancel + [((1,), (1,), 1 << 62)])
    assert list(wide) == [(1,)] and wide[(1,)].dtype == object
    assert wide[(1,)].tolist() == [0, 1 << 62]


def test_repeated_measurement_in_a_term():
    terms = [((0, 0), (1, 1), 3), ((1, 0, 1), (1, 0, 0), 7), ((0, 1), (0, 1), 1)]
    assert best_assignment([2, 2], terms)[0] == brute([2, 2], terms) == 3


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
    best, index = best_assignment([2] * n, terms, 4)
    assert best == n - 1
    assert value_at([2] * n, terms, index) == best


def test_decode_assignment_round_trip():
    radices = [2, 3, 2]
    for idx in range(12):
        digits = decode_assignment(idx, radices)
        back = 0
        for d, r in zip(digits, radices):
            back = back * r + d
        assert back == idx
