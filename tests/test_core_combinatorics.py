"""Oracle-layer tests: pattern checks, brute counts, closed forms."""

import itertools
from functools import lru_cache
from math import comb, inf

import pytest

from bounded_catalan.core_combinatorics import (
    MAX_ORACLE_CAP,
    OracleCapError,
    block_construction_count,
    brute_force_count,
    c_kp,
    catalan,
    is_132_avoiding,
    is_m_bounded,
    iter_constrained_avoiders,
)
from bounded_catalan.gf_solver import dp_counts


def test_is_132_avoiding_trivia():
    assert not is_132_avoiding([1, 3, 2])
    assert is_132_avoiding([])
    assert is_132_avoiding([1])
    assert is_132_avoiding([3, 1, 2])


def test_is_132_avoiding_counts_catalan_on_s4():
    hits = sum(
        1 for p in itertools.permutations(range(1, 5)) if is_132_avoiding(p)
    )
    assert hits == 14 == catalan(4)


def test_is_m_bounded():
    assert is_m_bounded([3, 1, 2], 2)
    assert not is_m_bounded([1, 4, 2, 3], 2)
    assert is_m_bounded([1], 1)
    assert is_m_bounded([], 1)


def test_rejects_non_permutations():
    with pytest.raises(ValueError):
        is_132_avoiding([1, 1, 2])
    with pytest.raises(ValueError):
        is_m_bounded([0, 1], 1)


def test_brute_force_goldens():
    assert brute_force_count(2, 4) == 8
    assert brute_force_count(3, 4) == 14
    assert brute_force_count(2, 5) == 12
    assert brute_force_count(2, 1, 0, 0) == 1


def test_brute_force_n0_convention():
    assert brute_force_count(2, 0) == 1
    with pytest.raises(ValueError):
        brute_force_count(2, 0, 1, inf)
    with pytest.raises(ValueError):
        brute_force_count(2, 0, inf, 0)


def test_brute_force_cap():
    with pytest.raises(OracleCapError):
        brute_force_count(2, 12)
    assert brute_force_count(2, 12, oracle_cap=12) == 157


def test_brute_force_rejects_cap_above_ceiling():
    with pytest.raises(ValueError, match="ceiling"):
        brute_force_count(2, 3, oracle_cap=MAX_ORACLE_CAP + 1)
    assert brute_force_count(2, 3, oracle_cap=MAX_ORACLE_CAP) == 5


def reference_avoiders(n, m=None, min_first=1):
    """The prefix-scanning generator that the pruned search replaced, kept as its oracle.

    It extends every 132-free prefix, dead or not, and checks each new
    entry by a scan of the prefix with a running minimum.
    """
    if n == 0:
        yield ()
        return
    prefix = []
    used = [False] * (n + 1)

    def creates_132(v):
        lo = prefix[0]
        for x in prefix[1:]:
            if lo < v < x:
                return True
            if x < lo:
                lo = x
        return False

    def extend():
        if len(prefix) == n:
            yield tuple(prefix)
            return
        if not prefix:
            candidates = range(min_first, n + 1)
        elif m is not None:
            prev = prefix[-1]
            candidates = range(max(1, prev - m), min(n, prev + m) + 1)
        else:
            candidates = range(1, n + 1)
        for v in candidates:
            if used[v] or (prefix and creates_132(v)):
                continue
            used[v] = True
            prefix.append(v)
            yield from extend()
            prefix.pop()
            used[v] = False

    yield from extend()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, None])
def test_pruned_search_matches_reference_generator(m):
    for n in range(10):
        for min_first in range(1, n + 2):
            expected = list(reference_avoiders(n, m, min_first))
            assert list(iter_constrained_avoiders(n, m, min_first)) == expected, (n, min_first)


@pytest.mark.parametrize(
    "m, n", [(2, True), (True, 4), (2, 2.5), (2.0, 4), ("2", 4), (2, None), (False, 3)]
)
def test_brute_force_rejects_non_integer_sizes(m, n):
    with pytest.raises(ValueError, match="must be an int"):
        brute_force_count(m, n)


def thresholds(m):
    return list(range(m)) + [inf]


def endpoint_count(perms, n, p, q):
    """How many of ``perms`` have n - first <= p and n - last <= q."""
    return sum(
        1 for s in perms if (p == inf or n - s[0] <= p) and (q == inf or n - s[-1] <= q)
    )


@lru_cache(maxsize=None)
def definition_avoiders(n):
    """The 132-avoiders of length n, filtered from all n! permutations."""
    return [s for s in itertools.permutations(range(1, n + 1)) if is_132_avoiding(s)]


@pytest.mark.parametrize("m", range(1, 7))
def test_brute_force_matches_the_definition(m):
    """The generating-tree walk against the definition, every threshold pair;
    with ``levels=True`` one walk to n = 8 gives every shorter count too."""
    levels = {(p, q): [1] for p in thresholds(m) for q in thresholds(m)}
    for n in range(1, 9):
        perms = [s for s in definition_avoiders(n) if is_m_bounded(s, m)]
        for p in thresholds(m):
            for q in thresholds(m):
                assert brute_force_count(m, n, p, q) == endpoint_count(perms, n, p, q), (n, p, q)
                levels[p, q].append(endpoint_count(perms, n, p, q))
    for (p, q), counts in levels.items():
        assert brute_force_count(m, 8, p, q, levels=True) == tuple(counts), (p, q)
    assert brute_force_count(m, 0) == 1
    assert brute_force_count(m, 0, levels=True) == (1,)


@pytest.mark.parametrize("m", range(1, 8))
def test_brute_force_matches_the_prefix_search(m):
    """The walk against the endpoint distribution of iter_constrained_avoiders."""
    for n in range(1, 11):
        ends = {}
        for s in iter_constrained_avoiders(n, m):
            ends[s[0], s[-1]] = ends.get((s[0], s[-1]), 0) + 1
        for p in thresholds(m):
            for q in thresholds(m):
                expected = sum(
                    c
                    for (first, last), c in ends.items()
                    if (p == inf or n - first <= p) and (q == inf or n - last <= q)
                )
                assert brute_force_count(m, n, p, q) == expected, (n, p, q)


def test_brute_force_unbounded_gaps_count_catalan():
    # at m = 30 no gap of a permutation of length <= 12 can exceed m
    assert [brute_force_count(30, n, oracle_cap=12) for n in range(13)] == [
        catalan(n) for n in range(13)
    ]


def test_brute_force_differential_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        m = draw(st.integers(1, 10))
        n = draw(st.integers(1, 9))
        pick = st.sampled_from(thresholds(m))
        return m, n, draw(pick), draw(pick)

    @settings(max_examples=150, deadline=None)
    @given(cases())
    def check(case):
        m, n, p, q = case
        perms = list(iter_constrained_avoiders(n, m))
        assert brute_force_count(m, n, p, q) == endpoint_count(perms, n, p, q)

    check()


def test_brute_force_threshold_validation():
    with pytest.raises(ValueError):
        brute_force_count(2, 3, 2, inf)  # finite thresholds live in 0..m-1
    with pytest.raises(ValueError):
        brute_force_count(2, 3, -1, inf)


@pytest.mark.parametrize(
    "fn, args, kwargs",
    [
        (brute_force_count, (2, 5, True), {}),
        (brute_force_count, (2, 5, inf, False), {}),
        (brute_force_count, (2, 5), {"oracle_cap": 5.5}),
        (brute_force_count, (2, 1), {"oracle_cap": True}),
        (dp_counts, (2, 5, [(True, False)]), {}),
        (c_kp, (3, True), {}),
        (c_kp, (3, 1.0), {}),
        (c_kp, (3.0, 1), {}),
        (c_kp, (True, 1), {}),
    ],
    ids=[
        "oracle-p-bool",
        "oracle-q-bool",
        "oracle-cap-float",
        "oracle-cap-bool",
        "dp-threshold-bool",
        "c_kp-p-bool",
        "c_kp-p-float",
        "c_kp-k-float",
        "c_kp-k-bool",
    ],
)
def test_rejects_bool_and_float_arguments(fn, args, kwargs):
    # c_kp's cache holds (3, 1) and (1, 1), which equal the bad keys above:
    # an equal key of another type must still reach the checks
    assert c_kp(3, 1) == 1 and c_kp(1, 1) == 1
    with pytest.raises(ValueError):
        fn(*args, **kwargs)


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(4) == 14
    # independent oracle: the binomial formula evaluated directly
    assert catalan(9) == comb(18, 9) // 10 == 4862


def test_c_kp_goldens():
    assert c_kp(1, 0) == 1
    assert c_kp(1, inf) == 1
    for k in range(2, 8):
        assert c_kp(k, 0) == 0
    assert c_kp(3, 1) == 1
    assert c_kp(3, 2) == 2
    assert c_kp(3, inf) == 2


@pytest.mark.parametrize("k", range(1, 10))
def test_c_kp_matches_enumeration(k):
    # direct enumeration of Av_{k-1}(132), same generator with gaps disabled
    avoiders = list(iter_constrained_avoiders(k - 1, None))
    assert len(avoiders) == catalan(k - 1)
    for p in list(range(k + 1)) + [inf]:
        if k == 1:
            direct = 1
        else:
            direct = sum(1 for s in avoiders if p == inf or k - s[0] <= p)
        assert c_kp(k, p) == direct, (k, p)


def test_c_kp_monotone_and_saturates():
    for k in range(2, 10):
        values = [c_kp(k, p) for p in range(k + 2)]
        assert values == sorted(values)
        for p in range(k - 1, k + 2):
            assert c_kp(k, p) == catalan(k - 1)


def test_block_construction_goldens():
    assert block_construction_count(3, 8) == 4  # catalan(2) ** 2
    assert block_construction_count(2, 2) == 1
    for m in range(1, 6):
        assert block_construction_count(m, 0) == 1


@pytest.mark.parametrize("m", range(1, 6))
def test_brute_force_sandwich(m):
    for n in range(11):
        a_n = brute_force_count(m, n)
        assert block_construction_count(m, n) <= a_n <= catalan(n)


def test_brute_force_monotone_in_m():
    for m in range(1, 5):
        for n in range(9):
            assert brute_force_count(m, n) <= brute_force_count(m + 1, n)
