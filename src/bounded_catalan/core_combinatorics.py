"""Ground-truth enumeration for 132-avoiding permutations with bounded gaps.

Everything in this module is computed by direct combinatorial means:
exhaustive walks over permutations, binomial closed forms, and the
Catalan-triangle distribution of the first entry of a 132-avoider.
These routines form the oracle layer that the finite-state machinery is
cross-checked against, so they deliberately trade speed for obviousness.

``brute_force_count`` walks the generating tree of the m-bounded
132-avoiders (West, "Generating trees and the Catalan and Schroder
numbers", Discrete Math. 146, 1995).  The parent of a permutation is the
permutation with its last entry deleted and the rest standardised;
deleting the last entry creates no 132 and widens no gap, so every
m-bounded 132-avoider has a parent of the same kind, and a walk down from
(1) reaches each one exactly once.  A child appends v and raises the
parent's entries >= v by one; it is excluded when v lies in an interval
(min of an earlier prefix, later entry], which would complete a 132, or
within m above the lower end of a gap of exactly m, which raising would
widen.  Every permutation counted is still reached on its own, as a node
or, at the last level, as one bit of its parent's mask of children; the
oracle stays an exhaustive enumeration, not a formula.
``iter_constrained_avoiders`` lists the permutations themselves by a
lexicographic prefix search, which cuts a prefix as soon as an unused
value lies inside a 132 interval, where it can never be placed; it is
the reference the walk is tested against.

A permutation is any sequence of the integers 1..n in one-line notation;
the empty sequence is the (unique) permutation of length 0.  Endpoint
thresholds are nonnegative integers or ``math.inf`` (vacuous bound).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb, inf
from typing import Iterator, Sequence

DEFAULT_ORACLE_CAP = 11
# Ceiling of the cap: the full oracle to n = 14 at m = 30 (every 132-avoider
# is 30-bounded, catalan(14) of them at n = 14) takes 3.2-4.6 s cold on a
# 2-core Intel Xeon (Python 3.11, four runs), and each further n costs
# about four times more.
MAX_ORACLE_CAP = 14


class OracleCapError(ValueError):
    """Raised when a brute-force enumeration is requested above the cap."""


def _check_permutation(perm: Sequence[int]) -> None:
    n = len(perm)
    if set(perm) != set(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm!r}")


def is_132_avoiding(perm: Sequence[int]) -> bool:
    """True iff no indices i<j<k have perm[i] < perm[k] < perm[j].

    Brute O(n^3) scan; this is the oracle definition, not a fast check.
    """
    _check_permutation(perm)
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[j] <= perm[i]:
                continue
            for k in range(j + 1, n):
                if perm[i] < perm[k] < perm[j]:
                    return False
    return True


def is_m_bounded(perm: Sequence[int], m: int) -> bool:
    """True iff every adjacent difference satisfies |perm[i+1]-perm[i]| <= m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_permutation(perm)
    return all(abs(b - a) <= m for a, b in zip(perm, perm[1:]))


def iter_constrained_avoiders(
    n: int, m: int | None = None, min_first: int = 1
) -> Iterator[tuple[int, ...]]:
    """Yield all 132-avoiding permutations of 1..n, optionally m-bounded,
    in lexicographic order.

    Pruned backtracking over prefixes; when ``m`` is given only unused
    values within ``m`` of the last entry are tried.  A later entry w
    completes a 132 exactly when min(prefix[:j]) < w < prefix[j] for some
    position j, so an unused value inside such an interval can never be
    placed, and a prefix that leaves one is dead.  The search keeps the
    unused values as a bitmask and descends only into live prefixes.  On
    a live prefix no unused value lies in any interval, so appending v
    creates no 132, and the child stays live exactly when no unused value
    lies strictly between lo = min(prefix) and v (the one new interval,
    present when v > lo).  Only prefixes that yield nothing are cut.

    ``min_first`` restricts the first entry (used for endpoint bounds).
    """
    prefix: list[int] = []

    def extend(unused: int, lo: int) -> Iterator[tuple[int, ...]]:
        if not unused:
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
            bit = 1 << v
            # dead when an unused value lies in (lo, v): bits lo+1..v-1
            if not unused & bit or (v > lo and unused & (bit - (2 << lo))):
                continue
            prefix.append(v)
            yield from extend(unused ^ bit, min(lo, v))
            prefix.pop()

    # bits 1..n; lo = n + 1 gives the first entry no interval
    yield from extend((1 << (n + 1)) - 2, n + 1)


def _check_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _check_threshold(t, m: int, name: str) -> None:
    if t == inf:
        return
    if isinstance(t, bool) or not isinstance(t, int) or not 0 <= t <= m - 1:
        raise ValueError(f"{name} must be in {{0,...,{m - 1}}} or inf, got {t!r}")


def _tree_levels(m: int, n: int, p, q) -> tuple[int, ...]:
    """The nodes at each depth 0..n of the generating tree of m-bounded
    132-avoiders whose first and last entries meet p and q: one walk down
    to depth n counts every shallower level on the way (depth 0, the
    empty permutation, counts 1).  Arguments are not checked; see
    brute_force_count.

    A node is the permutation of length L held as: its first and last
    entries, lo = its minimum, ``bad`` = the 132 mask (bit v set when v
    lies in (min(perm[:j]), perm[j]] for some j), and ``wide[t]`` = the
    lower ends of its adjacent pairs of size m - t (slack t), for the
    t <= n-1-L whose pairs can still reach size m before depth n.
    """

    def walk(length, first, last, lo, bad, wide):
        # the children v in 1..length+1, within m of the raised last entry
        top = min(length + 1, last + m)
        ok = ((2 << top) - (1 << max(1, last + 1 - m))) & ~bad
        ends = wide[0]
        while ends:  # a pair of size m with lower end a bars a < v <= a+m
            low = ends & -ends
            ends ^= low
            ok &= ~((low << (m + 1)) - (low << 1))
        if length - first == p:  # the first-entry deficiency may not grow
            ok &= (2 << first) - 1
        # the children are the nodes at depth length + 1; q bars the
        # children v < length + 1 - q
        levels[length + 1] += (ok & (-1 << max(length + 1 - q, 0)) if q != inf else ok).bit_count()
        if length == n - 1:
            return
        cap = min(n - 2 - length, m - 1)  # the slacks t the child keeps
        while ok:
            bit = ok & -ok
            ok ^= bit
            v = bit.bit_length() - 1
            below = bit - 1
            # raise the entries >= v: mask bits at or above v move up one
            child_bad = (bad & below) | ((bad >> v) << (v + 1))
            if v > lo:  # the new interval (lo, v]
                child_bad |= (bit << 1) - (2 << lo)
            child_wide = [0] * (cap + 1)
            for t, ends in enumerate(wide):
                if not ends:
                    continue
                # the pairs a < v <= a + (m-t) widen by one: slack t-1 (none
                # at t = 0, where v would be barred)
                split = ends & (bit - (1 << max(v - m + t, 0)))
                if split:
                    child_wide[t - 1] |= split
                if t <= cap:
                    rest = ends ^ split
                    child_wide[t] |= (rest & below) | ((rest >> v) << (v + 1))
            prev = last + 1 if last >= v else last
            t = m - abs(prev - v)  # the new pair (prev, v)
            if t <= cap:
                child_wide[t] |= 1 << min(prev, v)
            walk(
                length + 1,
                first + 1 if first >= v else first,
                v,
                min(lo, v),
                child_bad,
                child_wide,
            )

    levels = [1] * min(n + 1, 2) + [0] * (n - 1)
    if n >= 2:
        walk(1, 1, 1, 1, 0, [0] * (min(n - 2, m - 1) + 1))
    return tuple(levels)


def brute_force_count(
    m: int,
    n: int,
    p=inf,
    q=inf,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    *,
    levels: bool = False,
):
    """Exhaustively count length-n 132-avoiding m-bounded permutations with
    endpoint deficiencies n - first <= p and n - last <= q.

    With ``levels=True`` the same walk returns the tuple of counts for
    every length 0..n instead, entry 0 being the empty permutation's 1.

    ``inf`` makes a bound vacuous.  n = 0 is only defined for the fully
    unrestricted count (both thresholds inf), where the empty permutation
    contributes 1; the endpoint-restricted counts start at n = 1.
    n above ``oracle_cap`` raises ``OracleCapError``, and ``oracle_cap``
    above ``MAX_ORACLE_CAP`` raises ``ValueError``; so does an ``m``,
    ``n`` or ``oracle_cap`` that is not an int, or a threshold that is
    neither an int nor inf (a bool included in both).

    The count walks the generating tree: the parent of a permutation of
    length L+1 is that permutation with its last entry deleted and the
    rest standardised.  Deleting the last entry creates no 132 and widens
    no adjacent gap, so the parent of an m-bounded 132-avoider is one, and
    the walk down from (1) meets each exactly once.  A child appends v and
    raises every parent entry >= v by one.  Besides keeping the new last
    gap within m, v must avoid two sets, both kept as bitmasks:

    * an interval (min(perm[:j]), perm[j]] for some j, since v would
      complete a 132;
    * a range a < v <= a+m above the lower end a of an adjacent pair of
      size exactly m, which raising would widen to m+1.

    Raising shifts the mask bits at or above v up by one, and the pairs
    that v splits move up one size.  The first-entry deficiency never
    falls along a path, so p cuts whole subtrees; q is tested on the
    leaves at depth n, which are counted as the set bits of their
    parent's mask of children.
    """
    for name, value in (("m", m), ("n", n), ("oracle_cap", oracle_cap)):
        _check_int(name, value)
    if m < 1:
        raise ValueError("m must be >= 1")
    if oracle_cap > MAX_ORACLE_CAP:
        raise ValueError(f"oracle_cap={oracle_cap} exceeds the ceiling {MAX_ORACLE_CAP}")
    _check_threshold(p, m, "p")
    _check_threshold(q, m, "q")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        if p == inf and q == inf:
            return (1,) if levels else 1
        raise ValueError("endpoint-restricted counts are defined only for n >= 1")
    if n > oracle_cap:
        raise OracleCapError(f"n={n} exceeds the oracle cap {oracle_cap}")
    counts = _tree_levels(m, n, p, q)
    return counts if levels else counts[n]


@lru_cache(maxsize=None)
def catalan(k: int) -> int:
    """The k-th Catalan number comb(2k, k) // (k + 1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return comb(2 * k, k) // (k + 1)


# typed: a key equal to a cached one but of another type, such as
# (3, 1.0) or (3, True) after (3, 1), must reach the checks.
@lru_cache(maxsize=None, typed=True)
def c_kp(k: int, p) -> int:
    """Number of admissible left blocks of length k-1 under first-entry bound p.

    This counts 132-avoiders sigma of length k-1 with k - sigma[0] <= p;
    for k = 1 there is exactly one (empty) block for every p.  Computed by
    the first-entry distribution over 132-avoiders (a Catalan triangle):

        c_kp = sum_{d=1}^{min(p, k-1)} (d / (k-1)) * comb(2k - d - 3, k - 2)

    with c_kp = catalan(k-1) once p >= k-1 or p = inf.  A k that is not
    an int, or a p that is neither an int nor inf, raises ValueError (a
    bool included).
    """
    _check_int("k", k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if p != inf and (isinstance(p, bool) or not isinstance(p, int) or p < 0):
        raise ValueError(f"p must be a nonnegative integer or inf, got {p!r}")
    if k == 1:
        return 1
    if p == inf or p >= k - 1:
        return catalan(k - 1)
    if p == 0:
        return 0
    total = sum(d * comb(2 * k - d - 3, k - 2) for d in range(1, p + 1))
    quotient, remainder = divmod(total, k - 1)
    assert remainder == 0, "Catalan-triangle sum must be divisible by k-1"
    return quotient


def c_kp_table(m: int) -> tuple[tuple[int, ...], ...]:
    """The values c_kp(k, p) for k = 1..m (rows) and p = 0, ..., m-1, inf
    (columns, inf last).

    The terms e(k, d) = c_kp(k, d) - c_kp(k, d-1) of the Catalan-triangle
    sum of ``c_kp`` (d = 1..k-1) satisfy e(k, k-1) = 1 and
    e(k, d) = e(k-1, d-1) + e(k, d+1), with e(k-1, 0) = 0, so row k of e
    is a suffix sum of row k-1 and row k of the table a prefix sum of
    row k of e: O(m^2) additions and no binomial.  ``c_kp`` stays the
    oracle it is checked against.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rows = [(1,) * (m + 1)]
    e = [1]  # e(2, 1)
    for k in range(2, m + 1):
        if k > 2:
            e = list(accumulate(reversed([0, *e])))[::-1]
        c = list(accumulate(e))  # c_kp(k, p) for p = 1..k-1
        rows.append((0, *c[:-1]) + (c[-1],) * (m + 2 - k))
    return tuple(rows)


def block_construction_count(m: int, n: int) -> int:
    """Size of the block-construction family: catalan(m-1) ** (n // (m+1)).

    A lower bound for the unrestricted count, obtained by permuting the
    interior of consecutive length-(m+1) blocks of a decreasing sequence.
    Used only for inequality checks.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return catalan(m - 1) ** (n // (m + 1))
