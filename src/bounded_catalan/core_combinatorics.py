"""Ground-truth enumeration for 132-avoiding permutations with bounded gaps.

Everything in this module is computed by direct combinatorial means:
pruned exhaustive backtracking over permutations, binomial closed forms,
and the Catalan-triangle distribution of the first entry of a 132-avoider.
These routines form the oracle layer that the finite-state machinery is
cross-checked against, so they deliberately trade speed for obviousness.

A permutation is any sequence of the integers 1..n in one-line notation;
the empty sequence is the (unique) permutation of length 0.  Endpoint
thresholds are nonnegative integers or ``math.inf`` (vacuous bound).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, inf
from typing import Iterator, Sequence

DEFAULT_ORACLE_CAP = 11


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
    """Yield all 132-avoiding permutations of 1..n, optionally m-bounded.

    Pruned backtracking: a prefix is extended only while it is 132-free,
    and when ``m`` is given only unused values within ``m`` of the last
    entry are tried.  Appending ``v`` to a prefix creates a 132 pattern
    exactly when some position j has min(prefix[:j]) < v < prefix[j], so
    the check is a single scan maintaining the running minimum.

    ``min_first`` restricts the first entry (used for endpoint bounds).
    """
    if n == 0:
        yield ()
        return
    prefix: list[int] = []
    used = [False] * (n + 1)

    def creates_132(v: int) -> bool:
        lo = prefix[0]
        for x in prefix[1:]:
            if lo < v < x:
                return True
            if x < lo:
                lo = x
        return False

    def extend() -> Iterator[tuple[int, ...]]:
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


def _check_threshold(t, m: int, name: str) -> None:
    if t == inf:
        return
    if not isinstance(t, int) or not 0 <= t <= m - 1:
        raise ValueError(f"{name} must be in {{0,...,{m - 1}}} or inf, got {t!r}")


def brute_force_count(
    m: int,
    n: int,
    p=inf,
    q=inf,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> int:
    """Exhaustively count length-n 132-avoiding m-bounded permutations with
    endpoint deficiencies n - first <= p and n - last <= q.

    ``inf`` makes a bound vacuous.  n = 0 is only defined for the fully
    unrestricted count (both thresholds inf), where the empty permutation
    contributes 1; the endpoint-restricted counts start at n = 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_threshold(p, m, "p")
    _check_threshold(q, m, "q")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        if p == inf and q == inf:
            return 1
        raise ValueError("endpoint-restricted counts are defined only for n >= 1")
    if n > oracle_cap:
        raise OracleCapError(f"n={n} exceeds the oracle cap {oracle_cap}")
    min_first = 1 if p == inf else max(1, n - p)
    count = 0
    for perm in iter_constrained_avoiders(n, m, min_first=min_first):
        if q == inf or n - perm[-1] <= q:
            count += 1
    return count


@lru_cache(maxsize=None)
def catalan(k: int) -> int:
    """The k-th Catalan number comb(2k, k) // (k + 1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return comb(2 * k, k) // (k + 1)


@lru_cache(maxsize=None)
def c_kp(k: int, p) -> int:
    """Number of admissible left blocks of length k-1 under first-entry bound p.

    This counts 132-avoiders sigma of length k-1 with k - sigma[0] <= p;
    for k = 1 there is exactly one (empty) block for every p.  Computed by
    the first-entry distribution over 132-avoiders (a Catalan triangle):

        c_kp = sum_{d=1}^{min(p, k-1)} (d / (k-1)) * comb(2k - d - 3, k - 2)

    with c_kp = catalan(k-1) once p >= k-1 or p = inf.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if p != inf and (not isinstance(p, int) or p < 0):
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

    Each row runs the Catalan-triangle sum of ``c_kp`` as prefix sums over
    d, so the table costs O(m^2) binomials instead of the O(m^3) that m^2
    separate ``c_kp`` calls would.  ``c_kp`` stays the oracle it is
    checked against.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rows = [(1,) * (m + 1)]
    for k in range(2, m + 1):
        row = [0]
        total = 0
        for p in range(1, k - 1):
            total += p * comb(2 * k - p - 3, k - 2)
            quotient, remainder = divmod(total, k - 1)
            assert remainder == 0, "Catalan-triangle sum must be divisible by k-1"
            row.append(quotient)
        rows.append(tuple(row) + (catalan(k - 1),) * (m + 2 - k))
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
