"""Exact counts, generating functions, and recurrences from the state system.

Two independent exact routes are provided.  ``dp_counts`` runs the
finite-state recursion directly on big integers, filling the table of
endpoint-restricted counts bottom-up in one sweep over n on
integer-indexed states.  It uses the identity c_kp(k, p) = catalan(k-1)
for k <= p+1: all thresholds p of a state column share one running
Catalan prefix sum, and only the tail k > p+1 needs its own c_kp
product.  Given wanted states it sweeps only their closure under the
recursion's own source rule; a_n needs (m+1)(m+2)/2 states, and only two
of their columns (q = m-1 and q = inf) carry a tail, so the products per
n fall from about m^3/6 to about m^2.  A state of a finite column q is
its column's Catalan prefix sum (the column top) plus its append term,
so the sweep keeps the tops, not those states: the sweep for a_n at
m = 30 holds at most 1,456 counts (delay lines for the columns q = m-1
and q = inf, and the tops), against 5,922 in delay lines for every swept
state and (m+1)(m+2)/2 * (n+1) in full rows.  It takes its
coefficients from ``c_kp`` and ``catalan`` alone, and its closure from
that source rule, never from ``build_system``, ``c_kp_table`` or
``dependency_closure``, so it stays independent of the state-system
route it checks.  ``solve_system`` and ``generating_function`` instead
solve the polynomial linear system (I - W(x)) F = x * 1 over rational
functions, component by component in topological order, so only blocks
of cyclic-component size are ever solved, each by one packed solve
(``_solve_sparse_int``).  The two routes are cross-checked against each
other (and against brute force) in the test suite.

``generating_function`` only solves the states from which the output
state (inf, inf) is reachable; ``solve_system`` solves everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import inf
from operator import add, getitem, mul

from .core_combinatorics import _check_int, _check_threshold, c_kp, catalan
from .polynomial_algebra import (
    ExactPoly,
    RationalFn,
    SingularBlockError,
    _mul_i,
    _add_i,
    _solve_sparse_int,
    rf_reduce,
)
from .state_system import State, StateSystem, build_system, dependency_closure

# Largest m for the exact generating function: a cold ``gf --m 14`` takes
# about 0.3 s, ``--m 16`` about 1.1 s and ``--m 21`` about 21 s on a 2-core
# Intel Xeon (Python 3.11, single runs), and each further m costs about
# 1.5 times more.
MAX_GF_M = 21

__all__ = [
    "CountTable",
    "Recurrence",
    "dp_counts",
    "solve_system",
    "generating_function",
    "recurrence",
    "recurrence_order_bound",
    "check_gf_range",
    "MAX_GF_M",
    "SingularBlockError",
]


@dataclass
class CountTable:
    """Endpoint-restricted counts T[(p, q)][n] for 1 <= n <= n_max, on the
    states asked of ``dp_counts``.

    ``values`` holds the full row of each wanted state, in sweep order;
    ``swept`` names every state the sweep filled (the closure of the
    wanted states under the recursion's source rule), in sweep order.
    Index 0 of each row is a zero placeholder; the length-1 count is 1
    for every state (the single permutation of length 1 satisfies every
    threshold pair).
    """

    m: int
    n_max: int
    values: dict[State, list[int]]
    swept: tuple[State, ...]

    def unrestricted(self) -> list[int]:
        """The sequence a_0..a_n_max, with a_0 = 1 for the empty permutation."""
        row = self.values.get((inf, inf))
        if row is None:
            raise ValueError("(inf, inf) was not swept; list it in the states of dp_counts")
        return [1] + row[1:]


# The recursion's source rule on state indices p_idx * (m+1) + q_idx, inf at
# index m: (p, q) reads the column sources of q and, when p >= 1, (p-1, m-1).


def _column_sources(m: int, q: int) -> list[int]:
    """(m-k, q-k) for k = 1..q_idx: while q-k >= 0, or all k if q = inf."""
    return [(m - k) * (m + 1) + (q - k if q < m else m) for k in range(1, q + 1)]


def _append_source(m: int, p: int) -> int:
    """(p-1, m-1) for p_idx >= 1, with inf - 1 = inf."""
    return (p - 1 if p < m else m) * (m + 1) + m - 1


def _source_closure(m: int, targets) -> list[int]:
    """Sorted indices of ``targets`` and of every state their counts read."""
    seen: set[int] = set()
    stack = list(targets)
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        p, q = divmod(i, m + 1)
        stack.extend(_column_sources(m, q))
        if p:
            stack.append(_append_source(m, p))
    return sorted(seen)


def dp_counts(m: int, n_max: int, states=None) -> CountTable:
    """Fill the count table by the finite-state recursion.

    T[(p,q)](n) = sum_{k=1}^{min(m, n-1)} c_kp(k, p) T[(m-k, q-k)](n-k)
                  + T[(p-1, m-1)](n-1)

    with negative thresholds contributing zero and inf - k = inf.

    ``states`` lists the wanted states; ``values`` holds exactly their
    rows 0..n_max, and ``swept`` the states the sweep fills to compute
    them: the wanted ones and every state they depend on.  ``None`` means
    every state.  For [(inf, inf)] the sweep fills (m+1)(m+2)/2 of the
    (m+1)^2 states: (p, inf) for all p, (p, m-1) for p != m-1 and the
    finite p > q.

    The table is swept over n.  State (p, q) is row p_idx * (m+1) + q_idx
    with inf at index m, and each column q lists its source rows
    (m-k, q-k), k = 1, 2, ..., once, so the sweep does no state hashing
    and no threshold tests.  Since c_kp(k, p) = catalan(k-1) for
    k <= p+1, every p of a column shares one running prefix
    sum_{k<=j} catalan(k-1) g_k of the column's source values g_k; only
    the tail k > p+1 takes its own c_kp(k, p).  That cuts the big-integer
    products per n from about m^3/2 to about m^3/6 on every state, and to
    about m^2 on the closure of (inf, inf), where only the columns q = m-1
    and q = inf have a tail.  The coefficients come from ``c_kp`` and
    ``catalan`` alone, never from the state system, so this route stays
    an independent check of ``generating_function``.

    A column source (m-k, q-k) of a finite column q has no tail, since
    q-k < m-k+1, so its count is top_{q-k}(n-k) + B_k(n), where
    top_j(L) = sum_k catalan(k-1) T[(m-k, j-k)](L-k) is the column top
    and B_k(n) = T[(m-k-1, m-1)](n-k-1) its append term.  So per n the
    sweep forms one prefix over k of catalan(k-1) B_k(n), shared by every
    finite column, and one dot product per finite column q along the
    diagonal top_{q-k}(n-k), k = 1..q, for its top; it keeps the tops by
    diagonal until the column m-1 has read them.  Counts are written out
    only for the swept states of the columns q = m-1 and q = inf, each in
    a delay line: such a state (p, q) is read at lag m-p (as a column
    source, or as B_{m-p-1}) and at lag 1 (as the append source
    (p-1, m-1)), so it keeps a ring of max(m-p, 1) + 1 slots indexed by n
    mod its size (2 for p = inf).  A wanted state of a finite column is
    rebuilt as its top plus its append term, or, with a tail (p < q-1),
    from the same sources.  Only the wanted states keep full rows.  For
    [(inf, inf)] the sweep holds at most 1,456 counts + n_max + 1 at
    m = 30 and 5,611 + n_max + 1 at m = 60, against 5,922 and 41,542 in
    delay lines for every swept state and (m+1)(m+2)/2 * (n_max+1) for
    full rows.
    """
    for name, value in (("m", m), ("n_max", n_max)):
        _check_int(name, value)
    if m < 1 or n_max < 1:
        raise ValueError("need m >= 1 and n_max >= 1")
    width = m + 1
    thresholds = list(range(m)) + [inf]
    names = [(p, q) for p in thresholds for q in thresholds]
    if states is None:
        wanted = set(range(len(names)))
    else:
        wanted = set()
        for state in states:
            try:
                p, q = state
            except (TypeError, ValueError):
                raise ValueError(f"a state is a pair (p, q), got {state!r}") from None
            _check_threshold(p, m, "p")
            _check_threshold(q, m, "q")
            wanted.add(thresholds.index(p) * width + thresholds.index(q))
    swept = _source_closure(m, wanted)
    # the explicit states: the closure's columns q = m-1 and q = inf.  The
    # delay line of (p, q): ring[n % size[p_idx]] = T(n), read back at
    # most max(m-p, 1) lengths; slot 1 holds T(1) = 1
    size = [max(m - p, 1) + 1 for p in range(m)] + [2]
    rings = {i: [0, 1] + [0] * (size[i // width] - 2) for i in swept if i % width >= m - 1}
    # every target of p_idx adds T[(p-1, m-1)](n-1), inf - 1 = inf, from the
    # ring shift_rings[p_idx] of size shift_size[p_idx]; p = 0 (and a p_idx
    # with no swept target) reads zeros
    zeros = [0] * width
    shift_rings = [zeros] + [rings.get(_append_source(m, p), zeros) for p in range(1, width)]
    shift_size = [1] + size[: m - 1] + [2]
    # B_k(n) = T[(m-k-1, m-1)](n-k-1), k = 1..m-1: the append term of the
    # finite source (m-k, q-k); its ring has k+2 slots.  Either every one
    # of these states is swept or no column top is read (a swept finite
    # state of a column q >= 1 sweeps (m-1, q-1), hence (m-2, m-1), hence
    # every source of the column m-1 and each of their append terms).
    b_rings = [rings.get((m - k - 1) * width + m - 1, zeros) for k in range(1, m)]
    # the sources of the column inf: (m-k, inf), read at lag k
    inf_src = [rings.get((m - k) * width + m, zeros) for k in range(1, m + 1)]
    # each explicit column: q_idx and its swept targets (ring, p_idx, j, tail),
    # where the column reads g_k for k = 1..kmax, the target's count is
    # prefix_j + sum_k tail[k] g_k + its append term, j = min(p+1, kmax),
    # and tail lists c_kp(k, p) for k = kmax down to p+2
    columns = []
    for q, kmax in ((m - 1, m - 1), (m, m)):
        col = [
            (rings[i], p, min(p + 1, kmax), [c_kp(k, p) for k in range(kmax, p + 1, -1)])
            for p in range(width)
            if (i := p * width + q) in rings
        ]
        if col:
            columns.append((q, col))
    # the tops of the finite columns by diagonal: tops[d][j] = top_j(d + j)
    # for the columns j = 0..m-2, where top_j(L) is the Catalan prefix sum
    # of the column j at length L (1 at L = 1, 0 below); a diagonal is
    # read until it holds every column
    tops = {1 - j: [0] * j + [1] for j in range(m - 1)}
    rows = {i: [0, 1] for i in swept if i in wanted}
    # each wanted state: (its row, its ring or None, p_idx, q_idx, the
    # c_kp of its tail or None); a finite-column state without a tail is
    # its column top plus the append term
    kept = []
    for i, row in rows.items():
        p, q = divmod(i, width)
        tail = None
        if q < m - 1 and p < q - 1:
            tail = [c_kp(k, p) for k in range(1, q + 1)]
        kept.append((row, rings.get(i), p, q, tail))
    prefix_coeffs = [catalan(k - 1) for k in range(1, m + 1)]
    reversed_coeffs = [prefix_coeffs[:q][::-1] for q in range(m)]
    for n in range(2, n_max + 1):
        # slot of T(n) in each p_idx's ring, and the append term
        # T[(p-1, m-1)](n-1) of each p_idx; a ring of k+1 (k+2) slots holds
        # lengths n-k..n (n-k-1..n), and reads of lengths <= 0 find zeros
        put = [n % r for r in size]
        shift = list(map(getitem, shift_rings, [(n - 1) % r for r in shift_size]))
        b = [ring[(n - k - 1) % (k + 2)] for k, ring in enumerate(b_rings, start=1)]
        pre = [0, *accumulate(map(mul, prefix_coeffs, b))]
        tops[n] = []
        for q in range(m - 1):
            diagonal = tops[n - q]
            diagonal.append(sum(map(mul, reversed_coeffs[q], diagonal)) + pre[q])
        for q, col in columns:
            if q == m:
                g = [ring[(n - k) % (k + 1)] for k, ring in enumerate(inf_src, start=1)]
            else:
                # the finite source (m-k, m-1-k) is top_{m-1-k}(n-k) + B_k(n)
                g = list(map(add, reversed(tops.pop(n - m + 1, [])), b))
            prefix = [0, *accumulate(map(mul, prefix_coeffs, g))]
            g.reverse()
            for ring, p, j, tail in col:
                ring[put[p]] = prefix[j] + sum(map(mul, tail, g)) + shift[p]
        for row, ring, p, q, tail in kept:
            if ring is not None:
                row.append(ring[put[p]])
            elif tail is None:
                row.append(tops[n - q][q] + shift[p])
            else:
                diagonal = tops[n - q]
                g = list(map(add, reversed(diagonal[:q]), b))
                row.append(sum(map(mul, tail, g)) + shift[p])
        tops.pop(n - m + 1, None)
    values = {names[i]: row for i, row in rows.items()}
    return CountTable(m=m, n_max=n_max, values=values, swept=tuple(names[i] for i in swept))


@dataclass(frozen=True)
class Recurrence:
    """Constant-coefficient recurrence a_n = sum_j lag_coeffs[j-1] * a_{n-j}.

    Read off the reduced denominator 1 - sum_j c_j x^j; valid for every
    n >= valid_from.
    """

    order: int
    lag_coeffs: tuple[int, ...]
    valid_from: int

    def extend(self, prefix: list, steps: int) -> list:
        """Continue a sequence whose length is at least valid_from."""
        if len(prefix) < self.valid_from:
            raise ValueError("prefix shorter than valid_from")
        seq = list(prefix)
        order = len(self.lag_coeffs)
        for _ in range(steps):
            # lag_coeffs[j-1] * a_{n-j} for j = 1..order, a_{n-j} = 0 for n < j
            seq.append(sum(map(mul, self.lag_coeffs, reversed(seq[max(len(seq) - order, 0) :]))))
        return seq[len(prefix):]


# ---------------------------------------------------------------------------
# Component-by-component exact solve of (I - W) F = x * 1
# ---------------------------------------------------------------------------


def _solve_states(sys: StateSystem, wanted: set[State]):
    """Solve the linear system for all states the wanted ones depend on.

    Returns (solution, dets) where solution maps each solved state to a
    pair (numerator, den_ids): the state generating function equals
    numerator / prod(dets[i] for i in den_ids).  Numerators and the
    registered denominators dets[i] are integer polynomials; no gcd
    reduction happens here.  Each cyclic block is solved once by
    _solve_sparse_int, whose certificate proves the ratios nums / den of
    its solution; only those ratios are used.  Its den is +-det of the
    block whenever the packed slot held it, which the certificate does
    not prove.
    """
    closure = dependency_closure(sys, [sys.index[s] for s in wanted])
    ptr, src, deg = sys.pred_ptr.tolist(), sys.pred_src.tolist(), sys.pred_deg.tolist()
    coeff = [sys.coeffs[c] for c in sys.pred_cidx.tolist()]
    dets: dict[int, list] = {}
    solution: dict[State, tuple[list, frozenset]] = {}

    def combine(terms: list[tuple[list, frozenset]], den_ids: frozenset) -> list:
        total: list = []
        for num, ids in terms:
            for extra in den_ids - ids:
                num = _mul_i(num, dets[extra])
            total = _add_i(total, num)
        return total

    for ci, comp in enumerate(sys.sccs):
        member_idx = [sys.index[s] for s in comp.members]
        if not closure[member_idx[0]]:
            continue
        local = {i: j for j, i in enumerate(member_idx)}
        rhs_terms: list[list[tuple[list, frozenset]]] = []
        den_ids: frozenset = frozenset()
        rows: list[dict[int, list]] = []
        for t_i in member_idx:
            terms = [([0, 1], frozenset())]  # the x from the length-1 count
            row = {local[t_i]: [1]}
            for e in range(ptr[t_i], ptr[t_i + 1]):
                s_i, degree = src[e], deg[e]
                monomial = [0] * degree + [coeff[e]]
                if s_i in local:
                    j = local[s_i]
                    cur = row.get(j, [])
                    entry = [0] * degree + [-coeff[e]]
                    row[j] = _add_i(cur, entry)
                else:
                    num, ids = solution[sys.states[s_i]]
                    terms.append((_mul_i(monomial, num), ids))
                    den_ids = den_ids | ids
            rhs_terms.append(terms)
            rows.append(row)
        rhs = [combine(terms, den_ids) for terms in rhs_terms]
        if not comp.cyclic:
            solution[comp.members[0]] = (rhs[0], den_ids)
            continue
        nums, den_core = _solve_sparse_int(rows, rhs)
        dets[ci] = den_core
        ids = den_ids | {ci}
        for s, num in zip(comp.members, nums):
            solution[s] = (num, ids)
    return solution, dets


def _den_product(den_ids: frozenset, dets: dict) -> list:
    """The product of the component determinants dets[i], i in den_ids."""
    den = [1]
    for i in den_ids:
        den = _mul_i(den, dets[i])
    return den


def _to_rational(num: list, den_ids: frozenset, dets: dict) -> RationalFn:
    return rf_reduce(ExactPoly(num), ExactPoly(_den_product(den_ids, dets)))


def solve_system(sys: StateSystem) -> dict[State, RationalFn]:
    """All (m+1)^2 endpoint-state generating functions, reduced.

    Solves component by component in topological order; within a cyclic
    component the small polynomial system is eliminated fraction-free.
    """
    solution, dets = _solve_states(sys, set(sys.states))
    return {s: _to_rational(num, ids, dets) for s, (num, ids) in solution.items()}


def check_gf_range(m: int) -> None:
    """Raise ValueError for m > MAX_GF_M, where the exact solve would run
    for minutes."""
    if m > MAX_GF_M:
        raise ValueError(
            f"m={m} exceeds MAX_GF_M={MAX_GF_M}, the largest m whose exact "
            "generating function is solved within a minute"
        )


@lru_cache(maxsize=None)
def _output_solution(m: int) -> tuple[list, list, tuple[list, ...]]:
    """(num, den, factors) with F_{inf,inf} = num / den and den the product
    of the factors, the determinants of the cyclic components that the
    output state depends on.  Cached per m, so generating_function and
    denominator_factors share one solve."""
    sys = build_system(m)
    solution, dets = _solve_states(sys, {sys.output_state})
    num, ids = solution[sys.output_state]
    return num, _den_product(ids, dets), tuple(dets[i] for i in sorted(ids))


@lru_cache(maxsize=None)
def generating_function(m: int) -> RationalFn:
    """The reduced rational generating function of the unrestricted counts.

    Solves only the states from which (inf, inf) is reachable and adds
    the empty permutation: A(x) = 1 + F_{inf,inf}(x).  Raises ValueError
    for m > MAX_GF_M before any work (see check_gf_range).
    """
    check_gf_range(m)
    num, den, _ = _output_solution(m)
    return rf_reduce(ExactPoly(_add_i(den, num)), ExactPoly(den))


def denominator_factors(m: int) -> tuple[ExactPoly, ...]:
    """The factors whose product is the unreduced denominator of A(x): one
    per cyclic component that (inf, inf) depends on, in component order.

    Each is the denominator that its block's certified solve returned
    (see _solve_states); the reduced denominator of A(x) divides their
    product.  Shares the solve of generating_function.
    """
    check_gf_range(m)
    return tuple(ExactPoly(f) for f in _output_solution(m)[2])


def recurrence(m: int) -> Recurrence:
    """The recurrence read off the reduced denominator of A(x).

    With den = 1 - sum_j c_j x^j the coefficients satisfy
    a_n = sum_j c_j a_{n-j} for every n >= valid_from, where valid_from =
    max(deg num + 1, deg den).  The result is verified against the direct
    count recursion for 50 further terms before being returned.
    """
    gf = generating_function(m)
    den = gf.den.coeffs
    if den[0] != 1:
        raise AssertionError("reduced denominator must have constant term 1")
    coeffs = tuple(-c for c in den[1:])
    order = len(coeffs)
    valid_from = max(gf.num.degree + 1, order)
    rec = Recurrence(order=order, lag_coeffs=coeffs, valid_from=valid_from)
    seq = dp_counts(m, valid_from + 50, [(inf, inf)]).unrestricted()
    replay = rec.extend(seq[:valid_from], 50)
    if replay != seq[valid_from : valid_from + 50]:
        raise AssertionError("recurrence fails to reproduce the count recursion")
    return rec


def recurrence_order_bound(m: int) -> int:
    """Degree bound for the system determinant: m^2 + m(m-1)(m+2)/2 + 1.

    The bound comes from the sizes of the cyclic components (m for the
    all-inf column, (m-1)(m+2)/2 for the finite block, 1 for the
    self-loop singleton) times the maximal entry degree m.  For m = 1 the
    sequence is eventually constant, so the order is 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return 1
    return m * m + m * (m - 1) * (m + 2) // 2 + 1
