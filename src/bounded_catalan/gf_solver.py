"""Exact counts, generating functions, and recurrences from the state system.

Two independent exact routes are provided.  ``dp_counts`` runs the
finite-state recursion directly on big integers, filling the table of
endpoint-restricted counts bottom-up.  ``solve_system`` and
``generating_function`` instead solve the polynomial linear system
(I - W(x)) F = x * 1 over rational functions, component by component in
topological order, so only blocks of cyclic-component size are ever
eliminated.  The two routes are cross-checked against each other (and
against brute force) in the test suite.

``generating_function`` only solves the states from which the output
state (inf, inf) is reachable; ``solve_system`` solves everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf

from .core_combinatorics import c_kp
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

__all__ = [
    "CountTable",
    "Recurrence",
    "dp_counts",
    "solve_system",
    "generating_function",
    "recurrence",
    "recurrence_order_bound",
    "SingularBlockError",
]


@dataclass
class CountTable:
    """Endpoint-restricted counts T[(p, q)][n] for 1 <= n <= n_max.

    Index 0 of each list is a zero placeholder; the length-1 count is 1
    for every state (the single permutation of length 1 satisfies every
    threshold pair).
    """

    m: int
    n_max: int
    values: dict[State, list[int]]

    def unrestricted(self) -> list[int]:
        """The sequence a_0..a_n_max, with a_0 = 1 for the empty permutation."""
        return [1] + self.values[(inf, inf)][1:]


def dp_counts(m: int, n_max: int) -> CountTable:
    """Fill the count table by the finite-state recursion.

    T[(p,q)](n) = sum_{k=1}^{min(m, n-1)} c_kp(k, p) T[(m-k, q-k)](n-k)
                  + T[(p-1, m-1)](n-1)

    with negative thresholds contributing zero and inf - k = inf.
    """
    if m < 1 or n_max < 1:
        raise ValueError("need m >= 1 and n_max >= 1")
    states = [(p, q) for p in list(range(m)) + [inf] for q in list(range(m)) + [inf]]
    table: dict[State, list[int]] = {s: [0] * (n_max + 1) for s in states}
    for s in states:
        table[s][1] = 1
    coeff = {(k, p): c_kp(k, p) for k in range(1, m + 1) for p in list(range(m)) + [inf]}
    for n in range(2, n_max + 1):
        for p, q in states:
            total = 0
            for k in range(1, min(m, n - 1) + 1):
                q_shift = q - k
                if q_shift != inf and q_shift < 0:
                    continue
                c = coeff[(k, p)]
                if c:
                    total += c * table[(m - k, q_shift)][n - k]
            p_shift = p - 1
            if p_shift == inf or p_shift >= 0:
                total += table[(p_shift, m - 1)][n - 1]
            table[(p, q)][n] = total
    return CountTable(m=m, n_max=n_max, values=table)


@dataclass(frozen=True)
class Recurrence:
    """Constant-coefficient recurrence a_n = sum_j lag_coeffs[j-1] * a_{n-j}.

    Read off the reduced denominator 1 - sum_j c_j x^j; valid for every
    n >= valid_from.
    """

    order: int
    lag_coeffs: tuple[Fraction, ...]
    valid_from: int

    def extend(self, prefix: list, steps: int) -> list:
        """Continue a sequence whose length is at least valid_from."""
        if len(prefix) < self.valid_from:
            raise ValueError("prefix shorter than valid_from")
        seq = list(prefix)
        for _ in range(steps):
            n = len(seq)
            value = sum(c * seq[n - j] for j, c in enumerate(self.lag_coeffs, start=1))
            if isinstance(value, Fraction) and value.denominator == 1:
                value = int(value)
            seq.append(value)
        return seq[len(prefix):]


# ---------------------------------------------------------------------------
# Component-by-component exact solve of (I - W) F = x * 1
# ---------------------------------------------------------------------------


def _solve_states(sys: StateSystem, wanted: set[State]):
    """Solve the linear system for all states the wanted ones depend on.

    Returns (solution, dets) where solution maps each solved state to a
    pair (numerator, den_ids): the state generating function equals
    numerator / prod(dets[i] for i in den_ids).  Numerators and the
    registered component determinants are integer polynomials; no gcd
    reduction happens here, the factored denominators are exact by
    construction.
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
        nums, den_core, _ = _solve_sparse_int(rows, rhs)
        dets[ci] = den_core
        ids = den_ids | {ci}
        for s, num in zip(comp.members, nums):
            solution[s] = (num, ids)
    return solution, dets


def _to_rational(num: list, den_ids: frozenset, dets: dict) -> RationalFn:
    den = [1]
    for i in den_ids:
        den = _mul_i(den, dets[i])
    return rf_reduce(ExactPoly(num), ExactPoly(den))


def solve_system(sys: StateSystem) -> dict[State, RationalFn]:
    """All (m+1)^2 endpoint-state generating functions, reduced.

    Solves component by component in topological order; within a cyclic
    component the small polynomial system is eliminated fraction-free.
    """
    solution, dets = _solve_states(sys, set(sys.states))
    return {s: _to_rational(num, ids, dets) for s, (num, ids) in solution.items()}


@lru_cache(maxsize=None)
def generating_function(m: int) -> RationalFn:
    """The reduced rational generating function of the unrestricted counts.

    Solves only the states from which (inf, inf) is reachable and adds
    the empty permutation: A(x) = 1 + F_{inf,inf}(x).
    """
    sys = build_system(m)
    solution, dets = _solve_states(sys, {sys.output_state})
    num, ids = solution[sys.output_state]
    den = [1]
    for i in ids:
        den = _mul_i(den, dets[i])
    return rf_reduce(ExactPoly(_add_i(den, num)), ExactPoly(den))


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
    seq = dp_counts(m, valid_from + 50).unrestricted()
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
