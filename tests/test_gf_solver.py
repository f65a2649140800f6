"""Count recursion, exact linear solve, recurrences, and cross-agreement."""

import hashlib
import sys
import tracemalloc
import types
from fractions import Fraction
from math import inf

import pytest

from bounded_catalan import core_combinatorics, gf_solver, state_system
from bounded_catalan.core_combinatorics import c_kp, iter_constrained_avoiders
from bounded_catalan.gf_solver import (
    dp_counts,
    generating_function,
    recurrence,
    recurrence_order_bound,
    solve_system,
)
from bounded_catalan.polynomial_algebra import (
    ExactPoly,
    RationalFn,
    rf_reduce,
    series_coeffs,
)
from bounded_catalan.state_system import build_system

A2_SEQ = [1, 1, 2, 5, 8, 12, 18, 26, 37, 53, 76, 109]
A3_SEQ = [1, 1, 2, 5, 14, 28, 55, 108, 214, 412, 787, 1497, 2841, 5364, 10088]

N3 = ExactPoly([1, -1, -1, 1, 4, 0, -4, -3, -3, -5, -3, 2, 2])
D3 = ExactPoly([1, -2, -1, 1, 1, 2, 2, 2, -4, -2, 1, -2, 0, 1])


def test_dp_goldens():
    table = dp_counts(2, 12)
    assert table.unrestricted()[:12] == A2_SEQ
    table3 = dp_counts(3, 14)
    assert table3.unrestricted() == A3_SEQ
    assert table3.values[(inf, inf)][14] == 10088


def test_dp_length_one_counts():
    for m in (1, 2, 3, 4):
        table = dp_counts(m, 3)
        for state, row in table.values.items():
            assert row[1] == 1, state


def test_dp_validates_arguments():
    with pytest.raises(ValueError):
        dp_counts(0, 5)
    with pytest.raises(ValueError):
        dp_counts(2, 0)


@pytest.mark.parametrize("m, n_max", [(3, 2.5), (3, True), (True, 5), (2.0, 5), ("3", 5), (3, None)])
def test_dp_rejects_non_integer_sizes(m, n_max):
    with pytest.raises(ValueError, match="must be an int"):
        dp_counts(m, n_max)


def reference_dp_counts(m, n_max):
    """The dict-keyed count recursion that ``dp_counts`` replaced, kept as its oracle."""
    states = [(p, q) for p in list(range(m)) + [inf] for q in list(range(m)) + [inf]]
    table = {s: [0] * (n_max + 1) for s in states}
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
    return table


@pytest.mark.parametrize("m, n_max", [(m, 60) for m in range(1, 13)] + [(30, 120)])
def test_dp_matches_reference_recursion(m, n_max):
    values = dp_counts(m, n_max).values
    reference = reference_dp_counts(m, n_max)
    assert list(values) == list(reference)
    for state, row in reference.items():
        assert values[state] == row, (m, state)


def test_dp_matches_reference_recursion_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 15), st.integers(1, 80))
    def check(m, n_max):
        assert dp_counts(m, n_max).values == reference_dp_counts(m, n_max)

    check()


def code_names(code):
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= code_names(const)
    return names


def test_dp_independent_of_state_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("dp_counts must not read the state system")

    # patch every binding, by-name imports included
    forbidden = (state_system.build_system, core_combinatorics.c_kp_table)
    for module in (core_combinatorics, state_system, gf_solver):
        for name, value in list(vars(module).items()):
            if any(value is f for f in forbidden):
                monkeypatch.setattr(module, name, refuse)
    assert dp_counts(3, 14).unrestricted() == A3_SEQ
    for name in code_names(gf_solver.dp_counts.__code__):
        target = getattr(gf_solver, name, None)
        assert getattr(target, "__module__", None) != state_system.__name__, name
        assert target is not refuse, name


def test_dp_golden_m30():
    seq = dp_counts(30, 300).unrestricted()
    digest = hashlib.sha256(",".join(map(str, seq)).encode()).hexdigest()
    assert digest == "c97034e02bba90f7ff709a673dd4bdddf5396ef73d9298f8871c920f0c5e6d58"


def test_dp_golden_m30_closure_sweep():
    seq = dp_counts(30, 300, [(inf, inf)]).unrestricted()
    digest = hashlib.sha256(",".join(map(str, seq)).encode()).hexdigest()
    assert digest == "c97034e02bba90f7ff709a673dd4bdddf5396ef73d9298f8871c920f0c5e6d58"


def source_rule(m, p, q):
    """The states that the count of (p, q) reads, by the recursion."""
    sources = [(m - k, q - k) for k in range(1, (m if q == inf else q) + 1)]
    if p == inf or p >= 1:
        sources.append((p - 1, m - 1))
    return sources


def source_closure(m, wanted):
    """The wanted states and every state they read, by ``source_rule``."""
    seen, stack = set(), list(wanted)
    while stack:
        state = stack.pop()
        if state not in seen:
            seen.add(state)
            stack.extend(source_rule(m, *state))
    return seen


@pytest.mark.parametrize("m", range(1, 13))
def test_dp_output_closure_matches_full_table(m):
    full = dp_counts(m, 40).values
    closure = dp_counts(m, 40, [(inf, inf)]).swept
    assert len(closure) == (m + 1) * (m + 2) // 2
    # the closure itself as the wanted states keeps every closure row
    table = dp_counts(m, 40, closure)
    assert table.swept == closure
    assert list(table.values) == list(closure)
    for state, row in table.values.items():
        assert row == full[state], (m, state)
    # the closure named in the docstring: (p, inf), (p, m-1) for p != m-1, finite p > q
    expected = {(p, q) for p in range(m) for q in range(m) if p > q}
    expected |= {(p, m - 1) for p in list(range(m - 1)) + [inf]}
    expected |= {(p, inf) for p in list(range(m)) + [inf]}
    assert set(closure) == expected
    assert list(closure) == [s for s in full if s in closure]  # same state order


@pytest.mark.parametrize("m", range(1, 9))
def test_dp_output_closure_is_the_state_system_closure(m):
    swept = dp_counts(m, 2, [(inf, inf)]).swept
    for p, q in swept:
        assert set(source_rule(m, p, q)) <= set(swept), (p, q)
    sys_m = build_system(m)
    mask = state_system.dependency_closure(sys_m, [sys_m.index[sys_m.output_state]])
    assert set(swept) == {s for s, hit in zip(sys_m.states, mask) if hit}


def test_dp_closure_sweep_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def wanted_sets(draw):
        m = draw(st.integers(1, 12))
        thresholds = list(range(m)) + [inf]
        pairs = st.tuples(st.sampled_from(thresholds), st.sampled_from(thresholds))
        return m, draw(st.lists(pairs, min_size=1, max_size=6))

    @settings(max_examples=40, deadline=None)
    @given(wanted_sets(), st.integers(1, 40))
    def check(case, n_max):
        m, wanted = case
        full = dp_counts(m, n_max).values
        table = dp_counts(m, n_max, wanted)
        swept = table.swept
        assert set(wanted) <= set(swept)
        assert set(table.values) == set(wanted)
        rows = dp_counts(m, n_max, swept).values
        for p, q in swept:
            assert set(source_rule(m, p, q)) <= set(swept), (p, q)
            assert rows[(p, q)] == full[(p, q)], (m, p, q)

    check()


@pytest.mark.parametrize("m", range(1, 13))
def test_dp_window_matches_reference_every_short_length(m):
    """Every n_max up to 3(m+1): below the ring, at its first wrap, and past it."""
    top = 3 * (m + 1)
    reference = reference_dp_counts(m, top)
    for n_max in range(1, top + 1):
        for wanted in ([(inf, inf)], [(0, 0)]):
            table = dp_counts(m, n_max, wanted)
            assert table.values == {s: reference[s][: n_max + 1] for s in wanted}, (m, n_max)
            closure = source_closure(m, wanted)
            assert table.swept == tuple(s for s in reference if s in closure)


def test_dp_window_differential_hypothesis():
    """Windowed sweep == the dict recursion == the full table, on random wanted sets."""
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        m = draw(st.integers(1, 12))
        n_max = draw(st.integers(1, 3 * (m + 1)))
        thresholds = list(range(m)) + [inf]
        pairs = st.tuples(st.sampled_from(thresholds), st.sampled_from(thresholds))
        wanted = draw(st.lists(pairs, min_size=1, max_size=8))
        return m, n_max, wanted + draw(st.lists(st.sampled_from(wanted), max_size=3))

    @settings(max_examples=60, deadline=None)
    @given(cases())
    @example((1, 2, [(0, 0)]))  # a ring of 2; the closure is the state alone
    @example((1, 1, [(inf, inf), (inf, inf)]))
    @example((4, 4, [(0, 0), (3, 1), (0, 0)]))  # n_max = m
    @example((4, 5, [(inf, inf), (2, inf)]))  # n_max = m+1: the ring wraps once
    @example((12, 39, [(11, 10), (inf, 11), (0, 0)]))
    def check(case):
        m, n_max, wanted = case
        reference = reference_dp_counts(m, n_max)
        full = dp_counts(m, n_max).values
        table = dp_counts(m, n_max, wanted)
        closure = source_closure(m, wanted)
        assert table.swept == tuple(s for s in reference if s in closure)
        assert list(table.values) == [s for s in table.swept if s in set(wanted)]
        for state, row in table.values.items():
            assert row == reference[state] == full[state], (m, n_max, state)

    check()


def traced_peak(fn, *args):
    """tracemalloc peak of fn(*args) above the memory traced before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_dp_memory_is_the_ring():
    """tracemalloc peak of the a_n sweep stays within rings of m+1.

    The sweep holds at most m+1 counts for each of the (m+1)(m+2)/2
    swept states and n_max+1 for the wanted (inf, inf); each is a list
    slot of 8 bytes and an int below 4^n_max (a count of length n is at
    most the Catalan number C_n < 4^n).  Twice that covers the transient
    prefix sums and the list and dict headers.  Full rows for every swept
    state peak near ten times the ring.
    """
    m, n_max = 10, 200
    held = (m + 1) * (m + 2) // 2 * (m + 1) + n_max + 1
    bound = 2 * held * (sys.getsizeof(4**n_max) + 8)
    peak = traced_peak(dp_counts, m, n_max, [(inf, inf)])
    assert peak <= bound, (peak, bound)


def delay_line(m, p):
    """The counts a swept state (p, q) keeps: its reads reach back m-p and 1."""
    return 2 if p == inf else max(m - p, 1) + 1


def test_dp_memory_is_the_delay_lines():
    """tracemalloc peak of the a_n sweep stays within its delay lines.

    The sweep holds delay_line(m, p) counts for each swept state and
    n_max+1 for the wanted (inf, inf), at the same size per count and the
    same factor of two as ``test_dp_memory_is_the_ring``.  At (30, 60)
    that is 5,922 + 61 counts and a bound of 0.59 MiB; the sweep peaks
    near 0.41 MiB, and rings of m+1 for every swept state (15,376 counts)
    near 0.83 MiB.
    """
    m, n_max = 30, 60
    swept = dp_counts(m, 2, [(inf, inf)]).swept
    lines = sum(delay_line(m, p) for p, _ in swept)
    assert lines == 5922
    held = lines + n_max + 1
    bound = 2 * held * (sys.getsizeof(4**n_max) + 8)
    peak = traced_peak(dp_counts, m, n_max, [(inf, inf)])
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("m", range(1, 13))
def test_dp_delay_lines_match_reference_every_short_length(m):
    """Every state wanted, every n_max up to 3(m+1): each delay line of
    size max(m-p, 1) + 1 fills, wraps once and wraps again."""
    top = 3 * (m + 1)
    reference = reference_dp_counts(m, top)
    for n_max in range(1, top + 1):
        table = dp_counts(m, n_max)
        assert table.values == {s: row[: n_max + 1] for s, row in reference.items()}, n_max


@pytest.mark.parametrize("bad", [[(3, inf)], [(inf, -1)], [(1.5, 0)], [("1", 0)], [inf], [(0, 1, 2)]])
def test_dp_rejects_bad_states(bad):
    with pytest.raises(ValueError):
        dp_counts(3, 5, bad)


def test_unrestricted_needs_the_output_state():
    table = dp_counts(3, 5, [(0, 1)])
    assert (inf, inf) not in table.values
    with pytest.raises(ValueError, match="not swept"):
        table.unrestricted()


def test_solve_system_state_goldens_m2():
    sol = solve_system(build_system(2))
    x = ExactPoly([0, 1])
    one_minus_x = ExactPoly([1, -1])
    p2 = ExactPoly([1, -1, 0, -1])
    assert sol[(0, 1)] == RationalFn(x, one_minus_x)
    assert sol[(1, 0)] == RationalFn(x, one_minus_x)
    assert sol[(inf, 1)] == RationalFn(x, one_minus_x ** 2)
    assert sol[(1, inf)] == rf_reduce(ExactPoly([0, 1, 0, 1, -1]), one_minus_x * p2)
    assert sol[(0, inf)] == rf_reduce(x * ExactPoly([1, -1, 1]), one_minus_x * p2)
    assert len(sol) == 9


def test_generating_function_goldens():
    assert generating_function(1) == RationalFn(ExactPoly([1, 0, 1]), ExactPoly([1, -1]))
    g2 = generating_function(2)
    assert g2.num == ExactPoly([1, -2, 2, 0, -1, 0, -1])
    assert g2.den == ExactPoly([1, -1]) ** 2 * ExactPoly([1, -1, 0, -1])
    g3 = generating_function(3)
    assert g3.num == N3
    assert g3.den == D3


def test_generating_function_agrees_with_full_solve():
    for m in (1, 2, 3, 4):
        sys_m = build_system(m)
        sol = solve_system(sys_m)
        f = sol[sys_m.output_state]
        a = rf_reduce(f.num + f.den, f.den)
        assert a == generating_function(m)


def test_recurrence_goldens():
    r3 = recurrence(3)
    assert r3.order == 13
    assert [int(c) for c in r3.lag_coeffs] == [2, 1, -1, -1, -2, -2, -2, 4, 2, -1, 2, 0, -1]
    assert r3.valid_from == 13
    r1 = recurrence(1)
    assert (r1.order, list(r1.lag_coeffs), r1.valid_from) == (1, [1], 3)
    r2 = recurrence(2)
    assert r2.order == 5
    assert [int(c) for c in r2.lag_coeffs] == [3, -3, 2, -2, 1]


@pytest.mark.parametrize("m", range(1, 7))
def test_recurrence_replay(m):
    rec = recurrence(m)
    seq = dp_counts(m, rec.valid_from + 50).unrestricted()
    assert rec.extend(seq[: rec.valid_from], 50) == seq[rec.valid_from : rec.valid_from + 50]


def test_generating_function_ceiling(monkeypatch):
    def no_build(m):
        raise AssertionError("state system built above MAX_GF_M")

    monkeypatch.setattr(gf_solver, "build_system", no_build)
    for call in (generating_function, recurrence):
        with pytest.raises(ValueError, match="MAX_GF_M"):
            call(gf_solver.MAX_GF_M + 1)


def test_recurrence_order_bound():
    assert recurrence_order_bound(1) == 1
    assert recurrence_order_bound(2) == 9
    assert recurrence_order_bound(3) == 25


@pytest.mark.parametrize("m", range(2, 9))
def test_reduced_denominator_within_bound(m):
    assert generating_function(m).den.degree <= recurrence_order_bound(m)


@pytest.mark.parametrize("m", range(1, 6))
def test_three_way_agreement_all_states(m):
    """Brute force == count recursion == series coefficients, all states."""
    n_top = 10
    table = dp_counts(m, n_top)
    sys_m = build_system(m)
    series = {
        state: series_coeffs(f, n_top) for state, f in solve_system(sys_m).items()
    }
    thresholds = list(range(m)) + [inf]
    for n in range(1, n_top + 1):
        # one enumeration per n; every threshold pair is a cumulative count
        deficiencies = [
            (n - perm[0], n - perm[-1]) for perm in iter_constrained_avoiders(n, m)
        ]
        for p in thresholds:
            for q in thresholds:
                brute = sum(1 for d1, d2 in deficiencies if d1 <= p and d2 <= q)
                assert table.values[(p, q)][n] == brute, (m, n, p, q)
                assert series[(p, q)][n] == brute, (m, n, p, q)
    # bind the public oracle signature to the same values on a sample
    from bounded_catalan.core_combinatorics import brute_force_count

    for p in (0, m - 1, inf):
        for q in (0, inf):
            assert brute_force_count(m, 6, p, q) == table.values[(p, q)][6]


@pytest.mark.parametrize("m, degree, bound", [(9, 118, 478), (10, 146, 641), (11, 177, 837)])
def test_reduced_denominator_degree_large_m(m, degree, bound):
    assert generating_function(m).den.degree == degree
    assert recurrence_order_bound(m) == bound


@pytest.mark.parametrize("m", range(1, 7))
def test_dp_matches_series_deep(m):
    seq = dp_counts(m, 200).unrestricted()
    coeffs = series_coeffs(generating_function(m), 200)
    assert all(c.denominator == 1 for c in coeffs)
    assert [int(c) for c in coeffs] == seq


@pytest.mark.parametrize("m", (9, 10))
def test_dp_matches_series_large_m(m):
    seq = dp_counts(m, 200).unrestricted()
    assert series_coeffs(generating_function(m), 200) == seq


def fraction_series(num, den, n_max):
    """Taylor coefficients of num/den by long division over the rationals,
    for any integer den with den[0] != 0."""
    out = []
    for n in range(n_max + 1):
        acc = Fraction(num[n] if n < len(num) else 0)
        for j in range(1, min(n, len(den) - 1) + 1):
            acc -= den[j] * out[n - j]
        out.append(acc / den[0])
    return out


@pytest.mark.parametrize("m", range(2, 11))
def test_series_integer_route_matches_fraction_route(m):
    gf = generating_function(m)
    # doubling num and den keeps the function but moves den[0] to 2, which
    # series_coeffs rejects and the rational long division divides by
    num2, den2 = [2 * c for c in gf.num.coeffs], [2 * c for c in gf.den.coeffs]
    coeffs = series_coeffs(gf, 300)
    assert coeffs == fraction_series(num2, den2, 300)
    with pytest.raises(ValueError):
        series_coeffs(RationalFn(ExactPoly(num2), ExactPoly(den2)), 300)


@pytest.mark.parametrize("m", range(2, 9))
def test_exact_results_are_ints(m):
    gf = generating_function(m)
    assert gf.den.coeffs[0] == 1
    values = [
        *gf.num.coeffs,
        *gf.den.coeffs,
        *recurrence(m).lag_coeffs,
        *series_coeffs(gf, 60),
    ]
    assert all(type(c) is int for c in values)


def test_state_series_are_nonnegative_integers():
    for m in (1, 2, 3, 4):
        sol = solve_system(build_system(m))
        for state, f in sol.items():
            coeffs = series_coeffs(f, 100)
            for n, c in enumerate(coeffs):
                assert c.denominator == 1 and c >= 0, (m, state, n)
