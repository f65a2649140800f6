"""The packed exact solve, the per-factor pole isolation and the count
sweep against the references they replaced.

``_solve_sparse_int`` solves each block once at X = 2^k and returns the
balanced base-2^k digits of its solution only after a certificate proves
A nums = rhs den in Z[x]; ``reference.solve_sparse_list`` is the
list-based elimination it replaced.  Solutions are compared as ratios,
nums * den_ref == nums_ref * den, since only the ratios are proved.
"""

import importlib
import json
import os
import sys
import tracemalloc
from math import inf

import pytest

import bounded_catalan.polynomial_algebra as pa
from bounded_catalan import cli, core_combinatorics, gf_solver
from bounded_catalan.core_combinatorics import brute_force_count
from bounded_catalan.growth_analysis import _pole_roots
from bounded_catalan.polynomial_algebra import (
    ExactPoly,
    SingularBlockError,
    _solve_sparse_int,
    real_roots_positive,
)
from reference import solve_sparse_list

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def copy_block(rows, rhs):
    return [{c: list(p) for c, p in row.items()} for row in rows], [list(r) for r in rhs]


def assert_solves(rows, rhs, nums, den):
    """A nums == rhs den in Z[x], row by row, with den nonzero."""
    assert den
    for row, r in zip(rows, rhs):
        lhs = ExactPoly.zero()
        for c, p in row.items():
            lhs = lhs + ExactPoly(p) * ExactPoly(nums[c])
        assert lhs == ExactPoly(r) * ExactPoly(den)


def assert_same_ratios(rows, rhs, nums, den):
    ref_nums, ref_den, _ = solve_sparse_list(*copy_block(rows, rhs))
    for num, ref_num in zip(nums, ref_nums):
        assert ExactPoly(num) * ExactPoly(ref_den) == ExactPoly(ref_num) * ExactPoly(den)


def generating_function_blocks(m, monkeypatch):
    """Every (rows, rhs, nums, den) that generating_function(m) solves."""
    blocks = []

    def record(rows, rhs):
        block = copy_block(rows, rhs)
        nums, den = _solve_sparse_int(rows, rhs)
        blocks.append((*block, nums, den))
        return nums, den

    with monkeypatch.context() as patch:
        patch.setattr(gf_solver, "_solve_sparse_int", record)
        gf_solver._output_solution.__wrapped__(m)
    return blocks


@pytest.mark.parametrize("m", range(2, 15))
def test_packed_solver_matches_reference_on_generating_function_blocks(m, monkeypatch):
    blocks = generating_function_blocks(m, monkeypatch)
    assert len(blocks) == 3  # V, U and I for every m >= 2
    for rows, rhs, nums, den in blocks:
        assert_same_ratios(rows, rhs, nums, den)


@pytest.mark.parametrize("m", range(2, 15))
def test_first_slot_needs_no_retry(m, monkeypatch):
    """The first slot holds every solution of the generating-function blocks."""
    calls = []
    eliminate = pa._eliminate

    def counting(rows, rhs):
        calls.append(len(rows))
        return eliminate(rows, rhs)

    monkeypatch.setattr(pa, "_eliminate", counting)
    blocks = generating_function_blocks(m, monkeypatch)
    assert len(calls) == len(blocks)


@st.composite
def feedback_blocks(draw):
    """A random I - W block, W with zero constant term, and wide rhs."""
    k = draw(st.integers(1, 6))
    rows = []
    for i in range(k):
        row = {i: [1]}
        for j in range(k):
            if draw(st.booleans()):
                degree = draw(st.integers(1, 4))
                coeff = draw(st.integers(-(1 << 20), 1 << 20).filter(bool))
                entry = list(row.get(j, []))
                entry += [0] * (degree + 1 - len(entry))
                entry[degree] -= coeff
                while entry and entry[-1] == 0:
                    entry.pop()
                if entry:
                    row[j] = entry
                else:
                    row.pop(j, None)
        rows.append(row)
    rhs = [
        draw(st.lists(st.integers(-(1 << 200), 1 << 200), min_size=1, max_size=5))
        for _ in range(k)
    ]
    return rows, [r if any(r) else [1] for r in rhs]


@settings(max_examples=60, deadline=None)
@given(feedback_blocks(), st.sampled_from([None, 8]))
def test_packed_solver_on_random_feedback_blocks(block, first):
    """Entries of 21 bits and right-hand sides of 200 bits; a first slot of
    8 bits forces the certificate to fail and the slot to widen."""
    rows, rhs = block
    slot = pa._first_slot
    if first is not None:
        pa._first_slot = lambda rows, rhs: first
    try:
        nums, den = _solve_sparse_int(*copy_block(rows, rhs))
    finally:
        pa._first_slot = slot
    assert_solves(rows, rhs, nums, den)
    assert_same_ratios(rows, rhs, nums, den)


def test_block_singular_at_the_first_point_is_widened(monkeypatch):
    """det [[2^16 - x]] vanishes at X = 2^16, the first point here, but 2^16
    is within the Cauchy bound 1 + 2^16 + 1, so the slot widens."""
    monkeypatch.setattr(pa, "_first_slot", lambda rows, rhs: 16)
    rows = [{0: [1 << 16, -1]}]
    nums, den = _solve_sparse_int(copy_block(rows, [[3]])[0], [[3]])
    assert_solves(rows, [[3]], nums, den)
    assert ExactPoly(nums[0]) * ExactPoly([1 << 16, -1]) == ExactPoly([3]) * ExactPoly(den)


def test_singular_blocks_raise():
    x = [0, 1]
    with pytest.raises(SingularBlockError):
        _solve_sparse_int([{0: x, 1: x}, {0: x, 1: x}], [[1], [1]])
    with pytest.raises(SingularBlockError):  # an all-zero row
        _solve_sparse_int([{0: [1, 1], 1: x}, {}], [[1], [1]])
    # rank 2 of 3: the third row is the sum of the first two
    rows = [
        {0: [1], 1: [0, 2], 2: [3]},
        {0: [0, 0, 1], 1: [1], 2: [0, -1]},
        {0: [1, 0, 1], 1: [1, 2], 2: [3, -1]},
    ]
    with pytest.raises(SingularBlockError):
        _solve_sparse_int(rows, [[1], [0, 1], [2]])


def product_over_content(factors):
    product = ExactPoly.one()
    for f in factors:
        product = product * f
    content = pa._content_i(product.coeffs)
    return [c // content for c in product.coeffs]


@pytest.mark.parametrize("m", range(2, 15))
def test_factor_roots_equal_denominator_roots(m):
    den = gf_solver.generating_function(m).den
    factors = gf_solver.denominator_factors(m)
    prim = product_over_content(factors)
    # the reduced denominator is +-(product / content) from m = 3 on; at
    # m = 2 reduction cancels a common factor and the roots come from den
    assert (list(den.coeffs) in (prim, [-c for c in prim])) == (m != 2)
    whole = real_roots_positive(den, (0, 2), tol=1e-9)
    merged = _pole_roots(den, factors, 1e-9)
    assert [r.hex() for r in merged] == [r.hex() for r in whole]


def delay_line_counts(m, swept):
    """The counts the delay-line sweep kept: max(m-p, 1) + 1 per swept state."""
    return sum(max(m - p, 1) + 1 if p != inf else 2 for p, _ in swept)


def test_dp_sweep_memory_within_the_delay_lines():
    """Peak traced memory of the (inf, inf) sweep is at most what the delay
    lines held (one count per slot, each as large as a_n) plus the row."""
    m, n_max = 30, 150
    swept = gf_solver.dp_counts(m, 2, [(inf, inf)]).swept
    tracemalloc.start()
    try:
        table = gf_solver.dp_counts(m, n_max, [(inf, inf)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    largest = sys.getsizeof(table.unrestricted()[-1])
    assert peak <= (delay_line_counts(m, swept) + n_max + 1) * largest


def test_enumerate_oracle_walks_the_tree_once(capsys, monkeypatch):
    calls, walks = [], []

    def counting(record, f):
        def counted(*args, **kwargs):
            record.append(args)
            return f(*args, **kwargs)

        return counted

    monkeypatch.setattr(cli, "brute_force_count", counting(calls, cli.brute_force_count))
    monkeypatch.setattr(
        core_combinatorics, "_tree_levels", counting(walks, core_combinatorics._tree_levels)
    )
    argv = ["enumerate", "--m", "3", "--n", "11", "--method", "oracle", "--format", "json"]
    assert cli.main(argv) == 0
    counts = json.loads(capsys.readouterr().out)["sequences"]["oracle"]
    assert len(calls) == 1
    assert len(walks) == 1
    assert counts == [brute_force_count(3, n) for n in range(12)]


def test_tracer_targets_resolve():
    """Every (module, attribute) the benchmark's span recorder wraps exists."""
    perfbench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    sys.path.insert(0, os.path.abspath(perfbench))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.pop(0)
    for module, attr, _ in [*tracer.TARGETS, *tracer.LEAF_TARGETS]:
        mod = importlib.import_module(f"bounded_catalan.{module}")
        assert callable(getattr(mod, attr, None)), (module, attr)


def test_denominator_factors_shares_the_solve():
    """The solve is cached by m, so a rebuilt system does not solve again."""
    gf_solver.generating_function(6)
    gf_solver.build_system.cache_clear()
    gf_solver.denominator_factors(6)
    assert gf_solver.build_system.cache_info().misses == 0
