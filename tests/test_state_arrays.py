"""Array-form W: differential checks against per-entry construction,
sharing of one cached build, and byte-stable graph output."""

import json
from math import inf
from pathlib import Path

import pytest

from bounded_catalan import cli, gf_solver, growth_analysis, state_system
from bounded_catalan.core_combinatorics import c_kp, c_kp_table, catalan
from bounded_catalan.gf_solver import generating_function
from bounded_catalan.growth_analysis import check_numeric_range, growth_constants
from bounded_catalan.polynomial_algebra import ExactPoly
from bounded_catalan.state_system import build_system, component_matrix, thresholds

# `graph --m M` output for M = 2..6, recorded from the dict-based W
GRAPH_GOLDENS = json.loads(Path(__file__).with_name("graph_goldens.json").read_text())


def reference_entries(m):
    """W as {(target, source): (degree, coeff)} by a plain loop over c_kp,
    in target order, split entries by increasing k, then the append entry."""
    states = sorted((p, q) for p in thresholds(m) for q in thresholds(m))
    index = {s: i for i, s in enumerate(states)}
    entries = {}
    for p, q in states:
        for k in range(1, m + 1):
            q_shift = q - k
            if q_shift != inf and q_shift < 0:
                continue
            coeff = c_kp(k, p)
            if coeff > 0:
                entries[(index[(p, q)], index[(m - k, q_shift)])] = (k, coeff)
        if p != 0:
            entries[(index[(p, q)], index[(p - 1, m - 1)])] = (1, 1)
    return entries


@pytest.mark.parametrize("m", range(1, 16))
def test_arrays_match_reference_builder(m):
    sys_m = build_system(m)
    ref = reference_entries(m)
    assert list(sys_m.states) == sorted(sys_m.states)
    assert all(sys_m.index[s] == i for i, s in enumerate(sys_m.states))
    got = []
    for t in range(len(sys_m.states)):
        for j in range(sys_m.pred_ptr[t], sys_m.pred_ptr[t + 1]):
            degree = int(sys_m.pred_deg[j])
            coeff = sys_m.coeffs[sys_m.pred_cidx[j]]
            got.append(((t, int(sys_m.pred_src[j])), (degree, coeff)))
    assert got == list(ref.items())
    assert list(sys_m.entries.items()) == got
    assert len(sys_m.entries) == len(ref)


@pytest.mark.parametrize("m", range(2, 16))
def test_component_matrix_matches_reference_builder(m):
    sys_m = build_system(m)
    ref = reference_entries(m)
    for comp in sys_m.sccs:
        if not comp.cyclic:
            continue
        members = [sys_m.index[s] for s in comp.members]
        want = [
            [
                ExactPoly.monomial(*ref[(t, s)]) if (t, s) in ref else ExactPoly.zero()
                for s in members
            ]
            for t in members
        ]
        assert component_matrix(sys_m, comp) == want, comp.tag


@pytest.mark.parametrize("m", range(1, 101))
def test_c_kp_table_matches_oracle(m):
    table = c_kp_table(m)
    assert len(table) == m
    for k, row in enumerate(table, start=1):
        assert row == tuple(c_kp(k, p) for p in thresholds(m)), k


def test_cached_system_is_shared_and_read_only():
    sys_m = build_system(4)
    assert build_system(4) is sys_m
    for name in (
        "pred_ptr",
        "pred_src",
        "pred_deg",
        "pred_cidx",
    ):
        arr = getattr(sys_m, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(TypeError):
        sys_m.entries[(0, 0)] = (1, 1)
    assert (0, 0) not in sys_m.entries  # the corner state has no entries
    assert (len(sys_m.states), 0) not in sys_m.entries


def test_growth_with_pole_builds_the_system_once(capsys):
    build_system.cache_clear()
    growth_constants.cache_clear()
    generating_function.cache_clear()
    gf_solver._output_solution.cache_clear()
    assert cli.main(["growth", "--m", "5", "--pole", "on", "--format", "json"]) == 0
    capsys.readouterr()
    assert build_system.cache_info().misses == 1


@pytest.mark.parametrize("fmt", ["plain", "dot"])
@pytest.mark.parametrize("m", range(2, 7))
def test_graph_output_is_byte_stable(capsys, m, fmt):
    assert cli.main(["graph", "--m", str(m), "--format", fmt]) == 0
    assert capsys.readouterr().out == GRAPH_GOLDENS[fmt][str(m)]


def test_numeric_range_limit_is_519():
    # the row sum catalan(0) + ... + catalan(m-1) of W_U(1) at (m-1, inf)
    # overflows a float from m = 520 on, although catalan(519) does not
    check_numeric_range(519)
    with pytest.raises(ValueError):
        check_numeric_range(520)


def test_numeric_range_stops_at_the_first_overflow(monkeypatch):
    # the partial sums only grow, so the check reads at most 520 Catalan
    # numbers whatever m is, instead of summing all m of them
    calls = []

    def counting(k):
        calls.append(k)
        if len(calls) > 521:
            raise AssertionError("the check reads Catalan numbers past the first overflow")
        return catalan(k)

    monkeypatch.setattr(growth_analysis, "catalan", counting)
    with pytest.raises(ValueError, match="m <= 519"):
        check_numeric_range(10**6)


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "--m", "520"],
        ["table", "--m-list", "520"],
        ["growth", "--m", "20000"],
        ["table", "--m-list", "2,20000"],
    ],
)
def test_growth_beyond_float_range_exits_2_without_building(capsys, monkeypatch, argv):
    def refuse(m, *args):
        raise AssertionError(f"the system or a product of m = {m} was built")

    for module in (state_system, gf_solver, cli):
        monkeypatch.setattr(module, "build_system", refuse)
    monkeypatch.setattr(growth_analysis, "component_product", refuse)  # no search at 520
    assert cli.main(argv) == 2
    assert "m <= 519" in capsys.readouterr().err
