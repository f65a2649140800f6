"""State system structure: matrix entries, components, periods, DOT."""

from math import gcd, inf

import pytest

from bounded_catalan.polynomial_algebra import ExactPoly
from bounded_catalan.state_system import (
    StructureError,
    build_system,
    component_matrix,
    output_accessible,
    simple_cycle_weights,
    to_dot,
)
from reference import poly_mat_det


def identity_minus(mat):
    k = len(mat)
    return [
        [(ExactPoly.one() if i == j else ExactPoly.zero()) - mat[i][j] for j in range(k)]
        for i in range(k)
    ]


def cyclic_by_tag(sys):
    return {c.tag: c for c in sys.sccs if c.cyclic}


def test_entry_goldens_m2():
    sys2 = build_system(2)
    i = sys2.index[(1, inf)]
    assert sys2.entries[(i, i)] == (1, 1)  # the 1-split self-loop is x
    comps = cyclic_by_tag(sys2)
    wv = component_matrix(sys2, comps["V"])
    x = ExactPoly([0, 1])
    assert wv == [[ExactPoly.zero(), x], [x, ExactPoly.zero()]]
    # (0,1) has no split edge out of the component; its only edges inside
    # V_2 are the ones in that matrix
    assert comps["V"].members == ((0, 1), (1, 0))


def test_entry_goldens_m3():
    sys3 = build_system(3)
    comps = cyclic_by_tag(sys3)
    wu = component_matrix(sys3, comps["U"])
    x = ExactPoly([0, 1])
    assert wu == [
        [ExactPoly.zero(), ExactPoly.zero(), x],
        [ExactPoly.monomial(3), ExactPoly.monomial(2), x],
        [ExactPoly.monomial(3, 2), ExactPoly.monomial(2), x],
    ]


def test_entries_are_single_positive_monomials_with_degree_at_most_m():
    for m in range(1, 9):
        sys_m = build_system(m)
        for (degree, coeff) in sys_m.entries.values():
            assert 1 <= degree <= m
            assert coeff > 0


def test_classification_goldens():
    comps2 = cyclic_by_tag(build_system(2))
    assert comps2["U"].members == ((0, inf), (1, inf))
    assert comps2["V"].members == ((0, 1), (1, 0))
    assert comps2["I"].members == ((inf, 1),)
    comps3 = cyclic_by_tag(build_system(3))
    assert comps3["V"].members == ((0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
    comps10 = cyclic_by_tag(build_system(10))
    assert len(comps10["V"].members) == 54
    assert len(comps10["U"].members) == 10


@pytest.mark.parametrize("m", range(2, 13))
def test_classification_structure(m):
    sys_m = build_system(m)
    cyclic = [c for c in sys_m.sccs if c.cyclic]
    assert sorted(c.tag for c in cyclic) == ["I", "U", "V"]
    comps = cyclic_by_tag(sys_m)
    assert len(comps["U"].members) == m
    assert len(comps["V"].members) == (m - 1) * (m + 2) // 2
    assert len(comps["I"].members) == 1
    for c in sys_m.sccs:
        if not c.cyclic:
            assert c.tag == "acyclic_singleton"
            assert len(c.members) == 1


def test_topological_order():
    for m in (2, 3, 5):
        sys_m = build_system(m)
        position = {}
        for ci, comp in enumerate(sys_m.sccs):
            for s in comp.members:
                position[sys_m.index[s]] = ci
        for (t, s) in sys_m.entries:
            assert position[s] <= position[t]


def test_m1_untagged_but_built():
    sys1 = build_system(1)
    assert all(c.tag is None for c in sys1.sccs)
    cyclic = [c for c in sys1.sccs if c.cyclic]
    assert sorted(c.members[0] for c in cyclic) == [(0, inf), (inf, 0)]


def test_weighted_periods():
    for m in range(2, 9):
        comps = cyclic_by_tag(build_system(m))
        assert comps["U"].weighted_period == 1
        assert comps["I"].weighted_period == 1
        if m == 2:
            assert comps["V"].weighted_period == 2
        else:
            assert comps["V"].weighted_period == 1


def test_weighted_period_is_none_for_acyclic():
    for m in range(1, 6):
        acyclic = [c for c in build_system(m).sccs if not c.cyclic]
        assert acyclic
        assert all(c.weighted_period is None for c in acyclic)


def test_weighted_period_matches_simple_cycle_gcd():
    # independent oracle: gcd of total weights over all simple cycles,
    # which equals the closed-walk gcd because every closed walk
    # decomposes into simple cycles
    for m in range(2, 7):
        sys_m = build_system(m)
        for comp in sys_m.sccs:
            if comp.cyclic and len(comp.members) <= 9:
                weights = simple_cycle_weights(sys_m, comp)
                assert weights
                oracle = 0
                for w in weights:
                    oracle = gcd(oracle, w)
                assert comp.weighted_period == oracle, (m, comp.tag)


def test_output_accessibility():
    for m in range(2, 9):
        sys_m = build_system(m)
        for comp in sys_m.sccs:
            if comp.cyclic:
                assert output_accessible(sys_m, comp)
    sys2 = build_system(2)
    out_comp = next(c for c in sys2.sccs if sys2.output_state in c.members)
    assert output_accessible(sys2, out_comp)  # empty path
    # the isolated corner state: computed and recorded, no claim asserted
    corner = next(c for c in sys2.sccs if (0, 0) in c.members)
    _ = output_accessible(sys2, corner)


def test_component_determinant_goldens():
    sys2 = build_system(2)
    sys3 = build_system(3)
    comps2, comps3 = cyclic_by_tag(sys2), cyclic_by_tag(sys3)
    det_u2 = poly_mat_det(identity_minus(component_matrix(sys2, comps2["U"])))
    assert det_u2 == ExactPoly([1, -1, 0, -1])
    det_v3 = poly_mat_det(identity_minus(component_matrix(sys3, comps3["V"])))
    assert det_v3 == ExactPoly([1, 0, -1, -2, -1, -1, -1])
    det_u3 = poly_mat_det(identity_minus(component_matrix(sys3, comps3["U"])))
    expected = ExactPoly([1, 1]) * ExactPoly([1, -2, 1, -1, -1, 1])
    assert det_u3 == expected


@pytest.mark.parametrize("m", range(2, 6))
def test_full_determinant_factors_into_cyclic_components(m):
    sys_m = build_system(m)
    size = len(sys_m.states)
    full = [[ExactPoly.zero()] * size for _ in range(size)]
    for (t, s), (degree, coeff) in sys_m.entries.items():
        full[t][s] = full[t][s] - ExactPoly.monomial(degree, coeff)
    for i in range(size):
        full[i][i] = full[i][i] + ExactPoly.one()
    det_full = poly_mat_det(full)
    product = ExactPoly.one()
    for comp in sys_m.sccs:
        if comp.cyclic:
            block = identity_minus(component_matrix(sys_m, comp))
            product = product * poly_mat_det(block)
    assert det_full == product


def test_dot_export_m2():
    dot = "".join(to_dot(build_system(2)))
    assert dot.count("style=dashed") == 3
    import re

    node_lines = [
        line for line in dot.splitlines() if re.fullmatch(r'\s*"\([^"]+\)";', line)
    ]
    assert len(node_lines) == 9
    assert 'style=dotted,color=red,label="k=2"' in dot
    assert "style=solid,color=blue" in dot
    assert dot.startswith("digraph")
