"""The numpy graph walks of the state system against scipy's csgraph.

``dependency_closure`` walks level by level from the targets to the
sources of their entries, and ``_weighted_period`` reads the period off
potentials along a breadth-first tree.  The references are the
breadth-first closure and the Dijkstra-potential period that the package
computed with ``scipy.sparse.csgraph`` before it dropped scipy.
"""

import numpy as np
import pytest

sp = pytest.importorskip("scipy.sparse")
from scipy.sparse.csgraph import breadth_first_order, dijkstra  # noqa: E402

from bounded_catalan.state_system import (  # noqa: E402
    StructureError,
    _weighted_period,
    build_system,
    cyclic_members,
    dependency_closure,
)


def reference_closure(sys, targets):
    """One csgraph breadth-first search per target not yet seen."""
    n = len(sys.states)
    graph = sp.csr_matrix((np.ones(len(sys.pred_src)), sys.pred_src, sys.pred_ptr), shape=(n, n))
    seen = np.zeros(n, dtype=bool)
    for t in targets:
        if not seen[t]:
            seen[breadth_first_order(graph, t, return_predecessors=False)] = True
    return seen


def reference_period(sys, members_idx):
    """Gcd of |pot(u) + w - pot(v)| over the component's edges u -> v, with
    pot the Dijkstra distance from the first member."""
    n = len(sys.states)
    w = sp.csr_matrix((sys.pred_deg, sys.pred_src, sys.pred_ptr), shape=(n, n))  # [target, source]
    block = w[members_idx][:, members_idx].tocoo()
    graph = sp.csr_matrix((block.data, (block.col, block.row)), shape=block.shape)  # u -> v
    pot = dijkstra(graph, indices=0).astype(np.int64)
    return int(np.gcd.reduce(np.abs(pot[block.col] + block.data - pot[block.row])))


@pytest.mark.parametrize("m", range(1, 41))
def test_period_matches_dijkstra_reference(m):
    sys_m = build_system(m)
    cyclic = [c for c in sys_m.sccs if c.cyclic]
    assert cyclic
    for comp in cyclic:
        members_idx = [sys_m.index[s] for s in comp.members]
        assert comp.weighted_period == reference_period(sys_m, members_idx), (m, comp.tag)


def test_period_keeps_its_structure_errors():
    sys3 = build_system(3)
    acyclic = next(c for c in sys3.sccs if not c.cyclic)
    with pytest.raises(StructureError, match="no closed walk"):
        _weighted_period(sys3, [sys3.index[s] for s in acyclic.members])
    cyclic = cyclic_members(3)  # U and I have no edge between them either way
    with pytest.raises(StructureError, match="not strongly connected"):
        _weighted_period(sys3, cyclic["U"].tolist() + cyclic["I"].tolist())


@pytest.mark.parametrize("m", range(1, 13))
def test_single_target_closure_matches_bfs_reference(m):
    sys_m = build_system(m)
    for t in range(len(sys_m.states)):
        assert np.array_equal(dependency_closure(sys_m, [t]), reference_closure(sys_m, [t])), t


def test_target_set_closure_matches_bfs_reference():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def target_sets(draw):
        m = draw(st.integers(1, 12))
        indices = st.integers(0, (m + 1) ** 2 - 1)
        return m, draw(st.lists(indices, max_size=8))

    @settings(max_examples=80, deadline=None)
    @given(target_sets())
    def check(case):
        m, targets = case
        sys_m = build_system(m)
        got = dependency_closure(sys_m, targets)
        assert np.array_equal(got, reference_closure(sys_m, targets))
        assert got[targets].all()

    check()
