"""Endpoint-state system for bounded-gap 132-avoider enumeration.

States are pairs (p, q) of endpoint thresholds drawn from
{0, ..., m-1, inf}: p bounds the first-entry deficiency and q the
last-entry deficiency of the permutations being counted.  Removing the
maximum element rewrites one state count in terms of others, which makes
the counts satisfy a linear system F = x*1 + W(x) F over polynomials in
the size variable x.  This module builds the sparse polynomial matrix
W(x), the dependency digraph on states, its strongly connected components
in topological order, the classification of the cyclic components, their
weighted periods, and DOT export of the graph.

Conventions: thresholds use ``math.inf`` for the vacuous bound, so
``q - k`` is again a threshold or a negative number (dropped).  Matrix
rows are targets and columns are sources, so entry (d, c) is the weight
of the edge c -> d.

Array layout.  A threshold has index 0..m-1 for the integers and m for
inf; state (p, q) has index ``p_idx * (m+1) + q_idx``, which orders the
states lexicographically with inf last.  Every entry of W is one monomial
c_kp(k, p) * x^k, so W is stored compressed by target: the entries of
target t occupy positions ``pred_ptr[t]:pred_ptr[t+1]`` of ``pred_src``
(source index), ``pred_deg`` (the degree k) and ``pred_cidx`` (the
position ``(k-1) * (m+1) + p_idx`` of the coefficient in the flattened
c_kp table ``coeffs``).  Within a target the split entries come in
increasing k, then the append entry, whose coefficient 1 is the k = 1
table row.  ``succ_ptr``/``succ_tgt`` hold the same edges by source with
targets increasing.  The arrays are read-only and shared: build_system
builds one system per m and caches it.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import inf
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .core_combinatorics import c_kp_table
from .polynomial_algebra import ExactPoly

INF = inf

State = tuple  # (p, q) with entries in {0, ..., m-1, inf}


class StructureError(RuntimeError):
    """The computed component structure contradicts the expected shape."""


@dataclass(frozen=True)
class ComponentInfo:
    """One strongly connected component of the dependency graph.

    ``tag`` is "U", "V", "I" or "acyclic_singleton" for m >= 2 and None
    for the degenerate m = 1 system, where the classification is not
    defined.  ``weighted_period`` is the gcd of total edge weights over
    all closed walks (None for acyclic components).
    """

    tag: str | None
    members: tuple[State, ...]
    cyclic: bool
    weighted_period: int | None


@dataclass(eq=False)
class StateSystem:
    """The matrix W(x), its dependency graph, and the SCC decomposition.

    Entry j of W, in target order, has source ``pred_src[j]``, degree
    ``pred_deg[j]`` and coefficient ``coeffs[pred_cidx[j]]``; state
    (p, q) has index ``p_idx * (m+1) + q_idx`` with inf at index m (see
    the module docstring).  Every entry is one monomial c * x^k with
    c > 0 and 1 <= k <= m.  ``entries`` is a read-only Mapping view
    (target, source) -> (degree, coefficient) over the arrays.
    ``comp_of`` maps each state index to its position in ``sccs``.
    Immutable after build, and shared by every caller of build_system.
    """

    m: int
    states: tuple[State, ...]
    index: Mapping[State, int]
    coeffs: tuple[int, ...]
    pred_ptr: np.ndarray
    pred_src: np.ndarray
    pred_deg: np.ndarray
    pred_cidx: np.ndarray
    succ_ptr: np.ndarray
    succ_tgt: np.ndarray
    sccs: tuple[ComponentInfo, ...] = ()
    comp_of: np.ndarray | None = None

    @property
    def output_state(self) -> State:
        return (INF, INF)

    @property
    def entries(self) -> Mapping:
        return _EntryView(self)

    @cached_property
    def coeffs_float(self) -> np.ndarray:
        """``coeffs`` as floats for the numeric layer; raises OverflowError
        once catalan(m-1) leaves float range (m > 520)."""
        return _read_only(np.array(self.coeffs, dtype=np.float64))

    def successors(self, s: int) -> list[int]:
        return self.succ_tgt[self.succ_ptr[s] : self.succ_ptr[s + 1]].tolist()

    def component_of(self, state: State) -> ComponentInfo:
        return self.sccs[self.comp_of[self.index[state]]]


class _EntryView(Mapping):
    """W as {(target, source): (degree, coefficient)}, read from the arrays."""

    def __init__(self, sys: StateSystem):
        self._sys = sys

    def __getitem__(self, key):
        sys = self._sys
        try:
            t, s = key
            lo, hi = sys.pred_ptr[t], sys.pred_ptr[t + 1]
        except (TypeError, ValueError, IndexError):
            raise KeyError(key) from None
        hit = np.flatnonzero(sys.pred_src[lo:hi] == s)
        if t < 0 or not hit.size:
            raise KeyError(key)
        j = lo + hit[0]
        return int(sys.pred_deg[j]), sys.coeffs[sys.pred_cidx[j]]

    def __len__(self) -> int:
        return len(self._sys.pred_src)

    def __iter__(self):
        targets = np.repeat(np.arange(len(self._sys.states)), np.diff(self._sys.pred_ptr))
        return zip(targets.tolist(), self._sys.pred_src.tolist())

    def _values(self):
        coeffs = self._sys.coeffs
        return zip(
            self._sys.pred_deg.tolist(), (coeffs[c] for c in self._sys.pred_cidx.tolist())
        )

    def items(self):
        return _EntryItems(self)

    def values(self):
        return _EntryValues(self)


class _EntryItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._values())


class _EntryValues(ValuesView):
    def __iter__(self):
        return self._mapping._values()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR pointer array from per-row counts."""
    return _read_only(np.concatenate(([0], np.cumsum(counts))))


def thresholds(m: int) -> list:
    """The threshold alphabet {0, ..., m-1, inf} in canonical order."""
    return list(range(m)) + [INF]


def is_append_edge(sys: StateSystem, target: State, source: State) -> bool:
    """True when the edge source -> target is the append-last-maximum edge,
    i.e. source = (p - 1, m - 1) for target (p, q)."""
    p = target[0]
    return source == ((p - 1) if p != INF else INF, sys.m - 1)


# Bounded: analyses share a system within one computation, and a long
# table run should not keep every m's O(m^3) entries alive.
@lru_cache(maxsize=8)
def build_system(m: int) -> StateSystem:
    """Construct the (m+1)^2-state system for gap bound m.

    For every target state (p, q): removing a maximum at position
    k <= m contributes the monomial c_kp(k, p) * x^k from source
    (m - k, q - k) when q - k is still a threshold and the coefficient is
    positive, and appending the maximum contributes x from source
    (p - 1, m - 1) when p - 1 is still a threshold.

    The entries are laid out by index arithmetic on the c_kp table: the
    slots of one target row (all targets with the same p) are the same
    for every p, so they are computed once and broadcast over p.  The
    result is cached, so every analysis of one m shares a single build.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n1 = m + 1
    n = n1 * n1
    coeffs = tuple(c for row in c_kp_table(m) for c in row)
    positive = np.array([c > 0 for c in coeffs])

    # Slots of one target row: for each q_idx, split slots k = 1..min(q, m)
    # (all m of them for q = inf), then one append slot.
    q = np.arange(n1, dtype=np.int32)
    slots = np.where(q == m, m, q) + 1
    row_q = np.repeat(q, slots)
    k = np.arange(len(row_q), dtype=np.int32) - np.repeat(np.cumsum(slots) - slots, slots) + 1
    append = k == slots[row_q]
    split_src = (m - k) * n1 + np.where(row_q == m, m, row_q - k)

    p = np.arange(n1, dtype=np.int32)[:, None]
    append_src = np.where(p == m, m, p - 1) * n1 + (m - 1)
    cidx = np.where(append, 0, (k - 1) * n1) + p  # append weight x = c_kp(1, p) x
    keep = np.where(append, p >= 1, positive[cidx])
    tgt = np.broadcast_to(p * n1 + row_q, keep.shape)[keep]
    src = np.where(append, append_src, split_src)[keep]
    deg = np.broadcast_to(np.where(append, 1, k), keep.shape)[keep]
    cidx = cidx[keep]

    keys = np.sort(tgt.astype(np.int64) * n + src)
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    states = tuple((pp, qq) for pp in thresholds(m) for qq in thresholds(m))
    if dup.size:
        t, s = divmod(int(keys[dup[0]]), n)
        raise StructureError(f"duplicate matrix entry for {states[t]} <- {states[s]}")

    by_source = np.argsort(src, kind="stable")  # stable: targets stay increasing
    sys = StateSystem(
        m=m,
        states=states,
        index=MappingProxyType({s: i for i, s in enumerate(states)}),
        coeffs=coeffs,
        pred_ptr=_offsets(np.bincount(tgt, minlength=n)),
        pred_src=_read_only(src),
        pred_deg=_read_only(deg),
        pred_cidx=_read_only(cidx),
        succ_ptr=_offsets(np.bincount(src, minlength=n)),
        succ_tgt=_read_only(tgt[by_source]),
    )
    self_loop = np.zeros(n, dtype=bool)
    self_loop[tgt[tgt == src]] = True
    sys.sccs = _decompose(sys, self_loop)
    comp_of = [0] * n
    for ci, comp in enumerate(sys.sccs):
        for s in comp.members:
            comp_of[sys.index[s]] = ci
    sys.comp_of = _read_only(np.array(comp_of, dtype=np.int32))
    return sys


def _tarjan_sccs(ptr: list[int], targets: list[int]) -> list[list[int]]:
    """Iterative Tarjan on a graph in CSR form (the successors of v are
    targets[ptr[v]:ptr[v+1]]); components come out in reverse topological
    order."""
    n = len(ptr) - 1
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    result: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, ptr[root])]
        while work:
            v, pi = work[-1]
            if pi == ptr[v]:
                index_of[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            low = lowlink[v]
            for i in range(pi, ptr[v + 1]):
                w = targets[i]
                iw = index_of[w]
                if iw == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, ptr[w]))
                    advanced = True
                    break
                if on_stack[w] and iw < low:
                    low = iw
            lowlink[v] = low
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], low)
            if low == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                result.append(comp)
    return result


def _expected_components(m: int) -> dict[str, frozenset]:
    u = frozenset((p, INF) for p in range(m))
    v = frozenset(
        {(p, q) for p in range(m) for q in range(p)}
        | {(p, m - 1) for p in range(m - 1)}
    )
    i = frozenset({(INF, m - 1)})
    return {"U": u, "V": v, "I": i}


def _decompose(sys: StateSystem, self_loop: np.ndarray) -> tuple[ComponentInfo, ...]:
    raw = _tarjan_sccs(sys.succ_ptr.tolist(), sys.succ_tgt.tolist())
    raw.reverse()  # topological: sources before the states depending on them
    expected = _expected_components(sys.m) if sys.m >= 2 else None
    comps: list[ComponentInfo] = []
    for members_idx in raw:
        members_idx.sort()
        members = tuple(sys.states[i] for i in members_idx)
        cyclic = len(members) > 1 or bool(self_loop[members_idx[0]])
        tag: str | None = None
        if expected is not None:
            member_set = frozenset(members)
            if cyclic:
                for name, want in expected.items():
                    if member_set == want:
                        tag = name
                        break
                else:
                    raise StructureError(
                        f"unexpected cyclic component at m={sys.m}: {members}"
                    )
            else:
                if len(members) != 1:
                    raise StructureError("acyclic component with several states")
                tag = "acyclic_singleton"
        period = _weighted_period(sys, members_idx) if cyclic else None
        comps.append(
            ComponentInfo(tag=tag, members=members, cyclic=cyclic, weighted_period=period)
        )
    if expected is not None:
        found = {c.tag for c in comps if c.cyclic}
        if found != {"U", "V", "I"}:
            raise StructureError(f"cyclic components {found} instead of U, V, I")
    return tuple(comps)


def component_edges(sys: StateSystem, members) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of W with both ends among ``members``.

    ``members`` are state indices in increasing order, and local index i
    stands for members[i].  Returns (local target, local source, entry
    position in the pred_* arrays), in stored order.
    """
    members = np.asarray(members)
    starts = sys.pred_ptr[members]
    counts = sys.pred_ptr[members + 1] - starts
    pos = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    rows = np.repeat(np.arange(len(members)), counts)
    local = np.full(len(sys.states), -1)
    local[members] = np.arange(len(members))
    cols = local[sys.pred_src[pos]]
    inside = cols >= 0
    return rows[inside], cols[inside], pos[inside]


def _weighted_period(sys: StateSystem, members_idx: list[int]) -> int:
    """Gcd of total weights of closed walks inside one cyclic component.

    Computed from a potential assignment: pot is the weighted distance
    from the first member, which is exact along the edges of a
    shortest-path arborescence, and the gcd of |pot(u) + w - pot(v)|
    over all intra-component edges u -> v is the weighted period.
    """
    rows, cols, pos = component_edges(sys, members_idx)
    size = len(members_idx)
    weights = sys.pred_deg[pos].astype(np.int64)
    graph = sp.csr_matrix((weights, (cols, rows)), shape=(size, size))  # u -> v weighs w
    dist = dijkstra(graph, indices=0)
    if np.isinf(dist).any():
        raise StructureError("component not strongly connected")
    pot = dist.astype(np.int64)
    g = int(np.gcd.reduce(np.abs(pot[cols] + weights - pot[rows])))
    if g == 0:
        raise StructureError("cyclic component with no closed walk")
    return g


def weighted_period(sys: StateSystem, comp: ComponentInfo) -> int:
    """Weighted period of a cyclic component; raises for acyclic ones."""
    if not comp.cyclic:
        raise ValueError("weighted period is defined only for cyclic components")
    assert comp.weighted_period is not None
    return comp.weighted_period


def simple_cycle_weights(sys: StateSystem, comp: ComponentInfo) -> list[int]:
    """Total weights of all simple directed cycles inside the component.

    Exponential-time enumeration; used as a cross-check oracle for the
    potential-based weighted period on small components.
    """
    members = list(comp.members)
    idx = {s: i for i, s in enumerate(members)}
    adjacency: list[list[tuple[int, int]]] = [[] for _ in members]
    for s in members:
        si = sys.index[s]
        for t_i in sys.successors(si):
            t = sys.states[t_i]
            if t in idx:
                degree, _ = sys.entries[(t_i, si)]
                adjacency[idx[s]].append((idx[t], degree))
    weights: list[int] = []

    def walk(start: int, v: int, total: int, visited: set[int]) -> None:
        for t, w in adjacency[v]:
            if t == start:
                weights.append(total + w)
            elif t > start and t not in visited:
                visited.add(t)
                walk(start, t, total + w, visited)
                visited.discard(t)

    for start in range(len(members)):
        walk(start, start, 0, {start})
    return weights


def dependency_closure(sys: StateSystem, targets) -> np.ndarray:
    """Mask of the states that the counts of ``targets`` (state indices)
    depend on, the targets included."""
    n = len(sys.states)
    graph = sp.csr_matrix((np.ones(len(sys.pred_src)), sys.pred_src, sys.pred_ptr), shape=(n, n))
    seen = np.zeros(n, dtype=bool)
    for t in targets:
        if not seen[t]:
            seen[breadth_first_order(graph, t, return_predecessors=False)] = True
    return seen


def output_accessible(sys: StateSystem, comp: ComponentInfo) -> bool:
    """True when some member of the component reaches the state (inf, inf)."""
    seen = dependency_closure(sys, [sys.index[sys.output_state]])
    return any(seen[sys.index[s]] for s in comp.members)


def component_matrix(sys: StateSystem, comp: ComponentInfo) -> list[list[ExactPoly]]:
    """Principal submatrix of W on the component members.

    Member order is canonical: lexicographic on (p, q) with inf last,
    rows = targets, columns = sources.
    """
    members = list(comp.members)  # already sorted canonically
    mat = []
    for t in members:
        row = []
        for s in members:
            key = (sys.index[t], sys.index[s])
            if key in sys.entries:
                degree, coeff = sys.entries[key]
                row.append(ExactPoly.monomial(degree, coeff))
            else:
                row.append(ExactPoly.zero())
        mat.append(row)
    return mat


def _state_name(s: State) -> str:
    p = "inf" if s[0] == INF else str(s[0])
    q = "inf" if s[1] == INF else str(s[1])
    return f"({p},{q})"


def to_dot(sys: StateSystem) -> str:
    """DOT rendering of the dependency graph.

    Split-edges are dotted red with a ``k=<k>`` label, append-edges solid
    blue; the cyclic components are enclosed in dashed clusters.
    """
    lines = [f"digraph dependency_m{sys.m} {{", "  rankdir=LR;"]
    cluster = 0
    clustered = set()
    for comp in sys.sccs:
        if not comp.cyclic:
            continue
        name = comp.tag if comp.tag else f"C{cluster}"
        lines.append(f"  subgraph cluster_{name} {{")
        lines.append("    style=dashed;")
        lines.append(f'    label="{name}";')
        for s in comp.members:
            lines.append(f'    "{_state_name(s)}";')
            clustered.add(s)
        lines.append("  }")
        cluster += 1
    for s in sys.states:
        if s not in clustered:
            lines.append(f'  "{_state_name(s)}";')
    for (t_i, s_i), (degree, coeff) in sorted(sys.entries.items()):
        t, s = sys.states[t_i], sys.states[s_i]
        if is_append_edge(sys, t, s):
            style = "style=solid,color=blue"
        else:
            style = f'style=dotted,color=red,label="k={degree}"'
        lines.append(f'  "{_state_name(s)}" -> "{_state_name(t)}" [{style}];')
    lines.append("}")
    return "\n".join(lines)
