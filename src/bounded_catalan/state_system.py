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
table row.  These arrays are the only stored form of W: the entry view,
the component blocks (component_edges), the weighted periods and the DOT
export all read them.  They are read-only and shared: build_system
builds one system per m and caches it.

The numeric growth path needs no build.  cyclic_members gives the
states of the cyclic components U, V and I from the paper's structure
(build_system checks its components against them), and
component_product evaluates W_C(x) v on one of them, named by its tag,
from the c_kp table in O(m^2), against the O(m^3) entries of W.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from math import inf
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

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
    sccs: tuple[ComponentInfo, ...] = ()

    @property
    def output_state(self) -> State:
        return (INF, INF)

    @property
    def entries(self) -> Mapping:
        return _EntryView(self)


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
        return zip(_targets(self._sys).tolist(), self._sys.pred_src.tolist())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR pointer array from per-row counts."""
    return _read_only(np.concatenate(([0], np.cumsum(counts))))


def _targets(sys: StateSystem) -> np.ndarray:
    """The target of every entry of W, in stored order."""
    return np.repeat(np.arange(len(sys.states)), np.diff(sys.pred_ptr))


def _ranges(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The positions ``ptr[r]:ptr[r+1]`` of every r in ``rows``, concatenated
    in the order of ``rows``."""
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def thresholds(m: int) -> list:
    """The threshold alphabet {0, ..., m-1, inf} in canonical order."""
    return list(range(m)) + [INF]


def is_append_edge(sys: StateSystem, target: State, source: State) -> bool:
    """True when the edge source -> target is the append-last-maximum edge,
    i.e. source = (p - 1, m - 1) for target (p, q)."""
    p = target[0]
    return source == ((p - 1) if p != INF else INF, sys.m - 1)


# Largest m for which W is built: W has O(m^3) entries (13.6 million at
# m = 300).  A cold ``graph --m 300`` takes 6.6-7.7 s and a peak RSS of
# 1.13 GB with ``--format plain``, and 36 s and 3.55 GB with the default
# ``--format dot``, on a 2-core Intel Xeon (Python 3.11).
MAX_GRAPH_M = 300


def check_graph_range(m: int) -> None:
    """Raise ValueError for m > MAX_GRAPH_M, where ``graph`` would take
    more than 1.13 GB (plain) or 3.55 GB (DOT)."""
    if m > MAX_GRAPH_M:
        raise ValueError(
            f"m={m} exceeds MAX_GRAPH_M={MAX_GRAPH_M}, the largest m whose state "
            "system W is built (W has O(m^3) entries: at m = 300, graph takes "
            "1.13 GB with --format plain and 3.55 GB with --format dot)"
        )


# Cached, so that every caller of one m in a process shares one build;
# bounded, because a system holds O(m^3) entries (330 MB at m = 300) and
# a process that builds many m (the test suite, a library loop) should
# not keep them all alive.
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
    Raises ValueError for m > MAX_GRAPH_M before any work (see
    check_graph_range).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    check_graph_range(m)
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

    sys = StateSystem(
        m=m,
        states=states,
        index=MappingProxyType({s: i for i, s in enumerate(states)}),
        coeffs=coeffs,
        pred_ptr=_offsets(np.bincount(tgt, minlength=n)),
        pred_src=_read_only(src),
        pred_deg=_read_only(deg),
        pred_cidx=_read_only(cidx),
    )
    self_loop = np.zeros(n, dtype=bool)
    self_loop[tgt[tgt == src]] = True
    # Tarjan walks the edges by source, targets increasing (a stable sort);
    # its lists are temporaries that die before the weighted periods run
    raw = _tarjan_sccs(
        _offsets(np.bincount(src, minlength=n)).tolist(),
        tgt[np.argsort(src, kind="stable")].tolist(),
    )
    sys.sccs = _decompose(sys, raw, self_loop)
    return sys


# One m at a time: the U and V products of one m share it.
@lru_cache(maxsize=1)
def _split_weights(m: int) -> tuple[np.ndarray, np.ndarray]:
    """W's split coefficients as floats, from the c_kp table: catalan(k-1)
    for k = 1..m, which c_kp(k, p) equals for k <= p+1, and the tail
    c_kp(k, p) for k > p+1 as a matrix [p, k-1] over finite p, zero for
    k <= p+1."""
    table = c_kp_table(m)
    catalans = np.array([row[m] for row in table], dtype=np.float64)
    tail = np.array([row[:m] for row in table], dtype=np.float64).T
    tail[np.arange(1, m + 1) <= np.arange(m)[:, None] + 1] = 0.0
    return _read_only(catalans), _read_only(tail)


class ComponentProduct(NamedTuple):
    """A component of ``n`` members; ``at(x)`` is the map v -> W_C(x) v."""

    n: int
    at: Callable[[float], Callable[[np.ndarray], np.ndarray]]


def component_product(m: int, tag: str) -> ComponentProduct:
    """The product v -> W_C(x) v on the cyclic component C named ``tag``
    ("U", "V" or "I") of gap bound m, from the c_kp table alone, without
    building W.  Raises ValueError for another tag and for m < 2.

    Local index i stands for the i-th state of cyclic_members(m)[tag], in
    increasing order.  Target (p, q) receives c_kp(k, p) x^k v(m-k, q-k)
    for k <= K_q (K_q = q for finite q, m for q = inf), plus x v(p-1, m-1)
    for p >= 1 (inf - 1 = inf).  Since c_kp(k, p) = catalan(k-1) for
    k <= p+1, the product
    - gathers D[k, q] = v(m-k, q-k), zero for q - k < 0 and for sources
      outside C, and v(m-k, inf) for q = inf;
    - takes the column prefix sums over k of catalan(k-1) x^k D and reads
      target (p, q) at k = min(p+1, K_q) (p = inf reads K_q), which is
      every term with k <= p+1;
    - adds the tail c_kp(k, p) x^k D[k, q], k > p+1, on the columns
      q = m-1 and q = inf only;
    - adds the append term x v(p-1, m-1).
    On U, V and I those are the only targets with a tail: K_q <= p+1 on
    V's targets q < p and on I.  Each product costs O(m^2).
    """
    components = cyclic_members(m)  # raises for m < 2
    if not (isinstance(tag, str) and tag in components):
        raise ValueError(f"tag must be 'U', 'V' or 'I', got {tag!r}")
    catalans, tail = _split_weights(m)
    members = components[tag]
    n1 = m + 1
    zero = n1 * n1  # a slot past the last state that stays 0
    p, q = np.divmod(members, n1)
    columns, col = np.unique(q, return_inverse=True)  # only the columns C uses
    k = np.arange(1, m + 1)[:, None]
    shifted = np.where(columns == m, m, columns - k)
    gather = np.where(shifted >= 0, (m - k) * n1 + shifted, zero)
    read = np.minimum(p + 1, np.where(q == m, m, q)) * len(columns) + col
    append = np.where(p == 0, zero, np.where(p == m, m, p - 1) * n1 + m - 1)
    tails = []  # (member positions, their tail rows, column), for q = m-1 and q = inf
    for c in np.flatnonzero(columns >= m - 1):
        pos = np.flatnonzero((col == c) & (p < m))
        tails.append((pos, tail[p[pos]], c))

    # Work arrays shared by every product of this component, so that a
    # radius search maps no fresh pages per product; two products of one
    # component must not run at once.  z stays zero outside the members
    # (its last slot included), and sums[0] stays zero.
    z = np.zeros(zero + 1)
    d = np.empty(gather.shape)
    terms = np.empty(gather.shape)
    sums = np.zeros((m + 1, len(columns)))

    def at(x: float):
        xk = np.power(x, np.arange(1.0, m + 1))
        weights = (catalans * xk)[:, None]

        def product(v: np.ndarray) -> np.ndarray:
            z[members] = v
            np.take(z, gather, out=d)
            np.multiply(weights, d, out=terms)
            np.cumsum(terms, axis=0, out=sums[1:])
            w = sums.ravel()[read] + x * z[append]
            for pos, rows, c in tails:
                # einsum, not a BLAS call, which OpenBLAS threads from m ~ 100 on
                w[pos] += np.einsum("ik,k->i", rows, xk * d[:, c])
            return w

        return product

    return ComponentProduct(len(members), at)


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


def cyclic_members(m: int) -> dict[str, np.ndarray]:
    """Sorted state indices of the cyclic components for m >= 2, from the
    paper's structure:

        U = {(p, inf) : p < m}
        V = {(p, q) : q < p < m} | {(p, m-1) : p < m-1}
        I = {(inf, m-1)}

    build_system checks every computed component against these sets."""
    if m < 2:
        raise ValueError("the cyclic components U, V and I need m >= 2")
    n1 = m + 1
    p, q = np.divmod(np.arange(m * n1), n1)  # the states with finite p
    return {
        "U": _read_only(np.arange(m) * n1 + m),
        "V": _read_only(np.flatnonzero((q < p) | ((q == m - 1) & (p < m - 1)))),
        "I": _read_only(np.array([m * n1 + m - 1])),
    }


def _decompose(
    sys: StateSystem, raw: list[list[int]], self_loop: np.ndarray
) -> tuple[ComponentInfo, ...]:
    """Classify the components ``raw`` that _tarjan_sccs found, in
    topological order, and compute the weighted periods of the cyclic
    ones."""
    raw.reverse()  # topological: sources before the states depending on them
    expected = cyclic_members(sys.m) if sys.m >= 2 else None
    comps: list[ComponentInfo] = []
    for members_idx in raw:
        members_idx.sort()
        members = tuple(sys.states[i] for i in members_idx)
        cyclic = len(members) > 1 or bool(self_loop[members_idx[0]])
        tag: str | None = None
        if expected is not None:
            if cyclic:
                for name, want in expected.items():
                    if np.array_equal(members_idx, want):
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
    pos = _ranges(sys.pred_ptr, members)
    rows = np.repeat(np.arange(len(members)), np.diff(sys.pred_ptr)[members])
    local = np.full(len(sys.states), -1)
    local[members] = np.arange(len(members))
    cols = local[sys.pred_src[pos]]
    inside = cols >= 0
    return rows[inside], cols[inside], pos[inside]


def _weighted_period(sys: StateSystem, members_idx: list[int]) -> int:
    """Gcd of total weights of closed walks inside one cyclic component.

    Computed from potentials on a search tree: dist(v) is the weight of
    v's tree path to the first member, from a breadth-first walk against
    the edges (each level adds the unseen sources of the entries of the
    last one), and the weighted period is the gcd of the discrepancies
    w + dist(v) - dist(u) over all intra-component edges u -> v.

    Any spanning tree gives the period.  For a path P from the first
    member to u, the discrepancy of u -> v is the weight of the closed
    walk P, u -> v, v's tree path, minus that of the closed walk P, u's
    tree path, so the period divides it.  The discrepancies along a
    closed walk sum to its weight, so their gcd divides the period.
    """
    rows, cols, pos = component_edges(sys, members_idx)
    size = len(members_idx)
    weights = sys.pred_deg[pos].astype(np.int64)
    ptr = _offsets(np.bincount(rows, minlength=size))  # rows come grouped by target
    dist = np.full(size, -1, dtype=np.int64)
    dist[0] = 0
    frontier = np.array([0])
    while frontier.size:
        unseen = dist < 0
        edges = _ranges(ptr, frontier)
        edges = edges[unseen[cols[edges]]]
        # a source reached by several edges keeps one of them as its tree edge
        dist[cols[edges]] = weights[edges] + dist[rows[edges]]
        frontier = np.flatnonzero(unseen & (dist >= 0))
    if (dist < 0).any():
        raise StructureError("component not strongly connected")
    g = int(np.gcd.reduce(np.abs(weights + dist[rows] - dist[cols])))
    if g == 0:
        raise StructureError("cyclic component with no closed walk")
    return g


def simple_cycle_weights(sys: StateSystem, comp: ComponentInfo) -> list[int]:
    """Total weights of all simple directed cycles inside the component.

    Exponential-time enumeration; used as a cross-check oracle for the
    potential-based weighted period on small components.
    """
    rows, cols, pos = component_edges(sys, [sys.index[s] for s in comp.members])
    adjacency: list[list[tuple[int, int]]] = [[] for _ in comp.members]
    # rows come in increasing order, so every source lists its targets increasing
    for t, s, degree in zip(rows.tolist(), cols.tolist(), sys.pred_deg[pos].tolist()):
        adjacency[s].append((t, degree))
    weights: list[int] = []

    def walk(start: int, v: int, total: int, visited: set[int]) -> None:
        for t, w in adjacency[v]:
            if t == start:
                weights.append(total + w)
            elif t > start and t not in visited:
                visited.add(t)
                walk(start, t, total + w, visited)
                visited.discard(t)

    for start in range(len(comp.members)):
        walk(start, start, 0, {start})
    return weights


def dependency_closure(sys: StateSystem, targets) -> np.ndarray:
    """Mask of the states that the counts of ``targets`` (state indices)
    depend on, the targets included: a level-by-level walk from the
    targets to the sources of their entries."""
    seen = np.zeros(len(sys.states), dtype=bool)
    seen[np.asarray(targets, dtype=np.intp)] = True
    frontier = np.flatnonzero(seen)
    while frontier.size:
        reached = np.zeros_like(seen)
        reached[sys.pred_src[_ranges(sys.pred_ptr, frontier)]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen |= reached
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
    size = len(comp.members)  # already sorted canonically
    rows, cols, pos = component_edges(sys, [sys.index[s] for s in comp.members])
    mat = [[ExactPoly.zero() for _ in range(size)] for _ in range(size)]
    for t, s, degree, c in zip(
        rows.tolist(), cols.tolist(), sys.pred_deg[pos].tolist(), sys.pred_cidx[pos].tolist()
    ):
        mat[t][s] = ExactPoly.monomial(degree, sys.coeffs[c])
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
    names = [_state_name(s) for s in sys.states]
    targets = _targets(sys)
    order = np.lexsort((sys.pred_src, targets))  # by target, then by source
    for t_i, s_i, degree in zip(
        targets[order].tolist(), sys.pred_src[order].tolist(), sys.pred_deg[order].tolist()
    ):
        if is_append_edge(sys, sys.states[t_i], sys.states[s_i]):
            style = "style=solid,color=blue"
        else:
            style = f'style=dotted,color=red,label="k={degree}"'
        lines.append(f'  "{names[s_i]}" -> "{names[t_i]}" [{style}];')
    lines.append("}")
    return "\n".join(lines)
