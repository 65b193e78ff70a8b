"""The flow space of a digraph over a finite abelian group.

A flow is an edge vector satisfying Kirchhoff's law at every vertex.  The
flow space is spanned by the fundamental cycles of a spanning forest: a
flow is determined by its values on non-tree edges, which is both the
enumeration strategy and the normal form used by the class machinery.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .graphs import Digraph
from .groups import Group

EdgeVector = tuple[int, ...]


@dataclass(frozen=True)
class SpanningStructure:
    """A spanning forest plus the fundamental cycle of each non-tree edge.

    Each fundamental cycle is a list of (edge id, sign) pairs containing
    its non-tree edge with sign +1; traversing the cycle in that edge's
    direction crosses tree edges with the recorded signs.
    """

    tree_edges: tuple[int, ...]
    nontree_edges: tuple[int, ...]
    cycles: tuple[tuple[tuple[int, int], ...], ...]  # parallel to nontree_edges
    components: int

    @property
    def rank(self) -> int:
        return len(self.nontree_edges)


def spanning_structure(g: Digraph, edge_order: Optional[Sequence[int]] = None) -> SpanningStructure:
    """Deterministic spanning forest, grown lowest-edge-id-first by default.

    edge_order overrides the growth priority (used by the class machinery
    to keep thread edges inside the tree).  Each fundamental cycle is its
    non-tree edge, then the tree path from that edge's head to its tail,
    found by climbing parent pointers from one rooted traversal of the
    forest.
    """
    order = list(edge_order) if edge_order is not None else list(range(g.m))
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    in_tree = [False] * g.m
    components = g.n
    for e in order:
        u, v = g.edges[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            in_tree[e] = True
            components -= 1
    tree_edges = tuple(e for e in range(g.m) if in_tree[e])

    # Root every tree: up[x] is x's parent edge (-1 at a root), depth[x] its distance from the root.
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]  # (neighbor, edge id)
    for e in tree_edges:
        u, v = g.edges[e]
        adj[u].append((v, e))
        adj[v].append((u, e))
    up, depth = [-1] * g.n, [-1] * g.n
    for root in range(g.n):
        if depth[root] < 0:
            depth[root], stack = 0, [root]
            while stack:
                x = stack.pop()
                for y, e in adj[x]:
                    if depth[y] < 0:
                        up[y], depth[y] = e, depth[x] + 1
                        stack.append(y)

    def climb(x: int) -> tuple[int, int, int]:
        """x's parent, x's parent edge, and the sign of crossing it from x."""
        e = up[x]
        eu, ev = g.edges[e]
        return (ev, e, 1) if eu == x else (eu, e, -1)

    nontree = tuple(e for e in range(g.m) if not in_tree[e])
    cycles = []
    for e in nontree:
        y, x = g.edges[e]  # close the cycle from the head x back to the tail y
        rise, fall = [], []  # signed edges up from x, and up from y with the downward sign
        while x != y:
            if depth[x] >= depth[y]:
                x, f, sign = climb(x)
                rise.append((f, sign))
            else:
                y, f, sign = climb(y)
                fall.append((f, -sign))
        cycles.append(((e, 1), *rise, *reversed(fall)))
    return SpanningStructure(tree_edges, nontree, tuple(cycles), components)


def is_flow(g: Digraph, group: Group, v: Sequence[int]) -> bool:
    """True iff the in-sum equals the out-sum at every vertex."""
    if len(v) != g.m:
        raise ValueError(f"edge vector has length {len(v)}, graph has {g.m} edges")
    for x in v:
        group.check(x)
    balance = [0] * g.n
    for e, (u, w) in enumerate(g.edges):
        if u == w:
            continue  # a loop enters and leaves; no constraint
        balance[u] = group.add(balance[u], v[e])
        balance[w] = group.sub(balance[w], v[e])
    return all(b == 0 for b in balance)


def flow_from_nontree(
    g: Digraph, group: Group, s: SpanningStructure, assignment: Sequence[int]
) -> EdgeVector:
    """The unique flow equal to `assignment` on the non-tree edges."""
    if len(assignment) != s.rank:
        raise ValueError(f"need {s.rank} non-tree values, got {len(assignment)}")
    values = [0] * g.m
    for a, cyc in zip(assignment, s.cycles):
        group.check(a)
        if a == 0:
            continue
        na = group.neg(a)
        for e, sign in cyc:
            values[e] = group.add(values[e], a if sign > 0 else na)
    return tuple(values)


def iter_flows(g: Digraph, group: Group, s: Optional[SpanningStructure] = None) -> Iterator[EdgeVector]:
    """All flows, in lexicographic order of their non-tree assignments.

    The enumeration is incremental: each step changes one odometer digit
    by +1 (wrapping digits also change by +1 mod the group order), so only
    the affected fundamental cycles are re-added.
    """
    if s is None:
        s = spanning_structure(g)
    rank = s.rank
    k = group.order
    values = [0] * g.m
    cur = [0] * rank
    # deltas[v] is the group step when an odometer digit moves from v to (v+1) % k;
    # steps[i][v] pre-applies it (with signs) along cycle i.
    deltas = [group.sub((v + 1) % k, v) for v in range(k)]
    add = [[group.add(a, b) for b in range(k)] for a in range(k)]  # Cayley table
    steps = []
    for cyc in s.cycles:
        per_value = []
        for d in deltas:
            nd = group.neg(d)
            per_value.append(tuple((e, d if sign > 0 else nd) for e, sign in cyc))
        steps.append(per_value)
    while True:
        yield tuple(values)
        i = rank - 1
        while i >= 0:
            v = cur[i]
            cur[i] = (v + 1) % k
            for e, step in steps[i][v]:
                values[e] = add[values[e]][step]
            if cur[i] != 0:
                break
            i -= 1
        if i < 0:
            return


def all_flows(g: Digraph, group: Group, s: Optional[SpanningStructure] = None) -> list[EdgeVector]:
    return list(iter_flows(g, group, s))


def find_satisfying_flow(g: Digraph, group: Group, h: Sequence[int]) -> Optional[EdgeVector]:
    """First flow (in enumeration order) differing from h on every edge, or None."""
    if len(h) != g.m:
        raise ValueError(f"forbidden mapping has length {len(h)}, graph has {g.m} edges")
    for x in h:
        group.check(x)
    for phi in iter_flows(g, group):
        if all(map(operator.ne, phi, h)):
            return phi
    return None

