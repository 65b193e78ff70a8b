"""Equivalence classes of forbidden mappings.

Two forbidden mappings are flow-equivalent when their difference is a
flow; each class has a unique member that vanishes outside a fixed
spanning tree, so tree digits index the class space (|G|^(n-1) keys for a
connected graph).  On top of that, length-2 threads (once-subdivided
edges, i.e. edge 2-cuts) allow two reductions: mappings whose two thread
values coincide after sign normalization are throw-away (NULL) classes,
and swapping the two values does not change satisfiability, so swap
orbits are merged under a canonical minimal key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .flows import EdgeVector, flow_from_nontree, spanning_structure
from .graphs import Digraph, thread_profile
from .groups import Group

NULL = None  # classify() returns None for throw-away classes


@dataclass(frozen=True)
class PairThread:
    """A length-2 thread, as seen by the class function.

    Exactly one of the two edges may be outside the tree ("mixed" kind);
    with both inside ("tree" kind) a swap is a local digit exchange.
    """

    edges: tuple[int, int]
    signs: tuple[int, int]
    kind: str  # "tree" | "mixed"
    tree_positions: tuple[int, ...]  # digit positions of the in-tree edges


class ClassFunction:
    """The class map from forbidden mappings to keys (or NULL).

    Built for a preprocessed graph: loop-free, every thread of length at
    most 2.  The spanning tree is grown thread-edges-first so that each
    length-2 thread keeps at least one edge inside the tree.
    """

    def __init__(self, g: Digraph, group: Group, use_threads: bool = True):
        if any(u == v for u, v in g.edges):
            raise ValueError("class function requires a loop-free graph")
        self.graph = g
        self.group = group
        self.use_threads = use_threads
        self.profile = thread_profile(g)
        if use_threads and any(len(t) > 2 for t in self.profile.threads):
            raise ValueError("threads longer than 2 must be removed by preprocessing")

        if use_threads:
            order = []
            for t in self.profile.threads:
                order.extend(t.edge_ids)
            order.extend(e for e in range(g.m) if e not in set(order))
            self.structure = spanning_structure(g, order)
        else:
            self.structure = spanning_structure(g)

        self.tree_pos = {e: i for i, e in enumerate(self.structure.tree_edges)}
        self.num_digits = len(self.structure.tree_edges)
        self.total_keys = group.order ** self.num_digits

        self.pair_threads: list[PairThread] = []
        if use_threads:
            for t in self.profile.threads:
                if len(t) != 2:
                    continue
                in_tree = tuple(self.tree_pos[e] for e in t.edge_ids if e in self.tree_pos)
                if len(in_tree) == 0:
                    raise AssertionError("thread with no tree edge; tree construction is broken")
                kind = "tree" if len(in_tree) == 2 else "mixed"
                self.pair_threads.append(PairThread(t.edge_ids, t.signs, kind, in_tree))

    # -- basic transforms ------------------------------------------------------

    def tree_normalize(self, h: Sequence[int]) -> EdgeVector:
        """The flow-equivalent mapping that is zero on all non-tree edges."""
        g, grp, s = self.graph, self.group, self.structure
        if len(h) != g.m:
            raise ValueError("edge vector length mismatch")
        phi = flow_from_nontree(g, grp, s, [h[e] for e in s.nontree_edges])
        return tuple(grp.sub(h[e], phi[e]) for e in range(g.m))

    def _signed(self, value: int, sign: int) -> int:
        return value if sign > 0 else self.group.neg(value)

    def thread_values(self, h: Sequence[int], t: PairThread) -> tuple[int, int]:
        """Sign-normalized values carried by the two edges of a pair thread."""
        return (
            self._signed(h[t.edges[0]], t.signs[0]),
            self._signed(h[t.edges[1]], t.signs[1]),
        )

    def swap_thread(self, h: Sequence[int], t: PairThread) -> list[int]:
        """Exchange the sign-normalized values on a pair thread."""
        out = list(h)
        v0, v1 = self.thread_values(h, t)
        out[t.edges[0]] = self._signed(v1, t.signs[0])
        out[t.edges[1]] = self._signed(v0, t.signs[1])
        return out

    def key_of_normalized(self, h: Sequence[int]) -> int:
        """Mixed-radix key of a tree-normalized mapping (digit i = tree edge i)."""
        k = self.group.order
        key = 0
        for i in reversed(range(self.num_digits)):
            key = key * k + h[self.structure.tree_edges[i]]
        return key

    # -- the class function ----------------------------------------------------

    def classify(self, h: Sequence[int]) -> Optional[int]:
        """Class key of a forbidden mapping, or NULL (None) for throw-away classes.

        The key is the minimum, over all subsets of pair-thread swaps, of
        the tree-normalized mixed-radix key.
        """
        if self.use_threads:
            for t in self.pair_threads:
                v0, v1 = self.thread_values(h, t)
                if v0 == v1:
                    return NULL
        best = None
        for mask in range(1 << len(self.pair_threads)):
            cur = list(h)
            for i, t in enumerate(self.pair_threads):
                if mask & (1 << i):
                    cur = self.swap_thread(cur, t)
            key = self.key_of_normalized(self.tree_normalize(cur))
            if best is None or key < best:
                best = key
        return best

    def representative(self, key: int) -> EdgeVector:
        """The mapping equal to the key's digits on tree edges, zero elsewhere."""
        if not 0 <= key < self.total_keys:
            raise ValueError(f"key {key} out of range")
        k = self.group.order
        out = [0] * self.graph.m
        for e in self.structure.tree_edges:
            out[e] = key % k
            key //= k
        return tuple(out)

    def count_classes(self) -> tuple[int, int]:
        """(total key space size, canonical non-NULL keys), by full sweep."""
        canonical = 0
        for key in range(self.total_keys):
            if self.classify(self.representative(key)) == key:
                canonical += 1
        return self.total_keys, canonical
