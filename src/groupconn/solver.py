"""Deciding group connectivity.

A graph is G-connected when every forbidden mapping h (one group element
per edge) is avoided by some flow: a flow f with f(e) != h(e) on every
edge.  The solvers here either report YES or return a certificate: a
forbidden mapping no flow avoids.

Four engines share the same contract:

* ``solve_ultra_naive``  -- enumerate every mapping, check each against
  every flow.  The baseline oracle.
* ``solve_naive``        -- enumerate one tree-normalized representative
  per flow-equivalence class.
* ``solve_fast``         -- the paper's engine: enumerate only mappings
  that the zero flow avoids, restricted further around edge 2-cuts, mark
  their class keys in a table, and sweep the table for an unmarked class.
* ``solve_sumset``       -- the production engine: the boundaries of
  nowhere-zero mappings form a Minkowski sum with one factor per edge
  (Jaeger, Linial, Payan and Tarsi, JCTB 56, 1992), held as a bool array
  over every zero-sum boundary.

The first two share one packed enumerate-and-check loop and differ only
in the edges whose values they enumerate: every edge, or the edges of a
spanning tree.  The first three are kept as reference oracles.

``preprocess`` shrinks an instance with always-sound reductions (loops,
bridges, short cycles, long threads) and knows how to lift certificates
back to the original graph; ``decide`` glues everything together.  It is
also the one place that resolves ``algorithm="auto"``: ultra-naive
without preprocessing, else sumset when |G|^(n-1) <= SUMSET_LIMIT, else
fast.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._pack import Packer, pack_supported
from .classes import ClassFunction
from .flows import (
    EdgeVector,
    SpanningStructure,
    find_satisfying_flow,
    flow_from_nontree,
    has_nowhere_zero_flow,
    iter_flow_assignments,
    spanning_structure,
)
from .graphs import CycleComponent, Digraph, Thread, structure_report, thread_profile
from .groups import Group

ULTRA_NAIVE_LIMIT = 10**8  # cap on |G|^m work items
NAIVE_KEY_LIMIT = 2**27  # cap on tree-representative enumeration
FAST_TABLE_LIMIT = 2**28  # cap on the class-marking table (one byte per key)
SUMSET_LIMIT = 2**28  # cap on the boundary array (one byte per boundary)
CHUNK = 1 << 21  # vectorized enumeration chunk size

PackedCols = tuple  # one numpy uint64 array per group factor


@dataclass
class Verdict:
    """Outcome of a connectivity decision.

    ``certificate`` is a forbidden mapping on the *original* edge set
    that no flow avoids (present exactly when ``connected`` is False).
    """

    graph: Digraph
    group: Group
    connected: bool
    certificate: Optional[EdgeVector]
    algorithm: str
    stats: dict = field(default_factory=dict)
    preprocessing: tuple[str, ...] = ()

    def to_json(self, indent: Optional[int] = 2) -> str:
        payload = {
            "graph": {"n": self.graph.n, "edges": [list(e) for e in self.graph.edges]},
            "group": self.group.spec_string(),
            "connected": self.connected,
            "certificate": None,
            "algorithm": self.algorithm,
            "stats": self.stats,
            "preprocessing": list(self.preprocessing),
        }
        if self.certificate is not None:
            payload["certificate"] = [
                {
                    "tail": self.graph.edges[e][0],
                    "head": self.graph.edges[e][1],
                    "forbidden": self.group.format_element(v),
                }
                for e, v in enumerate(self.certificate)
            ]
        return json.dumps(payload, indent=indent)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


@dataclass
class ReducedComponent:
    """A connected piece of the reduced graph, with edges relabeled locally."""

    graph: Digraph
    orig_edges: tuple[int, ...]  # local edge id -> original edge id


@dataclass
class ReducedInstance:
    original: Digraph
    group: Group
    components: tuple[ReducedComponent, ...]
    early_no: Optional[EdgeVector]  # certificate on the original graph
    forced_threads: tuple[tuple[tuple[int, int], ...], ...]  # ((orig_edge, sign), ...)
    steps: tuple[str, ...]

    def lift(self, assignment: dict[int, int]) -> EdgeVector:
        """Extend a partial certificate on original edge ids to all edges.

        Edges of deleted saturated threads receive distinct nonzero
        sign-normalized values, which pins the flow through the thread
        to zero; everything else deleted is filled with zero.
        """
        grp = self.group
        cert = [0] * self.original.m
        for thread in self.forced_threads:
            for j, (e, sign) in enumerate(thread):
                v = j + 1  # 1..|G|-1, all distinct and nonzero
                cert[e] = v if sign > 0 else grp.neg(v)
        for e, v in assignment.items():
            cert[e] = v
        return tuple(cert)


def _relabel(edges: list[tuple[int, int, int]]) -> ReducedComponent:
    """Relabel (u, v, orig_id) edges onto vertices 0..n-1 and edges 0..m-1."""
    verts = sorted({x for u, v, _ in edges for x in (u, v)})
    vmap = {x: i for i, x in enumerate(verts)}
    return ReducedComponent(
        Digraph(len(verts), tuple((vmap[u], vmap[v]) for u, v, _ in edges)),
        tuple(eid for _, _, eid in edges),
    )


def _relabel_components(edges: list[tuple[int, int, int]]) -> list[ReducedComponent]:
    """Split surviving (u, v, orig_id) edges into locally-labeled components."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in edges:
        parent[find(u)] = find(v)
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    for u, v, eid in edges:
        buckets.setdefault(find(u), []).append((u, v, eid))
    return [_relabel(buckets[root]) for root in sorted(buckets)]


def _pigeonhole(path: Thread | CycleComponent, group: Group, orig: tuple[int, ...]) -> dict[int, int]:
    """Forbid j mod |G|, sign-normalized, on the j-th edge of a thread or cycle.

    A flow carries one sign-normalized value along the whole path; with at
    least |G| edges every value is forbidden on some edge, so no flow
    avoids the mapping.
    """
    k = group.order
    return {
        orig[e]: j % k if sign > 0 else group.neg(j % k)
        for j, (e, sign) in enumerate(zip(path.edge_ids, path.signs))
    }


def preprocess(g: Digraph, group: Group) -> ReducedInstance:
    """Apply sound reductions to a fixpoint.

    Rules, restarted from the top after every change:

    1. delete loops (a loop value never constrains a flow);
    2. a bridge makes the instance a NO (the one forced flow value on
       the bridge can be forbidden directly);
    3. a pure-cycle component of length >= |G| is a NO (forbid |G|
       distinct sign-normalized values around it); shorter pure cycles
       carry a flow avoiding any forbidden mapping, so they are deleted;
    4. a thread (maximal path of degree-2 vertices) of length >= |G| is
       a NO for the same pigeonhole reason;
    5. a thread of exactly length |G| - 1 is deleted whole: distinct
       nonzero forbidden values along it force the thread flow to zero,
       so flows of the remainder are unrestricted.
    """
    k = group.order
    steps: list[str] = []
    forced: list[tuple[tuple[int, int], ...]] = []
    edges = [(u, v, i) for i, (u, v) in enumerate(g.edges)]

    def early(partial: dict[int, int]) -> ReducedInstance:
        inst = ReducedInstance(g, group, (), None, tuple(forced), tuple(steps))
        inst.early_no = inst.lift(partial)
        return inst

    while True:
        loops = [t for t in edges if t[0] == t[1]]
        if loops:
            edges = [t for t in edges if t[0] != t[1]]
            steps.append(f"deleted {len(loops)} loop(s)")
            continue
        if not edges:
            break

        cur = _relabel(edges)
        bridges, _, _ = structure_report(cur.graph)
        if bridges:
            b = min(bridges)
            steps.append("bridge found: not connected")
            return early({cur.orig_edges[b]: 0})

        profile = thread_profile(cur.graph)

        if profile.cycle_components:
            cyc = profile.cycle_components[0]
            if len(cyc.edge_ids) >= k:
                steps.append(f"cycle component of length {len(cyc.edge_ids)} >= {k}: not connected")
                return early(_pigeonhole(cyc, group, cur.orig_edges))
            steps.append(f"deleted cycle component of length {len(cyc.edge_ids)}")
            drop = set(cyc.edge_ids)
            edges = [t for i, t in enumerate(edges) if i not in drop]
            continue

        long_threads = [t for t in profile.threads if len(t) >= k]
        if long_threads:
            t = long_threads[0]
            steps.append(f"thread of length {len(t)} >= {k}: not connected")
            return early(_pigeonhole(t, group, cur.orig_edges))

        saturated = [t for t in profile.threads if len(t) == k - 1]
        if saturated:
            t = saturated[0]
            steps.append(f"deleted saturated thread of length {k - 1}")
            forced.append(tuple((cur.orig_edges[e], s) for e, s in zip(t.edge_ids, t.signs)))
            drop = set(t.edge_ids)
            edges = [e for i, e in enumerate(edges) if i not in drop]
            continue
        break

    components = _relabel_components(edges)
    return ReducedInstance(g, group, tuple(components), None, tuple(forced), tuple(steps))


# ---------------------------------------------------------------------------
# packed machinery shared by the engines
# ---------------------------------------------------------------------------


def _packed_flows(g: Digraph, group: Group, s: SpanningStructure):
    """All flows of g, packed into per-factor uint64 arrays, or None if unsupported."""
    if not pack_supported(group, g.m):
        return None
    k = group.order
    rank = s.rank
    if k**rank > ULTRA_NAIVE_LIMIT:
        return None
    packer = Packer(group, g.m)
    tables = [
        _pack_columns(
            packer,
            [flow_from_nontree(g, group, s, [v if i == j else 0 for i in range(rank)]) for v in range(k)],
        )
        for j in range(rank)
    ]
    return packer, _packed_sums(packer, tables)


def _pack_columns(packer: Packer, vectors: Sequence[Sequence[int]]) -> PackedCols:
    """Pack a list of vectors into per-factor numpy columns."""
    packed = [packer.pack(tuple(v)) for v in vectors]
    nfac = len(packer.group.factors)
    return tuple(np.array([p[f] for p in packed], dtype=np.uint64) for f in range(nfac))


_FLOW_PASS_CAP = 512


def _satisfied_mask(packer: Packer, flows: PackedCols, hs: PackedCols) -> np.ndarray:
    """For each packed mapping in hs, whether some flow avoids it everywhere.

    Two phases: sweep the first few hundred flows over the whole batch
    (satisfies almost everything on YES-like instances), then settle the
    stragglers one by one against the full flow space.  The straggler
    phase stops at the first mapping confirmed unsatisfied, which is all
    any caller needs; stragglers after it stay False.
    """
    n = len(hs[0])
    total_flows = len(flows[0])
    out = np.zeros(n, dtype=bool)
    # flows with many nonzero lanes satisfy far more mappings (a flow must
    # be nonzero wherever the mapping is zero), so scan those first
    # (lane counts fit int8, for which numpy's stable sort is a radix sort)
    lanes = np.bitwise_count(packer.nonzero_lanes(flows)).astype(np.int8)
    order = np.argsort(-lanes, kind="stable")
    neg_hs = packer.neg(hs)
    scanned = 0
    idx = np.arange(n)
    while scanned < total_flows:
        if len(idx) == 0:
            return out
        if scanned >= _FLOW_PASS_CAP and len(idx) <= 32:
            break  # settle the few stragglers with bulk scans instead
        flow = tuple(w[order[scanned]] for w in flows)
        diff = packer.add(flow, tuple(h[idx] for h in neg_hs))
        ok = packer.all_nonzero(diff)
        out[idx[ok]] = True
        idx = idx[~ok]
        scanned += 1
    block = max(1, CHUNK // 4)
    for j in idx:
        neg_h = tuple(w[j] for w in neg_hs)
        for start in range(scanned, total_flows, block):
            pick = order[start : start + block]
            fb = tuple(w[pick] for w in flows)
            if bool(packer.all_nonzero(packer.add(fb, neg_h)).any()):
                out[j] = True
                break
        if not out[j]:
            break
    return out


def _mixed_radix_digits(sizes: Sequence[int], start: int, count: int):
    """Yield (c, digits of coordinate c) for enumeration indices start..start+count-1.

    Coordinate 0 is the most significant digit; coordinates are yielded
    from the least significant one up, one array at a time.
    """
    idx = np.arange(start, start + count)
    period = 1
    for c in reversed(range(len(sizes))):
        yield c, (idx // period) % sizes[c]
        period *= sizes[c]


def _enumerate_packed(packer: Packer, tables: list[PackedCols], sizes: list[int], start: int, count: int) -> PackedCols:
    """Packed sums over a mixed-radix product of contribution tables.

    ``tables[c]`` holds per-factor columns for coordinate c; coordinate 0
    is the most significant digit of the enumeration index.
    """
    words = None
    for c, digit in _mixed_radix_digits(sizes, start, count):
        cols = tuple(col[digit] for col in tables[c])
        words = cols if words is None else packer.add(words, cols)
    return words


def _packed_sums(packer: Packer, tables: Sequence[PackedCols]) -> PackedCols:
    """Packed sums over the whole mixed-radix product of contribution tables.

    ``tables[c]`` holds per-factor columns for coordinate c, one entry per
    value; coordinate 0 is the most significant digit of the result's
    index.  The product grows outward from the least significant
    coordinate, so each sum costs one add rather than one per coordinate.
    """
    words = tuple(np.zeros(1, dtype=np.uint64) for _ in packer.group.factors)
    for cols in reversed(tables):
        grown = packer.add(tuple(c[:, None] for c in cols), tuple(w[None, :] for w in words))
        words = tuple(w.ravel() for w in grown)
    return words


def _chunked_sums(packer: Packer, tables: list[PackedCols]):
    """Yield (start, packed sums) chunks of the product of tables, in index order.

    The low coordinates are the longest suffix whose product is at most
    CHUNK; their sums are built once, and a chunk adds one value of the
    high coordinates to all of them.  (``FastInstance`` keeps summing
    coordinate by coordinate through ``_enumerate_packed``.  With sums
    built this way its marking runs several times faster, but its two
    ``thread_opt`` modes then differ only in how many mappings they
    enumerate, and the thread-optimization speedup of acceptance
    criterion 7 falls from about 12x to under 4x.)
    """
    split, low = len(tables), 1
    while split and low * len(tables[split - 1][0]) <= CHUNK:
        split -= 1
        low *= len(tables[split][0])
    low_words = _packed_sums(packer, tables[split:])
    if not split:
        yield 0, low_words
        return
    high_words = _packed_sums(packer, tables[:split])
    for i in range(len(high_words[0])):
        yield i * low, packer.add(low_words, tuple(w[i] for w in high_words))


def _unit_vectors(m: int, e: int, k: int) -> list[tuple[int, ...]]:
    return [tuple(v if i == e else 0 for i in range(m)) for v in range(k)]


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def _without_loops(g: Digraph) -> tuple[list[int], Digraph]:
    """Ids of the non-loop edges of g, and g with its loops removed."""
    core = [i for i, (u, v) in enumerate(g.edges) if u != v]
    return core, Digraph(g.n, tuple(g.edges[i] for i in core))


def _place(m: int, positions: Sequence[int], values: Sequence[int]) -> EdgeVector:
    """Length-m edge vector with values[i] on edge positions[i], zero elsewhere."""
    h = [0] * m
    for e, v in zip(positions, values):
        h[e] = v
    return tuple(h)


def verify_certificate(g: Digraph, group: Group, h: Sequence[int]) -> bool:
    """True when h is a valid NO-certificate: no flow avoids it everywhere."""
    if len(h) != g.m:
        raise ValueError("certificate length mismatch")
    for v in h:
        group.check(v)
    # a flow puts arbitrary values on loops, so loops never block one
    core, g = _without_loops(g)
    h = tuple(h[i] for i in core)
    if g.m == 0:
        return False
    s = spanning_structure(g)
    packed = _packed_flows(g, group, s)
    if packed is not None:
        packer, flows = packed
        hs = _pack_columns(packer, [h])
        return not bool(_satisfied_mask(packer, flows, hs)[0])
    return find_satisfying_flow(g, group, h) is None


def _digits_of(index: int, k: int, width: int) -> list[int]:
    """Big-endian digits (position 0 most significant) of an enumeration index."""
    out = []
    for _ in range(width):
        out.append(index % k)
        index //= k
    out.reverse()
    return out


def _first_unavoidable(
    g: Digraph, group: Group, s: SpanningStructure, positions: Sequence[int], stats: dict
) -> Optional[EdgeVector]:
    """First mapping supported on `positions` that no flow of g avoids, or None.

    Mappings run over every value assignment to the edges in `positions`
    (zero elsewhere), in lexicographic order with positions[0] the most
    significant digit.  Adds the number checked to stats["mappings_enumerated"].
    """
    if g.m == 0:
        return None
    k = group.order
    packed = _packed_flows(g, group, s)
    if packed is None:
        for digits in iter_flow_assignments(group, len(positions)):
            stats["mappings_enumerated"] += 1
            h = _place(g.m, positions, digits)
            if find_satisfying_flow(g, group, h) is None:
                return h
        return None
    packer, flows = packed
    tables = [_pack_columns(packer, _unit_vectors(g.m, e, k)) for e in positions]
    for start, hs in _chunked_sums(packer, tables):
        sat = _satisfied_mask(packer, flows, hs)
        stats["mappings_enumerated"] += len(sat)
        bad = np.flatnonzero(~sat)
        if len(bad):
            return _place(g.m, positions, _digits_of(start + int(bad[0]), k, len(positions)))
    return None


def solve_ultra_naive(g: Digraph, group: Group) -> Verdict:
    """Check every forbidden mapping against every flow.

    The reference oracle: no preprocessing assumptions at all (loops and
    disconnected graphs are fine).  Guarded by ULTRA_NAIVE_LIMIT.
    """
    k = group.order
    t0 = time.perf_counter()
    if k**g.m > ULTRA_NAIVE_LIMIT:
        raise ValueError(f"|G|^m = {k}**{g.m} exceeds the ultra-naive limit")
    core, gg = _without_loops(g)
    s = spanning_structure(gg)
    stats = {"mappings_enumerated": 0, "flows": k**s.rank}
    bad = _first_unavoidable(gg, group, s, range(gg.m), stats)
    stats["elapsed"] = time.perf_counter() - t0
    if bad is None:
        return Verdict(g, group, True, None, "ultra-naive", stats)
    return Verdict(g, group, False, _place(g.m, core, bad), "ultra-naive", stats)


def solve_naive(g: Digraph, group: Group) -> Verdict:
    """Enumerate one tree-normalized mapping per flow-equivalence class.

    Requires a loop-free graph.  Still exponential, but in n rather
    than m.
    """
    if any(u == v for u, v in g.edges):
        raise ValueError("solve_naive requires a loop-free graph")
    k = group.order
    t0 = time.perf_counter()
    s = spanning_structure(g)
    tree = s.tree_edges
    total = k ** len(tree)
    if total > NAIVE_KEY_LIMIT:
        raise ValueError(f"|G|^(tree size) = {k}**{len(tree)} exceeds the naive limit")
    stats = {"classes_total": total, "mappings_enumerated": 0, "flows": k**s.rank}
    bad = _first_unavoidable(g, group, s, tree, stats)
    stats["elapsed"] = time.perf_counter() - t0
    if bad is None:
        return Verdict(g, group, True, None, "naive", stats)
    return Verdict(g, group, False, bad, "naive", stats)


class FastInstance:
    """Precomputed state for solve_fast on one preprocessed component.

    Holds the packed contribution tables that the marking phase and the
    sweep share.  Only the ``fast`` oracle uses it.
    """

    def __init__(self, g: Digraph, group: Group, thread_opt: bool = True):
        self.graph = g
        self.group = group
        self.thread_opt = thread_opt
        self.cf = ClassFunction(g, group, use_threads=thread_opt)
        k = group.order
        ndig = self.cf.num_digits
        if k**ndig > FAST_TABLE_LIMIT:
            raise ValueError(f"class table |G|**{ndig} exceeds the fast-engine limit")
        if not pack_supported(group, max(ndig, 1)):
            raise ValueError("group/graph does not fit the packed key representation")
        self.key_packer = Packer(group, max(ndig, 1))

        # enumeration coordinates: one per length-2 thread (distinct
        # sign-normalized nonzero value pairs), one per remaining edge
        # (single nonzero values)
        thread_edges = {e for t in self.cf.pair_threads for e in t.edges}
        self.coords: list[dict] = []
        for t in self.cf.pair_threads:
            vectors = []
            for a in range(1, k):
                for b in range(a + 1, k):
                    h = [0] * g.m
                    h[t.edges[0]] = a if t.signs[0] > 0 else group.neg(a)
                    h[t.edges[1]] = b if t.signs[1] > 0 else group.neg(b)
                    vectors.append(tuple(h))
            self.coords.append({"kind": "thread", "thread": t, "vectors": vectors})
        for e in range(g.m):
            if e in thread_edges:
                continue
            vectors = []
            for v in range(1, k):
                h = [0] * g.m
                h[e] = v
                vectors.append(tuple(h))
            self.coords.append({"kind": "edge", "edge": e, "vectors": vectors})

        # packed key-digit contribution of every coordinate value
        self.tables = [
            _pack_columns(self.key_packer, [self._key_digits(h) for h in c["vectors"]])
            for c in self.coords
        ]
        self.sizes = [len(c["vectors"]) for c in self.coords]
        self.total = 1
        for sz in self.sizes:
            self.total *= sz

    def _key_digits(self, h: EdgeVector) -> tuple[int, ...]:
        norm = self.cf.tree_normalize(h)
        digits = tuple(norm[e] for e in self.cf.structure.tree_edges)
        return digits if digits else (0,)

    # -- marking phase ---------------------------------------------------------

    def mark_table(self) -> np.ndarray:
        """Mark the class key of every enumerated mapping (all avoided by the zero flow)."""
        k = self.group.order
        table = np.zeros(k**self.cf.num_digits, dtype=bool)
        if self.total == 0:  # a thread coordinate with no admissible pair
            return table
        for start in range(0, self.total, CHUNK):
            count = min(CHUNK, self.total - start)
            words = _enumerate_packed(self.key_packer, self.tables, self.sizes, start, count)
            table[self.key_packer.key(words).astype(np.int64)] = True
        return table

    # -- sweep phase -------------------------------------------------------------

    def _sweep_coords(self):
        """Candidate tree-digit patterns and their packed swap deltas.

        One coordinate per length-2 thread (locally-valid digit patterns,
        one side of each swap pair) plus one per uncovered tree digit.
        Each thread coordinate also carries the packed key delta that a
        swap of that thread applies; swap deltas only depend on the
        thread's own digits, so they tabulate per coordinate value.
        """
        k, grp, cf = self.group.order, self.group, self.cf
        coords: list[list[tuple[int, ...]]] = []
        deltas: list[Optional[list[tuple[int, ...]]]] = []
        covered = set()
        for t in cf.pair_threads:
            pos = t.tree_positions
            covered.update(pos)
            values, swapped = [], []
            if t.kind == "tree":
                i, j = pos  # aligned with t.edges order
                si, sj = t.signs
                for a in range(k):
                    for b in range(a + 1, k):
                        digits = [0] * cf.num_digits
                        digits[i] = a if si > 0 else grp.neg(a)
                        digits[j] = b if sj > 0 else grp.neg(b)
                        sw = [0] * cf.num_digits
                        sw[i] = b if si > 0 else grp.neg(b)
                        sw[j] = a if sj > 0 else grp.neg(a)
                        values.append(tuple(digits))
                        swapped.append(tuple(sw))
            else:
                (i,) = pos
                for d in range(1, k):
                    digits = [0] * cf.num_digits
                    digits[i] = d
                    key = sum(dv * k**p for p, dv in enumerate(digits))
                    partner = cf.tree_normalize(cf.swap_thread(cf.representative(key), t))
                    values.append(tuple(digits))
                    swapped.append(tuple(partner[e] for e in cf.structure.tree_edges))
            coords.append(values)
            deltas.append([tuple(grp.sub(s_, v_) for s_, v_ in zip(s, v)) for s, v in zip(swapped, values)])
        for p in range(cf.num_digits):
            if p in covered:
                continue
            values = []
            for d in range(k):
                digits = [0] * cf.num_digits
                digits[p] = d
                values.append(tuple(digits))
            coords.append(values)
            deltas.append(None)
        return coords, deltas

    def sweep(self, table: np.ndarray) -> Optional[EdgeVector]:
        """Find a class with no marked swap-orbit member; None means all marked.

        Candidates run over locally-valid digit patterns (distinct
        sign-normalized values across threads); for each, the 2^t swap
        orbit of keys is OR-ed against the marking table.
        """
        packer = self.key_packer
        coords, deltas = self._sweep_coords()
        tabs = [_pack_columns(packer, values) for values in coords]
        dtabs = [None if d is None else _pack_columns(packer, d) for d in deltas]
        sizes = [len(v) for v in coords]
        total = 1
        for sz in sizes:
            total *= sz
        nthreads = len(self.cf.pair_threads)

        for start in range(0, total, CHUNK):
            count = min(CHUNK, total - start)
            words = None
            dcols = []
            for c, digit in _mixed_radix_digits(sizes, start, count):
                cols = tuple(col[digit] for col in tabs[c])
                words = cols if words is None else packer.add(words, cols)
                if dtabs[c] is not None:
                    dcols.append(tuple(col[digit] for col in dtabs[c]))
            dcols.reverse()

            marked = np.zeros(count, dtype=bool)
            for mask in range(1 << nthreads):
                cur = words
                for i in range(nthreads):
                    if mask & (1 << i):
                        cur = packer.add(cur, dcols[i])
                marked |= table[packer.key(cur).astype(np.int64)]
                if marked.all():
                    break
            bad = np.flatnonzero(~marked)
            if len(bad):
                pick = tuple(w[bad[0] : bad[0] + 1] for w in words)
                return self.cf.representative(int(packer.key(pick)[0]))
        return None


def solve_fast(g: Digraph, group: Group, thread_opt: bool = True) -> Verdict:
    """Marking-table engine for a preprocessed connected component.

    Enumerates only mappings the zero flow avoids, restricted to distinct
    sign-normalized pairs across length-2 threads when ``thread_opt`` is
    on; marks their class keys; sweeps for an unmarked class.
    """
    t0 = time.perf_counter()
    inst = FastInstance(g, group, thread_opt=thread_opt)
    table = inst.mark_table()
    if thread_opt:
        cert = inst.sweep(table)
    else:
        bad = np.flatnonzero(~table)
        cert = inst.cf.representative(int(bad[0])) if len(bad) else None
    stats = {
        "classes_total": int(group.order**inst.cf.num_digits),
        "classes_marked": int(table.sum()),
        "mappings_enumerated": int(inst.total),
        "pair_threads": len(inst.cf.pair_threads),
        "elapsed": time.perf_counter() - t0,
    }
    if cert is None:
        return Verdict(g, group, True, None, "fast", stats)
    if not verify_certificate(g, group, cert):
        raise AssertionError(
            "fast engine produced an invalid certificate; the class function is inconsistent"
        )
    return Verdict(g, group, False, tuple(cert), "fast", stats)


def _elimination_order(g: Digraph) -> list[int]:
    """Vertices ordered so that each has few edges to the vertices before it.

    Built from the back: the last place goes to a vertex of least degree,
    which is then removed, and so on.  The boundary array of solve_sumset
    grows by one vertex per place, so this keeps most edges on small arrays.
    """
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    degree = [len(a) for a in adj]
    left = set(range(g.n))
    order = []
    while left:
        x = min(left, key=lambda y: (degree[y], y))
        left.remove(x)
        order.append(x)
        for y in adj[x]:
            degree[y] -= 1
    order.reverse()
    return order


def _tree_mapping(g: Digraph, group: Group, root: int, beta: Sequence[int]) -> EdgeVector:
    """A mapping supported on a BFS spanning tree whose boundary is beta.

    The boundary of h at x is the sum of h over edges leaving x minus the
    sum over edges entering x; beta must sum to zero.  Leaves are peeled
    first, each fixing the value of the tree edge to its parent.
    """
    inc = g.incidence()
    parent_edge = {root: -1}
    bfs = [root]
    for x in bfs:
        for e in inc[x]:
            u, v = g.edges[e]
            y = v if u == x else u
            if y not in parent_edge:
                parent_edge[y] = e
                bfs.append(y)
    if len(bfs) != g.n:
        raise ValueError("solve_sumset requires a connected graph")
    h = [0] * g.m
    acc = [0] * g.n  # boundary of the tree edges fixed so far
    for x in reversed(bfs[1:]):
        e = parent_edge[x]
        need = group.sub(beta[x], acc[x])
        u, v = g.edges[e]
        h[e] = need if u == x else group.neg(need)
        other = v if u == x else u
        acc[other] = group.sub(acc[other], need)
    return tuple(h)


def solve_sumset(g: Digraph, group: Group) -> Verdict:
    """Boundary-sumset engine for a connected graph (loops are ignored).

    g is connected exactly when every zero-sum boundary beta is the
    boundary of a nowhere-zero mapping.  Those boundaries are the sum over
    edges uv of {c*(chi_u - chi_v) : c != 0}, kept as a bool array with one
    axis per (vertex, cyclic factor); the first vertex of
    _elimination_order has no axes, its value being fixed by the zero sum.
    Vertices join the array in that order, a vertex's edges to earlier
    vertices being added right after it joins.  A full array is YES.
    Otherwise, for the first unreached beta, a tree mapping phi with
    boundary beta is the certificate: if a flow f avoided phi, phi - f
    would be nowhere-zero with boundary beta.
    """
    t0 = time.perf_counter()
    k, nf = group.order, len(group.factors)
    total = k ** (g.n - 1)
    if total > SUMSET_LIMIT:
        raise ValueError(f"boundary array |G|**{g.n - 1} exceeds the sumset-engine limit")
    order = _elimination_order(g)
    place = {x: p for p, x in enumerate(order)}
    joins: list[list[int]] = [[] for _ in range(g.n)]  # earlier endpoint of each edge, by later place
    for u, v in g.edges:
        if u != v:
            lo, hi = sorted((place[u], place[v]))
            joins[hi].append(lo)
    # the vertex at place p owns axes (t-p)*nf .. (t-p)*nf+nf-1 of the
    # level-t array, factors in reverse so the C-order index of a
    # vertex's axes is its element index; the Ellipsis keeps a block a
    # view even when it has no axes left
    coords = [tuple(reversed(group.to_tuple(a))) for a in range(k)]
    index = [a + (Ellipsis,) for a in coords]
    shape = tuple(reversed(group.factors))
    reached = np.ones((), dtype=bool)
    edges_added = 0
    for t in range(1, g.n):
        grown = np.zeros(shape + reached.shape, dtype=bool)
        grown[index[0]] = reached
        reached = grown
        for p in joins[t]:
            # the new vertex gains c and the vertex at place p loses c
            axes = tuple(range((t - p - 1) * nf, (t - p) * nf))
            out = np.zeros_like(reached)
            for b in range(k):
                block = reached[index[b]]
                for c in range(1, k):
                    target = out[index[group.add(b, c)]]
                    target |= np.roll(block, coords[group.neg(c)], axes) if p else block
            reached = out
            edges_added += 1
            if t == g.n - 1 and reached.all():
                break
    count = int(np.count_nonzero(reached))
    stats = {"boundaries_total": total, "boundaries_reached": count, "edges_added": edges_added}
    if count == total:
        stats["elapsed"] = time.perf_counter() - t0
        return Verdict(g, group, True, None, "sumset", stats)
    # argmin of a bool array is its first False: the first unreached beta
    digits = _digits_of(int(np.argmin(reached)), k, g.n - 1)  # digits[0] is the last place
    beta = [0] * g.n
    for p in range(1, g.n):
        beta[order[p]] = digits[g.n - 1 - p]
        beta[order[0]] = group.sub(beta[order[0]], beta[order[p]])
    cert = _tree_mapping(g, group, order[0], beta)
    stats["elapsed"] = time.perf_counter() - t0
    if not verify_certificate(g, group, cert):
        raise AssertionError("sumset engine produced an invalid certificate; the boundary array is inconsistent")
    return Verdict(g, group, False, cert, "sumset", stats)


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def exists_nowhere_zero_flow(g: Digraph, group: Group) -> bool:
    """Whether g has a flow avoiding zero on every non-loop edge."""
    _, gg = _without_loops(g)
    if gg.m == 0:
        return True
    s = spanning_structure(gg)
    packed = _packed_flows(gg, group, s)
    if packed is not None:
        packer, flows = packed
        return bool(packer.all_nonzero(flows).any())
    return has_nowhere_zero_flow(gg, group) is not None


def decide(
    g: Digraph,
    group: Group,
    algorithm: str = "auto",
    use_preprocessing: bool = True,
    thread_opt: bool = True,
) -> Verdict:
    """Decide group connectivity of an arbitrary graph.

    ``algorithm`` is one of "ultra", "naive", "fast", "sumset", "auto".
    "auto" picks ultra-naive when ``use_preprocessing`` is False, else
    sumset when |G|^(n-1) <= SUMSET_LIMIT, else fast, with n that of the
    input graph.  Only the ultra-naive engine supports
    ``use_preprocessing=False`` (it is the oracle the preprocessing is
    validated against).
    """
    t0 = time.perf_counter()
    if algorithm == "auto":
        if not use_preprocessing:
            algorithm = "ultra"
        elif group.order ** (g.n - 1) <= SUMSET_LIMIT:
            algorithm = "sumset"
        else:
            algorithm = "fast"
    if not use_preprocessing:
        if algorithm != "ultra":
            raise ValueError("only the ultra-naive engine can run without preprocessing")
        v = solve_ultra_naive(g, group)
        v.stats["elapsed_total"] = time.perf_counter() - t0
        return v

    inst = preprocess(g, group)
    if inst.early_no is not None:
        return Verdict(
            g,
            group,
            False,
            inst.early_no,
            "preprocess",
            {"elapsed_total": time.perf_counter() - t0},
            inst.steps,
        )

    stats: dict = {"components": len(inst.components)}
    for comp in inst.components:
        if algorithm == "ultra":
            v = solve_ultra_naive(comp.graph, group)
        elif algorithm == "naive":
            v = solve_naive(comp.graph, group)
        elif algorithm == "fast":
            v = solve_fast(comp.graph, group, thread_opt=thread_opt)
        elif algorithm == "sumset":
            v = solve_sumset(comp.graph, group)
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        for key, val in v.stats.items():
            if isinstance(val, bool):
                stats[key] = val
            elif isinstance(val, (int, float)):
                stats[key] = stats.get(key, 0) + val
            else:
                stats[key] = val
        if not v.connected:
            cert = inst.lift({comp.orig_edges[e]: v.certificate[e] for e in range(comp.graph.m)})
            stats["elapsed_total"] = time.perf_counter() - t0
            return Verdict(g, group, False, cert, v.algorithm, stats, inst.steps)
    stats["elapsed_total"] = time.perf_counter() - t0
    algo = algorithm if inst.components else "preprocess"
    return Verdict(g, group, True, None, algo, stats, inst.steps)
