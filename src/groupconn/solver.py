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
  (Jaeger, Linial, Payan and Tarsi, JCTB 56, 1992), held as a bit array
  (64 boundaries to a uint64 word) over the zero-sum boundaries of the
  vertices left when short threads are contracted into edges.  Its
  SUMSET_LIMIT counts only those vertices, so it reaches graphs whose
  ``fast`` table is too large.

The first two share one flow-check kernel and differ only in the edges
whose values they enumerate: every edge, or the edges of a spanning
tree.  The kernel builds the flows as rows of element indices, reading
each fundamental cycle's values from one signed cycle matrix and adding
them through the Cayley table, and marks the mappings they avoid in a
bit array, one bit per mapping: the ``_Cells`` array that also holds the
sumset's boundaries.  The mappings a flow avoids are the cells that
differ from its own on every axis, spread by comparing digits and by
rotating axes, with none of the sumset's moves.  ``avoiding_flow``
(behind ``verify_certificate``) scans the same flow rows against a
single mapping.  Only ``solve_fast`` packs group elements into bit
lanes.  The first three engines are kept as reference oracles.

``preprocess`` shrinks an instance with always-sound reductions (loops,
bridges, short cycles, long threads) and knows how to lift certificates
back to the original graph; ``decide`` glues everything together.  It is
also the one place that resolves ``algorithm="auto"``: ultra-naive
without preprocessing, else sumset on every reduced component.

One read-only plan per graph value and order (``_plan``) holds the thread
walk, preprocess's reduction, the sumset layout and the spanning structure
every flow check reads; one read-only table set per group (``_tables``)
holds the Cayley table, signed multiples, automorphisms, the bit array's
word layout and element moves, and naive's in-word boxes.  So a decide
computes only its group's values and does its array work.  With the
bounded ``_head`` and ``_fixers`` they are the solver's only memos.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from ._pack import Packer
from .classes import ClassFunction
from .flows import EdgeVector, SpanningStructure, spanning_structure
from .graphs import CycleComponent, Digraph, Thread, ThreadProfile, structure_report, thread_profile
from .groups import Group

ULTRA_NAIVE_LIMIT = 10**8  # cap on |G|^m work items
NAIVE_KEY_LIMIT = 2**28  # cap on tree-representative enumeration (one bit per mapping)
FAST_TABLE_LIMIT = 2**28  # cap on the class-marking table (one byte per key)
SUMSET_LIMIT = 2**28  # cap on the boundary array (one bit per boundary, threads contracted)
CHUNK = 1 << 21  # vectorized enumeration chunk size
ALGORITHMS = ("auto", "sumset", "fast", "naive", "ultra")  # the names decide accepts
AUT_CANDIDATE_LIMIT = 4096  # cap on the candidate automorphisms _tables tries

PackedCols = tuple  # one numpy uint64 array per group factor


def certificate_entries(g: Digraph, group: Group, cert: Sequence[int]) -> list[dict]:
    """A certificate as JSON entries, one {tail, head, forbidden} per edge."""
    return [
        {"tail": g.edges[e][0], "head": g.edges[e][1], "forbidden": group.format_element(v)}
        for e, v in enumerate(cert)
    ]


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

    def to_json(self) -> str:
        """One compact JSON line without the input graph, which the caller has.

        Each certificate entry still names its edge's tail and head, in the
        graph's edge order.  Timings in ``stats`` are rounded to the
        microsecond.
        """
        payload = {
            "group": self.group.spec_string(),
            "connected": self.connected,
            "certificate": None,
            "algorithm": self.algorithm,
            "stats": {k: round(v, 6) if isinstance(v, float) else v for k, v in self.stats.items()},
            "preprocessing": list(self.preprocessing),
        }
        if self.certificate is not None:
            payload["certificate"] = certificate_entries(self.graph, self.group, self.certificate)
        return json.dumps(payload, separators=(",", ":"))


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


class ReducedComponent(NamedTuple):
    """A connected piece of the reduced graph, with edges relabeled locally."""

    graph: Digraph
    orig_edges: tuple[int, ...]  # local edge id -> original edge id


Path = tuple[tuple[int, int], ...]  # (original edge id, sign) along a thread or a cycle


@dataclass
class ReducedInstance:
    original: Digraph
    group: Group
    components: tuple[ReducedComponent, ...]
    early_no: Optional[EdgeVector]  # certificate on the original graph
    forced_threads: tuple[Path, ...]
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


def _split(cur: ReducedComponent, components: list[list[int]]) -> tuple[ReducedComponent, ...]:
    """Cut `cur` into its connected components, each relabeled locally."""
    if len(components) == 1:  # cur has no isolated vertex, so relabelling it changes nothing
        return (cur,)
    comp_of = {v: c for c, members in enumerate(components) for v in members}
    pieces: list[list[tuple[int, int, int]]] = [[] for _ in components]
    for (u, v), eid in zip(cur.graph.edges, cur.orig_edges):
        pieces[comp_of[u]].append((u, v, eid))
    return tuple(_relabel(p) for p in pieces)


def _path(t: Thread | CycleComponent, orig: tuple[int, ...]) -> Path:
    """A thread or cycle of a relabeled graph as (original edge id, sign) pairs."""
    return tuple((orig[e], sign) for e, sign in zip(t.edge_ids, t.signs))


def _pigeonhole(path: Path, group: Group) -> dict[int, int]:
    """Forbid j mod |G|, sign-normalized, on the j-th edge of a thread or cycle.

    A flow carries one sign-normalized value along the whole path; with at
    least |G| edges every value is forbidden on some edge, so no flow
    avoids the mapping.  (On a bridge, a path of one edge, it forbids 0.)
    """
    k = group.order
    return {e: j % k if sign > 0 else group.neg(j % k) for j, (e, sign) in enumerate(path)}


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

    The rules read only the graph and |G|, so they run once per graph and
    order (the ``reduction`` of ``_plan``); only the certificate's values
    use the group.
    """
    components, forced, early, steps = _plan(g, group.order).reduction
    inst = ReducedInstance(g, group, components, None, forced, steps)
    if early is not None:
        inst.early_no = inst.lift(_pigeonhole(early, group))
    return inst


def _reduce(plan: _Plan) -> tuple[tuple[ReducedComponent, ...], tuple[Path, ...], Optional[Path], tuple[str, ...]]:
    """preprocess's rules on the plan's graph: components, forced threads, early-NO path, steps.

    An early NO forbids j mod |G| on the j-th edge of its path, a bridge
    being a path of one edge.  The rounds start from the plan's core, whose
    walk is the plan's; a last round that leaves one component hands its
    walk to that component's plan, where the sumset layout reads it.
    """
    k, loops, forced = plan.k, plan.graph.m - plan.core.m, []
    steps = [f"deleted {loops} loop(s)"] if loops else []
    edges = [(u, v, i) for i, (u, v) in zip(plan.core_ids, plan.core.edges)]

    def early(path: Path):
        return (), tuple(forced), path, tuple(steps)

    while edges:
        cur = _relabel(edges)
        bridges, components, _ = structure_report(cur.graph)
        if bridges:
            steps.append("bridge found: not connected")
            return early(((cur.orig_edges[min(bridges)], 1),))

        profile = plan.walk if cur.graph == plan.core else thread_profile(cur.graph)

        if profile.cycle_components:
            cyc = profile.cycle_components[0]
            if len(cyc.edge_ids) >= k:
                steps.append(f"cycle component of length {len(cyc.edge_ids)} >= {k}: not connected")
                return early(_path(cyc, cur.orig_edges))
            steps.append(f"deleted cycle component of length {len(cyc.edge_ids)}")
            drop = set(cyc.edge_ids)
            edges = [t for i, t in enumerate(edges) if i not in drop]
            continue

        long_threads = [t for t in profile.threads if len(t) >= k]
        if long_threads:
            t = long_threads[0]
            steps.append(f"thread of length {len(t)} >= {k}: not connected")
            return early(_path(t, cur.orig_edges))

        saturated = [t for t in profile.threads if len(t) == k - 1]
        if saturated:
            t = saturated[0]
            steps.append(f"deleted saturated thread of length {k - 1}")
            forced.append(_path(t, cur.orig_edges))
            drop = set(t.edge_ids)
            edges = [e for i, e in enumerate(edges) if i not in drop]
            continue

        pieces = _split(cur, components)
        if len(pieces) == 1:
            vars(_plan(cur.graph, k)).setdefault("walk", profile)
        return pieces, tuple(forced), None, tuple(steps)
    return (), tuple(forced), None, tuple(steps)


# ---------------------------------------------------------------------------
# one plan per graph and order, one table set per group
# ---------------------------------------------------------------------------


class _Plan:
    """What the decides of one graph over the groups of one order share (read-only).

    ``core`` is the graph without its loops, ``core_ids`` the ids of its
    edges.  The other parts are built on first use and kept: ``walk``, the
    core's thread walk; ``reduction``, preprocess's outcome without the
    group's arithmetic; ``layout``, solve_sumset's places, joins and
    contracted threads; ``tree``, the core's spanning structure.
    """

    def __init__(self, g: Digraph, k: int):
        self.graph, self.k = g, k
        self.core_ids = tuple(i for i, (u, v) in enumerate(g.edges) if u != v)
        self.core = g if len(self.core_ids) == g.m else Digraph(g.n, tuple(g.edges[i] for i in self.core_ids))

    @functools.cached_property
    def walk(self) -> ThreadProfile:
        return thread_profile(self.core)

    @functools.cached_property
    def reduction(self) -> tuple:
        return _reduce(self)

    @functools.cached_property
    def layout(self) -> tuple:
        return _lay_out(self)

    @functools.cached_property
    def tree(self) -> SpanningStructure:
        return spanning_structure(self.core)


# Two plans: a decide reads its graph's plan and then its reduced
# component's, and every group of the order reads the same two, as do the
# certificate checks and the naive cross-check of either graph.
@functools.lru_cache(maxsize=2)
def _plan(g: Digraph, k: int) -> _Plan:
    return _Plan(g, k)


def _word_places(k: int) -> int:
    """j, the largest with k**j <= 64: the places of a ``_Cells`` array that are bits of one word."""
    return max(j for j in range(1, 7) if k**j <= 64)


class _Move(NamedTuple):
    """The move of a ``_Cells`` axis by one element c: out[.., x, ..] = cells[.., x + c, ..] (read-only)."""

    column: np.ndarray  # column c of the addition table, taken along an outer axis
    kernels: tuple[tuple, ...]  # [p - 1] moves in-word place p, of stride k**(p-1) (see _kernel)


class _Tables(NamedTuple):
    """One group's read-only tables."""

    add: np.ndarray  # the addition table as uint8 element indices: [a, b] is a + b
    moves: tuple[tuple[_Move, _Move], ...]  # the move of an edge taking c: (move by -c, move by c)
    signed: np.ndarray  # signed multiples as intp element indices: rows 0, 1, -1 hold 0, a, -a at [., a]
    automorphisms: tuple[tuple[int, ...], ...]  # each a tuple of element indices: sigma[a]
    j: int  # _word_places of the order
    full: tuple[np.ndarray, ...]  # [i] is the word of the k**i live cells of i <= j in-word axes
    boxes: tuple[np.ndarray, ...]  # [i][x]: the word of the cells of i in-word places that differ from x in each


def _kernel(column: np.ndarray, stride: int, bits: int) -> tuple:
    """One (shift, by, mask) step per source-to-target offset moving the in-word axis of this stride by column."""
    k, masks = len(column), {}
    for b in range(bits):
        x = (b // stride) % k
        off = (int(column[x]) - x) * stride  # > 0: the source is the higher bit
        masks[off] = masks.get(off, 0) | 1 << b  # the target cells, of the word's first `bits`, the offset serves
    steps = []
    for off, bit_mask in masks.items():  # 0-d arrays: ufuncs take them faster than numpy scalars
        by, mask = np.array(abs(off), np.uint64), np.array(bit_mask, np.uint64)
        by.flags.writeable = mask.flags.writeable = False
        steps.append((np.right_shift if off > 0 else np.left_shift, by, mask))
    return tuple(steps)


@functools.lru_cache(maxsize=None)
def _tables(group: Group) -> _Tables:
    """The group's tables, built once per group.

    An automorphism is fixed by the images of the cyclic factors'
    generators, the i-th going to some x with f_i * x = 0; the candidates
    that are bijections are kept.  When there are more than
    AUT_CANDIDATE_LIMIT candidates (z2^4 and larger elementary groups),
    only the identity and negation are kept: solve_sumset's pruning is
    sound with any set of automorphisms.
    """
    k, j = group.order, _word_places(group.order)
    add = np.array([[group.add(a, b) for b in range(k)] for a in range(k)], dtype=np.uint8)
    signed = np.array([[0] * k, range(k), [group.neg(a) for a in range(k)]], dtype=np.intp)
    full = tuple(np.array((1 << k**i) - 1, dtype=np.uint64) for i in range(j + 1))
    boxes = []
    for i in range(j + 1):
        digits = np.indices((k,) * i).reshape(i, k**i)
        differ = (digits[:, :, None] != digits[:, None, :]).all(axis=0)  # [x, y]: y differs from x in every place
        boxes.append(np.bitwise_or.reduce(differ.astype(np.uint64) << np.arange(k**i, dtype=np.uint64), axis=1))
    for table in (add, signed, *full, *boxes):
        table.flags.writeable = False
    by_element = tuple(_Move(add[:, c], tuple(_kernel(add[:, c], k**p, k**j) for p in range(j))) for c in range(k))
    multiples = np.zeros((k, max(group.factors) + 1), dtype=np.intp)  # [x, d] is d * x
    for d in range(1, multiples.shape[1]):
        multiples[:, d] = add[multiples[:, d - 1], np.arange(k)]
    images = [[x for x in range(k) if multiples[x, f] == 0] for f in group.factors]
    auts = [tuple(range(k)), tuple(signed[2].tolist())]  # identity and negation
    if math.prod(len(xs) for xs in images) <= AUT_CANDIDATE_LIMIT:
        digits, auts = np.array([group.to_tuple(a) for a in range(k)], dtype=np.intp).T, []
        for gens in itertools.product(*images):
            sigma = np.zeros(k, dtype=np.intp)
            for x, d in zip(gens, digits):
                sigma = add[sigma, multiples[x, d]]
            if len(set(sigma.tolist())) == k:
                auts.append(tuple(sigma.tolist()))
    moves = tuple((by_element[group.neg(c)], by_element[c]) for c in range(k))
    return _Tables(add, moves, signed, tuple(dict.fromkeys(auts)), j, full, tuple(boxes))


# ---------------------------------------------------------------------------
# flow rows and the packed bit array shared by the engines
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _fixers(group: Group, fixing: int, f: tuple[int, ...]) -> Optional[int]:
    """Which automorphisms of the bit mask `fixing` (bit i: ``_tables(group).automorphisms[i]``) fix the set f.

    None when one of them maps f to a lexicographically smaller set, else
    the mask of those that map f to itself.
    """
    auts = _tables(group).automorphisms
    members = [i for i in range(len(auts)) if fixing >> i & 1]
    images = [tuple(sorted(auts[i][x] for x in f)) for i in members]
    if min(images) < f:
        return None
    return sum(1 << i for i, image in zip(members, images) if image == f)


def _flow_rows(
    g: Digraph, group: Group, s: SpanningStructure, values: Sequence[Sequence[int]], rows: int
) -> Iterator[np.ndarray]:
    """Yield the flows of g whose c-th non-tree edge takes a value in values[c].

    Each flow is a uint8 row of element indices, one per edge; the rows
    come in the lexicographic order of their non-tree values (as in
    ``flows.iter_flows``), in chunks of at most ``rows`` (but at least one).
    Fundamental cycle c with value a is a lookup: row c of the signed cycle
    matrix picks 0, a or -a per edge from ``signed``.  The sums of the
    trailing non-tree coordinates are built once, and a chunk adds one
    combination of the leading ones to all of them, each sum one ``take``
    from the flattened Cayley table with the left operand premultiplied
    by |G| (in intp: k * a + b reaches 4,095 at order 64).
    """
    k, m, signed = group.order, g.m, _tables(group).signed
    add = _tables(group).add.reshape(-1)  # add[k * a + b] is a + b
    at = np.array([(c, e, sign) for c, cyc in enumerate(s.cycles) for e, sign in cyc], dtype=np.intp).reshape(-1, 3)
    signs = np.zeros((s.rank, m), dtype=np.int8)  # the signed cycle matrix
    signs[at[:, 0], at[:, 1]] = at[:, 2]
    tables = [k * signed[signs[c], np.asarray(vals, dtype=np.intp)[:, None]] for c, vals in enumerate(values)]
    split, low = len(tables), 1
    while split and low * len(tables[split - 1]) <= rows:
        split -= 1
        low *= len(tables[split])
    sums = np.zeros((1, m), dtype=np.uint8)
    for t in reversed(tables[split:]):
        sums = add.take(t[:, None, :] + sums).reshape(-1, m)
    for digits in itertools.product(*(range(len(t)) for t in tables[:split])):
        lead = np.zeros(m, dtype=np.uint8)
        for t, d in zip(tables, digits):
            lead = add.take(t[d] + lead)
        yield add.take(k * lead.astype(np.intp) + sums)


class _Cells:
    """A bool array of shape (k,) * axes in C order, 64 cells to a uint64 word.

    The innermost min(axes, j) axes (j of the group's ``_tables``) are the
    bits of one word, the last axis the least significant digit; the outer
    axes are the axes of ``words``.  Bits past the k**min(axes, j) live
    cells stay 0.  Axes are named by place: place p >= 1 owns axis
    axes - p, so places 1..j are in the word, and place 0 owns no axis.
    """

    def __init__(self, tables: _Tables, axes: int, words: np.ndarray):
        self.tables, self.axes, self.words = tables, axes, words
        self.k, self.j, self.full = len(tables.add), tables.j, tables.full[min(axes, tables.j)]

    def grown(self) -> _Cells:
        """One more axis, in front; every cell set so far gets digit 0 on it."""
        if self.axes < self.j:  # digit 0 of a new in-word axis leaves every bit in place
            return _Cells(self.tables, self.axes + 1, self.words)
        words = np.zeros((self.k,) + self.words.shape, dtype=np.uint64)
        words[0] = self.words
        return _Cells(self.tables, self.axes + 1, words)

    def shifted(self, move: tuple[_Move, ...], places: tuple[int, ...]) -> np.ndarray:
        """Words of self moved by move: out[.., x_p, ..] = self[.., move[i].column[x_p], ..] at p = places[i].

        A new array; at most one place may be 0 (no axis).
        """
        words = self.words
        for one, p in zip(move, places):
            if p > self.j:
                words = words.take(one.column, axis=self.axes - p)
            elif p:  # one shift and one AND per step of the place's kernel
                (shift, by, mask), *rest = one.kernels[p - 1]
                moved = shift(words, by)
                moved &= mask
                for shift, by, mask in rest:
                    part = shift(words, by)
                    part &= mask
                    moved |= part
                words = moved
        return words

    def with_edge(self, moves: Sequence[tuple], places: tuple[int, ...]) -> _Cells:
        """The OR of self moved by each of moves: for the sumset, self plus one edge taking those values."""
        words = self.shifted(moves[0], places)
        for move in moves[1:]:
            words |= self.shifted(move, places)
        return _Cells(self.tables, self.axes, words)

    def hit_by(self, moves: Sequence[tuple], places: tuple[int, ...], times: int) -> bool:
        """Whether every cell is set in at least `times` of the moved arrays.

        Bit-sliced saturating counters: ge[q] holds the cells hit q+1 times or more.
        """
        ge = [np.zeros_like(self.words) for _ in range(times)]
        for move in moves:
            hit = self.shifted(move, places)
            for q in range(times - 1, 0, -1):
                ge[q] |= ge[q - 1] & hit
            ge[0] |= hit
        return bool((ge[-1] == self.full).all())

    def all(self) -> bool:
        return bool((self.words == self.full).all())

    def count(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def first_zero(self) -> int:
        """C-order flat index of the first cell not set; the array must not be full."""
        flat = self.words.reshape(-1)
        w = int(np.flatnonzero(flat != self.full)[0])
        x = int(flat[w])
        return w * self.k ** min(self.axes, self.j) + (~x & (x + 1)).bit_length() - 1


@functools.lru_cache(maxsize=4096)
def _head(group: Group, h: int, pairs: tuple[tuple[int, int], ...]) -> _Cells:
    """The sumset's first h <= j places plus an edge per place pair, in one word (read-only).

    An edge takes every nonzero value, a set closed under negation, and sums
    commute, so solve_sumset keys this by the sorted pairs of sorted places.
    """
    tables = _tables(group)
    cells = _Cells(tables, h, np.ones((), dtype=np.uint64))
    for pair in pairs:
        cells = cells.with_edge(tables.moves[1:], pair)
    words = np.array(cells.words, dtype=np.uint64)  # a 0-d ufunc result is a numpy scalar
    words.flags.writeable = False
    return _Cells(tables, h, words)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def _place(m: int, positions: Sequence[int], values: Sequence[int]) -> EdgeVector:
    """Length-m edge vector with values[i] on edge positions[i], zero elsewhere."""
    h = [0] * m
    for e, v in zip(positions, values):
        h[e] = v
    return tuple(h)


def avoiding_flow(g: Digraph, group: Group, h: Sequence[int]) -> Optional[EdgeVector]:
    """The first flow of g, in ``flows.iter_flows`` order, that differs from h on every edge.

    None when there is none, i.e. when h is a valid NO-certificate.  A
    non-tree edge only takes values other than h's, so at most
    (|G|-1)^rank flows are built, a chunk at a time.  Raises ValueError once
    ULTRA_NAIVE_LIMIT flows are checked without finding one.
    """
    if len(h) != g.m:
        raise ValueError("certificate length mismatch")
    for v in h:
        group.check(v)
    # a flow puts arbitrary values on loops, so loops never block one
    plan = _plan(g, group.order)
    core, gg, s = plan.core_ids, plan.core, plan.tree
    hc = np.array([h[e] for e in core], dtype=np.uint8)
    values = [[a for a in range(group.order) if a != hc[e]] for e in s.nontree_edges]
    checked = 0
    for flows in _flow_rows(gg, group, s, values, CHUNK // max(gg.m, 1)):
        if checked >= ULTRA_NAIVE_LIMIT:
            raise ValueError(f"no avoiding flow among the first {checked} flows; the rest exceed the check's limit")
        ok = (flows != hc).all(axis=1)
        if ok.any():
            flow = [0 if v else 1 for v in h]  # loops: any value other than h's
            for e, v in zip(core, flows[int(np.argmax(ok))]):
                flow[e] = int(v)
            return tuple(flow)
        checked += len(flows)
    return None


def verify_certificate(g: Digraph, group: Group, h: Sequence[int]) -> bool:
    """True when h is a valid NO-certificate: no flow avoids it everywhere."""
    return avoiding_flow(g, group, h) is None


def _digits_of(index: int, k: int, width: int) -> list[int]:
    """Big-endian digits (position 0 most significant) of an enumeration index."""
    return [int(x) for x in np.unravel_index(index, (k,) * width)]


def _first_unavoidable(
    g: Digraph, group: Group, s: SpanningStructure, positions: Sequence[int], stats: dict
) -> Optional[EdgeVector]:
    """First mapping supported on `positions` that no flow of g avoids, or None.

    Mappings run over every value assignment to the edges in `positions`
    (zero elsewhere), in lexicographic order with positions[0] the most
    significant digit; `positions` must hold every tree edge.  Such a
    mapping is avoided by flow f exactly when f is nonzero off `positions`
    and differs from it on every position.  So the mappings f avoids are
    the cells of a ``_Cells`` array, one axis per position, that differ
    from f's cell on every axis.  That spread commutes with OR, so each
    flow ORs in the box of its in-word digits (``_tables``' boxes), and
    each outer axis is spread once at the end, with no group move.  The
    first cell left unset is the first unavoidable mapping.  Adds the
    number of mappings settled to stats["mappings_enumerated"].
    """
    k, d, tables = group.order, len(positions), _tables(group)
    inside = set(positions)
    values = [range(k) if e in inside else range(1, k) for e in s.nontree_edges]
    j = min(d, tables.j)
    words = np.zeros((k,) * (d - j), dtype=np.uint64)
    place = k ** np.arange(d - 1, -1, -1, dtype=np.int64)
    for flows in _flow_rows(g, group, s, values, CHUNK // max(g.m, 1)):
        flat = flows[:, list(positions)] @ place
        np.bitwise_or.at(words.reshape(-1), flat // k**j, tables.boxes[j][flat % k**j])
    rotations = [(np.arange(k) + r) % k for r in range(1, k)]
    for axis in range(d - j):  # a cell takes the OR of the other cells of its axis
        spread = words.take(rotations[0], axis=axis)
        for rotation in rotations[1:]:
            spread |= words.take(rotation, axis=axis)
        words = spread
    avoided = _Cells(tables, d, words)
    stats["mappings_enumerated"] += k**d
    if avoided.all():
        return None
    return _place(g.m, positions, _digits_of(avoided.first_zero(), k, d))


def solve_ultra_naive(g: Digraph, group: Group) -> Verdict:
    """Check every forbidden mapping against every flow.

    The reference oracle: no preprocessing assumptions at all (loops and
    disconnected graphs are fine).  Guarded by ULTRA_NAIVE_LIMIT.
    """
    k = group.order
    t0 = time.perf_counter()
    if k**g.m > ULTRA_NAIVE_LIMIT:
        raise ValueError(f"|G|^m = {k}**{g.m} exceeds the ultra-naive limit")
    plan = _plan(g, k)
    stats = {"mappings_enumerated": 0, "flows": k**plan.tree.rank}
    bad = _first_unavoidable(plan.core, group, plan.tree, range(plan.core.m), stats)
    stats["elapsed"] = time.perf_counter() - t0
    if bad is None:
        return Verdict(g, group, True, None, "ultra-naive", stats)
    return Verdict(g, group, False, _place(g.m, plan.core_ids, bad), "ultra-naive", stats)


def solve_naive(g: Digraph, group: Group) -> Verdict:
    """Enumerate one tree-normalized mapping per flow-equivalence class.

    Requires a loop-free graph.  Still exponential, but in n rather
    than m.
    """
    if any(u == v for u, v in g.edges):
        raise ValueError("solve_naive requires a loop-free graph")
    k = group.order
    t0 = time.perf_counter()
    s = _plan(g, k).tree
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


# ---------------------------------------------------------------------------
# packed machinery of the fast oracle
# ---------------------------------------------------------------------------


def _pack_columns(packer: Packer, vectors: Sequence[Sequence[int]]) -> PackedCols:
    """Pack a list of vectors into per-factor numpy columns."""
    packed = [packer.pack(tuple(v)) for v in vectors]
    nfac = len(packer.group.factors)
    return tuple(np.array([p[f] for p in packed], dtype=np.uint64) for f in range(nfac))


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
    is the most significant digit of the enumeration index.  Each sum is
    built coordinate by coordinate.  (Built once per block of low
    coordinates instead, marking runs several times faster, but the two
    ``thread_opt`` modes then differ only in how many mappings they
    enumerate, and the thread-optimization speedup of acceptance
    criterion 7 falls from about 12x to under 4x.)
    """
    words = None
    for c, digit in _mixed_radix_digits(sizes, start, count):
        cols = tuple(col[digit] for col in tables[c])
        words = cols if words is None else packer.add(words, cols)
    return words


class FastInstance:
    """Precomputed state for solve_fast on one preprocessed component.

    Holds the packed contribution tables that the marking phase and the
    sweep share.  Only the ``fast`` oracle uses it.
    """

    def __init__(self, g: Digraph, group: Group, thread_opt: bool = True):
        self.graph = g
        self.group = group
        self.cf = ClassFunction(g, group, use_threads=thread_opt)
        k = group.order
        ndig = self.cf.num_digits
        if k**ndig > FAST_TABLE_LIMIT:
            raise ValueError(f"class table |G|**{ndig} exceeds the fast-engine limit")
        self.key_packer = Packer(group, max(ndig, 1))

        # enumeration coordinates: one per length-2 thread (distinct
        # sign-normalized nonzero value pairs), one per remaining edge
        # (single nonzero values)
        thread_edges = {e for t in self.cf.pair_threads for e in t.edges}
        coords: list[list[EdgeVector]] = []
        for t in self.cf.pair_threads:
            vectors = []
            for a in range(1, k):
                for b in range(a + 1, k):
                    h = [0] * g.m
                    h[t.edges[0]] = a if t.signs[0] > 0 else group.neg(a)
                    h[t.edges[1]] = b if t.signs[1] > 0 else group.neg(b)
                    vectors.append(tuple(h))
            coords.append(vectors)
        for e in range(g.m):
            if e in thread_edges:
                continue
            vectors = []
            for v in range(1, k):
                h = [0] * g.m
                h[e] = v
                vectors.append(tuple(h))
            coords.append(vectors)

        # packed key-digit contribution of every coordinate value
        self.tables = [
            _pack_columns(self.key_packer, [self._key_digits(h) for h in vectors])
            for vectors in coords
        ]
        self.sizes = [len(vectors) for vectors in coords]
        self.total = math.prod(self.sizes)

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
        total = math.prod(sizes)
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


def _lay_out(plan: _Plan) -> tuple:
    """solve_sumset's layout of the plan's graph: (order, h, head, joins, threads, contracted).

    The vertex at each place; the places 1..h in one word; the place pairs
    of the head's plain edges; the pairs joining at h+1, h+2, ..; (end
    places, inner vertices) per contracted thread between two vertices; the
    number of threads contracted, those from a vertex back to itself too.
    """
    k, core = plan.k, plan.core
    contracted = [t for t in plan.walk.threads if 2 <= len(t) <= k - 1]
    inner = {x for t in contracted for x in t.inner}
    # (u, v, inner vertices) of the contracted threads that are not loops
    threads = [(t.tail_anchor, t.head_anchor, t.inner) for t in contracted if t.tail_anchor != t.head_anchor]
    plain = [(u, v) for u, v in core.edges if u not in inner and v not in inner]
    keep = [x for x in range(core.n) if x not in inner]
    local = {x: i for i, x in enumerate(keep)}
    branch_graph = Digraph(len(keep), tuple((local[u], local[v]) for u, v, *_ in plain + threads))
    order = tuple(keep[i] for i in _elimination_order(branch_graph))
    n = len(order)
    place = {x: p for p, x in enumerate(order)}
    joins: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # plain edges, by their later place
    for u, v in plain:
        joins[max(place[u], place[v])].append((place[u], place[v]))
    h = min(_word_places(k), n - 1)
    return (
        order,
        h,
        tuple(sorted(tuple(sorted(pair)) for t in range(1, h + 1) for pair in joins[t])),
        tuple(tuple(pairs) for pairs in joins[h + 1 :]),
        tuple(((place[u], place[v]), mid) for u, v, mid in threads),
        len(contracted),
    )


def solve_sumset(g: Digraph, group: Group) -> Verdict:
    """Boundary-sumset engine for a connected graph (loops are ignored).

    g is connected exactly when every zero-sum boundary beta is the
    boundary of a nowhere-zero mapping.  Those boundaries are the sum over
    edges uv of {c*(chi_u - chi_v) : c != 0}, kept as a packed bool array
    (``_Cells``) with one axis of size |G| per vertex but the first of
    _elimination_order, whose value is fixed by the zero sum.  Vertices
    join the array in that order, a vertex's edges to earlier vertices
    being added right after it joins.  The places that fit one word, with
    their edges, come from the cache ``_head``; ``edges_added`` counts all
    of the head's edges, even past the point where the array is full.

    A thread u -> w1 -> ... -> v of 2 <= L <= |G|-1 edges is contracted
    first: boundaries at w1.. with partial sums s1.. leave its first edge
    the values c not in F = {0, -s1, ...}, and the rest of its boundary
    moves onto v.  So its inner vertices get no axes, and the thread is
    added last as an edge uv with values outside F, branching depth first
    over every F of 0 and L-1 distinct nonzero values (a thread from v to
    v adds nothing and is dropped).  The places, joins and contracted
    threads depend only on g and |G|: they are the ``layout`` of g's
    ``_plan``, which the decides of g over every group of one order
    share.  An automorphism sigma of G maps the leaf for F1, F2, .. onto
    the leaf for sigma F1, sigma F2, .., so a choice of F is skipped when
    an automorphism fixing the F chosen before it maps it to a
    lexicographically smaller one (``_fixers``, cached per group): the
    first leaf that is not full is the least of its orbit, so none of its
    prefixes is skipped.  A full array is YES for its whole subtree; the
    last thread is full for every F when each cell is hit by at least L of
    its |G|-1 shifts.  At the first leaf that is not full, the first
    unreached beta, lifted to g with partial sums -F, has a tree mapping
    phi as its certificate: if a flow f avoided phi, phi - f would be
    nowhere-zero with boundary beta.
    """
    t0 = time.perf_counter()
    k = group.order
    order, h, head, joins, threads, contracted = _plan(g, k).layout
    n, total = len(order), k ** (len(order) - 1)
    if total > SUMSET_LIMIT:
        raise ValueError(f"boundary array |G|**{n - 1} exceeds the sumset-engine limit")
    tables = _tables(group)
    moves, nonzero = tables.moves, tables.moves[1:]
    stats = {
        "boundaries_total": total,
        "edges_added": len(head),
        "threads_contracted": contracted,
        "thread_branches": 0,
        "symmetric_skips": 0,
    }
    reached = _head(group, h, head)
    for t, pairs in enumerate(joins, h + 1):
        reached = reached.grown()
        for pair in pairs:
            reached = reached.with_edge(nonzero, pair)
            stats["edges_added"] += 1
            if t == n - 1 and reached.all():
                break

    def branch(i: int, arr: _Cells, fixing: int):
        """The first leaf below arr that is not full, and the F chosen for threads i.., or None.

        fixing is the bit mask (``_fixers``) of the automorphisms that fix the F chosen for threads ..i-1.
        """
        if i == len(threads):
            return None if arr.all() else (arr, [])
        stats["thread_branches"] += 1
        if arr.all():
            return None
        ends, mid = threads[i]
        if i == len(threads) - 1 and arr.hit_by(nonzero, ends, len(mid) + 1):
            return None
        for f in itertools.combinations(range(1, k), len(mid)):
            fixers = _fixers(group, fixing, f)
            if fixers is None:
                stats["symmetric_skips"] += 1
                continue
            stats["edges_added"] += 1
            found = branch(i + 1, arr.with_edge([moves[c] for c in range(1, k) if c not in f], ends), fixers)
            if found:
                return found[0], [f] + found[1]
        return None

    found = branch(0, reached, (1 << len(tables.automorphisms)) - 1)
    if found is None:
        stats.update(boundaries_reached=total, elapsed=time.perf_counter() - t0)
        return Verdict(g, group, True, None, "sumset", stats)
    leaf, chosen = found
    stats["boundaries_reached"] = leaf.count()
    digits = _digits_of(leaf.first_zero(), k, n - 1)  # the first unreached beta; digits[0] is the last place
    beta = [0] * g.n
    for p in range(1, n):
        beta[order[p]] = digits[n - 1 - p]
        beta[order[0]] = group.sub(beta[order[0]], beta[order[p]])
    for ((_, pv), mid), f in zip(threads, chosen):
        s = 0  # partial sum of the inner boundaries so far
        for w, x in zip(mid, f):
            beta[w] = group.sub(group.neg(x), s)
            s = group.neg(x)
        beta[order[pv]] = group.sub(beta[order[pv]], s)
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
    return not verify_certificate(g, group, (0,) * g.m)


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
    sumset, which checks SUMSET_LIMIT against |G|^(b-1) on each reduced
    component with b vertices left after thread contraction (the ``fast``
    table is capped at |G|^(n_c-1) with every vertex counted, so sumset
    gets further).  Only the ultra-naive engine supports
    ``use_preprocessing=False`` (it is the oracle the preprocessing is
    validated against).  Component stats are summed.
    """
    t0 = time.perf_counter()
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "auto":
        algorithm = "sumset" if use_preprocessing else "ultra"
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
        else:
            v = solve_sumset(comp.graph, group)
        for key, val in v.stats.items():
            stats[key] = stats.get(key, 0) + val
        if not v.connected:
            cert = inst.lift({comp.orig_edges[e]: v.certificate[e] for e in range(comp.graph.m)})
            stats["elapsed_total"] = time.perf_counter() - t0
            return Verdict(g, group, False, cert, v.algorithm, stats, inst.steps)
    stats["elapsed_total"] = time.perf_counter() - t0
    return Verdict(g, group, True, None, v.algorithm if inst.components else "preprocess", stats, inst.steps)
