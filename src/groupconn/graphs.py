"""Oriented multigraphs: parsing, subdivision, and structural analysis.

The orientation is bookkeeping only (group connectivity is invariant under
edge reversal); the default orientation for undirected inputs is from the
smaller to the larger endpoint, which keeps certificates reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass


class GraphParseError(ValueError):
    pass


@dataclass(frozen=True)
class Digraph:
    """An oriented multigraph.  Edge ids are positions in the edge list.

    Loops and parallel edges are allowed.  Subdividing edge e keeps every
    other edge id stable: e's slot is replaced by the first path edge and
    the remaining path edges are appended.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for {self.n} vertices")

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        """Vertex degrees; a loop contributes 2 to its vertex."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def incidence(self) -> list[list[int]]:
        """For each vertex, the ids of incident edges (loops listed once)."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            if v != u:
                inc[v].append(i)
        return inc

    def to_edgelist(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Digraph:
    """Parse the plain edge-list format: header "n m", then m "tail head" lines."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphParseError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError(f"bad header line {lines[0]!r}, expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise GraphParseError(f"header declares {m} edges but {len(lines) - 1} follow")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphParseError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex id out of range in edge line {ln!r}")
        edges.append((u, v))
    return Digraph(n, tuple(edges))


def parse_graph6(text: str) -> Digraph:
    """Decode one graph6 line (simple undirected graph, n <= 62).

    Each undirected edge is oriented from the smaller to the larger
    endpoint, listed in graph6 upper-triangle bit order.
    """
    s = text.strip()
    if not s:
        raise GraphParseError("empty graph6 input")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = s.encode("ascii", errors="strict") if isinstance(s, str) else s
    first = data[0]
    if first == 126:
        raise GraphParseError("graph6 inputs with more than 62 vertices are not supported")
    if not 63 <= first <= 125:
        raise GraphParseError(f"malformed graph6 header byte {first}")
    n = first - 63
    body = data[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise GraphParseError("truncated graph6 bit string")
    if len(body) > need:
        raise GraphParseError("trailing garbage after graph6 bit string")
    bits = []
    for c in body:
        if not 63 <= c <= 126:
            raise GraphParseError(f"invalid graph6 byte {c}")
        x = c - 63
        bits.extend((x >> (5 - k)) & 1 for k in range(6))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    if any(bits[nbits:]):
        raise GraphParseError("nonzero padding bits in graph6 input")
    return Digraph(n, tuple(edges))


def encode_graph6(g: Digraph) -> str:
    """Encode a simple undirected graph (n <= 62) as a graph6 line."""
    if g.n > 62:
        raise ValueError("encode_graph6 supports at most 62 vertices")
    seen = set()
    adj = [[False] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        if u == v:
            raise ValueError("graph6 cannot encode loops")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError("graph6 cannot encode parallel edges")
        seen.add(key)
        adj[u][v] = adj[v][u] = True
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if adj[i][j] else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        x = 0
        for b in bits[k:k + 6]:
            x = (x << 1) | b
        out.append(chr(x + 63))
    return "".join(out)


def parse_graph(text: str, fmt: str) -> Digraph:
    if fmt == "graph6":
        return parse_graph6(text.strip().splitlines()[0] if text.strip() else "")
    if fmt == "edgelist":
        return parse_edgelist(text)
    raise GraphParseError(f"unknown graph format {fmt!r}")


def subdivide(g: Digraph, edge: int, k: int = 1) -> Digraph:
    """Replace edge (u,v) by a directed path u -> w1 -> ... -> wk -> v.

    The first path edge reuses the subdivided edge's id; the rest are
    appended, so all other edge ids are stable.
    """
    if not 0 <= edge < g.m:
        raise ValueError(f"unknown edge id {edge}")
    if k < 1:
        raise ValueError("subdivision count must be >= 1")
    u, v = g.edges[edge]
    new_vertices = list(range(g.n, g.n + k))
    path = [u] + new_vertices + [v]
    edges = list(g.edges)
    edges[edge] = (path[0], path[1])
    for i in range(1, k + 1):
        edges.append((path[i], path[i + 1]))
    return Digraph(g.n + k, tuple(edges))


# The 3-cube: two 4-cycles joined by a matching.  Witness subdivision
# counts name edges by their position here, so the order is fixed.
CUBE = Digraph(
    8,
    (
        (0, 1), (1, 2), (2, 3), (3, 0),
        (4, 5), (5, 6), (6, 7), (7, 4),
        (0, 4), (1, 5), (2, 6), (3, 7),
    ),
)


@dataclass(frozen=True)
class Thread:
    """A maximal path whose internal vertices have degree 2.

    edge_ids follow the traversal from tail_anchor to head_anchor; sign is
    +1 where the stored edge orientation agrees with the traversal.
    """

    edge_ids: tuple[int, ...]
    signs: tuple[int, ...]
    tail_anchor: int
    head_anchor: int

    def __len__(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class CycleComponent:
    """A connected component in which every vertex has degree exactly 2."""

    edge_ids: tuple[int, ...]
    signs: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class ThreadProfile:
    threads: tuple[Thread, ...]
    cycle_components: tuple[CycleComponent, ...]
    suppressed: Digraph


def thread_profile(g: Digraph) -> ThreadProfile:
    """Decompose a loop-free graph into threads and pure-cycle components.

    Threads run between anchor vertices (degree != 2), traversed from the
    lower-numbered anchor, ties broken by lowest first-edge id.  The
    suppressed multigraph keeps the original vertex set and has one edge
    per thread, oriented along the traversal.
    """
    if any(u == v for u, v in g.edges):
        raise ValueError("thread_profile requires a loop-free graph")
    deg = g.degrees()
    inc = g.incidence()
    anchors = [v for v in range(g.n) if deg[v] != 0 and deg[v] != 2]
    used = [False] * g.m
    threads: list[Thread] = []

    def other_end(eid: int, v: int) -> int:
        u, w = g.edges[eid]
        return w if u == v else u

    for a in anchors:
        for eid in sorted(inc[a]):
            if used[eid]:
                continue
            edge_ids = []
            signs = []
            cur = a
            e = eid
            while True:
                used[e] = True
                u, w = g.edges[e]
                signs.append(1 if u == cur else -1)
                edge_ids.append(e)
                cur = other_end(e, cur)
                if deg[cur] != 2:
                    break
                e1, e2 = sorted(i for i in inc[cur])
                e = e2 if e1 == e else e1
            threads.append(Thread(tuple(edge_ids), tuple(signs), a, cur))

    # Keep only the canonical direction; a thread between two anchors is
    # discovered once from each end unless both ends coincide.
    canon: list[Thread] = []
    seen_edge_sets = set()
    for t in threads:
        key = frozenset(t.edge_ids)
        if key in seen_edge_sets:
            continue
        seen_edge_sets.add(key)
        canon.append(t)

    cycles: list[CycleComponent] = []
    for v in range(g.n):
        if deg[v] != 2:
            continue
        first = min((e for e in inc[v] if not used[e]), default=None)
        if first is None:
            continue
        edge_ids = []
        signs = []
        cur = v
        e = first
        while True:
            used[e] = True
            u, w = g.edges[e]
            signs.append(1 if u == cur else -1)
            edge_ids.append(e)
            cur = other_end(e, cur)
            if cur == v:
                break
            e1, e2 = sorted(i for i in inc[cur])
            e = e2 if e1 == e else e1
        cycles.append(CycleComponent(tuple(edge_ids), tuple(signs)))

    suppressed = Digraph(g.n, tuple((t.tail_anchor, t.head_anchor) for t in canon))
    return ThreadProfile(tuple(canon), tuple(cycles), suppressed)


def structure_report(g: Digraph) -> tuple[set[int], list[list[int]], set[int]]:
    """Return (bridge edge ids, connected components as vertex lists, loop edge ids)."""
    loops = {i for i, (u, v) in enumerate(g.edges) if u == v}
    inc = g.incidence()

    # Components via DFS.
    comp = [-1] * g.n
    components: list[list[int]] = []
    for s in range(g.n):
        if comp[s] != -1:
            continue
        cid = len(components)
        stack = [s]
        comp[s] = cid
        members = [s]
        while stack:
            v = stack.pop()
            for e in inc[v]:
                u, w = g.edges[e]
                nxt = w if u == v else u
                if comp[nxt] == -1:
                    comp[nxt] = cid
                    members.append(nxt)
                    stack.append(nxt)
        components.append(sorted(members))

    # Bridges via iterative DFS lowpoint computation; parallel edges and
    # loops are never bridges.
    bridges: set[int] = set()
    disc = [-1] * g.n
    low = [0] * g.n
    timer = 0
    for s in range(g.n):
        if disc[s] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(s, -1, 0)]  # vertex, entry edge, child iter pos
        order: list[tuple[int, int]] = []
        disc[s] = low[s] = timer
        timer += 1
        it_pos = {s: 0}
        path = [(s, -1)]
        while path:
            v, pe = path[-1]
            advanced = False
            while it_pos[v] < len(inc[v]):
                e = inc[v][it_pos[v]]
                it_pos[v] += 1
                if e == pe or e in loops:
                    continue
                u, w = g.edges[e]
                nxt = w if u == v else u
                if disc[nxt] == -1:
                    disc[nxt] = low[nxt] = timer
                    timer += 1
                    it_pos[nxt] = 0
                    path.append((nxt, e))
                    advanced = True
                    break
                low[v] = min(low[v], disc[nxt])
            if not advanced:
                path.pop()
                if path:
                    pv, _ = path[-1]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        bridges.add(pe)
    return bridges, components, loops
