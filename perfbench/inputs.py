"""Workload inputs: the fixed graphs of each workload and their seeded edge orientations.

Graphs are plain ``(n, edges)`` pairs built here rather than by the
package, so a change to the program cannot change what the benchmark
feeds it.  ``subdivide`` follows the documented edge-id convention of
``groupconn.graphs.subdivide``: the first path edge keeps the subdivided
edge's id and the rest are appended.

The seed never changes which graphs a workload decides, only the
orientation of their edges: each edge is reversed with probability 1/2.
Verdicts do not depend on orientation.  Vertex labels stay as they are:
under two seeded vertex permutations decide-hard ran at 0.070 and 0.082
graphs/s and peaked at 342 and 228 MB, while with edge reversals alone
its peak stayed within 283-285 MB over fifteen seeds.
"""

from __future__ import annotations

import itertools
import random

Graph = tuple  # (n, ((u, v), ...))

CUBE: Graph = (
    8,
    (
        (0, 1), (1, 2), (2, 3), (3, 0),
        (4, 5), (5, 6), (6, 7), (7, 4),
        (0, 4), (1, 5), (2, 6), (3, 7),
    ),
)

PETERSEN: Graph = (
    10,
    (
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ),
)

K6: Graph = (6, tuple((u, v) for u in range(6) for v in range(u + 1, 6)))

PRISM5: Graph = (
    10,
    tuple((i, (i + 1) % 5) for i in range(5))
    + tuple((5 + i, 5 + (i + 1) % 5) for i in range(5))
    + tuple((i, i + 5) for i in range(5)),
)

HARD_SUBDIVIDED_EDGES = (0, 6, 12)
GROUPS = ("z4", "z2^2")


def subdivide(g: Graph, edge: int, k: int = 1) -> Graph:
    """Replace edge (u, v) by the path u -> w1 -> ... -> wk -> v."""
    n, edges = g
    u, v = edges[edge]
    path = [u] + list(range(n, n + k)) + [v]
    out = list(edges)
    out[edge] = (path[0], path[1])
    out.extend((path[i], path[i + 1]) for i in range(1, k + 1))
    return (n + k, tuple(out))


def subdivide_by_counts(g: Graph, counts) -> Graph:
    for e, c in enumerate(counts):
        if c:
            g = subdivide(g, e, c)
    return g


def cube2_counts() -> list[tuple[int, ...]]:
    """Per-edge counts of the 78 ways to add two vertices to the cube's edges."""
    out = []
    for combo in itertools.combinations_with_replacement(range(len(CUBE[1])), 2):
        counts = [0] * len(CUBE[1])
        for e in combo:
            counts[e] += 1
        out.append(tuple(counts))
    return out


def cube2_graphs() -> dict[str, Graph]:
    return {
        "cube2-" + "-".join(_edge_ids(c)): subdivide_by_counts(CUBE, c)
        for c in cube2_counts()
    }


def hard_graphs() -> dict[str, Graph]:
    def sub3(g):
        return subdivide_by_counts(g, [1 if e in HARD_SUBDIVIDED_EDGES else 0 for e in range(len(g[1]))])

    return {
        "petersen": PETERSEN,
        "k6": K6,
        "prism5-sub3": sub3(PRISM5),
        "petersen-sub3": sub3(PETERSEN),
    }


def _edge_ids(counts) -> list[str]:
    return [f"{e:02d}" for e, c in enumerate(counts) for _ in range(c)]


def reorient(g: Graph, rng: random.Random) -> Graph:
    """The same graph with a seeded choice of edge directions; ids and vertex labels kept."""
    n, edges = g
    return (n, tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in edges))


def edgelist_text(g: Graph) -> str:
    """The CLI's edge-list format: a header "n m", then one "tail head" line per edge."""
    n, edges = g
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])
