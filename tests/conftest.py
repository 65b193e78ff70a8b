"""Shared fixtures: reference graphs and groups used across the suite."""

from __future__ import annotations

import random

import pytest

from groupconn.graphs import CUBE, Digraph  # noqa: F401  (CUBE is re-exported to the tests)
from groupconn.groups import Z2, Z3, Z4, Z2xZ2


def complete_graph(n: int) -> Digraph:
    return Digraph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def cycle_graph(n: int) -> Digraph:
    return Digraph(n, tuple((i, (i + 1) % n) for i in range(n)))


PETERSEN = Digraph(
    10,
    (
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ),
)

# K2,2,2: complete tripartite, 4-regular, 4-edge-connected
OCTAHEDRON = Digraph(
    6,
    tuple((u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) not in ((0, 1), (2, 3), (4, 5))),
)

THETA = Digraph(2, ((0, 1), (0, 1), (0, 1)))

MAIN_GROUPS = [Z2, Z3, Z4, Z2xZ2]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


# Every NO verdict constructed anywhere in the suite is recorded here so the
# certificate round-trip check can replay all of them through the CLI.
NO_VERDICT_LOG: list = []


def _install_verdict_recorder():
    from groupconn import solver

    orig_init = solver.Verdict.__init__

    def recording_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        if not self.connected and self.certificate is not None:
            NO_VERDICT_LOG.append((self.graph, self.group, tuple(self.certificate)))

    solver.Verdict.__init__ = recording_init


_install_verdict_recorder()


def random_multigraph(rng: random.Random, n: int, m: int) -> Digraph:
    return Digraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m)))


def random_connected_loopfree(rng: random.Random, n: int, m: int) -> Digraph:
    """A connected loop-free multigraph: random tree plus random extra edges."""
    assert m >= n - 1
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return Digraph(n, tuple(edges))
