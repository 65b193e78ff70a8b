import random

import pytest
from hypothesis import given, settings, strategies as st

from groupconn.graphs import (
    Digraph,
    GraphParseError,
    encode_graph6,
    parse_edgelist,
    parse_graph6,
    structure_report,
    subdivide,
    thread_profile,
)

from conftest import CUBE, complete_graph, cycle_graph, random_multigraph


def _random_multigraphs():
    """500 seeded multigraphs with up to 9 vertices and 14 edges, loops and parallel edges included."""
    rng = random.Random(1711)
    out = []
    for _ in range(500):
        n = rng.randint(1, 9)
        out.append(random_multigraph(rng, n, rng.randint(0, 14)))
    return out


def _bfs_components(n, edges):
    comp = [-1] * n
    out = []
    for s in range(n):
        if comp[s] == -1:
            comp[s] = s
            queue = [s]
            for v in queue:
                for a, b in edges:
                    for x, y in ((a, b), (b, a)):
                        if x == v and comp[y] == -1:
                            comp[y] = s
                            queue.append(y)
            out.append(sorted(queue))
    return out


def test_parse_graph6_k4():
    g = parse_graph6("C~")
    assert g.n == 4 and g.m == 6
    assert set(g.edges) == {(u, v) for u in range(4) for v in range(u + 1, 4)}


def test_parse_graph6_c4():
    enc = encode_graph6(cycle_graph(4))
    g = parse_graph6(enc)
    assert g.n == 4 and g.m == 4


def test_parse_graph6_errors():
    with pytest.raises(GraphParseError):
        parse_graph6("")
    with pytest.raises(GraphParseError):
        parse_graph6("C")  # truncated bit string for n=4
    with pytest.raises(GraphParseError):
        parse_graph6("C~xyz")  # trailing garbage
    with pytest.raises(GraphParseError):
        parse_graph6(">>graph6<<")  # the header alone


def test_graph6_round_trip_small():
    for g in (complete_graph(4), complete_graph(5), CUBE, cycle_graph(6)):
        back = parse_graph6(encode_graph6(g))
        assert back.n == g.n
        assert set(back.edges) == {(min(u, v), max(u, v)) for u, v in g.edges}


def test_parse_edgelist():
    g = parse_edgelist("3 3\n0 1\n1 2\n2 0")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2), (2, 0))
    dip = parse_edgelist("2 2\n0 1\n0 1")
    assert dip.edges == ((0, 1), (0, 1))
    loop = parse_edgelist("1 1\n0 0")
    assert loop.edges == ((0, 0),)


def test_parse_edgelist_errors():
    with pytest.raises(GraphParseError):
        parse_edgelist("2 1\n0 2")  # vertex out of range
    with pytest.raises(GraphParseError):
        parse_edgelist("2 2\n0 1")  # edge count mismatch


def test_negative_vertex_count_is_rejected():
    with pytest.raises(ValueError):
        Digraph(-3, ())
    with pytest.raises(GraphParseError, match="negative vertex count"):
        parse_edgelist("-1 0")


def test_subdivide_triangle():
    g = subdivide(cycle_graph(3), 0, 1)
    assert g.n == 4 and g.m == 4
    # still a single cycle
    assert all(d == 2 for d in g.degrees())


def test_subdivide_path():
    p2 = Digraph(2, ((0, 1),))
    g = subdivide(p2, 0, 2)
    assert g.n == 4 and g.m == 3


def test_subdivide_loop():
    g = subdivide(Digraph(1, ((0, 0),)), 0, 1)
    assert g.n == 2 and g.m == 2
    assert sorted(tuple(sorted(e)) for e in g.edges) == [(0, 1), (0, 1)]


def test_subdivide_counts():
    for k in (1, 2, 3):
        g = subdivide(CUBE, 5, k)
        assert g.n == CUBE.n + k and g.m == CUBE.m + k


def test_thread_profile_subdivided_cube():
    g = subdivide(CUBE, 0, 1)
    prof = thread_profile(g)
    lengths = sorted(len(t) for t in prof.threads)
    assert lengths == [1] * 11 + [2]
    assert prof.cycle_components == ()


def test_thread_profile_cycle_component():
    prof = thread_profile(cycle_graph(5))
    assert len(prof.cycle_components) == 1
    assert len(prof.cycle_components[0].edge_ids) == 5
    assert prof.threads == ()


def test_thread_profile_k4():
    prof = thread_profile(complete_graph(4))
    assert len(prof.threads) == 6
    assert all(len(t) == 1 for t in prof.threads)


def test_thread_edges_partition():
    g = subdivide(subdivide(CUBE, 0, 2), 7, 1)
    prof = thread_profile(g)
    seen = [e for t in prof.threads for e in t.edge_ids]
    assert sorted(seen) == list(range(g.m))


def test_thread_signs_consistent():
    # reversing an edge flips its sign in the containing thread
    g = subdivide(CUBE, 0, 1)
    prof = thread_profile(g)
    t2 = next(t for t in prof.threads if len(t) == 2)
    flipped_edges = list(g.edges)
    e0 = t2.edge_ids[0]
    flipped_edges[e0] = (flipped_edges[e0][1], flipped_edges[e0][0])
    prof2 = thread_profile(Digraph(g.n, tuple(flipped_edges)))
    t2b = next(t for t in prof2.threads if len(t) == 2)
    assert t2b.edge_ids == t2.edge_ids
    i = t2.edge_ids.index(e0)
    assert t2b.signs[i] == -t2.signs[i]


def test_structure_report_path():
    g = Digraph(3, ((0, 1), (1, 2)))
    bridges, components, loops = structure_report(g)
    assert bridges == {0, 1} and len(components) == 1 and loops == set()


def test_structure_report_k4():
    bridges, components, loops = structure_report(complete_graph(4))
    assert bridges == set() and len(components) == 1


def test_structure_report_two_triangles():
    edges = ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))
    bridges, components, loops = structure_report(Digraph(6, edges))
    assert bridges == set() and len(components) == 2


def test_structure_report_loops_never_bridges():
    g = Digraph(2, ((0, 1), (0, 0)))
    bridges, _, loops = structure_report(g)
    assert bridges == {0} and loops == {1}


def test_structure_report_matches_brute_force():
    for g in _random_multigraphs():
        bridges, components, loops = structure_report(g)
        assert components == _bfs_components(g.n, g.edges)
        assert loops == {i for i, (u, v) in enumerate(g.edges) if u == v}
        for e in range(g.m):
            rest = g.edges[:e] + g.edges[e + 1:]
            assert (e in bridges) == (len(_bfs_components(g.n, rest)) > len(components))


def _walk(g, path, start):
    """The vertices a thread or cycle visits after `start`, checking each edge's sign on the way."""
    cur, seen = start, []
    for e, sign in zip(path.edge_ids, path.signs):
        u, v = g.edges[e] if sign > 0 else g.edges[e][::-1]
        assert u == cur
        cur = v
        seen.append(cur)
    return seen


def test_thread_profile_invariants_on_random_multigraphs():
    for g in _random_multigraphs():
        g = Digraph(g.n, tuple((u, v) for u, v in g.edges if u != v))
        prof = thread_profile(g)
        deg = g.degrees()
        paths = prof.threads + prof.cycle_components
        assert sorted(e for p in paths for e in p.edge_ids) == list(range(g.m))
        for t in prof.threads:
            assert t.tail_anchor <= t.head_anchor
            assert deg[t.tail_anchor] != 2 and deg[t.head_anchor] != 2
            *interior, end = _walk(g, t, t.tail_anchor)
            assert end == t.head_anchor
            assert all(deg[v] == 2 for v in interior)
            assert t.inner == tuple(interior)
        for c in prof.cycle_components:
            start = g.edges[c.edge_ids[0]][0 if c.signs[0] > 0 else 1]
            visited = _walk(g, c, start)
            assert visited[-1] == start and all(deg[v] == 2 for v in visited)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 11), st.integers(1, 3))
def test_subdivision_suppression_inverse(edge, k):
    g = subdivide(CUBE, edge, k)
    prof = thread_profile(g)
    assert sorted((t.tail_anchor, t.head_anchor) for t in prof.threads) == sorted(
        tuple(sorted(e)) for e in CUBE.edges
    )
