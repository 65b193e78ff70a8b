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

from conftest import CUBE, complete_graph, cycle_graph


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 11), st.integers(1, 3))
def test_subdivision_suppression_inverse(edge, k):
    g = subdivide(CUBE, edge, k)
    prof = thread_profile(g)
    sup = prof.suppressed
    assert sup.m == CUBE.m
    assert sorted(tuple(sorted(e)) for e in sup.edges) == sorted(
        tuple(sorted(e)) for e in CUBE.edges
    )
