import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from groupconn.flows import (
    all_flows,
    find_satisfying_flow,
    flow_from_nontree,
    is_flow,
    iter_flows,
    spanning_structure,
)
from groupconn.graphs import Digraph
from groupconn.groups import Z2, Z3, Z4, Z2xZ2, make_group

import random

from conftest import (
    CUBE,
    MAIN_GROUPS,
    PETERSEN,
    THETA,
    complete_graph,
    cycle_graph,
    random_multigraph,
)


def _random_graph(seed: int, max_n: int, max_m: int) -> Digraph:
    rng = random.Random(seed)
    return random_multigraph(rng, rng.randint(2, max_n), rng.randint(1, max_m))


def test_spanning_structure_k4():
    s = spanning_structure(complete_graph(4))
    assert len(s.tree_edges) == 3
    assert s.rank == 3
    assert s.components == 1


def test_spanning_structure_disconnected():
    g = Digraph(5, ((0, 1), (1, 2), (2, 0), (3, 4)))
    s = spanning_structure(g)
    assert s.components == 2
    assert s.rank == 1


def test_spanning_structure_loops_are_nontree():
    g = Digraph(2, ((0, 0), (0, 1), (1, 1)))
    s = spanning_structure(g)
    assert s.tree_edges == (1,)
    assert set(s.nontree_edges) == {0, 2}


def test_fundamental_cycles_are_flows():
    for g in (complete_graph(5), CUBE, PETERSEN, THETA):
        s = spanning_structure(g)
        group = Z4
        for j, nte in enumerate(s.nontree_edges):
            vec = [0] * g.m
            for e, sign in s.cycles[j]:
                vec[e] = 1 if sign == 1 else group.neg(1)
            assert vec[nte] == 1
            assert is_flow(g, group, vec)


def test_edge_order_priority():
    # asking for edge 2 first puts it in the tree of a triangle
    g = cycle_graph(3)
    s = spanning_structure(g, edge_order=[2, 1, 0])
    assert 2 in s.tree_edges


def test_is_flow_basic():
    g = cycle_graph(3)  # edges (0,1),(1,2),(2,0), a directed cycle
    assert is_flow(g, Z4, (1, 1, 1))
    assert is_flow(g, Z4, (0, 0, 0))
    assert not is_flow(g, Z4, (1, 2, 1))


def test_is_flow_orientation():
    g = Digraph(3, ((0, 1), (1, 2), (0, 2)))  # last edge reversed vs the cycle
    assert not is_flow(g, Z4, (1, 1, 1))
    assert is_flow(g, Z4, (1, 1, 3))


def test_flow_counts_match_rank():
    for g in (complete_graph(4), CUBE, THETA, cycle_graph(5)):
        for group in MAIN_GROUPS:
            s = spanning_structure(g)
            flows = all_flows(g, group, s)
            assert len(flows) == group.order ** s.rank
            assert len(set(flows)) == len(flows)
            assert all(is_flow(g, group, f) for f in flows)


def test_flow_space_closed_under_addition():
    g = complete_graph(4)
    flows = set(all_flows(g, Z2xZ2))
    sample = sorted(flows)[:8]
    for a, b in itertools.product(sample, repeat=2):
        assert tuple(Z2xZ2.add(x, y) for x, y in zip(a, b)) in flows


def test_flow_from_nontree_round_trip():
    g = CUBE
    s = spanning_structure(g)
    for assignment in itertools.islice(itertools.product(range(4), repeat=s.rank), 50):
        f = flow_from_nontree(g, Z4, s, assignment)
        assert is_flow(g, Z4, f)
        assert tuple(f[e] for e in s.nontree_edges) == assignment


def test_iter_flows_deterministic():
    g = complete_graph(4)
    assert list(iter_flows(g, Z4)) == list(iter_flows(g, Z4))


def test_find_satisfying_flow():
    g = complete_graph(4)
    # forbidding zero everywhere asks for a nowhere-zero flow; K4 has one
    f = find_satisfying_flow(g, Z2xZ2, [0] * g.m)
    assert f is not None and is_flow(g, Z2xZ2, f) and all(x != 0 for x in f)


def test_find_satisfying_flow_none():
    g = Digraph(2, ((0, 1),))  # a bridge: only the zero flow exists
    assert find_satisfying_flow(g, Z4, [0]) is None
    assert find_satisfying_flow(g, Z4, [1]) == (0,)


def test_nowhere_zero_cycle():
    g = cycle_graph(4)
    for group in MAIN_GROUPS:
        f = find_satisfying_flow(g, group, (0,) * g.m)
        assert f is not None and all(x != 0 for x in f)


def test_nowhere_zero_bridge():
    assert find_satisfying_flow(Digraph(3, ((0, 1), (1, 2))), Z4, (0, 0)) is None


def test_nowhere_zero_petersen():
    # the Petersen graph has no nowhere-zero 4-flow but has a 5-flow
    assert find_satisfying_flow(PETERSEN, Z4, (0,) * PETERSEN.m) is None
    assert find_satisfying_flow(PETERSEN, Z2xZ2, (0,) * PETERSEN.m) is None
    assert find_satisfying_flow(PETERSEN, make_group([5]), (0,) * PETERSEN.m) is not None


def test_nowhere_zero_4flow_group_independent():
    # a Z4 nowhere-zero flow exists iff a Z2xZ2 one does
    for seed in range(30):
        g = _random_graph(seed, max_n=6, max_m=10)
        assert (find_satisfying_flow(g, Z4, (0,) * g.m) is None) == (
            find_satisfying_flow(g, Z2xZ2, (0,) * g.m) is None
        )


def test_flow_count_matches_networkx_cycle_space():
    # |flow space| = |Γ|^(m - n + c) with the cycle rank from networkx
    for seed in range(10):
        g = _random_graph(seed, max_n=6, max_m=9)
        G = nx.MultiGraph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        rank = G.number_of_edges() - G.number_of_nodes() + nx.number_connected_components(G)
        assert len(all_flows(g, Z3)) == 3**rank


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_random_flows_satisfy_kirchhoff(seed):
    g = _random_graph(seed, max_n=7, max_m=10)
    for group in (Z4, Z2xZ2):
        for f in itertools.islice(iter_flows(g, group), 20):
            assert is_flow(g, group, f)


def _reference_structure(g: Digraph, order) -> tuple:
    """The spanning structure by a BFS tree path per non-tree edge: a slow reference, written out."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    in_tree = [False] * g.m
    for e in range(g.m) if order is None else order:
        ru, rv = find(g.edges[e][0]), find(g.edges[e][1])
        if ru != rv:
            parent[ru], in_tree[e] = rv, True
    adj = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        if in_tree[e]:
            adj[u].append((v, e))
            adj[v].append((u, e))
    cycles = []
    for e in (e for e in range(g.m) if not in_tree[e]):
        src, dst = g.edges[e][1], g.edges[e][0]
        prev, queue = {src: None}, [src]
        for x in queue:
            for y, f in adj[x]:
                if y not in prev:
                    prev[y] = (x, f)
                    queue.append(y)
        path, cur = [], dst
        while cur != src:
            x, f = prev[cur]
            path.append((f, 1 if g.edges[f] == (x, cur) else -1))
            cur = x
        cycles.append(((e, 1), *reversed(path)))
    tree = tuple(e for e in range(g.m) if in_tree[e])
    nontree = tuple(e for e in range(g.m) if not in_tree[e])
    return tree, nontree, len({find(x) for x in range(g.n)}), tuple(cycles)


@st.composite
def _multigraphs_with_orders(draw):
    # few vertices and many edges: loops, parallel edges and several components all come up
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14))
    return Digraph(n, tuple(edges)), draw(st.permutations(range(len(edges))))


@settings(max_examples=200, deadline=None)
@given(_multigraphs_with_orders())
def test_spanning_structure_matches_bfs_reference(case):
    # certificates and the first avoiding flow depend on the exact edge order of every cycle
    g, order = case
    for edge_order in (None, order):
        s = spanning_structure(g, edge_order)
        assert (s.tree_edges, s.nontree_edges, s.components, s.cycles) == _reference_structure(g, edge_order)
