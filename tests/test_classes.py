import itertools
import random

import pytest

from groupconn.classes import NULL, ClassFunction
from groupconn.flows import all_flows, find_satisfying_flow, iter_flows
from groupconn.graphs import Digraph, subdivide
from groupconn.groups import Z2, Z3, Z4, Z2xZ2

from conftest import CUBE, THETA, complete_graph, cycle_graph

TRIANGLE = cycle_graph(3)
THETA_SUB = subdivide(THETA, 0, 1)  # theta with one edge once-subdivided


def all_mappings(g, group):
    return itertools.product(range(group.order), repeat=g.m)


def test_rejects_loops():
    with pytest.raises(ValueError):
        ClassFunction(Digraph(1, ((0, 0),)), Z4)


def test_rejects_long_threads():
    with pytest.raises(ValueError):
        ClassFunction(subdivide(complete_graph(4), 0, 2), Z4)


def test_triangle_key_space():
    cf = ClassFunction(TRIANGLE, Z4)
    assert cf.total_keys == 16  # 4^(n-1) with n = 3
    assert cf.pair_threads == []
    total, canonical = cf.count_classes()
    assert (total, canonical) == (16, 16)  # no threads: nothing merged, no NULL


def test_theta_subdivided_counts():
    # one length-2 thread over an order-4 group: 16 ordered pairs collapse
    # to 6 unordered distinct pairs
    for group in (Z4, Z2xZ2):
        cf = ClassFunction(THETA_SUB, group)
        assert len(cf.pair_threads) == 1
        total, canonical = cf.count_classes()
        assert (total, canonical) == (16, 6)


def test_no_degree2_all_keys_canonical():
    for g in (complete_graph(4), CUBE):
        cf = ClassFunction(g, Z2)
        total, canonical = cf.count_classes()
        assert total == canonical == 2 ** (g.n - 1)


def test_tree_normalize_zero_outside_tree():
    cf = ClassFunction(complete_graph(4), Z4)
    rng = random.Random(1)
    for _ in range(50):
        h = [rng.randrange(4) for _ in range(cf.graph.m)]
        nh = cf.tree_normalize(h)
        assert all(nh[e] == 0 for e in cf.structure.nontree_edges)


def test_tree_normalize_of_flow_is_zero():
    cf = ClassFunction(complete_graph(4), Z4)
    for f in itertools.islice(iter_flows(cf.graph, Z4), 64):
        assert cf.tree_normalize(f) == (0,) * cf.graph.m


def test_tree_normalize_constant_cycle():
    cf = ClassFunction(TRIANGLE, Z4)
    assert cf.tree_normalize((1, 1, 1)) == (0, 0, 0)


def test_classify_equal_pair_is_null():
    cf = ClassFunction(THETA_SUB, Z4)
    t = cf.pair_threads[0]
    h = [0] * THETA_SUB.m
    for a in range(4):
        h[t.edges[0]] = cf._signed(a, t.signs[0])
        h[t.edges[1]] = cf._signed(a, t.signs[1])
        assert cf.classify(h) is NULL


def test_classify_swap_invariant():
    cf = ClassFunction(THETA_SUB, Z4)
    t = cf.pair_threads[0]
    rng = random.Random(2)
    for _ in range(100):
        h = [rng.randrange(4) for _ in range(THETA_SUB.m)]
        assert cf.classify(h) == cf.classify(cf.swap_thread(h, t))


def test_classify_flow_invariant():
    for g, group in ((TRIANGLE, Z4), (THETA_SUB, Z4), (THETA_SUB, Z2xZ2)):
        cf = ClassFunction(g, group)
        flows = all_flows(g, group)
        for h in all_mappings(g, group):
            k = cf.classify(h)
            for f in flows:
                assert cf.classify(tuple(group.add(a, b) for a, b in zip(h, f))) == k


def test_classify_satisfiability_congruence():
    # equal non-NULL keys imply equal satisfiability
    for g, group in ((THETA_SUB, Z4), (THETA_SUB, Z2xZ2), (subdivide(TRIANGLE, 0, 1), Z4)):
        cf = ClassFunction(g, group)
        by_key = {}
        for h in all_mappings(g, group):
            k = cf.classify(h)
            if k is NULL:
                continue
            sat = find_satisfying_flow(g, group, h) is not None
            assert by_key.setdefault(k, sat) == sat


def test_null_domination():
    # every NULL mapping is dominated by a non-NULL one: fixing the repeated
    # thread value to a distinct one only removes satisfying flows
    g, group = THETA_SUB, Z4
    cf = ClassFunction(g, group)
    t = cf.pair_threads[0]
    for h in all_mappings(g, group):
        if cf.classify(h) is not NULL:
            continue
        v0, _ = cf.thread_values(h, t)
        for w in range(group.order):
            if w == v0:
                continue
            h2 = list(h)
            h2[t.edges[1]] = cf._signed(w, t.signs[1])
            if cf.classify(h2) is NULL:
                continue
            if find_satisfying_flow(g, group, h2) is not None:
                assert find_satisfying_flow(g, group, h) is not None
            break
        else:
            pytest.fail("no non-NULL dominating mapping found")


def test_canonical_round_trip():
    for g, group in ((THETA_SUB, Z4), (TRIANGLE, Z3), (complete_graph(4), Z2)):
        cf = ClassFunction(g, group)
        for key in range(cf.total_keys):
            if cf.classify(cf.representative(key)) == key:
                rep = cf.representative(key)
                assert cf.classify(rep) == key


def test_representative_key_zero():
    cf = ClassFunction(THETA_SUB, Z4)
    assert cf.representative(0) == (0,) * THETA_SUB.m
    with pytest.raises(ValueError):
        cf.representative(cf.total_keys)


def test_classify_surjective_onto_canonical():
    # every canonical key is hit by some mapping (its own representative)
    cf = ClassFunction(THETA_SUB, Z4)
    canonical = {
        key for key in range(cf.total_keys) if cf.classify(cf.representative(key)) == key
    }
    hit = {cf.classify(h) for h in all_mappings(THETA_SUB, Z4)}
    assert canonical <= hit


def test_thread_tree_membership():
    # each pair thread keeps at least one edge inside the tree
    g = subdivide(subdivide(CUBE, 0, 1), 4, 1)
    cf = ClassFunction(g, Z4)
    assert len(cf.pair_threads) == 2
    for t in cf.pair_threads:
        assert len(t.tree_positions) >= 1
        assert t.kind in ("tree", "mixed")


def test_use_threads_false_plain_tree_keys():
    cf = ClassFunction(THETA_SUB, Z4, use_threads=False)
    assert cf.pair_threads == []
    total, canonical = cf.count_classes()
    assert (total, canonical) == (16, 16)
