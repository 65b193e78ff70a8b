import itertools
import json
import os
import random
import time

import numpy as np
import pytest

import groupconn.graphs
from groupconn import solver
from groupconn.flows import find_satisfying_flow, iter_flows, spanning_structure
from groupconn.graphs import Digraph, structure_report, subdivide, thread_profile
from groupconn.groups import Z2, Z3, Z4, Z2xZ2, make_group, parse_group
from groupconn.search import enumerate_subdivisions
from groupconn.solver import (
    Verdict,
    decide,
    exists_nowhere_zero_flow,
    preprocess,
    solve_fast,
    solve_naive,
    solve_sumset,
    solve_ultra_naive,
    verify_certificate,
)

from conftest import (
    CUBE,
    MAIN_GROUPS,
    OCTAHEDRON,
    PETERSEN,
    THETA,
    complete_graph,
    cycle_graph,
    random_connected_loopfree,
)

PACKED_GROUPS = ["z2", "z3", "z4", "z2^2", "z5", "z6", "z7", "z8", "c:2,4", "z2^3", "z64"]
FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "..", "data", "witness_z22_yes_z4_no.json")

# the pentagonal prism: two 5-cycles joined by a matching
PRISM5 = Digraph(
    10,
    tuple((i, (i + 1) % 5) for i in range(5))
    + tuple((5 + i, 5 + (i + 1) % 5) for i in range(5))
    + tuple((i, i + 5) for i in range(5)),
)


def oracle(g, group):
    """Ground truth: exhaustive check with no preprocessing at all."""
    return decide(g, group, algorithm="ultra", use_preprocessing=False).connected


# -- preprocessing -----------------------------------------------------------


def test_preprocess_deletes_loops():
    g = Digraph(3, ((0, 1), (1, 2), (2, 0), (1, 1)))
    inst = preprocess(g, Z4)
    assert inst.early_no is None
    assert any("loop" in s for s in inst.steps)


def test_preprocess_bridge_is_no():
    g = Digraph(2, ((0, 1),))
    inst = preprocess(g, Z4)
    assert inst.early_no is not None
    assert verify_certificate(g, Z4, inst.early_no)


def test_preprocess_short_cycle_deleted():
    # a cycle shorter than the group order is connected and drops out
    inst = preprocess(cycle_graph(3), Z4)
    assert inst.early_no is None and inst.components == ()


def test_preprocess_long_cycle_is_no():
    for length, group in ((4, Z4), (4, Z2xZ2), (3, Z3), (2, Z2)):
        g = cycle_graph(length) if length > 2 else THETA
        inst = preprocess(cycle_graph(length), group)
        assert inst.early_no is not None
        assert verify_certificate(cycle_graph(length), group, inst.early_no)


def test_preprocess_long_thread_is_no():
    # a thread with >= |G| edges cannot be connected (it contains an edge cut
    # of size 1 after contraction arguments fail; the oracle agrees)
    g = subdivide(complete_graph(4), 0, 3)  # thread of length 4 over Z4
    inst = preprocess(g, Z4)
    assert inst.early_no is not None
    assert verify_certificate(g, Z4, inst.early_no)
    assert not oracle(g, Z4)


def test_preprocess_saturated_thread_deleted():
    # a thread of length |G|-1 forces flow zero through it, so it is removed
    g = subdivide(complete_graph(4), 0, 2)  # thread of length 3 over Z4
    inst = preprocess(g, Z4)
    assert inst.early_no is None
    assert len(inst.forced_threads) == 1
    # removing the thread leaves K4 minus an edge
    assert sum(c.graph.m for c in inst.components) == 5


def test_preprocess_fixpoint_cascade():
    # deleting a saturated thread can expose a new bridge
    g = Digraph(4, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 0)))  # triangle + path back
    gg = subdivide(g, 3, 1)  # the (2,3) edge becomes a length-2 thread
    inst = preprocess(gg, Z3)
    # over Z3 the length-2 thread is saturated; its removal leaves the
    # triangle plus an isolated leftover, all of which dissolves
    assert inst.early_no is None or verify_certificate(gg, Z3, inst.early_no)
    v = decide(gg, Z3)
    assert v.connected == oracle(gg, Z3)


def test_preprocess_keeps_a_reduction_free_graph_as_its_one_component():
    for g in (THETA, complete_graph(4), PETERSEN):
        for group in (Z4, Z2xZ2):
            inst = preprocess(g, group)
            assert inst.components == (solver.ReducedComponent(g, tuple(range(g.m))),)


def test_preprocess_components_after_a_split_or_a_deleted_thread():
    # two K4s with interleaved edge ids, then one of them losing a subdivided edge
    k4 = Digraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)))
    two = Digraph(8, ((4, 5), (0, 1), (5, 6), (1, 2), (6, 7), (2, 3), (7, 4), (3, 0), (4, 6), (0, 2), (5, 7), (1, 3)))
    odd, even = (1, 3, 5, 7, 9, 11), (0, 2, 4, 6, 8, 10)
    k4_cut = Digraph(4, ((0, 1), (2, 3), (3, 0), (0, 2), (1, 3)))
    k4_thread = Digraph(4, ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    R = solver.ReducedComponent
    for group in (Z4, Z2xZ2):
        assert preprocess(two, group).components == (R(k4, odd), R(k4, even))
        inst = preprocess(subdivide(two, 3, 2), group)
        assert inst.components == (R(k4_cut, (1, 5, 7, 9, 11)), R(k4, even))
        assert inst.forced_threads == (((3, 1), (12, 1), (13, 1)),)
        inst = preprocess(subdivide(complete_graph(4), 0, 2), group)
        assert inst.components == (R(k4_thread, (1, 2, 3, 4, 5)),)
        assert inst.forced_threads == (((0, 1), (6, 1), (7, 1)),)


def test_preprocess_trivial_graphs():
    assert preprocess(Digraph(1, ()), Z4).components == ()
    assert decide(Digraph(1, ()), Z4).connected
    assert decide(Digraph(3, ()), Z4).connected is False or True  # no crash
    # a single loop is connected for every group
    assert decide(Digraph(1, ((0, 0),)), Z4).connected


# -- certificates ------------------------------------------------------------


def test_verify_certificate_bridge():
    g = Digraph(2, ((0, 1),))
    assert verify_certificate(g, Z4, (0,))  # only the zero flow exists
    assert not verify_certificate(g, Z4, (1,))


def test_verify_certificate_loops_never_block():
    g = Digraph(2, ((0, 1), (1, 1)))
    assert verify_certificate(g, Z4, (0, 2))
    assert not verify_certificate(g, Z4, (1, 2))


def test_verify_certificate_length_check():
    with pytest.raises(ValueError):
        verify_certificate(THETA, Z4, (0, 0))


def test_certificate_check_gives_up_past_its_limit(monkeypatch):
    # Petersen with a doubled K5 glued on at vertex 0: n = 14, m = 35, rank 22,
    # too many flows to check the sumset certificate exhaustively
    k5 = [(u, v) for u in (0, 10, 11, 12, 13) for v in (10, 11, 12, 13) if u < v]
    g = Digraph(14, PETERSEN.edges + tuple(k5 + k5))
    assert (g.m, spanning_structure(g).rank) == (35, 22)
    monkeypatch.setattr(solver, "ULTRA_NAIVE_LIMIT", 10**4)
    with pytest.raises(ValueError, match="limit"):
        decide(g, Z4)
    # the zero flow avoids the all-ones mapping, so the first chunk settles it
    assert not verify_certificate(g, Z4, (1,) * g.m)


@pytest.mark.parametrize("spec", PACKED_GROUPS)
def test_verify_certificate_matches_flow_search(spec):
    # the first avoiding flow, not just whether there is one: `certify` and `nzflow` print it
    group = parse_group(spec)
    k = group.order
    rng = random.Random(k)
    graphs = [THETA] if k > 16 else [THETA, complete_graph(4)]
    for _ in range(0 if k > 4 else 20):
        n = rng.randint(2, 5)
        g = random_connected_loopfree(rng, n, rng.randint(n, 7))
        if k ** spanning_structure(g).rank <= 4096:  # small enough for the scalar search
            graphs.append(g)
    for g in graphs:
        for h in [(0,) * g.m] + [tuple(rng.randrange(k) for _ in range(g.m)) for _ in range(15)]:
            assert solver.avoiding_flow(g, group, h) == find_satisfying_flow(g, group, h)


@pytest.mark.parametrize("spec", ["z3", "z4", "z2^2", "c:2,4", "z64"])
def test_flow_rows_chunks_concatenate_to_one_pass(spec):
    group = parse_group(spec)
    k = group.order
    rng = random.Random(k)
    for g in [THETA] if k == 64 else [THETA, complete_graph(4), PETERSEN]:
        s = spanning_structure(g)
        values = [sorted(rng.sample(range(k), rng.randint(1, min(k, 4)))) for _ in range(s.rank)]
        expected = [list(f) for f in iter_flows(g, group, s) if all(f[e] in v for e, v in zip(s.nontree_edges, values))]
        for rows in (1, 5, 7, 10**6):
            chunks = list(solver._flow_rows(g, group, s, values, rows))
            assert all(c.dtype == np.uint8 and 1 <= len(c) <= rows for c in chunks)
            assert np.concatenate(chunks).tolist() == expected


def test_no_verdicts_carry_valid_certificates():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(2, 5); g = random_connected_loopfree(rng, n, rng.randint(n - 1, 7))
        for group in (Z4, Z2xZ2):
            v = decide(g, group)
            if not v.connected:
                assert v.certificate is not None
                assert verify_certificate(g, group, v.certificate)
            else:
                assert v.certificate is None


# -- engine agreement --------------------------------------------------------


def test_engines_agree_small_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 5); g = random_connected_loopfree(rng, n, rng.randint(n - 1, 6))
        for group in MAIN_GROUPS:
            truth = oracle(g, group)
            assert decide(g, group, "ultra").connected == truth
            assert decide(g, group, "naive").connected == truth
            assert decide(g, group, "fast").connected == truth
            assert decide(g, group, "fast", thread_opt=False).connected == truth


def test_engines_agree_on_subdivisions():
    for base in (complete_graph(4), THETA):
        for e in range(base.m):
            for k in (1, 2):
                g = subdivide(base, e, k)
                for group in (Z4, Z2xZ2):
                    truth = oracle(g, group)
                    assert decide(g, group, "naive").connected == truth
                    assert decide(g, group, "fast").connected == truth


def test_fast_engine_cube():
    for group in (Z4, Z2xZ2):
        assert solve_fast(CUBE, group).connected == decide(CUBE, group, "naive").connected


# -- the boundary-sumset engine ------------------------------------------------

SUMSET_GROUPS = [Z2, Z3, Z4, Z2xZ2, make_group([5]), make_group([2, 3])]


def check_sumset_no(v: Verdict) -> None:
    """A NO verdict's certificate passes both verify_certificate and the scalar check."""
    if not v.connected:
        assert verify_certificate(v.graph, v.group, v.certificate)
        assert find_satisfying_flow(v.graph, v.group, v.certificate) is None


def small_connected_multigraphs():
    """Every connected multigraph (loops allowed) with n <= 3 and m <= 5."""
    for n in (1, 2, 3):
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(1, 6):
            for combo in itertools.combinations_with_replacement(slots, m):
                g = Digraph(n, combo)
                if len(structure_report(g)[1]) == 1:
                    yield g


def first_unavoidable_scalar(g, group, positions):
    """First mapping supported on positions (lexicographic, positions[0] most
    significant) that no flow avoids, by scalar flow search per mapping."""
    for values in itertools.product(range(group.order), repeat=len(positions)):
        h = [0] * g.m
        for e, v in zip(positions, values):
            h[e] = v
        if find_satisfying_flow(g, group, h) is None:
            return tuple(h)
    return None


def test_oracle_certificates_match_scalar_brute_force():
    # word layouts j = 6 (z2), 3 (z3, z4, z2^2) and 2 (z5, c:2,3); the two 4-cycles have
    # certificates that change when read in reverse, so they pin the digit order
    square = ((0, 1), (0, 2), (2, 3), (1, 3))
    for g in itertools.chain(small_connected_multigraphs(), [Digraph(4, square), Digraph(4, square + ((0, 1),))]):
        core = [e for e, (u, v) in enumerate(g.edges) if u != v]
        for group in (Z2, Z3, Z4, Z2xZ2, make_group([5]), make_group([2, 3])):
            want = first_unavoidable_scalar(g, group, core)
            assert solve_ultra_naive(g, group).certificate == want, (g, group.spec_string())
            if len(core) == g.m:
                tree = spanning_structure(g).tree_edges
                want = first_unavoidable_scalar(g, group, tree)
                assert solve_naive(g, group).certificate == want, (g, group.spec_string())
    # 12 enumerated edges against z2's 6 in-word places: the outer places are spread too
    assert solve_ultra_naive(CUBE, Z2).certificate == first_unavoidable_scalar(CUBE, Z2, range(CUBE.m))


def test_sumset_agrees_with_ultra_exhaustive():
    count = 0
    for g in small_connected_multigraphs():
        for group in SUMSET_GROUPS:
            truth = oracle(g, group)
            # through decide (preprocessed components) and on the raw graph
            for v in (decide(g, group, "sumset"), solve_sumset(g, group)):
                assert v.connected == truth, (g, group.spec_string())
                check_sumset_no(v)
        count += 1
    assert count == 236


def test_sumset_agrees_with_naive_random():
    rng = random.Random(20261018)
    for i in range(300):
        n = rng.randint(3, 9)
        g = random_connected_loopfree(rng, n, rng.randint(n - 1, 14))
        for group in (Z4, Z2xZ2):
            v = decide(g, group, "sumset")
            assert v.connected == decide(g, group, "naive").connected, (i, group.spec_string())
            check_sumset_no(v)


def test_sumset_agrees_with_naive_on_cube_subdivisions():
    # every reduced component of the cube with 1..3 added vertices: threads of length 2
    count = 0
    for added in (1, 2, 3):
        for g in enumerate_subdivisions(CUBE, added):
            for group in (Z4, Z2xZ2):
                for comp in preprocess(g, group).components:
                    v = solve_sumset(comp.graph, group)
                    assert v.connected == solve_naive(comp.graph, group).connected, (g, group.spec_string())
                    check_sumset_no(v)
                    count += 1
    assert count == 884


def test_sumset_agrees_with_naive_on_random_threads():
    # orders 5 and 6 contract threads of length 3 and 4 (6 and 10 choices of F);
    # longer threads stay in the array as plain edges
    rng = random.Random(20261018)
    seen = set()
    for group in (make_group([5]), make_group([6]), make_group([2, 3])):
        for i in range(100):
            n = rng.randint(2, 4)
            g = random_connected_loopfree(rng, n, rng.randint(n + 1, n + 4))
            while g.n < 8:
                g = subdivide(g, rng.randrange(g.m), rng.randint(1, min(3, 8 - g.n)))
            v = solve_sumset(g, group)
            assert v.connected == solve_naive(g, group).connected, (i, group.spec_string())
            check_sumset_no(v)
            seen.update((group.order, len(t), v.connected) for t in thread_profile(g).threads)
    for k in (5, 6):
        assert {(k, 3, True), (k, 3, False), (k, 4, True), (k, 4, False), (k, k, False)} <= seen


def test_sumset_loop_and_parallel_threads():
    k4 = complete_graph(4).edges
    graphs = {  # graph, thread lengths
        # a thread from vertex 0 back to itself: a loop after contraction, dropped
        "K4 and a loop thread": (Digraph(6, k4 + ((0, 4), (4, 5), (5, 0))), (3,)),
        "K4 and a loop 2-thread": (Digraph(5, k4 + ((0, 4), (4, 0))), (2,)),
        "two loop threads": (Digraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0))), (3, 3)),
        # parallel threads between the same two anchors
        "subdivided theta": (Digraph(5, ((0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1))), (2, 2, 2)),
        "K4, doubled edge subdivided": (
            Digraph(6, ((0, 4), (4, 1), (0, 5), (5, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
            (2, 2),
        ),
    }
    for name, (g, lengths) in graphs.items():
        for group in (Z3, Z4, Z2xZ2, make_group([5])):
            v = solve_sumset(g, group)
            assert v.connected == oracle(g, group), (name, group.spec_string())
            assert v.stats["threads_contracted"] == sum(2 <= n < group.order for n in lengths)
            check_sumset_no(v)


def test_sumset_leaves_long_threads_uncontracted():
    # a thread of |G| or more edges is a NO (pigeonhole) that keeps every vertex in the array
    for group in (Z3, Z4):
        for extra in (group.order - 1, group.order):
            g = subdivide(complete_graph(4), 0, extra)
            v = solve_sumset(g, group)
            assert not v.connected and v.stats["threads_contracted"] == 0
            assert v.stats["boundaries_total"] == group.order ** (g.n - 1)
            check_sumset_no(v)


def test_sumset_known_graphs():
    for group in (Z4, Z2xZ2):
        v = decide(PETERSEN, group, "sumset")
        assert not v.connected and v.algorithm == "sumset"
        check_sumset_no(v)
        assert decide(complete_graph(6), group, "sumset").connected
        v = decide(CUBE, group, "sumset")
        assert v.connected == decide(CUBE, group, "naive").connected
        check_sumset_no(v)


def test_sumset_stats_and_limit(monkeypatch):
    v = solve_sumset(complete_graph(4), Z4)
    assert v.connected
    assert v.stats["boundaries_total"] == v.stats["boundaries_reached"] == 4**3
    assert v.stats["edges_added"] <= 6 and v.stats["elapsed"] >= 0
    v = solve_sumset(PETERSEN, Z4)
    # Petersen has no nowhere-zero 4-flow: only the zero boundary is missing
    assert v.stats["boundaries_reached"] == 4**9 - 1 and v.stats["edges_added"] == 15
    monkeypatch.setattr(solver, "SUMSET_LIMIT", 4**9 - 1)
    with pytest.raises(ValueError, match="sumset-engine limit"):
        solve_sumset(PETERSEN, Z4)
    with pytest.raises(ValueError, match="connected"):
        solve_sumset(Digraph(4, ((0, 1), (0, 1), (2, 3), (2, 3))), Z4)


def test_sumset_counts_only_branch_vertices(monkeypatch):
    # the 15-vertex fixture has 12 branch vertices and three threads of length 2
    with open(FIXTURE_PATH) as fh:
        payload = json.load(fh)
    g = Digraph(payload["graph"]["n"], tuple(tuple(e) for e in payload["graph"]["edges"]))
    for group, connected in ((Z4, False), (Z2xZ2, True)):
        v = decide(g, group)
        assert v.connected == connected and v.algorithm == "sumset"
        assert v.stats["boundaries_total"] == 4**11 and v.stats["threads_contracted"] == 3
        check_sumset_no(v)
    # SUMSET_LIMIT caps |G|^(n_branch - 1): 13 vertices, 10 of them branch vertices
    monkeypatch.setattr(solver, "SUMSET_LIMIT", 4**9)
    g = PRISM5
    for e in (0, 6, 12):
        g = subdivide(g, e)
    for group in (Z4, Z2xZ2):
        v = solve_sumset(g, group)
        assert v.stats["boundaries_total"] == 4**9 and v.stats["threads_contracted"] == 3
        check_sumset_no(v)


def test_sumset_rechecks_its_certificates(monkeypatch):
    monkeypatch.setattr(solver, "verify_certificate", lambda g, group, h: False)
    # no threads, and a NO found through a contracted thread
    for g in (PETERSEN, subdivide(PETERSEN, 0)):
        with pytest.raises(AssertionError, match="sumset engine"):
            solve_sumset(g, Z4)


# -- automorphism pruning of the thread branches -------------------------------

AUT_COUNTS = {"z3": 2, "z4": 2, "z2^2": 6, "z5": 4, "z6": 2, "z7": 6, "z8": 4, "c:2,4": 8, "z2^3": 168}


def test_automorphisms_of_the_small_groups():
    for spec, count in AUT_COUNTS.items():
        group = parse_group(spec)
        tables = solver._tables(group)
        k, add, auts = group.order, tables.add, tables.automorphisms
        assert len(auts) == len(set(auts)) == count, spec
        assert tuple(range(k)) in auts, spec
        for sigma in auts:
            assert sorted(sigma) == list(range(k)) and sigma[0] == 0, (spec, sigma)
            for a, b in itertools.product(range(k), repeat=2):
                assert sigma[add[a, b]] == add[sigma[a], sigma[b]], (spec, sigma, a, b)


def test_automorphisms_of_large_groups_return_quickly():
    for spec, count in (("z64", 32), ("z2^6", 1)):  # z2^6 has 64^6 candidates: only identity (= negation)
        group = parse_group(spec)
        solver._tables.cache_clear()
        t0 = time.perf_counter()
        auts = solver._tables(group).automorphisms  # a cold build of every table of the group
        assert time.perf_counter() - t0 < 1.0, spec
        assert len(auts) == count and tuple(range(group.order)) in auts, spec


def subdivided(g, counts):
    for e, c in enumerate(counts):
        if c:
            g = subdivide(g, e, c)
    return g


def test_automorphism_pruning_keeps_verdicts_and_certificates(monkeypatch, request):
    # thread-heavy graphs with a NO for each of the orders 3, 4, 5 and 8;
    # K4's edge order is 01 02 03 12 13 23, and the order-8 NOs on K4 skip
    # branches before their certificate is found
    k4 = complete_graph(4)
    prism5_sub3 = subdivided(PRISM5, [1 if e in (0, 6, 12) else 0 for e in range(PRISM5.m)])
    petersen_sub3 = subdivided(PETERSEN, [1 if e in (0, 6, 12) else 0 for e in range(PETERSEN.m)])
    cases = [
        (subdivided(CUBE, [1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0]), ("z3",)),
        (subdivided(CUBE, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]), ("z4", "z2^2")),  # a cube+3 witness
        (prism5_sub3, ("z4", "z2^2", "z5", "z2^3")),
        (petersen_sub3, ("z4", "z2^2")),
        (subdivided(k4, [0, 1, 1, 0, 1, 0]), ("z4", "z2^2")),
        (subdivided(k4, [2, 2, 2, 0, 2, 2]), ("z4", "z2^2")),
        (subdivided(k4, [0, 2, 0, 1, 1, 1]), ("z5",)),
        (subdivided(k4, [1, 3, 2, 3, 3, 1]), ("z5",)),
        (subdivided(k4, [2, 2, 0, 0, 0, 2]), ("z8", "c:2,4", "z2^3")),
        (subdivided(k4, [4, 4, 3, 0, 0, 3]), ("z8", "c:2,4")),
        (subdivided(k4, [5, 5, 1, 0, 6, 2]), ("z2^3",)),
    ]
    runs = [(g, parse_group(spec)) for g, specs in cases for spec in specs]
    pruned = [solve_sumset(g, group) for g, group in runs]
    tables = solver._tables

    def identity_only(group):
        return tables(group)._replace(automorphisms=(tuple(range(group.order)),))

    monkeypatch.setattr(solver, "_tables", identity_only)
    # _fixers masks index the automorphisms, so none of its entries may outlive either list
    solver._fixers.cache_clear()
    request.addfinalizer(solver._fixers.cache_clear)
    for (g, group), v in zip(runs, pruned):
        w = solve_sumset(g, group)
        assert (v.connected, v.certificate) == (w.connected, w.certificate), (g, group.spec_string())
        assert v.stats["boundaries_reached"] == w.stats["boundaries_reached"]
        assert v.stats["thread_branches"] <= w.stats["thread_branches"]
        assert w.stats["symmetric_skips"] == 0
        check_sumset_no(v)
        if g is prism5_sub3 and group.spec_string() in ("z2^2", "z2^3"):
            assert v.stats["thread_branches"] < w.stats["thread_branches"], group.spec_string()
    assert {group.order for (_, group), v in zip(runs, pruned) if not v.connected} == {3, 4, 5, 8}
    assert any(not v.connected and v.stats["symmetric_skips"] for v in pruned)


# -- the packed boundary array -------------------------------------------------


def pack_cells(tables, arr: np.ndarray) -> solver._Cells:
    """The packed form of a bool array of shape (k,) * arr.ndim, k the order of the group of `tables`."""
    k, inner = len(tables.add), min(arr.ndim, tables.j)
    bits = arr.reshape(arr.shape[: arr.ndim - inner] + (k**inner,)).astype(np.uint64)
    words = np.bitwise_or.reduce(bits << np.arange(k**inner, dtype=np.uint64), axis=-1)
    return solver._Cells(tables, arr.ndim, words)


def unpack_cells(cells: solver._Cells) -> np.ndarray:
    """The bool array a packed one holds; its unused high bits must be 0."""
    k, inner = cells.k, min(cells.axes, cells.j)
    assert not (cells.words & ~cells.full).any()
    bits = (cells.words[..., None] >> np.arange(k**inner, dtype=np.uint64)) & np.uint64(1)
    return bits.astype(bool).reshape((k,) * cells.axes)


def shifted_reference(arr: np.ndarray, move, places) -> np.ndarray:
    for index, p in zip(move, places):
        if p:
            arr = np.take(arr, index, axis=arr.ndim - p)
    return arr


def test_word_layout():
    tables = {k: solver._tables(parse_group(f"z{k}")) for k in (2, 3, 4, 5, 6, 7, 8, 64)}
    assert [t.j for t in tables.values()] == [6, 3, 3, 2, 2, 2, 2, 1]
    assert [int(tables[k].full[-1]).bit_count() for k in (3, 5, 6, 7, 64)] == [27, 25, 36, 49, 64]
    for k, t in tables.items():
        assert [int(word).bit_count() for word in t.full] == [k**i for i in range(t.j + 1)], k


@pytest.mark.parametrize("spec", PACKED_GROUPS)
def test_packed_cells_match_bool_arrays(spec):
    group = parse_group(spec)
    k, tables = group.order, solver._tables(group)
    rng = np.random.default_rng(k)
    moves = tables.moves
    # the independent reference: move c takes x - c along one place and x + c along the other
    indices = [
        (np.array([group.sub(x, c) for x in range(k)]), np.array([group.add(x, c) for x in range(k)])) for c in range(k)
    ]
    outcomes = set()
    for axes in range(1, 8):
        if k**axes > 2**14:
            break
        shape = (k,) * axes
        arr = rng.random(shape) < 0.5
        cells = pack_cells(tables, arr)
        assert np.array_equal(unpack_cells(cells), arr)
        grown = np.zeros((k,) + shape, dtype=bool)
        grown[0] = arr
        assert np.array_equal(unpack_cells(cells.grown()), grown)
        # every move along every pair of places, place 0 owning no axis
        for pu, pv in itertools.permutations(range(axes + 1), 2):
            for move, index in zip(moves, indices):
                want = shifted_reference(arr, index, (pu, pv))
                got = solver._Cells(tables, axes, cells.shifted(move, (pu, pv)))
                assert np.array_equal(unpack_cells(got), want), (spec, axes, pu, pv)
            sub = slice(1, 1 + int(rng.integers(1, k)))
            want = np.logical_or.reduce([shifted_reference(arr, index, (pu, pv)) for index in indices[sub]])
            assert np.array_equal(unpack_cells(cells.with_edge(moves[sub], (pu, pv))), want)
        # all, count and first zero, on arrays with 0 to 3 cells cleared
        for cleared in range(4):
            arr = np.ones(shape, dtype=bool)
            arr.flat[rng.integers(0, arr.size, cleared)] = False
            cells = pack_cells(tables, arr)
            assert cells.all() == arr.all()
            assert cells.count() == np.count_nonzero(arr)
            if not arr.all():
                assert cells.first_zero() == int(np.argmin(arr))
            # at least `times` of the |G|-1 nonzero moves hit every cell
            pu, pv = (int(p) for p in rng.choice(axes + 1, 2, replace=False))
            hits = sum(shifted_reference(arr, index, (pu, pv)).astype(int) for index in indices[1:])
            for times in range(1, k):
                want = bool((hits >= times).all())
                assert cells.hit_by(moves[1:], (pu, pv), times) == want, (spec, axes, times)
                outcomes.add(want)
    assert outcomes == {False, True}


@pytest.mark.parametrize("spec", ["z2", "z3", "z4", "z2^2", "z8", "z64"])
def test_cached_head_matches_the_edge_by_edge_build(spec):
    group = parse_group(spec)
    tables = solver._tables(group)
    k, j, moves = group.order, tables.j, tables.moves[1:]
    rng = random.Random(f"head {spec}")
    for _ in range(30):
        h = rng.randint(1, j)
        pairs = [tuple(rng.sample(range(h + 1), 2)) for _ in range(rng.randint(0, 2 * h + 2))]
        pairs += [rng.choice([p, p[::-1]]) for p in pairs[: rng.randint(0, len(pairs))]]  # parallel pairs
        rng.shuffle(pairs)
        want = solver._Cells(tables, 0, np.ones((), dtype=np.uint64))
        for _ in range(h):
            want = want.grown()
        for pair in pairs:
            want = want.with_edge(moves, pair)
        head = solver._head(group, h, tuple(sorted(tuple(sorted(p)) for p in pairs)))
        assert (head.axes, int(head.words)) == (h, int(want.words)), (h, pairs)
        with pytest.raises(ValueError):
            head.words |= np.uint64(1)
    assert [len(box) for box in tables.boxes] == [k**i for i in range(j + 1)]
    for box in tables.boxes:
        with pytest.raises(ValueError):
            box |= np.uint64(1)


def test_sumset_head_key_ignores_edge_orientation():
    for g in (complete_graph(4), PETERSEN, OCTAHEDRON, subdivide(CUBE, 0), subdivide(CUBE, 3, 2)):
        flipped = Digraph(g.n, tuple((v, u) for u, v in g.edges))
        for group in (Z4, Z2xZ2):
            want = solve_sumset(g, group)
            misses = solver._head.cache_info().misses
            got = solve_sumset(flipped, group)
            assert solver._head.cache_info().misses == misses
            assert got.connected == want.connected and got.stats["edges_added"] == want.stats["edges_added"]
            check_sumset_no(got)


def test_sumset_agrees_with_naive_on_wider_layouts():
    # orders whose words hold 6, 3, 2 and 2 axes; every odd graph is
    # subdivided to 7 vertices, with threads short enough to be contracted
    rng = random.Random(20261019)
    for spec in ("z2", "z3", "z7", "z8", "c:2,4", "z2^3"):
        group = parse_group(spec)
        k = group.order
        # a Z2-flow avoiding h is h + 1, which is not a flow for every h once
        # there is a non-loop edge, so only one-vertex graphs are Z2-connected
        graphs = [Digraph(1, ())]
        for i in range(30):
            n = rng.randint(2, 4)
            g = random_connected_loopfree(rng, n, rng.randint(n + 1, n + 4))
            while i % 2 and k > 2 and g.n < 7:
                g = subdivide(g, rng.randrange(g.m), rng.randint(1, min(k - 2, 7 - g.n)))
            graphs.append(g)
        verdicts, contracted = set(), 0
        for g in graphs:
            v = solve_sumset(g, group)
            assert v.connected == solve_naive(g, group).connected, (spec, g)
            check_sumset_no(v)
            verdicts.add(v.connected)
            contracted += v.stats["threads_contracted"]
        assert verdicts == {False, True}, spec
        assert contracted or k == 2, spec


# -- the auto policy ---------------------------------------------------------


def test_auto_picks_sumset():
    assert decide(PETERSEN, Z4).algorithm == "sumset"
    assert decide(complete_graph(4), Z4, use_preprocessing=False).algorithm == "ultra-naive"


def test_auto_checks_the_sumset_limit_per_reduced_component(monkeypatch):
    # n = 10, but the saturated thread on edge 0 is deleted, leaving an
    # 8-vertex component: |Z4|^7 boundaries, under a limit of 4^9 - 1
    g = subdivide(CUBE, 0, 2)
    want = decide(g, Z4)
    monkeypatch.setattr(solver, "SUMSET_LIMIT", 4**9 - 1)
    v = decide(g, Z4)
    assert v.algorithm == "sumset"
    assert (v.connected, v.certificate) == (want.connected, want.certificate)


def clear_memos():
    """Clear every cache of the solver and the graph layer, found by introspection so none is left out.

    The solver keeps its memos only as these four caches, so a clear is a
    cold start: no module-level dict may hold what a cache_clear misses.
    """
    memos = {f for module in (solver, groupconn.graphs) for f in vars(module).values() if hasattr(f, "cache_clear")}
    assert memos == {solver._plan, solver._tables, solver._head, solver._fixers}
    assert not [name for name, value in vars(solver).items() if isinstance(value, dict) and not name.startswith("__")]
    for memo in memos:
        memo.cache_clear()


def test_decides_of_one_graph_share_one_thread_walk(monkeypatch):
    # preprocess's last round and the sumset layout share one walk of the
    # core; the second group of the order reuses the plan and walks nothing
    walks = []
    monkeypatch.setattr(solver, "thread_profile", lambda g: walks.append(g) or thread_profile(g))
    clear_memos()
    g = subdivide(CUBE, 0)
    for group in (Z4, Z2xZ2):
        decide(g, group)
    assert walks == [g]
    assert solver._plan.cache_info().misses == 1


def reversed_edges(g, edges):
    return Digraph(g.n, tuple(e[::-1] if i in edges else e for i, e in enumerate(g.edges)))


def test_structure_memos_never_carry_one_groups_arithmetic_into_another():
    # Z4's neg(1) is 3 and Z2^2's is 1, so a reversed edge on a pigeonhole
    # path or a forced thread gets a different value in each certificate;
    # the order-8 graph deletes a saturated 7-edge thread and is NO over
    # three groups with three certificates, all from one plan's reduction
    k4 = complete_graph(4)
    triangles = Digraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)))
    thread4 = reversed_edges(subdivide(k4, 0, 3), {6, 8})  # the thread is edges 0, 6, 7, 8
    cycle4 = Digraph(8, k4.edges + ((4, 5), (6, 5), (6, 7), (4, 7)))
    forced = reversed_edges(subdivide(PETERSEN, 0, 2), {0})  # a saturated thread: edges 0, 15, 16
    order4, order8 = (Z4, Z2xZ2), tuple(parse_group(spec) for spec in ("z8", "c:2,4", "z2^3"))
    graphs = {
        "bridge": (triangles, order4),
        "thread4": (thread4, order4),
        "cycle4": (cycle4, order4),
        "forced": (forced, order4),
        "petersen": (PETERSEN, order4),
        "forced8": (subdivided(k4, [5, 5, 1, 0, 6, 2]), order8),  # two saturated 7-edge threads, then an 11-cycle
    }
    want = {}
    for name, (g, groups) in graphs.items():
        for group in groups:
            clear_memos()
            want[name, group] = decide(g, group)
            assert not want[name, group].connected, (name, group.spec_string())
    for name in ("thread4", "cycle4", "forced"):
        assert want[name, Z4].certificate != want[name, Z2xZ2].certificate, name
    assert len({want["forced8", group].certificate for group in order8}) == 3
    ones = [one for move in solver._tables(Z4).moves for one in move]
    steps = [step for one in ones for kernel in one.kernels for step in kernel]  # (shift, by, mask)
    assert not any(a.flags.writeable for a in [one.column for one in ones] + [a for step in steps for a in step[1:]])
    assert "deleted saturated thread of length 3" in want["forced", Z4].preprocessing
    assert "deleted saturated thread of length 7" in want["forced8", order8[0]].preprocessing
    assert want["forced", Z4].algorithm == "sumset" and want["petersen", Z4].algorithm == "sumset"
    for name, (g, groups) in graphs.items():
        for rotation in (groups, groups[1:] + groups[:1]):
            clear_memos()
            for group in rotation:
                v = decide(g, group)
                assert verify_certificate(g, group, v.certificate), (name, group.spec_string())
                w = want[name, group]
                assert (v.certificate, v.algorithm, v.preprocessing) == (w.certificate, w.algorithm, w.preprocessing)


# -- known verdicts ----------------------------------------------------------


def test_cycle_law():
    # a cycle is connected exactly when its length is below the group order
    for spec in ([2], [3], [4], [2, 2], [5], [6], [2, 3]):
        group = make_group(spec)
        for length in range(2, group.order + 2):
            g = THETA if length == 2 else cycle_graph(length)
            g = Digraph(2, ((0, 1), (0, 1))) if length == 2 else g
            assert decide(g, group).connected == (length <= group.order - 1)


def test_theta_graph():
    # z9 has a cyclic factor above 7, which the packed lanes of `fast` cannot hold
    for group in (Z4, Z2xZ2, make_group([9])):
        for g in (THETA, cycle_graph(3), complete_graph(4)):
            truth = oracle(g, group)
            for algo in ("ultra", "naive", "sumset"):
                v = decide(g, group, algo)
                assert v.connected == truth, (g, group.spec_string(), algo)
                assert v.connected or verify_certificate(g, group, v.certificate)


def test_complete_graphs_yes():
    for group in (Z4, Z2xZ2):
        assert decide(complete_graph(5), group, "fast").connected
        assert decide(complete_graph(6), group, "fast").connected


def test_octahedron_yes():
    for group in (Z4, Z2xZ2):
        assert decide(OCTAHEDRON, group, "fast").connected


def test_petersen_not_connected():
    # no nowhere-zero 4-flow, so the all-zero mapping is a certificate
    for group in (Z4, Z2xZ2):
        v = decide(PETERSEN, group, "fast")
        assert not v.connected
        assert verify_certificate(PETERSEN, group, v.certificate)


# -- nowhere-zero flows ------------------------------------------------------


def test_exists_nowhere_zero_flow():
    assert exists_nowhere_zero_flow(complete_graph(4), Z4)
    assert not exists_nowhere_zero_flow(PETERSEN, Z4)
    assert not exists_nowhere_zero_flow(Digraph(3, ((0, 1), (1, 2))), Z4)
    assert exists_nowhere_zero_flow(Digraph(1, ((0, 0),)), Z4)


def test_nzflow_order4_group_independence():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 6); g = random_connected_loopfree(rng, n, rng.randint(n - 1, 9))
        assert exists_nowhere_zero_flow(g, Z4) == exists_nowhere_zero_flow(g, Z2xZ2)


# -- verdict plumbing --------------------------------------------------------


def test_decide_disconnected_components():
    two_triangles = Digraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    assert decide(two_triangles, Z4).connected
    triangle_plus_bridge = Digraph(5, ((0, 1), (1, 2), (2, 0), (3, 4)))
    v = decide(triangle_plus_bridge, Z4)
    assert not v.connected
    assert verify_certificate(triangle_plus_bridge, Z4, v.certificate)


def test_verdict_json_shape():
    import json

    v = decide(Digraph(2, ((0, 1),)), Z4)
    line = v.to_json()
    assert "\n" not in line
    payload = json.loads(line)
    assert payload.keys() == {"group", "connected", "certificate", "algorithm", "stats", "preprocessing"}
    assert payload["connected"] is False
    assert payload["group"] == "z4"
    assert payload["certificate"][0].keys() == {"tail", "head", "forbidden"}
    y = decide(cycle_graph(3), Z4)
    payload = json.loads(y.to_json())
    assert payload["certificate"] is None
    assert payload["stats"]["elapsed_total"] == round(y.stats["elapsed_total"], 6)


def test_decide_rejects_bad_options():
    with pytest.raises(ValueError):
        decide(cycle_graph(3), Z4, algorithm="fast", use_preprocessing=False)
    with pytest.raises(ValueError):
        decide(complete_graph(4), Z4, algorithm="nope")


def test_decide_rejects_unknown_algorithm_before_preprocessing():
    # preprocessing settles both graphs (a bridge: NO; a single vertex: YES), so no engine runs
    for g in (Digraph(2, ((0, 1),)), Digraph(1, ())):
        with pytest.raises(ValueError, match="'bogus'"):
            decide(g, Z4, "bogus")
