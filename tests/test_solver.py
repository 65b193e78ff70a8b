import itertools
import random

import pytest

from groupconn import solver
from groupconn.flows import find_satisfying_flow
from groupconn.graphs import Digraph, structure_report, subdivide
from groupconn.groups import Z2, Z3, Z4, Z2xZ2, make_group
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


def test_verify_certificate_matches_flow_search():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 5); g = random_connected_loopfree(rng, n, rng.randint(n, 7))
        h = tuple(rng.randrange(4) for _ in range(g.m))
        from groupconn.flows import find_satisfying_flow

        assert verify_certificate(g, Z4, h) == (find_satisfying_flow(g, Z4, h) is None)


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
    """A NO verdict's certificate passes both the packed and the scalar check."""
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


def test_sumset_rechecks_its_certificates(monkeypatch):
    monkeypatch.setattr(solver, "verify_certificate", lambda g, group, h: False)
    with pytest.raises(AssertionError, match="sumset engine"):
        solve_sumset(PETERSEN, Z4)


# -- the auto policy ---------------------------------------------------------


def test_auto_picks_sumset():
    assert decide(PETERSEN, Z4).algorithm == "sumset"
    assert decide(complete_graph(4), Z4, use_preprocessing=False).algorithm == "ultra-naive"


def test_auto_falls_back_to_fast_above_sumset_limit(monkeypatch):
    workload = list(enumerate_subdivisions(CUBE, 2))  # n = 10: |Z4|^9 boundaries
    assert all(decide(g, Z4).algorithm == "sumset" for g in workload)
    monkeypatch.setattr(solver, "SUMSET_LIMIT", 4**9 - 1)
    assert all(decide(g, Z4).algorithm == "fast" for g in workload)


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
    for group in (Z4, Z2xZ2):
        assert decide(THETA, group).connected == oracle(THETA, group)


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
    payload = json.loads(v.to_json())
    assert payload["connected"] is False
    assert payload["group"] == "z4"
    assert payload["certificate"][0].keys() == {"tail", "head", "forbidden"}
    y = decide(cycle_graph(3), Z4)
    assert json.loads(y.to_json())["certificate"] is None


def test_decide_rejects_bad_options():
    with pytest.raises(ValueError):
        decide(cycle_graph(3), Z4, algorithm="fast", use_preprocessing=False)
    with pytest.raises(ValueError):
        decide(complete_graph(4), Z4, algorithm="nope")
