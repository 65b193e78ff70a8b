import io
import json
import os
import random
import time

import networkx as nx
import pytest

from groupconn.graphs import Digraph, encode_graph6, parse_graph6, subdivide
from groupconn.groups import Z4, Z2xZ2
from groupconn.search import (
    SearchConfig,
    SearchTask,
    Witness,
    discrepancy_search,
    enumerate_subdivisions,
    load_bases,
    run_search,
    subdivision_multisets,
)
from groupconn.solver import decide, verify_certificate

from conftest import CUBE, complete_graph

K4 = complete_graph(4)
DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")
PERFBENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_subdivision_multisets_count():
    # multisets of size `added` over m edge slots
    assert len(list(subdivision_multisets(6, 1))) == 6
    assert len(list(subdivision_multisets(6, 2))) == 21  # C(7,2)
    assert len(list(subdivision_multisets(12, 3))) == 364  # C(14,3)
    for counts in subdivision_multisets(5, 3):
        assert sum(counts) == 3 and len(counts) == 5


def test_enumerate_subdivisions_shapes():
    graphs = list(enumerate_subdivisions(K4, 2))
    assert len(graphs) == 21
    assert all(g.n == 6 and g.m == 8 for g in graphs)
    with pytest.raises(ValueError):
        next(enumerate_subdivisions(K4, 0))


def test_search_task_build():
    t = SearchTask(0, K4, (2, 0, 0, 0, 0, 1))
    g = t.build()
    assert g.n == 7 and g.m == 9


def test_load_bases(tmp_path):
    p = tmp_path / "bases.g6"
    p.write_text(encode_graph6(K4) + "\n\n" + encode_graph6(CUBE) + "\n")
    bases = load_bases(str(p))
    assert len(bases) == 2
    assert bases[0].m == 6 and bases[1].m == 12


@pytest.fixture(scope="module")
def cube_witness():
    cfg = SearchConfig(added=range(3, 4), order="sequential", distinct_edges_only=True)
    return next(iter(discrepancy_search([CUBE], Z4, Z2xZ2, cfg)))


def test_search_cube_finds_one_sided_witness(cube_witness):
    # three distinct subdivided cube edges yield graphs connected for
    # exactly one group of order 4
    found = cube_witness
    assert {found.yes_group.spec_string(), found.no_group.spec_string()} == {"z4", "z2^2"}
    g = found.graph
    assert g.n == CUBE.n + 3
    assert verify_certificate(g, found.no_group, found.certificate)
    assert decide(g, found.yes_group, "fast").connected


def test_witness_json_round_trip(cube_witness):
    w = cube_witness
    payload = json.loads(w.to_json())
    assert payload["yes_group"] != payload["no_group"]
    assert len(payload["certificate"]) == len(payload["graph"]["edges"])
    assert sum(payload["subdivision_counts"]) == 3
    rebuilt = Digraph(payload["graph"]["n"], tuple(tuple(e) for e in payload["graph"]["edges"]))
    assert rebuilt.edges == w.graph.edges


def test_search_deterministic_order():
    cfg = SearchConfig(added=range(3, 4), order="random", seed=11, distinct_edges_only=True)
    a = next(iter(discrepancy_search([CUBE], Z4, Z2xZ2, cfg)))
    b = next(iter(discrepancy_search([CUBE], Z4, Z2xZ2, cfg)))
    assert a.counts == b.counts and a.base_index == b.base_index


def test_search_rejects_mismatched_orders():
    from groupconn.groups import Z3

    with pytest.raises(ValueError):
        next(iter(discrepancy_search([K4], Z4, Z3, SearchConfig())))
    with pytest.raises(ValueError):
        next(iter(discrepancy_search([K4], Z4, Z2xZ2, SearchConfig(order="sideways"))))


def test_checkpoint_resume(tmp_path):
    ckpt = tmp_path / "search.ckpt"
    base = dict(added=range(1, 2), order="sequential", checkpoint_path=str(ckpt), distinct_edges_only=True)
    list(discrepancy_search([K4], Z4, Z2xZ2, SearchConfig(**base)))
    assert json.loads(ckpt.read_text())["done"] == 6  # one task per K4 edge
    # resuming from a finished checkpoint does no work and emits nothing
    assert list(discrepancy_search([K4], Z4, Z2xZ2, SearchConfig(**base, resume=True))) == []
    # a checkpoint resumes only the configuration that wrote it
    for other in (dict(base, seed=1), dict(base, added=range(2, 3))):
        with pytest.raises(ValueError, match="different search configuration"):
            list(discrepancy_search([K4], Z4, Z2xZ2, SearchConfig(**other, resume=True)))
    ckpt.write_text('{"done": 6, "finger')  # cut off mid-write
    with pytest.raises(ValueError, match="unreadable checkpoint"):
        list(discrepancy_search([K4], Z4, Z2xZ2, SearchConfig(**base, resume=True)))
    # a missing checkpoint starts from the first task
    ckpt.unlink()
    list(discrepancy_search([K4], Z4, Z2xZ2, SearchConfig(**base, resume=True)))
    assert json.loads(ckpt.read_text())["done"] == 6


def test_resume_without_checkpoint_is_refused():
    # it would otherwise restart at the first task and emit every witness again
    with pytest.raises(ValueError, match="checkpoint"):
        next(iter(discrepancy_search([K4], Z4, Z2xZ2, SearchConfig(resume=True))))


def test_run_search_stream(tmp_path):
    out = io.StringIO()
    cfg = SearchConfig(added=range(3, 4), order="sequential", distinct_edges_only=True, max_witnesses=1)
    found = run_search([CUBE], Z4, Z2xZ2, cfg, out)
    assert found == 1
    lines = [ln for ln in out.getvalue().splitlines() if ln]
    assert len(lines) == 1
    json.loads(lines[0])


def _emitted_counts(out: io.StringIO) -> list[list[int]]:
    return [json.loads(ln)["subdivision_counts"] for ln in out.getvalue().splitlines() if ln]


def _emitted_counts_of(cfg: SearchConfig) -> list[list[int]]:
    out = io.StringIO()
    run_search([CUBE], Z4, Z2xZ2, cfg, out)
    return _emitted_counts(out)


def test_resume_after_max_witnesses_emits_a_fresh_witness(tmp_path):
    # a run stopped at its last witness checkpoints that witness's task,
    # so the resumed run goes on to the next witness
    base = dict(added=range(3, 4), order="sequential", distinct_edges_only=True)
    every = _emitted_counts_of(SearchConfig(**base, max_witnesses=3))
    ckpt = dict(base, checkpoint_path=str(tmp_path / "search.ckpt"))
    first, resumed = io.StringIO(), io.StringIO()
    assert run_search([CUBE], Z4, Z2xZ2, SearchConfig(**ckpt, max_witnesses=2), first) == 2
    assert run_search([CUBE], Z4, Z2xZ2, SearchConfig(**ckpt, max_witnesses=1, resume=True), resumed) == 1
    assert _emitted_counts(first) + _emitted_counts(resumed) == every


def test_resume_reemits_a_witness_its_consumer_dropped(tmp_path):
    # a consumer that dies holding a witness never asks for the next one,
    # so that witness's task is not checkpointed and comes again on resume
    class BrokenOut(io.StringIO):
        def write(self, text):
            raise OSError("disk full")

    cfg = dict(
        added=range(3, 4),
        order="sequential",
        distinct_edges_only=True,
        checkpoint_path=str(tmp_path / "search.ckpt"),
        max_witnesses=1,
    )
    with pytest.raises(OSError, match="disk full"):
        run_search([CUBE], Z4, Z2xZ2, SearchConfig(**cfg), BrokenOut())
    out = io.StringIO()
    assert run_search([CUBE], Z4, Z2xZ2, SearchConfig(**cfg, resume=True), out) == 1
    assert _emitted_counts(out) == _emitted_counts_of(SearchConfig(**dict(cfg, checkpoint_path=None)))


def test_distinct_edges_only_filter():
    cfg_all = SearchConfig(added=range(2, 3))
    cfg_distinct = SearchConfig(added=range(2, 3), distinct_edges_only=True)
    from groupconn.search import _tasks

    assert len(_tasks([K4], cfg_all)) == 21
    assert len(_tasks([K4], cfg_distinct)) == 15  # C(6,2)
    # built from combinations, the distinct-edge list is the multiset list
    # without the count vectors that repeat an edge, in the same order
    bases = [CUBE, load_bases(os.path.join(DATA_DIR, "cubic12.g6"))[0]]
    for order in ("sequential", "random"):
        cfg = SearchConfig(added=range(1, 5), order=order, seed=7, distinct_edges_only=True)
        filtered = [
            SearchTask(bi, base, counts)
            for bi, base in enumerate(bases)
            for added in cfg.added
            for counts in subdivision_multisets(base.m, added)
            if max(counts) <= 1
        ]
        if order == "random":
            random.Random(cfg.seed).shuffle(filtered)
        assert _tasks(bases, cfg) == filtered, order
    # 14.7 million multisets of 13 to 15 cube edges, none of them on distinct edges, and none walked
    t0 = time.perf_counter()
    assert _tasks([CUBE], SearchConfig(added=range(13, 16), distinct_edges_only=True)) == []
    assert time.perf_counter() - t0 < 1.0


def test_a_candidate_builds_one_spanning_structure_per_graph(monkeypatch):
    # the certificate checks of both decides, the witness's re-verification
    # and the naive cross-check all read the spanning structure of one plan
    from groupconn import solver
    from groupconn.search import _examine

    built = []
    spanning_structure = solver.spanning_structure
    monkeypatch.setattr(solver, "spanning_structure", lambda g: built.append(g) or spanning_structure(g))
    witness, no_no = (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), (1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
    for counts, found in ((witness, True), (no_no, False)):
        solver._plan.cache_clear()
        built.clear()
        task = SearchTask(0, CUBE, counts)
        assert (_examine(task, Z4, Z2xZ2) is not None) == found
        assert built == [task.build()], counts


def test_soundness_failure_is_fatal(monkeypatch, capsys):
    # a witness whose certificate fails re-verification must stop the
    # search, not become one "task N failed" line on stderr
    from groupconn import search

    monkeypatch.setattr(search, "verify_certificate", lambda g, group, h: False)
    cfg = SearchConfig(added=range(3, 4), order="sequential", distinct_edges_only=True)
    with pytest.raises(AssertionError, match="re-verification"):
        list(discrepancy_search([CUBE], Z4, Z2xZ2, cfg))
    assert "failed:" not in capsys.readouterr().err


def test_task_failure_is_reported_with_replay_context(monkeypatch, capsys):
    # an engine error costs one candidate, and its stderr line names what
    # is needed to replay it
    from groupconn import search

    def broken(g, group):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(search, "decide", broken)
    cfg = SearchConfig(added=range(1, 2), order="sequential", distinct_edges_only=True)
    assert list(discrepancy_search([CUBE], Z4, Z2xZ2, cfg)) == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == CUBE.m  # every candidate reached the decides and failed there
    assert lines[0] == (
        "task 0 failed: base 0 counts [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] "
        "groups z4,z2^2: RuntimeError('engine exploded')"
    )
    assert lines[-1].startswith(f"task {CUBE.m - 1} failed: base 0 counts ")


def test_naive_crosscheck_failure_is_fatal(monkeypatch, capsys):
    # a YES verdict that the naive engine contradicts stops the search
    from groupconn import solver

    def contradicting_naive(g, group):
        return solver.Verdict(g, group, False, (0,) * g.m, "naive")

    monkeypatch.setattr(solver, "solve_naive", contradicting_naive)
    cfg = SearchConfig(added=range(3, 4), order="sequential", distinct_edges_only=True)
    with pytest.raises(AssertionError, match="naive cross-check"):
        list(discrepancy_search([CUBE], Z4, Z2xZ2, cfg))
    assert "failed:" not in capsys.readouterr().err


def test_search_is_complete_on_benchmark_round():
    # the first 50 seed-7 cube+3 candidates hold 16 of the 48 discrepancies
    # frozen (from the naive engine) in perfbench/expected.json; the search
    # must emit exactly those, with their groups
    from groupconn.search import _examine, _tasks

    with open(os.path.join(PERFBENCH_DIR, "expected.json")) as fh:
        frozen = json.load(fh)["search_cube3"]["witnesses"]
    cfg = SearchConfig(added=range(3, 4), order="random", seed=7, distinct_edges_only=True)
    tasks = _tasks([CUBE], cfg)[:50]
    in_round = {t.counts for t in tasks}
    want = {tuple(w["counts"]): (w["yes"], w["no"]) for w in frozen if tuple(w["counts"]) in in_round}
    found = {}
    for task in tasks:
        w = _examine(task, Z4, Z2xZ2)
        if w is not None:
            found[w.counts] = (w.yes_group.spec_string(), w.no_group.spec_string())
    assert len(want) == 16
    assert found == want


def test_search_refinds_cubic12_witness(monkeypatch):
    # the search decides every candidate, so the committed witness's own
    # candidate yields it, its z2^2 YES cross-checked by naive (4^14 tree mappings)
    from groupconn import solver
    from groupconn.search import _examine

    with open(os.path.join(DATA_DIR, "witness_z22_yes_z4_no.json")) as fh:
        payload = json.load(fh)
    bases = load_bases(os.path.join(DATA_DIR, "cubic12.g6"))
    task = SearchTask(3, bases[3], tuple(payload["subdivision_counts"]))
    w = _examine(task, Z4, Z2xZ2)
    assert w is not None
    assert w.graph == Digraph(payload["graph"]["n"], tuple(tuple(e) for e in payload["graph"]["edges"]))
    assert w.yes_group == Z2xZ2 and w.no_group == Z4
    assert verify_certificate(w.graph, Z4, w.certificate)
    assert w.yes_crosschecked and json.loads(w.to_json())["yes_crosschecked"] is True

    def contradicting_naive(g, group):
        return solver.Verdict(g, group, False, (0,) * g.m, "naive")

    monkeypatch.setattr(solver, "solve_naive", contradicting_naive)
    with pytest.raises(AssertionError, match="naive cross-check"):
        _examine(task, Z4, Z2xZ2)


def test_witness_past_the_naive_limit_is_marked_unchecked(monkeypatch):
    # the cube+3 witness has n = 11: 4^10 tree mappings, one more than the limit
    from groupconn import solver
    from groupconn.search import _examine

    def no_naive(g, group):
        raise AssertionError("naive ran")

    monkeypatch.setattr(solver, "NAIVE_KEY_LIMIT", 4**10 - 1)
    monkeypatch.setattr(solver, "solve_naive", no_naive)
    cfg = SearchConfig(added=range(3, 4), order="sequential", distinct_edges_only=True)
    w = next(iter(discrepancy_search([CUBE], Z4, Z2xZ2, cfg)))
    assert w.graph.n == 11 and not w.yes_crosschecked
    assert json.loads(w.to_json())["yes_crosschecked"] is False
    # at the limit itself the cross-check runs
    monkeypatch.setattr(solver, "NAIVE_KEY_LIMIT", 4**10)
    with pytest.raises(AssertionError, match="naive ran"):
        _examine(SearchTask(w.base_index, CUBE, w.counts), Z4, Z2xZ2)


def test_cubic12_all_holds_every_3_edge_colorable_class():
    # 80 connected 3-edge-colorable cubic graphs on 12 vertices, up to isomorphism
    def nx_graph(g):
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        for v, dist in nx.all_pairs_shortest_path_length(G):
            G.nodes[v]["profile"] = str(sorted(dist.values()))
        return G

    def classes(graphs):
        # isomorphic graphs share a hash; only graphs sharing one need matching
        out = {}
        for G in graphs:
            bucket = out.setdefault(nx.weisfeiler_lehman_graph_hash(G, node_attr="profile"), [])
            if not any(nx.is_isomorphic(G, H) for H in bucket):
                bucket.append(G)
        return out

    data = os.path.join(os.path.dirname(__file__), "..", "data")
    corpus = [nx_graph(g) for g in load_bases(os.path.join(data, "cubic12_all.g6"))]
    assert len(corpus) == 80
    for G in corpus:
        assert G.number_of_nodes() == 12 and nx.is_connected(G)
        assert {d for _, d in G.degree()} == {3}
    known = classes(corpus)
    assert sum(map(len, known.values())) == 80  # pairwise non-isomorphic
    old = [nx_graph(g) for g in load_bases(os.path.join(data, "cubic12.g6"))]
    merged = classes(corpus + old)
    assert sum(map(len, merged.values())) == 80  # nothing in cubic12.g6 is missing
