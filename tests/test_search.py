import io
import json
import os
from types import SimpleNamespace

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


def test_run_search_stream(tmp_path):
    out = io.StringIO()
    cfg = SearchConfig(added=range(3, 4), order="sequential", distinct_edges_only=True)
    found = run_search([CUBE], Z4, Z2xZ2, cfg, out, max_witnesses=1)
    assert found == 1
    lines = [ln for ln in out.getvalue().splitlines() if ln]
    assert len(lines) == 1
    json.loads(lines[0])


def test_distinct_edges_only_filter():
    cfg_all = SearchConfig(added=range(2, 3))
    cfg_distinct = SearchConfig(added=range(2, 3), distinct_edges_only=True)
    from groupconn.search import _tasks

    assert len(_tasks([K4], cfg_all)) == 21
    assert len(_tasks([K4], cfg_distinct)) == 15  # C(6,2)


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
    from groupconn import search

    monkeypatch.setattr(search, "solve_naive", lambda g, group: SimpleNamespace(connected=False))
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


def test_search_refinds_cubic12_witness():
    # the search decides every candidate that survives the cheap
    # rejections, so the committed witness's own candidate yields it
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
