import io
import json
import os

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
    ckpt = str(tmp_path / "search.ckpt")
    cfg = SearchConfig(
        added=range(1, 2), order="sequential", checkpoint_path=ckpt, distinct_edges_only=True
    )
    list(discrepancy_search([K4], Z4, Z2xZ2, cfg))
    assert int(open(ckpt).read()) == 6  # one task per K4 edge
    # resuming from a finished checkpoint does no work and emits nothing
    cfg2 = SearchConfig(
        added=range(1, 2),
        order="sequential",
        checkpoint_path=ckpt,
        resume=True,
        distinct_edges_only=True,
    )
    assert list(discrepancy_search([K4], Z4, Z2xZ2, cfg2)) == []


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

    assert len(list(_tasks([K4], cfg_all.added, False))) == 21
    assert len(list(_tasks([K4], cfg_distinct.added, True))) == 15  # C(6,2)


def test_soundness_failure_is_fatal(monkeypatch, capsys):
    # a witness whose certificate fails re-verification must stop the
    # search, not become one "task N failed" line on stderr
    from groupconn import search

    monkeypatch.setattr(search, "verify_certificate", lambda g, group, h: False)
    cfg = SearchConfig(added=range(3, 4), order="sequential", distinct_edges_only=True)
    with pytest.raises(AssertionError, match="re-verification"):
        list(discrepancy_search([CUBE], Z4, Z2xZ2, cfg))
    assert "failed:" not in capsys.readouterr().err


def test_exact_search_refinds_cubic12_witness():
    # neither randomized screen settles this candidate, so only exact mode
    # reaches the full solves that expose it
    from groupconn.search import _examine

    with open(os.path.join(DATA_DIR, "witness_z22_yes_z4_no.json")) as fh:
        payload = json.load(fh)
    bases = load_bases(os.path.join(DATA_DIR, "cubic12.g6"))
    task = SearchTask(3, bases[3], tuple(payload["subdivision_counts"]))
    w = _examine(task, Z4, Z2xZ2, SearchConfig(exact=True))
    assert w is not None
    assert w.graph == Digraph(payload["graph"]["n"], tuple(tuple(e) for e in payload["graph"]["edges"]))
    assert w.yes_group == Z2xZ2 and w.no_group == Z4
    assert verify_certificate(w.graph, Z4, w.certificate)
