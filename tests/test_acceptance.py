"""Acceptance gate: the eight project-level criteria, one test each.

Each test prints a single ``criterion N: PASS/FAIL`` line (bypassing
pytest's capture) so a full run leaves a readable scoreboard.  These are
end-to-end checks; per-function behavior lives in the unit modules.
"""

import itertools
import json
import os
import random
import sys
import time

import pytest

import conftest
from groupconn.cli import main as cli_main
from groupconn.flows import find_satisfying_flow
from groupconn.graphs import Digraph, structure_report, subdivide
from groupconn.groups import Z2, Z3, Z4, Z2xZ2, make_group
from groupconn.search import (
    SearchConfig,
    SearchTask,
    discrepancy_search,
    enumerate_subdivisions,
    load_bases,
)
from groupconn.solver import (
    decide,
    exists_nowhere_zero_flow,
    solve_fast,
    verify_certificate,
)

from conftest import CUBE, MAIN_GROUPS, OCTAHEDRON, THETA, complete_graph, cycle_graph

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")
FIXTURE_PATH = os.path.join(DATA_DIR, "witness_z22_yes_z4_no.json")
BASES_PATH = os.path.join(DATA_DIR, "cubic12.g6")


class _Report:
    def __init__(self, num, desc):
        self.num, self.desc = num, desc

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.perf_counter() - self.t0
        print(
            f"criterion {self.num}: {status} — {self.desc} ({elapsed:.1f}s)",
            file=sys.__stderr__,
            flush=True,
        )
        return False


def _connected(g: Digraph) -> bool:
    _, components, _ = structure_report(g)
    return len(components) == 1


def _exhaustive_corpus():
    """Every connected multigraph (loops allowed) with n <= 3, m <= 6,
    plus subdivisions of dense seeds up to m = 8."""
    for n in (1, 2, 3):
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(1, 7):
            for combo in itertools.combinations_with_replacement(slots, m):
                g = Digraph(n, combo)
                if _connected(g) and all(d > 0 for d in g.degrees()):
                    yield g
    for base in (THETA, cycle_graph(3), complete_graph(4)):
        for added in (1, 2):
            yield from enumerate_subdivisions(base, added)


def test_criterion_1_oracle_equivalence():
    with _Report(1, "engine agreement: exhaustive m<=8 corpus + 500 random m<=12"):
        count = 0
        for g in _exhaustive_corpus():
            for group in MAIN_GROUPS:
                truth = decide(g, group, "ultra", use_preprocessing=False).connected
                assert decide(g, group, "ultra").connected == truth, (g, group.spec_string())
                assert decide(g, group, "naive").connected == truth, (g, group.spec_string())
                assert decide(g, group, "fast").connected == truth, (g, group.spec_string())
            count += 1
        assert count >= 500  # the exhaustive corpus alone is already this large

        rng = random.Random(20240901)
        for i in range(500):
            n = rng.randint(3, 8)
            m = rng.randint(n - 1, 12)
            edges = [(rng.randrange(v + 1), v) for v in range(1, n)]  # spanning tree
            while len(edges) < m:
                u, v = rng.randrange(n), rng.randrange(n)
                edges.append((u, v))  # loops and parallels welcome
            g = Digraph(n, tuple(edges))
            for group in (Z4, Z2xZ2):
                assert (
                    decide(g, group, "naive").connected == decide(g, group, "fast").connected
                ), (i, group.spec_string())


def test_criterion_2_cycle_law():
    with _Report(2, "cycle C_l connected iff l <= |G|-1, orders 2..6"):
        for spec in ([2], [3], [4], [2, 2], [5], [6], [2, 3]):
            group = make_group(spec)
            for length in range(1, 7):
                if length == 1:
                    g = Digraph(1, ((0, 0),))
                elif length == 2:
                    g = Digraph(2, ((0, 1), (0, 1)))
                else:
                    g = cycle_graph(length)
                expected = length <= group.order - 1
                assert decide(g, group).connected == expected, (length, group.spec_string())


def test_criterion_3_dense_yes():
    with _Report(3, "K5, K6, octahedron are YES for z4 and z2^2"):
        t0 = time.perf_counter()
        for g in (complete_graph(5), complete_graph(6), OCTAHEDRON):
            for group in (Z4, Z2xZ2):
                assert decide(g, group, "fast").connected
        assert time.perf_counter() - t0 < 60


def test_criterion_4_nowhere_zero_equivalence():
    with _Report(4, "nowhere-zero z4-flow iff z2^2-flow on 100 random graphs"):
        rng = random.Random(777)
        for _ in range(100):
            n = rng.randint(2, 9)
            m = rng.randint(1, 14)
            g = Digraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m)))
            assert exists_nowhere_zero_flow(g, Z4) == exists_nowhere_zero_flow(g, Z2xZ2)


def test_criterion_5_cube_witness():
    with _Report(5, "cube subdivisions (1-7 added) contain a z4-YES / z2^2-NO witness"):
        cfg = SearchConfig(added=range(1, 8), order="sequential", distinct_edges_only=False)
        witness = None
        for w in discrepancy_search([CUBE], Z4, Z2xZ2, cfg):
            if w.yes_group.spec_string() == "z4":
                witness = w
                break
        assert witness is not None
        # the NO certificate re-verifies by exhaustive (scalar) flow search
        assert find_satisfying_flow(witness.graph, Z2xZ2, witness.certificate) is None
        assert decide(witness.graph, Z4, "fast").connected


def test_criterion_6_cubic12_witness_fixture():
    with _Report(6, "frozen 12-vertex-cubic threefold-subdivision witness re-verifies"):
        assert os.path.exists(FIXTURE_PATH), (
            "witness fixture missing; rebuild it with scripts/make_witness_fixture.py: "
            "base 3 of data/cubic12.g6 with edges 2, 6 and 12 subdivided once, "
            "decide(g, Z4, 'fast') and decide(g, Z2xZ2, 'fast'), written by search.Witness.to_json"
        )
        with open(FIXTURE_PATH) as fh:
            payload = json.load(fh)
        g = Digraph(payload["graph"]["n"], tuple(tuple(e) for e in payload["graph"]["edges"]))
        assert payload["yes_group"] == "z2^2" and payload["no_group"] == "z4"
        counts = tuple(payload["subdivision_counts"])
        assert g.n == 15 and sum(counts) == 3
        # the stored graph is three distinct edges of a 12-vertex cubic base, subdivided once
        base = load_bases(BASES_PATH)[payload["base_index"]]
        assert base.n == 12 and set(base.degrees()) == {3}
        assert len(counts) == base.m and set(counts) <= {0, 1}
        assert SearchTask(payload["base_index"], base, counts).build() == g
        # the fixture's own inline certificate is a z4 NO-certificate
        entries = payload["certificate"]
        assert [(c["tail"], c["head"]) for c in entries] == list(g.edges)
        assert verify_certificate(g, Z4, [Z4.parse_element(c["forbidden"]) for c in entries])
        t0 = time.perf_counter()
        assert decide(g, Z2xZ2, "fast").connected
        v = decide(g, Z4, "fast")
        assert not v.connected
        assert verify_certificate(g, Z4, v.certificate)
        assert time.perf_counter() - t0 < 15 * 60


def test_criterion_7_thread_speedup():
    with _Report(7, "thread optimizations >= 10x on the 78-graph cube workload"):
        workload = list(enumerate_subdivisions(CUBE, 2))
        assert len(workload) == 78
        times = {True: 0.0, False: 0.0}
        verdicts = {True: [], False: []}
        for thread_opt in (True, False):
            t0 = time.perf_counter()
            for g in workload:
                for group in (Z4, Z2xZ2):
                    v = decide(g, group, "fast", thread_opt=thread_opt)
                    verdicts[thread_opt].append(v.connected)
            times[thread_opt] = time.perf_counter() - t0
        assert verdicts[True] == verdicts[False]
        speedup = times[False] / times[True]
        print(f"  [thread speedup: {speedup:.2f}x]", file=sys.__stderr__, flush=True)
        assert speedup >= 10.0


def test_criterion_8_certificate_round_trip(tmp_path):
    with _Report(8, "every recorded NO certificate passes the certify command"):
        seen = set()
        checked = 0
        for g, group, cert in conftest.NO_VERDICT_LOG:
            key = (g.n, g.edges, group.spec_string(), cert)
            if key in seen:
                continue
            seen.add(key)
            graph_path = tmp_path / f"g{checked}.txt"
            graph_path.write_text(g.to_edgelist())
            cert_path = tmp_path / f"c{checked}.json"
            cert_path.write_text(
                json.dumps(
                    {
                        "certificate": [
                            {
                                "tail": g.edges[e][0],
                                "head": g.edges[e][1],
                                "forbidden": group.format_element(v),
                            }
                            for e, v in enumerate(cert)
                        ]
                    }
                )
            )
            code = cli_main(
                [
                    "certify",
                    "--graph", str(graph_path),
                    "--group", group.spec_string(),
                    "--certificate", str(cert_path),
                ]
            )
            assert code == 0, f"certificate {checked} rejected ({group.spec_string()}, {g.edges})"
            checked += 1
        assert checked > 0
        print(f"  [certificates replayed: {checked}]", file=sys.__stderr__, flush=True)
