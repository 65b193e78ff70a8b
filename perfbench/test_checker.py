"""Tests of the benchmark's output checker: clean output passes, injected faults count.

    python3 -m pytest -q perfbench/test_checker.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from groupconn import cli  # noqa: E402
from groupconn.groups import parse_group  # noqa: E402

FROZEN = json.loads((HERE / "expected.json").read_text())


def nowhere_zero(certificate: list, group_spec: str) -> None:
    """Make every forbidden value nonzero: the zero flow then avoids the mapping."""
    one = parse_group(group_spec).format_element(1)
    for entry in certificate:
        entry["forbidden"] = one


def cli_test(path: Path, spec: str, algo: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["test", "--graph", str(path), "--group", spec, "--algo", algo])
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def decides(tmp_path_factory):
    """Real CLI output for a YES graph and a NO graph (Petersen, with a certificate)."""
    rng = random.Random(3)
    graphs = {
        "cube2-00-05": inputs.reorient(inputs.cube2_graphs()["cube2-00-05"], rng),
        "petersen": inputs.reorient(inputs.PETERSEN, rng),
    }
    records = []
    for name, g in graphs.items():
        path = tmp_path_factory.mktemp("graphs") / f"{name}.txt"
        path.write_text(inputs.edgelist_text(g))
        for spec in inputs.GROUPS:
            # naive keeps the test quick; the checker reads every engine's JSON alike
            records.append((name, spec, *cli_test(path, spec, "naive")))
    return graphs, records


@pytest.fixture(scope="module")
def search():
    """The first witness of the search-cube3 workload, as the benchmark runs it."""
    # the third candidate of the seed-7 order is the first witness
    wl = run.SearchWorkload(sys.modules["groupconn"], round_size=3)
    seg = wl.run(rounds=1)
    payloads = [json.loads(w.to_json()) for w, _ in seg.witnesses]
    assert len(payloads) == 1
    return wl, seg, payloads


def tally_decides(graphs, records):
    return checker.tally_decides(records, graphs, FROZEN["decide"])


def tally_search(wl, seg, payloads, stderr=None):
    return checker.tally_search(
        len(seg.item_times),
        payloads,
        seg.stderr if stderr is None else stderr,
        wl.base,
        checker.expected_witnesses(FROZEN),
    )


def test_clean_output_has_no_failures(decides, search):
    graphs, records = decides
    assert [rc for *_, rc, _ in records] == [0, 0, 1, 1]
    t = tally_decides(graphs, records)
    assert (t.attempted, t.failed, t.fail_frac) == (4, 0, 0.0)
    s = tally_search(*search)
    assert s.attempted >= 1 and s.failed == 0 and s.fail_frac == 0.0


def test_flipped_verdict_counts(decides):
    graphs, records = decides
    name, spec, rc, out = records[0]
    payload = json.loads(out)
    payload["connected"] = False
    flipped = [(name, spec, 1, json.dumps(payload))] + records[1:]
    t = tally_decides(graphs, flipped)
    assert t.failed == 1 and t.fail_frac > 0
    assert "frozen table" in t.failures[0]


def test_exit_code_two_counts(decides):
    graphs, records = decides
    t = tally_decides(graphs, [records[0][:2] + (2, "")] + records[1:])
    assert t.failed == 1 and t.fail_frac > 0


def test_corrupted_certificate_counts(decides):
    graphs, records = decides
    name, spec, rc, out = records[2]
    payload = json.loads(out)
    assert payload["certificate"]
    nowhere_zero(payload["certificate"], spec)
    corrupted = records[:2] + [(name, spec, rc, json.dumps(payload))] + records[3:]
    t = tally_decides(graphs, corrupted)
    assert t.failed == 1 and t.fail_frac > 0
    assert "certificate rejected" in t.failures[0]


def test_unexpected_witness_counts(search):
    wl, seg, payloads = search
    expected = checker.expected_witnesses(FROZEN)
    m = len(inputs.CUBE[1])
    triples = ([1 if e in combo else 0 for e in range(m)] for combo in itertools.combinations(range(m), 3))
    counts = next(c for c in triples if tuple(c) not in expected)
    fake = copy.deepcopy(payloads[0])
    n, edges = inputs.subdivide_by_counts(wl.base, counts)
    fake["subdivision_counts"] = counts
    fake["graph"] = {"n": n, "edges": [list(e) for e in edges]}
    s = tally_search(wl, seg, [fake])
    assert s.failed == 1 and s.fail_frac > 0
    assert "unexpected witness" in s.failures[0]


def test_corrupted_witness_certificate_counts(search):
    wl, seg, payloads = search
    fake = copy.deepcopy(payloads[0])
    nowhere_zero(fake["certificate"], fake["no_group"])
    s = tally_search(wl, seg, [fake])
    assert s.failed == 1 and "certificate rejected" in s.failures[0]


def test_task_failed_line_counts(search):
    wl, seg, payloads = search
    stderr = seg.stderr + "task 17 failed: AssertionError('witness certificate failed re-verification')\n"
    s = tally_search(wl, seg, payloads, stderr=stderr)
    assert s.failed == 1 and s.fail_frac > 0
