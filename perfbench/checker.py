"""Check a run's outputs against expected.json and count failed operations.

Each failed operation is counted once, whatever went wrong with it.  A
decide fails on an uncaught error or exit code 2, JSON that does not
parse or disagrees with the exit code, a verdict that differs from the
frozen table, or a NO-certificate that does not hold.  A search candidate
fails when the search reports ``task N failed:`` on stderr; an emitted
witness fails when its subdivision is not in the frozen witness set, its
groups or graph are wrong, or its certificate does not hold.

Certificates are re-verified with the scalar flow enumeration of
``groupconn.flows.find_satisfying_flow``, never with the packed kernel
that produced them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from groupconn.flows import find_satisfying_flow
from groupconn.graphs import Digraph
from groupconn.groups import parse_group

import inputs

TASK_FAILED = re.compile(r"^task \d+ failed:.*$", re.MULTILINE)


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)  # one reason per failed operation

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def add(self, reason: Optional[str], label: str) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{label}: {reason}")


def certificate_problem(graph: inputs.Graph, group_spec: str, entries) -> Optional[str]:
    """Why `entries` (certificate JSON, one entry per edge in edge order) is not a NO-certificate."""
    n, edges = graph
    if not isinstance(entries, list) or len(entries) != len(edges):
        return "certificate does not list every edge"
    group = parse_group(group_spec)
    h = []
    for (u, v), entry in zip(edges, entries):
        try:
            tail, head = int(entry["tail"]), int(entry["head"])
            h.append(group.parse_element(str(entry["forbidden"])))
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed certificate entry {entry!r}: {exc}"
        if (tail, head) != (u, v):
            return f"certificate edge ({tail},{head}) where the graph has ({u},{v})"
    if find_satisfying_flow(Digraph(n, edges), group, h) is not None:
        return "certificate rejected: a flow avoids it"
    return None


def decide_problem(
    rc: Optional[int], stdout: str, graph: inputs.Graph, group_spec: str, expected: bool
) -> Optional[str]:
    """Why one ``groupconn test`` call failed, or None."""
    if rc not in (0, 1):
        return f"exit code {rc}: {stdout.strip()[:200]}"
    try:
        payload = json.loads(stdout)
        connected = payload["connected"]
    except (ValueError, KeyError, TypeError):
        return "stdout is not a verdict JSON"
    if connected is not (rc == 0):
        return f"exit code {rc} disagrees with connected={connected}"
    if connected != expected:
        return f"verdict connected={connected}, frozen table says {expected}"
    if not connected:
        return certificate_problem(graph, group_spec, payload.get("certificate"))
    return None


def tally_decides(records, graphs: dict, expected: dict) -> Tally:
    """records: (name, group_spec, exit_code, stdout) per call; graphs: name -> graph decided."""
    tally = Tally()
    for name, spec, rc, out in records:
        tally.add(decide_problem(rc, out, graphs[name], spec, expected[name][spec]), f"{name} {spec}")
    return tally


def witness_problem(payload: dict, base: inputs.Graph, expected: dict) -> Optional[str]:
    """Why one emitted witness (its NDJSON payload) is wrong, or None."""
    counts = tuple(payload["subdivision_counts"])
    want = expected.get(counts)
    if want is None:
        return "unexpected witness: not in the frozen witness set"
    if (payload["yes_group"], payload["no_group"]) != want:
        return f"witness groups {payload['yes_group']}/{payload['no_group']}, expected {want[0]}/{want[1]}"
    graph = (payload["graph"]["n"], tuple(tuple(e) for e in payload["graph"]["edges"]))
    if graph != inputs.subdivide_by_counts(base, counts):
        return "witness graph is not the subdivision its counts name"
    return certificate_problem(graph, payload["no_group"], payload["certificate"])


def tally_search(candidates: int, witness_payloads, stderr_text: str, base: inputs.Graph, expected: dict) -> Tally:
    """candidates examined, witnesses emitted (parsed NDJSON), and the search's stderr."""
    tally = Tally(attempted=candidates)
    tally.failures.extend(TASK_FAILED.findall(stderr_text))
    for payload in witness_payloads:
        reason = witness_problem(payload, base, expected)
        if reason is not None:
            tally.failures.append(f"witness {payload['subdivision_counts']}: {reason}")
    return tally


def expected_witnesses(frozen: dict) -> dict:
    """counts -> (yes group, no group) from the search_cube3 section of expected.json."""
    return {tuple(w["counts"]): (w["yes"], w["no"]) for w in frozen["search_cube3"]["witnesses"]}
