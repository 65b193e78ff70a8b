"""Regenerate perfbench/expected.json, the frozen outputs the benchmark checks against.

Every verdict here comes from the ``naive`` engine (one representative
mapping per flow-equivalence class), not from the marking-table engine
the CLI and the search use, so a fault in that engine cannot hide by
agreeing with itself.  Takes about eight minutes in one process on a
2-core Xeon.

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from run import source_sha256  # noqa: E402
from groupconn.graphs import Digraph, subdivide  # noqa: E402
from groupconn.groups import parse_group  # noqa: E402
from groupconn.search import enumerate_subdivisions  # noqa: E402
from groupconn.solver import decide  # noqa: E402

COMMAND = "python3 perfbench/make_expected.py"
ENGINE = "naive"


def verdicts(g: inputs.Graph) -> dict[str, bool]:
    dg = Digraph(g[0], g[1])
    return {spec: decide(dg, parse_group(spec), ENGINE).connected for spec in inputs.GROUPS}


def check_inputs_match_package() -> None:
    """The benchmark's own graph builders agree with the package's."""
    cube = Digraph(*inputs.CUBE)
    ours = [Digraph(*g) for g in inputs.cube2_graphs().values()]
    if ours != list(enumerate_subdivisions(cube, 2)):
        raise SystemExit("cube2 inputs differ from search.enumerate_subdivisions(CUBE, 2)")
    prism = Digraph(*inputs.PRISM5)
    for e in inputs.HARD_SUBDIVIDED_EDGES:
        prism = subdivide(prism, e, 1)
    if Digraph(*inputs.hard_graphs()["prism5-sub3"]) != prism:
        raise SystemExit("prism inputs differ from graphs.subdivide")


def main() -> int:
    check_inputs_match_package()
    t0 = time.perf_counter()
    decides = {}
    for name, g in itertools.chain(inputs.cube2_graphs().items(), inputs.hard_graphs().items()):
        decides[name] = verdicts(g)
        print(f"[{time.perf_counter() - t0:7.1f}s] {name}: {decides[name]}", file=sys.stderr)

    m = len(inputs.CUBE[1])
    witnesses = []
    candidates = list(itertools.combinations(range(m), 3))
    for combo in candidates:
        counts = [1 if e in combo else 0 for e in range(m)]
        v = verdicts(inputs.subdivide_by_counts(inputs.CUBE, counts))
        if v["z4"] != v["z2^2"]:
            yes, no = ("z4", "z2^2") if v["z4"] else ("z2^2", "z4")
            witnesses.append({"counts": counts, "yes": yes, "no": no})
        print(f"[{time.perf_counter() - t0:7.1f}s] cube3 {combo}: {v}", file=sys.stderr)

    payload = {
        "generated_by": {
            "command": COMMAND,
            "engine": ENGINE,
            "source_sha256": source_sha256(),
            "seconds": round(time.perf_counter() - t0, 1),
        },
        "decide": decides,
        "search_cube3": {"candidates": len(candidates), "witnesses": witnesses},
    }
    (HERE / "expected.json").write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(decides)} graphs, {len(witnesses)} witnesses", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
