#!/usr/bin/env python3
"""Run the benchmark over several seeds and record it as BENCH_<label>.json.

    python3 scripts/bench.py --label contracted --pairs 10 --parent ../parent-checkout

Each pair runs ``perfbench/run.py`` once per workload (untraced, at the
``run_seconds`` of BENCHMARK.json) with its own seed, pair i using seed i.
Given ``--parent``, a checkout of the parent commit, every pair runs both
checkouts, alternating which goes first, and the record counts the pairs
each end-to-end metric won.  Per side it stores the source hash, every
run, and the median and quartiles of every end-to-end metric.

Two ungated extras are measured per pair and side, each in a fresh
process, with ``decide`` (auto) over z4 and z2^2:

* the fixture probe: the 15-vertex witness fixture of ``data/``, with the
  seconds per group and the process's peak RSS;
* the census probe: the first 100 tasks of the seed-7, distinct-edge,
  added = 3 search of ``data/cubic12_all.g6`` (4^11-cell boundary
  arrays), with the milliseconds and minor page faults per decide, the
  process's peak RSS once the task list and graphs are built, and its
  peak RSS at the end.

The record goes to BENCH_<label>.json in this checkout's root.  Exit
status 2 means a run failed to produce its result line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path("data") / "witness_z22_yes_z4_no.json"
FIXTURE_GROUPS = ("z4", "z2^2")
CENSUS_BASES = Path("data") / "cubic12_all.g6"
CENSUS_TASKS = 100


def fixture_probe(root: Path) -> None:
    """Decide the witness fixture of checkout `root` for both groups; print one JSON line."""
    sys.path.insert(0, str(root / "src"))
    from groupconn.graphs import Digraph
    from groupconn.groups import parse_group
    from groupconn.solver import decide

    payload = json.loads((root / FIXTURE).read_text())
    g = Digraph(payload["graph"]["n"], tuple(tuple(e) for e in payload["graph"]["edges"]))
    out = {}
    for spec in FIXTURE_GROUPS:
        t0 = time.perf_counter()
        v = decide(g, parse_group(spec))
        out[spec] = {"seconds": time.perf_counter() - t0, "connected": v.connected, "algorithm": v.algorithm}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
    print(json.dumps(out))


def census_probe(root: Path) -> None:
    """Decide the census slice of checkout `root` for both groups; print one JSON line."""
    sys.path.insert(0, str(root / "src"))
    from groupconn.groups import parse_group
    from groupconn.search import SearchConfig, _tasks, load_bases
    from groupconn.solver import decide

    config = SearchConfig(added=range(3, 4), order="random", seed=7, distinct_edges_only=True)
    graphs = [task.build() for task in _tasks(load_bases(str(root / CENSUS_BASES)), config)[:CENSUS_TASKS]]
    groups = [parse_group(spec) for spec in FIXTURE_GROUPS]
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    yes = sum(decide(g, group).connected for g in graphs for group in groups)
    seconds = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    decides = len(graphs) * len(groups)
    print(json.dumps({
        "decides": decides,
        "yes": yes,
        "ms_per_decide": 1e3 * seconds / decides,
        "minflt_per_decide": (after.ru_minflt - before.ru_minflt) / decides,
        "rss_before_decides_mb": before.ru_maxrss / 1024.0,
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }))


def run_checked(cmd: list[str], cwd: Path) -> list[str]:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {cwd} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return lines


def perfbench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    record, result = (json.loads(line) for line in run_checked(cmd + ["--trace", "0"], root)[-2:])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "source_sha256": record["source_sha256"],
        "machine": record["machine"],
    }


def probe_run(root: Path, probe: str) -> dict:
    return json.loads(run_checked([sys.executable, str(Path(__file__).resolve()), probe, str(root)], ROOT)[-1])


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="names the output, BENCH_<label>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit to alternate with")
    ap.add_argument("--fixture-probe", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--census-probe", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.fixture_probe:
        fixture_probe(args.fixture_probe)
        return 0
    if args.census_probe:
        census_probe(args.census_probe)
        return 0
    if not args.label:
        ap.error("--label is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"change": ROOT} | ({"parent": args.parent.resolve()} if args.parent else {})
    runs = {side: {w: [] for w in workloads} for side in sides}
    fixtures = {side: [] for side in sides}
    censuses = {side: [] for side in sides}
    try:
        for seed in range(1, args.pairs + 1):
            order = list(sides) if seed % 2 else list(reversed(sides))
            for w in workloads:
                for side in order:
                    r = perfbench_run(sides[side], w, seed, spec["run_seconds"])
                    runs[side][w].append(r)
                    print(f"pair {seed} {w} {side}: {r['metrics']} failed {r['failed']}", file=sys.stderr, flush=True)
            for side in order:
                fixtures[side].append(probe_run(sides[side], "--fixture-probe"))
                censuses[side].append(probe_run(sides[side], "--census-probe"))
    except RuntimeError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2

    first = runs["change"][workloads[0]][0]
    record = {
        "label": args.label,
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, args.pairs + 1)),
        "machine": first["machine"],
        "sides": {},
    }
    for side in sides:
        out = {"source_sha256": runs[side][workloads[0]][0]["source_sha256"], "workloads": {}}
        for w in workloads:
            rs = runs[side][w]
            out["workloads"][w] = {
                "metrics": {
                    m["name"]: {"unit": m["unit"], **summary([r["metrics"][m["name"]] for r in rs])}
                    for m in spec["end_to_end"]
                },
                "failed": sum(r["failed"] for r in rs),
                "attempted": sum(r["attempted"] for r in rs),
                "runs": [{k: r[k] for k in ("seed", "correct", "failed", "metrics")} for r in rs],
            }
        fx = fixtures[side]
        out["fixture"] = {"peak_rss_mb": summary([f["peak_rss_mb"] for f in fx])}
        for group in FIXTURE_GROUPS:
            out["fixture"][group] = {
                "seconds": summary([f[group]["seconds"] for f in fx]),
                "connected": [f[group]["connected"] for f in fx],
            }
        cs = censuses[side]
        keys = ("ms_per_decide", "minflt_per_decide", "rss_before_decides_mb", "peak_rss_mb")
        out["census"] = {key: summary([c[key] for c in cs]) for key in keys}
        out["census"] |= {"decides": cs[0]["decides"], "yes": [c["yes"] for c in cs]}
        record["sides"][side] = out
    if args.parent:
        wins = {}
        for w in workloads:
            wins[w] = {}
            for m in spec["end_to_end"]:
                sign = 1 if m["better"] == "higher" else -1
                pairs = zip(runs["change"][w], runs["parent"][w])
                wins[w][m["name"]] = sum(sign * (c["metrics"][m["name"]] - p["metrics"][m["name"]]) > 0 for c, p in pairs)
        record["change_wins_of_pairs"] = wins
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
