#!/usr/bin/env python3
"""groupconn benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload decide-cube2 --seed 1 --seconds 10 --trace 0

Run it from the repository root; the package is imported from ``src/``.

Workloads (BENCHMARK.json says why each was chosen):

* ``decide-cube2``: the 78 two-vertex subdivisions of the cube, each
  decided for z4 and z2^2 by ``groupconn test`` (``groupconn.cli.main``).
* ``decide-hard``: Petersen, K6, and the pentagonal prism and Petersen
  with edges 0, 6 and 12 subdivided once, same groups, same CLI.
* ``search-cube3``: ``search.discrepancy_search`` over the cube with three
  vertices added on distinct edges (220 candidates), z4 against z2^2.

Each run is one process and a closed loop with one client: the next call
goes out when the previous one has returned, with no extra threads.  A
run repeats rounds of fixed work until ``--seconds`` have passed, and
always finishes the round in progress, so every run does whole rounds.
A decide round decides every graph for both groups; a
search round examines the first SEARCH_ROUND candidates of a fresh
search.  The seed reorients the decided graphs' edges (see inputs.py), so
every seed does the same work.  It does not reach the search, whose own
shuffle seed stays at 7 so that every round meets the same candidates in
the same order; SearchWorkload says why.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` does the same
work twice, untraced and then traced (see tracer.py), and prints the
per-layer metrics with the tracing overhead.  Outputs are checked against
expected.json after the timed region.  The last line of stdout is the
result; the line before it records the machine, inputs and
workload-specific figures.  Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

WORKLOADS = ("decide-cube2", "decide-hard", "search-cube3")
SEARCH_SEED = 7
SEARCH_ROUND = 50  # candidates per search round: the first 50 of the seed-7 order
SETUP_REPEATS = (5, 4)  # fresh-process set-ups before and after the timed loop


class BenchError(Exception):
    pass


def import_package():
    """Import groupconn from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import groupconn.cli
        import groupconn.search
    except ImportError as exc:
        raise BenchError(f"cannot import groupconn from {src}: {exc}") from exc
    where = Path(groupconn.cli.__file__).resolve().parent  # a namespace package has no __file__
    if where.parent != src.resolve():
        raise BenchError(f"groupconn imported from {where}, not from {src}")
    return groupconn


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Segment:
    """What one timed stretch of a workload did."""

    wall: float
    item_times: list[float]  # per graph (both groups) or per search candidate
    rounds: int  # whole rounds done: enough to replay the stretch
    records: list = field(default_factory=list)  # decide: (name, group, exit code, stdout)
    witnesses: list = field(default_factory=list)  # search: (Witness, seconds from start)
    stderr: str = ""


def _more_rounds(done: int, rounds: int | None, t0: float, seconds: float) -> bool:
    if rounds is not None:
        return done < rounds
    return done == 0 or time.perf_counter() - t0 < seconds


class DecideWorkload:
    """Graphs written as edge-list files, decided through ``groupconn test``.

    A round decides every graph once, for both groups, in the same order
    for every seed.
    """

    def __init__(self, graphs: dict, seed: int, workdir: Path, pkg):
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.cli = pkg.cli
        self.graphs = {}
        self.items = []
        for name, graph in graphs.items():
            g = inputs.reorient(graph, rng)
            path = workdir / f"{name}.txt"
            path.write_text(inputs.edgelist_text(g))
            self.graphs[name] = g
            self.items.append((name, str(path)))
        self.groups = inputs.GROUPS

    def _test(self, path: str, spec: str) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(["test", "--graph", path, "--group", spec])
        except Exception as exc:  # a crash is a failed decide, not the end of the run
            return None, f"{type(exc).__name__}: {exc}"
        return rc, out.getvalue()

    def run(self, seconds: float = 0.0, rounds: int | None = None) -> Segment:
        """Whole rounds until `seconds` have passed, or exactly `rounds` of them."""
        records, times = [], []
        done = 0
        t0 = time.perf_counter()
        while _more_rounds(done, rounds, t0, seconds):
            for name, path in self.items:
                ts = time.perf_counter()
                for spec in self.groups:
                    rc, out = self._test(path, spec)
                    records.append((name, spec, rc, out))
                times.append(time.perf_counter() - ts)
            done += 1
        return Segment(time.perf_counter() - t0, times, done, records=records)

    def input_counts(self, frozen: dict) -> dict:
        return {"graphs": len(self.items), "decides_per_round": len(self.items) * len(self.groups)}

    def check(self, seg: Segment, frozen: dict):
        import checker

        return checker.tally_decides(seg.records, self.graphs, frozen["decide"])

    def detail(self, seg: Segment) -> dict:
        return {
            "graphs_per_s": metric(len(seg.item_times) / seg.wall, "graphs/s"),
            "graph_p50_s": metric(statistics.median(seg.item_times), "s"),
            "graph_p85_s": metric(percentile(seg.item_times, 85), "s"),
            "graph_samples": metric(len(seg.item_times), "count"),
        }


class _RoundEnd(BaseException):
    """Stops the search between candidates; BaseException, so the per-task handler lets it through."""


class SearchWorkload:
    """``discrepancy_search`` over the cube, z4 against z2^2.

    A round is a fresh search stopped after its first SEARCH_ROUND
    candidates: the whole search (220 candidates, about 100 s here) does
    not fit in a run, and a cut at a fixed candidate, unlike a cut at a
    time, gives every run the same mix of cheap rejections and witnesses.

    The seed does not reach this workload.  The search emits a witness
    only when its randomized screens catch the NO side, and which ones they
    catch changes with the labelling: cubes with permuted vertex labels
    gave 6 to 9 witnesses in the first 34 candidates, and candidates/s
    spread by 0.31 (quartile distance over median) across five seeds.
    """

    def __init__(self, pkg, round_size: int = SEARCH_ROUND):
        from groupconn.graphs import Digraph
        from groupconn.groups import Z4, Z2xZ2

        self.search = pkg.search
        self.base = inputs.CUBE
        self.bases = [Digraph(*self.base)]
        self.groups = (Z4, Z2xZ2)
        self.config = dict(added=range(3, 4), distinct_edges_only=True, order="random", seed=SEARCH_SEED)
        self.screen_budget = self.search.SearchConfig(**self.config).screen_budget
        self.round_size = round_size

    def run(self, seconds: float = 0.0, rounds: int | None = None) -> Segment:
        """Whole rounds until `seconds` have passed, or exactly `rounds` of them."""
        task_cls = self.search.SearchTask
        build = task_cls.build
        starts: list[list[float]] = []  # per round, when each candidate started

        def counted_build(task):  # counts, timestamps and cuts rounds; nothing else
            if len(starts[-1]) == self.round_size:
                raise _RoundEnd
            starts[-1].append(time.perf_counter())
            return build(task)

        witnesses, ends = [], []
        err = io.StringIO()
        task_cls.build = counted_build
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                while _more_rounds(len(ends), rounds, t0, seconds):
                    starts.append([])
                    stream = self.search.discrepancy_search(
                        self.bases, *self.groups, self.search.SearchConfig(**self.config)
                    )
                    try:
                        for w in stream:
                            witnesses.append((w, time.perf_counter() - t0))
                    except _RoundEnd:
                        pass
                    finally:
                        stream.close()
                    ends.append(time.perf_counter())
        finally:
            task_cls.build = build
        # a candidate runs until the next one starts, or until its round ends
        times = [b - a for st, end in zip(starts, ends) for a, b in zip(st, st[1:] + [end])]
        return Segment(ends[-1] - t0, times, len(ends), witnesses=witnesses, stderr=err.getvalue())

    def input_counts(self, frozen: dict) -> dict:
        return {
            "candidates_per_search": frozen["search_cube3"]["candidates"],
            "candidates_per_round": self.round_size,
            "search_seed": SEARCH_SEED,
        }

    def check(self, seg: Segment, frozen: dict):
        import checker

        payloads = [json.loads(w.to_json()) for w, _ in seg.witnesses]
        return checker.tally_search(
            len(seg.item_times), payloads, seg.stderr, self.base, checker.expected_witnesses(frozen)
        )

    def detail(self, seg: Segment) -> dict:
        first = seg.witnesses[0][1] if seg.witnesses else float("nan")
        return {
            "candidates_per_s": metric(len(seg.item_times) / seg.wall, "candidates/s"),
            "candidate_p50_s": metric(statistics.median(seg.item_times), "s"),
            "first_witness_s": metric(first, "s"),
            "witnesses": metric(len(seg.witnesses), "count"),
            "candidates": metric(len(seg.item_times), "count"),
        }


def make_workload(name: str, seed: int, workdir: Path, pkg):
    if name == "decide-cube2":
        return DecideWorkload(inputs.cube2_graphs(), seed, workdir, pkg)
    if name == "decide-hard":
        return DecideWorkload(inputs.hard_graphs(), seed, workdir, pkg)
    return SearchWorkload(pkg)


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def setup_samples(args, repeats: int) -> list[float]:
    """Seconds from start to package imported and inputs built and written, in fresh processes.

    The box's speed drifts over seconds, so run() takes these before and
    after the timed loop and reports the median of both sets.
    """
    probe = [sys.executable, __file__, "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(repeats):
        started = time.time()
        proc = subprocess.run(probe, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]) - started)
    return samples


def setup_probe(args) -> int:
    pkg = import_package()
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        make_workload(args.workload, args.seed, workdir, pkg)
        print(repr(time.time()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "groupconn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # benchmark checkouts are plain trees; source_sha256 identifies the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or None, "caches": {}}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    import numpy

    info["python"] = platform.python_version()
    info["numpy"] = numpy.__version__
    return info


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def load_metric_names() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def per_layer_metrics(tracer, traced: Segment, untraced: Segment) -> dict:
    """Every figure the traced run can report; a layer that did not run reads 0."""
    values = {f"{layer}.self_s": t for layer, t in tracer.layer_self_time().items()}
    for _, _, name, _ in tracing.targets(0):
        values[f"{name}.self_s"] = tracer.self_time.get(name, 0.0)
        values[f"{name}.calls"] = tracer.calls[name]
    c = tracer.counts
    values.update({name: c[name] for name in tracing.COUNTERS})
    values["solver.mark_table.useful_ratio"] = (
        c["solver.mark_table.marked"] / c["solver.mark_table.mappings"] if c["solver.mark_table.mappings"] else 0.0
    )
    screens = tracer.calls["solver.screen_no"]
    values["solver.screen_no.hit_ratio"] = c["solver.screen_no.hits"] / screens if screens else 0.0
    values["search.candidates"] = tracer.calls["search.SearchTask.build"]
    values["trace.wall_s"] = traced.wall
    values["trace.overhead_s"] = traced.wall - untraced.wall
    values["trace.overhead_ratio"] = traced.wall / untraced.wall - 1.0
    # the measured difference carries the machine's run-to-run noise; this does not
    values["trace.span_cost_s"] = len(tracer.span_start) * tracing.span_cost()
    values["trace.top_coverage"] = tracer.root_time() / traced.wall
    values["trace.spans"] = len(tracer.span_start)
    return values


def run(args) -> int:
    pkg = import_package()
    import checker  # noqa: F401  (imports groupconn; fail before measuring)

    frozen = json.loads((HERE / "expected.json").read_text())
    e2e_units, layer_units = load_metric_names()

    before, after = SETUP_REPEATS if not args.trace else (0, 0)
    setup = setup_samples(args, before)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        wl = make_workload(args.workload, args.seed, workdir, pkg)
        untraced = wl.run(seconds=args.seconds)
        setup += setup_samples(args, after)
        traced = tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install("groupconn", getattr(wl, "screen_budget", 0))
            try:
                traced = wl.run(rounds=untraced.rounds)
            finally:
                tracer.uninstall()
        segments = [untraced] + ([traced] if traced else [])
        tallies = [wl.check(seg, frozen) for seg in segments]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = failed == 0
    detail = wl.detail(untraced)
    detail["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    detail["fail_frac"] = metric(failed / attempted, "ratio")

    if args.trace:
        values = per_layer_metrics(tracer, traced, untraced)
        if values["trace.top_coverage"] < 0.95:
            correct = False
            print(f"top spans cover only {values['trace.top_coverage']:.3f} of traced wall time", file=sys.stderr)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.tsv", origin=tracer.span_start[0])
        metrics = {name: metric(values[name], unit) for name, unit in layer_units.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "items_per_s": len(untraced.item_times) / untraced.wall,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: metric(values[name], unit) for name, unit in e2e_units.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "machine": machine(),
        "inputs": {**wl.input_counts(frozen), "groups": list(inputs.GROUPS)},
        "detail": detail,
        "failures": [f for t in tallies for f in t.failures][:20],
    }
    print(json.dumps(record))
    for reason in record["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        return setup_probe(args) if args.setup_probe else run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
