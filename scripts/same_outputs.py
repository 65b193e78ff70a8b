#!/usr/bin/env python3
"""Check that this checkout gives the same outputs as a parent checkout.

    python3 scripts/same_outputs.py --parent ../parent-checkout

Each checkout runs, in a fresh process with its own ``src/`` on the path,
a fixed seeded corpus: 1,500 random multigraphs (at most 9 vertices and
14 edges, loops and parallel edges included) and every subdivision of
the 3-cube with 1 to 3 added vertices.  For each graph it records
``structure_report``, ``thread_profile`` of the loop-free part,
``preprocess`` (``early_no``, ``steps`` and the components as a
multiset) and the ``decide`` verdict and certificate over z3, z4 and
z2^2: with ``auto``, ``naive`` and ``ultra`` (``use_preprocessing=False``)
on every graph, and with ``fast`` in both ``thread_opt`` modes on a
340-graph slice.  Over the same groups it records the first avoiding
flow ``avoiding_flow`` finds for the zero mapping (the flow ``nzflow``
prints) and for one random mapping seeded by the graph's name: it pins
the order of the flow rows, which no verdict shows.  An exception is
recorded as an output by its type.
On the cube subdivisions with 1 and 2 added vertices it also runs
``cli.main(["test", ...])`` in-process over z3, z4 and z2^2, with the
default ``auto`` and with ``--algo naive``, one parser reused across all
calls, and records the exit code and the verdict's ``connected``,
``algorithm``, ``certificate`` and ``preprocessing`` fields (not its
timings); it records their ``decide`` (auto) verdict and certificate
over the order-8 groups z8, c:2,4 and z2^3, whose automorphism groups
(4, 8 and 168 elements) are the largest the sumset engine prunes by; and
it records their ``decide`` (auto) verdict, certificate and every count in
``stats`` over z2, z9 and z3^2, whose bit arrays hold 6 and 1 places to a
word where the other groups hold 3 or 2.  Over z2 every subdivided graph
is a NO in ``preprocess`` (a thread of two edges), so ``solve_sumset``
and ``solve_naive`` also run on them directly over z2, with the same
record.
Last, it records the ``decide`` (auto) verdict and certificate over z4
and z2^2 of a census slice: the first 200 tasks of the seed-7,
distinct-edge, added = 3 search of ``data/cubic12_all.g6``, whose
boundary arrays (4^11 cells) and head patterns the cube corpus lacks.
Then it decides the cube subdivisions with 3 added vertices and the
census slice again, each graph over z2^2 first and then z4, and records
the verdict, the certificate and every count in ``stats`` (not its
timings): the decides of one graph share structure memoized per graph
and group order, so a value of one group leaking into the other's
decide shows against the parent in one order or the other.
The two runs are compared item by item and the first item that differs
is printed.

Exit status: 0 when every output matches, 1 on a difference, 2 when a
checkout fails to produce its outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

GROUPS = ("z3", "z4", "z2^2")
ORDER8 = ("z8", "c:2,4", "z2^3")  # decided with auto on the CLI_ADDED cube subdivisions
WIDE = ("z2", "z9", "z3^2")  # likewise, with stats: 6 places to a word for z2, 1 for order 9
RANDOM_GRAPHS = 1500
FAST_RANDOM = 300  # the fast slice: this many random graphs, then the cube subdivisions
FAST_CUBE = 40
CLI_ADDED = (1, 2)  # cube subdivisions run through `groupconn test`
CLI_ALGOS = ((), ("--algo", "naive"))
CLI_FIELDS = ("connected", "algorithm", "certificate", "preprocessing")
CENSUS_BASES = Path("data") / "cubic12_all.g6"
CENSUS_TASKS = 200
CENSUS_GROUPS = ("z4", "z2^2")
REVERSED_GROUPS = ("z2^2", "z4")  # the second pass's order


def random_corpus() -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    rng = random.Random(20171110)
    out = []
    for _ in range(RANDOM_GRAPHS):
        n, m = rng.randint(1, 9), rng.randint(0, 14)
        out.append((n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))))
    return out


def outputs(root: Path):
    """Yield (item name, JSON-ready output) for the corpus, run on checkout `root`."""
    sys.path.insert(0, str(root / "src"))
    from groupconn import cli
    from groupconn.graphs import CUBE, Digraph, structure_report, subdivide, thread_profile
    from groupconn.groups import parse_group
    from groupconn.search import SearchConfig, _tasks, load_bases, subdivision_multisets
    from groupconn.solver import avoiding_flow, decide, preprocess, solve_naive, solve_sumset

    corpus = [(f"random {i}", Digraph(n, edges)) for i, (n, edges) in enumerate(random_corpus())]
    for added in (1, 2, 3):
        for counts in subdivision_multisets(CUBE.m, added):
            g = CUBE
            for e, c in enumerate(counts):
                if c:
                    g = subdivide(g, e, c)
            corpus.append((f"cube+{added} {list(counts)}", g))
    fast_slice = {name for name, _ in corpus[:FAST_RANDOM] + corpus[RANDOM_GRAPHS : RANDOM_GRAPHS + FAST_CUBE]}
    groups = [parse_group(spec) for spec in GROUPS]

    def guarded(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # an exception is an output to compare, not a failure of the check
            return {"raises": type(exc).__name__}

    def report(g):
        bridges, components, loops = structure_report(g)
        return [sorted(bridges), components, sorted(loops)]

    def threads(g):
        p = thread_profile(Digraph(g.n, tuple(e for e in g.edges if e[0] != e[1])))
        return [
            [[t.edge_ids, t.signs, t.tail_anchor, t.head_anchor] for t in p.threads],
            [[c.edge_ids, c.signs] for c in p.cycle_components],
        ]

    def reduced(g, group):
        inst = preprocess(g, group)
        comps = sorted(json.dumps([c.graph.n, c.graph.edges, c.orig_edges]) for c in inst.components)
        return [inst.early_no, inst.steps, comps]

    def verdict(g, group, algorithm, thread_opt=True, use_preprocessing=True):
        v = decide(g, group, algorithm, use_preprocessing, thread_opt)
        return [v.connected, None if v.certificate is None else list(v.certificate)]

    def counted_verdict(g, group, solve=decide):
        v = solve(g, group)
        counts = {key: val for key, val in v.stats.items() if not key.startswith("elapsed")}
        return [v.connected, None if v.certificate is None else list(v.certificate), counts]

    def cli_test(path, spec, algo):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["test", "--graph", path, "--group", spec, *algo])
        if not out.getvalue():
            return [code]
        payload = json.loads(out.getvalue())
        return [code] + [payload[key] for key in CLI_FIELDS]

    cli_corpus = tuple(f"cube+{added} " for added in CLI_ADDED)
    with tempfile.TemporaryDirectory() as tmp:
        for name, g in corpus:
            if name.startswith(cli_corpus):
                path = str(Path(tmp) / "g.txt")
                Path(path).write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
                for spec in GROUPS:
                    for algo in CLI_ALGOS:
                        yield f"{name} cli test {spec} {' '.join(algo) or 'auto'}", cli_test(path, spec, algo)

    for name, g in corpus:
        if name.startswith(cli_corpus):
            for spec in ORDER8:
                yield f"{name} decide {spec} auto", guarded(verdict, g, parse_group(spec), "auto")
            for spec in WIDE:
                yield f"{name} decide {spec} auto, counted", guarded(counted_verdict, g, parse_group(spec))
            for solve in (solve_sumset, solve_naive):
                yield f"{name} {solve.__name__} z2", guarded(counted_verdict, g, parse_group("z2"), solve)
        yield f"{name} structure_report", guarded(report, g)
        yield f"{name} thread_profile", guarded(threads, g)
        rng = random.Random(name)
        for spec, group in zip(GROUPS, groups):
            h = tuple(rng.randrange(group.order) for _ in range(g.m))
            yield f"{name} avoiding_flow {spec} zero", guarded(avoiding_flow, g, group, (0,) * g.m)
            yield f"{name} avoiding_flow {spec} random", guarded(avoiding_flow, g, group, h)
            yield f"{name} preprocess {spec}", guarded(reduced, g, group)
            yield f"{name} decide {spec} auto", guarded(verdict, g, group, "auto")
            yield f"{name} decide {spec} naive", guarded(verdict, g, group, "naive")
            yield f"{name} decide {spec} ultra", guarded(verdict, g, group, "ultra", True, False)
            if name in fast_slice:
                for opt in (True, False):
                    yield f"{name} decide {spec} fast thread_opt={opt}", guarded(verdict, g, group, "fast", opt)

    census = SearchConfig(added=range(3, 4), order="random", seed=7, distinct_edges_only=True)
    census_graphs = [
        (f"cubic12 base {task.base_index} {list(task.counts)}", task.build())
        for task in _tasks(load_bases(str(root / CENSUS_BASES)), census)[:CENSUS_TASKS]
    ]
    for name, g in census_graphs:
        for spec in CENSUS_GROUPS:
            yield f"{name} decide {spec} auto", guarded(verdict, g, parse_group(spec), "auto")

    for name, g in [(name, g) for name, g in corpus if name.startswith("cube+3 ")] + census_graphs:
        for spec in REVERSED_GROUPS:
            yield f"{name} decide {spec} auto, z2^2 first", guarded(counted_verdict, g, parse_group(spec))


def dump(root: Path) -> None:
    for name, out in outputs(root):
        print(json.dumps([name, out]))


def collect(root: Path) -> list[tuple[str, str]]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump", str(root)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return [(item[0], json.dumps(item[1])) for item in map(json.loads, proc.stdout.splitlines())]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    try:
        here = collect(Path(__file__).resolve().parent.parent)
        there = collect(args.parent.resolve())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for (name, out), (pname, pout) in zip(here, there):
        if name != pname or out != pout:
            print(f"differs at {name!r}:\n  this checkout: {out}\n  parent ({pname!r}): {pout}")
            return 1
    if len(here) != len(there):
        print(f"differs in length: {len(here)} outputs here, {len(there)} in the parent")
        return 1
    print(f"same outputs: {len(here)} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
