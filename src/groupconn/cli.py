"""Command-line interface.

Subcommands: ``test`` (decide connectivity), ``nzflow`` (nowhere-zero
flow existence), ``certify`` (check a NO-certificate), ``flows``
(inspect the flow space), ``search`` (discrepancy search over
subdivisions).  stdout carries machine-parseable JSON only; summaries go
to stderr.  ``test`` prints its verdict as one compact JSON line
(``Verdict.to_json``), without echoing the input graph.  Exit codes: 0 =
positive answer / clean completion, 1 = negative answer, 2 = any error
(usage, input, or an internal failure).  ``test --algo auto`` leaves the
engine choice to ``solver.decide``.

The argument parser is built on the first ``main`` call and reused by
every later call in the process; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .flows import all_flows, spanning_structure
from .graphs import Digraph, GraphParseError, parse_graph
from .groups import Group, parse_group
from .search import SearchConfig, load_bases, run_search
from .solver import ALGORITHMS, avoiding_flow, decide

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


class CliError(Exception):
    pass


def _load_graph(path: str, fmt: str) -> Digraph:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read graph file: {exc}") from exc
    if fmt == "auto":
        fmt = "edgelist" if path.endswith((".txt", ".edges", ".edgelist")) else "graph6"
    try:
        return parse_graph(text, fmt)
    except (GraphParseError, ValueError) as exc:
        raise CliError(f"cannot parse graph: {exc}") from exc


def _load_group(spec: str) -> Group:
    try:
        return parse_group(spec)
    except ValueError as exc:
        raise CliError(f"bad group spec: {exc}") from exc


def _parse_added(spec: str) -> range:
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return range(int(lo), int(hi) + 1)
        v = int(spec)
        return range(v, v + 1)
    except ValueError as exc:
        raise CliError(f"bad --added range {spec!r}") from exc


def cmd_test(args) -> int:
    g = _load_graph(args.graph, args.format)
    group = _load_group(args.group)
    verdict = decide(g, group, args.algo, use_preprocessing=not args.no_preprocess)
    print(verdict.to_json())
    word = "is" if verdict.connected else "is NOT"
    print(f"{args.graph}: {word} {group.spec_string()}-connected ({verdict.algorithm})", file=sys.stderr)
    return EXIT_YES if verdict.connected else EXIT_NO


def cmd_nzflow(args) -> int:
    g = _load_graph(args.graph, args.format)
    group = _load_group(args.group)
    flow = avoiding_flow(g, group, (0,) * g.m)
    witness = None if flow is None else [group.format_element(v) for v in flow]
    print(json.dumps({"group": group.spec_string(), "exists": flow is not None, "flow": witness}))
    return EXIT_NO if flow is None else EXIT_YES


def _read_certificate(path: str, g: Digraph, group: Group) -> list[int]:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read certificate: {exc}") from exc
    entries = payload.get("certificate") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or len(entries) != g.m:
        raise CliError(f"certificate must list {g.m} edges")
    cert = [0] * g.m
    used = [False] * g.m
    try:
        for entry in entries:
            tail, head = int(entry["tail"]), int(entry["head"])
            value = group.parse_element(str(entry["forbidden"]))
            for e, (u, v) in enumerate(g.edges):
                if not used[e] and (u, v) == (tail, head):
                    cert[e] = value
                    used[e] = True
                    break
            else:
                raise CliError(f"certificate edge ({tail},{head}) not in graph")
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed certificate entry: {exc}") from exc
    return cert


def cmd_certify(args) -> int:
    g = _load_graph(args.graph, args.format)
    group = _load_group(args.group)
    cert = _read_certificate(args.certificate, g, group)
    flow = avoiding_flow(g, group, cert)
    result = {"group": group.spec_string(), "unsatisfiable": flow is None}
    if flow is not None:
        result["satisfying_flow"] = [group.format_element(v) for v in flow]
    print(json.dumps(result))
    return EXIT_YES if flow is None else EXIT_NO


def cmd_flows(args) -> int:
    g = _load_graph(args.graph, args.format)
    group = _load_group(args.group)
    s = spanning_structure(g)
    payload = {"group": group.spec_string(), "rank": s.rank, "count": group.order**s.rank}
    if payload["count"] <= 2**12:  # 2^12: the most flows 12 edges carry over z2
        payload["flows"] = [
            [group.format_element(v) for v in f] for f in all_flows(g, group)
        ]
    print(json.dumps(payload))
    return EXIT_YES


def cmd_search(args) -> int:
    specs = args.groups.split(",")
    if len(specs) != 2:
        raise CliError(f"--groups takes exactly two comma-separated group specs, got {len(specs)}")
    group_a, group_b = (_load_group(spec) for spec in specs)
    try:
        bases = load_bases(args.bases)
    except (OSError, GraphParseError) as exc:
        raise CliError(f"cannot read base corpus: {exc}") from exc
    cfg = SearchConfig(
        added=_parse_added(args.added),
        order=args.order,
        seed=args.seed,
        distinct_edges_only=args.distinct_edges,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        max_witnesses=args.max_witnesses,
    )
    try:
        out = open(args.output, "a") if args.output else sys.stdout
    except OSError as exc:
        raise CliError(f"cannot write output file: {exc}") from exc
    try:
        found = run_search(bases, group_a, group_b, cfg, out)
    except OSError as exc:  # run_search reads nothing but the checkpoint, which raises ValueError
        raise CliError(f"cannot write search output or checkpoint: {exc}") from exc
    finally:
        if args.output:
            out.close()
    print(f"search complete: {found} witness(es)", file=sys.stderr)
    return EXIT_YES


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``groupconn`` parser, built once per process."""
    p = argparse.ArgumentParser(prog="groupconn", description="group connectivity testing")
    sub = p.add_subparsers(dest="command", required=True)

    def add_graph_args(sp):
        sp.add_argument("--graph", required=True, help="path to the input graph")
        sp.add_argument("--format", choices=["auto", "graph6", "edgelist"], default="auto")
        sp.add_argument("--group", required=True, help="group spec, e.g. z4 or z2^2")

    sp = sub.add_parser("test", help="decide group connectivity")
    add_graph_args(sp)
    sp.add_argument("--algo", choices=ALGORITHMS, default="auto")
    sp.add_argument("--no-preprocess", action="store_true", help="ultra-naive only")
    sp.set_defaults(func=cmd_test)

    sp = sub.add_parser("nzflow", help="nowhere-zero flow existence")
    add_graph_args(sp)
    sp.set_defaults(func=cmd_nzflow)

    sp = sub.add_parser("certify", help="verify a NO-certificate")
    add_graph_args(sp)
    sp.add_argument("--certificate", required=True, help="JSON certificate file")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("flows", help="inspect the flow space")
    add_graph_args(sp)
    sp.set_defaults(func=cmd_flows)

    sp = sub.add_parser("search", help="discrepancy search over subdivisions")
    sp.add_argument("--bases", required=True, help="file of graph6 lines")
    sp.add_argument("--added", required=True, help="added vertex count or range lo..hi")
    sp.add_argument("--groups", required=True, help="two comma-separated group specs")
    sp.add_argument("--order", choices=["sequential", "random"], default="sequential")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--distinct-edges", action="store_true", help="subdivide distinct edges only")
    sp.add_argument("--output", help="append witness NDJSON here instead of stdout")
    sp.add_argument("--checkpoint", help="checkpoint file for resumable searches")
    sp.add_argument("--resume", action="store_true")
    sp.add_argument("--max-witnesses", type=int, default=None)
    sp.set_defaults(func=cmd_search)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:  # exit code 1 means NO, so no error may leave with it
        import traceback  # only a failing run pays for the import

        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
