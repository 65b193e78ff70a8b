"""Discrepancy search over subdivisions of base graphs.

The pipeline subdivides edges of small base graphs (typically cubic),
decides connectivity over two groups of equal order, and streams
witnesses: graphs that are connected for exactly one of the two groups.

Candidate filtering is layered cheapest-first: preprocessing early-NO
(shared by both groups, since the rules depend only on the group order),
the nowhere-zero-flow prefilter, then a budgeted randomized NO-screen per
group.  A full solve, ``decide`` with its ``auto`` engine, runs only
when the screens disagree (or, in exact mode, whenever they are
inconclusive).
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Iterator, Optional, TextIO

from .flows import spanning_structure
from .graphs import Digraph, parse_graph6, subdivide
from .groups import Group
from .solver import (
    decide,
    exists_nowhere_zero_flow,
    preprocess,
    screen_no,
    solve_naive,
    verify_certificate,
)


@dataclass(frozen=True)
class SearchTask:
    base_index: int
    base: Digraph
    counts: tuple[int, ...]  # per-edge subdivision counts

    def build(self) -> Digraph:
        g = self.base
        for e, c in enumerate(self.counts):
            if c:
                g = subdivide(g, e, c)
        return g


@dataclass
class Witness:
    graph: Digraph
    yes_group: Group
    no_group: Group
    certificate: tuple[int, ...]
    base_index: int
    counts: tuple[int, ...]
    elapsed: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "graph": {
                    "n": self.graph.n,
                    "edges": [list(e) for e in self.graph.edges],
                },
                "yes_group": self.yes_group.spec_string(),
                "no_group": self.no_group.spec_string(),
                "certificate": [
                    {
                        "tail": self.graph.edges[e][0],
                        "head": self.graph.edges[e][1],
                        "forbidden": self.no_group.format_element(v),
                    }
                    for e, v in enumerate(self.certificate)
                ],
                "base_index": self.base_index,
                "subdivision_counts": list(self.counts),
                "elapsed": round(self.elapsed, 3),
            }
        )


def subdivision_multisets(m: int, added: int) -> Iterator[tuple[int, ...]]:
    """All per-edge count vectors with the given total, in lexicographic order."""
    for combo in itertools.combinations_with_replacement(range(m), added):
        counts = [0] * m
        for e in combo:
            counts[e] += 1
        yield tuple(counts)


def enumerate_subdivisions(base: Digraph, added: int) -> Iterator[Digraph]:
    """All distinct subdivision multisets of `base` with `added` new vertices."""
    if added < 1:
        raise ValueError("added must be >= 1")
    for counts in subdivision_multisets(base.m, added):
        yield SearchTask(0, base, counts).build()


def _tasks(
    bases: list[Digraph], added_range: range, distinct_edges_only: bool
) -> Iterator[SearchTask]:
    for bi, base in enumerate(bases):
        for added in added_range:
            for counts in subdivision_multisets(base.m, added):
                if distinct_edges_only and any(c > 1 for c in counts):
                    continue
                yield SearchTask(bi, base, counts)


@dataclass
class SearchConfig:
    added: range = range(1, 2)
    order: str = "sequential"  # or "random"
    seed: int = 0
    screen_budget: int = 16384
    exact: bool = False  # full solves even when both screens are inconclusive
    distinct_edges_only: bool = False
    naive_crosscheck_rank: int = 6
    checkpoint_path: Optional[str] = None
    resume: bool = False
    log: Optional[TextIO] = None


def _read_checkpoint(path: str) -> int:
    try:
        with open(path) as fh:
            return int(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0


def _write_checkpoint(path: str, done: int) -> None:
    with open(path, "w") as fh:
        fh.write(f"{done}\n")


def discrepancy_search(
    bases: list[Digraph],
    group_a: Group,
    group_b: Group,
    config: Optional[SearchConfig] = None,
) -> Iterator[Witness]:
    """Stream verified witnesses where group_a and group_b verdicts differ."""
    cfg = config or SearchConfig()
    if group_a.order != group_b.order:
        raise ValueError("the two groups must have equal order")
    tasks = list(_tasks(bases, cfg.added, cfg.distinct_edges_only))
    if cfg.order == "random":
        random.Random(cfg.seed).shuffle(tasks)
    elif cfg.order != "sequential":
        raise ValueError(f"unknown order {cfg.order!r}")

    start_at = 0
    if cfg.resume and cfg.checkpoint_path:
        start_at = _read_checkpoint(cfg.checkpoint_path)

    for done, task in enumerate(tasks):
        if done < start_at:
            continue
        try:
            w = _examine(task, group_a, group_b, cfg)
        except AssertionError:
            raise  # a failed soundness check invalidates the whole run
        except Exception as exc:  # keep the stream alive on other per-task failures
            print(f"task {done} failed: {exc!r}", file=sys.stderr)
            w = None
        if w is not None:
            yield w
        if cfg.checkpoint_path:
            _write_checkpoint(cfg.checkpoint_path, done + 1)


def _examine(
    task: SearchTask, group_a: Group, group_b: Group, cfg: SearchConfig
) -> Optional[Witness]:
    t0 = time.perf_counter()
    g = task.build()

    # the reduction rules depend only on the group order, so an early NO
    # (bridge / long cycle / long thread) rules out both groups at once
    inst = preprocess(g, group_a)
    if inst.early_no is not None:
        return None
    # no nowhere-zero flow means NO for every group of that order
    if not exists_nowhere_zero_flow(g, group_a):
        return None

    seed = hash((task.base_index, task.counts)) & 0x7FFFFFFF
    no_a = screen_no(g, group_a, budget=cfg.screen_budget, seed=seed, reduced=inst)
    inst_b = preprocess(g, group_b)
    no_b = screen_no(g, group_b, budget=cfg.screen_budget, seed=seed, reduced=inst_b)

    if no_a is not None and no_b is not None:
        return None
    if no_a is None and no_b is None:
        if not cfg.exact:
            return None
        va = decide(g, group_a)
        vb = decide(g, group_b)
        if va.connected == vb.connected:
            return None
        yes, no = (group_a, group_b) if va.connected else (group_b, group_a)
        cert = (vb if va.connected else va).certificate
    else:
        no_side, no = (no_a, group_a) if no_a is not None else (no_b, group_b)
        yes = group_b if no is group_a else group_a
        # a bigger-budget screen on the other side is far cheaper than the
        # full solve and prunes most both-NO candidates
        retry = screen_no(g, yes, budget=4 * cfg.screen_budget, seed=seed + 1)
        if retry is not None:
            return None
        v_yes = decide(g, yes)
        if not v_yes.connected:
            return None
        cert = no_side.certificate

    if _rank(g) <= cfg.naive_crosscheck_rank and yes.order ** (g.n - 1) <= 2**22:
        _crosscheck(g, yes, no)
    if not verify_certificate(g, no, cert):
        raise AssertionError("witness certificate failed re-verification")
    return Witness(g, yes, no, tuple(cert), task.base_index, task.counts, time.perf_counter() - t0)


def _rank(g: Digraph) -> int:
    return spanning_structure(g).rank


def _crosscheck(g: Digraph, yes: Group, no: Group) -> None:
    inst_yes, inst_no = preprocess(g, yes), preprocess(g, no)
    for inst, grp, want in ((inst_yes, yes, True), (inst_no, no, False)):
        if inst.early_no is not None:
            ok = not want
        else:
            ok = all(solve_naive(c.graph, grp).connected for c in inst.components) == want
        if not ok:
            raise AssertionError(f"naive cross-check disagrees for {grp.spec_string()}")


def load_bases(path: str) -> list[Digraph]:
    """Read one graph6 base graph per non-empty line."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(parse_graph6(line))
    return out


def run_search(
    bases: list[Digraph],
    group_a: Group,
    group_b: Group,
    config: SearchConfig,
    out: TextIO,
    max_witnesses: Optional[int] = None,
) -> int:
    """Drive the search, writing NDJSON witness lines; returns the count."""
    found = 0
    for w in discrepancy_search(bases, group_a, group_b, config):
        out.write(w.to_json() + "\n")
        out.flush()
        found += 1
        if max_witnesses is not None and found >= max_witnesses:
            break
    return found
