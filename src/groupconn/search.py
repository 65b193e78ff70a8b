"""Discrepancy search over subdivisions of base graphs.

The pipeline subdivides edges of small base graphs (typically cubic),
decides connectivity over two groups of equal order, and streams
witnesses: graphs that are connected for exactly one of the two groups.

Every candidate takes one exact path.  Two cheap rejections come first,
each ruling out both groups at once: preprocessing early-NO (the rules
depend only on the group order) and the nowhere-zero-flow prefilter.
Then ``decide``, with its ``auto`` engine, settles both groups.  On a
discrepancy the NO side's certificate is proved by ``verify_certificate``
(flow enumeration, independent of the engine that found it), and the YES
side of a small witness is cross-checked with the ``naive`` engine.
Either check failing is an ``AssertionError`` that stops the search.
Nothing is sampled; the only randomness is the task order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional, TextIO

from .flows import spanning_structure
from .graphs import Digraph, parse_graph6, subdivide
from .groups import Group
from .solver import (
    decide,
    exists_nowhere_zero_flow,
    preprocess,
    solve_naive,
    verify_certificate,
)

# a witness's YES side is cross-checked with `naive` only when that is cheap
NAIVE_CROSSCHECK_RANK = 6  # cycle rank cap
NAIVE_CROSSCHECK_LIMIT = 2**22  # cap on |G|^(n-1)


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


@dataclass
class SearchConfig:
    added: range = range(1, 2)
    order: str = "sequential"  # or "random"
    seed: int = 0
    distinct_edges_only: bool = False
    checkpoint_path: Optional[str] = None
    resume: bool = False
    log: Optional[TextIO] = None
    # not a setting: the search samples nothing; kept because the frozen
    # benchmark harness (perfbench/run.py) still reads it
    screen_budget: ClassVar[int] = 0


def _tasks(bases: list[Digraph], cfg: SearchConfig) -> list[SearchTask]:
    """The search's candidates, in the order it examines them."""
    tasks = [
        SearchTask(bi, base, counts)
        for bi, base in enumerate(bases)
        for added in cfg.added
        for counts in subdivision_multisets(base.m, added)
        if not (cfg.distinct_edges_only and max(counts) > 1)
    ]
    if cfg.order == "random":
        random.Random(cfg.seed).shuffle(tasks)
    elif cfg.order != "sequential":
        raise ValueError(f"unknown order {cfg.order!r}")
    return tasks


def _fingerprint(bases: list[Digraph], group_a: Group, group_b: Group, cfg: SearchConfig) -> str:
    """Hash of everything that fixes the task list and its order."""
    spec = [[[g.n, g.edges] for g in bases], group_a.spec_string(), group_b.spec_string()]
    spec += [list(cfg.added), cfg.order, cfg.seed, cfg.distinct_edges_only]
    return hashlib.sha256(json.dumps(spec).encode()).hexdigest()


def _read_checkpoint(path: str, fingerprint: str) -> int:
    """Tasks already done; 0 when there is no checkpoint yet."""
    if not os.path.exists(path):
        return 0
    try:
        with open(path) as fh:
            state = json.load(fh)
        done, stored = int(state["done"]), state["fingerprint"]
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"unreadable checkpoint {path!r}: {exc}") from exc
    if stored != fingerprint:
        raise ValueError(f"checkpoint {path!r} belongs to a different search configuration")
    return done


def _write_checkpoint(path: str, fingerprint: str, done: int) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"done": done, "fingerprint": fingerprint}, fh)
    os.replace(tmp, path)


def discrepancy_search(
    bases: list[Digraph],
    group_a: Group,
    group_b: Group,
    config: Optional[SearchConfig] = None,
) -> Iterator[Witness]:
    """Stream verified witnesses where group_a and group_b verdicts differ.

    With ``resume``, a checkpoint written for another configuration, or
    one that cannot be read, is a ``ValueError``.
    """
    cfg = config or SearchConfig()
    if group_a.order != group_b.order:
        raise ValueError("the two groups must have equal order")
    tasks = _tasks(bases, cfg)
    fingerprint = _fingerprint(bases, group_a, group_b, cfg) if cfg.checkpoint_path else ""
    start_at = 0
    if cfg.resume and cfg.checkpoint_path:
        start_at = _read_checkpoint(cfg.checkpoint_path, fingerprint)

    for done, task in enumerate(tasks):
        if done < start_at:
            continue
        try:
            w = _examine(task, group_a, group_b)
        except AssertionError:
            raise  # a failed soundness check invalidates the whole run
        except Exception as exc:  # keep the stream alive on other per-task failures
            print(
                f"task {done} failed: base {task.base_index} counts {list(task.counts)} "
                f"groups {group_a.spec_string()},{group_b.spec_string()}: {exc!r}",
                file=sys.stderr,
            )
            w = None
        if w is not None:
            yield w
        if cfg.checkpoint_path:
            _write_checkpoint(cfg.checkpoint_path, fingerprint, done + 1)


def _examine(task: SearchTask, group_a: Group, group_b: Group) -> Optional[Witness]:
    t0 = time.perf_counter()
    g = task.build()

    # the reduction rules depend only on the group order, so an early NO
    # (bridge / long cycle / long thread) rules out both groups at once
    if preprocess(g, group_a).early_no is not None:
        return None
    # no nowhere-zero flow means NO for every group of that order
    if not exists_nowhere_zero_flow(g, group_a):
        return None

    va, vb = decide(g, group_a), decide(g, group_b)
    if va.connected == vb.connected:
        return None
    yes, no = (va, vb) if va.connected else (vb, va)
    if not verify_certificate(g, no.group, no.certificate):
        raise AssertionError("witness certificate failed re-verification")
    cheap = spanning_structure(g).rank <= NAIVE_CROSSCHECK_RANK
    if cheap and yes.group.order ** (g.n - 1) <= NAIVE_CROSSCHECK_LIMIT:
        _crosscheck(g, yes.group)
    return Witness(
        g, yes.group, no.group, tuple(no.certificate), task.base_index, task.counts, time.perf_counter() - t0
    )


def _crosscheck(g: Digraph, yes: Group) -> None:
    """Confirm a YES verdict with the naive engine (a NO is proved by its certificate)."""
    inst = preprocess(g, yes)
    if inst.early_no is not None or not all(solve_naive(c.graph, yes).connected for c in inst.components):
        raise AssertionError(f"naive cross-check disagrees for {yes.spec_string()}")


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
