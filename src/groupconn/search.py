"""Discrepancy search over subdivisions of base graphs.

The pipeline subdivides edges of small base graphs (typically cubic),
decides connectivity over two groups of equal order, and streams
witnesses: graphs that are connected for exactly one of the two groups.

Every candidate takes one exact path: ``decide``, with its ``auto``
engine, settles both groups (its preprocessing already answers NO for a
bridge, a long thread or a long cycle, and sumset answers NO when there
is no nowhere-zero flow).  On a discrepancy the NO side's certificate is
proved by ``verify_certificate`` (flow enumeration, independent of the
engine that found it), and the YES side is cross-checked by deciding it
again with the ``naive`` engine whenever its |G|^(n-1) tree mappings fit
``solver.NAIVE_KEY_LIMIT``; a witness past that limit carries
``yes_crosschecked`` false.  Either check failing is an
``AssertionError`` that stops the search.  Nothing is sampled; the only
randomness is the task order.  A candidate's decides, certificate checks
and ``naive`` cross-check read one plan per graph and group order (thread
walk, reduction, sumset layout, spanning structure) and one table set per group.
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

from . import solver
from .graphs import Digraph, parse_graph6, subdivide
from .groups import Group
from .solver import certificate_entries, decide, verify_certificate


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
    yes_crosschecked: bool  # the naive engine confirmed the YES side

    def to_json(self) -> str:
        return json.dumps(
            {
                "graph": {
                    "n": self.graph.n,
                    "edges": [list(e) for e in self.graph.edges],
                },
                "yes_group": self.yes_group.spec_string(),
                "no_group": self.no_group.spec_string(),
                "certificate": certificate_entries(self.graph, self.no_group, self.certificate),
                "base_index": self.base_index,
                "subdivision_counts": list(self.counts),
                "elapsed": round(self.elapsed, 3),
                "yes_crosschecked": self.yes_crosschecked,
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
    max_witnesses: Optional[int] = None  # stop after this many; not part of the fingerprint
    # not a setting: the search samples nothing; kept because the frozen
    # benchmark harness (perfbench/run.py) still reads it
    screen_budget: ClassVar[int] = 0


def _distinct_edge_counts(m: int, added: int) -> Iterator[tuple[int, ...]]:
    """subdivision_multisets's vectors with no count above 1, in its order, without building the others."""
    for combo in itertools.combinations(range(m), added):
        yield tuple([int(e in combo) for e in range(m)])  # from a list: a tuple from a generator keeps spare slots


def _tasks(bases: list[Digraph], cfg: SearchConfig) -> list[SearchTask]:
    """The search's candidates, in the order it examines them."""
    counts_of = _distinct_edge_counts if cfg.distinct_edges_only else subdivision_multisets
    tasks = [
        SearchTask(bi, base, counts)
        for bi, base in enumerate(bases)
        for added in cfg.added
        for counts in counts_of(base.m, added)
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

    The checkpoint records a task only after the consumer asks for the
    next witness, so a witness whose consumer dies holding it is emitted
    again on resume.  With ``max_witnesses`` the stream ends after the
    checkpoint of the last witness's task is written, so a resumed run
    starts past it.  With ``resume``, a missing ``checkpoint_path``, or a
    checkpoint written for another configuration or that cannot be read,
    is a ``ValueError``; so is an empty ``added`` range, a count below 1 or
    a negative ``max_witnesses``.
    """
    cfg = config or SearchConfig()
    if group_a.order != group_b.order:
        raise ValueError("the two groups must have equal order")
    if not cfg.added or min(cfg.added) < 1:
        raise ValueError(f"added must be a non-empty range of counts >= 1, got {cfg.added}")
    if cfg.max_witnesses is not None and cfg.max_witnesses < 0:
        raise ValueError(f"max_witnesses must be >= 0, got {cfg.max_witnesses}")
    if cfg.resume and not cfg.checkpoint_path:
        raise ValueError("resume needs a checkpoint path")
    tasks = _tasks(bases, cfg)
    fingerprint = _fingerprint(bases, group_a, group_b, cfg) if cfg.checkpoint_path else ""
    start_at = 0
    if cfg.resume:
        start_at = _read_checkpoint(cfg.checkpoint_path, fingerprint)

    found = 0
    for done, task in enumerate(tasks):
        if done < start_at:
            continue
        if cfg.max_witnesses is not None and found >= cfg.max_witnesses:
            return
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
            found += 1
        if cfg.checkpoint_path:
            _write_checkpoint(cfg.checkpoint_path, fingerprint, done + 1)


def _examine(task: SearchTask, group_a: Group, group_b: Group) -> Optional[Witness]:
    t0 = time.perf_counter()
    g = task.build()
    va, vb = decide(g, group_a), decide(g, group_b)
    if va.connected == vb.connected:
        return None
    yes, no = (va, vb) if va.connected else (vb, va)
    if not verify_certificate(g, no.group, no.certificate):
        raise AssertionError("witness certificate failed re-verification")
    crosschecked = yes.group.order ** (g.n - 1) <= solver.NAIVE_KEY_LIMIT
    # the naive engine confirms the YES side (the NO side is proved by its certificate)
    if crosschecked and not decide(g, yes.group, "naive").connected:
        raise AssertionError(f"naive cross-check disagrees for {yes.group.spec_string()}")
    elapsed = time.perf_counter() - t0
    return Witness(g, yes.group, no.group, tuple(no.certificate), task.base_index, task.counts, elapsed, crosschecked)


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
) -> int:
    """Drive the search, writing NDJSON witness lines; returns the count."""
    found = 0
    for w in discrepancy_search(bases, group_a, group_b, config):
        out.write(w.to_json() + "\n")
        out.flush()
        found += 1
    return found
