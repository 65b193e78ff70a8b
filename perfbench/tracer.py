"""Span recorder that wraps the package's public callables from outside.

Every wrapped call records a span (name, start, end, parent span) in
memory.  Self time, the span's duration minus the time covered by its
child spans, is summed per span name as calls return; ``write`` dumps
the spans when the benchmark ends.  Hooks add counts at the same
boundaries (mappings enumerated, elements packed, screen hits), with the
caller's span name so that search-driven calls can be told apart.

Functions are replaced in their defining module and wherever a
``from ... import`` bound the same object in another package module
(``groupconn.cli.decide``, ``groupconn.search.screen_no``, ...); methods
are replaced on their class.  ``uninstall`` puts everything back.
Targets missing from the package are skipped, so a refactor reads as a
zero count instead of a crash.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

MODULES = ("cli", "graphs", "flows", "classes", "_pack", "solver", "search")
LAYERS = tuple(m.lstrip("_") for m in MODULES)  # metric names must start with a letter
COUNTERS = (
    "solver.mark_table.mappings",
    "solver.mark_table.marked",
    "pack.Packer.add.elems",
    "pack.Packer.all_nonzero.elems",
    "pack.Packer.key.elems",
    "pack.bytes_computed",
    "solver.screen_no.hits",
    "search.early_no",
    "search.prefilter_rejects",
    "search.full_decides",
    "search.retry_screens",
)


def _elems(words) -> int:
    return int(np.size(words[0]))


def _pack_hook(kind):
    def hook(counts, parent, args, kwargs, result):
        packer, words = args[0], args[1]
        n = _elems(words)
        counts[f"pack.Packer.{kind}.elems"] += n
        # computed, not measured: two operand words and one result word per factor
        counts["pack.bytes_computed"] += n * 8 * len(packer.group.factors) * 3

    return hook


def _mark_table_hook(counts, parent, args, kwargs, result):
    counts["solver.mark_table.mappings"] += int(getattr(args[0], "total", 0))
    counts["solver.mark_table.marked"] += int(np.count_nonzero(result))


def _from_search(parent: str) -> bool:
    return parent.startswith("search.")


def _preprocess_hook(counts, parent, args, kwargs, result):
    if _from_search(parent) and result.early_no is not None:
        counts["search.early_no"] += 1


def _nowhere_zero_hook(counts, parent, args, kwargs, result):
    if _from_search(parent) and not result:
        counts["search.prefilter_rejects"] += 1


def _decide_hook(counts, parent, args, kwargs, result):
    if _from_search(parent):
        counts["search.full_decides"] += 1


def _screen_hook(base_budget):
    def hook(counts, parent, args, kwargs, result):
        counts["solver.screen_no.hits"] += result is not None
        if _from_search(parent) and kwargs.get("budget", 0) > base_budget:
            counts["search.retry_screens"] += 1

    return hook


def targets(screen_budget: int):
    """(module, attribute path, span name, hook) for every traced callable."""
    return [
        ("cli", "main", "cli.main", None),
        ("graphs", "parse_graph", "graphs.parse_graph", None),
        ("graphs", "structure_report", "graphs.structure_report", None),
        ("graphs", "thread_profile", "graphs.thread_profile", None),
        ("graphs", "subdivide", "graphs.subdivide", None),
        ("flows", "spanning_structure", "flows.spanning_structure", None),
        ("flows", "find_satisfying_flow", "flows.find_satisfying_flow", None),
        ("classes", "ClassFunction.__init__", "classes.ClassFunction", None),
        ("classes", "ClassFunction.tree_normalize", "classes.ClassFunction.tree_normalize", None),
        ("classes", "ClassFunction.representative", "classes.ClassFunction.representative", None),
        ("classes", "ClassFunction.swap_thread", "classes.ClassFunction.swap_thread", None),
        ("_pack", "pack_supported", "pack.pack_supported", None),
        ("_pack", "Packer.__init__", "pack.Packer", None),
        ("_pack", "Packer.pack", "pack.Packer.pack", None),
        ("_pack", "Packer.unpack", "pack.Packer.unpack", None),
        ("_pack", "Packer.add", "pack.Packer.add", _pack_hook("add")),
        ("_pack", "Packer.neg", "pack.Packer.neg", None),
        ("_pack", "Packer.sub", "pack.Packer.sub", None),
        ("_pack", "Packer.all_nonzero", "pack.Packer.all_nonzero", _pack_hook("all_nonzero")),
        ("_pack", "Packer.key", "pack.Packer.key", _pack_hook("key")),
        ("solver", "preprocess", "solver.preprocess", _preprocess_hook),
        ("solver", "decide", "solver.decide", _decide_hook),
        ("solver", "solve_ultra_naive", "solver.solve_ultra_naive", None),
        ("solver", "solve_naive", "solver.solve_naive", None),
        ("solver", "solve_fast", "solver.solve_fast", None),
        ("solver", "FastInstance.__init__", "solver.FastInstance", None),
        ("solver", "FastInstance.mark_table", "solver.mark_table", _mark_table_hook),
        ("solver", "FastInstance.sweep", "solver.sweep", None),
        ("solver", "verify_certificate", "solver.verify_certificate", None),
        ("solver", "screen_no", "solver.screen_no", _screen_hook(screen_budget)),
        ("solver", "exists_nowhere_zero_flow", "solver.exists_nowhere_zero_flow", _nowhere_zero_hook),
        ("search", "discrepancy_search", "search.discrepancy_search", None),
        ("search", "SearchTask.build", "search.SearchTask.build", None),
    ]


def span_cost(calls: int = 20000) -> float:
    """Seconds a traced call adds to a bare one, timed on a no-op function."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "calibrate")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []  # per open span: time covered by its children
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _open(self, name: str) -> tuple[int, float]:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self._child.append(0.0)
        t0 = time.perf_counter()
        self.span_start[sid] = t0
        return sid, t0

    def _close(self, sid: int, t0: float, name: str) -> str:
        t1 = time.perf_counter()
        self.span_end[sid] = t1
        self._stack.pop()
        covered = self._child.pop()
        duration = t1 - t0
        self.self_time[name] += duration - covered
        self.calls[name] += 1
        if self._child:
            self._child[-1] += duration
            return self.names[self.span_name[self._stack[-1]]]
        return ""

    def _run_hook(self, hook, parent, args, kwargs, result) -> None:
        t0 = time.perf_counter()
        hook(self.counts, parent, args, kwargs, result)
        if self._child:  # hook time is tracing overhead, not the caller's self time
            self._child[-1] += time.perf_counter() - t0

    def wrap(self, fn, name: str, hook=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, t0 = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                parent = self._close(sid, t0, name)
            if hook is not None:
                self._run_hook(hook, parent, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        """One span per resumption, so the stream's work nests under its consumer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    sid, t0 = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid, t0, name)
                    yield item
            finally:
                gen.close()

        return traced

    # -- patching ------------------------------------------------------------------

    def install(self, package: str, screen_budget: int) -> None:
        mods = {m: sys.modules[f"{package}.{m}"] for m in MODULES if f"{package}.{m}" in sys.modules}
        for mod_name, path, name, hook in targets(screen_budget):
            mod = mods.get(mod_name)
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                if owner is None or attr not in vars(owner):
                    continue
                self._patch(owner, attr, self.wrap(vars(owner)[attr], name, hook))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            traced = self.wrap(fn, name, hook)
            for other in mods.values():  # the defining module and every from-import of it
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._patch(other, key, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------------

    def layer_self_time(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out

    def root_time(self) -> float:
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] < 0
        )

    def write(self, path, origin: float) -> None:
        """Spans as TSV: id, parent id, name, start and end in seconds from `origin`."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - origin:.9f}\t{self.span_end[i] - origin:.9f}\n"
                )
