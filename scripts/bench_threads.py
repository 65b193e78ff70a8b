"""Benchmark the thread optimizations in the marking-table engine.

Decides z4- and z2^2-connectivity for every two-added-vertex subdivision
of the cube (78 graphs), with and without the length-2-thread
optimizations, and reports the speedup.

Example:
    python3 scripts/bench_threads.py
"""

from __future__ import annotations

import argparse
import time

from groupconn.graphs import CUBE
from groupconn.groups import Z4, Z2xZ2
from groupconn.search import enumerate_subdivisions
from groupconn.solver import decide


def run(workload, group, thread_opt):
    t0 = time.perf_counter()
    verdicts = [decide(g, group, "fast", thread_opt=thread_opt).connected for g in workload]
    return time.perf_counter() - t0, verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--added", type=int, default=2, help="vertices added to the cube")
    args = ap.parse_args(argv)

    workload = list(enumerate_subdivisions(CUBE, args.added))
    print(f"workload: {len(workload)} cube subdivisions with {args.added} added vertex(es)")
    total = {True: 0.0, False: 0.0}
    for group in (Z4, Z2xZ2):
        on, v_on = run(workload, group, True)
        off, v_off = run(workload, group, False)
        assert v_on == v_off, "engines disagree"
        total[True] += on
        total[False] += off
        print(
            f"{group.spec_string():>6}: optimized {on:7.2f}s   plain {off:8.2f}s"
            f"   speedup {off / on:6.2f}x   ({sum(v_on)}/{len(v_on)} connected)"
        )
    print(f"overall speedup: {total[False] / total[True]:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
