"""Search threefold subdivisions of cubic bases for one-sided connectivity.

Subdivides three distinct edges (once each) of every base graph, decides
each candidate exactly for z4 and z2^2, and streams verified discrepancy
witnesses as NDJSON: the NO side proved by its certificate, the YES side
of small witnesses cross-checked with the naive engine.  Nothing is
sampled, so when the run reaches the candidate of
data/witness_z22_yes_z4_no.json (base 3, task 51128 of 62,832 in the
default seed-7 order) it emits that witness.  Resumable: progress is
checkpointed after every candidate, bound to the bases, groups, added
count, order and seed, so the run can be interrupted and restarted with
--resume; a checkpoint from another configuration is refused with exit
status 2.

Example:
    python3 scripts/search_cubic12.py --bases data/cubic12.g6 \
        --output witnesses.ndjson --checkpoint search.ckpt --resume \
        --stop-yes 'z2^2'
"""

from __future__ import annotations

import argparse
import sys
import time

from groupconn.groups import parse_group
from groupconn.search import SearchConfig, discrepancy_search, load_bases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bases", required=True, help="graph6 file, one base per line")
    ap.add_argument("--groups", default="z4,z2^2", help="comma-separated pair of group specs")
    ap.add_argument("--added", type=int, default=3, help="number of distinct edges to subdivide")
    ap.add_argument("--order", choices=("sequential", "random"), default="random")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--output", default="-", help="NDJSON witness stream ('-' = stdout)")
    ap.add_argument("--checkpoint", default=None)
    ap.add_argument("--resume", action="store_true")
    ap.add_argument(
        "--stop-yes",
        default=None,
        metavar="GROUP",
        help="stop after the first witness whose YES side is this group",
    )
    ap.add_argument("--max-witnesses", type=int, default=None)
    args = ap.parse_args(argv)

    spec_a, spec_b = (s.strip() for s in args.groups.split(","))
    group_a, group_b = parse_group(spec_a), parse_group(spec_b)
    stop_yes = parse_group(args.stop_yes).spec_string() if args.stop_yes else None

    bases = load_bases(args.bases)
    cfg = SearchConfig(
        added=range(args.added, args.added + 1),
        order=args.order,
        seed=args.seed,
        distinct_edges_only=True,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )

    out = sys.stdout if args.output == "-" else open(args.output, "a")
    t0 = time.perf_counter()
    found = 0
    try:
        for w in discrepancy_search(bases, group_a, group_b, cfg):
            out.write(w.to_json() + "\n")
            out.flush()
            found += 1
            print(
                f"[{time.perf_counter() - t0:.0f}s] witness {found}: "
                f"base {w.base_index}, yes={w.yes_group.spec_string()}, "
                f"no={w.no_group.spec_string()}, n={w.graph.n}",
                file=sys.stderr,
            )
            if stop_yes and w.yes_group.spec_string() == stop_yes:
                break
            if args.max_witnesses and found >= args.max_witnesses:
                break
    except ValueError as exc:  # e.g. a checkpoint written for another configuration
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"done: {found} witnesses in {time.perf_counter() - t0:.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
