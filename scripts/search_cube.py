"""Find a graph that is z4-connected but not z2^2-connected.

Runs the discrepancy search over subdivisions of the cube with 1..7 added
vertices (repeats allowed) and prints the first witness whose YES side is
z4, as a JSON document with the certificate inline.

Example:
    python3 scripts/search_cube.py --max-added 7
"""

from __future__ import annotations

import argparse
import sys
import time

from groupconn.graphs import CUBE
from groupconn.groups import Z4, Z2xZ2
from groupconn.search import SearchConfig, discrepancy_search


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-added", type=int, default=7)
    ap.add_argument("--all", action="store_true", help="stream every witness instead of stopping")
    args = ap.parse_args(argv)

    cfg = SearchConfig(added=range(1, args.max_added + 1), order="sequential")
    t0 = time.perf_counter()
    for w in discrepancy_search([CUBE], Z4, Z2xZ2, cfg):
        print(w.to_json())
        print(
            f"[{time.perf_counter() - t0:.1f}s] yes={w.yes_group.spec_string()} "
            f"no={w.no_group.spec_string()} added={sum(w.counts)}",
            file=sys.stderr,
        )
        if not args.all and w.yes_group.spec_string() == "z4":
            return 0
    return 0 if args.all else 1


if __name__ == "__main__":
    raise SystemExit(main())
