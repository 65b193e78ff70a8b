"""Rebuild the frozen z2^2-YES / z4-NO witness fixture.

The witness is base 3 of data/cubic12.g6 with edges 2 (4,5), 6 (3,7) and
12 (0,10) subdivided once each: n = 15, m = 21.  Both groups are decided
in full with the fast oracle, so the fixture does not rest on the
``sumset`` engine that the search uses; the z4 NO-certificate is
re-verified, the z2^2 YES is cross-checked with the naive engine, and
the result is written in the search's own witness format.  About 7.5
min and 0.6 GB on a 2-core x86 box.

Example:
    PYTHONPATH=src python3 scripts/make_witness_fixture.py \
        --output data/witness_z22_yes_z4_no.json
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from groupconn.groups import Z4, Z2xZ2
from groupconn.search import SearchTask, Witness, load_bases
from groupconn.solver import decide, verify_certificate

BASES = os.path.join(os.path.dirname(__file__), "..", "data", "cubic12.g6")
BASE_INDEX = 3
SUBDIVIDED = (2, 6, 12)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default="-", help="witness JSON ('-' = stdout)")
    args = ap.parse_args(argv)

    base = load_bases(BASES)[BASE_INDEX]
    counts = tuple(int(e in SUBDIVIDED) for e in range(base.m))
    g = SearchTask(BASE_INDEX, base, counts).build()

    t0 = time.perf_counter()
    v_no = decide(g, Z4, "fast")
    print(f"[{time.perf_counter() - t0:.0f}s] z4: connected={v_no.connected}", file=sys.stderr)
    v_yes = decide(g, Z2xZ2, "fast")
    print(f"[{time.perf_counter() - t0:.0f}s] z2^2: connected={v_yes.connected}", file=sys.stderr)
    if v_no.connected or not v_yes.connected:
        print("not a z2^2-YES / z4-NO witness", file=sys.stderr)
        return 1
    if not verify_certificate(g, Z4, v_no.certificate):
        print("z4 certificate failed re-verification", file=sys.stderr)
        return 1
    print(f"z4 certificate: {tuple(v_no.certificate)}", file=sys.stderr)

    if not decide(g, Z2xZ2, "naive").connected:
        print("naive cross-check disagrees for z2^2", file=sys.stderr)
        return 1
    w = Witness(g, Z2xZ2, Z4, tuple(v_no.certificate), BASE_INDEX, counts, time.perf_counter() - t0, True)
    if args.output == "-":
        print(w.to_json())
    else:
        with open(args.output, "w") as fh:
            fh.write(w.to_json() + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
