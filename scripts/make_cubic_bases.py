#!/usr/bin/env python3
"""Generate a seeded corpus of connected 3-edge-colorable cubic graphs.

Random cubic graphs come from the configuration model (random perfect
matching on vertex stubs), rejecting loops and parallel edges; survivors
are kept when connected and admitting a nowhere-zero flow over a group
of order 4 (equivalent to 3-edge-colorability for cubic graphs).
One base per isomorphism class (bucketed by ``invariant``, then matched
exactly with networkx); sampling stops after a run of attempts produces
nothing new, or after --max-attempts.  That does not
saturate the class space: a class is drawn with probability proportional
to 1/|Aut|, so highly symmetric classes are easily missed.  Output: one
graph6 line per base.

data/cubic12.g6 was produced by (77 classes after 13,934 attempts;
reproduced byte for byte by the same command):
    python3 scripts/make_cubic_bases.py --n 12 --seed 99 --output data/cubic12.g6
It lacks 3 of the 80 connected 3-edge-colorable cubic classes on 12
vertices (automorphism groups of order 24, 48 and 48), e.g.
    [(0,1),(0,5),(0,6),(1,7),(1,8),(2,3),(2,9),(2,10),(3,7),(3,10),
     (4,6),(4,9),(4,11),(5,6),(5,10),(7,8),(8,11),(9,11)].
The file is kept as it is, since data/witness_z22_yes_z4_no.json points
into it by base index.

data/cubic12_all.g6 holds all 80 classes (seed 1 reaches the 80th at
attempt 17,380; about 25 s on a 2-core x86 box):
    python3 scripts/make_cubic_bases.py --n 12 --seed 1 --patience 40000 \
        --max-attempts 40000 --output data/cubic12_all.g6
"""

from __future__ import annotations

import argparse
import random
import sys

import networkx as nx

from groupconn.graphs import Digraph, encode_graph6, structure_report
from groupconn.groups import Z2xZ2
from groupconn.solver import exists_nowhere_zero_flow


def random_cubic(rng: random.Random, n: int) -> Digraph | None:
    stubs = [v for v in range(n) for _ in range(3)]
    rng.shuffle(stubs)
    edges = []
    seen = set()
    for i in range(0, len(stubs), 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v or (min(u, v), max(u, v)) in seen:
            return None
        seen.add((min(u, v), max(u, v)))
        edges.append((min(u, v), max(u, v)))
    return Digraph(n, tuple(sorted(edges)))


def invariant(G: nx.Graph) -> str:
    """An isomorphism invariant that separates regular graphs.

    Plain Weisfeiler-Lehman refinement cannot tell two regular graphs of
    the same degree apart, so every cubic graph would share one bucket and
    be matched against every kept class.  Seeding it with each vertex's
    sorted distance profile splits the 12-vertex classes into buckets of
    at most 3.
    """
    for v, dist in nx.all_pairs_shortest_path_length(G):
        G.nodes[v]["profile"] = ",".join(map(str, sorted(dist.values())))
    return nx.weisfeiler_lehman_graph_hash(G, node_attr="profile", iterations=4)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--seed", type=int, default=99)
    ap.add_argument(
        "--patience", type=int, default=8000,
        help="stop after this many consecutive attempts without a new class",
    )
    ap.add_argument("--max-attempts", type=int, default=120000)
    ap.add_argument("--output", default="-")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    out = sys.stdout if args.output == "-" else open(args.output, "w")
    buckets: dict[str, list] = {}  # invariant -> graphs (collisions resolved exactly)
    kept = 0
    attempts = no_new = 0
    while no_new < args.patience and attempts < args.max_attempts:
        attempts += 1
        no_new += 1
        g = random_cubic(rng, args.n)
        if g is None:
            continue
        _, components, _ = structure_report(g)
        if len(components) != 1:
            continue
        if not exists_nowhere_zero_flow(g, Z2xZ2):
            continue
        G = nx.Graph()
        G.add_nodes_from(range(args.n))
        G.add_edges_from(g.edges)
        bucket = buckets.setdefault(invariant(G), [])
        if any(nx.is_isomorphic(G, H) for H in bucket):
            continue
        bucket.append(G)
        kept += 1
        no_new = 0
        out.write(encode_graph6(g) + "\n")
    if args.output != "-":
        out.close()
    print(f"{kept} bases (isomorphism classes) after {attempts} attempts", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
