"""
Prime fields and linear matroid representations
===============================================

The marking machinery works with matroids given as columns over a large
prime field, one column per ground element. This script builds the three
kinds used by the pipeline and checks each against a first-principles
notion of independence.
"""

import itertools
import random
import sys
from pathlib import Path

from cutmimic.ffield import MERSENNE61, PrimeField
from cutmimic.matroids import (
    build_edge_cut_gammoid_digraph,
    gammoid_rep,
    graphic_rep,
    uniform_rep,
)
from cutmimic.netgraph import TerminalNetwork

# The disjoint-path flow oracle and the rank of a column set are reference
# code from the test suite, not part of the library: they are the
# independent checks the layers are held to.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference import is_independent_by_flow, rank  # noqa: E402

F = PrimeField(MERSENNE61)
print("field: integers mod", F.p)
print("arithmetic sample: (1/7) * 7 =", pow(7, -1, F.p) * 7 % F.p)

# uniform matroid: independent iff the subset is small enough
u = uniform_rep(F, ["a", "b", "c", "d", "e"], 3)
print()
print("uniform U(5,3) has", len(u.columns), "columns of", u.rows, "entries")
for size in (2, 3, 4):
    print(f"  first {size} columns: rank {rank(F, u.columns[:size])}")

# graphic matroid: independent iff the edge set is a forest
net = TerminalNetwork.build(
    [1, 2, 3, 4],
    [(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 3, 4)],
    (1, 4))
g = graphic_rep(F, random.Random(1), net, max_rank=3)
print()
print("graphic matroid over a triangle plus a pendant edge")
triangle = [g.column_of(e) for e in (1, 2, 3)]
tree = [g.column_of(e) for e in (1, 2, 4)]
print("  cycle {1,2,3} rank:", rank(F, triangle))
print("  tree  {1,2,4} rank:", rank(F, tree))

# edge-cut gammoid: independence encodes edge-disjoint linkages from the
# terminal-incident edges, checked against a direct flow computation
inst = build_edge_cut_gammoid_digraph(net)
rep = gammoid_rep(F, random.Random(7), inst.digraph, inst.sources, inst.ground)
print()
print("edge-cut gammoid ground has", len(rep.ground), "elements "
      "(each edge and its sink-only copy)")
agree = total = 0
for size in (1, 2, 3):
    for cols in itertools.combinations(range(len(rep.ground)), size):
        sub = [rep.ground[i] for i in cols]
        by_rank = rank(F, [rep.columns[i] for i in cols]) == size
        by_flow = is_independent_by_flow(inst.digraph, inst.sources, sub)
        agree += by_rank == by_flow
        total += 1
print(f"rank oracle vs flow oracle: {agree}/{total} subsets agree")
