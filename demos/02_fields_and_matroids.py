"""
Prime fields and linear matroid representations
===============================================

The marking machinery works with matroids given as matrices over a large
prime field. This script builds the three kinds used by the pipeline and
checks each against a first-principles notion of independence.
"""

import itertools
import random
import sys
from pathlib import Path

from cutmimic.ffield import MERSENNE61, PrimeField, rank
from cutmimic.matroids import (
    build_edge_cut_gammoid_digraph,
    gammoid_rep,
    graphic_rep,
    uniform_rep,
)
from cutmimic.netgraph import TerminalNetwork

# The disjoint-path flow oracle is reference code from the test suite, not
# part of the library: it is the independent check the gammoid is held to.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference import is_independent_by_flow  # noqa: E402

F = PrimeField(MERSENNE61)
print("field: integers mod", F.p)
print("arithmetic sample: (1/7) * 7 =", F.reduce(F.inv(7) * 7))

# uniform matroid: independent iff the subset is small enough
u = uniform_rep(F, ["a", "b", "c", "d", "e"], 3)
print()
print("uniform U(5,3) matrix is", u.matrix.rows, "x", u.matrix.cols)
for size in (2, 3, 4):
    sub = u.matrix.submatrix_columns(list(range(size)))
    print(f"  first {size} columns: rank {rank(sub)}")

# graphic matroid: independent iff the edge set is a forest
net = TerminalNetwork.build(
    [1, 2, 3, 4],
    [(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 3, 4)],
    (1, 4))
g = graphic_rep(F, random.Random(1), net, max_rank=3)
print()
print("graphic matroid over a triangle plus a pendant edge")
triangle = [g.ground.index(e) for e in (1, 2, 3)]
tree = [g.ground.index(e) for e in (1, 2, 4)]
print("  cycle {1,2,3} rank:", rank(g.matrix.submatrix_columns(triangle)))
print("  tree  {1,2,4} rank:", rank(g.matrix.submatrix_columns(tree)))

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
        by_rank = rank(rep.matrix.submatrix_columns(list(cols))) == size
        by_flow = is_independent_by_flow(inst.digraph, inst.sources, sub)
        agree += by_rank == by_flow
        total += 1
print(f"rank oracle vs flow oracle: {agree}/{total} subsets agree")
