"""
Marking and the full reduction loop
===================================

The reducer shrinks a network while preserving every partition's minimum
multiway cut value. On a dense instance it first contracts every edge whose
ends are more than k-connected, since no minimum cut can hold one; only when
there is none does the matroid marking run: a representative-set
computation selects a small edge set Z, and some edge outside Z is
contracted. Sparse instances recurse on the sparse side. The trace records
each step and can replay the run.
"""

from cutmimic.marker import MarkParams, mark
from cutmimic.netgraph import TerminalNetwork, format_network, terminal_capacity
from cutmimic.oracles import cut_value_table, verify_mimicking
from cutmimic.reducer import (
    ReduceParams,
    format_trace,
    mimicking_network,
    replay_trace,
)
from cutmimic.tester import exact_tester

# a K6 blob with two pendant terminals: dense at c = 6, capacity k = 2
blob = list(range(3, 9))
edges = [(i + 1, u, v)
         for i, (u, v) in enumerate(
             (u, v) for j, u in enumerate(blob) for v in blob[j + 1:])]
edges += [(16, 1, 3), (17, 2, 4)]
net = TerminalNetwork.build([1, 2] + blob, edges, (1, 2))
print("input: n =", len(net.vertices), "m =", net.m,
      "k =", terminal_capacity(net))

verdict = exact_tester(net, 6)
print("expansion tester at c=6:", "sparse" if verdict.is_sparse else "dense")

# marking alone: which edges can carry a minimum cut. The graphic layer is
# truncated hard here so the rank-product bound bites at this small size.
mark_params = MarkParams(c=6, i0=2, graphic_rank_cap=2, seed=0)
result = mark(net, mark_params)
print("marked", len(result.marked), "of", net.m, "edges:",
      list(result.marked))

# the full loop, forced past its base case so the dense branch runs: every
# clique edge has lambda = 5 > k, so the loop contracts the clique without
# marking, and the degree-2 rules finish the job
params = ReduceParams(threshold=10, mark=mark_params)
reduced, trace = mimicking_network(net, params)
print()
print("reduced network:")
print(format_network(reduced), end="")
print("trace:")
print(format_trace(trace), end="")

# the trace replays to the same network, and cut values are intact
assert format_network(replay_trace(net, trace)) == format_network(reduced)
report = verify_mimicking(net, reduced)
print()
print("all partition cut values preserved:", report.ok)
print(cut_value_table(reduced).to_text(), end="")
