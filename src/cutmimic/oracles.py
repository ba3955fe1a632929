"""Brute-force ground truth for cut problems at desk scale.

Flow-based routes (bipartitions, single requests, closest cuts) are exact at
any size this package handles; partition counts and branch-and-bound searches
are guarded by explicit ceilings and refuse rather than grind. Every flow
runs in one augmenting loop, `unit_flow`: `min_cut_side` runs it to the
end, the reducer's connectivity rule stops it after k + 1 paths and the
exact tester's certificate after kappa_0. Every cut read off a flow comes
from `closest_min_cut` (which checks its size against the flow value), and
every component test (`is_multiway_cut`, `is_multicut`) reads the vertex ->
component labelling `netgraph.component_labels` makes in one union-find
pass over the edges, never the search's bit masks.

Essentiality is decided by re-solving with the edge made undeletable
(contracted) and comparing values, never by enumerating witnesses; only
the edges of one minimum witness are re-solved, since that witness avoids
every other edge. So every flow and every search solves one problem: cuts
of unit edges, any of which may be deleted.
The witness enumerator and the isolating-cut 2-approximation that the tests
check these solvers against are reference code in the test suite.

Work done once per top-level call, with nothing kept between calls:
- each network gets one search index (`_SearchIndex`: vertex positions,
  one bit per edge, so an edge set is one int, adjacency lists, and per
  ordered group pair a memo from edge mask to the violating path the BFS
  finds). `verify_mimicking`, `cut_value_table` and `essential_edges`
  build one per network and hand it to every search of their call on it
  (`min_multiway_cut` and `min_multicut` take it as `index=`); a lone
  search, such as one on a network `essential_edges` contracted, builds
  its own. It is dropped when the call returns;
- within one search, each edge set's shortest violating path is chosen
  once: one memo serves every deepening round, and a request pair found
  separated stays skipped for the set's supersets;
- it runs no lower-bound flows: rounds below the optimum fail whatever
  budget they start from, so deepening starts at 0;
- `verify_mimicking` solves each distinct spot-check request set once per
  network: a set drawn again was already found equal on both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import InputError, InternalError, RefusedError
from .netgraph import (
    CutRequests,
    Partition,
    TerminalNetwork,
    all_partitions,
    boundary,
    component_labels,
    contract_edge,
)

Adjacency = Mapping[int, Sequence[tuple[int, int]]]  # `adjacency()` shape

FLOW_EDGE_CEILING = 4096
BB_EDGE_CEILING = 64
MAX_ORACLE_TERMINALS = 5
SPOT_CHECKS = 100  # multicut request sets `verify_mimicking` draws


# -- max flow on unit edges --------------------------------------------------

def min_cut_side(net: TerminalNetwork, A: Iterable[int], B: Iterable[int]
                 ) -> tuple[int, frozenset[int]]:
    """Minimum (A,B) cut value and the inclusion-minimal A-side vertex set,
    by unit-capacity undirected max flow (`unit_flow` run to the end): the
    residual-reachable set from A.
    """
    aset, bset = set(A), set(B)
    vset = set(net.vertices)
    if not aset or not bset:
        raise InputError("flow endpoints must be nonempty")
    if aset & bset:
        raise InputError("flow endpoint sets must be disjoint")
    if not aset <= vset or not bset <= vset:
        raise InputError("flow endpoints must be vertices")
    if net.m > FLOW_EDGE_CEILING:
        raise RefusedError(f"{net.m} edges exceeds flow ceiling {FLOW_EDGE_CEILING}")

    value, reach = unit_flow(net.adjacency(), aset, bset)
    return value, frozenset(reach)


def unit_flow(incident: Adjacency, A: set[int], B: set[int],
              cap: int | None = None) -> tuple[int, set[int]]:
    """The one augmenting-path loop. `incident` is a network's
    `adjacency()`, A and B are disjoint sets of its vertices, and every
    edge has capacity 1 each way. Each round augments one unit along a
    shortest residual path. It returns the number of paths found and the
    vertices reached from A in the last round: the inclusion-minimal
    minimum-cut side when the loop ran out of paths. Given `cap`, it stops
    once it has found `cap` paths, so the value is min(lambda(A, B), cap).
    """
    # edge -> the end its unit of flow leaves from; absent while it carries
    # none. The residual out of x is 0 if the unit leaves x, else 1 or 2.
    sent: dict[int, int] = {}
    value = 0
    while True:
        parent: dict[int, tuple[int, int]] = {}
        seen = set(A)
        queue = sorted(A)
        hit = None
        while queue and hit is None:
            nxt: list[int] = []
            for x in queue:
                for eid, y in incident[x]:
                    if y in seen or sent.get(eid) == x:
                        continue
                    seen.add(y)
                    parent[y] = (x, eid)
                    if y in B:
                        hit = y
                        break
                    nxt.append(y)
                if hit is not None:
                    break
            queue = nxt
        if hit is None:
            return value, seen
        y = hit
        while y not in A:
            x, eid = parent[y]
            if sent.get(eid) == y:  # cancels the unit sent y -> x
                del sent[eid]
            else:
                sent[eid] = x
            y = x
        value += 1
        if value == cap:
            return value, seen


def closest_min_cut(net: TerminalNetwork, A: Iterable[int],
                    B: Iterable[int]) -> tuple[int, ...]:
    """The unique minimum (A,B) edge cut with inclusion-minimal A-side,
    read off as the boundary of the residual-reachable set after max flow.
    """
    value, reach = min_cut_side(net, A, B)
    cut = boundary(net, reach)
    if len(cut) != value:
        raise InternalError(
            f"closest cut has {len(cut)} edges but the flow value is {value}")
    return cut


# -- multiway cut and multicut solvers ---------------------------------------

def _check_partition(net: TerminalNetwork, part: Partition) -> None:
    covered = {t for block in part.blocks for t in block}
    if covered != set(net.terminals):
        raise InputError("partition must cover exactly the terminal set")


def is_multiway_cut(net: TerminalNetwork, part: Partition,
                    X: Iterable[int]) -> bool:
    comp_of = component_labels(net, X)
    block_in: dict[int, int] = {}  # component -> the one block it meets
    for i, block in enumerate(part.blocks):
        for t in block:
            if block_in.setdefault(comp_of[t], i) != i:
                return False
    return True


def is_multicut(net: TerminalNetwork, requests: CutRequests,
                X: Iterable[int]) -> bool:
    comp_of = component_labels(net, X)
    return all(comp_of[u] != comp_of[v] for u, v in requests.pairs)


def _violating_path(adj: list[list[tuple[int, int]]], left: Sequence[int],
                    right: Sequence[int], X: int) -> tuple[int, ...] | None:
    """Edge bits of some shortest path joining `left` to `right` in G - X,
    in path order, or None. `adj` lists (edge bit, neighbour) per vertex
    position, X is a mask of edge bits and the groups are disjoint lists of
    positions. Multi-source BFS labeled by group.
    """
    label = [0] * len(adj)
    up_vertex = [0] * len(adj)
    up_edge = [0] * len(adj)  # 0 at a source: every edge bit is nonzero
    queue: list[int] = []
    for mark, group in ((1, left), (2, right)):
        for t in group:
            label[t] = mark
            queue.append(t)
    while queue:
        nxt: list[int] = []
        for x in queue:
            for bit, y in adj[x]:
                if bit & X:
                    continue
                if not label[y]:
                    label[y] = label[x]
                    up_vertex[y] = x
                    up_edge[y] = bit
                    nxt.append(y)
                elif label[y] != label[x]:
                    head = _walk_up(up_vertex, up_edge, x)
                    tail = _walk_up(up_vertex, up_edge, y)
                    return (*reversed(head), bit, *tail)
        queue = nxt
    return None


def _walk_up(up_vertex: list[int], up_edge: list[int], v: int) -> list[int]:
    out = []
    while up_edge[v]:
        out.append(up_edge[v])
        v = up_vertex[v]
    return out


class _SearchIndex:
    """What every branch-and-bound search on one network reads: vertex
    positions, one bit per edge (so an edge set is one int), adjacency
    lists of (edge bit, neighbour position), and per group pair a memo of
    `_violating_path` results keyed by the edge mask. The path a BFS finds
    depends only on the network, the mask and the ordered group pair, so
    any search may reuse an entry another search stored.
    """

    __slots__ = ("net", "pos", "adj", "paths", "distinct")

    def __init__(self, net: TerminalNetwork) -> None:
        self.net = net
        self.pos = {v: i for i, v in enumerate(net.vertices)}
        self.adj: list[list[tuple[int, int]]] = [[] for _ in net.vertices]
        for i, (_, u, v) in enumerate(net.edges):
            self.adj[self.pos[u]].append((1 << i, self.pos[v]))
            self.adj[self.pos[v]].append((1 << i, self.pos[u]))
        # (left group, right group) -> (left positions, right positions,
        # {edge mask: path bits or None})
        self.paths: dict[tuple[tuple[int, ...], tuple[int, ...]],
                         tuple[list[int], list[int],
                               dict[int, tuple[int, ...] | None]]] = {}
        # each path once, however many masks and pairs find it
        self.distinct: dict[tuple[int, ...], tuple[int, ...]] = {}

    def pair(self, left: tuple[int, ...], right: tuple[int, ...]
             ) -> tuple[list[int], list[int],
                        dict[int, tuple[int, ...] | None]]:
        got = self.paths.get((left, right))
        if got is None:
            got = self.paths[left, right] = (
                [self.pos[v] for v in left], [self.pos[v] for v in right], {})
        return got


def _check_index(net: TerminalNetwork, index: _SearchIndex | None) -> None:
    if index is not None and index.net is not net:
        raise InputError("search index was built for another network")


def _solve_separation(net: TerminalNetwork, groups: Sequence[tuple[int, ...]],
                      pair_list: Sequence[tuple[int, int]],
                      index: _SearchIndex | None
                      ) -> tuple[int, tuple[int, ...]]:
    """Minimum edge set X whose removal puts every listed group-index pair
    (of disjoint groups) in different components. Iterative deepening with
    path branching, refused above BB_EDGE_CEILING edges. Reads `index`
    (built here when None). Deepening ends by budget m, since deleting
    every edge separates any two disjoint groups.
    """
    if not pair_list:
        return 0, ()
    if net.m > BB_EDGE_CEILING:
        raise RefusedError(
            f"{net.m} edges exceeds search ceiling {BB_EDGE_CEILING}")

    if index is None:
        index = _SearchIndex(net)
    adj, distinct = index.adj, index.distinct
    pairs = [index.pair(groups[i], groups[j]) for i, j in pair_list]

    # edge set -> (edge bits of its shortest violating path, in path
    # order, or None when it separates every pair; mask of separated pairs)
    memo: dict[int, tuple[tuple[int, ...] | None, int]] = {}

    def violating(X: int, sep: int
                  ) -> tuple[tuple[int, ...] | None, int]:
        # Shortest offending path over the pairs not yet separated.
        best: tuple[int, ...] | None = None
        for k, (left, right, paths) in enumerate(pairs):
            if sep >> k & 1:
                continue
            path = paths.get(X, False)
            if path is False:
                path = _violating_path(adj, left, right, X)
                if path is not None:  # equal paths share one tuple
                    path = distinct.setdefault(path, path)
                paths[X] = path
            if path is None:
                sep |= 1 << k
            elif best is None or len(path) < len(best):
                best = path
                if len(best) == 1:
                    break
        return best, sep

    def dfs(X: int, sep: int, remaining: int) -> int | None:
        got = memo.get(X)
        if got is None:
            got = memo[X] = violating(X, sep)
        branch, sep = got
        if branch is None:
            return X
        if remaining == 0:
            return None
        for bit in branch:
            nxt = X | bit
            if nxt in visited:
                continue
            visited.add(nxt)
            found = dfs(nxt, sep, remaining - 1)
            if found is not None:
                return found
        return None

    for budget in range(net.m + 1):
        visited: set[int] = set()
        res = dfs(0, 0, budget)
        if res is not None:
            witness = tuple(sorted(eid for i, (eid, _, _)
                                   in enumerate(net.edges) if res >> i & 1))
            return len(witness), witness
    raise InternalError(f"search found no cut within {net.m} deletions")


def min_multiway_cut(net: TerminalNetwork, part: Partition, *,
                     index: _SearchIndex | None = None
                     ) -> tuple[int, tuple[int, ...]]:
    """Minimum edge multiway cut for a partition of the terminals, with a
    witness. Two-block partitions go through max flow; larger ones through
    iterative-deepening search (refused above the edge ceiling), which
    reads `index` when given one built for `net`.
    """
    _check_partition(net, part)
    _check_index(net, index)
    blocks = part.blocks
    if len(blocks) <= 1:
        value, witness = 0, ()
    elif len(blocks) == 2:
        witness = closest_min_cut(net, *blocks)
        value = len(witness)
    else:
        pair_list = [(i, j) for i in range(len(blocks))
                     for j in range(i + 1, len(blocks))]
        value, witness = _solve_separation(net, blocks, pair_list, index)
    if not is_multiway_cut(net, part, witness):
        raise InternalError(
            f"witness {witness} of value {value} is not a multiway cut "
            f"for {part.to_text()}")
    return value, witness


def min_multicut(net: TerminalNetwork, requests: CutRequests, *,
                 index: _SearchIndex | None = None
                 ) -> tuple[int, tuple[int, ...]]:
    """Minimum edge multicut for terminal pair requests, with a witness.
    A single request goes through max flow, more through the search, which
    reads `index` when given one built for `net`.
    """
    _check_index(net, index)
    pairs = requests.pairs
    if not pairs:
        return 0, ()
    if len(pairs) == 1:
        (s, t), = pairs
        cut = closest_min_cut(net, [s], [t])
        return len(cut), cut
    ends = sorted({x for p in pairs for x in p})
    group_of = {v: i for i, v in enumerate(ends)}
    pair_list = [(group_of[u], group_of[v]) for u, v in pairs]
    value, witness = _solve_separation(net, [(v,) for v in ends], pair_list,
                                       index)
    if not is_multicut(net, requests, witness):
        raise InternalError(
            f"witness {witness} of value {value} is not a multicut "
            f"for {len(pairs)} requests")
    return value, witness


# -- essential edges ---------------------------------------------------------

def _check_terminal_count(net: TerminalNetwork) -> None:
    if len(net.terminals) > MAX_ORACLE_TERMINALS:
        raise RefusedError(
            f"partition enumeration over {len(net.terminals)} terminals refused "
            f"(ceiling {MAX_ORACLE_TERMINALS})")


def essential_edges(net: TerminalNetwork) -> dict[Partition, tuple[int, ...]]:
    """Per partition, the edges present in every minimum multiway cut.

    An edge is essential iff making it undeletable strictly raises the
    minimum value. Only the edges of one minimum witness W are tried: W
    avoids every other edge, so none of those is in every minimum cut.
    - An edge of W that joins two terminals is essential without a solve:
      W is minimum, so the edge joins two blocks and every cut holds it.
    - Any other edge e is made undeletable by contracting it. The cuts
      that avoid e are the cuts of `contract_edge(net, e)`, under the same
      edge ids: parallel copies of e become loops, which no minimal cut
      holds. So e is essential iff that network's value exceeds W's.
    Every value is read through `min_multiway_cut`, whose witness check
    covers the re-solves too. W is ascending, so each tuple is too, and
    the keys come in `all_partitions` order.
    """
    _check_terminal_count(net)
    index = _SearchIndex(net)
    terminals = set(net.terminals)
    out: dict[Partition, tuple[int, ...]] = {}
    for part in all_partitions(net.terminals):
        base, witness = min_multiway_cut(net, part, index=index)
        out[part] = tuple(
            e for e in witness
            if terminals.issuperset(net.endpoints(e))
            or min_multiway_cut(contract_edge(net, e), part)[0] > base)
    return out


def essential_for_network(net: TerminalNetwork) -> tuple[int, ...]:
    """Union of the per-partition essential edge sets."""
    per = essential_edges(net)
    return tuple(sorted({e for edges in per.values() for e in edges}))


# -- cut value tables and mimicking verification -----------------------------

@dataclass(frozen=True)
class CutValueTable:
    """Minimum multiway cut value per partition of the terminal set, in
    canonical order (block count, then text form).
    """

    entries: tuple[tuple[Partition, int], ...]

    def __post_init__(self) -> None:
        for part, value in self.entries:
            if len(part.blocks) == 1 and value != 0:
                raise InputError("single-block partition must have value 0")

    def to_text(self) -> str:
        lines = [f"{p.to_text()} {v}" for p, v in self.entries]
        return "\n".join(lines) + "\n"


def cut_value_table(net: TerminalNetwork) -> CutValueTable:
    _check_terminal_count(net)
    index = _SearchIndex(net)
    return CutValueTable(tuple(
        (part, min_multiway_cut(net, part, index=index)[0])
        for part in all_partitions(net.terminals)))


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    detail: str = ""
    partition: Partition | None = None


def verify_mimicking(net: TerminalNetwork, other: TerminalNetwork,
                     seed: int = 0) -> VerifyReport:
    """Partition-table equality between two networks on the same terminal
    set, plus randomized multicut spot checks (redundant with the table by
    the partition correspondence; kept as an independent route). Each
    distinct drawn request set is solved once per network; a repeat draw
    was already found equal, so the first mismatch is the same.
    """
    if set(net.terminals) != set(other.terminals):
        raise InputError("networks must share the terminal set")
    _check_terminal_count(net)
    index1, index2 = _SearchIndex(net), _SearchIndex(other)
    for part in all_partitions(net.terminals):
        v1, _ = min_multiway_cut(net, part, index=index1)
        v2, _ = min_multiway_cut(other, part, index=index2)
        if v1 != v2:
            return VerifyReport(
                False, f"partition {part.to_text()}: {v1} vs {v2}", part)
    terms = sorted(net.terminals)
    pairs = [(a, b) for i, a in enumerate(terms) for b in terms[i + 1:]]
    rng = random.Random(seed)
    compared: set[int] = set()  # masks of the request sets found equal
    for _ in range(SPOT_CHECKS):
        if not pairs:
            break
        mask = rng.getrandbits(len(pairs))
        if not mask or mask in compared:
            continue
        chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
        req = CutRequests.of(terms, chosen)
        v1, _ = min_multicut(net, req, index=index1)
        v2, _ = min_multicut(other, req, index=index2)
        if v1 != v2:
            text = " ".join(f"{a}-{b}" for a, b in chosen)
            return VerifyReport(False, f"requests {text}: {v1} vs {v2}")
        compared.add(mask)
    return VerifyReport(True)


# -- covering constructions --------------------------------------------------

def cut_covering_set(net: TerminalNetwork) -> tuple[int, ...]:
    """Union over terminal bipartitions of the closest minimum cut, taking
    as A-side the block holding the smallest terminal.

    The 2^(t-1) - 1 bipartitions are enumerated directly: the A-side is the
    least terminal plus any subset of the others that leaves B nonempty.
    """
    _check_terminal_count(net)
    terms = sorted(net.terminals)
    out: set[int] = set()
    for size in range(len(terms) - 1):
        for extra in combinations(terms[1:], size):
            b_side = [t for t in terms[1:] if t not in extra]
            out.update(closest_min_cut(net, (terms[0], *extra), b_side))
    return tuple(sorted(out))
