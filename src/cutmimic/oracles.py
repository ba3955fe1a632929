"""Brute-force ground truth for cut problems at desk scale.

Flow-based routes (bipartitions, single requests, closest cuts) are exact at
any size this package handles; partition counts and branch-and-bound searches
are guarded by explicit ceilings and refuse rather than grind.

Essentiality is decided by re-solving with the edge made undeletable
(infinite capacity) and comparing values, never by enumerating witnesses;
a tiny enumerator is kept for cross-checks in the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InputError, RefusedError
from .netgraph import (
    CutRequests,
    Partition,
    TerminalNetwork,
    all_partitions,
    boundary,
    components,
)

INF = 10 ** 9
FLOW_EDGE_CEILING = 4096
BB_EDGE_CEILING = 64
MAX_ORACLE_TERMINALS = 5


# -- max flow with removable / undeletable edges -----------------------------

def _edge_flow(net: TerminalNetwork, A: Iterable[int], B: Iterable[int],
               forbidden: frozenset[int] = frozenset(),
               removed: frozenset[int] = frozenset()) -> tuple[int, frozenset[int]]:
    """Unit-capacity undirected max flow from vertex set A to vertex set B.

    Edges in `removed` are absent; edges in `forbidden` have infinite
    capacity (they can never be cut). Returns (value, residual-reachable
    vertex set from A); value is INF when A and B stay connected through
    forbidden edges alone.
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

    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in net.vertices}
    rem: dict[int, dict[int, int]] = {}
    for eid, u, v in net.edges:
        if eid in removed:
            continue
        c = INF if eid in forbidden else 1
        rem[eid] = {u: c, v: c}
        incident[u].append((eid, v))
        incident[v].append((eid, u))

    value = 0
    while True:
        parent: dict[int, tuple[int, int]] = {}
        seen = set(aset)
        queue = list(sorted(aset))
        hit = None
        while queue and hit is None:
            nxt: list[int] = []
            for x in queue:
                for eid, y in incident[x]:
                    if y in seen or rem[eid][x] <= 0:
                        continue
                    seen.add(y)
                    parent[y] = (x, eid)
                    if y in bset:
                        hit = y
                        break
                    nxt.append(y)
                if hit is not None:
                    break
            queue = nxt
        if hit is None:
            return value, frozenset(seen)
        path: list[tuple[int, int, int]] = []  # (from, to, eid)
        y = hit
        while y not in aset:
            x, eid = parent[y]
            path.append((x, y, eid))
            y = x
        delta = min(rem[eid][x] for x, _, eid in path)
        if delta >= INF // 2:
            return INF, frozenset(seen)
        for x, yy, eid in path:
            rem[eid][x] -= delta
            rem[eid][yy] += delta
        value += delta


def min_cut_side(net: TerminalNetwork, A: Iterable[int],
                 B: Iterable[int]) -> tuple[int, frozenset[int]]:
    """Minimum (A,B) cut value and the inclusion-minimal A-side vertex set."""
    return _edge_flow(net, A, B)


def closest_min_cut(net: TerminalNetwork, A: Iterable[int],
                    B: Iterable[int]) -> tuple[int, ...]:
    """The unique minimum (A,B) edge cut with inclusion-minimal A-side,
    read off as the boundary of the residual-reachable set after max flow.
    """
    value, reach = _edge_flow(net, A, B)
    cut = boundary(net, reach)
    assert len(cut) == value, (len(cut), value)
    return cut


# -- multiway cut and multicut solvers ---------------------------------------

def _check_partition(net: TerminalNetwork, part: Partition) -> None:
    covered = {t for block in part.blocks for t in block}
    if covered != set(net.terminals):
        raise InputError("partition must cover exactly the terminal set")


def is_multiway_cut(net: TerminalNetwork, part: Partition,
                    X: Iterable[int]) -> bool:
    for comp in components(net, X):
        blocks_met = {part.block_of(t) for t in comp if t in set(net.terminals)}
        if len(blocks_met) > 1:
            return False
    return True


def is_multicut(net: TerminalNetwork, requests: CutRequests,
                X: Iterable[int]) -> bool:
    comp_of = {}
    for i, comp in enumerate(components(net, X)):
        for v in comp:
            comp_of[v] = i
    return all(comp_of[u] != comp_of[v] for u, v in requests.pairs)


def _violating_path(net: TerminalNetwork, groups: Sequence[tuple[int, ...]],
                    X: set[int]) -> list[int] | None:
    """Edge ids of some shortest path joining two distinct groups in G - X,
    or None. Multi-source BFS labeled by group index.
    """
    label: dict[int, int] = {}
    parent: dict[int, tuple[int, int]] = {}
    queue: list[int] = []
    for gi, group in enumerate(groups):
        for t in group:
            if t in label:
                if label[t] != gi:
                    return []  # two groups share a vertex: unbreakable overlap
                continue
            label[t] = gi
            queue.append(t)
    adj = net.adjacency()
    while queue:
        nxt: list[int] = []
        for x in queue:
            for eid, y in adj[x]:
                if eid in X:
                    continue
                if y not in label:
                    label[y] = label[x]
                    parent[y] = (x, eid)
                    nxt.append(y)
                elif label[y] != label[x]:
                    left = _walk_up(parent, x)
                    right = _walk_up(parent, y)
                    return left[::-1] + [eid] + right
        queue = nxt
    return None


def _walk_up(parent: dict[int, tuple[int, int]], v: int) -> list[int]:
    out = []
    while v in parent:
        v, eid = parent[v]
        out.append(eid)
    return out


def _solve_separation(net: TerminalNetwork, groups: Sequence[tuple[int, ...]],
                      pair_list: Sequence[tuple[int, int]],
                      forbidden: frozenset[int],
                      max_edges: int) -> tuple[int, tuple[int, ...] | None]:
    """Minimum edge set X (disjoint from `forbidden`) whose removal puts
    every listed group-index pair in different components. Iterative
    deepening with path branching. Returns (INF, None) when impossible.
    """
    if not pair_list:
        return 0, ()
    sep_groups = groups

    def flow_between(i: int, j: int, X: frozenset[int]) -> int:
        val, _ = _edge_flow(net, sep_groups[i], sep_groups[j],
                            forbidden=forbidden, removed=X)
        return val

    lb = 0
    for i, j in pair_list:
        val = flow_between(i, j, frozenset())
        if val >= INF // 2:
            return INF, None
        lb = max(lb, val)

    def violating(X: set[int]) -> list[int] | None:
        # Shortest offending path over all request pairs.
        best: list[int] | None = None
        for i, j in pair_list:
            path = _violating_path(
                net, (sep_groups[i], sep_groups[j]), X)
            if path == []:
                return []
            if path is not None and (best is None or len(path) < len(best)):
                best = path
                if len(best) == 1:
                    break
        return best

    if net.m > max_edges:
        raise RefusedError(
            f"{net.m} edges exceeds search ceiling {max_edges}")

    deletable = sum(1 for e in net.edge_ids() if e not in forbidden)
    for budget in range(lb, deletable + 1):
        visited: set[frozenset[int]] = set()

        def dfs(X: frozenset[int], remaining: int) -> frozenset[int] | None:
            path = violating(set(X))
            if path is None:
                return X
            if path == [] or remaining == 0:
                return None
            for eid in path:
                if eid in forbidden:
                    continue
                nxt = X | {eid}
                if nxt in visited:
                    continue
                visited.add(nxt)
                got = dfs(nxt, remaining - 1)
                if got is not None:
                    return got
            return None

        res = dfs(frozenset(), budget)
        if res is not None:
            return len(res), tuple(sorted(res))
    return INF, None


def _solve_multiway(net: TerminalNetwork, part: Partition,
                    forbidden: frozenset[int],
                    max_edges: int) -> tuple[int, tuple[int, ...] | None]:
    blocks = part.blocks
    if len(blocks) <= 1:
        return 0, ()
    if len(blocks) == 2:
        value, reach = _edge_flow(net, blocks[0], blocks[1],
                                  forbidden=forbidden)
        if value >= INF // 2:
            return INF, None
        return value, boundary(net, reach)
    pair_list = [(i, j) for i in range(len(blocks))
                 for j in range(i + 1, len(blocks))]
    return _solve_separation(net, blocks, pair_list, forbidden, max_edges)


def min_multiway_cut(net: TerminalNetwork, part: Partition,
                     max_edges: int = BB_EDGE_CEILING
                     ) -> tuple[int, tuple[int, ...]]:
    """Minimum edge multiway cut for a partition of the terminals, with a
    witness. Two-block partitions go through max flow; larger ones through
    iterative-deepening search (refused above the edge ceiling).
    """
    _check_partition(net, part)
    value, witness = _solve_multiway(net, part, frozenset(), max_edges)
    assert value < INF // 2 and witness is not None
    assert is_multiway_cut(net, part, witness)
    return value, witness


def min_multicut(net: TerminalNetwork, requests: CutRequests,
                 max_edges: int = BB_EDGE_CEILING
                 ) -> tuple[int, tuple[int, ...]]:
    """Minimum edge multicut for terminal pair requests, with a witness."""
    pairs = requests.pairs
    if not pairs:
        return 0, ()
    if len(pairs) == 1:
        (s, t), = pairs
        value, reach = _edge_flow(net, [s], [t])
        return value, boundary(net, reach)
    groups: list[tuple[int, ...]] = []
    index: dict[int, int] = {}
    for v in sorted({x for p in pairs for x in p}):
        index[v] = len(groups)
        groups.append((v,))
    pair_list = [(index[u], index[v]) for u, v in pairs]
    value, witness = _solve_separation(net, groups, pair_list,
                                       frozenset(), max_edges)
    assert value < INF // 2 and witness is not None
    assert is_multicut(net, requests, witness)
    return value, witness


# -- essential edges ---------------------------------------------------------

def _check_terminal_count(net: TerminalNetwork) -> None:
    if len(net.terminals) > MAX_ORACLE_TERMINALS:
        raise RefusedError(
            f"partition enumeration over {len(net.terminals)} terminals refused "
            f"(ceiling {MAX_ORACLE_TERMINALS})")


def essential_edges(net: TerminalNetwork,
                    max_edges: int = BB_EDGE_CEILING
                    ) -> dict[Partition, tuple[int, ...]]:
    """Per partition, the edges present in every minimum multiway cut.

    An edge is essential iff making it undeletable (infinite capacity)
    strictly raises the minimum value.
    """
    _check_terminal_count(net)
    out: dict[Partition, tuple[int, ...]] = {}
    for part in all_partitions(net.terminals):
        base, _ = _solve_multiway(net, part, frozenset(), max_edges)
        ess: list[int] = []
        if base > 0:
            for e in net.edge_ids():
                forced, _ = _solve_multiway(net, part, frozenset([e]),
                                            max_edges)
                if forced > base:
                    ess.append(e)
        out[part] = tuple(ess)
    return out


def essential_for_network(net: TerminalNetwork,
                          max_edges: int = BB_EDGE_CEILING) -> tuple[int, ...]:
    """Union of the per-partition essential edge sets."""
    per = essential_edges(net, max_edges)
    return tuple(sorted({e for edges in per.values() for e in edges}))


def enumerate_minimum_multiway_cuts(net: TerminalNetwork, part: Partition,
                                    limit: int = 2_000_000
                                    ) -> tuple[tuple[int, ...], ...]:
    """All minimum witnesses, by direct subset search; cross-check use only."""
    value, _ = min_multiway_cut(net, part)
    from math import comb
    if comb(net.m, value) > limit:
        raise RefusedError("witness enumeration would be too large")
    eids = net.edge_ids()
    return tuple(X for X in combinations(eids, value)
                 if is_multiway_cut(net, part, X))


# -- cut value tables and mimicking verification -----------------------------

@dataclass(frozen=True)
class CutValueTable:
    """Minimum multiway cut value per partition of the terminal set, in
    canonical order (block count, then text form), with witnesses.
    """

    entries: tuple[tuple[Partition, int], ...]
    witnesses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for part, value in self.entries:
            if len(part.blocks) == 1 and value != 0:
                raise InputError("single-block partition must have value 0")

    def value_of(self, part: Partition) -> int:
        for p, v in self.entries:
            if p == part:
                return v
        raise InputError(f"partition {part.to_text()} not in table")

    def to_text(self) -> str:
        lines = [f"{p.to_text()} {v}" for p, v in self.entries]
        return "\n".join(lines) + "\n"


def cut_value_table(net: TerminalNetwork,
                    max_edges: int = BB_EDGE_CEILING) -> CutValueTable:
    _check_terminal_count(net)
    rows = []
    for part in all_partitions(net.terminals):
        value, witness = min_multiway_cut(net, part, max_edges)
        rows.append((part, value, witness))
    rows.sort(key=lambda r: (len(r[0].blocks), r[0].to_text()))
    return CutValueTable(tuple((p, v) for p, v, _ in rows),
                         tuple(w for _, _, w in rows))


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    detail: str = ""
    partition: Partition | None = None


def verify_mimicking(net: TerminalNetwork, other: TerminalNetwork,
                     spot_checks: int = 100, seed: int = 0,
                     max_edges: int = BB_EDGE_CEILING) -> VerifyReport:
    """Partition-table equality between two networks on the same terminal
    set, plus randomized multicut spot checks (redundant with the table by
    the partition correspondence; kept as an independent route).
    """
    if set(net.terminals) != set(other.terminals):
        raise InputError("networks must share the terminal set")
    _check_terminal_count(net)
    for part in sorted(all_partitions(net.terminals),
                       key=lambda p: (len(p.blocks), p.to_text())):
        v1, _ = min_multiway_cut(net, part, max_edges)
        v2, _ = min_multiway_cut(other, part, max_edges)
        if v1 != v2:
            return VerifyReport(
                False, f"partition {part.to_text()}: {v1} vs {v2}", part)
    terms = sorted(net.terminals)
    pairs = [(a, b) for i, a in enumerate(terms) for b in terms[i + 1:]]
    rng = random.Random(seed)
    for _ in range(spot_checks):
        if not pairs:
            break
        mask = rng.getrandbits(len(pairs))
        chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
        if not chosen:
            continue
        req = CutRequests.of(terms, chosen)
        v1, _ = min_multicut(net, req, max_edges)
        v2, _ = min_multicut(other, req, max_edges)
        if v1 != v2:
            text = " ".join(f"{a}-{b}" for a, b in chosen)
            return VerifyReport(False, f"requests {text}: {v1} vs {v2}")
    return VerifyReport(True)


# -- covering constructions --------------------------------------------------

def cut_covering_set(net: TerminalNetwork) -> tuple[int, ...]:
    """Union over terminal bipartitions of the closest minimum cut, taking
    as A-side the part holding the smallest terminal.
    """
    _check_terminal_count(net)
    terms = sorted(net.terminals)
    if len(terms) < 2:
        return ()
    rest = terms[1:]
    out: set[int] = set()
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            A = {terms[0], *extra}
            B = set(terms) - A
            if not B:
                continue
            out.update(closest_min_cut(net, A, B))
    return tuple(sorted(out))


def two_approx_multicut_cover(net: TerminalNetwork, part: Partition
                              ) -> tuple[tuple[int, ...], int]:
    """Union of per-block isolating closest cuts; a multiway cut for the
    partition whose size the half-integral multiflow bound keeps within
    twice the optimum (the inequality is asserted by the test suite, the
    multiflow is never constructed).
    """
    _check_partition(net, part)
    tset = set(net.terminals)
    out: set[int] = set()
    for block in part.blocks:
        rest = tset - set(block)
        if not rest:
            continue
        out.update(closest_min_cut(net, block, rest))
    witness = tuple(sorted(out))
    assert is_multiway_cut(net, part, witness)
    return witness, len(witness)


def isolating_cut_values(net: TerminalNetwork, part: Partition) -> tuple[int, ...]:
    """The per-block isolating min-cut values, for the sum inequality."""
    _check_partition(net, part)
    tset = set(net.terminals)
    vals = []
    for block in part.blocks:
        rest = tset - set(block)
        if not rest:
            vals.append(0)
            continue
        value, _ = _edge_flow(net, block, rest)
        vals.append(value)
    return tuple(vals)
