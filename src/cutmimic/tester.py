"""Expansion testers.

A verdict is either a concrete sparse vertex set, whose defining inequality
cap_T(S)^c < |S| is re-checked on construction in exact integer arithmetic,
or Dense. The exact tester earns its Dense verdicts by a min-cut certificate
or by exhaustion: kappa = min over nonempty S of cap_T(S) is one global min
cut, and kappa^c >= floor(n/2) rules out every candidate before the 2^n
walk starts. The heuristic tester's Dense verdicts carry no guarantee and
say so.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, RefusedError
from .netgraph import TerminalNetwork, neighborhood, t_capacity

DEFAULT_EXACT_CEILING = 20


@dataclass(frozen=True)
class TesterVerdict:
    """Dense, or a sparse witness with its capacity and size."""

    kind: str  # "sparse" or "dense"
    witness: tuple[int, ...] | None = None
    cap: int | None = None
    size: int | None = None
    verified: bool = True

    def __post_init__(self) -> None:
        if self.kind == "dense":
            if self.witness is not None:
                raise InputError("dense verdict carries no witness")
        elif self.kind == "sparse":
            if not self.witness:
                raise InputError("sparse witness must be nonempty")
            if self.size != len(self.witness) or self.cap is None:
                raise InputError("sparse verdict fields inconsistent")
        else:
            raise InputError(f"unknown verdict kind {self.kind!r}")

    @property
    def is_sparse(self) -> bool:
        return self.kind == "sparse"


def _sparse_verdict(net: TerminalNetwork, c: int,
                    S: tuple[int, ...]) -> TesterVerdict:
    """Build a sparse verdict, enforcing the full witness contract."""
    sset = set(S)
    if not sset or 2 * len(sset) > net.n:
        raise InputError("witness must be nonempty with |S| <= n/2")
    if len(set(neighborhood(net, sset)) | sset) == net.n:
        raise InputError("witness closed neighborhood covers the graph")
    cap = t_capacity(net, sset)
    if cap ** c >= len(sset):
        raise InputError(
            f"witness not sparse: cap {cap}^{c} >= size {len(sset)}")
    return TesterVerdict("sparse", tuple(sorted(sset)), cap, len(sset))


def validate_c(c: int) -> None:
    """The one check of the exponent c, for the testers and MarkParams."""
    if c < 1:
        raise InputError(f"exponent c must be >= 1, got {c}")


def validate_ceiling(ceiling: int) -> None:
    """The one check of the exact tester's vertex ceiling."""
    if ceiling < 0:
        raise InputError(f"exact tester ceiling must be >= 0, got {ceiling}")


def _sink_min_cut(nbrs: list[dict[int, int]], deg: list[int],
                  tflag: list[bool]) -> int:
    """kappa = min over nonempty S of cap_T(S), for the multigraph whose
    vertex i has neighbour multiplicities nbrs[i], degree deg[i] and
    terminal flag tflag[i].

    cap_T(S) is the cut of S in the network plus a sink joined to each
    terminal t by deg(t) parallel edges, and every nonempty proper vertex
    set of that graph has a side without the sink, so kappa is its global
    min cut (Stoer & Wagner, "A simple min-cut algorithm", JACM 1997).
    """
    n = len(nbrs)
    adj = [dict(nb) for nb in nbrs] + [{}]
    for i in range(n):
        if tflag[i]:
            adj[i][n] = adj[n][i] = deg[i]
    alive = list(range(n + 1))
    best = sum(deg[i] for i in range(n) if tflag[i])  # S = V
    while len(alive) > 1 and best:
        # One phase: add vertices in maximum-adjacency order. The last one,
        # t, against all the rest is a min cut between t and its predecessor
        # s; merging t into s keeps every other cut.
        key = dict.fromkeys(alive, 0)
        s = t = alive[0]
        while key:
            s, t = t, max(key, key=key.__getitem__)
            del key[t]
            for j, w in adj[t].items():
                if j in key:
                    key[j] += w
        best = min(best, sum(adj[t].values()))
        for j, w in adj[t].items():
            del adj[j][t]
            if j != s:
                adj[s][j] = adj[j][s] = adj[s].get(j, 0) + w
        adj[t] = {}
        alive.remove(t)
    return best


def exact_tester(net: TerminalNetwork, c: int,
                 ceiling: int = DEFAULT_EXACT_CEILING) -> TesterVerdict:
    """Exhaustive tester: among every nonempty S with |S| <= n/2 and
    N[S] != V, returns the witness minimizing cap_T(S)^c - |S| (ties:
    smaller set, then lexicographically smaller) when any candidate has a
    negative objective; Dense otherwise. Refuses graphs above the ceiling.

    Dense is earned by a certificate or by exhaustion. When kappa^c >=
    floor(n/2), with kappa the least cap_T(S) over all nonempty S, every
    candidate's objective is >= 0 and Dense is returned at once; otherwise
    all 2^n subsets are scanned.
    """
    validate_c(c)
    validate_ceiling(ceiling)
    n = net.n
    if n > ceiling:
        raise RefusedError(
            f"exact tester is exhaustive; {n} vertices exceeds ceiling {ceiling}")
    if n <= 1:
        return TesterVerdict("dense")
    verts = net.vertices
    vidx = {v: i for i, v in enumerate(verts)}
    tset = set(net.terminals)
    tflag = [v in tset for v in verts]
    closed = [1 << i for i in range(n)]
    nbrs: list[dict[int, int]] = [dict() for _ in range(n)]  # index -> multiplicity
    for _, u, v in net.edges:
        ui, vi = vidx[u], vidx[v]
        nbrs[ui][vi] = nbrs[ui].get(vi, 0) + 1
        nbrs[vi][ui] = nbrs[vi].get(ui, 0) + 1
        closed[ui] |= 1 << vi
        closed[vi] |= 1 << ui
    deg = [sum(nb.values()) for nb in nbrs]
    if _sink_min_cut(nbrs, deg, tflag) ** c >= n // 2:
        return TesterVerdict("dense")
    best = _gray_code_walk(verts, c, nbrs, deg, tflag, closed)
    if best is None or best[0] >= 0:
        return TesterVerdict("dense")
    return _sparse_verdict(net, c, best[2])


def _gray_code_walk(verts: tuple[int, ...], c: int,
                    nbrs: list[dict[int, int]], deg: list[int],
                    tflag: list[bool], closed: list[int]
                    ) -> tuple[int, int, tuple[int, ...]] | None:
    """The least (cap_T(S)^c - |S|, |S|, S) over every candidate S of
    exact_tester, or None when there is no candidate."""
    n = len(verts)
    full = (1 << n) - 1
    best: tuple[int, int, tuple[int, ...]] | None = None
    mask = 0
    size = 0
    cap = 0
    # Gray-code walk: each step flips one vertex, so the terminal capacity
    # and boundary size update in O(deg).
    for g in range(1, 1 << n):
        i = (g & -g).bit_length() - 1
        bit = 1 << i
        inside = sum(m for j, m in nbrs[i].items() if mask & (1 << j))
        if mask & bit:
            mask ^= bit
            size -= 1
            cap += inside - (deg[i] - inside)
            if tflag[i]:
                cap -= deg[i]
        else:
            mask |= bit
            size += 1
            cap += deg[i] - 2 * inside
            if tflag[i]:
                cap += deg[i]
        if size == 0 or 2 * size > n:
            continue
        value = cap ** c - size
        if best is not None and (value, size) > best[:2]:
            continue
        closure = 0
        msk = mask
        while msk:
            b = msk & -msk
            closure |= closed[b.bit_length() - 1]
            msk ^= b
        if closure == full:
            continue
        cand = (value, size,
                tuple(verts[j] for j in range(n) if mask & (1 << j)))
        if best is None or cand < best:
            best = cand
    return best


def heuristic_tester(net: TerminalNetwork, c: int) -> TesterVerdict:
    """Sweep-cut search: BFS-layer prefixes from every non-terminal seed,
    then degree-ordered prefixes. Returns the first prefix that passes the
    witness contract; a Dense verdict here is explicitly unverified.
    """
    validate_c(c)
    n = net.n
    tset = set(net.terminals)
    adj = net.adjacency()
    sweeps: list[list[int]] = []
    for seed in net.vertices:
        if seed in tset:
            continue
        order, seen, frontier = [], {seed}, [seed]
        while frontier:
            order.extend(frontier)
            nxt = sorted({w for v in frontier for _, w in adj[v]} - seen)
            seen.update(nxt)
            frontier = nxt
        sweeps.append(order)
    sweeps.append(sorted(net.vertices, key=lambda v: (len(adj[v]), v)))
    for order in sweeps:
        prefix: set[int] = set()
        for v in order:
            prefix.add(v)
            if 2 * len(prefix) > n:
                break
            if set(neighborhood(net, prefix)) | prefix == set(net.vertices):
                continue
            cap = t_capacity(net, prefix)
            if cap ** c < len(prefix):
                return _sparse_verdict(net, c, tuple(prefix))
    return TesterVerdict("dense", verified=False)
