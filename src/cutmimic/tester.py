"""Expansion testers.

A verdict is either a concrete sparse vertex set, whose defining inequality
cap_T(S)^c < |S| is re-checked on construction in exact integer arithmetic,
or Dense. The exact tester earns its Dense verdicts by a min-cut certificate
or by exhaustion. kappa = min over nonempty S of cap_T(S) is the least
number of edge-disjoint paths from a vertex to a sink joined to each
terminal t by deg(t) edges, so unit flows capped at kappa_0, the least
kappa with kappa^c >= floor(n/2), decide whether kappa^c >= floor(n/2); when
it holds, every candidate is ruled out before the 2^n walk starts. The
heuristic tester's Dense verdicts carry no guarantee and say so.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, RefusedError
from .netgraph import TerminalNetwork, neighborhood, t_capacity
from .oracles import unit_flow

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


def _certified_dense(net: TerminalNetwork, c: int) -> bool:
    """Whether kappa^c >= floor(n/2), for kappa = min over nonempty S of
    cap_T(S) and n >= 2.

    cap_T(S) is the cut of S in the network plus a sink joined to each
    terminal t by deg(t) parallel edges, so kappa is the least
    lambda(sink, v) over the vertices v. With kappa_0 the least kappa with
    kappa^c >= floor(n/2), the bound holds iff every `unit_flow` from the
    sink to a vertex, capped at kappa_0, finds kappa_0 paths. Each search
    starts at the sink and stops on reaching v; one started at v would
    explore most of the network before it met a terminal. The sink's
    edges take the ids 0, -1, ..., which no network edge has.
    """
    kappa0 = 1
    while kappa0 ** c < net.n // 2:
        kappa0 += 1
    incident = net.adjacency()
    sink = net.fresh_vertex_id()
    incident[sink] = []
    eid = 0
    for t in net.terminals:
        for _ in range(len(incident[t])):
            incident[t].append((eid, sink))
            incident[sink].append((eid, t))
            eid -= 1
    return all(unit_flow(incident, {sink}, {v}, kappa0)[0] == kappa0
               for v in net.vertices)


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
    if n <= 1 or _certified_dense(net, c):
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
