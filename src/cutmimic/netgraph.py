"""Undirected terminal networks with stable edge identities.

The central type is TerminalNetwork: an undirected multigraph with unit edge
capacities, a designated terminal tuple, and integer edge ids that survive
every operation. Contraction never renames a surviving edge, so edge sets of
derived networks (recursive instances, reduced networks) are subsets of the
original edge-id space. Self-loops are discarded at creation, including the
ones produced by contraction.

All operations are value-semantic: they return new networks and never mutate
their inputs. component_labels(net, removed), one union-find pass over the
edge tuple, is the one connectivity routine: components groups its labels,
and the witness checks read them directly. It keeps its own inline
union-find because the witness checks call it in their inner loop. boundary
is the one cut read-off, and apply_local_event the one place a replayed
local event is checked and applied. Every contracted or pruned network is
built by one edit, _edited, which is handed the ids of the edges it
touches. It finds each by bisection in the parent's id-sorted edge tuple,
rewrites or drops it, and copies the untouched runs between them as slices;
the dropped vertices are sliced out of the sorted vertex tuple the same
way. It skips build's checks: they cannot fail on a network derived from a
valid one, so build validates only outside data. contract_edge(net, *eids)
is the one contraction routine: it composes any number of merges in a
union-find and applies them in one edit. A set of edges is contracted by
handing it spanning_forest(net, keep), the ids of a forest of the edges
keep selects, chosen in id order so that none is a loop of the earlier
ones; both run the module's one union-find step, _find, with path halving.
A network carries no cached index: inputs often stay alive for a whole
run, and a cached adjacency raised the peak RSS of the sparse-chains
benchmark from 30 MB to 44 MB. A caller without an index finds the touched
edges in one pass (_incident). degree2_reduce keeps its own index for the
length of one call: it applies every event to that index only, builds its
result with at most two edits (one contract_edge call, one _edited call),
and checks the index against the network it returns.

Text format (one network per file):

    c  free-form comment
    p tn <n> <m> <t>
    t <vertex>            (t lines, one per terminal)
    e <u> <v>             (m lines; repeat a pair for parallel edges)

Vertex ids are positive integers. Edge ids are assigned 1..m in file order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .errors import InputError, InternalError, TerminalContractionError


@dataclass(frozen=True)
class TerminalNetwork:
    """Undirected multigraph (V, E, T) with unit capacities and stable edge ids.

    vertices: sorted tuple of vertex ids.
    edges: tuple of (edge id, u, v) sorted by edge id; no self-loops.
    terminals: sorted tuple, a subset of vertices.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    terminals: tuple[int, ...]

    @staticmethod
    def build(vertices: Iterable[int], edges: Iterable[tuple[int, int, int]],
              terminals: Iterable[int]) -> "TerminalNetwork":
        vs = tuple(sorted(set(int(v) for v in vertices)))
        vset = set(vs)
        ts = tuple(sorted(set(int(t) for t in terminals)))
        kept = []
        seen_ids: set[int] = set()
        for eid, u, v in edges:
            eid, u, v = int(eid), int(u), int(v)
            if eid in seen_ids:
                raise InputError(f"duplicate edge id {eid}")
            if eid <= 0:
                raise InputError(f"edge id must be positive, got {eid}")
            seen_ids.add(eid)
            if u == v:
                continue  # self-loops carry no cut information
            if u not in vset or v not in vset:
                raise InputError(f"edge {eid} endpoint not a vertex: ({u},{v})")
            kept.append((eid, u, v))
        for t in ts:
            if t not in vset:
                raise InputError(f"terminal {t} is not a vertex")
        kept.sort()
        return TerminalNetwork(vs, tuple(kept), ts)

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e[0] for e in self.edges)

    def endpoints(self, eid: int) -> tuple[int, int]:
        i = _edge_position(self.edges, eid)
        if i is None:
            raise InputError(f"unknown edge id {eid}")
        _, u, v = self.edges[i]
        return (u, v)

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """vertex -> list of (edge id, other endpoint), edge-id order."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertices}
        for eid, u, v in self.edges:
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        return adj

    def degree(self, v: int) -> int:
        d = sum((a == v) + (b == v) for _, a, b in self.edges)
        if d == 0 and v not in self.vertices:  # every endpoint is a vertex
            raise InputError(f"unknown vertex id {v}")
        return d

    def fresh_vertex_id(self) -> int:
        return (self.vertices[-1] + 1) if self.vertices else 1

    def fresh_edge_id(self) -> int:
        return (self.edges[-1][0] + 1) if self.edges else 1


def capacity(net: TerminalNetwork, S: Iterable[int]) -> int:
    """cap(S) = sum of degrees of S, so parallel edges count per copy."""
    sset = _vertex_subset(net, S)
    total = 0
    for _, u, v in net.edges:
        if u in sset:
            total += 1
        if v in sset:
            total += 1
    return total


def terminal_capacity(net: TerminalNetwork) -> int:
    """k = cap(T), the measure every bound in this library is stated in."""
    return capacity(net, net.terminals)


def boundary(net: TerminalNetwork, S: Iterable[int]) -> tuple[int, ...]:
    """Edge ids with exactly one endpoint in S, ascending."""
    sset = _vertex_subset(net, S)
    return tuple(eid for eid, u, v in net.edges if (u in sset) != (v in sset))


def t_capacity(net: TerminalNetwork, S: Iterable[int]) -> int:
    """cap_T(S) = cap(T intersect S) + |boundary(S)|.

    Equals the terminal capacity of the recursive instance on S; the identity
    is checked by recursive_instance.
    """
    sset = _vertex_subset(net, S)
    return capacity(net, sset & set(net.terminals)) + len(boundary(net, sset))


def neighborhood(net: TerminalNetwork, S: Iterable[int]) -> tuple[int, ...]:
    """Open neighborhood N(S), ascending."""
    sset = _vertex_subset(net, S)
    out: set[int] = set()
    for _, u, v in net.edges:
        if u in sset and v not in sset:
            out.add(v)
        if v in sset and u not in sset:
            out.add(u)
    return tuple(sorted(out))


def component_labels(net: TerminalNetwork, removed: Iterable[int] = ()
                     ) -> dict[int, int]:
    """Vertex -> least vertex of its connected component in net minus the
    edge ids in `removed`. One union-find pass over the edges with path
    halving; of two roots the larger goes under the smaller, so each root
    is its component's least vertex and the new vertices of a chain join
    the tree they grow from.
    """
    drop = set(removed)
    parent = {v: v for v in net.vertices}
    for eid, u, v in net.edges:
        if eid in drop:
            continue
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    for v in net.vertices:
        root = parent[v]
        while parent[root] != root:
            root = parent[root]
        parent[v] = root
    return parent


def components(net: TerminalNetwork, removed: Iterable[int] = ()
               ) -> tuple[tuple[int, ...], ...]:
    """Connected components of net minus the edge ids in `removed`, as
    sorted vertex tuples ordered by least vertex: `component_labels`
    grouped in ascending vertex order, so nothing is sorted.
    """
    groups: dict[int, list[int]] = {}
    for v, root in component_labels(net, removed).items():
        groups.setdefault(root, []).append(v)
    return tuple(map(tuple, groups.values()))


def recursive_instance(net: TerminalNetwork, S: Iterable[int]
                       ) -> TerminalNetwork:
    """Sub-network G_S induced by N[S] minus the edges inside N(S).

    Keeps every edge with at least one endpoint in S, under its original id,
    so its edge ids index the parent's edges directly. The terminal set of
    G_S is (T intersect S) union N(S).
    """
    sset = _vertex_subset(net, S)
    if not sset:
        raise InputError("recursive instance requires a nonempty vertex set")
    nbrs = set(neighborhood(net, sset))
    verts = sset | nbrs
    kept = [(eid, u, v) for eid, u, v in net.edges if u in sset or v in sset]
    new_terms = sorted((set(net.terminals) & sset) | nbrs)
    sub = TerminalNetwork.build(verts, kept, new_terms)
    # cap_{G_S}(T(S)) must equal cap_T(S) in the parent; both double-count
    # terminal-to-boundary edges the same way.
    cap, want = terminal_capacity(sub), t_capacity(net, sset)
    if cap != want:
        raise InternalError(
            f"recursive instance capacity {cap} differs from cap_T(S) {want}")
    return sub


def contract_edge(net: TerminalNetwork, *eids: int) -> TerminalNetwork:
    """Contract the edges `eids`, one after another. Each merged vertex keeps
    the terminal identity if one end is a terminal, otherwise the smaller
    vertex id. Self-loops formed by parallel copies are discarded; all other
    surviving edges keep their ids.

    The merges are composed in a union-find (_find), so the result is the
    successive single-edge contractions' in one edit: one pass finds the
    edges of the merged-away vertices and one _edited call rewrites them.
    An id that the earlier ones made a loop (and so dropped) raises
    InputError, as an unknown id does; an edge whose ends are by then two
    terminals raises TerminalContractionError. To contract every edge of
    a set, hand it a spanning_forest of that set.
    """
    tset = set(net.terminals)
    parent: dict[int, int] = {}
    for eid in eids:
        u, v = net.endpoints(eid)
        u, v = _find(parent, u), _find(parent, v)
        if u == v:
            raise InputError(f"edge {eid} is a loop after the contractions "
                             f"before it")
        if u in tset and v in tset:
            raise TerminalContractionError(
                f"edge {eid} joins terminals {u} and {v}; contraction refused")
        keep, gone = _contraction_ends(u, v, tset)
        parent[gone] = keep
    merge = {x: _find(parent, x) for x in parent}
    return _edited(net, merge, frozenset(), _incident(net, merge))


def spanning_forest(net: TerminalNetwork,
                    keep: Callable[[int, int, int], bool]) -> list[int]:
    """Ids, ascending, of a spanning forest of the edges (eid, u, v) for
    which keep(eid, u, v) is true: Kruskal in id order. keep is called only
    for an edge whose ends lie in different classes of the edges kept
    before it, so no returned id is a loop of an earlier one, and
    contracting the forest merges each class of the kept edges.
    """
    parent: dict[int, int] = {}
    forest = []
    for eid, u, v in net.edges:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv and keep(eid, u, v):
            parent[ru] = rv
            forest.append(eid)
    return forest


def _find(parent: dict[int, int], x: int) -> int:
    """Root of x in a union-find that maps each merged-away vertex to the
    one it joined; a root has no entry. Path halving: each step makes x
    skip to its grandparent."""
    while x in parent:
        up = parent[x]
        parent[x] = x = parent.get(up, up)
    return x


def _contraction_ends(u: int, v: int, terminals: Container[int]
                      ) -> tuple[int, int]:
    """(kept, merged away) for contracting an edge u-v that does not join
    two terminals: a terminal end is kept, otherwise the smaller id."""
    return (u, v) if u in terminals or (v not in terminals and u < v) \
        else (v, u)


def _incident(net: TerminalNetwork, vertices: Container[int]
              ) -> tuple[int, ...]:
    """Ids of the edges with an end in `vertices`, ascending: the edges an
    edit of those vertices touches, for a caller that keeps no index."""
    return tuple(eid for eid, u, v in net.edges
                 if u in vertices or v in vertices)


def _edge_position(edges: Sequence[tuple[int, int, int]], eid: int,
                   lo: int = 0) -> int | None:
    """Position of edge `eid` in an id-sorted edge tuple, searched from
    `lo`, or None if it is not there."""
    i = bisect_left(edges, (eid,), lo)
    return i if i < len(edges) and edges[i][0] == eid else None


def _edited(net: TerminalNetwork, merge: Mapping[int, int],
            gone: frozenset[int] | set[int], touched: Iterable[int]
            ) -> TerminalNetwork:
    """net without the vertices in `gone` and their edges, each key of `merge`
    renamed to its value, and the loops this makes dropped.

    `touched` holds the id of every edge with an end in `gone` or among the
    keys of `merge`; the caller guarantees it misses none. Each is found by
    bisection in the id-sorted edge tuple and dropped or rewritten, and the
    runs between them are copied as slices, so an edit costs its touched
    edges plus a slice copy. A touched id that is absent, or whose edge has
    no edited end, raises InternalError. The caller also guarantees that
    `gone` and the keys of `merge` hold no terminal and no value of
    `merge`, so the edit keeps vertices sorted, edges in id order and the
    terminals valid, and build's checks are skipped. The dropped vertices
    are sliced out of the sorted vertex tuple the same way.
    """
    es, edges, start = net.edges, [], 0
    for eid in sorted(touched):
        i = _edge_position(es, eid, start)
        if i is None:
            raise InternalError(f"edit: edge {eid} is not in the network "
                                f"or is named twice")
        _, u, v = es[i]
        edges += es[start:i]
        start = i + 1
        if u in gone or v in gone:
            continue
        if u not in merge and v not in merge:
            raise InternalError(
                f"edit: edge {eid} ({u},{v}) has no edited end")
        u, v = merge.get(u, u), merge.get(v, v)
        if u != v:
            edges.append((eid, u, v))
    edges += es[start:]
    vs, vertices, start = net.vertices, [], 0
    for w in sorted(gone.union(merge)):
        i = bisect_left(vs, w, start)
        if vs[i:i + 1] == (w,):  # a replayed event may name absent ones
            vertices += vs[start:i]
            start = i + 1
    vertices += vs[start:]
    return TerminalNetwork(tuple(vertices), tuple(edges), net.terminals)


# -- local reduction rules -------------------------------------------------

@dataclass(frozen=True)
class Contract:
    """Trace event: edge `eid` was contracted."""
    eid: int


@dataclass(frozen=True)
class DeleteLeaf:
    """Trace event: non-terminal leaf `vertex` and its single edge removed."""
    vertex: int


@dataclass(frozen=True)
class DeleteComponent:
    """Trace event: a connected component without terminals was removed."""
    vertices: tuple[int, ...]


LocalEvent = Contract | DeleteLeaf | DeleteComponent


def degree2_reduce(net: TerminalNetwork
                   ) -> tuple[TerminalNetwork, tuple[LocalEvent, ...]]:
    """Exhaustively apply the always-safe local rules.

    First deletes every connected component containing no terminal, one
    DeleteComponent each, in order of least vertex. Then, one event at a
    time: the least-id non-terminal leaf is deleted; if there is none, the
    least-id non-terminal vertex of degree 2 with two distinct neighbours
    has its lower-id edge contracted. A vertex whose two edges join the same
    pair is kept, to preserve multiplicity. No minimum multiway cut value
    over any partition of T changes.

    Every event is applied to an index kept for this call only: vertex ->
    {edge id: other endpoint}, and one min-heap of (kind, vertex) entries
    in which leaves (kind 1) sort before contractible degree-2 vertices
    (kind 2). After an event only the vertex that lost or gained edges is
    re-pushed, and an entry whose vertex changed kind since it was pushed
    is dropped when popped. The network is built once the rules are
    exhausted, by at most two edits: one contract_edge call with every
    contracted id in event order, then one _edited call that drops the
    deleted leaves and components with the edges the index named for
    them. A deleted vertex is never merged into later, so contracting
    first gives the network the events give in their own order. The index
    is then compared with that network in one pass, and InternalError is
    raised if they differ. Returns the reduced network and the event list
    in application order.
    """
    # Imported here so that importing the package does not load heapq.
    from heapq import heappop, heappush

    tset = set(net.terminals)
    nbrs = _ends(net)
    # Dropping a non-terminal leaf or contracting at a non-terminal degree-2
    # vertex never strands a component without terminals, so the
    # terminal-free components are found once, up front.
    events: list[LocalEvent] = [DeleteComponent(c) for c in components(net)
                                if tset.isdisjoint(c)]
    deleted: set[int] = set()  # vertices of deleted leaves and components
    dropped: set[int] = set()  # the ids of their edges
    for dead in events:
        deleted.update(dead.vertices)
        for v in dead.vertices:
            dropped.update(nbrs.pop(v))
    contracted: list[int] = []

    def kind(v: int) -> int:
        """1 for a leaf, 2 for a contractible degree-2 vertex, else 0."""
        ends = nbrs.get(v)
        if ends is None or v in tset:
            return 0
        if len(ends) == 1:
            return 1
        return 2 if len(ends) == 2 and len(set(ends.values())) == 2 else 0

    heap: list[tuple[int, int]] = []  # (kind, vertex): leaves sort first

    def push(v: int) -> None:
        k = kind(v)
        if k:
            heappush(heap, (k, v))

    for v in net.vertices:
        push(v)
    while heap:
        k, v = heappop(heap)
        if kind(v) != k:  # stale: v changed kind since it was pushed
            continue
        if k == 1:
            ((eid, w),) = nbrs.pop(v).items()
            del nbrs[w][eid]
            deleted.add(v)
            dropped.add(eid)
            push(w)
            events.append(DeleteLeaf(v))
        else:
            eid = min(nbrs[v])
            keep, gone = _contraction_ends(v, nbrs[v][eid], tset)
            kept = nbrs[keep]
            for e, x in nbrs.pop(gone).items():
                if x == keep:  # a copy of the contracted edge: now a loop
                    del kept[e]
                else:
                    # x keeps its degree, and renaming its end can merge
                    # two distinct neighbours but never split them, so
                    # x cannot become a candidate and needs no push
                    kept[e] = x
                    nbrs[x][e] = keep
            push(keep)
            contracted.append(eid)
            events.append(Contract(eid))
    cur = contract_edge(net, *contracted) if contracted else net
    if deleted:
        cur = _edited(cur, {}, deleted, dropped)
    # The last edit trusted the index to name every edge it touched.
    if _ends(cur) != nbrs:
        raise InternalError("degree2_reduce: its index no longer matches "
                            "the network it reduced")
    return cur, tuple(events)


def _ends(net: TerminalNetwork) -> dict[int, dict[int, int]]:
    """vertex -> {edge id: other endpoint}, in edge-id order. An end that
    is not a vertex gets an entry too, so a network whose edges name a
    deleted vertex compares unequal to its index instead of failing."""
    ends: dict[int, dict[int, int]] = {v: {} for v in net.vertices}
    for eid, u, v in net.edges:
        ends.setdefault(u, {})[eid] = v
        ends.setdefault(v, {})[eid] = u
    return ends


def apply_local_event(net: TerminalNetwork, ev: LocalEvent) -> TerminalNetwork:
    if isinstance(ev, Contract):
        return contract_edge(net, ev.eid)
    if isinstance(ev, (DeleteLeaf, DeleteComponent)):
        leaf = isinstance(ev, DeleteLeaf)
        gone = {ev.vertex} if leaf else set(ev.vertices)
        if (len(boundary(net, gone)) != int(leaf)
                or not gone.isdisjoint(net.terminals)):
            raise InputError(f"replay: {ev} does not delete a terminal-free "
                             f"{'leaf' if leaf else 'component'}")
        return _edited(net, {}, gone, _incident(net, gone))
    raise InputError(f"unknown local event {ev!r}")


# -- partitions and requests ------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """A partition of the terminal set into nonempty blocks, canonicalized:
    each block is a sorted tuple and blocks are ordered by least member.
    """

    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(terminals: Sequence[int], blocks: Iterable[Iterable[int]]) -> "Partition":
        canon = tuple(sorted((tuple(sorted(set(b))) for b in blocks),
                             key=lambda b: b[0] if b else -1))
        flat = [t for b in canon for t in b]
        if any(not b for b in canon):
            raise InputError("partition blocks must be nonempty")
        if len(flat) != len(set(flat)):
            raise InputError("partition blocks must be disjoint")
        if set(flat) != set(terminals):
            raise InputError("partition must cover the terminal set exactly")
        return Partition(canon)

    @property
    def size(self) -> int:
        return len(self.blocks)

    def to_text(self) -> str:
        return "|".join(",".join(str(t) for t in b) for b in self.blocks)

    @staticmethod
    def from_text(terminals: Sequence[int], text: str) -> "Partition":
        try:
            blocks = [[int(x) for x in part.split(",")] for part in text.split("|")]
        except ValueError as exc:
            raise InputError(f"bad partition text {text!r}") from exc
        return Partition.of(terminals, blocks)


def all_partitions(terminals: Sequence[int]) -> Iterator[Partition]:
    """Every partition of the terminal set in canonical order, the order
    every report lists partitions in: by block count, then by text form.
    """
    terms = sorted(set(terminals))

    def rec(items: list[int], acc: list[list[int]]) -> Iterator[Partition]:
        if not items:  # acc is canonical: sorted blocks, by least member
            yield Partition(tuple(map(tuple, acc)))
            return
        head, rest = items[0], items[1:]
        for i in range(len(acc)):
            acc[i].append(head)
            yield from rec(rest, acc)
            acc[i].pop()
        acc.append([head])
        yield from rec(rest, acc)
        acc.pop()

    yield from sorted(rec(terms, []), key=lambda p: (p.size, p.to_text()))


@dataclass(frozen=True)
class CutRequests:
    """Unordered terminal pairs to disconnect; pairs stored sorted."""

    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def of(terminals: Sequence[int], pairs: Iterable[tuple[int, int]]) -> "CutRequests":
        tset = set(terminals)
        canon = []
        for a, b in pairs:
            a, b = int(a), int(b)
            if a == b:
                raise InputError(f"request pair ({a},{b}) is not a pair")
            if a not in tset or b not in tset:
                raise InputError(f"request endpoint not a terminal: ({a},{b})")
            canon.append((min(a, b), max(a, b)))
        return CutRequests(tuple(sorted(set(canon))))


# -- text format -------------------------------------------------------------

def parse_network(text: str) -> TerminalNetwork:
    header = None
    terms: list[int] = []
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise InputError(f"line {lineno}: duplicate header")
            if len(parts) != 5 or parts[1] != "tn":
                raise InputError(f"line {lineno}: expected 'p tn <n> <m> <t>'")
            try:
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError:
                raise InputError(f"line {lineno}: header fields must be integers")
        elif parts[0] == "t":
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 't <vertex>'")
            try:
                terms.append(int(parts[1]))
            except ValueError:
                raise InputError(f"line {lineno}: terminal must be an integer")
        elif parts[0] == "e":
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise InputError(f"line {lineno}: endpoints must be integers")
            edges.append((len(edges) + 1, u, v))
        else:
            raise InputError(f"line {lineno}: unknown line type {parts[0]!r}")
    if header is None:
        raise InputError("missing 'p tn' header")
    n, m, t = header
    verts = set(terms)
    for _, u, v in edges:
        verts.add(u)
        verts.add(v)
    if any(v <= 0 for v in verts):
        raise InputError("vertex ids must be positive")
    if len(edges) != m:
        raise InputError(f"header declares {m} edges, found {len(edges)}")
    if len(set(terms)) != t:
        raise InputError(f"header declares {t} terminals, found {len(set(terms))}")
    if len(verts) != n:
        raise InputError(f"header declares {n} vertices, found {len(verts)}")
    return TerminalNetwork.build(verts, edges, terms)


def format_network(net: TerminalNetwork) -> str:
    """Canonical text form: sorted terminals, edges by id, endpoints ascending.

    Vertices appear only through t/e lines, so an isolated non-terminal vertex
    is not representable and is dropped from the header count.
    """
    visible = {u for _, u, _ in net.edges}  # every endpoint and terminal
    visible.update((v for _, _, v in net.edges), net.terminals)
    lines = [f"p tn {len(visible)} {net.m} {len(net.terminals)}"]
    for t in net.terminals:
        lines.append(f"t {t}")
    for eid, u, v in net.edges:
        a, b = (u, v) if u <= v else (v, u)
        lines.append(f"e {a} {b}")
    return "\n".join(lines) + "\n"


def parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    """Request lines `r <u> <v>` as raw vertex pairs, order preserved."""
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "r" or len(parts) != 3:
            raise InputError(f"line {lineno}: expected 'r <u> <v>'")
        try:
            pairs.append((int(parts[1]), int(parts[2])))
        except ValueError:
            raise InputError(f"line {lineno}: endpoints must be integers")
    return tuple(pairs)


def parse_requests(net: TerminalNetwork, text: str) -> CutRequests:
    return CutRequests.of(net.terminals, parse_pairs(text))


def format_requests(requests: CutRequests) -> str:
    return "".join(f"r {a} {b}\n" for a, b in requests.pairs)


def _vertex_subset(net: TerminalNetwork, S: Iterable[int]) -> set[int]:
    sset = set(int(v) for v in S)
    unknown = sset - set(net.vertices)
    if unknown:
        raise InputError(f"unknown vertex ids {sorted(unknown)}")
    return sset
