"""Linear matroid representations over a prime field.

Three families feed the marking stage: gammoids on an edge-adjacency digraph
(via the dual-of-transversal construction), truncated graphic matroids, and
uniform matroids. A layered matroid stacks several representations over the
same ground set so that one column tuple can be read off per element.

The gammoid is the costly layer. Its transversal pattern is block
lower-triangular: a node without out-arcs (every sink-only copy ("zp", e)
of the edge-cut digraph) is nobody's in-neighbor, so its column is zero
outside its own row. gammoid_rep therefore eliminates only the block of
non-source nodes that have out-arcs and reads each sink's part of the dual
off its own pattern row. The pattern is drawn in the same order as a full
reduction would draw it, the reduced form it stands for is unique, and the
two are singular together, so the result matches the full reduction bit for
bit, rng state and refusals included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Any, Hashable, Sequence

from .errors import InputError, RefusedError
from .ffield import (
    PrimeField,
    PrimeFieldMatrix,
    random_nonzero,
    rank,
    vandermonde,
)
from .netgraph import TerminalNetwork, components

Node = Hashable


class Digraph:
    """Immutable digraph with precomputed neighbor maps."""

    __slots__ = ("nodes", "arcs", "_in")

    def __init__(self, nodes: Sequence[Node], arcs: Sequence[tuple[Node, Node]]):
        self.nodes = tuple(sorted(set(nodes), key=repr))
        node_set = set(self.nodes)
        seen = set()
        for a in arcs:
            u, v = a
            if u not in node_set or v not in node_set:
                raise InputError(f"arc {a!r} references unknown node")
            if u == v:
                raise InputError(f"self-arc {a!r} not allowed")
            seen.add((u, v))
        self.arcs = tuple(sorted(seen, key=repr))
        ins: dict[Node, list[Node]] = {v: [] for v in self.nodes}
        for u, v in self.arcs:
            ins[v].append(u)
        self._in: dict[Node, tuple[Node, ...]] = {
            v: tuple(ins[v]) for v in self.nodes}

    def in_neighbors(self, v: Node) -> tuple[Node, ...]:
        return self._in[v]


@dataclass(frozen=True)
class MatroidRep:
    """Columns of `matrix` represent `ground` in order; `rank` is the rank
    the construction is entitled to claim, which bounds (and for the exact
    constructions equals) the matrix rank.
    """

    matrix: PrimeFieldMatrix
    ground: tuple[Any, ...]
    rank: int
    _index: dict[Any, int] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.ground) != self.matrix.cols:
            raise InputError("ground size does not match column count")
        index = {x: j for j, x in enumerate(self.ground)}
        if len(index) != len(self.ground):
            raise InputError("duplicate ground elements")
        if self.rank < 0 or self.rank > self.matrix.rows:
            raise InputError("declared rank out of range")
        object.__setattr__(self, "_index", index)

    def column_index(self, x: Any) -> int:
        try:
            return self._index[x]
        except (KeyError, TypeError):
            raise InputError(f"{x!r} is not a ground element") from None

    def column_of(self, x: Any) -> list[int]:
        return self.matrix.column(self.column_index(x))

    def is_independent(self, subset: Sequence[Any]) -> bool:
        idxs = [self.column_index(x) for x in subset]
        if len(set(idxs)) != len(idxs):
            return False
        sub = self.matrix.submatrix_columns(idxs)
        return rank(sub) == len(idxs)


def relabel_ground(rep: MatroidRep, labels: Sequence[Any]) -> MatroidRep:
    if len(labels) != len(rep.ground):
        raise InputError("relabel length mismatch")
    return MatroidRep(rep.matrix, tuple(labels), rep.rank)


@dataclass(frozen=True)
class LayeredMatroid:
    """Direct sum of representations on disjoint copies of their grounds.

    An element of the sum is a (layer, ground element) choice; downstream
    code reads one column per layer and tensors them, so layer order is part
    of the contract.
    """

    layers: tuple[MatroidRep, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise InputError("layered matroid needs at least one layer")
        p0 = self.layers[0].matrix.field.p
        if any(layer.matrix.field.p != p0 for layer in self.layers[1:]):
            raise InputError("layers must share a field")

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(layer.rank for layer in self.layers)

    def rank_product(self) -> int:
        out = 1
        for r in self.ranks:
            out *= r
        return out

    def total_columns(self) -> int:
        return sum(layer.matrix.cols for layer in self.layers)

    def tuple_column(self, t: Sequence[Any]) -> list[list[int]]:
        """Columns of a one-element-per-layer tuple, in layer order."""
        if len(t) != len(self.layers):
            raise InputError("tuple length must equal the layer count")
        return [layer.column_of(x) for layer, x in zip(self.layers, t)]


def block_matrix(field: PrimeField,
                 blocks: Sequence[PrimeFieldMatrix]) -> PrimeFieldMatrix:
    """Block-diagonal stack."""
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = PrimeFieldMatrix(field, rows, cols)
    r0 = c0 = 0
    for b in blocks:
        if b.field.p != field.p:
            raise InputError("mixed moduli in block matrix")
        for i in range(b.rows):
            base = (r0 + i) * cols + c0
            out.data[base:base + b.cols] = b.row(i)
        r0 += b.rows
        c0 += b.cols
    return out


def disjoint_union(field: PrimeField, reps: Sequence[MatroidRep]) -> MatroidRep:
    """Direct sum as a single representation; ground elements are tagged
    with their layer index to keep copies distinct.
    """
    if not reps:
        raise InputError("disjoint union needs at least one layer")
    mat = block_matrix(field, [r.matrix for r in reps])
    ground = tuple((i, x) for i, r in enumerate(reps) for x in r.ground)
    return MatroidRep(mat, ground, sum(r.rank for r in reps))


def signed_incidence(field: PrimeField, net: TerminalNetwork) -> PrimeFieldMatrix:
    """|V| x |E| incidence, +1 at the lower-numbered endpoint. Rows follow
    sorted vertex order, columns follow edge id order.
    """
    vidx = {v: i for i, v in enumerate(net.vertices)}
    m = PrimeFieldMatrix(field, net.n, net.m)
    for j, (_, u, v) in enumerate(net.edges):
        lo, hi = (u, v) if u < v else (v, u)
        m.data[vidx[lo] * net.m + j] = 1
        m.data[vidx[hi] * net.m + j] = field.p - 1
    return m


def uniform_rep(field: PrimeField, ground: Sequence[Any], r: int) -> MatroidRep:
    """U(ground, r) via a Vandermonde matrix on points 1..|ground|."""
    r = min(r, len(ground))
    pts = list(range(1, len(ground) + 1))
    return MatroidRep(vandermonde(field, r, pts), tuple(ground), r)


def graphic_rep(field: PrimeField, rng: random.Random, net: TerminalNetwork,
                max_rank: int, retries: int = 8) -> MatroidRep:
    """Graphic matroid of the network truncated to rank at most max_rank.

    Truncation is a random projection of the signed incidence columns; the
    result's matrix rank is checked against the declared rank and redrawn
    on the (vanishingly unlikely) deficiency.
    """
    if max_rank < 0:
        raise InputError("max_rank must be nonnegative")
    inc = signed_incidence(field, net)
    full_rank = net.n - len(components(net))
    r = min(max_rank, full_rank)
    ground = net.edge_ids()
    if r == full_rank:
        return MatroidRep(inc, ground, r)
    for _ in range(retries):
        proj = PrimeFieldMatrix(
            field, r, net.n,
            [rng.randrange(field.p) for _ in range(r * net.n)])
        out = PrimeFieldMatrix(field, r, net.m)
        for i in range(r):
            prow = proj.row(i)
            for j in range(net.m):
                col = inc.column(j)
                out.data[i * net.m + j] = sum(
                    a * b for a, b in zip(prow, col)) % field.p
        if rank(out) == r:
            return MatroidRep(out, ground, r)
    raise RefusedError("graphic truncation kept losing rank; giving up")


@dataclass(frozen=True)
class GammoidInstance:
    """Digraph component of an edge-cut gammoid: sources are the nodes of
    terminal-incident edges; the ground keeps every node, originals first
    and then the sink-only copies, each block in edge-id order.
    """

    digraph: Digraph
    sources: tuple[Node, ...]
    ground: tuple[Node, ...]
    edge_ids: tuple[int, ...]


def build_edge_cut_gammoid_digraph(net: TerminalNetwork) -> GammoidInstance:
    """Adjacency digraph over edges of the network.

    Each edge e contributes a node ("z", e) and a sink-only copy ("zp", e).
    For every pair of distinct edges e, f sharing an endpoint there are arcs
    ("z", e) -> ("z", f), ("z", f) -> ("z", e), ("z", e) -> ("zp", f) and
    ("z", f) -> ("zp", e); the copies have no outgoing arcs.
    """
    eids = net.edge_ids()
    nodes: list[Node] = [("z", e) for e in eids] + [("zp", e) for e in eids]
    arcs: set[tuple[Node, Node]] = set()
    adj = net.adjacency()
    for v in net.vertices:
        inc = [e for e, _ in adj[v]]
        for i, e in enumerate(inc):
            for f in inc[i + 1:]:
                if e == f:
                    continue
                arcs.add((("z", e), ("z", f)))
                arcs.add((("z", f), ("z", e)))
                arcs.add((("z", e), ("zp", f)))
                arcs.add((("z", f), ("zp", e)))
    tset = set(net.terminals)
    sources = tuple(("z", e) for e, u, v in net.edges
                    if u in tset or v in tset)
    return GammoidInstance(Digraph(nodes, tuple(arcs)), sources,
                           tuple(nodes), eids)


def max_disjoint_paths(dg: Digraph, sources: Sequence[Node],
                       targets: Sequence[Node]) -> int:
    """Maximum number of vertex-disjoint paths from `sources` to `targets`
    (unit node capacities, sources and targets included). Zero-length paths
    count when a source is itself a target.
    """
    SRC, SNK = ("#src",), ("#snk",)
    cap: dict[Node, dict[Node, int]] = {}

    def add(u: Node, v: Node, c: int) -> None:
        cap.setdefault(u, {})[v] = cap.get(u, {}).get(v, 0) + c
        cap.setdefault(v, {}).setdefault(u, 0)

    for v in dg.nodes:
        add(("i", v), ("o", v), 1)
    for u, v in dg.arcs:
        add(("o", u), ("i", v), 1)
    for s in set(sources):
        add(SRC, ("i", s), 1)
    for t in set(targets):
        add(("o", t), SNK, 1)
    if SRC not in cap or SNK not in cap:
        return 0

    flow = 0
    while True:
        parent: dict[Node, Node] = {SRC: SRC}
        queue = [SRC]
        while queue and SNK not in parent:
            nxt: list[Node] = []
            for u in queue:
                for v, c in cap[u].items():
                    if c > 0 and v not in parent:
                        parent[v] = u
                        nxt.append(v)
            queue = nxt
        if SNK not in parent:
            return flow
        v = SNK
        while v != SRC:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] += 1
            v = u
        flow += 1


def is_independent_by_flow(dg: Digraph, sources: Sequence[Node],
                           subset: Sequence[Node]) -> bool:
    """Gammoid independence checked directly: the subset is independent iff
    it can be fully linked to the sources by vertex-disjoint paths.
    """
    if len(set(subset)) != len(subset):
        return False
    return max_disjoint_paths(dg, sources, subset) == len(subset)


def gammoid_rep(field: PrimeField, rng: random.Random, dg: Digraph,
                sources: Sequence[Node], ground: Sequence[Node],
                retries: int = 8) -> MatroidRep:
    """Linear representation of the gammoid on `ground` linked to `sources`.

    Built as the dual of a transversal representation. The pattern has one
    row per non-source node u, with random nonzero entries at u (drawn
    first) and at the in-neighbors of u (in `in_neighbors` order), rows in
    node order. With the non-source columns as the block B and the source
    columns as C, the dual is [-A^T | I] for A = B^-1 C, restricted to the
    ground columns. Declared rank is |sources|.

    A non-source node without out-arcs (a sink) is nobody's in-neighbor, so
    its column is zero outside its own row and B is block lower-triangular:
    the inner block (non-source nodes with out-arcs) over a nonzero
    diagonal. Only the inner block is eliminated, with back-substitution
    for the |sources| right-hand columns; each sink's row of A is then read
    off its pattern row. B is singular exactly when the inner block is, and
    A is unique, so this returns the same matrix, after the same draws, as
    a full reduction of the pattern would.
    """
    src = set(sources)
    if not src <= set(dg.nodes):
        raise InputError("sources must be digraph nodes")
    if not set(ground) <= set(dg.nodes):
        raise InputError("ground must be digraph nodes")
    p = field.p
    tails = {u for u, _ in dg.arcs}
    non_src = [v for v in dg.nodes if v not in src]
    src_pos = {v: i for i, v in enumerate(x for x in dg.nodes if x in src)}
    s = len(src_pos)
    inner_pos = {v: i for i, v in enumerate(u for u in non_src if u in tails)}
    n = len(inner_pos)
    # Inner solve layout: inner columns first, then the source columns.
    col_pos = dict(inner_pos)
    col_pos.update((v, n + i) for v, i in src_pos.items())

    for _ in range(retries):
        work: list[list[int]] = []
        sink_rows: list[tuple[Node, int, list[tuple[Node, int]]]] = []
        for u in non_src:
            own = random_nonzero(rng, field)
            nbrs = [(w, random_nonzero(rng, field))
                    for w in dg.in_neighbors(u)]
            if u in inner_pos:
                row = [0] * (n + s)
                row[inner_pos[u]] = own
                for w, x in nbrs:
                    row[col_pos[w]] = x
                work.append(row)
            else:
                sink_rows.append((u, own, nbrs))
        inner_a = _solve_leading_block(p, work, n)
        if inner_a is None:
            continue
        a_rows = dict(zip(inner_pos, inner_a))
        # A_y = w_yy^-1 (C_y - sum_z w_yz A_z) over y's in-neighbors z.
        for y, own, nbrs in sink_rows:
            acc = [0] * s
            for w, x in nbrs:
                if w in src_pos:
                    acc[src_pos[w]] += x
                else:
                    acc = [a - x * b for a, b in zip(acc, a_rows[w])]
            inv = pow(own, -1, p)
            a_rows[y] = [a * inv % p for a in acc]
        cols = [[int(i == src_pos[x]) for i in range(s)] if x in src_pos
                else [-a % p for a in a_rows[x]] for x in ground]
        data = [col[i] for i in range(s) for col in cols]
        return MatroidRep(PrimeFieldMatrix(field, s, len(cols), data),
                          tuple(ground), s)
    raise RefusedError("transversal pattern kept losing rank; giving up")


def _solve_leading_block(p: int, work: list[list[int]],
                         n: int) -> list[list[int]] | None:
    """Rows of B^-1 C for work = [B | C] with B its leading n x n block, by
    forward elimination then back-substitution; None if B is singular.
    Overwrites `work`.
    """
    for r in range(n):
        piv = next((i for i in range(r, n) if work[i][r]), None)
        if piv is None:
            return None
        work[r], work[piv] = work[piv], work[r]
        row = work[r]
        inv = pow(row[r], -1, p)
        tail = [x * inv % p for x in row[r + 1:]]
        row[r + 1:] = tail
        for i in range(r + 1, n):
            f = work[i][r]
            if f:
                wi = work[i]
                wi[r + 1:] = [(a - f * b) % p
                              for a, b in zip(wi[r + 1:], tail)]
    out: list[list[int]] = [[]] * n
    for r in range(n - 1, -1, -1):
        row = work[r]
        acc = row[n:]
        for j in range(r + 1, n):
            f = row[j]
            if f:
                acc = [a - f * b for a, b in zip(acc, out[j])]
        out[r] = [a % p for a in acc]
    return out


def edge_cut_gammoid(field: PrimeField, rng: random.Random,
                     net: TerminalNetwork) -> MatroidRep:
    """Gammoid layer for a network: strict gammoid of the edge-adjacency
    digraph linked to the terminal-incident edges, over the full node set.
    Edge e enters candidate tuples through its sink-only copy ("zp", e).
    """
    inst = build_edge_cut_gammoid_digraph(net)
    return gammoid_rep(field, rng, inst.digraph, inst.sources, inst.ground)
