"""Linear matroid representations over a prime field.

Three families feed the marking stage: gammoids on an edge-adjacency digraph
(via the dual-of-transversal construction), truncated graphic matroids, and
uniform matroids. A layered matroid stacks several representations over the
same ground set so that one column tuple can be read off per element. The
checks these constructions are tested against (gammoid independence by
vertex-disjoint paths, the direct sum as one block matrix) are reference
code in the test suite.

The gammoid is the costly layer. Its transversal pattern is block
lower-triangular: a node without out-arcs (every sink-only copy ("zp", e)
of the edge-cut digraph) is nobody's in-neighbor, so its column is zero
outside its own row. gammoid_rep therefore eliminates only the block of
non-source nodes that have out-arcs and reads each sink's part of the dual
off its own pattern row. The pattern is drawn in the same order as a full
reduction would draw it, the reduced form it stands for is unique, and the
two are singular together, so the result matches the full reduction bit for
bit, rng state and refusals included.

The inner block is eliminated on packed rows: each row is one Python int
holding one field entry per fixed-width slot, for n inner nodes
8 * (ceil((2 bitlen(p) + bitlen(n)) / 8) + 1) bits wide. Updating a row
below the pivot is then one big-int multiply-add and shift instead of a
loop over its entries. A slot starts below p and gains less than p^2 per
pivot, over at most n pivots, so it never carries into its neighbour: every
entry stays exact mod p, and the solve returns the same B^-1 C as an
elimination on lists of reduced entries.
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
        """Nodes are kept sorted by repr, arcs (deduplicated) by the
        positions of their tail and then their head in that node order.

        That arc order is the order of the arcs' own reprs whenever
        distinct nodes have distinct reprs and no node's repr is a proper
        prefix of another's that continues with "," or a character below
        it: only for such a pair can repr((u, v)) order two arcs against
        the node order. int, str and tuple nodes (of these) have no such
        pair, so for them the order is sorted(arcs, key=repr), without
        building a repr per arc.
        """
        self.nodes = tuple(sorted(set(nodes), key=repr))
        pos = {v: i for i, v in enumerate(self.nodes)}
        seen = set()
        for a in arcs:
            u, v = a
            if u not in pos or v not in pos:
                raise InputError(f"arc {a!r} references unknown node")
            if u == v:
                raise InputError(f"self-arc {a!r} not allowed")
            seen.add((u, v))
        n = len(pos)
        self.arcs = tuple(sorted(seen,
                                 key=lambda a: pos[a[0]] * n + pos[a[1]]))
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

    def tuple_column(self, t: Sequence[Any]) -> list[list[int]]:
        """Columns of a one-element-per-layer tuple, in layer order."""
        if len(t) != len(self.layers):
            raise InputError("tuple length must equal the layer count")
        return [layer.column_of(x) for layer, x in zip(self.layers, t)]


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

    Truncation is a random r x |V| projection of the signed incidence
    columns, drawn row-major; the result's matrix rank is checked against
    the declared rank and redrawn on the (vanishingly unlikely) deficiency.
    An incidence column is +1 at the lower endpoint and -1 at the higher,
    so each projected entry is read off directly as proj[i][lo] -
    proj[i][hi] mod p: the same matrix as the product, after the same draws.
    """
    if max_rank < 0:
        raise InputError("max_rank must be nonnegative")
    full_rank = net.n - len(components(net))
    r = min(max_rank, full_rank)
    ground = net.edge_ids()
    if r == full_rank:
        return MatroidRep(signed_incidence(field, net), ground, r)
    vidx = {v: i for i, v in enumerate(net.vertices)}
    ends = [(vidx[u], vidx[v]) if u < v else (vidx[v], vidx[u])
            for _, u, v in net.edges]
    for _ in range(retries):
        proj = [[rng.randrange(field.p) for _ in range(net.n)]
                for _ in range(r)]
        out = PrimeFieldMatrix(field, r, net.m, [
            prow[lo] - prow[hi] for prow in proj for lo, hi in ends])
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
    return GammoidInstance(Digraph(nodes, tuple(arcs)), sources, tuple(nodes))


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

    Each inner pattern row is built packed into one int, in the layout
    `_solve_leading_block` takes: the entry of solve column j (inner
    columns, then source columns) sits at bit j * _slot_bits(p, n).
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
    bits = _slot_bits(p, n)
    # Bit offset of each solve column: inner columns first, then sources.
    shift = {v: i * bits for v, i in inner_pos.items()}
    shift.update((v, (n + i) * bits) for v, i in src_pos.items())

    for _ in range(retries):
        work: list[int] = []
        sink_rows: list[tuple[Node, int, list[tuple[Node, int]]]] = []
        for u in non_src:
            own = random_nonzero(rng, field)
            nbrs = [(w, random_nonzero(rng, field))
                    for w in dg.in_neighbors(u)]
            if u in inner_pos:
                row = own << shift[u]
                for w, x in nbrs:
                    row |= x << shift[w]
                work.append(row)
            else:
                sink_rows.append((u, own, nbrs))
        inner_a = _solve_leading_block(p, work, n, s)
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


def _slot_bits(p: int, n: int) -> int:
    """Bits per field entry in the packed rows of an n-pivot solve mod p:
    whole bytes holding 2 bitlen(p) + bitlen(n) bits, plus one spare byte.
    A slot starts below p and each of at most n eliminations adds less than
    p^2 to it, so it stays below 2^(2 bitlen(p) + bitlen(n)) and never
    carries into the next slot.
    """
    return 8 * ((2 * p.bit_length() + n.bit_length() + 7) // 8 + 1)


def _solve_leading_block(p: int, work: list[int], n: int,
                         s: int) -> list[list[int]] | None:
    """Rows of B^-1 C for [B | C] with B its leading n x n block and C
    n x s, by forward elimination then back-substitution; None if B is
    singular. Overwrites `work`.

    Each row of [B | C] comes packed into one nonnegative int: column j in
    the `bits = _slot_bits(p, n)` bits from j * bits, as a value congruent
    to the entry mod p. Elimination step r keeps the rows at or below r
    shifted so that column r sits in slot 0; a row's lead is read as
    (row & mask) % p. Only the pivot row is unpacked. Its tail, scaled by
    the lead's inverse and reduced, is repacked one slot up, and each lower
    row with lead f becomes (row + (p - f) * tail) >> bits: one big-int
    multiply-add per row, which adds (p - f) t < p^2 to each slot. No slot
    carries (see `_slot_bits`), so every slot stays exact mod p and the
    result equals that of an elimination on reduced lists.
    """
    bits = _slot_bits(p, n)
    size = bits // 8
    mask = (1 << bits) - 1
    pivots: list[list[int]] = []
    for r in range(n):
        piv = next((i for i in range(r, n) if (work[i] & mask) % p), None)
        if piv is None:
            return None
        work[r], work[piv] = work[piv], work[r]
        width = (n + s - r) * size
        raw = work[r].to_bytes(width, "little")
        inv = pow(int.from_bytes(raw[:size], "little"), -1, p)
        tail = [int.from_bytes(raw[k:k + size], "little") * inv % p
                for k in range(size, width, size)]
        pivots.append(tail)
        up = int.from_bytes(b"".join(x.to_bytes(size, "little")
                                     for x in tail), "little") << bits
        for i in range(r + 1, n):
            row = work[i]
            f = (row & mask) % p
            work[i] = (row + (p - f) * up) >> bits if f else row >> bits
    # pivots[r] holds the reduced row r from column r + 1 on.
    out: list[list[int]] = [[]] * n
    for r in range(n - 1, -1, -1):
        row = pivots[r]
        acc = row[n - r - 1:]
        for f, sol in zip(row, out[r + 1:]):
            if f:
                acc = [a - f * b for a, b in zip(acc, sol)]
        out[r] = [a % p for a in acc]
    return out
