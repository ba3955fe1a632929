"""Linear matroid representations over a prime field.

Three families feed the marking stage: gammoids on an edge-adjacency digraph
(via the dual-of-transversal construction), truncated graphic matroids, and
uniform matroids. Each representation is a list of columns, one per ground
element, since the marker reads exactly one column per layer for each edge
and never a row. The truncated graphic layer checks its rank with the greedy
basis the selection runs (ffield.select_independent_columns), the engine's
one elimination routine. The checks these constructions are tested against
(independence as the rank of a column set, gammoid independence by
vertex-disjoint paths, the direct sum of layers) are reference code in the
test suite.

The gammoid is the costly layer. Its transversal pattern is block
lower-triangular: a node without out-arcs (every sink-only copy ("zp", e)
of the edge-cut digraph) is nobody's in-neighbor, so its column is zero
outside its own row. gammoid_rep therefore eliminates only the block of
non-source nodes that have out-arcs and reads each sink's part of the dual
off its own pattern row. The pattern is drawn in the same order as a full
reduction would draw it, the reduced form it stands for is unique, and the
two are singular together, so the result matches the full reduction bit for
bit, rng state and refusals included.

The edge-cut digraph is built from the network's incidence sets: each
edge's neighbor set is computed once and is the in-list of both its nodes,
so no arc list is generated, sorted or checked arc by arc. Its nodes and
in-lists come out in repr order, the order that fixes the pattern draws,
which are taken in one batch with the same values and rng state as one
randrange(1, p) per entry.

The inner block is eliminated on packed rows: each row is one Python int
holding one field entry per fixed-width slot, for n inner nodes
8 * (ceil((2 bitlen(p) + bitlen(n)) / 8) + 1) bits wide. Updating a row
below the pivot is then one big-int multiply-add and shift instead of a
loop over its entries. The rows of A = B^-1 C stay packed, one slot per
source, through back-substitution and into each sink's row, where every
in-neighbor term is again one multiply-add. Every packed sum is below
p + n p^2 per slot, whatever the number of sources (a sink's source
in-neighbors land in distinct slots), so no slot carries into its
neighbour: every entry stays exact mod p, and the result is the same as
an elimination on lists of reduced entries.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field as dc_field
from itertools import islice, repeat
from operator import lshift
from typing import Any, Hashable, Mapping, Sequence

from .errors import InputError, RefusedError
from .ffield import (
    PrimeField,
    random_nonzeros,
    select_independent_columns,
    vandermonde,
)
from .netgraph import TerminalNetwork, components

Node = Hashable


class Digraph:
    """Immutable digraph stored as in-neighbor lists.

    `ins` maps every node to the tuple of its in-neighbors. The node order is
    the mapping's key order and each in-list keeps its order; together they
    fix the order in which gammoid_rep draws its pattern, so callers pass
    both in a canonical order (build_edge_cut_gammoid_digraph uses repr
    order). The constructor refuses an in-neighbor that is not a node, a
    node listed among its own in-neighbors and an in-list that repeats a
    node, with set operations per node rather than a loop per arc.
    """

    __slots__ = ("nodes", "_in")

    def __init__(self, ins: Mapping[Node, Sequence[Node]]):
        self.nodes = tuple(ins)
        self._in = {v: tuple(ws) for v, ws in ins.items()}
        if not set().union(*self._in.values()) <= self._in.keys():
            raise InputError("an arc references an unknown node")
        for v, ws in self._in.items():
            if v in ws:
                raise InputError(f"self-arc at {v!r} not allowed")
            if len(set(ws)) != len(ws):
                raise InputError(f"repeated arc into {v!r}")

    def in_neighbors(self, v: Node) -> tuple[Node, ...]:
        return self._in[v]


@dataclass(frozen=True)
class MatroidRep:
    """`columns[j]` represents `ground[j]`: `rows` reduced entries each.
    `rank` is the rank the construction is entitled to claim, which bounds
    (and for the exact constructions equals) the rank of the columns.
    """

    rows: int
    columns: Sequence[list[int]]
    ground: tuple[Any, ...]
    rank: int
    _index: dict[Any, int] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.ground) != len(self.columns):
            raise InputError("ground size does not match column count")
        if any(len(col) != self.rows for col in self.columns):
            raise InputError("column length does not match the row count")
        index = {x: j for j, x in enumerate(self.ground)}
        if len(index) != len(self.ground):
            raise InputError("duplicate ground elements")
        if self.rank < 0 or self.rank > self.rows:
            raise InputError("declared rank out of range")
        object.__setattr__(self, "_index", index)

    def column_of(self, x: Any) -> list[int]:
        """The stored column of ground element x."""
        try:
            return self.columns[self._index[x]]
        except (KeyError, TypeError):
            raise InputError(f"{x!r} is not a ground element") from None


def signed_incidence(field: PrimeField,
                     net: TerminalNetwork) -> list[list[int]]:
    """Columns of the |V| x |E| incidence matrix in edge id order, +1 at
    the lower-numbered endpoint and -1 at the other; rows follow sorted
    vertex order.
    """
    vidx = {v: i for i, v in enumerate(net.vertices)}
    cols = []
    for _, u, v in net.edges:
        col = [0] * net.n
        col[vidx[min(u, v)]] = 1
        col[vidx[max(u, v)]] = field.p - 1
        cols.append(col)
    return cols


def uniform_rep(field: PrimeField, ground: Sequence[Any], r: int) -> MatroidRep:
    """U(ground, r) via Vandermonde columns on points 1..|ground|."""
    r = min(r, len(ground))
    pts = list(range(1, len(ground) + 1))
    return MatroidRep(r, vandermonde(field, r, pts), tuple(ground), r)


def graphic_rep(field: PrimeField, rng: random.Random, net: TerminalNetwork,
                max_rank: int, retries: int = 8,
                full_rank: int | None = None) -> MatroidRep:
    """Graphic matroid of the network truncated to rank at most max_rank.

    The layer has n rows (the signed incidence, untruncated) when max_rank
    reaches the full rank n - #components, and max_rank rows otherwise. A
    caller that already counted the components passes the full rank.

    Truncation is a random r x |V| projection of the signed incidence
    columns, drawn row-major; the projected columns are redrawn on the
    (vanishingly unlikely) event that they span less than r dimensions,
    which the greedy basis decides. An incidence column is +1 at the lower
    endpoint and -1 at the higher, so each projected entry is read off
    directly as proj[i][lo] - proj[i][hi] mod p: the same columns as the
    product, after the same draws.
    """
    if max_rank < 0:
        raise InputError("max_rank must be nonnegative")
    if full_rank is None:
        full_rank = net.n - len(components(net))
    r = min(max_rank, full_rank)
    ground = net.edge_ids()
    if r == full_rank:
        return MatroidRep(net.n, signed_incidence(field, net), ground, r)
    p = field.p
    vidx = {v: i for i, v in enumerate(net.vertices)}
    ends = [(vidx[u], vidx[v]) if u < v else (vidx[v], vidx[u])
            for _, u, v in net.edges]
    for _ in range(retries):
        proj = [[rng.randrange(p) for _ in range(net.n)] for _ in range(r)]
        cols = [[(prow[lo] - prow[hi]) % p for prow in proj]
                for lo, hi in ends]
        if len(select_independent_columns(field, cols)) == r:
            return MatroidRep(r, cols, ground, r)
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

    So ("z", e) and ("zp", e) share one in-list: the ("z", f) of the edges
    f != e that share an endpoint with e, read off the incidence sets of
    e's endpoints. Nodes are in repr order, every ("z", _) before every
    ("zp", _) and str(e) order within each block, and each in-list in node
    order.
    """
    order = sorted(net.edge_ids(), key=str)
    z = {e: ("z", e) for e in order}
    pos = {e: i for i, e in enumerate(order)}
    incident: dict[int, set[int]] = {v: set() for v in net.vertices}
    for e, u, v in net.edges:
        incident[u].add(e)
        incident[v].add(e)
    near: dict[int, tuple[Node, ...]] = {}
    for e, u, v in net.edges:
        nbrs = incident[u] | incident[v]
        nbrs.discard(e)
        near[e] = tuple(map(z.__getitem__, sorted(nbrs, key=pos.__getitem__)))
    ins = {z[e]: near[e] for e in order}
    ins.update((("zp", e), near[e]) for e in order)
    tset = set(net.terminals)
    sources = tuple(z[e] for e, u, v in net.edges
                    if u in tset or v in tset)
    eids = net.edge_ids()
    ground = tuple(z[e] for e in eids) + tuple(("zp", e) for e in eids)
    return GammoidInstance(Digraph(ins), sources, ground)


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
    columns, then source columns) sits at bit j * _slot_bits(p, n). The
    rows of A come back packed the same way, one slot per source, and a
    sink y's row is w_yy^-1 (C_y + sum (p - w_yz) A_z) over its inner
    in-neighbors z: one multiply-add per in-neighbor. Each slot of that
    sum holds at most one source entry (below p; Digraph refuses repeated
    arcs) and at most n terms below p^2, the bound `_slot_bits` is sized
    for, whatever s is.
    """
    src = set(sources)
    if not src <= set(dg.nodes):
        raise InputError("sources must be digraph nodes")
    if not set(ground) <= set(dg.nodes):
        raise InputError("ground must be digraph nodes")
    p = field.p
    tails = set().union(*map(dg.in_neighbors, dg.nodes))
    non_src = [v for v in dg.nodes if v not in src]
    src_pos = {v: i for i, v in enumerate(x for x in dg.nodes if x in src)}
    s = len(src_pos)
    inner_pos = {v: i for i, v in enumerate(u for u in non_src if u in tails)}
    n = len(inner_pos)
    bits = _slot_bits(p, n)
    size = bits // 8
    # Bit offset of each solve column: inner columns first, then sources.
    shift = {v: i * bits for v, i in inner_pos.items()}
    shift.update((v, (n + i) * bits) for v, i in src_pos.items())
    ins = [dg.in_neighbors(u) for u in non_src]
    # Where each in-neighbor's entry goes: in an inner row, the bit offset
    # of its solve column; in a sink's sum, the bit offset of its slot in a
    # packed row of A for a source, None for an inner in-neighbor.
    layout = [[shift[w] for w in ws] if u in inner_pos
              else [shift[w] - n * bits if w in src_pos else None
                    for w in ws]
              for u, ws in zip(non_src, ins)]
    count = len(non_src) + sum(map(len, ins))

    for _ in range(retries):
        draws = iter(random_nonzeros(rng, field, count))
        work: list[int] = []
        sinks = []
        for u, ws, offsets in zip(non_src, ins, layout):
            own = next(draws)
            xs = list(islice(draws, len(ws)))
            if u in inner_pos:
                work.append(sum(map(lshift, xs, offsets), own << shift[u]))
            else:
                sinks.append((u, own, ws, xs, offsets))
        inner_a = _solve_leading_block(p, work, n, s)
        if inner_a is None:
            continue
        a_rows = dict(zip(inner_pos, inner_a))
        neg_a = {u: [-a % p for a in _unpack(row, size, s)]
                 for u, row in a_rows.items()}
        for y, own, ws, xs, offsets in sinks:
            acc = 0
            for w, x, offset in zip(ws, xs, offsets):
                if offset is None:
                    acc += (p - x) * a_rows[w]
                else:
                    acc += x << offset
            inv = pow(own, -1, p)
            neg_a[y] = [-a * inv % p for a in _unpack(acc, size, s)]
        cols = [[int(i == src_pos[x]) for i in range(s)] if x in src_pos
                else neg_a[x] for x in ground]
        return MatroidRep(s, cols, tuple(ground), s)
    raise RefusedError("transversal pattern kept losing rank; giving up")


def _unpack(row: int, size: int, count: int) -> list[int]:
    """The `count` slots of a packed row, `size` bytes each, from slot 0."""
    raw = row.to_bytes(count * size, "little")
    return list(map(int.from_bytes, struct.unpack(f"{size}s" * count, raw),
                    repeat("little")))


def _pack(values: Sequence[int], size: int) -> int:
    """Inverse of `_unpack` for values below 2^(8 size)."""
    return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(size),
                                       repeat("little"))), "little")


def _slot_bits(p: int, n: int) -> int:
    """Bits per field entry in the packed rows of an n-pivot solve mod p:
    whole bytes holding 2 bitlen(p) + bitlen(n) bits, plus one spare byte.
    Every packed sum the gammoid layer forms is below p + n p^2 in each
    slot: an entry below p plus at most n products of two reduced entries
    (elimination: a slot gains less than p^2 per pivot over at most n
    pivots; back-substitution: at most n - 1 solved rows; a sink's row: at
    most n inner in-neighbors, its source in-neighbors one entry each in
    their own slots). So a slot stays below 2^(2 bitlen(p) + bitlen(n))
    and never carries into the next one.
    """
    return 8 * ((2 * p.bit_length() + n.bit_length() + 7) // 8 + 1)


def _solve_leading_block(p: int, work: list[int], n: int,
                         s: int) -> list[int] | None:
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
    multiply-add per row, which adds (p - f) t < p^2 to each slot.

    Each returned row of B^-1 C is packed the same way, s reduced slots
    from slot 0. Back-substitution keeps the pivot rows' C parts packed, so
    row r is its C part plus (p - f) times each later solved row with a
    nonzero coefficient f, again one multiply-add per term, and is reduced
    slot by slot once. No slot carries (see `_slot_bits`), so every slot
    stays exact mod p and the result equals that of an elimination on
    reduced lists.
    """
    bits = _slot_bits(p, n)
    size = bits // 8
    mask = (1 << bits) - 1
    pivots: list[tuple[list[int], int]] = []
    for r in range(n):
        piv = next((i for i in range(r, n) if (work[i] & mask) % p), None)
        if piv is None:
            return None
        work[r], work[piv] = work[piv], work[r]
        lead, *rest = _unpack(work[r], size, n + s - r)
        inv = pow(lead, -1, p)
        tail = [x * inv % p for x in rest]
        packed = _pack(tail, size)
        up = packed << bits
        # Row r's B coefficients past column r, and its C part packed.
        pivots.append((tail[:n - r - 1], packed >> ((n - r - 1) * bits)))
        for i in range(r + 1, n):
            row = work[i]
            f = (row & mask) % p
            work[i] = (row + (p - f) * up) >> bits if f else row >> bits
    out = [0] * n
    for r in range(n - 1, -1, -1):
        coefs, acc = pivots[r]
        for f, sol in zip(coefs, out[r + 1:]):
            if f:
                acc += (p - f) * sol
        out[r] = _pack([a % p for a in _unpack(acc, size, s)], size)
    return out
