"""Dense-case edge marking.

Stacks matroid layers over the network (gammoid copies, a truncated graphic
layer, a uniform layer), reads each edge's columns from them once, and
keeps the representative-set survivors among the edges whose columns are
all nonzero. Unmarked edges are the contraction candidates downstream.

Whether a call is refused is decided before any rng draw or layer build.
The layers' row counts follow from the network and the resolved params
alone (layer_rows): the number s of terminal-incident edges (the gammoid
sources) for each of the i0 - 1 gammoid layers; n for the graphic layer
when its rank cap reaches the full rank n - #components, the cap
otherwise; min(k, m) for the uniform layer. The tensor dimension is
s^(i0-1) times the other two, so a refused call costs a component count.
The builders' actual row counts are checked against these afterwards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field, replace
from math import prod

from .errors import InputError, InternalError, MarkingRefusedError
from .ffield import PrimeField, check_points
from .matroids import (
    MatroidRep,
    build_edge_cut_gammoid_digraph,
    gammoid_rep,
    graphic_rep,
    uniform_rep,
)
from .netgraph import TerminalNetwork, components, terminal_capacity
from .oracles import validate_seed
from .repset import representative_set_product
from .tester import validate_c

DEFAULT_I0 = 4
GRAPHIC_CAP_CEILING = 256
TENSOR_LIMIT = 2048


def default_c(k: int, i0: int) -> int:
    """Smallest c with (4/3)^c >= k^(i0+1), floored at i0.

    Integer search on 4^c >= 3^c * k^(i0+1); no logarithms, no rounding.
    """
    target = k ** (i0 + 1)
    c = 1
    while 4 ** c < 3 ** c * target:
        c += 1
    return max(c, i0)


@dataclass(frozen=True)
class MarkParams:
    """Marking knobs. c and graphic_rank_cap of None mean "derive from k":
    c as for default_c, the cap as k^(c-i0) clamped to GRAPHIC_CAP_CEILING.
    The seed must lie in 0 .. 2^64 - 1 (oracles.validate_seed).
    """

    c: int | None = None
    i0: int = DEFAULT_I0
    graphic_rank_cap: int | None = None
    field: PrimeField = dc_field(default_factory=PrimeField)
    seed: int = 0

    def __post_init__(self) -> None:
        validate_seed(self.seed)
        if self.i0 < 2:
            raise InputError("i0 must be at least 2 (one gammoid layer)")
        if self.c is not None:
            validate_c(self.c)
            if self.i0 > self.c:
                raise InputError(f"i0 = {self.i0} must not exceed c = {self.c}")
        if self.graphic_rank_cap is not None and self.graphic_rank_cap < 1:
            raise InputError("graphic_rank_cap must be positive")

    def resolve(self, k: int) -> "MarkParams":
        """Concrete params for a network with terminal capacity k."""
        if k < 1:
            raise InputError("terminal capacity must be at least 1")
        c = self.c if self.c is not None else default_c(k, self.i0)
        cap = self.graphic_rank_cap
        if cap is None:
            cap = min(k ** (c - self.i0), GRAPHIC_CAP_CEILING)
            cap = max(cap, 1)
        return replace(self, c=c, graphic_rank_cap=cap)


@dataclass(frozen=True)
class MarkResult:
    marked: tuple[int, ...]
    layer_ranks: tuple[int, ...]
    tensor_dim: int
    seed: int


def layer_rows(net: TerminalNetwork, params: MarkParams, k: int,
               full_rank: int) -> tuple[int, ...]:
    """Row counts of the layers build_marking_matroid builds on a network
    of terminal capacity k and full graphic rank n - #components, under
    params resolved for k: s per gammoid layer, s the number of
    terminal-incident edges; n for the graphic layer if the rank cap is at
    least full_rank, the cap otherwise; min(k, m) for the uniform layer.
    """
    cap = params.graphic_rank_cap
    assert cap is not None
    tset = set(net.terminals)
    sources = sum(u in tset or v in tset for _, u, v in net.edges)
    graphic = net.n if cap >= full_rank else cap
    return (sources,) * (params.i0 - 1) + (graphic, min(k, net.m))


def build_marking_matroid(net: TerminalNetwork,
                          params: MarkParams) -> tuple[MatroidRep, ...]:
    """The layers, in order: (i0-1) independently randomized gammoid
    layers, one graphic layer truncated to the resolved rank cap, one
    uniform layer of rank k.

    Before any draw or build, from layer_rows: raises FieldTooSmallError
    when p does not exceed m (the uniform layer's points are 1..m), then
    MarkingRefusedError when the tensor dimension, the product of the row
    counts, exceeds TENSOR_LIMIT. Raises InternalError when a built layer's
    row count differs from its predicted one.
    """
    k = terminal_capacity(net)
    params = params.resolve(k)
    assert params.c is not None and params.graphic_rank_cap is not None
    full_rank = net.n - len(components(net))
    rows = layer_rows(net, params, k, full_rank)
    check_points(params.field, range(1, net.m + 1))
    dim = prod(rows)
    if dim > TENSOR_LIMIT:
        raise MarkingRefusedError(
            f"tensor dimension {dim} exceeds limit {TENSOR_LIMIT}; "
            f"lower c or i0")
    rng = random.Random(params.seed)
    inst = build_edge_cut_gammoid_digraph(net)
    layers = [
        gammoid_rep(params.field, rng, inst.digraph, inst.sources, inst.ground)
        for _ in range(params.i0 - 1)
    ]
    layers.append(graphic_rep(params.field, rng, net, params.graphic_rank_cap,
                              full_rank=full_rank))
    layers.append(uniform_rep(params.field, net.edge_ids(), k))
    built = tuple(layer.rows for layer in layers)
    if built != rows:
        raise InternalError(
            f"layer row counts {built} differ from the predicted {rows}")
    return tuple(layers)


def mark(net: TerminalNetwork, params: MarkParams) -> MarkResult:
    """Marked edge set via product-form representative selection.

    Edge e reads the column of ("zp", e) in each gammoid layer and of e in
    the graphic and uniform layers, scanning edges in id order. An edge
    with a zero column in some layer is marked unconditionally, since only
    dropping edges can lose information; the others are the candidates.
    Raises what build_marking_matroid raises: FieldTooSmallError when
    p <= m and MarkingRefusedError when the tensor dimension
    s^(i0-1) * g * min(k, m) exceeds TENSOR_LIMIT, both decided from the
    layers' row counts before any draw (s terminal-incident edges, g the
    graphic layer's rows, see layer_rows). Raises InternalError when more
    candidates survive than the product of the layer ranks allows (forced
    edges come on top of that bound).
    """
    layers = build_marking_matroid(net, params)
    dim = prod(layer.rows for layer in layers)
    forced: list[int] = []
    candidates: list[int] = []
    family: list[list[list[int]]] = []
    for e in net.edge_ids():
        keys = (("zp", e),) * (params.i0 - 1) + (e, e)
        cols = [layer.column_of(x) for layer, x in zip(layers, keys)]
        if all(map(any, cols)):
            candidates.append(e)
            family.append(cols)
        else:
            forced.append(e)
    kept = representative_set_product(params.field, family)
    ranks = tuple(layer.rank for layer in layers)
    bound = prod(ranks)
    if len(kept) > bound:
        raise InternalError(
            f"{len(kept)} survivors exceed the rank product {bound}")
    marked = tuple(sorted(forced + [candidates[i] for i in kept]))
    return MarkResult(marked, ranks, dim, params.seed)
