"""Dense-case edge marking.

Stacks a layered matroid over the network (gammoid copies, a truncated
graphic layer, a uniform layer), forms one candidate tuple per edge, and
keeps the representative-set survivors. Unmarked edges are the contraction
candidates downstream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field, replace

from .errors import InputError, InternalError, MarkingRefusedError
from .ffield import PrimeField
from .matroids import (
    LayeredMatroid,
    build_edge_cut_gammoid_digraph,
    gammoid_rep,
    graphic_rep,
    uniform_rep,
)
from .netgraph import TerminalNetwork, terminal_capacity
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
    """

    c: int | None = None
    i0: int = DEFAULT_I0
    graphic_rank_cap: int | None = None
    field: PrimeField = dc_field(default_factory=PrimeField)
    seed: int = 0

    def __post_init__(self) -> None:
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


def build_marking_matroid(net: TerminalNetwork,
                          params: MarkParams) -> LayeredMatroid:
    """(i0-1) independently randomized gammoid layers, one graphic layer
    truncated to the resolved rank cap, one uniform layer of rank k.
    """
    k = terminal_capacity(net)
    params = params.resolve(k)
    assert params.c is not None and params.graphic_rank_cap is not None
    rng = random.Random(params.seed)
    inst = build_edge_cut_gammoid_digraph(net)
    layers = [
        gammoid_rep(params.field, rng, inst.digraph, inst.sources, inst.ground)
        for _ in range(params.i0 - 1)
    ]
    layers.append(graphic_rep(params.field, rng, net, params.graphic_rank_cap))
    layers.append(uniform_rep(params.field, net.edge_ids(), k))
    return LayeredMatroid(tuple(layers))


def mark(net: TerminalNetwork, params: MarkParams) -> MarkResult:
    """Marked edge set via product-form representative selection.

    Candidate tuples scan edges in id order; an edge whose tuple is
    dependent (a zero column in some layer) is marked unconditionally,
    since only dropping edges can lose information. Raises
    MarkingRefusedError when the tensor dimension exceeds TENSOR_LIMIT.
    """
    k = terminal_capacity(net)
    params = params.resolve(k)
    layered = build_marking_matroid(net, params)
    dim = 1
    for layer in layered.layers:
        dim *= layer.matrix.rows
    if dim > TENSOR_LIMIT:
        raise MarkingRefusedError(
            f"tensor dimension {dim} exceeds limit {TENSOR_LIMIT}; "
            f"lower c or i0")
    if len(layered.layers) != params.i0 + 1:
        raise InternalError(
            f"{len(layered.layers)} layers built for i0 = {params.i0}")
    forced: list[int] = []
    tuples: list[tuple] = []
    for e in net.edge_ids():
        t = tuple(("zp", e) for _ in range(params.i0 - 1)) + (e, e)
        cols = layered.tuple_column(t)
        if any(not any(col) for col in cols):
            forced.append(e)
        else:
            tuples.append(t)
    kept = representative_set_product(layered, tuples)
    survivors = {t[-1] for t in kept}  # the uniform slot carries the id
    marked = tuple(sorted(survivors.union(forced)))
    # The rank bounds (the rank product, checked in repset, and the loose
    # bound here) cover the survivors; forced edges come on top.
    assert params.c is not None and params.graphic_rank_cap is not None
    loose = k * params.graphic_rank_cap * k ** (params.i0 - 1)
    if len(survivors) > loose:
        raise InternalError(
            f"{len(survivors)} survivors exceed the loose bound {loose}")
    return MarkResult(marked, layered.ranks, dim, params.seed)
