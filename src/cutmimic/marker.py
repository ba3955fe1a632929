"""Dense-case edge marking.

Stacks a layered matroid over the network (gammoid copies, a truncated
graphic layer, a uniform layer), forms one candidate tuple per edge, and
keeps the representative-set survivors. Unmarked edges are the contraction
candidates downstream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field, replace
from typing import Sequence

from .errors import InputError, InternalError, MarkingRefusedError
from .ffield import PrimeField
from .matroids import (
    LayeredMatroid,
    build_edge_cut_gammoid_digraph,
    gammoid_rep,
    graphic_rep,
    uniform_rep,
)
from .netgraph import (
    TerminalNetwork,
    components,
    delete_edges,
    t_capacity,
    terminal_capacity,
)
from .repset import CandidateFamily, representative_set_product

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
    c as for default_c, the cap as k^(c-i0) clamped to cap_ceiling.
    """

    c: int | None = None
    i0: int = DEFAULT_I0
    graphic_rank_cap: int | None = None
    cap_ceiling: int = GRAPHIC_CAP_CEILING
    tensor_limit: int = TENSOR_LIMIT
    field: PrimeField = dc_field(default_factory=PrimeField)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.i0 < 2:
            raise InputError("i0 must be at least 2 (one gammoid layer)")
        if self.c is not None:
            if self.c < 1:
                raise InputError("c must be a positive integer")
            if self.i0 > self.c:
                raise InputError(f"i0 = {self.i0} must not exceed c = {self.c}")
        if self.graphic_rank_cap is not None and self.graphic_rank_cap < 1:
            raise InputError("graphic_rank_cap must be positive")
        if self.cap_ceiling < 1 or self.tensor_limit < 1:
            raise InputError("ceilings must be positive")

    def resolve(self, k: int) -> "MarkParams":
        """Concrete params for a network with terminal capacity k."""
        if k < 1:
            raise InputError("terminal capacity must be at least 1")
        c = self.c if self.c is not None else default_c(k, self.i0)
        cap = self.graphic_rank_cap
        if cap is None:
            cap = min(k ** (c - self.i0), self.cap_ceiling)
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
    MarkingRefusedError when the tensor dimension exceeds the limit.
    """
    k = terminal_capacity(net)
    params = params.resolve(k)
    layered = build_marking_matroid(net, params)
    dim = 1
    for layer in layered.layers:
        dim *= layer.matrix.rows
    if dim > params.tensor_limit:
        raise MarkingRefusedError(
            f"tensor dimension {dim} exceeds limit {params.tensor_limit}; "
            f"lower c or i0, or raise the limit")
    assert len(layered.layers) == params.i0 + 1
    forced: list[int] = []
    tuples: list[tuple] = []
    for e in net.edge_ids():
        t = tuple(("zp", e) for _ in range(params.i0 - 1)) + (e, e)
        cols = layered.tuple_column(t)
        if any(not any(col) for col in cols):
            forced.append(e)
        else:
            tuples.append(t)
    family = CandidateFamily.product(tuples)
    kept = representative_set_product(layered, family, params.tensor_limit)
    survivors = {t[-1] for t in kept.sets}  # the uniform slot carries the id
    marked = tuple(sorted(survivors.union(forced)))
    # The rank bounds cover the survivors; forced edges come on top.
    bound = layered.rank_product()
    if len(survivors) > bound:
        raise InternalError(
            f"{len(survivors)} survivors exceed the rank product {bound}")
    assert params.c is not None and params.graphic_rank_cap is not None
    loose = k * params.graphic_rank_cap * k ** (params.i0 - 1)
    if len(survivors) > loose:
        raise InternalError(
            f"{len(survivors)} survivors exceed the loose bound {loose}")
    return MarkResult(marked, layered.ranks, dim, params.seed)


def covering_condition_holds(net: TerminalNetwork, X: Sequence[int],
                             i0: int, c: int,
                             bound_override: int | None = None) -> bool:
    """Components of G - X sorted by non-increasing cap_T (measured in G;
    ties: larger component first, then smaller least vertex): true iff the
    union of components from position i0 onward has at most k^(c-i0)
    vertices. bound_override substitutes for k^(c-i0) when the graphic
    layer actually ran at a clamped rank.
    """
    if i0 < 2 or c < i0:
        raise InputError("need 2 <= i0 <= c")
    k = terminal_capacity(net)
    bound = k ** (c - i0) if bound_override is None else bound_override
    remaining = delete_edges(net, X)
    comps = components(remaining)
    keyed = sorted(
        comps, key=lambda comp: (-t_capacity(net, set(comp)), -len(comp), comp[0]))
    tail = sum(len(comp) for comp in keyed[i0 - 1:])
    return tail <= bound
