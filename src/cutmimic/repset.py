"""Product-form representative-set selection for layered linear matroids.

The selection reduces a candidate family to a subfamily that still extends
every independent set the original family extended. It tensors one column
per layer for each candidate and keeps the greedy basis that
ffield.select_independent_columns picks from those tensors, in family
order, so the kept set depends only on which tensors are in the span of
earlier ones.

CandidateFamily also validates general-mode families (s-subsets of one
ground set); the general form that reads them is reference code in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .errors import InputError, InternalError
from .ffield import kronecker_column, select_independent_columns
from .matroids import LayeredMatroid

DEFAULT_TENSOR_LIMIT = 4096


@dataclass(frozen=True)
class CandidateFamily:
    """Ordered family of candidate tuples.

    Product mode: each tuple picks exactly one ground element per layer, in
    layer order. General mode: each tuple is an s-subset of one ground set.
    """

    sets: tuple[tuple[Any, ...], ...]
    mode: str  # "product" or "general"
    s: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("product", "general"):
            raise InputError(f"unknown candidate mode {self.mode!r}")
        if self.mode == "general":
            if self.s is None or self.s < 1:
                raise InputError("general mode needs s >= 1")
            if any(len(t) != self.s for t in self.sets):
                raise InputError("general-mode tuples must have size s")
            if any(len(set(t)) != len(t) for t in self.sets):
                raise InputError("general-mode tuples must not repeat elements")
        elif self.s is not None:
            raise InputError("product mode takes no s")

    @staticmethod
    def product(sets: Sequence[Sequence[Any]]) -> "CandidateFamily":
        return CandidateFamily(tuple(tuple(t) for t in sets), "product")

    @staticmethod
    def general(sets: Sequence[Sequence[Any]], s: int) -> "CandidateFamily":
        return CandidateFamily(tuple(tuple(t) for t in sets), "general", s)

    def __len__(self) -> int:
        return len(self.sets)

    def subfamily(self, keep: Sequence[int]) -> "CandidateFamily":
        return CandidateFamily(tuple(self.sets[i] for i in keep),
                               self.mode, self.s)


def representative_set_product(matroid: LayeredMatroid, family: CandidateFamily,
                               dim_limit: int = DEFAULT_TENSOR_LIMIT,
                               ) -> CandidateFamily:
    """Product-form selection: tensor the per-layer columns of each tuple and
    keep a greedy maximal independent set of tensors, scanning in input order.

    Every tuple must be independent in the layered matroid, i.e. no layer may
    assign it a zero column. A survivor count above the product of the
    declared layer ranks raises InternalError.
    """
    if family.mode != "product":
        raise InputError("product-form selection needs a product-mode family")
    field = matroid.layers[0].matrix.field
    tensors: list[list[int]] = []
    for t in family.sets:
        cols = matroid.tuple_column(t)
        for x, col in zip(t, cols):
            if not any(col):
                raise InputError(f"dependent tuple: {x!r} has a zero column")
        tensors.append(kronecker_column(field, cols, dim_limit))
    keep = select_independent_columns(field, tensors)
    bound = matroid.rank_product()
    if len(keep) > bound:
        raise InternalError(
            f"{len(keep)} survivors exceed the rank product {bound}")
    return family.subfamily(keep)
