"""Product-form representative-set selection for layered linear matroids.

The selection reduces a candidate family, a sequence of tuples with one
ground element per layer in layer order, to a subfamily that still extends
every independent set the original family extended. It tensors one column
per layer for each candidate and keeps the greedy basis that
ffield.select_independent_columns picks from those tensors, in family
order, so the kept set depends only on which tensors are in the span of
earlier ones. The tensor dimension is bounded by the caller (the marker
refuses above its tensor limit) and by kronecker_column's own guard.
"""

from __future__ import annotations

from typing import Any, Sequence

from .errors import InputError, InternalError
from .ffield import kronecker_column, select_independent_columns
from .matroids import LayeredMatroid


def representative_set_product(matroid: LayeredMatroid,
                               family: Sequence[Sequence[Any]],
                               ) -> list[Sequence[Any]]:
    """Product-form selection: tensor the per-layer columns of each tuple and
    keep a greedy maximal independent set of tensors, scanning in input order.
    Returns the kept tuples in input order.

    Every tuple must be independent in the layered matroid, i.e. no layer may
    assign it a zero column. A survivor count above the product of the
    declared layer ranks raises InternalError.
    """
    field = matroid.layers[0].matrix.field
    tensors: list[list[int]] = []
    for t in family:
        cols = matroid.tuple_column(t)
        for x, col in zip(t, cols):
            if not any(col):
                raise InputError(f"dependent tuple: {x!r} has a zero column")
        tensors.append(kronecker_column(field, cols))
    keep = select_independent_columns(field, tensors)
    bound = matroid.rank_product()
    if len(keep) > bound:
        raise InternalError(
            f"{len(keep)} survivors exceed the rank product {bound}")
    return [family[i] for i in keep]
