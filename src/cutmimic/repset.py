"""Product-form representative-set selection over a product of linear
matroids.

A candidate is a tuple of columns, one per layer in layer order. The
selection tensors each candidate's columns and keeps the greedy basis that
ffield.select_independent_columns picks from those tensors, in family
order, so the kept set depends only on which tensors are in the span of
earlier ones. The caller reads the columns, drops candidates with a zero
column, bounds the tensor dimension and checks the survivors against the
rank product (the marker does all four).
"""

from __future__ import annotations

from typing import Sequence

from .ffield import PrimeField, kronecker_column, select_independent_columns


def representative_set_product(field: PrimeField,
                               family: Sequence[Sequence[Sequence[int]]],
                               ) -> list[int]:
    """Indices, in input order, of the candidates whose tensors a greedy
    scan in input order keeps independent.
    """
    return select_independent_columns(
        field, [kronecker_column(field, cols) for cols in family])
