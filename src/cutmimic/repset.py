"""Representative-set selection for linear matroids.

Both forms reduce a candidate family to a subfamily that still extends every
independent set the original family extended. The product form works on a
layered matroid and tensors one column per layer; the general form works on
s-subsets of a single represented matroid via s x s minor vectors.

Each form maps its candidates to a list of vectors and keeps the greedy
basis that ffield.select_independent_columns picks from that list, in
family order. The kept set depends only on which vectors are in the span
of earlier ones. In the general form the minors are taken over a row basis;
any row basis serves, because changing it multiplies every minor vector by
the same invertible matrix (the s-th compound of the change of basis).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Any, Sequence

from .errors import InputError, InternalError, RefusedError
from .ffield import (
    PrimeField,
    PrimeFieldMatrix,
    kronecker_column,
    select_independent_columns,
)
from .matroids import LayeredMatroid, MatroidRep

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


def representative_set_general(matrix: PrimeFieldMatrix,
                               family: CandidateFamily,
                               r: int | None = None) -> CandidateFamily:
    """General-form selection for s-subset families, s <= 3.

    Each candidate is mapped to the vector of its s x s minors, taken over
    row s-subsets of a row basis in lexicographic order, and a greedy
    maximal independent set of those vectors is kept in input order. The
    row basis is the greedy basis of the matrix rows. A
    survivor count above C(r+s, s), where r defaults to rank(matrix) - s,
    raises InternalError.
    """
    if family.mode != "general":
        raise InputError("general-form selection needs a general-mode family")
    s = family.s
    assert s is not None
    if s > 3:
        raise RefusedError(f"minor computation limited to s <= 3, got s={s}")
    field = matrix.field
    all_rows = [matrix.row(i) for i in range(matrix.rows)]
    basis = [all_rows[i] for i in select_independent_columns(field, all_rows)]
    rho = len(basis)
    if r is None:
        r = max(rho - s, 0)
    if rho > r + s:
        raise InputError(f"rank {rho} exceeds r+s = {r + s}")
    if not family.sets:
        return family
    cols = [[row[j] for row in basis] for j in range(matrix.cols)]
    vectors: list[list[int]] = []
    row_sets = list(combinations(range(rho), s))
    for t in family.sets:
        tcols = [cols[_locate_column(matrix, x)] for x in t]
        vec = [_minor(field, tcols, rows) for rows in row_sets]
        if not any(vec):
            raise InputError(f"dependent candidate set {t!r}")
        vectors.append(vec)
    keep = select_independent_columns(field, vectors)
    bound = comb(r + s, s)
    if len(keep) > bound:
        raise InternalError(
            f"{len(keep)} survivors exceed C(r+s, s) = {bound}")
    return family.subfamily(keep)


def _locate_column(matrix: PrimeFieldMatrix, x: Any) -> int:
    if not isinstance(x, int) or not 0 <= x < matrix.cols:
        raise InputError(
            f"general-mode elements are column indices; got {x!r}")
    return x


def _minor(field: PrimeField, cols: list[list[int]],
           rows: tuple[int, ...]) -> int:
    p = field.p
    if len(rows) == 1:
        return cols[0][rows[0]] % p
    if len(rows) == 2:
        (a, b), (c, d) = ((cols[0][rows[0]], cols[1][rows[0]]),
                          (cols[0][rows[1]], cols[1][rows[1]]))
        return (a * d - b * c) % p
    i, j, k = rows
    a, b, c = cols[0][i], cols[1][i], cols[2][i]
    d, e, f = cols[0][j], cols[1][j], cols[2][j]
    g, h, l = cols[0][k], cols[1][k], cols[2][k]
    return (a * (e * l - f * h) - b * (d * l - f * g)
            + c * (d * h - e * g)) % p


def extends(rep: MatroidRep, base: Sequence[Any], extra: Sequence[Any]) -> bool:
    """True when base and extra are disjoint and their union is independent."""
    if set(base) & set(extra):
        return False
    return rep.is_independent(list(base) + list(extra))
