"""Prime-field scalars and dense matrices.

Entries are plain Python ints reduced into [0, p). The default modulus is the
Mersenne prime 2^61 - 1; products of two reduced entries exceed 64 bits, which
is why matrices are row-major int lists rather than fixed-width arrays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FieldTooSmallError, InputError, RefusedError

MERSENNE61 = (1 << 61) - 1

# Deterministic Miller-Rabin witness set, exact for all n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng: random.Random) -> int:
    """Uniform-ish random prime with the given bit length, bits in [32, 62]."""
    if not 32 <= bits <= 62:
        raise InputError(f"prime bit length must be in [32, 62], got {bits}")
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(cand):
            return cand


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic context F_p."""

    p: int = MERSENNE61

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise InputError(f"{self.p} is not prime")
        if self.p < 3:
            raise InputError("modulus must be an odd prime")

    def reduce(self, x: int) -> int:
        return x % self.p

    def inv(self, x: int) -> int:
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, -1, self.p)


class PrimeFieldMatrix:
    """Dense row-major matrix over a prime field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: PrimeField, rows: int, cols: int,
                 data: list[int] | None = None):
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        self.field = field
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [0] * (rows * cols)
        else:
            if len(data) != rows * cols:
                raise InputError("data length does not match dimensions")
            self.data = [x % field.p for x in data]

    @staticmethod
    def zeros(field: PrimeField, rows: int, cols: int) -> "PrimeFieldMatrix":
        return PrimeFieldMatrix(field, rows, cols)

    @staticmethod
    def identity(field: PrimeField, nn: int) -> "PrimeFieldMatrix":
        m = PrimeFieldMatrix(field, nn, nn)
        for i in range(nn):
            m.data[i * nn + i] = 1
        return m

    @staticmethod
    def from_rows(field: PrimeField, rows: Sequence[Sequence[int]]) -> "PrimeFieldMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise InputError("ragged rows")
        flat = [x for row in rows for x in row]
        return PrimeFieldMatrix(field, r, c, flat)

    def entry(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> list[int]:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> list[int]:
        return self.data[j::self.cols] if self.cols else []

    def transpose(self) -> "PrimeFieldMatrix":
        out = PrimeFieldMatrix(self.field, self.cols, self.rows)
        for i in range(self.rows):
            base = i * self.cols
            for j in range(self.cols):
                out.data[j * self.rows + i] = self.data[base + j]
        return out

    def submatrix_columns(self, col_idxs: Sequence[int]) -> "PrimeFieldMatrix":
        out = PrimeFieldMatrix(self.field, self.rows, len(col_idxs))
        for i in range(self.rows):
            base = i * self.cols
            obase = i * len(col_idxs)
            for jj, j in enumerate(col_idxs):
                out.data[obase + jj] = self.data[base + j]
        return out

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols} {self.field.p}"]
        for i in range(self.rows):
            lines.append(" ".join(str(x) for x in self.row(i)))
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PrimeFieldMatrix)
                and self.field.p == other.field.p
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)


def rank(matrix: PrimeFieldMatrix) -> int:
    """Rank by fraction-free elimination with partial pivoting by first
    nonzero. Eliminates on whichever orientation has fewer rows.
    """
    if matrix.rows > matrix.cols:
        matrix = matrix.transpose()
    p = matrix.field.p
    work = [matrix.row(i) for i in range(matrix.rows)]
    r = 0
    for col in range(matrix.cols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][col]
        for i in range(r + 1, len(work)):
            f = work[i][col]
            if f:
                ri, rr = work[i], work[r]
                work[i] = [(lead * a - f * b) % p for a, b in zip(ri, rr)]
        r += 1
        if r == len(work):
            break
    return r


def row_basis(matrix: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Echelon basis of the row space (the nonzero rows after elimination)."""
    p = matrix.field.p
    work = [matrix.row(i) for i in range(matrix.rows)]
    out: list[list[int]] = []
    r = 0
    for col in range(matrix.cols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][col]
        for i in range(r + 1, len(work)):
            f = work[i][col]
            if f:
                work[i] = [(lead * a - f * b) % p
                           for a, b in zip(work[i], work[r])]
        out.append(work[r])
        r += 1
        if r == len(work):
            break
    return PrimeFieldMatrix(matrix.field, len(out), matrix.cols,
                            [x for row in out for x in row])


def select_independent_columns(matrix: PrimeFieldMatrix,
                               order: Sequence[int] | None = None) -> list[int]:
    """Greedy maximal independent column set, scanning in the given order
    (default 0..cols-1). Returns the kept column indices in scan order.
    """
    p = matrix.field.p
    idxs = list(range(matrix.cols)) if order is None else list(order)
    pivots: list[tuple[int, list[int], int]] = []  # (lead position, vector, inv(lead))
    kept: list[int] = []
    for j in idxs:
        v = matrix.column(j)
        for pos, pvec, pinv in pivots:
            f = v[pos]
            if f:
                scale = f * pinv % p
                v = [(a - scale * b) % p for a, b in zip(v, pvec)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        kept.append(j)
        pivots.append((lead, v, pow(v[lead], -1, p)))
        pivots.sort(key=lambda t: t[0])
    return kept


def kronecker_column(field: PrimeField, vectors: Sequence[Sequence[int]],
                     dim_limit: int = 1_000_000) -> list[int]:
    """Kronecker product of column vectors, first vector slowest-varying.

    The product of the dimensions is guarded by dim_limit.
    """
    if not vectors:
        raise InputError("kronecker_column requires at least one vector")
    total = 1
    for v in vectors:
        total *= len(v)
        if total > dim_limit:
            raise RefusedError(
                f"kronecker dimension {total}+ exceeds limit {dim_limit}")
    p = field.p
    acc = [x % p for x in vectors[0]]
    for v in vectors[1:]:
        acc = [a * (b % p) % p for a in acc for b in v]
    return acc


def random_matrix(rng: random.Random, field: PrimeField,
                  rows: int, cols: int) -> PrimeFieldMatrix:
    """Entries uniform over [0, p)."""
    data = [rng.randrange(field.p) for _ in range(rows * cols)]
    return PrimeFieldMatrix(field, rows, cols, data)


def random_nonzero(rng: random.Random, field: PrimeField) -> int:
    return rng.randrange(1, field.p)


def vandermonde(field: PrimeField, rank_rows: int, points: Sequence[int]) -> PrimeFieldMatrix:
    """rank_rows x len(points) Vandermonde matrix; points must stay distinct
    mod p, so p must exceed every point.
    """
    if any(x >= field.p for x in points):
        raise FieldTooSmallError(
            f"modulus {field.p} too small for {len(points)} evaluation points")
    m = PrimeFieldMatrix(field, rank_rows, len(points))
    for j, x in enumerate(points):
        acc = 1
        for i in range(rank_rows):
            m.data[i * len(points) + j] = acc
            acc = acc * x % field.p
    return m
