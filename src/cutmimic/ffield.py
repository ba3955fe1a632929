"""Prime fields, greedy bases of vectors and the columns built from them.

Entries are plain Python ints reduced into [0, p). The default modulus is the
Mersenne prime 2^61 - 1; products of two reduced entries exceed 64 bits, so
vectors are int lists rather than fixed-width arrays. A field checks that
its modulus is prime, except for that default, which is a known prime and
would otherwise be re-proven by every field a command builds. The marking
stage keeps every matroid layer as one such list per ground element (a
column) and never forms a matrix.

select_independent_columns scans a list of vectors in the caller's order
and keeps each one outside the span of those kept before it. That kept set
is a property of the vectors alone, so it does not depend on how the
reduction is organised: it reduces lazily, reading each factor mod p but
leaving a vector's entries unreduced until its lead is needed. It is the
one elimination routine of the engine: a truncated graphic layer's rank
check and the representative-set selection both run it.

kronecker_column tensors one column per layer; the caller bounds the
tensor's dimension (the marker refuses above its tensor limit before it
builds any). vandermonde gives the uniform layer's columns, and
check_points is its refusal of a modulus too small for its points, which
the marker also runs before it builds any layer.

random_nonzeros draws a batch of nonzero entries with the values, and the
rng state, of one randrange(1, p) call per entry, without that call's
argument checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import FieldTooSmallError, InputError

MERSENNE61 = (1 << 61) - 1

# Deterministic Miller-Rabin witness set: the first 13 primes decide every
# n below MR_EXACT_BELOW exactly. The bound itself is a composite that all
# 13 bases pass, so is_prime refuses it and everything above.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n >= MR_EXACT_BELOW:
        raise InputError(
            f"cannot decide whether {n} is prime: the test is exact only "
            f"below {MR_EXACT_BELOW}")
    for small in _MR_BASES:
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


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic context F_p."""

    p: int = MERSENNE61

    def __post_init__(self) -> None:
        # MERSENNE61 is prime (the tests assert it), so the default field
        # skips the Miller-Rabin bases every command would otherwise pay.
        if self.p != MERSENNE61 and not is_prime(self.p):
            raise InputError(f"{self.p} is not prime")
        if self.p < 3:
            raise InputError("modulus must be an odd prime")


def select_independent_columns(field: PrimeField,
                               vectors: Sequence[Sequence[int]]) -> list[int]:
    """Greedy maximal independent subset of equal-length vectors, scanning in
    list order. Returns the kept indices in scan order.

    Each kept vector is stored reduced, from its lead (first nonzero entry,
    scaled to 1) onward, and later vectors are reduced against the kept ones
    in insertion order, each from its lead onward. That is exact: a stored
    vector is zero before its own lead and at every earlier lead, so no step
    undoes an earlier one, and a vector reduces to zero exactly when it lies
    in the span of those kept before it. Once the kept vectors span the
    whole space, every later one would reduce to zero, so the scan stops.

    The reduction is lazy: each step reads its factor f as v[lead] mod p
    and adds (p - f) times the stored vector, which is reduced, without
    reducing v. v is reduced once, before its lead is read: the same
    residues as reducing at every step. A reduced entry gains less than p^2
    per kept vector, so entries stay below p + d p^2 in dimension d.
    """
    if any(len(v) != len(vectors[0]) for v in vectors):
        raise InputError("ragged candidate vectors")
    p = field.p
    pivots: list[tuple[int, list[int]]] = []  # (lead, vector from lead on)
    kept: list[int] = []
    for j, vec in enumerate(vectors):
        v = list(vec)
        for lead, tail in pivots:
            f = v[lead] % p
            if f:
                v[lead:] = [a + (p - f) * b for a, b in zip(v[lead:], tail)]
        v = [x % p for x in v]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        kept.append(j)
        if len(kept) == len(v):
            break  # a full basis: every later vector is in its span
        inv = pow(v[lead], -1, p)
        pivots.append((lead, [x * inv % p for x in v[lead:]]))
    return kept


def kronecker_column(field: PrimeField,
                     vectors: Sequence[Sequence[int]]) -> list[int]:
    """Kronecker product of column vectors, first vector slowest-varying,
    reduced mod p. Its length is the product of the vectors' lengths.
    """
    if not vectors:
        raise InputError("kronecker_column requires at least one vector")
    p = field.p
    acc = [x % p for x in vectors[0]]
    for v in vectors[1:]:
        acc = [a * b % p for a in acc for b in v]
    return acc


def random_nonzeros(rng: random.Random, field: PrimeField,
                    count: int) -> list[int]:
    """`count` draws uniform over [1, p): the values of `count` calls of
    rng.randrange(1, p), and the rng left in the same state.

    randrange(1, p) is 1 + r for the first draw r = rng.getrandbits(k) with
    r < p - 1, where k = bitlen(p - 1). Each round here makes exactly as
    many getrandbits(k) calls as draws are still missing and keeps the
    accepted ones in order, so the calls, their order and the accepted
    values are those of the one-at-a-time loop, and no call is made past
    the last accepted draw.
    """
    width = field.p - 1
    k = width.bit_length()
    getrandbits = rng.getrandbits
    out: list[int] = []
    while len(out) < count:
        batch = [getrandbits(k) for _ in range(count - len(out))]
        out += [r + 1 for r in batch if r < width]
    return out


def vandermonde(field: PrimeField, rank_rows: int,
                points: Sequence[int]) -> list[list[int]]:
    """Columns of the rank_rows x len(points) Vandermonde matrix, one per
    point: 1, x, x^2, ... mod p. Points must stay distinct mod p, so p must
    exceed every point (check_points).
    """
    check_points(field, points)
    return [[pow(x, i, field.p) for i in range(rank_rows)] for x in points]


def check_points(field: PrimeField, points: Sequence[int]) -> None:
    """Refuse evaluation points that are not all below p, which keeps
    nonnegative points distinct mod p.
    """
    if any(x >= field.p for x in points):
        raise FieldTooSmallError(
            f"modulus {field.p} too small for {len(points)} evaluation points")
