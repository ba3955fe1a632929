"""Prime field linear algebra: greedy vector selection, Kronecker
products, Vandermonde columns, and the reference rank and random matrices
the other tests measure them with.
"""

import random

import pytest

from cutmimic import ffield
from cutmimic.errors import FieldTooSmallError, InputError
from cutmimic.ffield import (
    MERSENNE61,
    MR_EXACT_BELOW,
    PrimeField,
    is_prime,
    kronecker_column,
    random_nonzeros,
    select_independent_columns,
    vandermonde,
)

from reference import random_matrix, rank, transpose

F = PrimeField(MERSENNE61)
F7 = PrimeField(7)


def test_field_validates():
    with pytest.raises(InputError):
        PrimeField(6)
    with pytest.raises(InputError):
        PrimeField(2)


def test_field_tests_every_modulus_but_the_default(monkeypatch):
    # 2^61 - 1 is asserted prime in test_is_prime_known_values, so the
    # default field does not test it again
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(ffield, "is_prime", refuse)
    assert PrimeField().p == PrimeField(MERSENNE61).p == MERSENNE61
    with pytest.raises(AssertionError, match=r"is_prime\(101\)"):
        PrimeField(101)
    monkeypatch.undo()
    assert PrimeField(101).p == 101
    with pytest.raises(InputError, match="91 is not prime"):
        PrimeField(91)


IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rank_identity():
    assert rank(F, IDENTITY3) == 3


def test_rank_zero_matrix():
    assert rank(F, [[0, 0], [0, 0], [0, 0]]) == 0


def test_rank_vandermonde():
    assert rank(F, vandermonde(F, 2, [1, 2, 3, 4])) == 2


def test_rank_transpose_and_shuffle_invariance():
    rng = random.Random(2)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = random_matrix(rng, F7, rows, rng.randint(1, 5))
        r = rank(F7, cols)
        by_rows = transpose(cols, rows)
        assert rank(F7, by_rows) == r
        rng.shuffle(by_rows)
        assert rank(F7, by_rows) == r


def test_select_independent_identity():
    assert select_independent_columns(F, IDENTITY3) == [0, 1, 2]


def test_select_independent_drops_repeat():
    assert select_independent_columns(F, [[1, 2], [1, 2]]) == [0]


def test_select_independent_general_position():
    # four pairwise independent vectors in a 2-dim space: first two kept
    vectors = [[1, 1], [1, 2], [1, 3], [1, 4]]
    assert select_independent_columns(F7, vectors) == [0, 1]


def test_select_independent_respects_order():
    # the list order is the scan order: reversed, the last two come first
    vectors = [[1, 4], [1, 3], [1, 2], [1, 1]]
    assert select_independent_columns(F7, vectors) == [0, 1]


def test_select_independent_size_is_rank():
    rng = random.Random(4)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = random_matrix(rng, F7, rows, rng.randint(1, 6))
        # the reference eliminates the rows, the greedy scan the columns
        assert len(select_independent_columns(F7, cols)) == \
            rank(F7, transpose(cols, rows))


def test_kronecker_unit_vectors():
    assert kronecker_column(F, [(1, 0), (0, 1)]) == [0, 1, 0, 0]


def test_kronecker_scalar_identity():
    assert kronecker_column(F, [(5, 9, 2), (1,)]) == [5, 9, 2]


def test_kronecker_mod_seven():
    assert kronecker_column(F7, [(1, 2), (3, 4)]) == [3, 4, 6, 1]


def test_kronecker_first_vector_slowest():
    out = kronecker_column(F, [(1, 2), (10, 20, 30)])
    assert out == [10, 20, 30, 20, 40, 60]


def test_kronecker_rank_one_reshape():
    """A two-layer tensor, reshaped to a matrix, has rank at most 1."""
    rng = random.Random(9)
    for _ in range(10):
        a = [rng.randrange(7) for _ in range(3)]
        b = [rng.randrange(7) for _ in range(4)]
        vec = kronecker_column(F7, [a, b])
        reshaped = [vec[i * 4:(i + 1) * 4] for i in range(3)]
        assert rank(F7, reshaped) <= 1


def test_random_matrix_deterministic():
    a = random_matrix(random.Random(42), F, 3, 4)
    b = random_matrix(random.Random(42), F, 3, 4)
    assert a == b


def test_random_matrix_empty():
    assert random_matrix(random.Random(0), F, 0, 4) == [[], [], [], []]


def test_random_matrix_mean_near_half_p():
    # mean of 10^6 uniform draws; 5 sigma band around p/2
    rng = random.Random(1)
    m = random_matrix(rng, F, 1000, 1000)
    total = sum(map(sum, m))
    n = 10**6
    mean = total / n
    sigma = MERSENNE61 / (12 ** 0.5 * n ** 0.5)
    assert abs(mean - MERSENNE61 / 2) < 5 * sigma


def test_random_nonzero():
    rng = random.Random(3)
    draws = random_nonzeros(rng, F7, 50)
    assert len(draws) == 50 and all(0 < x < 7 for x in draws)


def test_is_prime_known_values():
    assert is_prime(MERSENNE61)
    assert not is_prime(MERSENNE61 - 1)
    assert [x for x in range(2, 30) if is_prime(x)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_refuses_strong_pseudoprimes():
    # psi_12 passes the first 12 prime bases; base 41 exposes it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    with pytest.raises(InputError, match="not prime"):
        PrimeField(psi12)
    # psi_13 passes all 13 bases, so it and every larger modulus is refused
    assert MR_EXACT_BELOW == 3317044064679887385961981
    for n in (MR_EXACT_BELOW, MR_EXACT_BELOW + 2, (1 << 89) - 1):
        with pytest.raises(InputError, match=str(MR_EXACT_BELOW)):
            PrimeField(n)
    assert is_prime(10**24 + 7)  # primes below the bound still pass


def test_vandermonde_columns():
    # one column per point: 1, x, x^2 mod 7
    assert vandermonde(F7, 3, [1, 2, 3]) == [[1, 1, 1], [1, 2, 4], [1, 3, 2]]
    assert vandermonde(F7, 0, [1, 2]) == [[], []]


def test_vandermonde_field_too_small():
    with pytest.raises(FieldTooSmallError):
        vandermonde(F7, 2, [1, 2, 3, 7])
