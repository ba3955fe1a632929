"""Representative sets: size bounds, extension property by brute force,
idempotence, and ingest validation.
"""

import itertools

import pytest

from cutmimic.errors import InputError, RefusedError
from cutmimic.ffield import MERSENNE61, PrimeField, PrimeFieldMatrix, vandermonde
from cutmimic.matroids import LayeredMatroid, MatroidRep, uniform_rep
from cutmimic.repset import representative_set_product

from reference import disjoint_union, extends, representative_set_general

F = PrimeField(MERSENNE61)


def layered_extends(layers, X_per_layer, t) -> bool:
    """Does tuple t extend the per-layer independent set X in the direct sum?"""
    union = disjoint_union(F, list(layers))
    base = [(i, x) for i, xs in enumerate(X_per_layer) for x in xs]
    extra = [(i, x) for i, x in enumerate(t)]
    return extends(union, base, extra)


def assert_extension_property(layers, family, kept):
    """Brute-force sweep over every per-layer independent X: whenever some
    original candidate extends X, a surviving one must too."""
    per_layer_independent = []
    for rep in layers:
        good = [X for size in range(rep.rank + 1)
                for X in itertools.combinations(rep.ground, size)
                if rep.is_independent(X)]
        per_layer_independent.append(good)
    for X in itertools.product(*per_layer_independent):
        original = [t for t in family if layered_extends(layers, X, t)]
        if not original:
            continue
        assert any(layered_extends(layers, X, t) for t in kept), X


class TestProductForm:
    def test_bound_two_layers(self):
        a = uniform_rep(F, ["a1", "a2", "a3", "a4"], 2)
        b = uniform_rep(F, ["b1", "b2", "b3", "b4", "b5"], 3)
        lm = LayeredMatroid((a, b))
        family = [(x, y) for x in a.ground for y in b.ground]
        kept = representative_set_product(lm, family)
        assert len(kept) <= 6
        assert set(kept) <= set(family)

    def test_empty_family(self):
        lm = LayeredMatroid((uniform_rep(F, [1, 2], 2),))
        kept = representative_set_product(lm, [])
        assert len(kept) == 0

    def test_single_layer_singletons(self):
        rep = uniform_rep(F, [1, 2, 3, 4], 2)
        lm = LayeredMatroid((rep,))
        family = [(1,), (2,), (3,), (4,)]
        kept = representative_set_product(lm, family)
        assert kept == [(1,), (2,)]  # input order, rank-2 space
        assert_extension_property((rep,), family, kept)

    def test_two_layer_extension_property(self):
        a = uniform_rep(F, ["a1", "a2", "a3"], 2)
        b = uniform_rep(F, ["b1", "b2", "b3"], 2)
        lm = LayeredMatroid((a, b))
        family = [(x, y) for x in a.ground for y in b.ground]
        kept = representative_set_product(lm, family)
        assert len(kept) <= 4
        assert_extension_property((a, b), family, kept)

    def test_idempotent(self):
        a = uniform_rep(F, [1, 2, 3, 4], 2)
        lm = LayeredMatroid((a,))
        family = [(1,), (2,), (3,)]
        kept = representative_set_product(lm, family)
        again = representative_set_product(lm, kept)
        assert again == kept

    def test_dependent_tuple_rejected(self):
        mat = PrimeFieldMatrix.from_rows(F, [[1, 0], [0, 0]])
        rep = MatroidRep(mat, ("good", "loop"), 1)
        lm = LayeredMatroid((rep,))
        with pytest.raises(InputError, match="dependent"):
            representative_set_product(lm, [("loop",)])

    def test_tuple_length_checked(self):
        lm = LayeredMatroid((uniform_rep(F, [1, 2], 1),))
        with pytest.raises(InputError):
            representative_set_product(lm, [(1, 2)])

    def test_dimension_guard(self):
        # 32^4 > 10^6: kronecker_column's own guard refuses the tensor
        a = uniform_rep(F, list(range(1, 34)), 32)
        lm = LayeredMatroid((a, a, a, a))
        with pytest.raises(RefusedError, match="exceeds limit"):
            representative_set_product(lm, [(1, 1, 1, 1)])


class TestGeneralForm:
    def test_s1_is_column_basis(self):
        mat = PrimeFieldMatrix.from_rows(F, [[1, 2, 0], [1, 2, 1]])
        kept = representative_set_general(mat, [(0,), (1,), (2,)], 1, r=2)
        assert kept == [(0,), (2,)]  # column 1 is twice column 0

    def test_uniform_pairs_bound(self):
        mat = vandermonde(F, 2, [1, 2, 3, 4])
        fam = list(itertools.combinations(range(4), 2))
        kept = representative_set_general(mat, fam, 2, r=2)
        assert 1 <= len(kept) <= 6
        # rank 2 means X = empty is the only extendable base; any single
        # surviving basis of the wedge space witnesses it
        assert kept[0] == (0, 1)

    def test_extension_property_rank3(self):
        mat = vandermonde(F, 3, [1, 2, 3, 4, 5])
        rep = MatroidRep(mat, tuple(range(5)), 3)
        fam = list(itertools.combinations(range(5), 2))
        kept = representative_set_general(mat, fam, 2)
        assert len(kept) <= 3  # C(rho, s) with rho = 3
        for x in range(5):
            extendable = [t for t in fam
                          if extends(rep, (x,), t)]
            if not extendable:
                continue
            assert any(extends(rep, (x,), t) for t in kept), x

    def test_idempotent(self):
        mat = vandermonde(F, 3, [1, 2, 3, 4, 5])
        fam = list(itertools.combinations(range(5), 2))
        kept = representative_set_general(mat, fam, 2)
        again = representative_set_general(mat, kept, 2)
        assert again == kept

    def test_dependent_candidate_rejected(self):
        mat = PrimeFieldMatrix.from_rows(F, [[1, 2, 3], [2, 4, 5]])
        with pytest.raises(InputError, match="dependent"):
            # col 1 = 2 * col 0
            representative_set_general(mat, [(0, 1)], 2, r=2)

    def test_large_s_refused(self):
        mat = vandermonde(F, 4, [1, 2, 3, 4, 5])
        with pytest.raises(RefusedError):
            representative_set_general(mat, [(0, 1, 2, 3)], 4)

    def test_rank_precondition(self):
        mat = vandermonde(F, 3, [1, 2, 3, 4])
        with pytest.raises(InputError):
            representative_set_general(mat, [(0,)], 1, r=1)  # rho 3 > r+s 2

    def test_family_shape_checked(self):
        mat = vandermonde(F, 3, [1, 2, 3, 4])
        with pytest.raises(InputError, match="s >= 1"):
            representative_set_general(mat, [()], 0)
        with pytest.raises(InputError, match="size s"):
            representative_set_general(mat, [(1, 2)], 1)
        with pytest.raises(InputError, match="repeat"):
            representative_set_general(mat, [(1, 1)], 2)


def test_extends_requires_disjoint():
    rep = uniform_rep(F, [1, 2, 3], 2)
    assert extends(rep, (1,), (2,))
    assert not extends(rep, (1,), (1,))
    assert not extends(rep, (1, 2), (3,))  # exceeds rank
