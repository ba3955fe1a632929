"""Representative sets: size bounds, extension property by brute force,
idempotence, and the general form's ingest validation.
"""

import itertools

import pytest

from cutmimic.errors import InputError, RefusedError
from cutmimic.ffield import MERSENNE61, PrimeField, vandermonde
from cutmimic.matroids import MatroidRep, uniform_rep
from cutmimic.repset import representative_set_product

from reference import (
    disjoint_union,
    extends,
    is_independent,
    representative_set_general,
    select_tuples,
)

F = PrimeField(MERSENNE61)


def layered_extends(layers, X_per_layer, t) -> bool:
    """Does tuple t extend the per-layer independent set X in the direct sum?"""
    union = disjoint_union(list(layers))
    base = [(i, x) for i, xs in enumerate(X_per_layer) for x in xs]
    extra = [(i, x) for i, x in enumerate(t)]
    return extends(F, union, base, extra)


def assert_extension_property(layers, family, kept):
    """Brute-force sweep over every per-layer independent X: whenever some
    original candidate extends X, a surviving one must too."""
    per_layer_independent = []
    for rep in layers:
        good = [X for size in range(rep.rank + 1)
                for X in itertools.combinations(rep.ground, size)
                if is_independent(F, rep, X)]
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
        family = [(x, y) for x in a.ground for y in b.ground]
        kept = select_tuples(F, (a, b), family)
        assert len(kept) <= 6
        assert set(kept) <= set(family)

    def test_empty_family(self):
        assert representative_set_product(F, []) == []

    def test_single_layer_singletons(self):
        rep = uniform_rep(F, [1, 2, 3, 4], 2)
        family = [(1,), (2,), (3,), (4,)]
        kept = select_tuples(F, (rep,), family)
        assert kept == [(1,), (2,)]  # input order, rank-2 space
        assert_extension_property((rep,), family, kept)

    def test_returns_indices_of_column_tuples(self):
        # the second tuple's tensor is twice the first's
        family = [([1, 0], [1, 2]), ([2, 0], [1, 2]), ([0, 1], [1, 2])]
        assert representative_set_product(F, family) == [0, 2]

    def test_two_layer_extension_property(self):
        a = uniform_rep(F, ["a1", "a2", "a3"], 2)
        b = uniform_rep(F, ["b1", "b2", "b3"], 2)
        family = [(x, y) for x in a.ground for y in b.ground]
        kept = select_tuples(F, (a, b), family)
        assert len(kept) <= 4
        assert_extension_property((a, b), family, kept)

    def test_idempotent(self):
        a = uniform_rep(F, [1, 2, 3, 4], 2)
        family = [(1,), (2,), (3,)]
        kept = select_tuples(F, (a,), family)
        again = select_tuples(F, (a,), kept)
        assert again == kept


class TestGeneralForm:
    def test_s1_is_column_basis(self):
        cols = [[1, 1], [2, 2], [0, 1]]
        kept = representative_set_general(F, cols, [(0,), (1,), (2,)], 1, r=2)
        assert kept == [(0,), (2,)]  # column 1 is twice column 0

    def test_uniform_pairs_bound(self):
        cols = vandermonde(F, 2, [1, 2, 3, 4])
        fam = list(itertools.combinations(range(4), 2))
        kept = representative_set_general(F, cols, fam, 2, r=2)
        assert 1 <= len(kept) <= 6
        # rank 2 means X = empty is the only extendable base; any single
        # surviving basis of the wedge space witnesses it
        assert kept[0] == (0, 1)

    def test_extension_property_rank3(self):
        cols = vandermonde(F, 3, [1, 2, 3, 4, 5])
        rep = MatroidRep(3, cols, tuple(range(5)), 3)
        fam = list(itertools.combinations(range(5), 2))
        kept = representative_set_general(F, cols, fam, 2)
        assert len(kept) <= 3  # C(rho, s) with rho = 3
        for x in range(5):
            extendable = [t for t in fam
                          if extends(F, rep, (x,), t)]
            if not extendable:
                continue
            assert any(extends(F, rep, (x,), t) for t in kept), x

    def test_idempotent(self):
        cols = vandermonde(F, 3, [1, 2, 3, 4, 5])
        fam = list(itertools.combinations(range(5), 2))
        kept = representative_set_general(F, cols, fam, 2)
        again = representative_set_general(F, cols, kept, 2)
        assert again == kept

    def test_dependent_candidate_rejected(self):
        cols = [[1, 2], [2, 4], [3, 5]]
        with pytest.raises(InputError, match="dependent"):
            # col 1 = 2 * col 0
            representative_set_general(F, cols, [(0, 1)], 2, r=2)

    def test_large_s_refused(self):
        cols = vandermonde(F, 4, [1, 2, 3, 4, 5])
        with pytest.raises(RefusedError):
            representative_set_general(F, cols, [(0, 1, 2, 3)], 4)

    def test_rank_precondition(self):
        cols = vandermonde(F, 3, [1, 2, 3, 4])
        with pytest.raises(InputError):
            representative_set_general(F, cols, [(0,)], 1, r=1)  # rho 3 > 2

    def test_family_shape_checked(self):
        cols = vandermonde(F, 3, [1, 2, 3, 4])
        with pytest.raises(InputError, match="s >= 1"):
            representative_set_general(F, cols, [()], 0)
        with pytest.raises(InputError, match="size s"):
            representative_set_general(F, cols, [(1, 2)], 1)
        with pytest.raises(InputError, match="repeat"):
            representative_set_general(F, cols, [(1, 1)], 2)


def test_extends_requires_disjoint():
    rep = uniform_rep(F, [1, 2, 3], 2)
    assert extends(F, rep, (1,), (2,))
    assert not extends(F, rep, (1,), (1,))
    assert not extends(F, rep, (1, 2), (3,))  # exceeds rank
