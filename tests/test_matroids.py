"""Matroid representations against first-principles oracles: uniform via
subset sizes, graphic via acyclicity, gammoids via the disjoint-path flow
oracle.
"""

import itertools
import random

import pytest

from cutmimic.errors import FieldTooSmallError, InputError
from cutmimic.ffield import MERSENNE61, PrimeField
from cutmimic.matroids import (
    Digraph,
    MatroidRep,
    build_edge_cut_gammoid_digraph,
    gammoid_rep,
    graphic_rep,
    signed_incidence,
    uniform_rep,
)
from cutmimic.netgraph import TerminalNetwork

from conftest import random_connected_network, triangle
from reference import (
    arcs,
    disjoint_union,
    edge_cut_gammoid,
    is_independent,
    is_independent_by_flow,
    max_disjoint_paths,
    rank,
)

F = PrimeField(MERSENNE61)


def is_forest(net: TerminalNetwork, eids) -> bool:
    parent = {v: v for v in net.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in eids:
        u, v = net.endpoints(e)
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


class TestUniform:
    def test_rank2_of_4(self):
        rep = uniform_rep(F, [1, 2, 3, 4], 2)
        for pair in itertools.combinations([1, 2, 3, 4], 2):
            assert is_independent(F, rep, pair)
        for trip in itertools.combinations([1, 2, 3, 4], 3):
            assert not is_independent(F, rep, trip)

    def test_rank0(self):
        rep = uniform_rep(F, [1, 2], 0)
        assert is_independent(F, rep, ())
        assert not is_independent(F, rep, (1,))

    def test_exhaustive_independence_iff_small(self):
        for m in range(1, 9):
            for r in range(0, m + 1):
                rep = uniform_rep(F, list(range(1, m + 1)), r)
                for size in range(0, m + 1):
                    for X in itertools.combinations(range(1, m + 1), size):
                        assert is_independent(F, rep, X) == (size <= r)

    def test_field_too_small(self):
        with pytest.raises(FieldTooSmallError):
            uniform_rep(PrimeField(7), list(range(1, 8)), 3)


class TestGraphic:
    def test_triangle_cycle_dependent(self):
        rng = random.Random(0)
        rep = graphic_rep(F, rng, triangle(()), max_rank=3)
        assert not is_independent(F, rep, (1, 2, 3))
        assert is_independent(F, rep, (1, 2))

    def test_untruncated_matches_acyclicity(self):
        rng = random.Random(1)
        for _ in range(15):
            net = random_connected_network(rng, n_hi=5, extra_hi=3,
                                           n_terminals=1)
            if net.m > 6:
                continue
            rep = graphic_rep(F, rng, net, max_rank=net.n)
            ids = net.edge_ids()
            for size in range(len(ids) + 1):
                for X in itertools.combinations(ids, size):
                    assert is_independent(F, rep, X) == is_forest(net, X)

    def test_truncated_path(self):
        verts = list(range(6))
        edges = [(i + 1, i, i + 1) for i in range(5)]
        net = TerminalNetwork.build(verts, edges, [0])
        for seed in range(100):
            rep = graphic_rep(F, random.Random(seed), net, max_rank=2)
            assert rep.rank == 2
            for X in itertools.combinations(net.edge_ids(), 3):
                assert not is_independent(F, rep, X)
            for X in itertools.combinations(net.edge_ids(), 2):
                assert is_independent(F, rep, X)  # any 2 path edges are a forest

    def test_signed_incidence_shape(self):
        net = triangle(())
        inc = signed_incidence(F, net)
        assert len(inc) == 3 and all(len(col) == 3 for col in inc)
        for col in inc:
            assert sum(col) % F.p == 0
        assert rank(F, inc) == net.n - 1


class TestDigraph:
    def test_keeps_node_and_in_list_order(self):
        dg = Digraph({"b": ("c",), "a": ("c", "b"), "c": ()})
        assert dg.nodes == ("b", "a", "c")
        assert dg.in_neighbors("a") == ("c", "b")
        assert arcs(dg) == (("b", "a"), ("c", "b"), ("c", "a"))

    @pytest.mark.parametrize("ins", (
        {"a": ("b",)},                   # unknown node
        {"a": ("a",)},                   # self-arc
        {"a": (), "b": ("a", "a")},      # repeated arc
    ))
    def test_refuses_malformed_in_lists(self, ins):
        with pytest.raises(InputError):
            Digraph(ins)


class TestGammoidDigraph:
    def test_path_two_edges(self):
        net = TerminalNetwork.build([1, 2, 3], [(1, 1, 2), (2, 2, 3)], [1])
        inst = build_edge_cut_gammoid_digraph(net)
        assert set(inst.digraph.nodes) == {
            ("z", 1), ("z", 2), ("zp", 1), ("zp", 2)}
        assert set(arcs(inst.digraph)) == {
            (("z", 1), ("z", 2)), (("z", 2), ("z", 1)),
            (("z", 1), ("zp", 2)), (("z", 2), ("zp", 1))}
        assert inst.sources == (("z", 1),)

    def test_single_edge_no_arcs(self):
        net = TerminalNetwork.build([1, 2], [(1, 1, 2)], [1])
        inst = build_edge_cut_gammoid_digraph(net)
        assert arcs(inst.digraph) == ()

    def test_triangle_counts(self):
        inst = build_edge_cut_gammoid_digraph(triangle(()))
        assert len(inst.digraph.nodes) == 6
        assert len(arcs(inst.digraph)) == 12

    def test_ground_layout(self):
        inst = build_edge_cut_gammoid_digraph(triangle((1,)))
        assert inst.ground == (("z", 1), ("z", 2), ("z", 3),
                               ("zp", 1), ("zp", 2), ("zp", 3))


class TestFlowOracle:
    def test_sources_are_independent(self):
        net = triangle((1, 2))
        inst = build_edge_cut_gammoid_digraph(net)
        assert is_independent_by_flow(
            inst.digraph, inst.sources, inst.sources)

    def test_pigeonhole(self):
        net = TerminalNetwork.build([1, 2, 3], [(1, 1, 2), (2, 2, 3)], [1])
        inst = build_edge_cut_gammoid_digraph(net)
        assert not is_independent_by_flow(
            inst.digraph, inst.sources, [("z", 1), ("z", 2)])

    def test_path_linkage(self):
        net = TerminalNetwork.build([1, 2, 3], [(1, 1, 2), (2, 2, 3)], [1])
        inst = build_edge_cut_gammoid_digraph(net)
        dg, src = inst.digraph, inst.sources
        assert max_disjoint_paths(dg, src, [("zp", 2)]) == 1
        assert is_independent_by_flow(dg, src, [("z", 1)])
        assert is_independent_by_flow(dg, src, [("zp", 2)])


class TestGammoidRep:
    def test_path_examples(self):
        net = TerminalNetwork.build([1, 2, 3], [(1, 1, 2), (2, 2, 3)], [1])
        rep = edge_cut_gammoid(F, random.Random(3), net)
        assert rep.rank == 1  # one terminal-incident edge
        assert is_independent(F, rep, ())
        assert is_independent(F, rep, (("z", 1),))
        assert not is_independent(F, rep, (("z", 1), ("z", 2)))
        assert not is_independent(F, rep, (("z", 1), ("zp", 1)))

    def test_agreement_with_flow_oracle(self):
        """Representation independence must equal linkage by disjoint paths,
        for every subset of size <= 3."""
        rng = random.Random(17)
        for _ in range(12):
            net = random_connected_network(rng, n_hi=5, extra_hi=2,
                                           n_terminals=rng.randint(1, 2))
            if net.m > 6:
                continue
            inst = build_edge_cut_gammoid_digraph(net)
            rep = gammoid_rep(F, rng, inst.digraph, inst.sources, inst.ground)
            for size in range(0, 4):
                for X in itertools.combinations(inst.ground, size):
                    expect = is_independent_by_flow(
                        inst.digraph, inst.sources, X)
                    assert is_independent(F, rep, X) == expect, (net.edges, X)


class TestAssembly:
    def test_block_matrix_identity(self):
        one = uniform_rep(F, [1], 1)
        assert disjoint_union([one, one]).columns == [[1, 0], [0, 1]]

    def test_disjoint_union_empty_refused(self):
        with pytest.raises(InputError):
            disjoint_union([])

    def test_block_rank_adds(self):
        a = uniform_rep(F, [1, 2], 2)
        b = uniform_rep(F, [1, 2, 3], 3)
        assert rank(F, disjoint_union([a, b]).columns) == 5

    def test_union_independence_is_layerwise(self):
        a = uniform_rep(F, ["a1", "a2", "a3"], 1)
        b = uniform_rep(F, ["b1", "b2"], 2)
        rep = disjoint_union([a, b])
        labels = list(rep.ground)
        for size in range(len(labels) + 1):
            for X in itertools.combinations(labels, size):
                per_layer = [
                    tuple(x for layer, x in X if layer == i)
                    for i in range(2)]
                expect = is_independent(F, a, per_layer[0]) and \
                    is_independent(F, b, per_layer[1])
                assert is_independent(F, rep, X) == expect

    def test_layered_accessors(self):
        # a tuple's columns are read one per layer, by ground element
        a = uniform_rep(F, [1, 2], 2)
        b = uniform_rep(F, [1, 2, 3], 2)
        assert (a.rows, a.rank, b.rows, b.rank) == (2, 2, 2, 2)
        assert len(a.columns) + len(b.columns) == 5
        assert [a.column_of(2), b.column_of(3)] == [[1, 2], [1, 3]]
        with pytest.raises(InputError, match="not a ground element"):
            a.column_of(3)

    @pytest.mark.parametrize("args", (
        (2, [[1, 0]], (1, 2), 1),        # ground longer than the columns
        (2, [[1, 0], [1]], (1, 2), 1),   # a column of the wrong length
        (2, [[1, 0], [0, 1]], (1, 1), 1),  # a repeated ground element
        (2, [[1, 0], [0, 1]], (1, 2), 3),  # rank above the row count
    ))
    def test_rep_shape_checked(self, args):
        with pytest.raises(InputError):
            MatroidRep(*args)
