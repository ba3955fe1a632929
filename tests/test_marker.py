"""Marking stage: parameter resolution, layered matroid shape, marked-set
bounds, the covering condition on deletion components, and soundness of the
marked set against brute-force essential edges on density-confirmed inputs.
"""

import random

import pytest

from cutmimic.errors import InputError, InternalError, MarkingRefusedError
from cutmimic.frontend import cli
from cutmimic.marker import (
    DEFAULT_I0,
    MarkParams,
    build_marking_matroid,
    covering_condition_holds,
    default_c,
    mark,
)
from cutmimic.matroids import LayeredMatroid
from cutmimic.netgraph import (
    TerminalNetwork,
    all_partitions,
    components,
    delete_edges,
    format_network,
    parse_network,
    t_capacity,
    terminal_capacity,
)
from cutmimic.oracles import (
    cut_value_table,
    enumerate_minimum_multiway_cuts,
    essential_edges,
    essential_for_network,
)
from cutmimic.tester import exact_tester

from conftest import path_network, random_connected_network, triangle


def k4(terminals=(1, 2)):
    return TerminalNetwork.build(
        [1, 2, 3, 4],
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 2, 3), (5, 2, 4), (6, 3, 4)],
        terminals)


# parameter resolution


def test_default_c_reference_values():
    # smallest c >= i0 with 4^c >= 3^c * k^(i0+1), checked independently
    for k in range(1, 7):
        for i0 in (2, 3, 4):
            c = i0
            while 4 ** c < 3 ** c * k ** (i0 + 1):
                c += 1
            assert default_c(k, i0) == c
    assert default_c(2, DEFAULT_I0) == 13
    assert default_c(1, 2) == 2
    assert default_c(1, 4) == 4
    assert default_c(2, 2) == 8


def test_default_c_monotone_in_k():
    vals = [default_c(k, 2) for k in range(1, 8)]
    assert vals == sorted(vals)


def test_params_validation():
    with pytest.raises(InputError):
        MarkParams(i0=1)
    with pytest.raises(InputError):
        MarkParams(c=3, i0=4)
    with pytest.raises(InputError):
        MarkParams(c=0, i0=2)
    with pytest.raises(InputError):
        MarkParams(graphic_rank_cap=0)
    with pytest.raises(InputError):
        MarkParams(tensor_limit=0)
    with pytest.raises(InputError):
        MarkParams(cap_ceiling=0)


def test_resolve_fills_derived_fields():
    p = MarkParams().resolve(2)
    assert p.c == 13 and p.i0 == 4
    # 2^9 = 512 clamps to the ceiling
    assert p.graphic_rank_cap == 256

    p = MarkParams(c=6, i0=4).resolve(2)
    assert p.graphic_rank_cap == 4
    p = MarkParams(c=2, i0=2).resolve(2)
    assert p.graphic_rank_cap == 1
    p = MarkParams(c=6, i0=4, graphic_rank_cap=2).resolve(2)
    assert p.graphic_rank_cap == 2


def test_resolve_rejects_nonpositive_capacity():
    with pytest.raises(InputError):
        MarkParams().resolve(0)


def test_resolve_idempotent():
    p = MarkParams(c=5, i0=3).resolve(3)
    assert p.resolve(3) == p


# layered matroid shape


def test_layer_shape_on_path():
    net = path_network(9)  # 10 vertices, terminals at the ends, k = 2
    layered = build_marking_matroid(net, MarkParams(c=6, i0=4))
    assert len(layered.layers) == 5
    assert layered.ranks == (2, 2, 2, 4, 2)
    # three gammoid copies on 2m digraph nodes, then graphic and uniform on E
    assert layered.total_columns() == 3 * 18 + 9 + 9
    assert [len(layer.ground) for layer in layered.layers] == [18, 18, 18, 9, 9]


def test_layer_count_tracks_i0():
    net = path_network(5)
    for i0 in (2, 3, 4):
        layered = build_marking_matroid(net, MarkParams(c=6, i0=i0))
        assert len(layered.layers) == i0 + 1


def test_layer_ranks_on_k4():
    # five terminal-incident edges, rank cap k^0 = 1, uniform min(k, m) = 6
    layered = build_marking_matroid(k4(), MarkParams(c=2, i0=2))
    assert layered.ranks == (5, 1, 6)
    assert layered.rank_product() == 30


# marking


def test_mark_k4_within_bounds():
    res = mark(k4(), MarkParams(c=2, i0=2))
    assert res.layer_ranks == (5, 1, 6)
    assert res.tensor_dim == 30
    assert set(res.marked) <= set(k4().edge_ids())
    assert res.marked == tuple(sorted(res.marked))
    assert len(res.marked) <= 30


def test_mark_path_shape_and_bounds():
    net = path_network(9)
    res = mark(net, MarkParams(c=6, i0=4))
    assert res.layer_ranks == (2, 2, 2, 4, 2)
    assert res.tensor_dim == 64
    k, cap = 2, 4
    assert len(res.marked) <= k * cap * k ** 3
    assert set(res.marked) <= set(net.edge_ids())


def test_mark_deterministic_per_seed():
    net = path_network(7)
    a = mark(net, MarkParams(c=4, i0=2, seed=11))
    b = mark(net, MarkParams(c=4, i0=2, seed=11))
    assert a == b
    c = mark(net, MarkParams(c=4, i0=2, seed=12))
    assert set(c.marked) <= set(net.edge_ids())


def test_mark_refuses_oversized_tensor():
    with pytest.raises(MarkingRefusedError, match="tensor dimension 30"):
        mark(k4(), MarkParams(c=2, i0=2, tensor_limit=10))
    # exactly at the limit is allowed
    res = mark(k4(), MarkParams(c=2, i0=2, tensor_limit=30))
    assert res.tensor_dim == 30


def test_mark_refuses_all_terminal_k4_at_defaults():
    # k = 12: three gammoid layers of rank 6 against graphic 3 and uniform 6
    with pytest.raises(MarkingRefusedError):
        mark(k4(terminals=(1, 2, 3, 4)), MarkParams())


def test_mark_forces_edges_unreachable_from_terminals():
    # terminal-free triangle component: its gammoid columns are loops, so
    # those edges are marked unconditionally rather than dropped
    net = TerminalNetwork.build(
        [1, 2, 4, 5, 6],
        [(1, 1, 2), (2, 4, 5), (3, 5, 6), (4, 4, 6)],
        (1, 2))
    res = mark(net, MarkParams(c=6, i0=2))
    assert {2, 3, 4} <= set(res.marked)


def test_mark_parallel_paths_sound_by_vacuity():
    # two disjoint terminal-to-terminal paths: every 2-cut pairs one edge
    # from each path, so no edge is essential and any marked set is sound
    net = TerminalNetwork.build(
        [1, 2, 3, 4],
        [(1, 1, 3), (2, 3, 2), (3, 1, 4), (4, 4, 2)],
        (1, 2))
    assert essential_for_network(net) == ()
    res = mark(net, MarkParams(c=4, i0=2))
    assert set(res.marked) <= {1, 2, 3, 4}


def test_mark_bound_breach_raises_internal_error(monkeypatch):
    # an explicit raise, so the check also holds under python -O
    monkeypatch.setattr(LayeredMatroid, "rank_product", lambda self: 0)
    with pytest.raises(InternalError, match="exceed the rank product 0"):
        mark(k4(), MarkParams(c=2, i0=2))


@pytest.mark.parametrize("seed", [37, 60])
def test_small_prime_reduce_keeps_cut_table(tmp_path, seed):
    """Acceptance-corpus instances 37 and 60 at --prime 101: edges forced in
    by zero columns sit outside the rank-product bound, which covers only
    the representative-set survivors, so the reduction must finish and keep
    every partition's cut value.
    """
    t = [2, 3, 4, 5][seed % 4]
    net = random_connected_network(
        random.Random(seed), n_lo=max(4, t + 1), n_hi=14,
        extra_lo=0, extra_hi=5 if t <= 3 else 2, n_terminals=t, cap_max=8)
    src, out = tmp_path / "in.net", tmp_path / "out.net"
    src.write_text(format_network(net))
    rc = cli(["reduce", str(src), "--threshold", "2", "--prime", "101",
              "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    reduced = parse_network(out.read_text())
    assert cut_value_table(reduced).entries == cut_value_table(net).entries


# covering condition


def test_covering_single_component_trivially_true():
    net = triangle()
    assert covering_condition_holds(net, [1], 2, 2)
    assert covering_condition_holds(net, [], 2, 6)


def test_covering_path_tail_bound():
    # 31 vertices; cutting edge 3 leaves components of sizes 3 and 28
    net = path_network(30)
    assert covering_condition_holds(net, [3], 2, 6)  # 3 <= 2^4
    assert not covering_condition_holds(net, [3], 2, 3)  # 3 > 2^1


def test_covering_bound_override():
    net = path_network(30)
    assert covering_condition_holds(net, [3], 2, 3, bound_override=3)
    assert not covering_condition_holds(net, [3], 2, 3, bound_override=2)


def test_covering_orders_by_capacity_not_size():
    # cutting edge 4 splits off {0..3} with three terminals: cap 6, size 4
    # against cap 2, size 7; the high-capacity side must sort first
    net = path_network(10, extra_terminals=(1, 2))
    assert covering_condition_holds(net, [4], 2, 2, bound_override=7)
    assert not covering_condition_holds(net, [4], 2, 2, bound_override=6)


def test_covering_validation():
    net = triangle()
    with pytest.raises(InputError):
        covering_condition_holds(net, [1], 1, 3)
    with pytest.raises(InputError):
        covering_condition_holds(net, [1], 3, 2)


# soundness against brute force


def test_marking_covers_essential_edges_when_condition_holds():
    """On density-confirmed instances, every (partition, minimum cut) pair
    that passes the covering condition forces the partition's essential
    edges into the marked set.
    """
    c, i0 = 3, 2
    checked = 0
    for seed in range(25):
        rng = random.Random(seed)
        net = random_connected_network(
            rng, n_lo=4, n_hi=7, extra_lo=0, extra_hi=3,
            n_terminals=rng.choice([2, 3]), cap_max=5)
        if exact_tester(net, c).is_sparse:
            continue
        marked = set(mark(net, MarkParams(c=c, i0=i0)).marked)
        essential = essential_edges(net)
        for part in all_partitions(net.terminals):
            needed = set(essential.get(part, ()))
            for X in enumerate_minimum_multiway_cuts(net, part):
                if covering_condition_holds(net, X, i0, c):
                    assert needed <= marked, (seed, part, X)
                    checked += 1
    assert checked >= 20


def test_min_cut_components_eventually_small():
    # i-th component by non-increasing cap_T carries at most 3k/i
    for seed in range(15):
        rng = random.Random(1000 + seed)
        net = random_connected_network(
            rng, n_lo=4, n_hi=7, n_terminals=rng.choice([2, 3]), cap_max=6)
        k = terminal_capacity(net)
        for part in all_partitions(net.terminals):
            for X in enumerate_minimum_multiway_cuts(net, part):
                comps = components(delete_edges(net, X))
                caps = sorted(
                    (t_capacity(net, set(comp)) for comp in comps),
                    reverse=True)
                for i, cap in enumerate(caps, start=1):
                    assert i * cap <= 3 * k, (seed, part, X, i, cap)
