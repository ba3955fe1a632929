"""Marking stage: parameter resolution, the shape of the layers, marked-set
bounds, the covering condition on deletion components, and soundness of the
marked set against brute-force essential edges on density-confirmed inputs.
"""

import random
from dataclasses import replace
from math import prod

import pytest

from cutmimic import marker
from cutmimic.errors import InputError, InternalError, MarkingRefusedError
from cutmimic.frontend import cli
from cutmimic.marker import (
    DEFAULT_I0,
    MarkParams,
    build_marking_matroid,
    default_c,
    layer_rows,
    mark,
)
from cutmimic.netgraph import (
    TerminalNetwork,
    all_partitions,
    components,
    format_network,
    parse_network,
    t_capacity,
    terminal_capacity,
)
from cutmimic.oracles import (
    cut_value_table,
    essential_edges,
    essential_for_network,
)
from cutmimic.tester import exact_tester

from conftest import (
    bench_workloads,
    path_network,
    random_connected_network,
    triangle,
)
from reference import (
    covering_condition_holds,
    delete_edges,
    enumerate_minimum_multiway_cuts,
)


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


# shape of the layers


def test_layer_shape_on_path():
    net = path_network(9)  # 10 vertices, terminals at the ends, k = 2
    layers = build_marking_matroid(net, MarkParams(c=6, i0=4))
    assert len(layers) == 5
    assert tuple(layer.rank for layer in layers) == (2, 2, 2, 4, 2)
    # three gammoid copies on 2m digraph nodes, then graphic and uniform on E
    cols = sum(len(layer.columns) for layer in layers)
    assert cols == 3 * 18 + 9 + 9
    assert [len(layer.ground) for layer in layers] == [18, 18, 18, 9, 9]


def test_layer_count_tracks_i0():
    net = path_network(5)
    for i0 in (2, 3, 4):
        layers = build_marking_matroid(net, MarkParams(c=6, i0=i0))
        assert len(layers) == i0 + 1


def test_layer_ranks_on_k4():
    # five terminal-incident edges, rank cap k^0 = 1, uniform min(k, m) = 6
    layers = build_marking_matroid(k4(), MarkParams(c=2, i0=2))
    assert tuple(layer.rank for layer in layers) == (5, 1, 6)
    # the tensor dimension is the product of the row counts
    assert [layer.rows for layer in layers] == [5, 1, 6]


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


def test_mark_refuses_oversized_tensor(monkeypatch):
    monkeypatch.setattr(marker, "TENSOR_LIMIT", 10)
    with pytest.raises(MarkingRefusedError, match="tensor dimension 30"):
        mark(k4(), MarkParams(c=2, i0=2))
    # exactly at the limit is allowed
    monkeypatch.setattr(marker, "TENSOR_LIMIT", 30)
    res = mark(k4(), MarkParams(c=2, i0=2))
    assert res.tensor_dim == 30


def test_mark_refuses_all_terminal_k4_at_defaults():
    # k = 12: three gammoid layers of rank 6 against graphic 3 and uniform 6
    with pytest.raises(MarkingRefusedError):
        mark(k4(terminals=(1, 2, 3, 4)), MarkParams())


def test_mark_refuses_before_building(monkeypatch):
    # the refusal needs no layer: every builder raising leaves it unchanged
    def unbuildable(*args, **kwargs):
        raise AssertionError("a refused mark built a layer")

    for name in ("build_edge_cut_gammoid_digraph", "gammoid_rep",
                 "graphic_rep", "uniform_rep"):
        monkeypatch.setattr(marker, name, unbuildable)
    with pytest.raises(MarkingRefusedError) as err:
        mark(k4(terminals=(1, 2, 3, 4)), MarkParams())
    assert str(err.value) == \
        "tensor dimension 5184 exceeds limit 2048; lower c or i0"


def test_layer_rows_match_built_layers(monkeypatch):
    # every layer is built, so the refused calls are compared too
    monkeypatch.setattr(marker, "TENSOR_LIMIT", float("inf"))
    bench = bench_workloads()
    nets = ([bench.gen_corpus_small(seed) for seed in range(200)]
            + [bench.gen_dense_k2(seed) for seed in range(20)])
    knobs = (MarkParams(c=2, i0=2), MarkParams(c=3, i0=2),
             MarkParams(c=6, i0=2), MarkParams())
    refusable = 0
    for net in nets:
        k = terminal_capacity(net)
        full_rank = net.n - len(components(net))
        for params in knobs:
            params = params.resolve(k)
            predicted = layer_rows(net, params, k, full_rank)
            built = build_marking_matroid(net, params)
            assert predicted == tuple(layer.rows for layer in built)
            refusable += prod(predicted) > 2048
    assert refusable >= 100, refusable


def test_mark_field_check_precedes_tensor_refusal(tmp_path, capsys):
    # K5 plus a parallel edge, every vertex a terminal: m = 11 and a tensor
    # far above the limit, yet at p = 11 the uniform layer's 11 points
    # refuse first, with exit 2
    edges = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)] + [(1, 2)]
    net = TerminalNetwork.build(
        range(1, 6), [(i, u, v) for i, (u, v) in enumerate(edges, 1)],
        range(1, 6))
    src = tmp_path / "in.net"
    src.write_text(format_network(net))
    with pytest.raises(MarkingRefusedError):
        mark(net, MarkParams())
    assert cli(["mark", str(src), "--prime", "11"]) == 2
    assert capsys.readouterr().err == \
        "error: modulus 11 too small for 11 evaluation points\n"


def test_mark_row_drift_raises_internal_error(monkeypatch):
    # an explicit raise, so the check also holds under python -O: a
    # graphic builder that ignores its cap returns the untruncated
    # incidence, 4 rows where the cap of 1 predicts 1
    real = marker.graphic_rep

    def uncapped(field, rng, net, max_rank, retries=8, full_rank=None):
        return real(field, rng, net, net.n, retries, full_rank)

    monkeypatch.setattr(marker, "graphic_rep", uncapped)
    with pytest.raises(InternalError, match=r"\(5, 4, 6\) differ from the "
                                            r"predicted \(5, 1, 6\)"):
        mark(k4(), MarkParams(c=2, i0=2))


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
    # an explicit raise, so the check also holds under python -O: the
    # graphic layer declares rank 0, so the rank product is 0
    def build(net, params):
        *gammoids, graphic, uniform = build_marking_matroid(net, params)
        return (*gammoids, replace(graphic, rank=0), uniform)

    monkeypatch.setattr(marker, "build_marking_matroid", build)
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
