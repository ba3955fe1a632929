"""Reduction-loop tests: base case, dense and sparse branches, trace
semantics (format, parse, replay), progress, and oracle verification of the
emitted networks where the parameter regime guarantees soundness.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cutmimic import reducer
from cutmimic.errors import InputError, InternalError
from cutmimic.marker import MarkParams
from cutmimic.netgraph import (
    format_network,
    Contract,
    DeleteComponent,
    DeleteLeaf,
    TerminalNetwork,
    apply_local_event,
    t_capacity,
    terminal_capacity,
)
from cutmimic.oracles import (
    cut_value_table,
    min_cut_side,
    unit_flow,
    verify_mimicking,
)
from cutmimic.reducer import (
    MarkStats,
    Recurse,
    ReduceParams,
    ReductionTrace,
    Stop,
    format_trace,
    mimicking_network,
    parse_trace,
    replay_trace,
)

from conftest import (
    bench_workloads,
    connected_terminal_networks,
    path_network,
    random_connected_network,
    triangle,
)
from reference import multicut_covering_set


def pendant_blob():
    """K6 with one pendant terminal hanging off each of two blob vertices.

    k = 2 and no vertex set beats cap^6 at 8 vertices, so the exact tester
    says dense; nothing here is essential (the two pendant edges are
    alternative minimum cuts), so any contraction order preserves values.
    """
    verts = [1, 2] + list(range(3, 9))
    edges = [(1, 1, 3), (2, 2, 4)]
    eid = 3
    for u, v in itertools.combinations(range(3, 9), 2):
        edges.append((eid, u, v))
        eid += 1
    return TerminalNetwork.build(verts, edges, (1, 2))


def doubled_path(length=6):
    """A path of `length` doubled edges between two pendant terminals.

    k = 2 and every core edge has lambda = 2, so no edge is over
    k-connected; no vertex has degree 2 and no vertex set is sparse at
    c = 6, so a dense verdict reaches the marker. The only minimum cuts are
    the two pendant edges, so contracting a core edge keeps every value.
    """
    edges = [(1, 1, 3)]
    for i in range(length):
        edges += [(2 * i + 2, 3 + i, 4 + i), (2 * i + 3, 3 + i, 4 + i)]
    edges.append((2 * length + 2, 2, 3 + length))
    return TerminalNetwork.build(range(1, length + 4), edges, (1, 2))


def assert_marks_before_contracting(trace):
    kinds = [type(ev) for ev in trace.events]
    assert MarkStats in kinds and Contract in kinds
    assert Contract not in kinds[:kinds.index(MarkStats)]


def blob_with_tail():
    """Two K5 blobs joined by two edges, terminals inside the first.

    The second blob is a sparse set at c = 2: boundary capacity 2 against
    five vertices. No degree-2 vertices, so the sparse branch is reached.
    """
    edges = []
    eid = 1
    for u, v in itertools.combinations(range(1, 6), 2):
        edges.append((eid, u, v))
        eid += 1
    for u, v in itertools.combinations(range(6, 11), 2):
        edges.append((eid, u, v))
        eid += 1
    edges.append((21, 5, 6))
    edges.append((22, 5, 7))
    return TerminalNetwork.build(list(range(1, 11)), edges, (1, 2))


def walk_events(net, events, c):
    """Apply structural events in order, asserting progress and the sparse
    invariant cap_T(S)^c < |S| at each Recurse against the current graph.
    """
    work = net
    for ev in events:
        if isinstance(ev, (Contract, DeleteLeaf, DeleteComponent)):
            before = work.n + work.m
            work = apply_local_event(work, ev)
            assert work.n + work.m < before
        elif isinstance(ev, Recurse):
            cap = t_capacity(work, set(ev.S))
            assert cap ** c < len(ev.S), (ev, cap)
    return work


# base case and local rules


def test_path_collapses_to_single_edge():
    net = path_network(10)
    out, trace = mimicking_network(net, ReduceParams())
    assert out.m == 1 and set(out.vertices) == {0, 10}
    assert isinstance(trace.events[-1], Stop)
    assert trace.events[-1].reason == "base"
    assert verify_mimicking(net, out).ok


def test_base_case_identity_trace():
    net = triangle()
    Z, trace = multicut_covering_set(net, ReduceParams(threshold=3))
    assert Z == (1, 2, 3)
    assert trace.events == (Stop("base"),)


def test_parallel_paths_preserved():
    net = TerminalNetwork.build(
        [1, 2, 3, 4],
        [(1, 1, 3), (2, 3, 2), (3, 1, 4), (4, 4, 2)],
        (1, 2))
    out, _ = mimicking_network(net, ReduceParams())
    assert verify_mimicking(net, out).ok
    assert cut_value_table(out).entries[-1][1] == 2


def test_single_terminal_collapses():
    net = TerminalNetwork.build(
        [0, 1, 2, 3],
        [(1, 0, 1), (2, 1, 2), (3, 2, 3)],
        (0,))
    out, trace = mimicking_network(net, ReduceParams())
    assert out.n == 1 and out.m == 0
    assert any(isinstance(ev, DeleteLeaf) for ev in trace.events)


def test_subdivided_and_raw_inputs_agree():
    raw = TerminalNetwork.build(
        [1, 2, 3, 4],
        [(1, 1, 3), (2, 3, 2), (3, 1, 4), (4, 4, 2)],
        (1, 2))
    fine = TerminalNetwork.build(
        [1, 2, 3, 4, 5, 6],
        [(1, 1, 3), (2, 3, 5), (3, 5, 2), (4, 1, 4), (5, 4, 6), (6, 6, 2)],
        (1, 2))
    out_raw, _ = mimicking_network(raw, ReduceParams())
    out_fine, _ = mimicking_network(fine, ReduceParams())
    raw_vals = [v for _, v in cut_value_table(out_raw).entries]
    fine_vals = [v for _, v in cut_value_table(out_fine).entries]
    assert raw_vals == fine_vals


# dense branch


def test_dense_branch_marks_and_contracts():
    net = doubled_path()
    params = ReduceParams(
        mark=MarkParams(c=6, i0=2, graphic_rank_cap=2), threshold=10)
    out, trace = mimicking_network(net, params)
    assert_marks_before_contracting(trace)
    assert trace.events[-1] == Stop("base")
    assert out.m <= 10
    assert verify_mimicking(net, out).ok
    for ev in trace.events:
        if isinstance(ev, MarkStats):
            assert ev.c == 6 and ev.i0 == 2


def test_dense_branch_saturates_when_marking_refuses():
    # all-terminal K4 at default parameters pushes the tensor over its limit;
    # the loop keeps every edge rather than contract uncertified ones
    net = TerminalNetwork.build(
        [1, 2, 3, 4],
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 2, 3), (5, 2, 4), (6, 3, 4)],
        (1, 2, 3, 4))
    Z, trace = multicut_covering_set(net, ReduceParams(threshold=5))
    assert Z == (1, 2, 3, 4, 5, 6)
    assert trace.events[-1] == Stop("saturated")


# connectivity contraction


def rule_corpus():
    """(network, mark params) for `reduce --threshold 2` on corpus-small
    seeds 0-99 (default marking) and dense-k2 seeds 0-9 (c = 6, i0 = 2)."""
    bench = bench_workloads()
    return ([(bench.gen_corpus_small(s), MarkParams()) for s in range(100)]
            + [(bench.gen_dense_k2(s), MarkParams(c=6, i0=2))
               for s in range(10)])


def test_capped_flow_is_min_of_max_flow_and_cap():
    for net, _ in rule_corpus():
        k = terminal_capacity(net)
        incident = net.adjacency()
        for _, u, v in net.edges:
            capped = unit_flow(incident, {u}, {v}, k + 1)[0]
            assert capped == min(min_cut_side(net, [u], [v])[0], k + 1)


def test_connectivity_contraction_keeps_tables_and_replays():
    dense_edges_out = 0
    for net, mark in rule_corpus():
        out, trace = mimicking_network(
            net, ReduceParams(threshold=2, mark=mark))
        assert cut_value_table(out) == cut_value_table(net)
        assert format_network(replay_trace(net, trace)) == format_network(out)
        if mark.c == 6:
            assert not any(isinstance(ev, MarkStats) for ev in trace.events)
            dense_edges_out += out.m
        if trace.events[-1] == Stop("saturated"):
            # no over-connected edge is left where the loop gave up
            k = terminal_capacity(out)
            tset = set(out.terminals)
            for _, u, v in out.edges:
                if u not in tset and v not in tset:
                    assert min_cut_side(out, [u], [v])[0] <= k, (u, v)
    # without marking, every dense-k2 network ends at one edge
    assert dense_edges_out == 10


def test_overconnected_edge_with_terminal_end_raises_internal_error():
    # below cap(T), the degree filter no longer keeps terminal edges out
    with pytest.raises(InternalError, match="has a terminal end"):
        reducer._overconnected(triangle(), 0)


def test_overconnected_edges_of_a_blob_are_its_clique_edges():
    net = pendant_blob()
    assert reducer._overconnected(net, 2) == list(range(3, 18))


# sparse branch


def test_sparse_branch_recurses_and_contracts():
    net = blob_with_tail()
    params = ReduceParams(mark=MarkParams(c=2, i0=2), threshold=15)
    out, trace = mimicking_network(net, params)
    recs = [ev for ev in trace.events if isinstance(ev, Recurse)]
    assert recs and recs[0].S == (6, 7, 8, 9, 10)
    assert recs[0].depth == 1
    final = walk_events(net, trace.events, c=2)
    assert format_network(final) == format_network(out)


def test_max_depth_zero_saturates_on_sparse(monkeypatch):
    monkeypatch.setattr(reducer, "MAX_DEPTH", 0)
    net = blob_with_tail()
    params = ReduceParams(mark=MarkParams(c=2, i0=2), threshold=15)
    out, trace = mimicking_network(net, params)
    assert trace.events[-1] == Stop("saturated")
    assert not any(isinstance(ev, Recurse) for ev in trace.events)
    assert out.m == net.m


# parameters and modes


def test_params_validation():
    with pytest.raises(InputError):
        ReduceParams(tester="psychic")
    with pytest.raises(InputError):
        ReduceParams(threshold=0)


def test_heuristic_mode_runs_the_same_pipeline():
    net = doubled_path()
    params = ReduceParams(
        tester="heuristic",
        mark=MarkParams(c=6, i0=2, graphic_rank_cap=2), threshold=10)
    out, trace = mimicking_network(net, params)
    assert_marks_before_contracting(trace)
    assert out.m <= 10
    assert verify_mimicking(net, out).ok


def test_covering_set_matches_network_edges():
    net = pendant_blob()
    params = ReduceParams(
        mark=MarkParams(c=6, i0=2, graphic_rank_cap=2), threshold=10)
    Z, _ = multicut_covering_set(net, params)
    out, _ = mimicking_network(net, params)
    assert Z == out.edge_ids()
    assert set(Z) <= set(net.edge_ids())


def test_empty_terminals_rejected():
    net = TerminalNetwork.build([1, 2], [(1, 1, 2)], (1,))
    bare = TerminalNetwork.build([1, 2], [(1, 1, 2)], ())
    with pytest.raises(InputError):
        mimicking_network(bare, ReduceParams())
    out, _ = mimicking_network(net, ReduceParams())
    assert out.m <= 1


# traces


def test_trace_format_round_trip():
    trace = ReductionTrace((
        Contract(4),
        DeleteLeaf(7),
        DeleteComponent((2, 3, 5)),
        Recurse((1, 2), 1),
        MarkStats(12, 6, 2),
        Stop("base"),
    ))
    text = format_trace(trace)
    assert text == "C 4\nDL 7\nDC 2 3 5\nR 1 1 2\nM 12 6 2\nS base\n"
    assert parse_trace(text) == trace


def test_trace_parse_skips_comments_and_blanks():
    assert parse_trace("# hi\n\nS base\n") == ReductionTrace((Stop("base"),))


def test_trace_parse_reports_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse_trace("C 1\nC x y\nS base\n")


def test_trace_must_end_with_stop():
    with pytest.raises(InputError):
        ReductionTrace((Contract(1),))
    with pytest.raises(InputError):
        parse_trace("C 1\n")


def test_trace_stop_is_known_and_last():
    with pytest.raises(InputError):
        Stop("foo")
    with pytest.raises(InputError, match="line 1"):
        parse_trace("S foo\n")
    with pytest.raises(InputError):
        ReductionTrace((Stop("base"), Contract(1), Stop("base")))
    with pytest.raises(InputError):
        parse_trace("S base\nC 1\nS base\n")


def test_replay_reproduces_output_bytes():
    for seed in range(12):
        rng = random.Random(seed)
        net = random_connected_network(
            rng, n_lo=4, n_hi=9, extra_hi=4,
            n_terminals=rng.choice([2, 3]), cap_max=6)
        out, trace = mimicking_network(net, ReduceParams())
        assert format_network(replay_trace(net, trace)) == format_network(out)
        walk_events(net, trace.events, c=13)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(connected_terminal_networks(), st.sampled_from([2, 3, 4, 6]),
       st.integers(0, 2**32))
def test_replay_reproduces_marking_runs_property(net, c, seed):
    # threshold 2 drives the loop through the tester and the marker; cut
    # values are not asserted here, since small c can lose them
    params = ReduceParams(threshold=2, mark=MarkParams(c=c, i0=2, seed=seed))
    out, trace = mimicking_network(net, params)
    assert format_network(replay_trace(net, trace)) == format_network(out)


def test_default_reduction_exact_on_small_corpus():
    # default parameters: exact tester, derived c; the emitted network must
    # mimic the input on every partition
    for seed in range(15):
        rng = random.Random(900 + seed)
        net = random_connected_network(
            rng, n_lo=4, n_hi=9, extra_hi=4,
            n_terminals=rng.choice([2, 3]), cap_max=6)
        out, _ = mimicking_network(net, ReduceParams())
        report = verify_mimicking(net, out)
        assert report.ok, (seed, report.detail)
