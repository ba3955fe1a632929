"""Terminal network core: capacities, recursive instances, contraction,
local reduction rules, partitions, and the text format.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cutmimic import netgraph
from cutmimic.errors import InputError, InternalError, TerminalContractionError
from cutmimic.netgraph import (
    Contract,
    CutRequests,
    DeleteComponent,
    DeleteLeaf,
    Partition,
    TerminalNetwork,
    all_partitions,
    apply_local_event,
    boundary,
    capacity,
    component_labels,
    components,
    contract_edge,
    degree2_reduce,
    format_network,
    format_requests,
    neighborhood,
    parse_network,
    parse_requests,
    recursive_instance,
    spanning_forest,
    t_capacity,
    terminal_capacity,
)
from cutmimic.oracles import min_cut_side

from conftest import (
    connected_terminal_networks,
    path_network,
    random_connected_network,
    triangle,
)
from reference import (
    block_of,
    delete_edges,
    reference_contract_edge,
    reference_contract_vertex_set,
    reference_delete,
)


def test_build_validates():
    with pytest.raises(InputError):
        TerminalNetwork.build([1, 2], [(1, 1, 3)], [1])  # endpoint not a vertex
    with pytest.raises(InputError):
        TerminalNetwork.build([1, 2], [(1, 1, 2)], [3])  # terminal not a vertex
    with pytest.raises(InputError):
        TerminalNetwork.build([1, 2], [(1, 1, 2), (1, 1, 2)], [1])  # dup edge id


def test_build_drops_self_loops():
    net = TerminalNetwork.build([1, 2], [(1, 1, 2), (2, 1, 1)], [1])
    assert net.edge_ids() == (1,)


def test_capacity_triangle():
    net = triangle()
    assert capacity(net, {1}) == 2
    assert capacity(net, set()) == 0
    assert capacity(net, {1, 2, 3}) == 6
    with pytest.raises(InputError):
        capacity(net, {9})


def test_t_capacity_examples():
    tri = triangle(terminals=(1,))
    assert t_capacity(tri, {2, 3}) == 2  # 0 + two boundary edges
    assert t_capacity(tri, {1, 2}) == 4  # deg(1)=2 plus two boundary edges
    p = path_network(3)  # 0 - 1 - 2 - 3, terminals 0 and 3
    assert t_capacity(p, {1, 2}) == 2


def test_degree_counts_parallel_edges_and_rejects_unknown_vertex():
    net = TerminalNetwork.build([1, 2, 3, 5], [(1, 1, 2), (2, 2, 1), (3, 2, 3)],
                                [1])
    assert [net.degree(v) for v in net.vertices] == [2, 3, 1, 0]
    with pytest.raises(InputError):
        net.degree(4)


def test_terminal_capacity_counts_multiplicity():
    net = TerminalNetwork.build([1, 2], [(1, 1, 2), (2, 1, 2)], [1, 2])
    assert terminal_capacity(net) == 4


def test_boundary_counts_parallel_edges():
    p = path_network(2)  # 0 - 1 - 2
    assert boundary(p, {1}) == (1, 2)
    two = TerminalNetwork.build([1, 2], [(1, 1, 2), (2, 1, 2)], [1, 2])
    assert boundary(two, {1}) == (1, 2)  # parallel edges counted individually


def test_components_two_triangles():
    net = TerminalNetwork.build(
        [1, 2, 3, 4, 5, 6],
        [(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 4, 5), (5, 5, 6), (6, 6, 4)],
        [1],
    )
    assert components(net) == ((1, 2, 3), (4, 5, 6))


def test_recursive_instance_path():
    p = path_network(3)
    sub = recursive_instance(p, {1})
    assert set(sub.vertices) == {0, 1, 2}
    assert sub.edge_ids() == (1, 2)
    assert sub.terminals == (0, 2)


def test_recursive_instance_triangle():
    tri = triangle(terminals=(1,))
    sub = recursive_instance(tri, {2})
    # edge 3 joins vertices 3 and 1, both outside S, so it is dropped
    assert sub.edge_ids() == (1, 2)
    assert sub.terminals == (1, 3)


def test_recursive_instance_full_side():
    p = path_network(3)
    sub = recursive_instance(p, {1, 2})
    assert sub.edge_ids() == (1, 2, 3)
    assert sub.terminals == (0, 3)
    with pytest.raises(InputError):
        recursive_instance(p, set())


def test_recursive_instance_capacity_identity():
    """cap of the new terminal set must equal cap_T(S) in the parent."""
    rng = random.Random(11)
    for _ in range(60):
        net = random_connected_network(rng, n_terminals=rng.randint(1, 3))
        nonterm = [v for v in net.vertices if v not in net.terminals]
        if not nonterm:
            continue
        S = set(rng.sample(nonterm, rng.randint(1, len(nonterm))))
        sub = recursive_instance(net, S)
        assert terminal_capacity(sub) == t_capacity(net, S)
        assert set(sub.edges) <= set(net.edges)


def test_contract_edge_path():
    net = TerminalNetwork.build([1, 2, 3], [(1, 1, 2), (2, 2, 3)], [1, 3])
    out = contract_edge(net, 1)
    assert out.edge_ids() == (2,)
    assert out.endpoints(2) == (1, 3)
    for eid in (0, 1, 3):  # before, among and after the edge ids
        with pytest.raises(InputError, match=f"unknown edge id {eid}"):
            out.endpoints(eid)


def test_contract_edge_triangle_makes_parallel():
    tri = triangle(terminals=())
    out = contract_edge(tri, 1)
    assert out.m == 2
    assert frozenset(out.endpoints(2)) == frozenset(out.endpoints(3))


def test_contract_terminal_terminal_refused():
    net = TerminalNetwork.build([1, 2], [(1, 1, 2)], [1, 2])
    with pytest.raises(TerminalContractionError):
        contract_edge(net, 1)


def test_contract_square_preserves_min_cut():
    """Cycle of 4 with opposite terminals: contracting a non-terminal edge
    keeps the minimum {t1},{t2} multiway cut at 2."""
    from cutmimic.oracles import min_multiway_cut

    net = TerminalNetwork.build(
        [1, 2, 3, 4],
        [(1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 1)],
        [1, 3],
    )
    part = Partition.of(net.terminals, [(1,), (3,)])
    before, _ = min_multiway_cut(net, part)
    # edge 2 joins the two non-terminals 2 and 3? no: endpoints (2,3), vertex 3
    # is a terminal, so pick the 2-4 style edge with one free endpoint
    after, _ = min_multiway_cut(contract_edge(net, 1), part)
    assert before == after == 2


def test_contract_edge_batch_refusals():
    # contracting 1 then 2 merges 3 into 1, so edge 3 is by then a loop
    with pytest.raises(InputError, match="edge 3 is a loop"):
        contract_edge(triangle(terminals=()), 1, 2, 3)
    with pytest.raises(InputError, match="edge 1 is a loop"):
        contract_edge(triangle(terminals=()), 1, 1)
    # edge 1 keeps terminal 0, so edge 2 then joins terminals 0 and 2
    with pytest.raises(TerminalContractionError,
                       match="edge 2 joins terminals 0 and 2"):
        contract_edge(path_network(2), 1, 2)


def test_contract_edge_batch_matches_successive_contractions():
    """contract_edge(net, *eids) composes its merges into one edit; it
    gives what contracting the ids one at a time gives, and where that
    fails it fails with the same error type."""
    seen = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        net = random_connected_network(rng, n_hi=9,
                                       n_terminals=rng.randint(1, 3))
        _, u, v = rng.choice(net.edges)  # one parallel copy at least
        net = TerminalNetwork.build(
            net.vertices, net.edges + ((net.fresh_edge_id(), u, v),),
            net.terminals)
        eids = rng.sample(net.edge_ids(), rng.randint(1, net.m))
        cur, error = net, None
        for eid in eids:
            if eid not in cur.edge_ids():
                error = InputError  # dropped as a loop by an earlier id
                break
            a, b = cur.endpoints(eid)
            lo, hi = min(a, b), max(a, b)
            seen["terminal kept"] += hi in cur.terminals and lo not in \
                cur.terminals
            seen["parallel"] += sum({x, y} == {a, b}
                                    for _, x, y in cur.edges) > 1
            try:
                cur = contract_edge(cur, eid)
            except TerminalContractionError:
                error = TerminalContractionError
                break
        if error is None:
            assert contract_edge(net, *eids) == cur, seed
        else:
            with pytest.raises(error):
                contract_edge(net, *eids)
        seen[error] += 1
    for case in (None, InputError, TerminalContractionError,
                 "terminal kept", "parallel"):
        assert seen[case] >= 30, (case, seen)


def test_spanning_forest_contracts_the_classes_of_the_kept_edges():
    """The forest of a fixed edge filter on multigraphs with parallel
    copies: contract_edge takes all of it in one call, each vertex then
    stands for its class among the components of the kept-edge subgraph,
    and the filter is never asked about an edge that the kept edges before
    it already joined."""
    def keep(eid, u, v):
        return (eid + u * v) % 3 != 0

    seen = Counter()
    for seed in range(60):
        rng = random.Random(seed)
        net = random_connected_network(rng, n_hi=10, extra_hi=8,
                                       n_terminals=rng.randint(0, 2))
        _, u, v = rng.choice(net.edges)
        net = TerminalNetwork.build(
            net.vertices, net.edges + ((net.fresh_edge_id(), u, v),),
            net.terminals)
        calls = []

        def recording(eid, u, v):
            calls.append((eid, u, v))
            return keep(eid, u, v)

        forest = spanning_forest(net, recording)
        assert forest == sorted(forest)
        kept = [e for e in net.edges if keep(*e)]
        # keep is asked about an edge exactly when its ends lie apart under
        # the kept edges before it
        apart = []
        for eid, u, v in net.edges:
            labels = component_labels(TerminalNetwork(
                net.vertices, tuple(e for e in kept if e[0] < eid), ()))
            if labels[u] != labels[v]:
                apart.append((eid, u, v))
        assert calls == apart, seed
        seen["skipped"] += net.m - len(calls)
        seen["parallel"] += len({(min(u, v), max(u, v)) for _, u, v in kept}) \
            < len(kept)
        classes = component_labels(
            TerminalNetwork(net.vertices, tuple(kept), ()))
        tset = set(net.terminals)
        if len({classes[t] for t in tset}) < len(tset):
            with pytest.raises(TerminalContractionError):
                contract_edge(net, *forest)
            seen["refused"] += 1
            continue
        out = contract_edge(net, *forest)
        groups: dict[int, set[int]] = {}
        for x, root in classes.items():
            groups.setdefault(root, set()).add(x)
        assert len(out.vertices) == len(groups), seed
        for members in groups.values():
            inside = members & tset
            # the class keeps its terminal, else its least vertex
            stays = inside.pop() if inside else min(members)
            assert set(out.vertices) & members == {stays}, seed
        assert out.edge_ids() == tuple(
            e for e, u, v in net.edges if classes[u] != classes[v])
        seen["contracted"] += 1
    for case in ("skipped", "parallel", "refused", "contracted"):
        assert seen[case] >= 5, (case, seen)


def test_delete_edges_keeps_vertices():
    p = path_network(2)
    out = delete_edges(p, [1])
    assert out.n == 3
    assert out.edge_ids() == (2,)
    assert len(components(out)) == 2
    with pytest.raises(InputError):
        delete_edges(p, [99])


def path_with_one_terminal():
    """1 - 2 - 3 with terminal 3."""
    return TerminalNetwork.build([1, 2, 3], [(1, 1, 2), (2, 2, 3)], [3])


@pytest.mark.parametrize("ev", [
    DeleteComponent((1,)),     # edge 1-2 leaves the set
    DeleteComponent((2,)),     # both edges leave the set
    DeleteComponent((1, 9)),   # 9 is not a vertex
    DeleteLeaf(3),             # a terminal
    DeleteLeaf(2),             # degree 2
], ids=repr)
def test_replay_refuses_malformed_deletions(ev):
    with pytest.raises(InputError):
        apply_local_event(path_with_one_terminal(), ev)


def test_replay_deletes_a_leaf():
    out = apply_local_event(path_with_one_terminal(), DeleteLeaf(1))
    assert out == TerminalNetwork.build([2, 3], [(2, 2, 3)], [3])


def test_degree2_reduce_path_collapses():
    p = path_network(3)
    out, events = degree2_reduce(p)
    assert out.m == 1
    u, v = out.endpoints(out.edge_ids()[0])
    assert {u, v} == {0, 3}
    assert len(events) == 2


def test_degree2_reduce_star_unchanged():
    star = TerminalNetwork.build(
        [0, 1, 2, 3], [(1, 0, 1), (2, 0, 2), (3, 0, 3)], [1, 2, 3])
    out, events = degree2_reduce(star)
    assert out.edges == star.edges and events == ()


def test_degree2_reduce_drops_terminal_free_component():
    from cutmimic.oracles import cut_value_table

    base = path_network(2)
    widened = TerminalNetwork.build(
        list(base.vertices) + [10, 11, 12],
        list(base.edges) + [(7, 10, 11), (8, 11, 12), (9, 12, 10)],
        base.terminals,
    )
    out, _ = degree2_reduce(widened)
    assert set(out.vertices) <= set(base.vertices)
    assert cut_value_table(widened).entries == cut_value_table(out).entries


def test_degree2_reduce_keeps_parallel_pair():
    # non-terminal v joined twice to the same vertex: contraction would drop
    # a self-loop and change multiplicity, so the pair must be kept
    net = TerminalNetwork.build(
        [1, 2, 3], [(1, 1, 2), (2, 2, 3), (3, 2, 3)], [1, 2])
    out, _ = degree2_reduce(net)
    assert out.m == 3


def test_degree2_reduce_leaves_no_reducible_vertex():
    rng = random.Random(5)
    for _ in range(40):
        net = random_connected_network(rng, n_terminals=2)
        out, _ = degree2_reduce(net)
        adj = out.adjacency()
        for v in out.vertices:
            if v in out.terminals:
                continue
            assert len(adj[v]) != 0 and len(adj[v]) != 1
            if len(adj[v]) == 2:
                (e1, w1), (e2, w2) = adj[v]
                assert w1 == w2


def test_degree2_reduce_preserves_cut_values():
    from cutmimic.oracles import cut_value_table

    rng = random.Random(23)
    for _ in range(25):
        net = random_connected_network(rng, n_hi=8, n_terminals=3)
        out, _ = degree2_reduce(net)
        assert cut_value_table(net).entries == cut_value_table(out).entries


def test_degree2_reduce_cost_shape(monkeypatch):
    """The events are applied to an index kept for one call, and the
    network is built at the end: one contract_edge call with every
    contracted id, as the benchmark's span counts, and one _edited call
    for the deletions. So the numbers of edits, of whole-edge passes that
    find the touched edges and of adjacency builds per call do not grow
    with the network."""
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(TerminalNetwork, "adjacency",
                        counting("adjacency", TerminalNetwork.adjacency))
    for name in ("contract_edge", "_edited", "_incident"):
        monkeypatch.setattr(netgraph, name,
                            counting(name, getattr(netgraph, name)))
    shape = {}
    for length in (10, 1000):
        p = path_network(length)
        calls.clear()
        out, events = degree2_reduce(p)
        assert out.m == 1
        assert sum(isinstance(ev, Contract) for ev in events) == length - 1
        assert calls["contract_edge"] == 1
        contracting = dict(calls)
        # the same path with one terminal is cut back leaf by leaf
        calls.clear()
        out, events = degree2_reduce(
            TerminalNetwork.build(p.vertices, p.edges, [0]))
        assert out.m == 0 and len(events) == length
        assert all(isinstance(ev, DeleteLeaf) for ev in events)
        assert calls["contract_edge"] == 0
        shape[length] = (contracting, dict(calls))
    assert shape[10] == shape[1000]
    rng = random.Random(5)
    for _ in range(40):
        net = random_connected_network(rng, n_hi=12, n_terminals=2)
        calls.clear()
        _, events = degree2_reduce(net)
        assert calls["contract_edge"] == any(
            isinstance(ev, Contract) for ev in events)
        assert calls["_edited"] <= 2


def test_degree2_index_drift_raises_internal_error(monkeypatch):
    """A contraction that leaves its network unchanged makes the index
    degree2_reduce keeps disagree with the network it returns."""
    monkeypatch.setattr(netgraph, "contract_edge", lambda net, *eids: net)
    with pytest.raises(InternalError, match="index no longer matches"):
        degree2_reduce(path_network(5))


def test_edit_of_an_unedited_edge_raises_internal_error():
    net = path_with_one_terminal()  # edge 2 joins 2 and 3
    with pytest.raises(InternalError, match="edge 2 .* has no edited end"):
        netgraph._edited(net, {}, {1}, (1, 2))
    with pytest.raises(InternalError, match="edge 9 is not in the network"):
        netgraph._edited(net, {}, {1}, (1, 9))


def test_boundary_sum_bound():
    """Sum of component boundary sizes in G-X is at most 2|X|."""
    rng = random.Random(31)
    for _ in range(40):
        net = random_connected_network(rng, n_terminals=2)
        ids = list(net.edge_ids())
        X = rng.sample(ids, rng.randint(0, min(4, len(ids))))
        left = delete_edges(net, X)
        total = sum(len(boundary(net, comp)) for comp in components(left))
        assert total <= 2 * len(X)


def test_neighborhood():
    p = path_network(3)
    assert neighborhood(p, {1}) == (0, 2)
    assert neighborhood(p, {1, 2}) == (0, 3)


class TestPartition:
    def test_canonical_order(self):
        part = Partition.of([1, 2, 3], [(3,), (2, 1)])
        assert part.blocks == ((1, 2), (3,))
        assert part.to_text() == "1,2|3"

    def test_round_trip(self):
        part = Partition.from_text([1, 2, 3], "1,3|2")
        assert part == Partition.of([1, 2, 3], [(1, 3), (2,)])
        assert Partition.from_text([1, 2, 3], part.to_text()) == part

    def test_validation(self):
        with pytest.raises(InputError):
            Partition.of([1, 2], [(1,)])  # missing 2
        with pytest.raises(InputError):
            Partition.of([1, 2], [(1, 2), (2,)])  # overlap
        with pytest.raises(InputError):
            Partition.of([1, 2], [(1, 2, 3)])  # foreign element

    def test_block_of(self):
        part = Partition.of([1, 2, 3], [(1, 3), (2,)])
        assert block_of(part, 3) == 0
        assert block_of(part, 2) == 1

    def test_all_partitions_bell_counts(self):
        assert len(list(all_partitions([1]))) == 1
        assert len(list(all_partitions([1, 2, 3]))) == 5
        assert len(list(all_partitions([1, 2, 3, 4]))) == 15
        assert len(list(all_partitions([1, 2, 3, 4, 5]))) == 52
        # canonical order: every report lists partitions without sorting
        for t in range(1, 6):
            parts = list(all_partitions(list(range(t, 0, -1))))
            assert parts == sorted(parts,
                                   key=lambda p: (p.size, p.to_text())), t


class TestRequests:
    def test_of_validates(self):
        with pytest.raises(InputError):
            CutRequests.of([1, 2], [(1, 3)])
        with pytest.raises(InputError):
            CutRequests.of([1, 2], [(1, 1)])

    def test_normalized(self):
        reqs = CutRequests.of([1, 2, 3], [(3, 1), (1, 2), (3, 1)])
        assert reqs.pairs == ((1, 2), (1, 3))


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(77)
        for _ in range(20):
            net = random_connected_network(rng, n_terminals=2)
            again = parse_network(format_network(net))
            assert format_network(again) == format_network(net)

    def test_parse_simple(self):
        net = parse_network("c a comment\np tn 3 2 2\nt 1\nt 3\ne 1 2\ne 2 3\n")
        assert net.n == 3 and net.m == 2 and net.terminals == (1, 3)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(InputError, match="line 1"):
            parse_network("p tn x 2 2\n")
        with pytest.raises(InputError, match="line 3"):
            parse_network("p tn 2 1 1\nt 1\ne 1\n")
        with pytest.raises(InputError, match="line 2"):
            parse_network("p tn 2 1 1\nq 1\ne 1 2\n")

    def test_requests_round_trip(self):
        net = parse_network("p tn 3 2 2\nt 1\nt 3\ne 1 2\ne 2 3\n")
        reqs = parse_requests(net, "r 1 3\n")
        assert reqs.pairs == ((1, 3),)
        assert format_requests(reqs) == "r 1 3\n"
        with pytest.raises(InputError):
            parse_requests(net, "r 1 2\n")  # 2 is not a terminal


@st.composite
def contracted_networks(draw):
    """Random multigraphs with some edges contracted, so that vertex and
    edge ids have gaps."""
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          max_size=3 * n))
    terms = draw(st.sets(st.integers(1, n), max_size=4))
    net = TerminalNetwork.build(
        range(1, n + 1), [(k, u, v) for k, (u, v) in enumerate(pairs, 1)],
        terms)
    picks = draw(st.lists(st.integers(1, max(len(pairs), 1)), max_size=n))
    for eid in picks:
        if eid in net.edge_ids() and not all(
                v in net.terminals for v in net.endpoints(eid)):
            net = contract_edge(net, eid)
    return net


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(contracted_networks())
def test_text_format_round_trip_property(net):
    text = format_network(net)
    assert format_network(parse_network(text)) == text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(connected_terminal_networks(), st.integers(0, 10**6))
def test_contract_edge_never_lowers_bipartition_cuts_property(net, pick):
    tset = set(net.terminals)
    free = [e for e in net.edge_ids()
            if not set(net.endpoints(e)) <= tset]
    if not free:
        return
    after = contract_edge(net, free[pick % len(free)])
    for part in all_partitions(net.terminals):
        if len(part.blocks) != 2:
            continue
        a, b = part.blocks
        assert min_cut_side(after, a, b)[0] >= min_cut_side(net, a, b)[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(connected_terminal_networks(), st.booleans(), st.data())
def test_edits_match_build_references_property(net, with_cycle, data):
    # Up to three successive edits, each of a kind drawn among those the
    # current network allows. Every output equals the build-based
    # reference's and is already what build makes of it: sorted, loop-free
    # and valid.
    if with_cycle:  # a terminal-free triangle, for DeleteComponent
        a, e = net.vertices[-1], net.edges[-1][0]
        net = TerminalNetwork.build(
            net.vertices + (a + 1, a + 2, a + 3),
            net.edges + ((e + 1, a + 1, a + 2), (e + 2, a + 2, a + 3),
                         (e + 3, a + 3, a + 1)),
            net.terminals)
    for _ in range(data.draw(st.integers(1, 3))):
        tset = set(net.terminals)
        free = [e for e, u, v in net.edges if not (u in tset and v in tset)]
        leaves = [v for v in net.vertices
                  if v not in tset and net.degree(v) == 1]
        dead = [c for c in components(net) if tset.isdisjoint(c)]
        kinds = ["set"] + ["edge"] * bool(free) + ["leaf"] * bool(leaves) \
            + ["component"] * bool(dead)
        kind = data.draw(st.sampled_from(kinds))
        # vertex -> its edge ids: an edit handed the edges an index names
        # must equal one that finds them in a pass over the edges
        index = {v: [e for e, _ in ends]
                 for v, ends in net.adjacency().items()}
        if kind == "edge":
            eid = data.draw(st.sampled_from(free))
            out, want = contract_edge(net, eid), reference_contract_edge(net, eid)
            keep, gone = netgraph._contraction_ends(*net.endpoints(eid), tset)
            spliced = netgraph._edited(net, {gone: keep}, frozenset(),
                                       index[gone])
        elif kind == "set":
            # a connected S with at most one terminal, grown from a seed
            # vertex along edges; it collapses onto its terminal, else onto
            # its least vertex
            S = {data.draw(st.sampled_from(net.vertices))}
            for _ in range(data.draw(st.integers(0, 6))):
                grow = sorted({w for _, u, v in net.edges
                               for x, w in ((u, v), (v, u))
                               if x in S and w not in S
                               and not (w in tset and S & tset)})
                if not grow:
                    break
                S.add(data.draw(st.sampled_from(grow)))
            onto = min(S & tset or S)
            out = contract_edge(net, *spanning_forest(
                net, lambda eid, u, v: u in S and v in S))
            want = reference_contract_vertex_set(net, S, onto)
            merged = S - {onto}
            spliced = netgraph._edited(
                net, dict.fromkeys(merged, onto), frozenset(),
                {e for w in merged for e in index[w]})
        else:
            ev = (DeleteLeaf(data.draw(st.sampled_from(leaves)))
                  if kind == "leaf" else
                  DeleteComponent(data.draw(st.sampled_from(dead))))
            out, want = apply_local_event(net, ev), reference_delete(net, ev)
            gone = {ev.vertex} if kind == "leaf" else set(ev.vertices)
            spliced = netgraph._edited(
                net, {}, gone, {e for w in gone for e in index[w]})
        assert out == want, kind
        assert spliced == out, kind
        assert out == TerminalNetwork.build(out.vertices, out.edges,
                                            out.terminals), kind
        net = out
