"""Ground-truth oracle tests.

The solvers here back every other suite, so they get an independent naive
reference: plain subset search over edge sets with a local component splitter,
no shared code with the module under test.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cutmimic import oracles
from cutmimic.errors import InputError, InternalError, RefusedError
from cutmimic.netgraph import (
    CutRequests,
    Partition,
    TerminalNetwork,
    all_partitions,
    component_labels,
    components,
    contract_edge,
)
from cutmimic.oracles import (
    CutValueTable,
    VerifyReport,
    closest_min_cut,
    cut_covering_set,
    cut_value_table,
    essential_edges,
    essential_for_network,
    is_multicut,
    is_multiway_cut,
    min_cut_side,
    min_multicut,
    min_multiway_cut,
    verify_mimicking,
)

from conftest import path_network, random_connected_network, triangle
from record_search_witnesses import FIXTURE, masked_pairs, request_masks
from reference import (
    enumerate_minimum_multiway_cuts,
    isolating_cut_values,
    smallest_separating_edge_sets,
    two_approx_multicut_cover,
)


# independent reference implementation


def naive_components(net, removed):
    adj = {v: [] for v in net.vertices}
    for eid, u, v in net.edges:
        if eid not in removed:
            adj[u].append(v)
            adj[v].append(u)
    seen, comps = set(), []
    for v in net.vertices:
        if v in seen:
            continue
        comp, stack = set(), [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            comp.add(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def naive_separates(net, part, removed):
    block = {t: part.block_of(t) for t in net.terminals}
    for comp in naive_components(net, removed):
        met = {block[t] for t in comp if t in block}
        if len(met) > 1:
            return False
    return True


def naive_multiway(net, part):
    eids = net.edge_ids()
    for size in range(net.m + 1):
        for X in itertools.combinations(eids, size):
            if naive_separates(net, part, set(X)):
                return size
    raise AssertionError("unreachable: full edge set always separates")


def star3():
    return TerminalNetwork.build(
        [0, 1, 2, 3], [(1, 0, 1), (2, 0, 2), (3, 0, 3)], (1, 2, 3))


def c4(terminals=(1, 2, 3, 4)):
    return TerminalNetwork.build(
        [1, 2, 3, 4],
        [(1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 1)],
        terminals)


def singletons(net):
    terms = sorted(net.terminals)
    return Partition.of(terms, [[t] for t in terms])


# minimum multiway cut


def test_multiway_star_singletons():
    value, witness = min_multiway_cut(star3(), singletons(star3()))
    assert value == 2
    assert len(witness) == 2


def test_multiway_c4_singletons():
    value, witness = min_multiway_cut(c4(), singletons(c4()))
    assert value == 4
    assert set(witness) == {1, 2, 3, 4}


def test_multiway_single_block_is_zero():
    net = c4()
    part = Partition.of(sorted(net.terminals), [sorted(net.terminals)])
    assert min_multiway_cut(net, part) == (0, ())


def test_multiway_matches_naive_search():
    for seed in range(20):
        rng = random.Random(seed)
        net = random_connected_network(
            rng, n_lo=3, n_hi=6, extra_lo=0, extra_hi=3,
            n_terminals=rng.choice([2, 3]))
        for part in all_partitions(net.terminals):
            value, witness = min_multiway_cut(net, part)
            assert value == naive_multiway(net, part), (seed, part)
            assert len(witness) == value
            assert is_multiway_cut(net, part, witness)


def test_multiway_partition_must_cover_terminals():
    with pytest.raises(InputError):
        min_multiway_cut(star3(), Partition.of((1, 2), [[1], [2]]))


def test_multiway_bad_witness_raises_internal_error(monkeypatch):
    # an explicit raise, so the check also holds under python -O
    monkeypatch.setattr("cutmimic.oracles.is_multiway_cut", lambda *a: False)
    part = Partition.of((1, 2, 3), [[1], [2, 3]])
    with pytest.raises(InternalError, match=r"of value 2 is not a multiway"):
        min_multiway_cut(triangle(), part)


def test_multiway_refuses_above_edge_ceiling(monkeypatch):
    monkeypatch.setattr("cutmimic.oracles.BB_EDGE_CEILING", 3)
    with pytest.raises(RefusedError, match="exceeds search ceiling 3"):
        min_multiway_cut(c4(), singletons(c4()))


def count_flow_calls(monkeypatch):
    calls = []
    real = oracles.min_cut_side

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("cutmimic.oracles.min_cut_side", counting)
    return calls


def test_search_refuses_before_any_flow(monkeypatch):
    # a graph over the search ceiling is refused before any other work
    calls = count_flow_calls(monkeypatch)
    monkeypatch.setattr("cutmimic.oracles.BB_EDGE_CEILING", 3)
    net = c4()
    with pytest.raises(RefusedError, match="exceeds search ceiling 3"):
        min_multiway_cut(net, singletons(net))
    with pytest.raises(RefusedError, match="exceeds search ceiling 3"):
        min_multicut(net, CutRequests.of((1, 2, 3, 4), [(1, 2), (3, 4)]))
    assert calls == []


def test_search_runs_no_flow(monkeypatch):
    # the search starts deepening at budget 0: no lower-bound flows
    calls = count_flow_calls(monkeypatch)
    for seed in range(8):
        rng = random.Random(800 + seed)
        net = random_connected_network(
            rng, n_lo=4, n_hi=8, extra_hi=3, n_terminals=rng.choice([3, 4]))
        terms = sorted(net.terminals)
        for part in all_partitions(terms):
            if len(part.blocks) >= 3:
                min_multiway_cut(net, part)
        pairs = list(itertools.combinations(terms, 2))
        for chosen in (pairs[:2], pairs[1:], pairs):
            min_multicut(net, CutRequests.of(terms, chosen))
    assert calls == []


@st.composite
def small_search_instances(draw):
    # 3-4 terminals and m <= 5 + 4 edges, small enough for subset search
    seed = draw(st.integers(0, 2 ** 32))
    t = draw(st.integers(3, 4))
    return random_connected_network(
        random.Random(seed), n_lo=t, n_hi=6, extra_hi=4, n_terminals=t)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_search_instances(), st.data())
def test_multicut_search_matches_subset_search(net, data):
    terms = sorted(net.terminals)
    pairs = data.draw(st.lists(
        st.sampled_from(list(itertools.combinations(terms, 2))),
        min_size=2, unique=True))
    value, witness = min_multicut(net, CutRequests.of(terms, pairs))
    least, sets = smallest_separating_edge_sets(net, pairs)
    assert value == least
    assert frozenset(witness) in sets and len(witness) == value


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_search_instances(), st.data())
def test_multiway_search_matches_subset_search(net, data):
    parts = [p for p in all_partitions(net.terminals) if len(p.blocks) >= 3]
    part = data.draw(st.sampled_from(parts))
    value, witness = min_multiway_cut(net, part)
    cross = [(a, b) for a, b in itertools.combinations(sorted(net.terminals), 2)
             if part.block_of(a) != part.block_of(b)]
    least, sets = smallest_separating_edge_sets(net, cross)
    assert value == least
    assert frozenset(witness) in sets and len(witness) == value


def test_search_witnesses_match_recording():
    """Values and witnesses of the branch-and-bound search on 30 corpus
    networks, recorded by tests/record_search_witnesses.py: every partition
    with at least 3 blocks and every request set of at least 2 pairs."""
    cases = json.loads(FIXTURE.read_text())
    assert len(cases) == 30
    for case in cases:
        terms = case["terminals"]
        net = TerminalNetwork.build(
            case["vertices"], [tuple(e) for e in case["edges"]], terms)
        parts = sorted((p for p in all_partitions(terms) if len(p.blocks) >= 3),
                       key=lambda p: p.to_text())
        assert [row[0] for row in case["multiway"]] == \
            [p.to_text() for p in parts]
        for text, value, witness in case["multiway"]:
            got = min_multiway_cut(net, Partition.from_text(terms, text))
            assert got == (value, tuple(witness)), (case["seed"], text)
        assert [row[0] for row in case["multicut"]] == request_masks(terms)
        for mask, value, witness in case["multicut"]:
            req = CutRequests.of(terms, masked_pairs(terms, mask))
            got = min_multicut(net, req)
            assert got == (value, tuple(witness)), (case["seed"], mask)


def test_shared_index_replays_recording_in_any_order():
    # one index per network serves every search on it, whatever order the
    # partitions and request sets come in
    cases = json.loads(FIXTURE.read_text())
    rng = random.Random(1606)
    for case in cases:
        terms = case["terminals"]
        net = TerminalNetwork.build(
            case["vertices"], [tuple(e) for e in case["edges"]], terms)
        index = oracles._SearchIndex(net)
        rows = [("mwc", *row) for row in case["multiway"]] + \
            [("mc", *row) for row in case["multicut"]]
        rng.shuffle(rows)
        for kind, key, value, witness in rows:
            if kind == "mwc":
                got = min_multiway_cut(
                    net, Partition.from_text(terms, key), index=index)
            else:
                got = min_multicut(
                    net, CutRequests.of(terms, masked_pairs(terms, key)),
                    index=index)
            assert got == (value, tuple(witness)), (case["seed"], kind, key)
        assert index.paths  # the searches stored their paths in it


def per_call_essential(net):
    # essential_edges' rule with a fresh index for every search: an edge of
    # a minimum witness is essential if it joins two terminals, or if
    # contracting it raises the value
    out = {}
    for part in all_partitions(net.terminals):
        base, witness = min_multiway_cut(net, part)
        out[part] = tuple(
            e for e in witness
            if set(net.endpoints(e)) <= set(net.terminals)
            or min_multiway_cut(contract_edge(net, e), part)[0] > base)
    return out


def test_whole_call_index_matches_per_call_results():
    for seed in range(50):
        rng = random.Random(1600 + seed)
        t = 3 + seed % 3
        net = random_connected_network(
            rng, n_lo=t + 1, n_hi=8, extra_hi=4, n_terminals=t)
        table = cut_value_table(net)
        assert table.entries == tuple(sorted(
            ((p, min_multiway_cut(net, p)[0])
             for p in all_partitions(net.terminals)),
            key=lambda r: (len(r[0].blocks), r[0].to_text()))), seed
        assert essential_edges(net) == per_call_essential(net), seed


def test_index_of_another_network_is_refused():
    net, other = c4(), c4()
    index = oracles._SearchIndex(other)
    with pytest.raises(InputError, match="another network"):
        min_multiway_cut(net, singletons(net), index=index)
    with pytest.raises(InputError, match="another network"):
        min_multicut(net, CutRequests.of((1, 2, 3, 4), [(1, 2), (3, 4)]),
                     index=index)
    assert min_multiway_cut(other, singletons(other), index=index) == \
        min_multiway_cut(other, singletons(other))


# minimum multicut


def test_multicut_triangle_one_request():
    net = triangle()
    value, witness = min_multicut(net, CutRequests.of((1, 2, 3), [(1, 2)]))
    assert value == 2
    assert is_multicut(net, CutRequests.of((1, 2, 3), [(1, 2)]), witness)


def test_multicut_no_requests_is_zero():
    assert min_multicut(triangle(), CutRequests.of((1, 2, 3), [])) == (0, ())


def test_multicut_equals_multiway_on_cross_block_pairs():
    # all cross-block request pairs ask for exactly the partition separation
    for seed in range(15):
        rng = random.Random(100 + seed)
        net = random_connected_network(
            rng, n_lo=3, n_hi=6, extra_hi=3, n_terminals=3)
        terms = sorted(net.terminals)
        for part in all_partitions(net.terminals):
            pairs = [(a, b) for a, b in itertools.combinations(terms, 2)
                     if part.block_of(a) != part.block_of(b)]
            if not pairs:
                continue
            req = CutRequests.of(terms, pairs)
            assert min_multicut(net, req)[0] == min_multiway_cut(net, part)[0]


@st.composite
def request_instances(draw):
    seed = draw(st.integers(0, 2 ** 32))
    t = draw(st.integers(2, 4))
    net = random_connected_network(
        random.Random(seed), n_lo=t, n_hi=7, extra_hi=3, n_terminals=t)
    terms = sorted(net.terminals)
    chosen = draw(st.lists(
        st.sampled_from(list(itertools.combinations(terms, 2))),
        min_size=1, unique=True))
    return net, CutRequests.of(terms, chosen)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(request_instances())
def test_multicut_is_least_multiway_cut_over_separating_partitions(inst):
    # the partition correspondence: the two routes verify_mimicking compares
    net, req = inst
    best = min(min_multiway_cut(net, part)[0]
               for part in all_partitions(net.terminals)
               if all(part.block_of(a) != part.block_of(b)
                      for a, b in req.pairs))
    assert min_multicut(net, req)[0] == best


# essential edges


def test_essential_unique_bottleneck_edge():
    # parallel pair t1=a, then a single a-t2 edge: only edge 3 is in every
    # minimum cut
    net = TerminalNetwork.build(
        [1, 2, 5], [(1, 1, 5), (2, 1, 5), (3, 5, 2)], (1, 2))
    per = essential_edges(net)
    part = Partition.of((1, 2), [[1], [2]])
    assert per[part] == (3,)
    assert essential_for_network(net) == (3,)


def test_essential_parallel_paths_empty():
    net = TerminalNetwork.build(
        [1, 2, 3, 4],
        [(1, 1, 3), (2, 3, 2), (3, 1, 4), (4, 4, 2)],
        (1, 2))
    per = essential_edges(net)
    assert all(edges == () for edges in per.values())


def test_essential_single_block_always_empty():
    for seed in range(5):
        rng = random.Random(200 + seed)
        net = random_connected_network(rng, n_terminals=2)
        per = essential_edges(net)
        single = Partition.of(sorted(net.terminals), [sorted(net.terminals)])
        assert per[single] == ()


def test_essential_triangle_every_edge():
    # each edge joins two singleton blocks, so every cut holds it
    net = triangle()
    assert essential_edges(net)[singletons(net)] == (1, 2, 3)


def terminal_multigraph(rng):
    # a connected network with 2-4 terminals, plus a parallel copy of an
    # edge at a terminal and one or two edges joining two terminals
    t = rng.randint(2, 4)
    net = random_connected_network(
        rng, n_lo=t + 1, n_hi=6, extra_hi=2, n_terminals=t)
    tset = set(net.terminals)
    edges = list(net.edges)
    eid = net.fresh_edge_id()
    _, u, v = rng.choice([e for e in edges if tset & {e[1], e[2]}])
    edges.append((eid, u, v))
    a, b = rng.sample(net.terminals, 2)
    edges += [(eid + i, a, b) for i in range(1, rng.randint(1, 2) + 1)]
    return TerminalNetwork.build(net.vertices, edges, net.terminals)


def test_essential_matches_witness_intersection():
    # e is in every minimum witness iff making it undeletable raises the
    # value: on simple draws, and on multigraphs with parallel edges at a
    # terminal and edges joining two terminals
    nets = [random_connected_network(random.Random(300 + seed), n_lo=3,
                                     n_hi=5, extra_hi=2, n_terminals=2)
            for seed in range(10)]
    nets += [terminal_multigraph(random.Random(3300 + seed))
             for seed in range(40)]
    for i, net in enumerate(nets):
        per = essential_edges(net)
        for part in all_partitions(net.terminals):
            if len(part.blocks) == 1:
                continue
            cuts = enumerate_minimum_multiway_cuts(net, part)
            shared = set(net.edge_ids())
            for X in cuts:
                shared &= set(X)
            assert set(per[part]) == shared, (i, part)


def test_essential_refuses_many_terminals():
    verts = list(range(9))
    edges = [(i, i, i + 1) for i in range(1, 8)]
    net = TerminalNetwork.build(verts, edges, (1, 2, 3, 4, 5, 6))
    with pytest.raises(RefusedError):
        essential_edges(net)


def test_enumerate_minimum_cuts_triangle():
    net = triangle()
    part = Partition.of((1, 2, 3), [[1, 2], [3]])
    assert enumerate_minimum_multiway_cuts(net, part) == ((2, 3),)
    assert enumerate_minimum_multiway_cuts(net, singletons(net)) == ((1, 2, 3),)
    with pytest.raises(RefusedError):
        enumerate_minimum_multiway_cuts(net, singletons(net), limit=0)


# closest minimum cuts


def test_closest_cut_path_takes_first_edge():
    net = path_network(3)  # t=0, a=1, b=2, t=3
    assert closest_min_cut(net, [0], [3]) == (1,)


def test_closest_cut_parallel_edges_both():
    net = TerminalNetwork.build([1, 2], [(1, 1, 2), (2, 1, 2)], (1, 2))
    assert closest_min_cut(net, [1], [2]) == (1, 2)


def test_closest_cut_c4_opposite_vertices():
    net = c4(terminals=(1, 3))
    assert closest_min_cut(net, [1], [3]) == (1, 4)


def test_closest_cut_rejects_overlap():
    with pytest.raises(InputError):
        closest_min_cut(triangle(), [1, 2], [2, 3])
    with pytest.raises(InputError):
        closest_min_cut(triangle(), [], [2])


def test_closest_cut_side_is_inclusion_minimal():
    # among all minimum separating edge sets, the returned one has the
    # smallest A-side, verified by enumeration
    for seed in range(15):
        rng = random.Random(400 + seed)
        net = random_connected_network(
            rng, n_lo=3, n_hi=6, extra_hi=3, n_terminals=2)
        a, b = sorted(net.terminals)
        value, reach = min_cut_side(net, [a], [b])
        cut = closest_min_cut(net, [a], [b])
        assert len(cut) == value
        assert set(cut) == {e for e, u, v in net.edges
                            if (u in reach) != (v in reach)}
        for X in itertools.combinations(net.edge_ids(), value):
            comps = naive_components(net, set(X))
            side = next(c for c in comps if a in c)
            if b in side:
                continue
            assert reach <= side, (seed, X)


def test_flow_refuses_huge_graphs():
    n = 4100
    verts = list(range(n + 1))
    edges = [(i, i - 1, i) for i in range(1, n + 1)]
    net = TerminalNetwork.build(verts, edges, (0, n))
    with pytest.raises(RefusedError):
        min_cut_side(net, [0], [n])


# cut-covering sets


def test_cut_cover_star_all_edges():
    assert cut_covering_set(star3()) == (1, 2, 3)


def test_cut_cover_bridge_path_first_edge():
    assert cut_covering_set(path_network(3)) == (1,)


def test_cut_cover_single_terminal_empty():
    net = TerminalNetwork.build([1, 2], [(1, 1, 2)], (1,))
    assert cut_covering_set(net) == ()


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_cut_cover_is_union_over_two_block_partitions(t):
    # the direct bipartition walk against the two-block partitions of the
    # full partition list, each cut taken with its first block as A-side
    for seed in range(8):
        rng = random.Random(100 * t + seed)
        net = random_connected_network(
            rng, n_lo=t + 1, n_hi=9, extra_hi=5, n_terminals=t)
        want = set()
        for part in all_partitions(net.terminals):
            if part.size == 2:
                want.update(closest_min_cut(net, *part.blocks))
        assert cut_covering_set(net) == tuple(sorted(want)), (t, seed)


def test_cut_cover_contains_a_min_cut_per_bipartition():
    # covering definition: for every bipartition some minimum cut lies in Z
    for seed in range(10):
        rng = random.Random(500 + seed)
        net = random_connected_network(
            rng, n_lo=3, n_hi=6, extra_hi=3, n_terminals=3)
        Z = set(cut_covering_set(net))
        terms = sorted(net.terminals)
        for r in range(1, len(terms)):
            for A in itertools.combinations(terms, r):
                B = [t for t in terms if t not in A]
                value, _ = min_cut_side(net, A, B)
                inside = [X for X in itertools.combinations(sorted(Z), value)
                          if naive_separates(
                              net, Partition.of(terms, [list(A), B]), set(X))]
                assert inside, (seed, A)


# two-approximate covers


def test_two_approx_triangle():
    net = triangle()
    part = singletons(net)
    witness, value = two_approx_multicut_cover(net, part)
    assert value == 3 and set(witness) == {1, 2, 3}
    opt = naive_multiway(net, part)
    assert opt == 3  # no 2-edge subset splits all three singleton blocks
    assert value <= 2 * opt


def test_two_approx_c4_tight():
    net = c4()
    witness, value = two_approx_multicut_cover(net, singletons(net))
    assert value == 4
    assert naive_multiway(net, singletons(net)) == 4


def test_two_approx_single_block_empty():
    net = triangle()
    part = Partition.of((1, 2, 3), [[1, 2, 3]])
    assert two_approx_multicut_cover(net, part) == ((), 0)


def test_two_approx_and_isolating_sums_within_factor_two():
    for seed in range(15):
        rng = random.Random(600 + seed)
        net = random_connected_network(
            rng, n_lo=4, n_hi=7, extra_hi=3, n_terminals=rng.choice([2, 3]))
        for part in all_partitions(net.terminals):
            opt, _ = min_multiway_cut(net, part)
            witness, value = two_approx_multicut_cover(net, part)
            assert value <= 2 * opt, (seed, part)
            assert is_multiway_cut(net, part, witness)
            assert sum(isolating_cut_values(net, part)) <= 2 * opt, (seed, part)


def test_isolating_values_zero_for_full_block():
    net = triangle()
    part = Partition.of((1, 2, 3), [[1, 2, 3]])
    assert isolating_cut_values(net, part) == (0,)


# cut value tables


def test_table_canonical_order_and_values():
    table = cut_value_table(triangle())
    texts = [p.to_text() for p, _ in table.entries]
    assert texts == ["1,2,3", "1,2|3", "1,3|2", "1|2,3", "1|2|3"]
    assert [v for _, v in table.entries] == [0, 2, 2, 2, 3]
    assert table.to_text().endswith("\n")


def test_table_rejects_nonzero_single_block():
    part = Partition.of((1, 2), [[1, 2]])
    with pytest.raises(InputError):
        CutValueTable(((part, 1),))


def test_table_monotone_under_refinement():
    def refines(p, q):
        return all(
            any(set(bp) <= set(bq) for bq in q.blocks) for bp in p.blocks)

    for seed in range(10):
        rng = random.Random(700 + seed)
        net = random_connected_network(
            rng, n_lo=3, n_hi=6, extra_hi=3, n_terminals=3)
        table = cut_value_table(net)
        for p, vp in table.entries:
            for q, vq in table.entries:
                if refines(p, q):
                    assert vp >= vq, (seed, p, q)


# mimicking verification


def test_verify_identity():
    net = c4(terminals=(1, 3))
    assert verify_mimicking(net, net).ok


def test_verify_subdivision_equal():
    net = path_network(2)  # 0-1-2, terminals 0 and 2
    finer = path_network(3)
    finer = TerminalNetwork.build(finer.vertices, finer.edges, (0, 3))
    report = verify_mimicking(net,
                              TerminalNetwork.build(
                                  [0, 1, 9, 2],
                                  [(1, 0, 1), (2, 1, 9), (3, 9, 2)],
                                  (0, 2)))
    assert report.ok and report.partition is None


def test_verify_missing_bridge_names_partition():
    net = path_network(2)
    broken = TerminalNetwork.build([0, 1, 2], [(1, 0, 1)], (0, 2))
    report = verify_mimicking(net, broken)
    assert not report.ok
    assert report.partition == Partition.of((0, 2), [[0], [2]])
    assert "0|2" in report.detail and "1 vs 0" in report.detail


def count_multicut_calls(monkeypatch):
    calls = []
    real = oracles.min_multicut

    def counting(net, requests, *, index=None):
        calls.append(requests.pairs)
        return real(net, requests, index=index)

    monkeypatch.setattr("cutmimic.oracles.min_multicut", counting)
    return calls


def drawn_masks(n_pairs, spot_checks, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(n_pairs) for _ in range(spot_checks)]


def test_verify_solves_each_distinct_request_set_once_per_network(monkeypatch):
    calls = count_multicut_calls(monkeypatch)
    for net in (path_network(2), triangle(), star3(), c4()):
        calls.clear()
        assert verify_mimicking(net, net, seed=3).ok
        n_pairs = len(net.terminals) * (len(net.terminals) - 1) // 2
        distinct = set(drawn_masks(n_pairs, 100, 3)) - {0}
        assert len(calls) == 2 * len(distinct)
        assert len(set(calls)) == len(distinct)


def test_verify_passes_one_index_per_network(monkeypatch):
    seen = []
    for name in ("min_multiway_cut", "min_multicut"):
        def recording(net, what, *, index=None, real=getattr(oracles, name)):
            seen.append((net, index))
            return real(net, what, index=index)
        monkeypatch.setattr(f"cutmimic.oracles.{name}", recording)
    net, other = c4(), c4()
    assert verify_mimicking(net, other).ok
    for n in (net, other):
        indices = {id(index) for m, index in seen if m is n}
        assert len(indices) == 1
        assert next(index for m, index in seen if m is n).net is n
    assert len(seen) > 2 * len(list(all_partitions(net.terminals)))


def undeduplicated_verify(net, other, spot_checks=100, seed=0):
    # verify_mimicking's loop before deduplication, table check left out
    terms = sorted(net.terminals)
    pairs = list(itertools.combinations(terms, 2))
    for mask in drawn_masks(len(pairs), spot_checks, seed):
        chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
        if not chosen:
            continue
        req = CutRequests.of(terms, chosen)
        v1, v2 = min_multicut(net, req)[0], min_multicut(other, req)[0]
        if v1 != v2:
            text = " ".join(f"{a}-{b}" for a, b in chosen)
            return VerifyReport(False, f"requests {text}: {v1} vs {v2}")
    return VerifyReport(True)


def test_verify_dedup_reports_first_mismatch_in_draw_order(monkeypatch):
    # the table is made to agree, so only a spot check can tell the path
    # 1-2-3 from the same path with edge 1-2 doubled: exactly the request
    # sets holding 1-2 differ
    net = TerminalNetwork.build([1, 2, 3], [(1, 1, 2), (2, 2, 3)], (1, 2, 3))
    doubled = TerminalNetwork.build(
        [1, 2, 3], [(1, 1, 2), (2, 2, 3), (3, 1, 2)], (1, 2, 3))
    monkeypatch.setattr("cutmimic.oracles.min_multiway_cut",
                        lambda *args, **kwargs: (0, ()))
    for seed in range(10):
        expected = undeduplicated_verify(net, doubled, seed=seed)
        assert not expected.ok
        assert verify_mimicking(net, doubled, seed=seed) == expected, seed
    # seed 6 draws {1-3, 2-3}, {2-3}, {1-3, 2-3} again, nothing, {1-2, 1-3}
    assert drawn_masks(3, 5, 6) == [6, 4, 6, 0, 3]
    calls = count_multicut_calls(monkeypatch)
    report = verify_mimicking(net, doubled, seed=6)
    assert report.detail == "requests 1-2 1-3: 1 vs 2"
    assert len(calls) == 2 * 3


def test_verify_requires_same_terminals():
    with pytest.raises(InputError):
        verify_mimicking(path_network(2), path_network(3))


# witness predicates


def test_is_multiway_cut_basic():
    net = triangle()
    part = Partition.of((1, 2, 3), [[1, 2], [3]])
    assert is_multiway_cut(net, part, (2, 3))
    assert not is_multiway_cut(net, part, (1,))


def test_is_multicut_basic():
    net = path_network(2)
    req = CutRequests.of((0, 2), [(0, 2)])
    assert is_multicut(net, req, (1,))
    assert not is_multicut(net, req, ())


def component_test_network(rng, k):
    """Every fourth draw is a long chain, its edge ids running along it or
    against it and its ends in either order; the rest are multigraphs on
    vertex ids with gaps, with isolated vertices and parallel edges."""
    if k % 4 == 0:
        verts = rng.sample(range(1, 400), rng.randint(40, 80))
        links = list(zip(verts, verts[1:]))
        if k % 8:
            links.reverse()
        edges = [(eid, *(uv if rng.random() < 0.5 else uv[::-1]))
                 for eid, uv in enumerate(links, 1)]
    else:
        verts = rng.sample(range(1, 60), rng.randint(1, 14))
        core = verts[:rng.randint(1, len(verts))]  # the rest stay isolated
        edges = []
        for eid in range(1, rng.randint(0, 2 * len(core)) + 1):
            if edges and rng.random() < 0.3:
                edges.append((eid, *edges[-1][1:]))  # a parallel copy
            else:
                edges.append((eid, rng.choice(core), rng.choice(core)))
    terms = rng.sample(verts, min(len(verts), rng.randint(2, 5)))
    return TerminalNetwork.build(verts, edges, terms)


def test_component_routines_match_naive_components():
    rng = random.Random(30)
    for k in range(400):
        net = component_test_network(rng, k)
        ids = net.edge_ids()
        removed = rng.sample(ids, rng.randint(0, len(ids)))
        top = max(ids, default=0)
        removed += rng.sample(range(top + 1, top + 9), 2)  # absent ids
        naive = naive_components(net, set(removed))
        assert components(net, removed) == tuple(
            tuple(sorted(comp)) for comp in naive), (net, removed)
        labels = component_labels(net, removed)
        assert labels == {v: min(comp) for comp in naive for v in comp}
        terms = net.terminals
        if len(terms) < 2:
            continue
        blocks = {}
        for t in terms:
            blocks.setdefault(rng.randrange(len(terms)), []).append(t)
        part = Partition.of(terms, blocks.values())
        assert is_multiway_cut(net, part, removed) == naive_separates(
            net, part, set(removed)), (net, part, removed)
        pairs = list(itertools.combinations(terms, 2))
        pairs = rng.sample(pairs, min(len(pairs), rng.randint(1, 3)))
        req = CutRequests.of(terms, pairs)
        comp_of = {v: i for i, comp in enumerate(naive) for v in comp}
        assert is_multicut(net, req, removed) == all(
            comp_of[u] != comp_of[v] for u, v in req.pairs)
