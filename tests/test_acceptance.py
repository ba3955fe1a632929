"""Release gates for the whole pipeline.

Every test here fixes its corpus, its tolerance, and where relevant a
runtime ceiling, and fails on the first violation. The corpora are seeded,
so a red run reproduces exactly. Nothing in this file trusts the modules
under test for ground truth: cut values come from the exhaustive solvers,
independence from the flow oracle, and extension properties from direct
sweeps over all bases.
"""

import itertools
import random
import time
from dataclasses import replace
from math import comb, prod
from pathlib import Path

from cutmimic.ffield import MERSENNE61, PrimeField, vandermonde
from cutmimic.frontend import (
    MulticutInstance,
    MultiwayCutInstance,
    cli,
    kernelize_multicut,
    kernelize_multiway_cut,
)
from cutmimic.marker import MarkParams, mark
from cutmimic.matroids import build_edge_cut_gammoid_digraph, uniform_rep
from cutmimic.netgraph import (
    CutRequests,
    Partition,
    TerminalNetwork,
    all_partitions,
    components,
    t_capacity,
    terminal_capacity,
)
from cutmimic.oracles import (
    cut_value_table,
    essential_edges,
    essential_for_network,
    min_multicut,
    min_multiway_cut,
)
from cutmimic.reducer import ReduceParams, mimicking_network
from cutmimic.tester import exact_tester

from conftest import random_connected_network
from reference import (
    covering_condition_holds,
    delete_edges,
    disjoint_union,
    edge_cut_gammoid,
    enumerate_minimum_multiway_cuts,
    extends,
    is_independent,
    is_independent_by_flow,
    isolating_cut_values,
    rank,
    representative_set_general,
    select_tuples,
    two_approx_multicut_cover,
)

F = PrimeField(MERSENNE61)

FIXTURES = Path(__file__).parent / "fixtures"


def table_rows(net):
    return [(p.to_text(), v) for p, v in cut_value_table(net).entries]


def singletons(net):
    terms = sorted(net.terminals)
    return Partition.of(terms, [[t] for t in terms])


# 1. reduction exactness on a 200-instance corpus


def test_reduction_preserves_all_cut_values_on_corpus():
    """Full reduction leaves every partition's minimum multiway cut value
    unchanged on 200 seeded connected multigraphs with n <= 14, 2 to 5
    terminals, and terminal capacity at most 8.

    Tolerance: zero mismatches; one reseeded retry per instance is allowed
    before a mismatch counts. Runtime ceiling: 300 seconds for the loop.
    Each instance runs twice, once at default parameters and once with the
    size threshold forced to 2 so the marking and recursion branches do
    real work instead of stopping at the base case.
    """
    started = time.monotonic()
    for seed in range(200):
        t = [2, 3, 4, 5][seed % 4]
        rng = random.Random(seed)
        net = random_connected_network(
            rng, n_lo=max(4, t + 1), n_hi=14,
            extra_lo=0, extra_hi=5 if t <= 3 else 2,
            n_terminals=t, cap_max=8)
        assert len(net.vertices) <= 14 and terminal_capacity(net) <= 8
        expected = table_rows(net)
        for params in (ReduceParams(), ReduceParams(threshold=2)):
            reduced, _ = mimicking_network(net, params)
            assert set(reduced.terminals) == set(net.terminals)
            got = table_rows(reduced)
            if got != expected:
                retry = replace(
                    params, mark=replace(params.mark, seed=1_000_000 + seed))
                reduced, _ = mimicking_network(net, retry)
                got = table_rows(reduced)
            assert got == expected, (seed, params.threshold)
    assert time.monotonic() - started < 300


# 2. marked set soundness under the covering condition


def test_marked_set_contains_essential_edges_on_dense_corpus():
    """Over 100 seeds, whenever exhaustive search confirms density and a
    (partition, minimum cut) pair passes the covering condition, the marked
    set contains every brute-force essential edge of that partition.

    Tolerance: zero failures, and the gate must actually fire: at least 50
    dense instances and 200 gated checks.
    """
    i0 = 2
    dense = checked = 0
    for seed in range(100):
        rng = random.Random(seed)
        c = rng.choice([2, 3])
        net = random_connected_network(
            rng, n_lo=4, n_hi=7, extra_lo=0, extra_hi=3,
            n_terminals=rng.choice([2, 3]), cap_max=5)
        if exact_tester(net, c).is_sparse:
            continue
        dense += 1
        marked = set(mark(net, MarkParams(c=c, i0=i0)).marked)
        essential = essential_edges(net)
        for part in all_partitions(net.terminals):
            needed = set(essential.get(part, ()))
            for X in enumerate_minimum_multiway_cuts(net, part):
                if covering_condition_holds(net, X, i0, c):
                    assert needed <= marked, (seed, part.to_text(), X)
                    checked += 1
    assert dense >= 50 and checked >= 200, (dense, checked)


# 3. representative set bounds and the extension property


def layered_extends(layers, X_per_layer, t):
    union = disjoint_union(list(layers))
    base = [(i, x) for i, xs in enumerate(X_per_layer) for x in xs]
    extra = [(i, x) for i, x in enumerate(t)]
    return extends(F, union, base, extra)


def test_representative_set_bounds_and_extension():
    """Product-form survivors stay within the rank product and keep the
    extension property against every per-layer independent base, swept
    exhaustively on layered grounds of total size at most 12 over 25 seeds.
    General-form survivors stay within C(r+s, s). Tolerance: zero failures,
    at least 500 bases exercised.
    """
    bases_checked = 0
    for seed in range(25):
        rng = random.Random(seed)
        n_layers = rng.choice([2, 3])
        sizes = []
        left = 12
        for i in range(n_layers):
            hi = left - 2 * (n_layers - i - 1)
            size = rng.randint(2, min(hi, 6))
            sizes.append(size)
            left -= size
        assert sum(sizes) <= 12
        layers = []
        for i, g in enumerate(sizes):
            r = rng.randint(1, g - 1)
            layers.append(uniform_rep(F, [f"L{i}x{j}" for j in range(g)], r))
        tuples = list(itertools.product(*[rep.ground for rep in layers]))
        rng.shuffle(tuples)
        family = tuples[:40]
        kept = select_tuples(F, layers, family)
        assert len(kept) <= prod(rep.rank for rep in layers), seed
        assert set(kept) <= set(family)
        per_layer = [
            [X for size in range(rep.rank + 1)
             for X in itertools.combinations(rep.ground, size)
             if is_independent(F, rep, X)]
            for rep in layers]
        for X in itertools.product(*per_layer):
            if not any(layered_extends(layers, X, t) for t in family):
                continue
            assert any(layered_extends(layers, X, t) for t in kept), \
                (seed, X)
            bases_checked += 1
    assert bases_checked >= 500, bases_checked

    invocations = 0
    for seed in range(15):
        rng = random.Random(200 + seed)
        rows = rng.choice([2, 3])
        n = rng.randint(rows + 1, 7)
        cols = vandermonde(F, rows, rng.sample(range(1, 50), n))
        rk = rank(F, cols)
        for s in (1, 2, 3):
            if s > rk:
                continue
            fam = list(itertools.combinations(range(n), s))
            kept = representative_set_general(F, cols, fam, s)
            # default r is rank - s, so the bound reads C(rank, s)
            assert len(kept) <= comb(rk, s), (seed, s, len(kept))
            invocations += 1
    assert invocations >= 30, invocations


# 4. gammoid representation agrees with the disjoint-path oracle


def test_gammoid_rank_agrees_with_flow_oracle():
    """On 50 seeded graphs with at most 8 edges, every ground subset of size
    up to 4 is independent in the random gammoid representation exactly when
    the flow oracle links it. Tolerance: 100 percent agreement, at least
    10000 subsets checked.
    """
    checks = 0
    for seed in range(50):
        rng = random.Random(seed)
        net = random_connected_network(
            rng, n_lo=3, n_hi=5, extra_lo=0, extra_hi=3, n_terminals=2)
        assert net.m <= 8
        inst = build_edge_cut_gammoid_digraph(net)
        rep = edge_cut_gammoid(F, random.Random(seed + 77), net)
        ground = list(rep.ground)
        for size in range(5):
            for cols in itertools.combinations(range(len(ground)), size):
                sub = [ground[i] for i in cols]
                by_rank = rank(F, [rep.columns[i] for i in cols]) == size
                by_flow = is_independent_by_flow(
                    inst.digraph, inst.sources, sub)
                assert by_rank == by_flow, (seed, sub)
                checks += 1
    assert checks >= 10_000, checks


# 5. the isolating-cut union is a 2-approximation


def test_isolating_cut_union_within_twice_optimum():
    # both halves of the half-integral bound, on every partition of 50 nets
    parts_checked = 0
    for seed in range(50):
        rng = random.Random(900 + seed)
        t = rng.choice([2, 3, 4])
        net = random_connected_network(
            rng, n_lo=t + 1, n_hi=8, extra_lo=0, extra_hi=3,
            n_terminals=t, cap_max=6)
        for part in all_partitions(net.terminals):
            if len(part.blocks) < 2:
                continue
            opt, _ = min_multiway_cut(net, part)
            _, size = two_approx_multicut_cover(net, part)
            assert size <= 2 * opt, (seed, part.to_text(), size, opt)
            assert sum(isolating_cut_values(net, part)) <= 2 * opt, \
                (seed, part.to_text())
            parts_checked += 1
    assert parts_checked >= 150, parts_checked


# 6. minimum cut components shrink harmonically


def test_min_cut_components_eventually_small():
    """For every minimum multiway cut of every partition on 40 seeded nets,
    the i-th deletion component by non-increasing terminal capacity carries
    cap at most 3k/i. Tolerance: zero violations, at least 200 cuts."""
    cuts_checked = 0
    for seed in range(40):
        rng = random.Random(1500 + seed)
        t = rng.choice([2, 3, 4])
        net = random_connected_network(
            rng, n_lo=t + 1, n_hi=8, extra_lo=0, extra_hi=3,
            n_terminals=t, cap_max=6)
        k = terminal_capacity(net)
        for part in all_partitions(net.terminals):
            for X in enumerate_minimum_multiway_cuts(net, part):
                comps = components(delete_edges(net, X))
                caps = sorted(
                    (t_capacity(net, set(comp)) for comp in comps),
                    reverse=True)
                for i, cap in enumerate(caps, start=1):
                    assert i * cap <= 3 * k, (seed, part.to_text(), X, i)
                cuts_checked += 1
    assert cuts_checked >= 200, cuts_checked


# 7. kernelizers preserve the yes/no answer


def multicut_value(net, pairs):
    touched = sorted({v for pair in pairs for v in pair})
    recast = TerminalNetwork.build(net.vertices, net.edges, touched)
    value, _ = min_multicut(recast, CutRequests.of(touched, pairs))
    return value


def test_kernelizers_preserve_answer_status():
    """Kernel outputs agree in yes/no status with the exhaustive solvers on
    100 multiway-cut instances (2 to 4 terminals, budget up to 3) and 100
    multicut instances (up to 2 requests, budget up to 2). Tolerance: zero
    mismatches, and each corpus must contain both answers at least 20 times.
    """
    yes = no = 0
    for seed in range(100):
        rng = random.Random(3000 + seed)
        t = rng.choice([2, 3, 4])
        net = random_connected_network(
            rng, n_lo=t + 1, n_hi=8, extra_lo=0, extra_hi=3,
            n_terminals=t, cap_max=6)
        budget = rng.randrange(4)
        opt, _ = min_multiway_cut(net, singletons(net))
        truth = opt <= budget
        kern = kernelize_multiway_cut(
            MultiwayCutInstance(net, budget), ReduceParams())
        if kern is None:
            assert not truth, seed
        else:
            kopt, _ = min_multiway_cut(kern.net, singletons(kern.net))
            assert (kopt <= kern.budget) == truth, seed
        yes += truth
        no += not truth
    assert yes >= 20 and no >= 20, (yes, no)

    yes = no = 0
    for seed in range(100):
        rng = random.Random(5000 + seed)
        net = random_connected_network(
            rng, n_lo=4, n_hi=8, extra_lo=0, extra_hi=3,
            n_terminals=2, cap_max=6)
        verts = sorted(net.vertices)
        pairs = set()
        while len(pairs) < rng.choice([1, 2]):
            a, b = rng.sample(verts, 2)
            pairs.add((min(a, b), max(a, b)))
        pairs = tuple(sorted(pairs))
        budget = rng.randrange(3)
        truth = multicut_value(net, pairs) <= budget
        kern = kernelize_multicut(
            MulticutInstance(net, pairs, budget), ReduceParams())
        assert (multicut_value(kern.net, kern.requests) <= kern.budget) \
            == truth, seed
        yes += truth
        no += not truth
    assert yes >= 20 and no >= 20, (yes, no)


# 8. marking bites on 100-edge two-terminal instances


def hundred_edge_instance(seed):
    """Two degree-1 terminals hanging off a random connected blob padded to
    exactly 100 edges; terminal capacity is 2 by construction."""
    rng = random.Random(seed)
    n = rng.randint(30, 45)
    blob = list(range(3, n + 3))
    edges = []
    eid = 1
    order = blob[:]
    rng.shuffle(order)
    for i in range(1, n):
        edges.append((eid, order[rng.randrange(i)], order[i]))
        eid += 1
    while eid <= 98:
        u, v = rng.sample(blob, 2)
        edges.append((eid, u, v))
        eid += 1
    a, b = rng.sample(blob, 2)
    edges.append((99, 1, a))
    edges.append((100, 2, b))
    return TerminalNetwork.build([1, 2] + blob, edges, (1, 2))


def test_two_terminal_hundred_edge_marking():
    """With k=2, c=6, i0=2 the rank product caps the marked set at 64 on
    100-edge instances, so at least 36 edges go unmarked; every unmarked
    edge must be non-essential. Tolerance: zero violations on 20 instances.
    """
    for seed in range(20):
        net = hundred_edge_instance(seed)
        assert net.m == 100 and terminal_capacity(net) == 2
        result = mark(net, MarkParams(c=6, i0=2, seed=seed))
        marked = set(result.marked)
        assert len(marked) <= 64, (seed, len(marked))
        unmarked = set(net.edge_ids()) - marked
        assert unmarked, seed
        essential = set(essential_for_network(net))
        assert not (essential & unmarked), (seed, essential & unmarked)


# 9. CLI byte determinism on the checked-in fixtures


def cli_cases(outdir):
    """One command per fixture; paths for written outputs live in outdir."""
    f = lambda name: str(FIXTURES / name)
    d = lambda name: str(outdir / name)
    return [
        (["reduce", f("fix01.net"), "--seed", "3",
          "--out", d("r1.net"), "--trace", d("r1.trace")],
         ["r1.net", "r1.trace"]),
        (["verify", f("fix02.net"), f("fix02.net")], []),
        (["mark", f("fix03.net"), "--c", "2", "--i0", "2", "--seed", "9"],
         []),
        (["oracle", "mwc", f("fix04.net"), "--partition", "1|2|3|4"], []),
        (["oracle", "cutcover", f("fix05.net")], []),
        (["oracle", "essential", f("fix06.net")], []),
        (["kernelize", "mwc", f("fix07.net"), "--budget", "3",
          "--out", d("k7.net")], ["k7.net"]),
        (["kernelize", "multicut", f("fix08.net"), "--budget", "1",
          "--requests", f("fix08.req"),
          "--out", d("k8.net"), "--requests-out", d("k8.req")],
         ["k8.net", "k8.req"]),
        (["tester", f("fix09.net"), "--c", "2"], []),
        (["reduce", f("fix10.net"), "--threshold", "10", "--c", "6",
          "--i0", "2", "--seed", "4", "--trace", d("r10.trace")],
         ["r10.trace"]),
    ]


def test_cli_byte_determinism(tmp_path, capsys):
    """Every fixture command, run twice with the same seed, produces
    byte-identical stdout, output files, and exit codes. Tolerance: zero
    differences across all 10 fixtures."""
    outcomes = []
    for run in (1, 2):
        outdir = tmp_path / f"run{run}"
        outdir.mkdir()
        per_run = []
        for argv, written in cli_cases(outdir):
            rc = cli(argv)
            out = capsys.readouterr().out.encode()
            files = [(name, (outdir / name).read_bytes()) for name in written]
            per_run.append((argv[0], rc, out, files))
        outcomes.append(per_run)
    assert len(outcomes[0]) == 10
    for first, second in zip(outcomes[0], outcomes[1]):
        assert first == second, first[0]
    for name, rc, out, files in outcomes[0]:
        assert rc == 0, (name, rc)
        assert out or files, name
