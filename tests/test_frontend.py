"""Kernelizer and CLI tests.

Status preservation is checked by exhaustive solves on both sides of each
kernelization; the CLI is driven in process through cli(argv) with real
files under tmp_path.
"""

import random

import pytest

from cutmimic import frontend
from cutmimic.errors import InputError
from cutmimic.frontend import (
    MulticutInstance,
    MultiwayCutInstance,
    cli,
    kernelize_multicut,
    kernelize_multiway_cut,
    multicut_gadget,
)
from cutmimic.netgraph import (
    CutRequests,
    Partition,
    TerminalNetwork,
    format_network,
    parse_network,
    terminal_capacity,
)
from cutmimic.oracles import min_multicut, min_multiway_cut
from cutmimic.reducer import ReduceParams

from conftest import path_network, random_connected_network, triangle


def singletons(net):
    terms = sorted(net.terminals)
    return Partition.of(terms, [[t] for t in terms])


def multicut_value(net, pairs):
    """Minimum multicut over arbitrary vertex pairs: recast the endpoints
    as terminals so the request container accepts them.
    """
    endpoints = sorted({x for p in pairs for x in p})
    host = TerminalNetwork.build(net.vertices, net.edges, endpoints)
    return min_multicut(host, CutRequests.of(endpoints, pairs))[0]


def reachable(net, removed, start):
    adj = {v: [] for v in net.vertices}
    for eid, u, v in net.edges:
        if eid not in removed:
            adj[u].append(v)
            adj[v].append(u)
    seen, stack = {start}, [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


# multiway cut kernelization


def test_mwc_kernel_contracts_closest_cut_side():
    # t1-a-t2 with a doubled a-t2 edge: the cut closest to t2 contracts
    # {a, t2}, leaving capacity 2 = 2 * budget
    net = TerminalNetwork.build(
        [1, 2, 3], [(1, 1, 3), (2, 3, 2), (3, 3, 2)], (1, 2))
    out = kernelize_multiway_cut(MultiwayCutInstance(net, 1), ReduceParams())
    assert out is not None
    assert terminal_capacity(out.net) == 2
    assert out.net.m == 1 and out.budget == 1


def test_mwc_kernel_refutes_on_isolating_cut():
    # every terminal of the triangle needs 2 deletions; budget 1 is hopeless
    out = kernelize_multiway_cut(MultiwayCutInstance(triangle(), 1),
                                 ReduceParams())
    assert out is None


def test_mwc_kernel_single_terminal_identity():
    net = TerminalNetwork.build([1, 2], [(1, 1, 2)], (1,))
    inst = MultiwayCutInstance(net, 0)
    assert kernelize_multiway_cut(inst, ReduceParams()) is inst


def test_mwc_kernel_preserves_status():
    for seed in range(30):
        rng = random.Random(seed)
        net = random_connected_network(
            rng, n_lo=3, n_hi=7, extra_hi=3,
            n_terminals=rng.choice([2, 3, 4]), cap_max=6)
        budget = rng.randrange(0, 4)
        opt, _ = min_multiway_cut(net, singletons(net))
        out = kernelize_multiway_cut(MultiwayCutInstance(net, budget),
                                     ReduceParams())
        if out is None:
            assert opt > budget, (seed, opt, budget)
            continue
        kernel_opt, _ = min_multiway_cut(out.net, singletons(out.net))
        assert (opt <= budget) == (kernel_opt <= budget), (seed, opt, kernel_opt)
        assert terminal_capacity(out.net) <= 2 * budget or budget == 0


def test_instance_validation():
    net = path_network(2)
    with pytest.raises(InputError):
        MultiwayCutInstance(net, -1)
    with pytest.raises(InputError):
        MulticutInstance(net, ((0, 0),), 1)
    with pytest.raises(InputError):
        MulticutInstance(net, ((0, 99),), 1)
    with pytest.raises(InputError):
        MulticutInstance(net, ((0, 2),), -2)


# multicut gadget and kernelization


def test_gadget_shape_one_request_budget_two():
    net = path_network(2)
    inst = MulticutInstance(net, ((0, 2),), 2)
    gadget, primed = multicut_gadget(inst)
    assert len(primed) == 1
    s1, t1 = primed[0]
    assert set(gadget.terminals) == {s1, t1}
    # two primed vertices plus 3 subdivision vertices per attachment
    assert gadget.n == net.n + 2 + 6
    assert gadget.m == net.m + 12
    assert terminal_capacity(gadget) == 6
    degs = {v: 0 for v in gadget.vertices}
    for _, u, v in gadget.edges:
        degs[u] += 1
        degs[v] += 1
    assert degs[s1] == 3 and degs[t1] == 3
    new_mid = [v for v in gadget.vertices
               if v not in set(net.vertices) and v not in (s1, t1)]
    assert all(degs[v] == 2 for v in new_mid)


def test_gadget_budget_zero_single_paths():
    net = path_network(2)
    gadget, primed = multicut_gadget(MulticutInstance(net, ((0, 2),), 0))
    assert terminal_capacity(gadget) == 2
    (s1, t1), = primed
    # still one path from each primed terminal into the graph, so the pair
    # is separable only if the anchors already were
    assert multicut_value(gadget, [(s1, t1)]) == 1


def test_gadget_small_cuts_cannot_detach_primed_terminals():
    # any multicut within budget leaves each primed terminal connected to
    # its anchor: the p+1 disjoint length-2 paths survive one-per-deletion
    for seed in range(10):
        rng = random.Random(40 + seed)
        net = random_connected_network(rng, n_lo=3, n_hi=6, extra_hi=2)
        verts = sorted(net.vertices)
        pairs = [tuple(rng.sample(verts, 2))]
        p = rng.randrange(0, 3)
        inst = MulticutInstance(net, tuple(pairs), p)
        gadget, primed = multicut_gadget(inst)
        value = multicut_value(gadget, list(primed))
        if value > p:
            continue
        _, witness = min_multicut(
            TerminalNetwork.build(gadget.vertices, gadget.edges,
                                  [x for pr in primed for x in pr]),
            CutRequests.of([x for pr in primed for x in pr], list(primed)))
        for (sp, tp), (s, t) in zip(primed, inst.requests):
            assert s in reachable(gadget, set(witness), sp)
            assert t in reachable(gadget, set(witness), tp)


def test_multicut_kernel_preserves_status():
    for seed in range(20):
        rng = random.Random(70 + seed)
        net = random_connected_network(rng, n_lo=3, n_hi=6, extra_hi=3)
        verts = sorted(net.vertices)
        r = rng.choice([1, 2])
        pairs = set()
        while len(pairs) < r:
            pairs.add(tuple(sorted(rng.sample(verts, 2))))
        p = rng.randrange(0, 3)
        inst = MulticutInstance(net, tuple(sorted(pairs)), p)
        before = multicut_value(net, list(inst.requests)) <= p
        kernel = kernelize_multicut(inst, ReduceParams())
        after = multicut_value(kernel.net, list(kernel.requests)) <= p
        assert before == after, (seed, inst.requests, p)
        assert kernel.budget == p
        assert set(kernel.net.terminals) == {x for pr in kernel.requests
                                             for x in pr}


# CLI


def path1(length):
    """Path on vertices 1..length+1; the text format needs positive ids."""
    verts = list(range(1, length + 2))
    edges = [(i, i, i + 1) for i in range(1, length + 1)]
    return TerminalNetwork.build(verts, edges, (1, length + 1))


def write_net(tmp_path, name, net):
    path = tmp_path / name
    path.write_text(format_network(net), encoding="utf-8")
    return str(path)


def test_cli_reduce_deterministic(tmp_path, capsys):
    g = write_net(tmp_path, "g.net", path1(10))
    outs = []
    for run in (1, 2):
        out = tmp_path / f"out{run}.net"
        tr = tmp_path / f"tr{run}.txt"
        code = cli(["reduce", g, "--seed", "7",
                    "--out", str(out), "--trace", str(tr)])
        assert code == 0
        outs.append((out.read_bytes(), tr.read_bytes()))
    assert outs[0] == outs[1]
    reduced = parse_network(outs[0][0].decode())
    assert reduced.m == 1


def test_cli_verify_equal_and_differ(tmp_path, capsys):
    g = write_net(tmp_path, "g.net", path1(4))
    out = tmp_path / "r.net"
    assert cli(["reduce", g, "--out", str(out)]) == 0
    assert cli(["verify", g, str(out)]) == 0
    assert capsys.readouterr().out == "EQUAL\n"

    broken = write_net(
        tmp_path, "b.net",
        TerminalNetwork.build([1, 2, 5], [(1, 1, 2)], (1, 5)))
    assert cli(["verify", g, broken]) == 1
    text = capsys.readouterr().out
    assert text.startswith("DIFFER") and "1|5" in text


def test_cli_tester_output_forms(tmp_path, capsys):
    sparse_g = write_net(tmp_path, "s.net", path1(9))
    assert cli(["tester", sparse_g, "--c", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sparse 2 5 ")

    k4 = TerminalNetwork.build(
        [1, 2, 3, 4],
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 2, 3), (5, 2, 4), (6, 3, 4)],
        (1, 2))
    dense_g = write_net(tmp_path, "d.net", k4)
    assert cli(["tester", dense_g, "--c", "2"]) == 0
    assert capsys.readouterr().out == "dense\n"
    assert cli(["tester", dense_g, "--c", "2", "--tester", "heuristic"]) == 0
    assert capsys.readouterr().out == "dense unverified\n"


def test_cli_tester_ceiling_exit_code(tmp_path, capsys):
    big = write_net(tmp_path, "big.net", path1(24))
    assert cli(["tester", big]) == 3
    small = write_net(tmp_path, "small.net", path1(9))
    assert cli(["tester", small, "--max-exact-n", "5"]) == 3
    assert "refused" in capsys.readouterr().err


def test_cli_mark_lists_edges(tmp_path, capsys):
    k4 = TerminalNetwork.build(
        [1, 2, 3, 4],
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 2, 3), (5, 2, 4), (6, 3, 4)],
        (1, 2))
    g = write_net(tmp_path, "g.net", k4)
    assert cli(["mark", g, "--c", "2", "--i0", "2", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ids = [int(x) for x in lines]
    assert ids == sorted(ids)
    assert set(ids) <= {1, 2, 3, 4, 5, 6}


def test_cli_oracle_mwc_and_partition_flag(tmp_path, capsys):
    g = write_net(tmp_path, "g.net", path1(4))
    assert cli(["oracle", "mwc", g, "--partition", "1|5"]) == 0
    value = capsys.readouterr().out.split()
    assert value[0] == "1" and len(value) == 2
    assert cli(["oracle", "mwc", g]) == 2
    assert "--partition" in capsys.readouterr().err


def test_cli_oracle_mc_essential_cutcover(tmp_path, capsys):
    net = TerminalNetwork.build(
        [1, 2, 5], [(1, 1, 5), (2, 1, 5), (3, 5, 2)], (1, 2))
    g = write_net(tmp_path, "g.net", net)
    req = tmp_path / "req.txt"
    req.write_text("r 1 2\n", encoding="utf-8")
    assert cli(["oracle", "mc", g, "--requests", str(req)]) == 0
    assert capsys.readouterr().out == "1 3\n"

    assert cli(["oracle", "essential", g]) == 0
    out = capsys.readouterr().out
    assert "1|2: 3" in out and out.startswith("1,2")

    star = TerminalNetwork.build(
        [9, 1, 2, 3], [(1, 9, 1), (2, 9, 2), (3, 9, 3)], (1, 2, 3))
    g2 = write_net(tmp_path, "star.net", star)
    assert cli(["oracle", "cutcover", g2]) == 0
    assert capsys.readouterr().out == "1\n2\n3\n"


def test_cli_kernelize_mwc_no_instance(tmp_path, capsys):
    g = write_net(tmp_path, "g.net", triangle())
    assert cli(["kernelize", "mwc", g, "--budget", "1"]) == 1
    assert capsys.readouterr().out == "NO\n"
    # budget 2 still refuses: terminal capacity 6 exceeds twice the budget
    # (and indeed no 2 deletions split all three singletons)
    assert cli(["kernelize", "mwc", g, "--budget", "2"]) == 1
    assert capsys.readouterr().out == "NO\n"
    assert cli(["kernelize", "mwc", g, "--budget", "3"]) == 0
    kernel = parse_network(capsys.readouterr().out)
    assert set(kernel.terminals) == {1, 2, 3}
    assert cli(["kernelize", "mwc", g]) == 2  # --budget is required


def test_cli_kernelize_multicut_emits_primed_requests(tmp_path, capsys):
    g = write_net(tmp_path, "g.net", path1(3))
    req = tmp_path / "req.txt"
    req.write_text("r 1 4\n", encoding="utf-8")
    out = tmp_path / "kernel.net"
    rout = tmp_path / "req_out.txt"
    code = cli(["kernelize", "multicut", g, "--budget", "1",
                "--requests", str(req), "--out", str(out),
                "--requests-out", str(rout)])
    assert code == 0
    kernel = parse_network(out.read_text(encoding="utf-8"))
    lines = rout.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 and lines[0].startswith("r ")
    a, b = (int(x) for x in lines[0].split()[1:])
    assert {a, b} <= set(kernel.terminals)


def test_cli_internal_failure_exits_four(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise AssertionError("survivors 9 > bound 4")

    monkeypatch.setattr(frontend, "_cmd_mark", broken)
    net = tmp_path / "tri.net"
    net.write_text(format_network(triangle()), encoding="utf-8")
    assert cli(["mark", str(net)]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: AssertionError: survivors 9 > bound 4\n"
    # argparse's own exit is not an internal failure
    with pytest.raises(SystemExit) as exc:
        cli(["mark"])
    assert exc.value.code == 2


def test_cli_malformed_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("p tn 2 1 2\nt 1\nt 2\ne 1 zzz\n", encoding="utf-8")
    assert cli(["reduce", str(bad)]) == 2
    assert "line 4" in capsys.readouterr().err
    assert cli(["reduce", str(tmp_path / "missing.net")]) == 2
    assert "cannot read" in capsys.readouterr().err
