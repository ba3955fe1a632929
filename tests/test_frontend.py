"""Kernelizer and CLI tests.

Status preservation is checked by exhaustive solves on both sides of each
kernelization; the CLI is driven in process through cli(argv) with real
files under tmp_path.
"""

import argparse
import contextlib
import io
import itertools
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
from cutmimic.marker import MarkParams
from cutmimic.netgraph import (
    CutRequests,
    Partition,
    TerminalNetwork,
    format_network,
    parse_network,
    terminal_capacity,
)
from cutmimic.oracles import min_multicut, min_multiway_cut, verify_mimicking
from cutmimic.reducer import ReduceParams
from cutmimic.tester import exact_tester, heuristic_tester

from conftest import path_network, random_connected_network, triangle

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
FIXTURES = ROOT / "tests" / "fixtures"
FIX01 = str(FIXTURES / "fix01.net")


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


def test_cli_negative_exact_ceiling_exits_two(tmp_path, capsys):
    # a negative ceiling is malformed input, not a ceiling the graph exceeds
    g = write_net(tmp_path, "g.net", path1(4))
    assert cli(["tester", g, "--max-exact-n", "-1"]) == 2
    assert cli(["reduce", g, "--max-exact-n", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "refused" not in err


def test_cli_negative_exact_ceiling_exits_two_for_the_heuristic(capsys):
    # the heuristic tester never reads the ceiling, but the value is still
    # malformed, and reduce refuses it whichever tester it runs
    for cmd in ("tester", "reduce"):
        assert cli([cmd, FIX01, "--tester", "heuristic",
                    "--max-exact-n", "-5"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "refused" not in err


@pytest.mark.parametrize("i0", ["1", "0", "-3"])
def test_cli_tester_refuses_the_i0_that_reduce_and_mark_refuse(i0, capsys):
    want = "error: i0 must be at least 2 (one gammoid layer)\n"
    for cmd in ("tester", "reduce", "mark"):
        assert cli([cmd, FIX01, "--i0", i0]) == 2, cmd
        assert capsys.readouterr().err == want, cmd


C_ZERO = "error: exponent c must be >= 1, got 0\n"
CEILING_NEGATIVE = "error: exact tester ceiling must be >= 0, got -1\n"
SEED_NEGATIVE = "error: seed must be in 0 .. 2^64 - 1, got -5\n"
SEED_TOO_LARGE = f"error: seed must be in 0 .. 2^64 - 1, got {1 << 64}\n"


@pytest.mark.parametrize("argv, code, want", [
    (["reduce", FIX01, "--c", "0"], 2, C_ZERO),
    (["mark", FIX01, "--c", "0"], 2, C_ZERO),
    (["kernelize", "mwc", FIX01, "--budget", "1", "--c", "0"], 2, C_ZERO),
    (["tester", FIX01, "--c", "0"], 2, C_ZERO),
    (["reduce", FIX01, "--max-exact-n", "-1"], 2, CEILING_NEGATIVE),
    (["tester", FIX01, "--max-exact-n", "-1"], 2, CEILING_NEGATIVE),
    (["mark", str(FIXTURES / "fix03.net")], 3,
     "refused: tensor dimension 3000 exceeds limit 2048; lower c or i0\n"),
], ids=["reduce-c", "mark-c", "kernelize-c", "tester-c", "reduce-ceiling",
        "tester-ceiling", "mark-tensor"])
def test_cli_words_each_refusal_one_way(argv, code, want, capsys):
    # one check per value, so every command that reads it refuses alike
    assert cli(argv) == code
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("call, want", [
    (lambda: MarkParams(c=0), C_ZERO),
    (lambda: exact_tester(triangle(), 0), C_ZERO),
    (lambda: heuristic_tester(triangle(), 0), C_ZERO),
    (lambda: ReduceParams(exact_ceiling=-1), CEILING_NEGATIVE),
    (lambda: exact_tester(triangle(), 2, -1), CEILING_NEGATIVE),
    (lambda: MarkParams(seed=-5), SEED_NEGATIVE),
    (lambda: MarkParams(seed=1 << 64), SEED_TOO_LARGE),
    # the seed is checked before the terminal sets are compared
    (lambda: verify_mimicking(path_network(2), path_network(3), seed=-5),
     SEED_NEGATIVE),
    (lambda: verify_mimicking(triangle(), triangle(), seed=1 << 64),
     SEED_TOO_LARGE),
], ids=["MarkParams", "exact_tester", "heuristic_tester", "ReduceParams",
        "exact_tester_ceiling", "MarkParams_seed_negative",
        "MarkParams_seed_too_large", "verify_seed_negative",
        "verify_seed_too_large"])
def test_library_guards_word_refusals_as_the_cli(call, want):
    with pytest.raises(InputError) as exc:
        call()
    assert f"error: {exc.value}\n" == want


# Options a command's _cmd_ function never reads; argparse refuses each.
UNREAD = {
    "mark": ("--threshold", "--tester", "--max-exact-n", "--trace"),
    "tester": ("--seed", "--prime", "--threshold", "--trace"),
    "verify": ("--prime", "--c", "--i0", "--threshold", "--tester",
               "--max-exact-n", "--trace"),
    "oracle essential": ("--seed", "--prime", "--c", "--i0", "--threshold",
                         "--tester", "--max-exact-n", "--trace"),
    "kernelize mwc": ("--trace",),
}


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in UNREAD.items()
    for option in options])
def test_cli_refuses_options_the_command_does_not_read(command, option,
                                                       tmp_path, capsys):
    value = {"--tester": "exact",
             "--trace": str(tmp_path / "t.txt")}.get(option, "2")
    graphs = [FIX01, FIX01] if command == "verify" else [FIX01]
    with pytest.raises(SystemExit) as exc:
        cli(command.split() + graphs + [option, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "t.txt").exists()


# Options a command declares but one of its targets never reads: refused
# with exit 2 before anything runs or is written.
UNREAD_BY_TARGET = {
    "oracle mwc": ("--requests",),
    "oracle mc": ("--partition",),
    "oracle essential": ("--partition", "--requests"),
    "oracle cutcover": ("--partition", "--requests"),
    "kernelize mwc": ("--requests", "--requests-out"),
}


@pytest.mark.parametrize("target, option", [
    (target, option) for target, options in UNREAD_BY_TARGET.items()
    for option in options])
def test_cli_refuses_options_the_target_does_not_read(target, option,
                                                      tmp_path, capsys):
    command, what = target.split()
    # each run is otherwise complete, so only the unread option is at fault
    needs = {"oracle mwc": ["--partition", "1|11"],
             "oracle mc": ["--requests", str(FIXTURES / "fix08.req")],
             "kernelize mwc": ["--budget", "3"]}.get(target, [])
    graph = str(FIXTURES / ("fix08.net" if what == "mc" else "fix01.net"))
    value = {"--partition": "1|11",
             "--requests": str(FIXTURES / "fix08.req"),
             "--requests-out": str(tmp_path / "r.req")}[option]
    argv = [command, what, graph, *needs, "--out", str(tmp_path / "o.txt")]
    assert cli(argv + [option, value]) == 2
    assert capsys.readouterr().err == \
        f"error: {command} {what} does not read {option}\n"
    assert not list(tmp_path.iterdir())
    assert cli(argv) in (0, 1)  # the same run without it goes through
    assert (tmp_path / "o.txt").read_text()


@pytest.mark.parametrize("argv, full", [
    (["reduce", FIX01, "--thr", "2"], ["reduce", FIX01, "--threshold", "2"]),
    (["verify", FIX01, FIX01, "--s", "5"],
     ["verify", FIX01, FIX01, "--seed", "5"]),
])
def test_cli_refuses_abbreviated_options(argv, full, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli(argv + ["--out", str(tmp_path / "abbrev.txt")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "abbrev.txt").exists()
    assert cli(full + ["--out", str(tmp_path / "full.txt")]) == 0
    assert (tmp_path / "full.txt").read_text()


def test_each_command_reads_every_option_it_declares(tmp_path):
    # Runs each _cmd_ over argv that reach all of its branches and records
    # the attributes it reads, so a declared option that no branch reads
    # (one added to a command that ignores it) fails here.
    fix = lambda name: str(FIXTURES / name)
    out = lambda name: str(tmp_path / name)
    runs = {
        "reduce": [["reduce", FIX01, "--trace", out("r.trace")]],
        "mark": [["mark", fix("fix03.net"), "--c", "2", "--i0", "2"]],
        "tester": [["tester", FIX01], ["tester", FIX01, "--c", "2"]],
        "verify": [["verify", fix("fix02.net"), fix("fix02.net")]],
        "oracle": [["oracle", "mwc", fix("fix04.net"), "--partition",
                    "1|2|3|4"],
                   ["oracle", "mc", fix("fix08.net"), "--requests",
                    fix("fix08.req")],
                   ["oracle", "essential", fix("fix06.net")],
                   ["oracle", "cutcover", fix("fix05.net")]],
        "kernelize": [["kernelize", "mwc", fix("fix07.net"), "--budget", "3"],
                      ["kernelize", "multicut", fix("fix08.net"),
                       "--budget", "1", "--requests", fix("fix08.req"),
                       "--requests-out", out("k.req")]],
    }
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    parser = frontend._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(runs) == sorted(commands)
    pairs = 0
    for command, sub in commands.items():
        declared = {a.dest for a in sub._actions
                    if not isinstance(a, argparse._HelpAction)}
        pairs += sum(1 for a in sub._actions if a.option_strings
                     and not isinstance(a, argparse._HelpAction))
        got = set()
        for argv in runs[command]:
            args = parser.parse_args(argv + ["--out", out("o.txt")],
                                     namespace=Recording())
            read.clear()
            assert getattr(frontend, f"_cmd_{command}")(args) in (0, 1)
            got |= read
        assert declared <= got, (command, sorted(declared - got))
    assert pairs == 35


def test_module_entry_point_runs_the_cli(capsys):
    argv = ["tester", FIX01]
    code = cli(argv)
    want = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]))
    got = subprocess.run([sys.executable, "-m", "cutmimic", *argv],
                         capture_output=True, text=True, env=env,
                         cwd=ROOT, timeout=120)
    assert (got.returncode, got.stdout, got.stderr) == (code, want.out,
                                                        want.err)


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


def test_cli_refuses_pseudoprime_moduli(capsys):
    # strong pseudoprimes to the first 12 and the first 13 prime bases
    for prime, said in (("318665857834031151167461", "is not prime"),
                        ("3317044064679887385961981", "exact only below")):
        argv = ["mark", FIX01, "--c", "2", "--i0", "2", "--prime", prime]
        assert cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and said in err


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


@pytest.mark.parametrize("argv, text, out, trace", [
    (["reduce", "{g}"], "p tn 2 0 2\nt 1\nt 2\n", "p tn 2 0 2\nt 1\nt 2\n",
     "S base\n"),
    (["reduce", "{g}"], "p tn 4 1 2\nt 1\nt 2\ne 3 4\n",
     "p tn 2 0 2\nt 1\nt 2\n", "DC 3 4\nS base\n"),
    # a YES instance with optimum 0: the isolating-cut contraction leaves
    # terminals with no edges
    (["kernelize", "mwc", "{g}", "--budget", "0"],
     "p tn 3 1 2\nt 1\nt 3\ne 1 2\n",
     "p tn 2 0 2\nt 1\nt 3\n", None),
], ids=["reduce-no-edges", "reduce-terminal-free-edge", "kernelize-mwc"])
def test_cli_terminals_without_edges_reduce_to_the_terminals(
        argv, text, out, trace, tmp_path, capsys):
    g = tmp_path / "g.net"
    g.write_text(text, encoding="utf-8")
    extra = [] if trace is None else ["--trace", str(tmp_path / "t.txt")]
    assert cli([arg.format(g=g) for arg in argv] + extra) == 0
    assert capsys.readouterr().out == out
    if trace is not None:
        assert (tmp_path / "t.txt").read_text(encoding="utf-8") == trace


@pytest.mark.parametrize("argv", [
    ["reduce", FIX01], ["mark", FIX01, "--c", "2", "--i0", "2"],
    ["kernelize", "mwc", FIX01, "--budget", "1"], ["verify", FIX01, FIX01],
], ids=["reduce", "mark", "kernelize", "verify"])
@pytest.mark.parametrize("seed", ["-5", str(1 << 64)])
def test_cli_refuses_seeds_outside_u64(argv, seed, capsys):
    # random.Random(-5) draws what Random(5) draws, so a negative seed
    # would silently alias its absolute value
    assert cli(argv + ["--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must be in 0 .. 2^64 - 1, got {seed}\n"


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


def test_cli_kernelize_multicut_without_requests_is_solved(tmp_path,
                                                         capsys):
    """No request is a YES-instance as it stands: the network comes back
    unchanged with no requests, as `oracle mc` answers 0 for it."""
    net = TerminalNetwork.build([1, 2, 3], [(1, 1, 2), (2, 2, 3)], [1])
    g = write_net(tmp_path, "a.net", net)
    req = tmp_path / "empty.req"
    req.write_text("", encoding="utf-8")
    assert cli(["oracle", "mc", g, "--requests", str(req)]) == 0
    assert capsys.readouterr().out.split() == ["0"]
    rout = tmp_path / "req_out.txt"
    assert cli(["kernelize", "multicut", g, "--budget", "1",
                "--requests", str(req), "--requests-out", str(rout)]) == 0
    assert capsys.readouterr().out == format_network(net)
    assert rout.read_text(encoding="utf-8") == ""


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


MALFORMED_NETWORKS = (
    "",                                    # no header
    "p tn x 1 2\n",                        # non-integer header field
    "p tn 2 1 2\nt 1\nt 2\n",              # declared edge missing
    "p tn 2 1 2\nt 1\nt 2\ne 1 0\n",       # vertex id 0
    "p tn 3 1 1\nt 1\ne 1 2\nq 3\n",       # unknown line type
)
MALFORMED_REQUESTS = ("r 1\n", "r 1 1\n", "x 1 2\n", "r 99 1\n")
KNOBS = ("--seed", "--prime", "--c", "--i0", "--threshold", "--max-exact-n")
# The knobs each drawn command reads; any other one exits 2 in argparse.
COMMAND_KNOBS = {"reduce": KNOBS, "kernelize mwc": KNOBS,
                 "verify": ("--seed",), "oracle mc": (), "oracle mwc": ()}


@st.composite
def cli_calls(draw):
    """A command line over small seeded networks, with the files' texts:
    some files malformed, some knobs small or negative."""
    t = draw(st.integers(1, 4))
    net = random_connected_network(
        random.Random(draw(st.integers(0, 2 ** 32))),
        n_lo=max(2, t), n_hi=7, extra_hi=3, n_terminals=t)
    graphs = [draw(st.one_of(st.just(format_network(net)),
                             st.sampled_from(MALFORMED_NETWORKS)))
              for _ in range(2)]
    terms = sorted(net.terminals)
    pairs = list(itertools.combinations(terms, 2))
    requests = draw(st.one_of(
        st.lists(st.sampled_from(pairs), unique=True).map(
            lambda chosen: "".join(f"r {a} {b}\n" for a, b in chosen))
        if pairs else st.just(""),
        st.sampled_from(MALFORMED_REQUESTS)))
    cmd = draw(st.sampled_from(
        ("reduce", "verify", "oracle mc", "oracle mwc", "kernelize mwc")))
    argv = cmd.split() + ["{g0}"]
    if cmd == "verify":
        argv.append("{g1}")
    elif cmd == "oracle mc":
        argv += ["--requests", "{req}"]
    elif cmd == "oracle mwc":
        argv += ["--partition", draw(st.sampled_from((
            "|".join(map(str, terms)), ",".join(map(str, terms)),
            "1|2", "1,1")))]
    elif cmd == "kernelize mwc" and draw(st.booleans()):
        argv += ["--budget", str(draw(st.integers(-1, 4)))]
    knobs = COMMAND_KNOBS[cmd]
    if knobs:
        for knob in draw(st.lists(st.sampled_from(knobs), max_size=3,
                                  unique=True)):
            argv += [knob, str(draw(st.integers(-3, 5)))]
    return argv, graphs, requests


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(cli_calls())
def test_cli_exit_codes_property(call):
    # in process: every call returns a documented exit code and raises
    # nothing, and a malformed graph file is bad input whatever the command
    argv, graphs, requests = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"g0": os.path.join(tmp, "g0.net"),
                 "g1": os.path.join(tmp, "g1.net"),
                 "req": os.path.join(tmp, "r.req")}
        for key, text in zip(("g0", "g1", "req"), (*graphs, requests)):
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [arg.format(**paths) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli(argv)
    assert code in (0, 1, 2, 3, 4), argv
    used = graphs if argv[0] == "verify" else graphs[:1]
    if any(text in MALFORMED_NETWORKS for text in used):
        assert code == 2, argv
