"""Seeded instance generators, op lists and output checks for each workload.

Every generator takes an instance seed and builds its network from
`random.Random(instance_seed)` alone, so one instance reproduces from the
seed recorded next to it. The program receives only the written files.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from cutmimic.netgraph import (
    Contract,
    Partition,
    TerminalNetwork,
    format_network,
    parse_network,
)
from cutmimic.oracles import (
    cut_value_table,
    essential_for_network,
    min_cut_side,
)
from cutmimic.reducer import Recurse, Stop, parse_trace


@dataclass
class Op:
    """One CLI call: its argv, the exit codes a correct run may return, and
    the paths of what it writes."""

    cmd: str
    argv: list[str]
    expect: tuple[int, ...]
    out: str
    trace: str | None = None


@dataclass
class Instance:
    seed: int
    net: TerminalNetwork
    path: str
    ref: dict = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)


def instance_seed(workload_seed: int, index: int) -> int:
    return workload_seed * 1_000_003 + index


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _table(net: TerminalNetwork) -> list[tuple[str, int]]:
    return [(p.to_text(), v) for p, v in cut_value_table(net).entries]


def _singletons_value(table: list[tuple[str, int]], terminals) -> int:
    text = Partition.of(terminals, [[t] for t in terminals]).to_text()
    return dict(table)[text]


# -- generators ----------------------------------------------------------------

def random_multigraph(rng: random.Random, verts: list[int], m: int
                      ) -> list[tuple[int, int]]:
    """Random spanning tree on `verts` plus random extra pairs up to m edges
    (parallel edges allowed, no self-loops)."""
    order = verts[:]
    rng.shuffle(order)
    pairs = [(order[rng.randrange(i)], order[i]) for i in range(1, len(order))]
    while len(pairs) < m:
        u, v = rng.sample(verts, 2)
        pairs.append((u, v))
    return pairs


def _network(verts, pairs, terms) -> TerminalNetwork:
    edges = [(i + 1, u, v) for i, (u, v) in enumerate(pairs)]
    return TerminalNetwork.build(verts, edges, terms)


def gen_corpus_small(seed: int) -> TerminalNetwork:
    """Acceptance-corpus distribution: connected, n <= 14, 2-5 terminals (one
    quarter each), terminal capacity at most 8; re-rolled until it fits."""
    rng = random.Random(seed)
    t = (2, 3, 4, 5)[seed % 4]
    while True:
        n = rng.randint(max(4, t + 1), 14)
        verts = list(range(1, n + 1))
        extra = rng.randint(0, 5 if t <= 3 else 2)
        pairs = random_multigraph(rng, verts, n - 1 + extra)
        terms = sorted(rng.sample(verts, t))
        net = _network(verts, pairs, terms)
        if sum(net.degree(x) for x in terms) <= 8:
            return net


def gen_dense_k2(seed: int) -> TerminalNetwork:
    """n = 16, m = 80: 14 core vertices carry 78 edges, and the two
    terminals hang off the core by one edge each, so k = 2."""
    rng = random.Random(seed)
    core = list(range(1, 15))
    pairs = random_multigraph(rng, core, 78)
    pairs += [(15, rng.choice(core)), (16, rng.choice(core))]
    return _network(range(1, 17), pairs, [15, 16])


def gen_sparse_chains(seed: int) -> tuple[TerminalNetwork, TerminalNetwork]:
    """A small core (2-5 terminals, 20 edges) and its blown-up network
    of about 1000-1200 edges: every core edge becomes a chain, and pendant
    trees and terminal-free cycles hang off random vertices. None of these
    change a cut value, so the core's table is the network's."""
    rng = random.Random(seed)
    t = 2 + seed % 4
    core_n = rng.randint(7, 10)
    core_verts = list(range(1, core_n + 1))
    core_pairs = random_multigraph(rng, core_verts, 20)
    terms = sorted(rng.sample(core_verts, t))
    core = _network(core_verts, core_pairs, terms)

    next_v = core_n + 1
    pairs: list[tuple[int, int]] = []
    for u, v in core_pairs:
        prev = u
        for _ in range(rng.randint(20, 50)):
            pairs.append((prev, next_v))
            prev = next_v
            next_v += 1
        pairs.append((prev, v))
    for _ in range(3):  # terminal-free cycles
        anchor = rng.randrange(1, next_v)
        prev = anchor
        for _ in range(rng.randint(10, 30)):
            pairs.append((prev, next_v))
            prev = next_v
            next_v += 1
        pairs.append((prev, anchor))
    while len(pairs) < 1000 + rng.randrange(200):  # pendant trees
        root = rng.randrange(1, next_v)
        tree = [root]
        for _ in range(rng.randint(5, 25)):
            pairs.append((rng.choice(tree), next_v))
            tree.append(next_v)
            next_v += 1
    return _network(range(1, next_v), pairs, terms), core


# -- workloads -----------------------------------------------------------------

class Workload:
    """A workload builds its instances, the ops it runs on each, the
    reference values its checks need, and the checks themselves.

    `rate` is the instances per second of ops the workload ran at on the
    commit that defined the benchmark (2-vCPU x86 VM, Python 3.11.7); it
    sizes the pool of instances a run generates.
    """

    name: str
    rate: float

    def generate(self, seed: int, workdir: str) -> Instance:
        raise NotImplementedError

    def reference(self, inst: Instance) -> None:
        """Fill inst.ref with what plan and check need; runs just before
        the instance's ops, outside their timers."""

    def plan(self, inst: Instance, index: int) -> None:
        raise NotImplementedError

    def check(self, inst: Instance, op: Op) -> str | None:
        """None when op's output is correct, else what is wrong."""
        raise NotImplementedError

    def _write(self, net: TerminalNetwork, seed: int, workdir: str) -> str:
        path = os.path.join(workdir, f"i{seed}.net")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_network(net))
        return path

    @staticmethod
    def _out_path(inst: Instance, tag: str) -> str:
        return f"{inst.path[:-4]}.{tag}"


class CorpusSmall(Workload):
    name = "corpus-small"
    rate = 18.0

    def generate(self, seed, workdir):
        net = gen_corpus_small(seed)
        return Instance(seed, net, self._write(net, seed, workdir))

    def reference(self, inst):
        inst.ref["table"] = _table(inst.net)
        inst.ref["opt"] = _singletons_value(inst.ref["table"],
                                            inst.net.terminals)

    def plan(self, inst, index):
        red = self._out_path(inst, "red")
        trace = self._out_path(inst, "trace")
        budget = inst.ref["opt"] - index % 2
        inst.ref["budget"] = budget
        inst.ops = [
            Op("reduce", ["reduce", inst.path, "--threshold", "2",
                          "--trace", trace, "--out", red], (0,), red, trace),
            Op("verify", ["verify", inst.path, red,
                          "--out", self._out_path(inst, "ver")],
               (0,), self._out_path(inst, "ver")),
            # A kernel is an equivalent instance, not a YES: on a NO
            # instance the kernelizer may answer NO (exit 1) or shrink it.
            Op("kernelize", ["kernelize", "mwc", inst.path,
                             "--budget", str(budget),
                             "--out", self._out_path(inst, "ker")],
               (0,) if budget == inst.ref["opt"] else (0, 1),
               self._out_path(inst, "ker")),
        ]

    def check(self, inst, op):
        text = _read(op.out)
        if op.cmd == "reduce":
            return _check_table(parse_network(text), inst.net,
                                inst.ref["table"])
        if op.cmd == "verify":
            return None if text == "EQUAL\n" else f"verify printed {text!r}"
        opt, budget = inst.ref["opt"], inst.ref["budget"]
        if text == "NO\n":
            answer = False
        else:
            kernel = parse_network(text)
            answer = _singletons_value(_table(kernel), kernel.terminals) \
                <= budget
        if answer != (opt <= budget):
            return (f"kernelize answered {'YES' if answer else 'NO'} with "
                    f"optimum {opt}, budget {budget}")
        return None


class DenseK2(Workload):
    name = "dense-k2"
    rate = 0.45
    MARK_BOUND = 64  # rank product 2 * 2^(6-2) * 2 at c = 6, i0 = 2, k = 2

    def generate(self, seed, workdir):
        net = gen_dense_k2(seed)
        return Instance(seed, net, self._write(net, seed, workdir))

    def reference(self, inst):
        value, _ = min_cut_side(inst.net, inst.net.terminals[:1],
                                inst.net.terminals[1:])
        inst.ref["cut"] = value

    def plan(self, inst, index):
        marked = self._out_path(inst, "mark")
        red = self._out_path(inst, "red")
        trace = self._out_path(inst, "trace")
        knobs = ["--c", "6", "--i0", "2"]
        inst.ops = [
            Op("mark", ["mark", inst.path, *knobs, "--out", marked],
               (0,), marked),
            Op("reduce", ["reduce", inst.path, "--threshold", "2", *knobs,
                          "--trace", trace, "--out", red], (0,), red, trace),
        ]

    def check(self, inst, op):
        text = _read(op.out)
        net = inst.net
        if op.cmd == "mark":
            marked = {int(x) for x in text.split()}
            if not marked <= set(net.edge_ids()):
                return "marked ids outside the input's edges"
            if len(marked) > self.MARK_BOUND:
                return f"{len(marked)} marked edges exceed {self.MARK_BOUND}"
            missed = set(essential_for_network(net)) - marked
            return f"essential edges left unmarked: {sorted(missed)}" \
                if missed else None
        out = parse_network(text)
        if out.terminals != net.terminals:
            return "terminal set changed"
        value, _ = min_cut_side(out, out.terminals[:1], out.terminals[1:])
        if value != inst.ref["cut"]:
            return f"terminal min cut {value}, input has {inst.ref['cut']}"
        return None


class SparseChains(Workload):
    name = "sparse-chains"
    rate = 0.9

    def generate(self, seed, workdir):
        net, core = gen_sparse_chains(seed)
        inst = Instance(seed, net, self._write(net, seed, workdir))
        inst.ref["core"] = core
        return inst

    def reference(self, inst):
        inst.ref["table"] = _table(inst.ref["core"])

    def plan(self, inst, index):
        red = self._out_path(inst, "red")
        trace = self._out_path(inst, "trace")
        inst.ops = [Op("reduce", ["reduce", inst.path, "--trace", trace,
                                  "--out", red], (0,), red, trace)]

    def check(self, inst, op):
        return _check_table(parse_network(_read(op.out)), inst.net,
                            inst.ref["table"])


def _check_table(out: TerminalNetwork, net: TerminalNetwork,
                 table: list[tuple[str, int]]) -> str | None:
    if out.terminals != net.terminals:
        return "terminal set changed"
    got = _table(out)
    if got != table:
        bad = next(a for a, b in zip(got, table) if a != b)
        return f"cut table differs, first at partition {bad[0]}"
    return None


def trace_counts(path: str) -> dict[str, int]:
    """Contractions, recursions and stops of one `--trace` file; every stop
    reason but "base" counts as saturated."""
    counts = {"contractions": 0, "recursions": 0,
              "stop.base": 0, "stop.saturated": 0}
    for ev in parse_trace(_read(path)).events:
        if isinstance(ev, Contract):
            counts["contractions"] += 1
        elif isinstance(ev, Recurse):
            counts["recursions"] += 1
        elif isinstance(ev, Stop):
            counts["stop.base" if ev.reason == "base"
                   else "stop.saturated"] += 1
    return counts


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (CorpusSmall(), DenseK2(), SparseChains())}
