"""Kernelization front ends and the command-line interface.

Exit codes: 0 success, 1 NO-instance (and DIFFER from verify), 2 bad input,
3 refused by a size ceiling, 4 internal failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass

from .errors import InputError, InternalError, RefusedError
from .ffield import MERSENNE61, PrimeField
from .marker import DEFAULT_I0, MarkParams, default_c, mark
from .netgraph import (
    CutRequests,
    Partition,
    TerminalNetwork,
    contract_vertex_set,
    format_network,
    format_requests,
    parse_network,
    parse_pairs,
    parse_requests,
    terminal_capacity,
)
from .oracles import (
    cut_covering_set,
    essential_edges,
    min_cut_side,
    min_multicut,
    min_multiway_cut,
    verify_mimicking,
)
from .reducer import ReduceParams, format_trace, mimicking_network, run_tester
from .tester import DEFAULT_EXACT_CEILING


@dataclass(frozen=True)
class MultiwayCutInstance:
    """Separate all terminals pairwise with at most `budget` edge deletions."""

    net: TerminalNetwork
    budget: int

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise InputError("budget must be nonnegative")


@dataclass(frozen=True)
class MulticutInstance:
    """Disconnect every requested vertex pair with at most `budget` deletions."""

    net: TerminalNetwork
    requests: tuple[tuple[int, int], ...]
    budget: int

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise InputError("budget must be nonnegative")
        vset = set(self.net.vertices)
        for a, b in self.requests:
            if a == b:
                raise InputError(f"request ({a},{b}) is not a pair")
            if a not in vset or b not in vset:
                raise InputError(f"request endpoint not a vertex: ({a},{b})")


def kernelize_multiway_cut(inst: MultiwayCutInstance, params: ReduceParams
                           ) -> MultiwayCutInstance | None:
    """Isolating-cut contraction, then mimicking reduction; None means NO.

    For each terminal in ascending order, the minimum cut closest to it is
    computed; a value above the budget refutes the instance (any solution
    contains an isolating cut for each terminal). Otherwise the residual
    side collapses onto the terminal. A surviving instance keeps the budget
    unchanged because the reduction preserves every cut value exactly.
    """
    net = inst.net
    if len(net.terminals) < 2:
        return inst  # nothing separates: already solved positively
    for t in sorted(net.terminals):
        others = set(net.terminals) - {t}
        value, reach = min_cut_side(net, [t], others)
        if value > inst.budget:
            return None
        if len(reach) > 1:
            net = contract_vertex_set(net, reach, onto=t)
    if terminal_capacity(net) > 2 * inst.budget:
        return None
    reduced, _ = mimicking_network(net, params)
    cap = terminal_capacity(reduced)
    if cap > 2 * inst.budget:
        raise InternalError(
            f"kernel terminal capacity {cap} exceeds twice the budget "
            f"{inst.budget}")
    return MultiwayCutInstance(reduced, inst.budget)


def multicut_gadget(inst: MulticutInstance
                    ) -> tuple[TerminalNetwork, tuple[tuple[int, int], ...]]:
    """Attach budget+1 subdivided parallel length-2 paths from a fresh primed
    terminal to each request endpoint. Returns the widened network (terminals
    are exactly the primed vertices) and the requests rewritten onto them.
    """
    net = inst.net
    p = inst.budget
    vertices = list(net.vertices)
    edges = list(net.edges)
    next_v = net.fresh_vertex_id()
    next_e = net.fresh_edge_id()
    terms: list[int] = []
    primed_requests: list[tuple[int, int]] = []

    def attach(anchor: int) -> int:
        nonlocal next_v, next_e
        primed = next_v
        next_v += 1
        vertices.append(primed)
        for _ in range(p + 1):
            midway = next_v
            next_v += 1
            vertices.append(midway)
            edges.append((next_e, primed, midway))
            edges.append((next_e + 1, midway, anchor))
            next_e += 2
        terms.append(primed)
        return primed

    for s, t in inst.requests:
        primed_requests.append((attach(s), attach(t)))
    gadget = TerminalNetwork.build(vertices, edges, terms)
    cap, want = terminal_capacity(gadget), 2 * len(inst.requests) * (p + 1)
    if cap != want:
        raise InternalError(
            f"gadget terminal capacity {cap} differs from {want}")
    return gadget, tuple(primed_requests)


def kernelize_multicut(inst: MulticutInstance, params: ReduceParams
                       ) -> MulticutInstance:
    """Widen via multicut_gadget, then run the mimicking reduction over the
    primed terminal set. Requests transfer to the primed terminals; the
    budget is unchanged (cut values are preserved exactly).
    """
    if not inst.requests:
        return inst  # nothing to disconnect: already solved positively
    gadget, primed_requests = multicut_gadget(inst)
    reduced, _ = mimicking_network(gadget, params)
    return MulticutInstance(reduced, primed_requests, inst.budget)


# -- CLI ----------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _mark_params(args: argparse.Namespace) -> MarkParams:
    return MarkParams(field=PrimeField(args.prime), seed=args.seed,
                      c=args.c, i0=args.i0)


def _reduce_params(args: argparse.Namespace) -> ReduceParams:
    return ReduceParams(tester=args.tester, mark=_mark_params(args),
                        threshold=args.threshold,
                        exact_ceiling=args.max_exact_n)


def _cmd_reduce(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.graph))
    reduced, trace = mimicking_network(net, _reduce_params(args))
    _emit(format_network(reduced), args.out)
    if args.trace is not None:
        _emit(format_trace(trace), args.trace)
    return 0


def _cmd_mark(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.graph))
    result = mark(net, _mark_params(args))
    _emit("".join(f"{e}\n" for e in result.marked), args.out)
    return 0


def _cmd_tester(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.graph))
    params = ReduceParams(tester=args.tester, exact_ceiling=args.max_exact_n)
    i0 = MarkParams(i0=args.i0).i0  # refuses the i0 that reduce and mark refuse
    c = args.c if args.c is not None else default_c(terminal_capacity(net), i0)
    verdict = run_tester(net, c, params)
    if verdict.is_sparse:
        assert verdict.witness is not None
        body = " ".join(str(v) for v in verdict.witness)
        _emit(f"sparse {verdict.cap} {verdict.size} {body}\n", args.out)
    elif verdict.verified:
        _emit("dense\n", args.out)
    else:
        _emit("dense unverified\n", args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    net1 = parse_network(_read(args.graph))
    net2 = parse_network(_read(args.other))
    report = verify_mimicking(net1, net2, seed=args.seed)
    if report.ok:
        _emit("EQUAL\n", args.out)
        return 0
    _emit(f"DIFFER {report.detail}\n", args.out)
    return 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.graph))
    if args.what == "mwc":
        if args.partition is None:
            raise InputError("oracle mwc needs --partition")
        part = Partition.from_text(net.terminals, args.partition)
        value, witness = min_multiway_cut(net, part)
        _emit(f"{value} " + " ".join(str(e) for e in witness) + "\n", args.out)
        return 0
    if args.what == "mc":
        if args.requests is None:
            raise InputError("oracle mc needs --requests")
        req = parse_requests(net, _read(args.requests))
        value, witness = min_multicut(net, req)
        _emit(f"{value} " + " ".join(str(e) for e in witness) + "\n", args.out)
        return 0
    if args.what == "essential":
        per = essential_edges(net)
        lines = []
        for part in per:
            ids = " ".join(str(e) for e in per[part])
            lines.append(f"{part.to_text()}: {ids}".rstrip())
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    cover = cut_covering_set(net)  # "cutcover", the last of the choices
    _emit("".join(f"{e}\n" for e in cover), args.out)
    return 0


def _cmd_kernelize(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.graph))
    if args.budget is None:
        raise InputError("kernelize needs --budget")
    params = _reduce_params(args)
    if args.what == "mwc":
        result = kernelize_multiway_cut(
            MultiwayCutInstance(net, args.budget), params)
        if result is None:
            _emit("NO\n", args.out)
            return 1
        _emit(format_network(result.net), args.out)
        return 0
    if args.requests is None:  # "multicut", the other choice
        raise InputError("kernelize multicut needs --requests")
    pairs = parse_pairs(_read(args.requests))
    inst = MulticutInstance(net, pairs, args.budget)
    result = kernelize_multicut(inst, params)
    _emit(format_network(result.net), args.out)
    req_text = format_requests(
        CutRequests.of(result.net.terminals, result.requests))
    _emit(req_text, args.requests_out)
    return 0


# The commands whose target picks which options they read: per target, the
# options of the command that only some of its targets read and this one
# does. Each target refuses the others.
TARGET_OPTIONS = {
    "oracle": {"mwc": ("--partition",), "mc": ("--requests",),
               "essential": (), "cutcover": ()},
    "kernelize": {"mwc": (), "multicut": ("--requests", "--requests-out")},
}


def _refuse_unread_options(args: argparse.Namespace) -> None:
    targets = TARGET_OPTIONS.get(args.command, {})
    for option in sorted({o for reads in targets.values() for o in reads}):
        if (option not in targets[args.what]
                and getattr(args, option[2:].replace("-", "_")) is not None):
            raise InputError(
                f"{args.command} {args.what} does not read {option}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first cli() call and reused after it.
    Each command declares only the options its _cmd_ function reads."""
    path = {"default": None, "metavar": "PATH"}
    spec = {
        "graph": {}, "other": {},
        "--seed": {"type": int, "default": 0, "metavar": "U64"},
        "--prime": {"type": int, "default": MERSENNE61},
        "--c": {"type": int, "default": None},
        "--i0": {"type": int, "default": DEFAULT_I0},
        "--threshold": {"type": int, "default": None},
        "--tester": {"choices": ("exact", "heuristic"), "default": "exact"},
        "--max-exact-n": {"type": int, "default": DEFAULT_EXACT_CEILING},
        "--budget": {"type": int, "default": None},
        "--partition": {"default": None,
                        "help": "blocks as '1,3|2' over the terminal ids"},
        "--out": path, "--trace": path,
        "--requests": path, "--requests-out": path,
    }
    marking = ("--seed", "--prime", "--c", "--i0")
    reducing = (*marking, "--threshold", "--tester", "--max-exact-n")
    commands = {
        "reduce": ("graph", *reducing, "--out", "--trace"),
        "mark": ("graph", *marking, "--out"),
        "tester": ("graph", "--c", "--i0", "--tester", "--max-exact-n",
                   "--out"),
        "verify": ("graph", "other", "--seed", "--out"),
        "oracle": ("graph", "--partition", "--requests", "--out"),
        "kernelize": ("graph", *reducing, "--budget", "--requests",
                      "--requests-out", "--out"),
    }

    # allow_abbrev=False: an option is accepted under its full name only
    top = argparse.ArgumentParser(
        prog="cutmimic", allow_abbrev=False,
        description="Multicut-covering sets and mimicking networks.")
    sub = top.add_subparsers(dest="command", required=True)
    for command, names in commands.items():
        p = sub.add_parser(command, allow_abbrev=False)
        if command in TARGET_OPTIONS:
            p.add_argument("what", choices=tuple(TARGET_OPTIONS[command]))
        for name in names:
            p.add_argument(name, **spec[name])
    return top


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _refuse_unread_options(args)
        # looked up per call, so a replaced _cmd_* function takes effect
        return globals()[f"_cmd_{args.command}"](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RefusedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(cli())
