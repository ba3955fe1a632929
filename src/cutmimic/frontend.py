"""Kernelization front ends and the command-line interface.

Exit codes: 0 success, 1 NO-instance (and DIFFER from verify), 2 bad input,
3 refused by a size ceiling, 4 internal failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

from .errors import InputError, RefusedError
from .ffield import PrimeField
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
from .reducer import ReduceParams, format_trace, mimicking_network
from .tester import DEFAULT_EXACT_CEILING, exact_tester, heuristic_tester


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
    assert terminal_capacity(reduced) <= 2 * inst.budget
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
    assert terminal_capacity(gadget) == 2 * len(inst.requests) * (p + 1)
    return gadget, tuple(primed_requests)


def kernelize_multicut(inst: MulticutInstance, params: ReduceParams
                       ) -> MulticutInstance:
    """Widen via multicut_gadget, then run the mimicking reduction over the
    primed terminal set. Requests transfer to the primed terminals; the
    budget is unchanged (cut values are preserved exactly).
    """
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
    kwargs: dict = dict(field=PrimeField(args.prime), seed=args.seed)
    if args.c is not None:
        kwargs["c"] = args.c
    if args.i0 is not None:
        kwargs["i0"] = args.i0
    return MarkParams(**kwargs)


def _reduce_params(args: argparse.Namespace) -> ReduceParams:
    kwargs = dict(tester=args.tester, mark=_mark_params(args))
    if args.threshold is not None:
        kwargs["threshold"] = args.threshold
    if args.max_exact_n is not None:
        kwargs["exact_ceiling"] = args.max_exact_n
    return ReduceParams(**kwargs)


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
    c = args.c
    if c is None:
        i0 = args.i0 if args.i0 is not None else DEFAULT_I0
        c = default_c(terminal_capacity(net), i0)
    if args.tester == "exact":
        ceiling = (args.max_exact_n if args.max_exact_n is not None
                   else DEFAULT_EXACT_CEILING)
        verdict = exact_tester(net, c, ceiling)
    else:
        verdict = heuristic_tester(net, c)
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
        for part in sorted(per, key=lambda p: (len(p.blocks), p.to_text())):
            ids = " ".join(str(e) for e in per[part])
            lines.append(f"{part.to_text()}: {ids}".rstrip())
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if args.what == "cutcover":
        cover = cut_covering_set(net)
        _emit("".join(f"{e}\n" for e in cover), args.out)
        return 0
    raise InputError(f"unknown oracle {args.what!r}")


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
    if args.what == "multicut":
        if args.requests is None:
            raise InputError("kernelize multicut needs --requests")
        pairs = parse_pairs(_read(args.requests))
        inst = MulticutInstance(net, pairs, args.budget)
        result = kernelize_multicut(inst, params)
        _emit(format_network(result.net), args.out)
        req_text = format_requests(
            CutRequests.of(result.net.terminals, result.requests))
        _emit(req_text, args.requests_out)
        return 0
    raise InputError(f"unknown kernelize target {args.what!r}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, metavar="U64")
    common.add_argument("--prime", type=int, default=PrimeField().p)
    common.add_argument("--c", type=int, default=None)
    common.add_argument("--i0", type=int, default=None)
    common.add_argument("--threshold", type=int, default=None)
    common.add_argument("--tester", choices=("exact", "heuristic"),
                        default="exact")
    common.add_argument("--max-exact-n", type=int, default=None)
    common.add_argument("--out", default=None, metavar="PATH")
    common.add_argument("--trace", default=None, metavar="PATH")

    top = argparse.ArgumentParser(
        prog="cutmimic",
        description="Multicut-covering sets and mimicking networks.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common])
    p.add_argument("graph")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("mark", parents=[common])
    p.add_argument("graph")
    p.set_defaults(func=_cmd_mark)

    p = sub.add_parser("tester", parents=[common])
    p.add_argument("graph")
    p.set_defaults(func=_cmd_tester)

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("graph")
    p.add_argument("other")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", parents=[common])
    p.add_argument("what", choices=("mwc", "mc", "essential", "cutcover"))
    p.add_argument("graph")
    p.add_argument("--partition", default=None,
                   help="blocks as '1,3|2' over the terminal ids")
    p.add_argument("--requests", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("kernelize", parents=[common])
    p.add_argument("what", choices=("mwc", "multicut"))
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--requests", default=None, metavar="PATH")
    p.add_argument("--requests-out", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_kernelize)
    return top


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
