"""The reduction loop: covering sets and mimicking networks.

Each pass applies the local degree-2 rules, stops at the size threshold, and
otherwise contracts the edges that one step names. The step asks the
expansion tester for a direction. A sparse set opens a recursive instance,
and the step names the lowest edge that instance's reduction drops. A dense
verdict names every edge whose ends are more than k-connected
(`_overconnected`), else the lowest edge the matroid marker leaves unmarked.
A step that names nothing saturates the loop. Every structural change lands
in an event trace whose replay reproduces the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field, replace
from typing import Union

from .errors import InputError, InternalError, MarkingRefusedError
from .marker import MarkParams, default_c, mark
from .netgraph import (
    Contract,
    DeleteComponent,
    DeleteLeaf,
    TerminalNetwork,
    apply_local_event,
    contract_edge,
    degree2_reduce,
    recursive_instance,
    terminal_capacity,
)
from .oracles import unit_flow
from .tester import (
    DEFAULT_EXACT_CEILING,
    TesterVerdict,
    exact_tester,
    heuristic_tester,
    validate_ceiling,
)

MAX_DEPTH = 64  # recursion depth at which a sparse verdict saturates


@dataclass(frozen=True)
class Recurse:
    """Trace event: descended into the recursive instance of sparse set S."""
    S: tuple[int, ...]
    depth: int


@dataclass(frozen=True)
class MarkStats:
    """Trace event: dense marking ran, keeping `size` edges."""
    size: int
    c: int
    i0: int


@dataclass(frozen=True)
class Stop:
    """Trace event: the loop ended; reason is "base" or "saturated"."""
    reason: str

    def __post_init__(self) -> None:
        if self.reason not in ("base", "saturated"):
            raise InputError(f"unknown stop reason {self.reason!r}")


Event = Union[Contract, DeleteLeaf, DeleteComponent, Recurse, MarkStats, Stop]


@dataclass(frozen=True)
class ReductionTrace:
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        stops = [i for i, ev in enumerate(self.events) if isinstance(ev, Stop)]
        if stops != [len(self.events) - 1]:
            raise InputError("a trace must end with its only Stop event")


@dataclass(frozen=True)
class ReduceParams:
    """Reduction knobs.

    threshold None means k^c measured at entry (each recursive call measures
    its own instance); an explicit threshold applies to the top call only.
    """

    tester: str = "exact"
    mark: MarkParams = dc_field(default_factory=MarkParams)
    threshold: int | None = None
    exact_ceiling: int = DEFAULT_EXACT_CEILING

    def __post_init__(self) -> None:
        if self.tester not in ("exact", "heuristic"):
            raise InputError(f"unknown tester {self.tester!r}")
        if self.threshold is not None and self.threshold < 1:
            raise InputError("threshold must be at least 1")
        validate_ceiling(self.exact_ceiling)


def run_tester(net: TerminalNetwork, c: int,
               params: ReduceParams) -> TesterVerdict:
    """The verdict of the tester that params names, at exponent c."""
    if params.tester == "exact":
        return exact_tester(net, c, params.exact_ceiling)
    return heuristic_tester(net, c)


def mimicking_network(net: TerminalNetwork, params: ReduceParams
                      ) -> tuple[TerminalNetwork, ReductionTrace]:
    """The input with every non-covering edge contracted away; terminal set
    and all partition cut values are unchanged. Its edge ids, a subset of
    the input's, form a multicut-covering set: every request set over T has
    a minimum multicut inside it. When cap(T) = 0, every edge lies in a
    terminal-free component, which the degree-2 rules delete, so the
    output is the bare terminals.
    """
    if not net.terminals:
        raise InputError("reduction needs a nonempty terminal set")
    k = terminal_capacity(net)
    c = params.mark.c if params.mark.c is not None else default_c(k, params.mark.i0)
    mark_base = replace(params.mark, c=c)
    rng = random.Random(params.mark.seed)
    final, events = _reduce(net, params, mark_base, rng, depth=0)
    return final, ReductionTrace(tuple(events))


def _reduce(net: TerminalNetwork, params: ReduceParams, mark_base: MarkParams,
            rng: random.Random, depth: int
            ) -> tuple[TerminalNetwork, list[Event]]:
    if params.threshold is not None and depth == 0:
        threshold = params.threshold
    else:  # c is fixed by mimicking_network
        threshold = max(terminal_capacity(net), 1) ** mark_base.c

    events: list[Event] = []
    while True:
        net, local = degree2_reduce(net)
        events.extend(local)
        if net.m <= threshold:
            events.append(Stop("base"))
            return net, events
        ids = _step(net, params, mark_base, rng, depth, events)
        if not ids:
            events.append(Stop("saturated"))
            return net, events
        for eid in ids:
            if net.has_edge(eid):  # else a loop of earlier ones
                net = contract_edge(net, eid)
                events.append(Contract(eid))


def _step(net: TerminalNetwork, params: ReduceParams, mark_base: MarkParams,
          rng: random.Random, depth: int, events: list[Event]) -> list[int]:
    """Ids of the edges the next pass contracts, in order; empty when the
    loop saturates. The Recurse or MarkStats event that chose them, if any,
    is appended first. No id joins two terminals, whose identification
    would change cut values outright.
    """
    verdict = run_tester(net, mark_base.c, params)
    if verdict.is_sparse:
        assert verdict.witness is not None
        if depth >= MAX_DEPTH:
            return []
        sub = recursive_instance(net, verdict.witness)
        events.append(Recurse(verdict.witness, depth + 1))
        sub_final = _reduce(sub, params, mark_base, rng, depth + 1)[0]
        free = set(sub.edge_ids()).difference(sub_final.edge_ids())
    else:
        over = _overconnected(net, terminal_capacity(net))
        if over:
            return over
        call_params = replace(mark_base, seed=rng.randrange(1 << 62))
        try:
            marked = mark(net, call_params).marked
        except MarkingRefusedError:
            return []
        events.append(MarkStats(len(marked), mark_base.c, call_params.i0))
        free = set(net.edge_ids()).difference(marked)
    tset = set(net.terminals)
    eid = next((eid for eid, u, v in net.edges  # in id order
                if eid in free and not (u in tset and v in tset)), None)
    return [] if eid is None else [eid]


def _overconnected(net: TerminalNetwork, k: int) -> list[int]:
    """Ids, ascending, of the edges uv with lambda(u, v) > k, where k is
    cap(T): both ends have degree > k and a unit flow capped at k + 1
    paths finds k + 1.

    Sound to contract all of them: every partition's minimum multiway cut
    (and every multicut) has at most cap(T) edges, and a minimal cut
    holding uv separates u from v, so it would have at least lambda(u, v)
    edges. No terminal-incident edge qualifies, since lambda(t, x) <=
    deg(t) <= k, so contracting them keeps cap(T); and contraction never
    lowers a lambda, so the edges found on one network stay contractible
    while the others are contracted (an edge whose ends have merged is a
    loop, already gone).
    """
    incident = net.adjacency()
    over = [eid for eid, u, v in net.edges
            if len(incident[u]) > k and len(incident[v]) > k
            and unit_flow(incident, {u}, {v}, k + 1)[0] > k]
    tset = set(net.terminals)
    for eid in over:
        if tset.intersection(net.endpoints(eid)):
            raise InternalError(
                f"edge {eid} has a terminal end but is over {k}-connected")
    return over


# -- trace text form ---------------------------------------------------------

def format_trace(trace: ReductionTrace) -> str:
    lines = []
    for ev in trace.events:
        if isinstance(ev, Contract):
            lines.append(f"C {ev.eid}")
        elif isinstance(ev, DeleteLeaf):
            lines.append(f"DL {ev.vertex}")
        elif isinstance(ev, DeleteComponent):
            lines.append("DC " + " ".join(str(v) for v in ev.vertices))
        elif isinstance(ev, Recurse):
            lines.append(f"R {ev.depth} " + " ".join(str(v) for v in ev.S))
        elif isinstance(ev, MarkStats):
            lines.append(f"M {ev.size} {ev.c} {ev.i0}")
        elif isinstance(ev, Stop):
            lines.append(f"S {ev.reason}")
        else:
            raise InputError(f"unknown event {ev!r}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> ReductionTrace:
    events: list[Event] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "C" and len(parts) == 2:
                events.append(Contract(int(parts[1])))
            elif parts[0] == "DL" and len(parts) == 2:
                events.append(DeleteLeaf(int(parts[1])))
            elif parts[0] == "DC" and len(parts) >= 2:
                events.append(DeleteComponent(tuple(int(x) for x in parts[1:])))
            elif parts[0] == "R" and len(parts) >= 3:
                events.append(Recurse(tuple(int(x) for x in parts[2:]),
                                      int(parts[1])))
            elif parts[0] == "M" and len(parts) == 4:
                events.append(MarkStats(int(parts[1]), int(parts[2]),
                                        int(parts[3])))
            elif parts[0] == "S" and len(parts) == 2:
                events.append(Stop(parts[1]))
            else:
                raise ValueError
        except ValueError:
            raise InputError(f"line {ln}: bad trace line {raw!r}") from None
    return ReductionTrace(tuple(events))


def replay_trace(net: TerminalNetwork, trace: ReductionTrace) -> TerminalNetwork:
    """Re-apply the structural events; Recurse/MarkStats/Stop are advisory."""
    work = net
    for ev in trace.events:
        if isinstance(ev, (Contract, DeleteLeaf, DeleteComponent)):
            work = apply_local_event(work, ev)
    return work
