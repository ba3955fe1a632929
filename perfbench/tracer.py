"""Binding-site span tracer and the per-layer metrics derived from it.

The package's modules import one another with `from .x import f`, so the
function a caller reaches is the one bound in the caller's own module.
`Tracer.install` therefore replaces a traced function at every module of
the package that binds it (for `degree2_reduce`: netgraph and reducer, for
`mark`: marker, reducer, frontend and the package root) and `uninstall`
puts the originals back. Spans are recorded only inside `Tracer.op`, so the
benchmark's own calls (reference values) leave none. Spans stay in memory;
self time is a span's duration minus the durations of the spans it directly
caused.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass
from typing import Any, Callable

import cutmimic
from cutmimic.errors import MarkingRefusedError


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an op's root span
    op: int
    result: Any = None
    error: type | None = None  # exception class, not the instance


# (defining module, function, span name). The span name is the layer the
# metric table files the function under: parse_network and format_network
# live in netgraph but are the front end's file I/O.
TRACED = (
    ("netgraph", "degree2_reduce", "netgraph.degree2_reduce"),
    ("netgraph", "contract_edge", "netgraph.contract_edge"),
    ("netgraph", "recursive_instance", "netgraph.recursive_instance"),
    ("tester", "exact_tester", "tester.exact_tester"),
    ("marker", "mark", "marker.mark"),
    ("matroids", "gammoid_rep", "matroids.gammoid_rep"),
    ("matroids", "graphic_rep", "matroids.graphic_rep"),
    ("matroids", "build_edge_cut_gammoid_digraph",
     "matroids.build_edge_cut_gammoid_digraph"),
    ("repset", "representative_set_product",
     "repset.representative_set_product"),
    ("ffield", "select_independent_columns",
     "ffield.select_independent_columns"),
    ("ffield", "kronecker_column", "ffield.kronecker_column"),
    ("oracles", "verify_mimicking", "oracles.verify_mimicking"),
    ("oracles", "min_multiway_cut", "oracles.min_multiway_cut"),
    ("oracles", "min_multicut", "oracles.min_multicut"),
    ("oracles", "min_cut_side", "oracles.min_cut_side"),
    ("netgraph", "parse_network", "frontend.parse_network"),
    ("netgraph", "format_network", "frontend.format_network"),
    ("reducer", "mimicking_network", "reducer.mimicking_network"),
)

OP_SPAN = "op"


def package_modules() -> list[Any]:
    mods = [cutmimic]
    for info in pkgutil.iter_modules(cutmimic.__path__):
        mods.append(importlib.import_module(f"cutmimic.{info.name}"))
    return mods


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[Any, str, Callable]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        mods = package_modules()
        for modname, fname, span in TRACED:
            original = getattr(importlib.import_module(f"cutmimic.{modname}"),
                               fname)
            wrapper = self._wrap(original, span)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def binding_sites(self) -> list[str]:
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._saved)

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            if not self._stack:  # outside an op: the benchmark's own call
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx].error = type(exc)
                raise
            finally:
                self._close(idx)
            if name in KEEP:
                try:
                    bound = sig.bind(*args, **kwargs).arguments
                    self.spans[idx].result = KEEP[name](bound, result)
                except (TypeError, KeyError, AttributeError):
                    pass  # a changed signature leaves the counter at zero
            return result
        traced.__wrapped__ = fn
        return traced

    def op(self, fn: Callable[[], Any]) -> Any:
        """Run one op under a root span; all its spans share one op id."""
        self._op += 1
        idx = self._open(OP_SPAN)
        try:
            return fn()
        finally:
            self._close(idx)

    # -- derived metrics -------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own


# What a span keeps of its call for the counters: small numbers only, so
# the trace does not pin every intermediate network in memory. Each entry
# reads the call's arguments by parameter name.
KEEP: dict[str, Callable[[dict, Any], Any]] = {
    "netgraph.degree2_reduce": lambda a, r: len(r[1]),
    "tester.exact_tester": lambda a, r: r.is_sparse,
    "marker.mark": lambda a, r: (len(r.marked), a["net"].m, r.tensor_dim),
    # Pattern matrix: one row per non-source node, one column per node.
    "matroids.gammoid_rep": lambda a, r: (
        (len(a["dg"].nodes) - len(set(a["sources"]))) * len(a["dg"].nodes)),
    "repset.representative_set_product": lambda a, r: (len(r),
                                                       len(a["family"])),
}


SPAN_METRICS = {
    "netgraph.degree2_reduce": ("self_s", "calls", "events"),
    "netgraph.contract_edge": ("self_s", "calls"),
    "netgraph.recursive_instance": ("self_s", "calls"),
    "tester.exact_tester": ("self_s", "calls", "sparse"),
    "marker.mark": ("self_s", "calls", "refused", "refused_s", "all_marked",
                    "useful_ratio", "tensor_dim.max"),
    "matroids.gammoid_rep": ("self_s", "calls", "cells"),
    "matroids.graphic_rep": ("self_s", "calls"),
    "matroids.build_edge_cut_gammoid_digraph": ("self_s", "calls"),
    "repset.representative_set_product": ("self_s", "calls", "kept_ratio"),
    "ffield.select_independent_columns": ("self_s", "calls"),
    "ffield.kronecker_column": ("self_s", "calls"),
    "oracles.verify_mimicking": ("self_s", "calls"),
    "oracles.min_multiway_cut": ("self_s", "calls"),
    "oracles.min_multicut": ("self_s", "calls"),
    "oracles.min_cut_side": ("self_s", "calls"),
    "frontend.parse_network": ("self_s",),
    "frontend.format_network": ("self_s",),
    "reducer.mimicking_network": ("self_s",),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every `<span>.<stat>` of SPAN_METRICS, zero where a span never ran."""
    acc: dict[str, dict[str, float]] = {
        name: {"self_s": 0.0, "calls": 0, "events": 0, "sparse": 0,
               "refused": 0, "refused_s": 0.0, "all_marked": 0, "useful": 0,
               "tensor_dim.max": 0, "cells": 0, "kept": 0, "offered": 0}
        for name in SPAN_METRICS}
    for span, own in zip(tracer.spans, tracer.self_times()):
        a = acc.get(span.name)
        if a is None:
            continue
        a["self_s"] += own
        a["calls"] += 1
        r = span.result
        if span.name == "netgraph.degree2_reduce" and r is not None:
            a["events"] += r
        elif span.name == "tester.exact_tester" and r:
            a["sparse"] += 1
        elif span.name == "marker.mark":
            if span.error and issubclass(span.error, MarkingRefusedError):
                a["refused"] += 1
                a["refused_s"] += span.end - span.start
            elif r is not None:
                marked, m, dim = r
                a["all_marked"] += marked == m
                a["useful"] += marked < m
                a["tensor_dim.max"] = max(a["tensor_dim.max"], dim)
        elif span.name == "matroids.gammoid_rep":
            a["cells"] += r or 0
        elif span.name == "repset.representative_set_product" and r:
            a["kept"] += r[0]
            a["offered"] += r[1]
    out: dict[str, float] = {}
    for name, stats in SPAN_METRICS.items():
        a = acc[name]
        a["useful_ratio"] = a["useful"] / a["calls"] if a["calls"] else 0.0
        a["kept_ratio"] = a["kept"] / a["offered"] if a["offered"] else 0.0
        for stat in stats:
            out[f"{name}.{stat}"] = a[stat]
    return out
