"""Shared random-instance generators for the test suite.

All generators take an explicit rng so every test is reproducible from its
seed; nothing here reads global random state.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from hypothesis import strategies as st

from cutmimic.netgraph import TerminalNetwork


def bench_workloads():
    """perfbench/workloads.py as a module, for its seeded generators
    (`gen_corpus_small`, `gen_dense_k2`, ...)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def random_connected_network(rng: random.Random, n_lo: int = 3, n_hi: int = 10,
                             extra_lo: int = 0, extra_hi: int = 5,
                             n_terminals: int = 2, cap_max: int | None = None,
                             ) -> TerminalNetwork:
    """A connected multigraph: random spanning tree plus extra random edges,
    with `n_terminals` terminals drawn at random. When cap_max is given the
    terminals are re-drawn (and edges re-rolled) until cap(T) <= cap_max.
    """
    for _ in range(400):
        n = rng.randint(n_lo, n_hi)
        verts = list(range(1, n + 1))
        edges: list[tuple[int, int, int]] = []
        eid = 1
        order = verts[:]
        rng.shuffle(order)
        for i in range(1, n):
            a = order[rng.randrange(i)]
            edges.append((eid, a, order[i]))
            eid += 1
        for _ in range(rng.randint(extra_lo, extra_hi)):
            u, v = rng.sample(verts, 2) if n >= 2 else (None, None)
            if u is None:
                break
            edges.append((eid, u, v))
            eid += 1
        if n < n_terminals:
            continue
        terms = sorted(rng.sample(verts, n_terminals))
        net = TerminalNetwork.build(verts, edges, terms)
        if cap_max is not None:
            k = sum(net.degree(t) for t in terms)
            if k > cap_max:
                continue
        return net
    raise RuntimeError("generator failed to hit the capacity target")


def path_network(length: int, extra_terminals: tuple[int, ...] = ()
                 ) -> TerminalNetwork:
    """Path with `length` edges on vertices 0..length, ends terminal."""
    verts = list(range(length + 1))
    edges = [(i + 1, i, i + 1) for i in range(length)]
    terms = sorted({0, length, *extra_terminals})
    return TerminalNetwork.build(verts, edges, terms)


def triangle(terminals: tuple[int, ...] = (1, 2, 3)) -> TerminalNetwork:
    return TerminalNetwork.build(
        [1, 2, 3], [(1, 1, 2), (2, 2, 3), (3, 3, 1)], terminals)


@st.composite
def connected_terminal_networks(draw, n_lo: int = 4, n_hi: int = 12,
                                t_lo: int = 2, t_hi: int = 4
                                ) -> TerminalNetwork:
    """Hypothesis strategy: a random spanning tree on n_lo..n_hi vertices
    plus up to n extra (possibly parallel) edges, with t_lo..t_hi terminals.
    """
    n = draw(st.integers(n_lo, n_hi))
    edges = [(v - 1, draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                          .filter(lambda uv: uv[0] != uv[1]), max_size=n))
    edges += [(len(edges) + i, u, v) for i, (u, v) in enumerate(extra, 1)]
    terms = draw(st.lists(st.integers(1, n), min_size=t_lo,
                          max_size=min(t_hi, n), unique=True))
    return TerminalNetwork.build(range(1, n + 1), edges, terms)
