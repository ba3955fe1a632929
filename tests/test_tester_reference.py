"""exact_tester against a reference copy of its walk-only form.

The reference scans all 2^n vertex subsets on every call. exact_tester first
computes kappa = min over nonempty S of cap_T(S) by one sink min cut and
returns Dense when kappa^c >= floor(n/2); only otherwise does it walk. Both
must return the identical verdict on every input, and the certificate must
decide exactly the calls its bound covers.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from cutmimic import tester as tester_mod
from cutmimic.netgraph import TerminalNetwork, components, t_capacity
from cutmimic.tester import exact_tester

C_VALUES = (1, 2, 3, 4, 6, 40)


def reference_exact_tester(net, c, ceiling=tester_mod.DEFAULT_EXACT_CEILING):
    tester_mod.validate_c(c)
    n = net.n
    if n > ceiling:
        raise tester_mod.RefusedError(
            f"exact tester is exhaustive; {n} vertices exceeds ceiling {ceiling}")
    if n <= 1:
        return tester_mod.TesterVerdict("dense")
    verts = net.vertices
    vidx = {v: i for i, v in enumerate(verts)}
    tflag = [v in set(net.terminals) for v in verts]
    closed = [1 << i for i in range(n)]
    nbrs = [dict() for _ in range(n)]
    for _, u, v in net.edges:
        ui, vi = vidx[u], vidx[v]
        nbrs[ui][vi] = nbrs[ui].get(vi, 0) + 1
        nbrs[vi][ui] = nbrs[vi].get(ui, 0) + 1
        closed[ui] |= 1 << vi
        closed[vi] |= 1 << ui
    deg = [sum(nb.values()) for nb in nbrs]
    full = (1 << n) - 1

    best = None
    mask = 0
    size = 0
    cap = 0
    for g in range(1, 1 << n):
        i = (g & -g).bit_length() - 1
        bit = 1 << i
        inside = sum(m for j, m in nbrs[i].items() if mask & (1 << j))
        if mask & bit:
            mask ^= bit
            size -= 1
            cap += inside - (deg[i] - inside)
            if tflag[i]:
                cap -= deg[i]
        else:
            mask |= bit
            size += 1
            cap += deg[i] - 2 * inside
            if tflag[i]:
                cap += deg[i]
        if size == 0 or 2 * size > n:
            continue
        value = cap ** c - size
        if best is not None and (value, size) > best[:2]:
            continue
        closure = 0
        msk = mask
        while msk:
            b = msk & -msk
            closure |= closed[b.bit_length() - 1]
            msk ^= b
        if closure == full:
            continue
        cand = (value, size,
                tuple(verts[j] for j in range(n) if mask & (1 << j)))
        if best is None or cand < best:
            best = cand
    if best is None or best[0] >= 0:
        return tester_mod.TesterVerdict("dense")
    return tester_mod._sparse_verdict(net, c, best[2])


def fields(v):
    return (v.kind, v.witness, v.cap, v.size, v.verified)


def random_multigraph(rng, n):
    """Vertex ids with gaps, one to three blocks with no edge between them,
    parallel edges, and zero to four terminals anywhere."""
    ids = sorted(rng.sample(range(1, 3 * n + 1), n))
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
    blocks = [ids[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    edges = []
    for eid in range(1, rng.randint(0, 3 * n) + 1):
        if edges and rng.random() < 0.3:
            edges.append((eid, *edges[-1][1:]))
            continue
        block = rng.choice(blocks)
        edges.append((eid, rng.choice(block), rng.choice(block)))
    terms = rng.sample(ids, rng.randint(0, min(n, 4)))
    return TerminalNetwork.build(ids, edges, terms)


def index_arrays(net):
    idx = {v: i for i, v in enumerate(net.vertices)}
    nbrs = [dict() for _ in net.vertices]
    for _, u, v in net.edges:
        a, b = idx[u], idx[v]
        nbrs[a][b] = nbrs[a].get(b, 0) + 1
        nbrs[b][a] = nbrs[b].get(a, 0) + 1
    deg = [sum(nb.values()) for nb in nbrs]
    return nbrs, deg, [v in net.terminals for v in net.vertices]


def sink_min_cut(net):
    return tester_mod._sink_min_cut(*index_arrays(net))


def brute_min_t_capacity(net):
    return min(t_capacity(net, S) for r in range(1, net.n + 1)
               for S in itertools.combinations(net.vertices, r))


def complete_graph(n, terminals):
    pairs = itertools.combinations(range(1, n + 1), 2)
    return TerminalNetwork.build(
        range(1, n + 1), [(k, u, v) for k, (u, v) in enumerate(pairs, 1)],
        terminals)


def cycle(n, terminals, chords=()):
    pairs = [(i, i % n + 1) for i in range(1, n + 1)] + list(chords)
    return TerminalNetwork.build(
        range(1, n + 1), [(k, u, v) for k, (u, v) in enumerate(pairs, 1)],
        terminals)


class WalkSpy:
    def __init__(self, monkeypatch):
        self.calls = 0
        self._walk = tester_mod._gray_code_walk
        monkeypatch.setattr(tester_mod, "_gray_code_walk", self)

    def __call__(self, *args):
        self.calls += 1
        return self._walk(*args)


def test_matches_reference_on_seeded_multigraphs(monkeypatch):
    spy = WalkSpy(monkeypatch)
    rng = random.Random(2026)
    seen = dict.fromkeys(("sparse", "certified", "walked dense",
                          "disconnected", "terminal-free component",
                          "degree-0 terminal", "no terminals"), 0)
    for k in range(2400):
        # The smaller of two draws: every n up to 13, most of them small.
        net = random_multigraph(rng, min(rng.randint(1, 13),
                                         rng.randint(1, 13)))
        c = C_VALUES[k % len(C_VALUES)]
        walks = spy.calls
        got = exact_tester(net, c)
        assert fields(got) == fields(reference_exact_tester(net, c)), (net, c)
        if got.is_sparse:
            seen["sparse"] += 1
        elif spy.calls == walks:
            seen["certified"] += 1
        else:
            seen["walked dense"] += 1
        comps = components(net)
        tset = set(net.terminals)
        seen["disconnected"] += len(comps) > 1
        seen["terminal-free component"] += any(not tset & set(comp)
                                               for comp in comps)
        seen["degree-0 terminal"] += any(net.degree(t) == 0 for t in tset)
        seen["no terminals"] += not tset
    assert min(seen.values()) >= 100, seen


def test_sink_min_cut_equals_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        net = random_multigraph(rng, rng.randint(1, 9))
        assert sink_min_cut(net) == brute_min_t_capacity(net), net


@st.composite
def small_networks(draw):
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          max_size=3 * n))
    terms = draw(st.sets(st.integers(1, n), max_size=4))
    return TerminalNetwork.build(
        range(1, n + 1), [(k, u, v) for k, (u, v) in enumerate(pairs, 1)],
        terms)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_networks())
def test_sink_min_cut_property(net):
    assert sink_min_cut(net) == brute_min_t_capacity(net)


def test_certificate_decides_exactly_when_its_bound_holds(monkeypatch):
    """The walk runs iff kappa^c < floor(n/2). The fixed cases sit on the
    bound: a cycle has kappa = 2, a clique with one terminal kappa = n - 1."""
    spy = WalkSpy(monkeypatch)
    fixed = [(cycle(n, [1]), c) for n in (4, 5, 6) for c in (1, 2)]
    fixed += [(complete_graph(n, [1]), 1) for n in (3, 6, 7)]
    rng = random.Random(12)
    rand = [(random_multigraph(rng, rng.randint(2, 10)), rng.choice(C_VALUES))
            for _ in range(300)]
    for net, c in fixed + rand:
        walks = spy.calls
        exact_tester(net, c)
        bound_holds = brute_min_t_capacity(net) ** c >= net.n // 2
        assert (spy.calls == walks) == bound_holds, (net, c)


def test_twenty_vertices_two_edge_connected_decided_by_certificate(
        monkeypatch):
    def no_walk(*args):
        raise AssertionError("the certificate should have decided")

    monkeypatch.setattr(tester_mod, "_gray_code_walk", no_walk)
    net = cycle(20, [1, 11], chords=[(3, 14), (7, 18)])
    assert net.n == tester_mod.DEFAULT_EXACT_CEILING
    assert sink_min_cut(net) == 2
    assert exact_tester(net, 6) == tester_mod.TesterVerdict("dense")
