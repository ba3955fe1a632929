"""degree2_reduce against a reference copy of its earlier loop.

The reference re-finds terminal-free components and rescans every vertex
after every event, and applies each event inline; degree2_reduce deletes
those components once, up front, finds each next event from a per-call
index and applies every event through apply_local_event. Both must return
the identical (network, events) pair on every input.
"""

import random
from collections import Counter

from cutmimic.netgraph import (
    Contract,
    DeleteComponent,
    DeleteLeaf,
    TerminalNetwork,
    components,
    contract_edge,
    degree2_reduce,
)


def reference_degree2_reduce(net):
    events = []
    cur = net
    while True:
        tset = set(cur.terminals)
        dead = [c for c in components(cur) if not (set(c) & tset)]
        if dead:
            goners = set()
            for comp in dead:
                events.append(DeleteComponent(comp))
                goners |= set(comp)
            cur = TerminalNetwork.build(
                [v for v in cur.vertices if v not in goners],
                [e for e in cur.edges if e[1] not in goners],
                cur.terminals)
            continue
        adj = cur.adjacency()
        leaf = next((v for v in cur.vertices
                     if v not in tset and len(adj[v]) == 1), None)
        if leaf is not None:
            eid = adj[leaf][0][0]
            events.append(DeleteLeaf(leaf))
            cur = TerminalNetwork.build(
                [v for v in cur.vertices if v != leaf],
                [e for e in cur.edges if e[0] != eid],
                cur.terminals)
            continue
        deg2 = None
        for v in cur.vertices:
            if v in tset or len(adj[v]) != 2:
                continue
            (e1, w1), (e2, w2) = adj[v]
            if w1 == w2:
                continue
            deg2 = min(e1, e2)
            break
        if deg2 is not None:
            events.append(Contract(deg2))
            cur = contract_edge(cur, deg2)
            continue
        return cur, tuple(events)


def random_multigraph(rng):
    """A small multigraph mixing a random core (with self-loops and parallel
    edges), pendant trees, subdivided chains, parallel degree-2 pairs,
    isolated vertices and terminal-free cycles. Vertex and edge ids are
    shuffled so the lowest-id choices of the rules are exercised. Returns
    the network and whether a self-loop was generated (build drops them).
    """
    core = rng.sample(range(1, 60), rng.randint(1, 10))
    fresh = iter(rng.sample(range(60, 400), 340))
    vertices = list(core)
    pairs = []
    for _ in range(rng.randint(0, 2 * len(core))):
        u = rng.choice(core)
        v = u if rng.random() < 0.1 else rng.choice(core)
        pairs.append((u, v))
        if rng.random() < 0.15:
            pairs.append((u, v))
    for _ in range(rng.randint(0, 2)):  # pendant trees
        tree = [rng.choice(vertices)]
        for _ in range(rng.randint(1, 4)):
            w = next(fresh)
            pairs.append((rng.choice(tree), w))
            tree.append(w)
        vertices += tree[1:]
    for _ in range(rng.randint(0, 2)):  # chains between two vertices
        prev, end = rng.choice(vertices), rng.choice(vertices)
        for _ in range(rng.randint(1, 4)):
            w = next(fresh)
            pairs.append((prev, w))
            vertices.append(w)
            prev = w
        pairs.append((prev, end))
    if rng.random() < 0.3:  # parallel degree-2 pair
        u, w = rng.choice(vertices), next(fresh)
        pairs += [(u, w), (u, w)]
        vertices.append(w)
    if rng.random() < 0.3:  # terminal-free cycle
        cyc = [next(fresh) for _ in range(rng.randint(2, 4))]
        pairs += list(zip(cyc, cyc[1:] + cyc[:1]))
        vertices += cyc
    if rng.random() < 0.3:  # isolated vertex
        vertices.append(next(fresh))
    ids = rng.sample(range(1, 3 * len(pairs) + 2), len(pairs))
    edges = [(e, u, v) for e, (u, v) in zip(ids, pairs)]
    n_terms = rng.choice([0, 1, 2, 2, 3, 4])
    terminals = rng.sample(core, min(n_terms, len(core)))
    net = TerminalNetwork.build(vertices, edges, terminals)
    return net, any(u == v for u, v in pairs)


def chain_heavy_network(rng, n_edges):
    """A network shaped like the sparse-chains benchmark inputs, of about
    n_edges edges: each edge of a small random core becomes a subdivided
    chain, terminal-free cycles hang off random vertices, and pendant trees
    fill up the rest. Vertex and edge ids are shuffled so the least-id
    choices of the rules are exercised.
    """
    core_n = rng.randint(7, 10)
    fresh = iter(range(core_n + 1, 3 * n_edges))
    vertices = list(range(1, core_n + 1))
    pairs = []
    for _ in range(20):  # each core edge becomes a chain
        prev, end = rng.sample(vertices[:core_n], 2)
        for _ in range(rng.randint(1, n_edges // 20)):
            w = next(fresh)
            pairs.append((prev, w))
            vertices.append(w)
            prev = w
        pairs.append((prev, end))
    for _ in range(3):  # terminal-free cycles through one vertex
        anchor = prev = rng.choice(vertices)
        for _ in range(rng.randint(2, n_edges // 40 + 2)):
            w = next(fresh)
            pairs.append((prev, w))
            vertices.append(w)
            prev = w
        pairs.append((prev, anchor))
    while len(pairs) < n_edges:  # pendant trees
        tree = [rng.choice(vertices)]
        for _ in range(rng.randint(1, 25)):
            w = next(fresh)
            pairs.append((rng.choice(tree), w))
            tree.append(w)
        vertices += tree[1:]
    name = dict(zip(vertices, rng.sample(range(1, 3 * len(vertices)),
                                         len(vertices))))
    ids = rng.sample(range(1, 2 * len(pairs)), len(pairs))
    edges = [(e, name[u], name[v]) for e, (u, v) in zip(ids, pairs)]
    terminals = [name[t] for t in rng.sample(range(1, core_n + 1),
                                              rng.randint(2, 5))]
    return TerminalNetwork.build(name.values(), edges, terminals)


def test_degree2_reduce_matches_reference_on_chain_heavy_networks():
    for seed, n_edges in ((1, 300), (2, 700), (3, 1200)):
        net = chain_heavy_network(random.Random(seed), n_edges)
        expected = reference_degree2_reduce(net)
        assert degree2_reduce(net) == expected, seed
        kinds = Counter(type(ev) for ev in expected[1])
        assert kinds[Contract] >= n_edges // 4, (seed, kinds)
        assert kinds[DeleteLeaf] >= n_edges // 4, (seed, kinds)


def test_degree2_reduce_matches_reference():
    seen = Counter()
    for seed in range(1000):
        net, had_loop = random_multigraph(random.Random(seed))
        expected = reference_degree2_reduce(net)
        assert degree2_reduce(net) == expected, seed
        adj = net.adjacency()
        tset = set(net.terminals)
        seen["self-loop"] += had_loop
        seen["no terminals"] += not tset
        seen["isolated vertex"] += any(not adj[v] for v in net.vertices)
        seen["terminal-free component"] += bool(tset) and any(
            tset.isdisjoint(c) for c in components(net))
        seen["parallel degree-2 pair"] += any(
            v not in tset and len(adj[v]) == 2 and adj[v][0][1] == adj[v][1][1]
            for v in net.vertices)
        seen["pendant tree"] += sum(
            isinstance(ev, DeleteLeaf) for ev in expected[1]) >= 2
    for feature in ("self-loop", "no terminals", "isolated vertex",
                    "terminal-free component", "parallel degree-2 pair",
                    "pendant tree"):
        assert seen[feature] >= 50, (feature, seen)
