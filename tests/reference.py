"""Reference code that only the tests and demos call.

None of this runs in the CLI. Each definition is either an independent
route to a result the engine computes another way (the rank of a vector
set by its own elimination, independence in a layer as the rank of its
columns, gammoid independence by disjoint paths, all minimum witnesses by
subset search, the least separating edge sets by subset search with no
oracle code, the general-form representative set, the edge-cut digraph
from its generated arc set, each network edit renamed or filtered and then
re-validated by build) or a construction a gate measures the engine
against (the direct sum of layers, the isolating-cut 2-approximation, the
covering condition), plus the helpers the tests build inputs with: random
matrices as column lists, the product-form selection on tuples of ground
elements, the arc-list constructor of the hand-built test digraphs, the
arc list of a digraph and the block of a terminal in a partition.
The file name keeps pytest from collecting it; tests import it as
`reference`, which works because pytest puts this directory on sys.path.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import Any, Iterable, Sequence

from cutmimic.errors import (
    InputError,
    InternalError,
    RefusedError,
    TerminalContractionError,
)
from cutmimic.ffield import PrimeField, select_independent_columns
from cutmimic.matroids import (
    Digraph,
    GammoidInstance,
    MatroidRep,
    Node,
    build_edge_cut_gammoid_digraph,
    gammoid_rep,
)
from cutmimic.netgraph import (
    DeleteComponent,
    DeleteLeaf,
    Partition,
    TerminalNetwork,
    components,
    t_capacity,
    terminal_capacity,
)
from cutmimic.oracles import (
    _check_partition,
    closest_min_cut,
    is_multiway_cut,
    min_cut_side,
    min_multiway_cut,
)
from cutmimic.reducer import ReduceParams, ReductionTrace, mimicking_network
from cutmimic.repset import representative_set_product


# -- fields and vectors ------------------------------------------------------

def rank(field: PrimeField, vectors: Sequence[Sequence[int]]) -> int:
    """Rank of the span of equal-length vectors (a matrix's rows, or its
    columns: the two ranks agree), by fraction-free elimination with
    partial pivoting by first nonzero.
    """
    p = field.p
    work = [[x % p for x in v] for v in vectors]
    width = len(work[0]) if work else 0
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][col]
        for i in range(r + 1, len(work)):
            f = work[i][col]
            if f:
                ri, rr = work[i], work[r]
                work[i] = [(lead * a - f * b) % p for a, b in zip(ri, rr)]
        r += 1
        if r == len(work):
            break
    return r


def random_matrix(rng: random.Random, field: PrimeField,
                  rows: int, cols: int) -> list[list[int]]:
    """The columns of a rows x cols matrix with entries uniform over
    [0, p), drawn row-major."""
    data = [rng.randrange(field.p) for _ in range(rows * cols)]
    return [data[j::cols] for j in range(cols)]


def transpose(vectors: Sequence[Sequence[int]], length: int
              ) -> list[list[int]]:
    """Rows of the matrix with the given columns, or the reverse; `length`
    is the vectors' common length, which an empty list does not show."""
    return [[v[i] for v in vectors] for i in range(length)]


# -- matroids ----------------------------------------------------------------

def is_independent(field: PrimeField, rep: MatroidRep,
                   subset: Sequence[Any]) -> bool:
    """True when the subset repeats no element and its columns have full
    rank."""
    if len(set(subset)) != len(subset):
        return False
    return rank(field, [rep.column_of(x) for x in subset]) == len(subset)


def disjoint_union(reps: Sequence[MatroidRep]) -> MatroidRep:
    """Direct sum as a single representation, the block-diagonal stack of
    the layers; ground elements are tagged with their layer index to keep
    copies distinct.
    """
    if not reps:
        raise InputError("disjoint union needs at least one layer")
    rows = sum(r.rows for r in reps)
    columns: list[list[int]] = []
    above = 0
    for rep in reps:
        below = rows - above - rep.rows
        columns += [[0] * above + col + [0] * below for col in rep.columns]
        above += rep.rows
    ground = tuple((i, x) for i, r in enumerate(reps) for x in r.ground)
    return MatroidRep(rows, columns, ground, sum(r.rank for r in reps))


def select_tuples(field: PrimeField, layers: Sequence[MatroidRep],
                  family: Sequence[Sequence[Any]]) -> list[Sequence[Any]]:
    """representative_set_product on tuples of ground elements, one per
    layer: the kept tuples in input order."""
    cols = [[layer.column_of(x) for layer, x in zip(layers, t)]
            for t in family]
    return [family[i] for i in representative_set_product(field, cols)]


def digraph_from_arcs(nodes: Iterable[Node],
                      arcs: Iterable[tuple[Node, Node]]) -> Digraph:
    """Digraph from a node and arc list: nodes in repr order, arcs
    deduplicated, each in-list in node order."""
    order = sorted(set(nodes), key=repr)
    pos = {v: i for i, v in enumerate(order)}
    ins: dict[Node, set[Node]] = {v: set() for v in order}
    for u, v in arcs:
        if u not in pos or v not in pos:
            raise InputError(f"arc {(u, v)!r} references unknown node")
        ins[v].add(u)
    return Digraph({v: sorted(ins[v], key=pos.__getitem__) for v in order})


def arcs(dg: Digraph) -> tuple[tuple[Node, Node], ...]:
    """(tail, head) pairs of a digraph by the node order of the tail, then
    the head."""
    outs: dict[Node, list[Node]] = {v: [] for v in dg.nodes}
    for v in dg.nodes:
        for u in dg.in_neighbors(v):
            outs[u].append(v)
    return tuple((u, v) for u in dg.nodes for v in outs[u])


def block_of(part: Partition, t: int) -> int:
    """Index of the block of `part` that holds terminal t."""
    for i, b in enumerate(part.blocks):
        if t in b:
            return i
    raise InputError(f"{t} is not in this partition")


def reference_edge_cut_gammoid_digraph(net: TerminalNetwork
                                       ) -> GammoidInstance:
    """build_edge_cut_gammoid_digraph as a set of generated arcs: for every
    vertex and every pair of distinct edges at it, all four arcs."""
    eids = net.edge_ids()
    nodes: list[Node] = [("z", e) for e in eids] + [("zp", e) for e in eids]
    arcs: set[tuple[Node, Node]] = set()
    adj = net.adjacency()
    for v in net.vertices:
        inc = [e for e, _ in adj[v]]
        for i, e in enumerate(inc):
            for f in inc[i + 1:]:
                if e == f:
                    continue
                arcs.add((("z", e), ("z", f)))
                arcs.add((("z", f), ("z", e)))
                arcs.add((("z", e), ("zp", f)))
                arcs.add((("z", f), ("zp", e)))
    tset = set(net.terminals)
    sources = tuple(("z", e) for e, u, v in net.edges
                    if u in tset or v in tset)
    return GammoidInstance(digraph_from_arcs(nodes, arcs), sources,
                           tuple(nodes))


def edge_cut_gammoid(field: PrimeField, rng: random.Random,
                     net: TerminalNetwork) -> MatroidRep:
    """Gammoid layer for a network: strict gammoid of the edge-adjacency
    digraph linked to the terminal-incident edges, over the full node set.
    Edge e enters candidate tuples through its sink-only copy ("zp", e).
    """
    inst = build_edge_cut_gammoid_digraph(net)
    return gammoid_rep(field, rng, inst.digraph, inst.sources, inst.ground)


def max_disjoint_paths(dg: Digraph, sources: Sequence[Node],
                       targets: Sequence[Node]) -> int:
    """Maximum number of vertex-disjoint paths from `sources` to `targets`
    (unit node capacities, sources and targets included). Zero-length paths
    count when a source is itself a target.
    """
    SRC, SNK = ("#src",), ("#snk",)
    cap: dict[Node, dict[Node, int]] = {}

    def add(u: Node, v: Node, c: int) -> None:
        cap.setdefault(u, {})[v] = cap.get(u, {}).get(v, 0) + c
        cap.setdefault(v, {}).setdefault(u, 0)

    for v in dg.nodes:
        add(("i", v), ("o", v), 1)
    for u, v in arcs(dg):
        add(("o", u), ("i", v), 1)
    for s in set(sources):
        add(SRC, ("i", s), 1)
    for t in set(targets):
        add(("o", t), SNK, 1)
    if SRC not in cap or SNK not in cap:
        return 0

    flow = 0
    while True:
        parent: dict[Node, Node] = {SRC: SRC}
        queue = [SRC]
        while queue and SNK not in parent:
            nxt: list[Node] = []
            for u in queue:
                for v, c in cap[u].items():
                    if c > 0 and v not in parent:
                        parent[v] = u
                        nxt.append(v)
            queue = nxt
        if SNK not in parent:
            return flow
        v = SNK
        while v != SRC:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] += 1
            v = u
        flow += 1


def is_independent_by_flow(dg: Digraph, sources: Sequence[Node],
                           subset: Sequence[Node]) -> bool:
    """Gammoid independence checked directly: the subset is independent iff
    it can be fully linked to the sources by vertex-disjoint paths.
    """
    if len(set(subset)) != len(subset):
        return False
    return max_disjoint_paths(dg, sources, subset) == len(subset)


# -- representative sets -----------------------------------------------------

def representative_set_general(field: PrimeField,
                               columns: Sequence[Sequence[int]],
                               sets: Sequence[Sequence[Any]], s: int,
                               r: int | None = None) -> list[Sequence[Any]]:
    """General-form selection for families of s-subsets, s <= 3, of the
    column indices of a matrix given by its columns.

    Each candidate is mapped to the vector of its s x s minors, taken over
    row s-subsets of a row basis in lexicographic order, and a greedy
    maximal independent set of those vectors is kept in input order. The
    row basis is the greedy basis of the matrix rows; any row basis serves,
    because changing it multiplies every minor vector by the same invertible
    matrix (the s-th compound of the change of basis). A survivor count
    above C(r+s, s), where r defaults to rank - s, raises InternalError.
    Returns the kept sets in input order.
    """
    if s < 1:
        raise InputError("general form needs s >= 1")
    if any(len(t) != s for t in sets):
        raise InputError("general-form tuples must have size s")
    if any(len(set(t)) != len(t) for t in sets):
        raise InputError("general-form tuples must not repeat elements")
    if s > 3:
        raise RefusedError(f"minor computation limited to s <= 3, got s={s}")
    all_rows = transpose(columns, len(columns[0]) if columns else 0)
    basis = [all_rows[i] for i in select_independent_columns(field, all_rows)]
    rho = len(basis)
    if r is None:
        r = max(rho - s, 0)
    if rho > r + s:
        raise InputError(f"rank {rho} exceeds r+s = {r + s}")
    if not sets:
        return []
    cols = transpose(basis, len(columns))
    vectors: list[list[int]] = []
    row_sets = list(combinations(range(rho), s))
    for t in sets:
        tcols = [cols[_locate_column(len(columns), x)] for x in t]
        vec = [_minor(field, tcols, rows) for rows in row_sets]
        if not any(vec):
            raise InputError(f"dependent candidate set {t!r}")
        vectors.append(vec)
    keep = select_independent_columns(field, vectors)
    bound = comb(r + s, s)
    if len(keep) > bound:
        raise InternalError(
            f"{len(keep)} survivors exceed C(r+s, s) = {bound}")
    return [sets[i] for i in keep]


def _locate_column(count: int, x: Any) -> int:
    if not isinstance(x, int) or not 0 <= x < count:
        raise InputError(
            f"general-mode elements are column indices; got {x!r}")
    return x


def _minor(field: PrimeField, cols: list[list[int]],
           rows: tuple[int, ...]) -> int:
    p = field.p
    if len(rows) == 1:
        return cols[0][rows[0]] % p
    if len(rows) == 2:
        (a, b), (c, d) = ((cols[0][rows[0]], cols[1][rows[0]]),
                          (cols[0][rows[1]], cols[1][rows[1]]))
        return (a * d - b * c) % p
    i, j, k = rows
    a, b, c = cols[0][i], cols[1][i], cols[2][i]
    d, e, f = cols[0][j], cols[1][j], cols[2][j]
    g, h, l = cols[0][k], cols[1][k], cols[2][k]
    return (a * (e * l - f * h) - b * (d * l - f * g)
            + c * (d * h - e * g)) % p


def extends(field: PrimeField, rep: MatroidRep, base: Sequence[Any],
            extra: Sequence[Any]) -> bool:
    """True when base and extra are disjoint and their union is independent."""
    if set(base) & set(extra):
        return False
    return is_independent(field, rep, list(base) + list(extra))


# -- networks and cuts -------------------------------------------------------

def delete_edges(net: TerminalNetwork, eids: Iterable[int]) -> TerminalNetwork:
    """Remove the given edges; all vertices stay, including newly isolated
    ones, so component counts reflect the deletion.
    """
    drop = set(int(e) for e in eids)
    missing = drop - set(net.edge_ids())
    if missing:
        raise InputError(f"unknown edge ids {sorted(missing)}")
    return TerminalNetwork(
        net.vertices,
        tuple(e for e in net.edges if e[0] not in drop),
        net.terminals)


def reference_contract_edge(net: TerminalNetwork, eid: int) -> TerminalNetwork:
    """contract_edge by renaming every edge and rebuilding through build."""
    u, v = net.endpoints(eid)
    u_t, v_t = u in net.terminals, v in net.terminals
    if u_t and v_t:
        raise TerminalContractionError(
            f"edge {eid} joins terminals {u} and {v}; contraction refused")
    if u_t:
        keep, gone = u, v
    elif v_t:
        keep, gone = v, u
    else:
        keep, gone = min(u, v), max(u, v)
    new_edges = []
    for e, a, b in net.edges:
        if e == eid:
            continue
        a2 = keep if a == gone else a
        b2 = keep if b == gone else b
        new_edges.append((e, a2, b2))
    verts = [w for w in net.vertices if w != gone]
    return TerminalNetwork.build(verts, new_edges, net.terminals)


def reference_contract_vertex_set(net: TerminalNetwork, S: Iterable[int],
                                  onto: int) -> TerminalNetwork:
    """contract_vertex_set by renaming every edge and rebuilding."""
    sset = set(S)
    if sset - set(net.vertices):
        raise InputError(f"unknown vertex ids {sorted(sset - set(net.vertices))}")
    if onto not in sset:
        raise InputError(f"vertex {onto} is not in the set being collapsed")
    terms_inside = sset & set(net.terminals)
    if terms_inside - {onto}:
        raise TerminalContractionError(
            f"collapsing {sorted(sset)} would merge terminals {sorted(terms_inside)}")
    new_edges = []
    for e, a, b in net.edges:
        a2 = onto if a in sset else a
        b2 = onto if b in sset else b
        if a2 == b2:
            continue
        new_edges.append((e, a2, b2))
    verts = [w for w in net.vertices if w not in sset or w == onto]
    return TerminalNetwork.build(verts, new_edges, net.terminals)


def reference_delete(net: TerminalNetwork, ev: DeleteLeaf | DeleteComponent
                     ) -> TerminalNetwork:
    """A DeleteLeaf or DeleteComponent event by filtering and rebuilding.
    Only well-formed events are checked: a malformed component may slip
    through, since it filters on each edge's first endpoint.
    """
    if isinstance(ev, DeleteLeaf):
        adj = net.adjacency()
        if ev.vertex not in adj or len(adj[ev.vertex]) != 1:
            raise InputError(f"replay: vertex {ev.vertex} is not a leaf")
        eid = adj[ev.vertex][0][0]
        return TerminalNetwork.build(
            [v for v in net.vertices if v != ev.vertex],
            [e for e in net.edges if e[0] != eid],
            net.terminals)
    goners = set(ev.vertices)
    return TerminalNetwork.build(
        [v for v in net.vertices if v not in goners],
        [e for e in net.edges if e[1] not in goners],
        net.terminals)


def enumerate_minimum_multiway_cuts(net: TerminalNetwork, part: Partition,
                                    limit: int = 2_000_000
                                    ) -> tuple[tuple[int, ...], ...]:
    """All minimum witnesses, by direct subset search."""
    value, _ = min_multiway_cut(net, part)
    if comb(net.m, value) > limit:
        raise RefusedError("witness enumeration would be too large")
    return tuple(X for X in combinations(net.edge_ids(), value)
                 if is_multiway_cut(net, part, X))


def smallest_separating_edge_sets(net: TerminalNetwork,
                                  pairs: Iterable[tuple[int, int]]
                                  ) -> tuple[int, frozenset[frozenset[int]]]:
    """The least k such that deleting some k edges puts every vertex pair
    in `pairs` in different components, and every such k-subset of edge
    ids, by subset search with a local union-find: no oracle code runs.
    """
    pairs = list(pairs)
    for k in range(net.m + 1):
        found = frozenset(frozenset(X)
                          for X in combinations(net.edge_ids(), k)
                          if _separates(net, set(X), pairs))
        if found:
            return k, found
    raise InputError("some pair shares a vertex: no edge set separates it")


def _separates(net: TerminalNetwork, X: set[int],
               pairs: Sequence[tuple[int, int]]) -> bool:
    root = {v: v for v in net.vertices}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for eid, u, v in net.edges:
        if eid not in X:
            root[find(u)] = find(v)
    return all(find(u) != find(v) for u, v in pairs)


def two_approx_multicut_cover(net: TerminalNetwork, part: Partition
                              ) -> tuple[tuple[int, ...], int]:
    """Union of per-block isolating closest cuts; a multiway cut for the
    partition whose size the half-integral multiflow bound keeps within
    twice the optimum (the inequality is asserted by the test suite, the
    multiflow is never constructed).
    """
    _check_partition(net, part)
    tset = set(net.terminals)
    out: set[int] = set()
    for block in part.blocks:
        rest = tset - set(block)
        if not rest:
            continue
        out.update(closest_min_cut(net, block, rest))
    witness = tuple(sorted(out))
    if not is_multiway_cut(net, part, witness):
        raise InternalError(
            f"isolating-cut union {witness} is not a multiway cut "
            f"for {part.to_text()}")
    return witness, len(witness)


def isolating_cut_values(net: TerminalNetwork, part: Partition) -> tuple[int, ...]:
    """The per-block isolating min-cut values, for the sum inequality."""
    _check_partition(net, part)
    tset = set(net.terminals)
    vals = []
    for block in part.blocks:
        rest = tset - set(block)
        vals.append(min_cut_side(net, block, rest)[0] if rest else 0)
    return tuple(vals)


def covering_condition_holds(net: TerminalNetwork, X: Sequence[int],
                             i0: int, c: int,
                             bound_override: int | None = None) -> bool:
    """Components of G - X sorted by non-increasing cap_T (measured in G;
    ties: larger component first, then smaller least vertex): true iff the
    union of components from position i0 onward has at most k^(c-i0)
    vertices. bound_override substitutes for k^(c-i0) when the graphic
    layer actually ran at a clamped rank.
    """
    if i0 < 2 or c < i0:
        raise InputError("need 2 <= i0 <= c")
    k = terminal_capacity(net)
    bound = k ** (c - i0) if bound_override is None else bound_override
    keyed = sorted(
        components(net, X),
        key=lambda comp: (-t_capacity(net, set(comp)), -len(comp), comp[0]))
    tail = sum(len(comp) for comp in keyed[i0 - 1:])
    return tail <= bound


# -- reduction ---------------------------------------------------------------

def multicut_covering_set(net: TerminalNetwork, params: ReduceParams
                          ) -> tuple[tuple[int, ...], ReductionTrace]:
    """Covering edge set: every request set over T has a minimum multicut
    inside it. The ids index edges of the input network.
    """
    final, trace = mimicking_network(net, params)
    return final.edge_ids(), trace
