"""gammoid_rep against a reference copy of its full-reduction construction.

The reference draws the transversal pattern, brings the whole
(non-source x all-nodes) matrix to reduced row echelon form and reads the
dual [-A^T | I] off it. gammoid_rep eliminates only the block of non-source
nodes with out-arcs and reads each sink's row of A off its pattern row.
Both must return the same representation and leave the rng in the same
state, or refuse alike, on every input and modulus.

Four parts of that construction have references of their own: the packed
leading-block solve is checked against an elimination on lists of reduced
entries, the edge-cut digraph builder against generating its arcs as a set,
the node and arc order (which fix the draw order) against sorting by repr,
and the batched pattern draws against one rng.randrange(1, p) per entry.
"""

import random

import pytest

from cutmimic.errors import RefusedError
from cutmimic.ffield import MERSENNE61, PrimeField, random_nonzeros
from cutmimic.matroids import (
    MatroidRep,
    _slot_bits,
    _solve_leading_block,
    _unpack,
    build_edge_cut_gammoid_digraph,
    gammoid_rep,
)
from cutmimic.netgraph import TerminalNetwork

from conftest import random_connected_network
from reference import (
    arcs,
    digraph_from_arcs,
    reference_edge_cut_gammoid_digraph,
)

PRIMES = (MERSENNE61, 101, 11, 3)


def reference_gammoid_rep(field, rng, dg, sources, ground, retries=8):
    p = field.p
    src = set(sources)
    non_src = [v for v in dg.nodes if v not in src]
    src_list = [v for v in dg.nodes if v in src]
    col_pos = {v: j for j, v in enumerate(non_src + src_list)}
    n_rows, n_cols = len(non_src), len(col_pos)
    for _ in range(retries):
        pat = [[0] * n_cols for _ in non_src]
        for row, u in zip(pat, non_src):
            row[col_pos[u]] = rng.randrange(1, p)
            for w in dg.in_neighbors(u):
                row[col_pos[w]] = rng.randrange(1, p)
        reduced = reference_row_reduce(p, pat)
        if reduced is None:
            continue
        # the dual [-A^T | I]: column j < n_rows is minus row j's part in
        # the source columns, then one unit column per source
        dual = [[-x % p for x in row[n_rows:]] for row in reduced]
        dual += [[int(i == j) for i in range(len(src_list))]
                 for j in range(len(src_list))]
        return MatroidRep(len(src_list), [dual[col_pos[x]] for x in ground],
                          tuple(ground), len(src_list))
    raise RefusedError("transversal pattern kept losing rank; giving up")


def reference_row_reduce(p, rows):
    """Reduced row echelon form of rows whose leading square block is
    invertible; None if it is singular."""
    work = [list(row) for row in rows]
    for r in range(len(work)):
        piv = next((i for i in range(r, len(work)) if work[i][r]), None)
        if piv is None:
            return None
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][r], -1, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][r]:
                f = work[i][r]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
    return work


def outcome(fn, p, seed, dg, sources, ground):
    """(columns, row count, ground, rank) or the refusal message, plus the
    next draw of the rng the construction consumed."""
    rng = random.Random(seed)
    try:
        rep = fn(PrimeField(p), rng, dg, sources, ground)
        result = (rep.columns, rep.rows, rep.ground, rep.rank)
    except RefusedError as exc:
        result = ("refused", str(exc))
    return result, rng.random()


def assert_same(p, seed, dg, sources, ground):
    got = outcome(gammoid_rep, p, seed, dg, sources, ground)
    want = outcome(reference_gammoid_rep, p, seed, dg, sources, ground)
    assert got == want
    return got[0][0] == "refused"


@pytest.mark.parametrize("p", PRIMES)
def test_edge_cut_gammoids_match_reference(p):
    refused = 0
    for seed in range(40):
        rng = random.Random(seed)
        net = random_connected_network(
            rng, n_lo=2, n_hi=8, extra_lo=0, extra_hi=7,
            n_terminals=rng.randint(1, 3))
        inst = build_edge_cut_gammoid_digraph(net)
        refused += assert_same(p, 1000 + seed, inst.digraph, inst.sources,
                               inst.ground)
    if p == 3:
        assert refused > 0  # the refusal path is exercised too


def cycle_with_chords(nodes, chords):
    arcs = [(nodes[i], nodes[(i + 1) % len(nodes)]) for i in range(len(nodes))]
    return digraph_from_arcs(nodes, arcs + list(chords))


HAND_BUILT = {
    # every node has an out-arc, so the whole pattern is the inner block
    "no-sinks": (cycle_with_chords("abcdef", [("a", "d"), ("e", "b")]),
                 ("a", "c"), tuple("abcdef")),
    # no sources: a square pattern, rank 0, still redrawn when singular
    "no-sources": (digraph_from_arcs(["u", "v", "w", "x"],
                                     [("u", "v"), ("v", "w"), ("w", "u"),
                                      ("v", "x")]),
                   (), ("u", "v", "w", "x")),
    "all-sources": (cycle_with_chords([1, 2, 3, 4], [(1, 3)]),
                    (1, 2, 3, 4), (4, 3, 2, 1)),
    # sinks of mixed kinds, ground a reordered subset of the nodes
    "reordered-subset": (
        digraph_from_arcs(range(9), [(0, 1), (1, 2), (2, 0), (0, 5), (1, 6),
                                     (2, 6), (3, 4), (4, 3), (3, 7), (4, 8),
                                     (2, 3)]),
        (0, 3), (8, 2, 6, 0, 5)),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
@pytest.mark.parametrize("p", PRIMES)
def test_hand_built_digraphs_match_reference(name, p):
    dg, sources, ground = HAND_BUILT[name]
    for seed in range(25):
        assert_same(p, seed, dg, sources, ground)


def test_arc_order_is_repr_order():
    digraphs = [dg for dg, _, _ in HAND_BUILT.values()]
    for seed in range(200):
        rng = random.Random(seed)
        net = random_connected_network(
            rng, n_lo=2, n_hi=12, extra_lo=0, extra_hi=20,
            n_terminals=rng.randint(1, 3))
        digraphs.append(build_edge_cut_gammoid_digraph(net).digraph)
    for dg in digraphs:
        assert arcs(dg) == tuple(sorted(arcs(dg), key=repr))


def random_multigraph(rng):
    """Up to 9 vertices and 30 edges with scattered ids (so str and int
    order differ), a share of them parallel to an earlier edge, isolated
    vertices and zero to three terminals."""
    verts = list(range(1, rng.randint(1, 9) + 1))
    edges = []
    for eid in rng.sample(range(1, 400), rng.randint(0, 30)):
        if edges and rng.random() < 0.3:
            _, u, v = rng.choice(edges)
        elif len(verts) >= 2:
            u, v = rng.sample(verts, 2)
        else:
            break
        edges.append((eid, u, v))
    terms = rng.sample(verts, rng.randint(0, min(3, len(verts))))
    return TerminalNetwork.build(verts, edges, terms)


def test_builder_matches_arc_set_reference():
    parallel = 0
    for seed in range(300):
        net = random_multigraph(random.Random(seed))
        parallel += len({(u, v) for _, u, v in net.edges}) < net.m
        got = build_edge_cut_gammoid_digraph(net)
        want = reference_edge_cut_gammoid_digraph(net)
        assert got.digraph.nodes == want.digraph.nodes
        assert arcs(got.digraph) == arcs(want.digraph)
        assert (got.sources, got.ground) == (want.sources, want.ground)
        for v in want.digraph.nodes:
            assert (got.digraph.in_neighbors(v)
                    == want.digraph.in_neighbors(v))
    assert parallel > 50


@pytest.mark.parametrize("p", PRIMES)
def test_draws_match_randrange(p):
    """The batched draws are rng.randrange(1, p) call for call: the same
    values, in batches of any size, and the same rng state after them."""
    field = PrimeField(p)
    for seed in range(20):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        for count in (0, 1, 7, 500, 3):
            want = [want_rng.randrange(1, p) for _ in range(count)]
            assert random_nonzeros(got_rng, field, count) == want
        assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("n", (0, 1, 4))
@pytest.mark.parametrize("p", (11, 251))
def test_sink_sum_at_the_slot_bound(p, n):
    """A sink fed by s = 320 sources and by all n inner nodes, each inner
    node fed by every source: the sink's packed sum holds one source entry
    per slot plus n products of two reduced entries, at n = 0 too, where
    the slots are the narrowest (16 bits at p = 11)."""
    s = 320
    srcs = [("s", i) for i in range(s)]
    inner = [("i", j) for j in range(n)]
    arcs = [(u, "y") for u in srcs + inner]
    arcs += [(u, w) for w in inner for u in srcs]
    arcs += [(inner[j], inner[(j + 1) % n]) for j in range(n) if n > 1]
    dg = digraph_from_arcs([*srcs, *inner, "y", "y2"],
                           arcs + [(srcs[0], "y2")])
    for seed in range(10):
        assert_same(p, seed, dg, srcs, dg.nodes)


def reference_solve_leading_block(p, work, n):
    """B^-1 C for work = [B | C] as lists of reduced entries."""
    for r in range(n):
        piv = next((i for i in range(r, n) if work[i][r]), None)
        if piv is None:
            return None
        work[r], work[piv] = work[piv], work[r]
        row = work[r]
        inv = pow(row[r], -1, p)
        tail = [x * inv % p for x in row[r + 1:]]
        row[r + 1:] = tail
        for i in range(r + 1, n):
            f = work[i][r]
            if f:
                wi = work[i]
                wi[r + 1:] = [(a - f * b) % p
                              for a, b in zip(wi[r + 1:], tail)]
    out = [[]] * n
    for r in range(n - 1, -1, -1):
        row = work[r]
        acc = row[n:]
        for j in range(r + 1, n):
            f = row[j]
            if f:
                acc = [a - f * b for a, b in zip(acc, out[j])]
        out[r] = [a % p for a in acc]
    return out


def packed_solve(p, rows, n, s):
    size = _slot_bits(p, n) // 8
    work = [int.from_bytes(b"".join(x.to_bytes(size, "little") for x in row),
                           "little") for row in rows]
    out = _solve_leading_block(p, work, n, s)
    return None if out is None else [_unpack(row, size, s) for row in out]


def random_system(rng, p, n, s):
    density = rng.choice((0.1, 0.3, 1.0))
    rows = [[rng.randrange(p) if rng.random() < density else 0
             for _ in range(n + s)] for _ in range(n)]
    if n >= 2 and rng.random() < 0.25:
        # a singular B: one row a multiple of another, or a zero column
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            f = rng.randrange(p)
            rows[i][:n] = [f * x % p for x in rows[j][:n]]
        else:
            for row in rows:
                row[i] = 0
    return rows


@pytest.mark.parametrize("p", (3, 11, 101, MERSENNE61))
def test_packed_solve_matches_list_solve(p):
    rng = random.Random(p)
    singular = 0
    for _ in range(300):
        n, s = rng.randint(0, 14), rng.randint(0, 6)  # n = 0, s = 0, s > n
        rows = random_system(rng, p, n, s)
        want = reference_solve_leading_block(p, [r[:] for r in rows], n)
        assert packed_solve(p, rows, n, s) == want
        singular += want is None
    assert singular > 0


@pytest.mark.parametrize("diag", (MERSENNE61 - 1, 1))
def test_packed_solve_matches_list_solve_on_full_entries(diag):
    # every entry p - 1 (singular), or p - 1 off a diagonal of ones
    p, n, s = MERSENNE61, 120, 3
    rows = [[diag if i == j else p - 1 for j in range(n + s)]
            for i in range(n)]
    want = reference_solve_leading_block(p, [r[:] for r in rows], n)
    assert (want is None) == (diag == p - 1)
    assert packed_solve(p, rows, n, s) == want


@pytest.mark.parametrize("p, n", ((11, 700), (251, 300), (65521, 300),
                                  (MERSENNE61, 150)))
def test_packed_solve_at_the_slot_bound(p, n):
    """B lower-triangular ones and C_r = -(r + 1): every pivot's reduced C
    entries are p - 1 and every lower row's lead is 1, so each pivot adds
    (p - 1)^2 to every C slot below it, the most a slot can gain. The last
    row ends near n p^2: at p = 11, 251 and 65521 that overflows slots
    sized without the bitlen(n) term (16, 24 and 40 bits). The unique
    solution is A = -1 everywhere.
    """
    s = 2
    rows = [[1] * (r + 1) + [0] * (n - r - 1) + [-(r + 1) % p] * s
            for r in range(n)]
    assert packed_solve(p, rows, n, s) == [[p - 1] * s] * n
