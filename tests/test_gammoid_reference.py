"""gammoid_rep against a reference copy of its full-reduction construction.

The reference draws the transversal pattern, brings the whole
(non-source x all-nodes) matrix to reduced row echelon form and reads the
dual [-A^T | I] off it. gammoid_rep eliminates only the block of non-source
nodes with out-arcs and reads each sink's row of A off its pattern row.
Both must return the same representation and leave the rng in the same
state, or refuse alike, on every input and modulus.
"""

import random

import pytest

from cutmimic.errors import RefusedError
from cutmimic.ffield import (
    MERSENNE61,
    PrimeField,
    PrimeFieldMatrix,
    random_nonzero,
)
from cutmimic.matroids import (
    Digraph,
    MatroidRep,
    build_edge_cut_gammoid_digraph,
    gammoid_rep,
)

from conftest import random_connected_network

PRIMES = (MERSENNE61, 101, 11, 3)


def reference_gammoid_rep(field, rng, dg, sources, ground, retries=8):
    src = set(sources)
    non_src = [v for v in dg.nodes if v not in src]
    src_list = [v for v in dg.nodes if v in src]
    col_order = non_src + src_list
    col_pos = {v: j for j, v in enumerate(col_order)}
    n_rows, n_cols = len(non_src), len(col_order)
    for _ in range(retries):
        pat = PrimeFieldMatrix(field, n_rows, n_cols)
        for i, u in enumerate(non_src):
            base = i * n_cols
            pat.data[base + col_pos[u]] = random_nonzero(rng, field)
            for w in dg.in_neighbors(u):
                pat.data[base + col_pos[w]] = random_nonzero(rng, field)
        reduced = reference_row_reduce(pat)
        if reduced is None:
            continue
        dual = PrimeFieldMatrix(field, len(src_list), n_cols)
        for i in range(len(src_list)):
            base = i * n_cols
            for j in range(n_rows):
                dual.data[base + j] = (-reduced.entry(j, n_rows + i)) % field.p
            dual.data[base + n_rows + i] = 1
        idxs = [col_pos[x] for x in ground]
        return MatroidRep(dual.submatrix_columns(idxs), tuple(ground),
                          len(src_list))
    raise RefusedError("transversal pattern kept losing rank; giving up")


def reference_row_reduce(m):
    p = m.field.p
    work = [m.row(i) for i in range(m.rows)]
    for r in range(m.rows):
        piv = next((i for i in range(r, m.rows) if work[i][r]), None)
        if piv is None:
            return None
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][r], -1, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(m.rows):
            if i != r and work[i][r]:
                f = work[i][r]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
    return PrimeFieldMatrix(m.field, m.rows, m.cols,
                            [x for row in work for x in row])


def outcome(fn, p, seed, dg, sources, ground):
    """(matrix data, ground, rank) or the refusal message, plus the next
    draw of the rng the construction consumed."""
    rng = random.Random(seed)
    try:
        rep = fn(PrimeField(p), rng, dg, sources, ground)
        result = (rep.matrix.data, rep.matrix.rows, rep.ground, rep.rank)
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
    return Digraph(nodes, arcs + list(chords))


HAND_BUILT = {
    # every node has an out-arc, so the whole pattern is the inner block
    "no-sinks": (cycle_with_chords("abcdef", [("a", "d"), ("e", "b")]),
                 ("a", "c"), tuple("abcdef")),
    # no sources: a square pattern, rank 0, still redrawn when singular
    "no-sources": (Digraph(["u", "v", "w", "x"],
                           [("u", "v"), ("v", "w"), ("w", "u"), ("v", "x")]),
                   (), ("u", "v", "w", "x")),
    "all-sources": (cycle_with_chords([1, 2, 3, 4], [(1, 3)]),
                    (1, 2, 3, 4), (4, 3, 2, 1)),
    # sinks of mixed kinds, ground a reordered subset of the nodes
    "reordered-subset": (
        Digraph(range(9), [(0, 1), (1, 2), (2, 0), (0, 5), (1, 6), (2, 6),
                           (3, 4), (4, 3), (3, 7), (4, 8), (2, 3)]),
        (0, 3), (8, 2, 6, 0, 5)),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
@pytest.mark.parametrize("p", PRIMES)
def test_hand_built_digraphs_match_reference(name, p):
    dg, sources, ground = HAND_BUILT[name]
    for seed in range(25):
        assert_same(p, seed, dg, sources, ground)
