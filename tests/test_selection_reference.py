"""Greedy selection, both representative-set forms and the graphic layer
against reference copies of their earlier constructions.

The references reduce the candidate vectors, scan them (optionally in a
given order) against a lead-sorted pivot list reduced over the full length,
take the general form's minors over an echelon row basis, and project the
graphic layer by a full product with the signed incidence columns, checking
its rank by the reference elimination. The code under test keeps every one
of those results: the same kept indices, the same kept sets, the same
columns, the same rng state after the draws and the same refusals, at every
modulus.
"""

import random
from itertools import combinations
from math import comb

import pytest

from cutmimic.errors import InputError, InternalError, RefusedError
from cutmimic.ffield import (
    MERSENNE61,
    PrimeField,
    kronecker_column,
    select_independent_columns,
)
from cutmimic.marker import MarkParams, build_marking_matroid
from cutmimic.matroids import MatroidRep, graphic_rep, signed_incidence
from cutmimic.netgraph import TerminalNetwork, components
from cutmimic.repset import representative_set_product

from conftest import random_connected_network
from reference import _minor, rank, representative_set_general, transpose

PRIMES = (MERSENNE61, 101, 11, 3)


# -- references ---------------------------------------------------------------


def reference_select(p, vectors, order=None):
    idxs = list(range(len(vectors))) if order is None else list(order)
    pivots = []  # (lead position, vector, inv(lead))
    kept = []
    for j in idxs:
        v = [x % p for x in vectors[j]]
        for pos, pvec, pinv in pivots:
            f = v[pos]
            if f:
                scale = f * pinv % p
                v = [(a - scale * b) % p for a, b in zip(v, pvec)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        kept.append(j)
        pivots.append((lead, v, pow(v[lead], -1, p)))
        pivots.sort(key=lambda t: t[0])
    return kept


def reference_row_basis(p, rows):
    work = [[x % p for x in row] for row in rows]
    width = len(work[0]) if work else 0
    out = []
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
                work[i] = [(lead * a - f * b) % p
                           for a, b in zip(work[i], work[r])]
        out.append(work[r])
        r += 1
        if r == len(work):
            break
    return out


def reference_general(field, columns, height, family, s, r=None):
    basis = reference_row_basis(field.p, transpose(columns, height))
    rho = len(basis)
    if r is None:
        r = max(rho - s, 0)
    if rho > r + s:
        raise InputError(f"rank {rho} exceeds r+s = {r + s}")
    if not family:
        return []
    vectors = []
    row_sets = list(combinations(range(rho), s))
    basis_cols = transpose(basis, len(columns))
    for t in family:
        cols = [basis_cols[j] for j in t]
        vec = [_minor(field, cols, rows) for rows in row_sets]
        if not any(vec):
            raise InputError(f"dependent candidate set {t!r}")
        vectors.append(vec)
    keep = reference_select(field.p, vectors)
    bound = comb(r + s, s)
    if len(keep) > bound:
        raise InternalError(
            f"{len(keep)} survivors exceed C(r+s, s) = {bound}")
    return [family[i] for i in keep]


def reference_product(field, family):
    tensors = [kronecker_column(field, cols) for cols in family]
    return reference_select(field.p, tensors)


def reference_graphic_rep(field, rng, net, max_rank, retries=8):
    p = field.p
    inc = signed_incidence(field, net)
    full_rank = net.n - len(components(net))
    r = min(max_rank, full_rank)
    ground = net.edge_ids()
    if r == full_rank:
        return MatroidRep(net.n, inc, ground, r)
    for _ in range(retries):
        proj = [[rng.randrange(p) for _ in range(net.n)] for _ in range(r)]
        out = [[sum(a * b for a, b in zip(prow, col)) % p for prow in proj]
               for col in inc]
        if rank(field, out) == r:
            return MatroidRep(r, out, ground, r)
    raise RefusedError("graphic truncation kept losing rank; giving up")


# -- inputs -------------------------------------------------------------------


def random_vectors(rng, p):
    """Vectors from a random low-rank span, mixed with zero vectors, repeats
    and scalar multiples of earlier ones; some entries left unreduced."""
    dim = rng.randint(0, 6)
    span = [[rng.randrange(p) for _ in range(dim)]
            for _ in range(rng.randint(0, dim))]
    out = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.15 or not span:
            v = [0] * dim
        elif kind < 0.35 and out:
            c = rng.randrange(1, p)
            v = [c * x for x in rng.choice(out)]
        else:
            coef = [rng.randrange(p) for _ in span]
            v = [sum(c * b[i] for c, b in zip(coef, span))
                 for i in range(dim)]
        if rng.random() < 0.2:
            v = [x + p * rng.randint(-2, 2) for x in v]
        out.append(v)
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except (InputError, RefusedError, InternalError) as exc:
        return type(exc), str(exc)


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_selection_matches_reference(p):
    field = PrimeField(p)
    rng = random.Random(p)
    for _ in range(150):
        vectors = random_vectors(rng, p)
        got = select_independent_columns(field, vectors)
        if not vectors:
            assert got == []
            continue
        assert got == reference_select(p, vectors)
        # the old order= scan is the new scan of the permuted list
        perm = list(range(len(vectors)))
        rng.shuffle(perm)
        got = select_independent_columns(field, [vectors[j] for j in perm])
        assert [perm[i] for i in got] == reference_select(p, vectors, perm)


def test_selection_edge_inputs():
    assert select_independent_columns(PrimeField(3), []) == []
    assert select_independent_columns(PrimeField(3), [[], []]) == []
    assert select_independent_columns(PrimeField(3), [[0, 0], [3, 6]]) == []
    assert select_independent_columns(PrimeField(7), [[1, 2], [8, -5]]) == [0]
    with pytest.raises(InputError, match="ragged"):
        select_independent_columns(PrimeField(7), [[1, 2], [1]])


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("p", PRIMES)
def test_general_form_matches_reference(p, s):
    field = PrimeField(p)
    rng = random.Random(10 * p + s)
    kept_some = 0
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(s, 7)
        span = [[rng.randrange(p) for _ in range(cols)]
                for _ in range(rng.randint(1, rows))]
        data = []
        for _ in range(rows):
            coef = [rng.randrange(p) for _ in span]
            data += [sum(c * b[j] for c, b in zip(coef, span))
                     for j in range(cols)]
        columns = [[x % p for x in data[j::cols]] for j in range(cols)]
        tuples = list(combinations(range(cols), s))
        rng.shuffle(tuples)
        # mostly independent candidates, so that selection has work to do
        if rng.random() < 0.8:
            tuples = [t for t in tuples
                      if rank(field, [columns[j] for j in t]) == s]
        tuples = tuples[:12] + tuples[:rng.randint(0, 2)]  # with repeats
        r = None if rng.random() < 0.8 else rng.randint(0, 3)
        got = outcome(representative_set_general, field, columns, tuples, s,
                      r)
        assert got == outcome(reference_general, field, columns, rows,
                              tuples, s, r)
        kept_some += isinstance(got, list) and len(got) > 0
    assert kept_some > 0


# p = 3 is too small for the uniform layer's evaluation points
@pytest.mark.parametrize("p", PRIMES[:3])
def test_product_form_matches_reference(p):
    field = PrimeField(p)
    for seed in range(6):
        rng = random.Random(seed)
        net = random_connected_network(rng, n_lo=3, n_hi=6, extra_hi=3)
        layers = build_marking_matroid(
            net, MarkParams(c=2, i0=2, seed=seed, field=field))
        family = []
        for e in net.edge_ids():
            cols = [layer.column_of(x)
                    for layer, x in zip(layers, (("zp", e), e, e))]
            if all(map(any, cols)):
                family.append(cols)
        assert (representative_set_product(field, family)
                == reference_product(field, family))


def graphic_outcome(fn, p, seed, net, max_rank, retries):
    rng = random.Random(seed)
    try:
        rep = fn(PrimeField(p), rng, net, max_rank, retries)
        result = (rep.columns, rep.rows, rep.ground, rep.rank)
    except RefusedError as exc:
        result = ("refused", str(exc))
    return result, rng.random()


@pytest.mark.parametrize("p", PRIMES)
def test_graphic_rep_matches_reference(p):
    refused = 0
    for seed in range(40):
        rng = random.Random(seed)
        net = random_connected_network(rng, n_lo=2, n_hi=8, extra_hi=6)
        if seed % 4 == 0:  # a second component lowers the full rank
            v, e = net.fresh_vertex_id(), net.fresh_edge_id()
            net = TerminalNetwork.build(
                net.vertices + (v, v + 1, v + 2),
                net.edges + ((e, v, v + 1), (e + 1, v + 1, v + 2)),
                net.terminals)
        full_rank = net.n - len(components(net))
        # any rank cap; then one just below the full rank with a single
        # draw, which loses rank most often at p = 3
        for max_rank, retries in ((rng.randint(0, net.n), rng.choice((1, 8))),
                                  (max(full_rank - 1, 0), 1)):
            got = graphic_outcome(graphic_rep, p, 500 + seed, net, max_rank,
                                  retries)
            want = graphic_outcome(reference_graphic_rep, p, 500 + seed, net,
                                   max_rank, retries)
            assert got == want
            refused += got[0][0] == "refused"
    if p == 3:
        assert refused > 0  # the refusal path is exercised too
