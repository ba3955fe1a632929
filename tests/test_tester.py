"""Expansion testers: exact exhaustive search cross-checked by an independent
subset loop, heuristic sweeps, witness contract enforcement.
"""

import itertools
import random

import pytest

from cutmimic import tester as tester_mod
from cutmimic.errors import InputError, RefusedError
from cutmimic.netgraph import TerminalNetwork, neighborhood, t_capacity
from cutmimic.tester import DEFAULT_EXACT_CEILING, exact_tester, heuristic_tester

from conftest import path_network, random_connected_network


def sparse_candidates(net, c):
    """Independent enumeration of every witness the tester may return."""
    verts = net.vertices
    out = []
    for size in range(1, net.n // 2 + 1):
        for S in itertools.combinations(verts, size):
            sset = set(S)
            if set(neighborhood(net, sset)) | sset == set(verts):
                continue
            cap = t_capacity(net, sset)
            if cap ** c < size:
                out.append((cap, size, tuple(sorted(S))))
    return out


def k4(terminals=(1, 2, 3, 4)):
    return TerminalNetwork.build(
        [1, 2, 3, 4],
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 2, 3), (5, 2, 4), (6, 3, 4)],
        terminals)


def test_path_of_ten_is_sparse():
    net = path_network(9)  # 10 vertices
    v = exact_tester(net, c=2)
    assert v.is_sparse
    assert v.cap ** 2 < v.size
    assert v.cap == 2 and v.size == 5


def test_k4_dense():
    assert exact_tester(k4(), c=2).kind == "dense"


def test_single_vertex_dense():
    net = TerminalNetwork.build([5], [], [5])
    assert exact_tester(net, c=2).kind == "dense"


def test_dense_verdict_is_exhaustive():
    """Dense means the independent loop finds no sparse candidate at all."""
    rng = random.Random(6)
    for _ in range(30):
        net = random_connected_network(rng, n_hi=8, n_terminals=2)
        c = rng.randint(1, 3)
        v = exact_tester(net, c)
        found = sparse_candidates(net, c)
        if v.kind == "dense":
            assert found == []
        else:
            assert found, "tester returned a witness the sweep cannot see"


def test_exact_minimizes_objective():
    rng = random.Random(7)
    for _ in range(30):
        net = random_connected_network(rng, n_hi=8, n_terminals=2)
        c = rng.randint(1, 3)
        v = exact_tester(net, c)
        if v.kind == "dense":
            continue
        best = min((cap ** c - size, size, S)
                   for cap, size, S in sparse_candidates(net, c))
        assert (v.cap ** c - v.size, v.size, v.witness) == best


def test_exact_deterministic():
    net = path_network(9)
    assert exact_tester(net, 2) == exact_tester(net, 2)


def test_exact_ceiling():
    net = path_network(25)
    with pytest.raises(RefusedError):
        exact_tester(net, 2)
    assert DEFAULT_EXACT_CEILING == 20
    with pytest.raises(RefusedError):
        exact_tester(path_network(9), 2, ceiling=5)
    assert exact_tester(path_network(9), 2, ceiling=10).is_sparse


def test_exact_validates_c():
    with pytest.raises(InputError):
        exact_tester(path_network(3), 0)


def test_heuristic_long_path():
    v = heuristic_tester(path_network(9), c=2)
    assert v.is_sparse and v.verified
    assert v.cap ** 2 < v.size


def test_heuristic_clique_unverified_dense():
    v = heuristic_tester(k4(), c=2)
    assert v.kind == "dense" and not v.verified


def test_heuristic_witnesses_always_valid():
    rng = random.Random(8)
    for _ in range(40):
        net = random_connected_network(rng, n_hi=12, n_terminals=2)
        c = rng.randint(1, 3)
        v = heuristic_tester(net, c)
        if v.kind == "dense":
            continue
        sset = set(v.witness)
        assert 2 * len(sset) <= net.n
        assert set(neighborhood(net, sset)) | sset != set(net.vertices)
        assert t_capacity(net, sset) ** c < len(sset)
        assert v.cap == t_capacity(net, sset) and v.size == len(sset)


def test_heuristic_agrees_with_exact_on_sparse_existence():
    """The heuristic may miss witnesses but must never invent one."""
    rng = random.Random(9)
    for _ in range(30):
        net = random_connected_network(rng, n_hi=9, n_terminals=2)
        hv = heuristic_tester(net, 2)
        if hv.is_sparse:
            assert exact_tester(net, 2).is_sparse


class TestVerdictContract:
    def test_dense_carries_no_witness(self):
        with pytest.raises(InputError):
            tester_mod.TesterVerdict("dense", witness=(1,))

    def test_sparse_needs_consistent_fields(self):
        with pytest.raises(InputError):
            tester_mod.TesterVerdict("sparse", witness=(), cap=1, size=0)
        with pytest.raises(InputError):
            tester_mod.TesterVerdict("sparse", witness=(1, 2), cap=1, size=3)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            tester_mod.TesterVerdict("maybe")
