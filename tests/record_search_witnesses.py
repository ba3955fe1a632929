"""Record the separation witnesses of both routes into fixtures.

    PYTHONPATH=src python tests/record_search_witnesses.py

writes two fixtures over the same 30 seeded networks from the
acceptance-corpus generator (n <= 14, terminal capacity <= 8; 12 with 3
terminals, 14 with 4 and 4 with 5):
- tests/fixtures/search_witnesses.json, the branch-and-bound search: the
  (value, witness) of `min_multiway_cut` on every partition with at least
  3 blocks and of `min_multicut` on every request set of at least 2 pairs;
- tests/fixtures/flow_witnesses.json, the max-flow route: the same on
  every two-block partition and every single request.
A request set is stored as a bit mask over the terminal pairs in
lexicographic order. The networks are stored with the answers, so
`test_oracles` pins both routes without depending on the generator.
Re-record only when a change means to alter a witness, and say which and
why.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from cutmimic.netgraph import CutRequests, all_partitions
from cutmimic.oracles import min_multicut, min_multiway_cut

from conftest import random_connected_network

FIXTURE = Path(__file__).parent / "fixtures" / "search_witnesses.json"
FLOW_FIXTURE = Path(__file__).parent / "fixtures" / "flow_witnesses.json"
COUNTS = {3: 12, 4: 14, 5: 4}  # networks per terminal count


def corpus_network(seed: int, t: int):
    rng = random.Random(seed)
    return random_connected_network(
        rng, n_lo=max(4, t + 1), n_hi=14, extra_lo=0,
        extra_hi=5 if t <= 3 else 2, n_terminals=t, cap_max=8)


def request_masks(terminals, flow: bool = False) -> list[int]:
    """Every set of at least 2 terminal pairs, as a bit mask, ascending;
    with `flow`, every single pair instead."""
    n_pairs = len(terminals) * (len(terminals) - 1) // 2
    sizes = (1,) if flow else range(2, n_pairs + 1)
    return [m for m in range(1 << n_pairs) if bin(m).count("1") in sizes]


def routed_partitions(terminals, flow: bool = False) -> list:
    """Every partition with at least 3 blocks, in text order; with `flow`,
    every two-block partition instead."""
    sizes = (2,) if flow else range(3, len(terminals) + 1)
    return sorted((p for p in all_partitions(terminals)
                   if len(p.blocks) in sizes), key=lambda p: p.to_text())


def masked_pairs(terminals, mask: int) -> list[tuple[int, int]]:
    pairs = itertools.combinations(sorted(terminals), 2)
    return [p for i, p in enumerate(pairs) if mask >> i & 1]


def record_case(seed: int, t: int, flow: bool) -> dict:
    net = corpus_network(seed, t)
    terms = sorted(net.terminals)
    multiway = []
    for part in routed_partitions(terms, flow):
        value, witness = min_multiway_cut(net, part)
        multiway.append([part.to_text(), value, list(witness)])
    multicut = []
    for mask in request_masks(terms, flow):
        req = CutRequests.of(terms, masked_pairs(terms, mask))
        value, witness = min_multicut(net, req)
        multicut.append([mask, value, list(witness)])
    return {
        "seed": seed,
        "vertices": list(net.vertices),
        "edges": [list(e) for e in net.edges],
        "terminals": terms,
        "multiway": multiway,
        "multicut": multicut,
    }


def main() -> None:
    for path, flow in ((FIXTURE, False), (FLOW_FIXTURE, True)):
        cases = [record_case(1000 * t + i, t, flow)
                 for t, count in COUNTS.items() for i in range(count)]
        with open(path, "w") as fh:
            fh.write("[\n" + ",\n".join(
                json.dumps(case, separators=(",", ":")) for case in cases)
                + "\n]\n")


if __name__ == "__main__":
    main()
