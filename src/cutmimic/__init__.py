"""Multicut-covering sets and multicut-mimicking networks for undirected
terminal networks, with brute-force oracles for desk-scale verification.
"""

from .errors import (
    FieldTooSmallError,
    InputError,
    InternalError,
    MarkingRefusedError,
    RefusedError,
    TerminalContractionError,
)
from .ffield import MERSENNE61, PrimeField, PrimeFieldMatrix, random_prime, rank
from .frontend import (
    MulticutInstance,
    MultiwayCutInstance,
    cli,
    kernelize_multicut,
    kernelize_multiway_cut,
    multicut_gadget,
)
from .marker import MarkParams, MarkResult, covering_condition_holds, mark
from .matroids import (
    LayeredMatroid,
    MatroidRep,
    build_edge_cut_gammoid_digraph,
    edge_cut_gammoid,
    gammoid_rep,
    graphic_rep,
    uniform_rep,
)
from .netgraph import (
    CutRequests,
    Partition,
    TerminalNetwork,
    all_partitions,
    format_network,
    format_requests,
    parse_network,
    parse_requests,
    t_capacity,
    terminal_capacity,
)
from .oracles import (
    CutValueTable,
    closest_min_cut,
    cut_covering_set,
    cut_value_table,
    essential_edges,
    min_multicut,
    min_multiway_cut,
    two_approx_multicut_cover,
    verify_mimicking,
)
from .reducer import (
    ReduceParams,
    ReductionTrace,
    format_trace,
    mimicking_network,
    multicut_covering_set,
    parse_trace,
    replay_trace,
)
from .repset import (
    CandidateFamily,
    representative_set_general,
    representative_set_product,
)
from .tester import TesterVerdict, exact_tester, heuristic_tester

__version__ = "0.1.0"

__all__ = [
    "CandidateFamily",
    "CutRequests",
    "CutValueTable",
    "FieldTooSmallError",
    "InputError",
    "InternalError",
    "LayeredMatroid",
    "MERSENNE61",
    "MarkParams",
    "MarkResult",
    "MarkingRefusedError",
    "MatroidRep",
    "MulticutInstance",
    "MultiwayCutInstance",
    "Partition",
    "PrimeField",
    "PrimeFieldMatrix",
    "ReduceParams",
    "ReductionTrace",
    "RefusedError",
    "TerminalContractionError",
    "TerminalNetwork",
    "TesterVerdict",
    "all_partitions",
    "build_edge_cut_gammoid_digraph",
    "cli",
    "closest_min_cut",
    "covering_condition_holds",
    "cut_covering_set",
    "cut_value_table",
    "edge_cut_gammoid",
    "essential_edges",
    "exact_tester",
    "format_network",
    "format_requests",
    "format_trace",
    "gammoid_rep",
    "graphic_rep",
    "heuristic_tester",
    "kernelize_multicut",
    "kernelize_multiway_cut",
    "mark",
    "mimicking_network",
    "min_multicut",
    "min_multiway_cut",
    "multicut_covering_set",
    "multicut_gadget",
    "parse_network",
    "parse_requests",
    "parse_trace",
    "random_prime",
    "rank",
    "replay_trace",
    "representative_set_general",
    "representative_set_product",
    "t_capacity",
    "terminal_capacity",
    "two_approx_multicut_cover",
    "uniform_rep",
    "verify_mimicking",
]
