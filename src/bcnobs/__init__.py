"""Observability analysis for Boolean control networks in algebraic form.

The pipeline: compile a network into logical matrices (stp), simulate it
(bcn), fold confusable state pairs into a weighted pair graph (pairgraph),
determinise reachability into partial automata (automata), decide four
notions of observability from completeness and cycle structure
(observability), and cross-check everything by brute-force simulation
(oracle).  bcnio and cli handle documents, DOT output, reports and the
command line.
"""

from .automata import (
    Dfa,
    Lasso,
    find_lasso,
    is_complete,
    shortest_undefined_word,
    subset_automaton,
    vertex_automaton,
)
from .bcn import Bcn, bcn_from_columns, output, step
from .bcnio import (
    BcnDocument,
    DocumentError,
    build_report,
    document_to_bcn,
    emit_dot,
    gen_random_bcn,
    load_bcn,
    load_document,
    parse_bcn,
    parse_document,
    serialize_document,
)
from .observability import (
    DECIDERS,
    AutomatonStat,
    ImplicationReport,
    ObservabilityType,
    Verdict,
    decide_type_i,
    decide_type_ii,
    decide_type_iii,
    decide_type_iv,
    exact_oracle_horizon,
    implication_matrix,
    type_automata,
)
from .oracle import (
    OracleVerdict,
    brute_force,
    confusable_pairs,
    distinguishes,
    verify_witness,
)
from .pairgraph import PairGraph, PairVertex, non_diagonal_vertices
from .pairgraph import build as build_pair_graph
from .stp import (
    LogicalMatrix,
    bool_tuple_index,
    from_truth_table,
    index_to_bool_tuple,
    reorder_columns,
)

__all__ = [
    "AutomatonStat",
    "Bcn",
    "DECIDERS",
    "BcnDocument",
    "Dfa",
    "DocumentError",
    "ImplicationReport",
    "Lasso",
    "LogicalMatrix",
    "ObservabilityType",
    "OracleVerdict",
    "PairGraph",
    "PairVertex",
    "Verdict",
    "bcn_from_columns",
    "bool_tuple_index",
    "brute_force",
    "build_pair_graph",
    "build_report",
    "confusable_pairs",
    "decide_type_i",
    "decide_type_ii",
    "decide_type_iii",
    "decide_type_iv",
    "distinguishes",
    "document_to_bcn",
    "emit_dot",
    "find_lasso",
    "exact_oracle_horizon",
    "from_truth_table",
    "gen_random_bcn",
    "implication_matrix",
    "index_to_bool_tuple",
    "is_complete",
    "load_bcn",
    "load_document",
    "non_diagonal_vertices",
    "output",
    "parse_bcn",
    "parse_document",
    "reorder_columns",
    "serialize_document",
    "shortest_undefined_word",
    "step",
    "subset_automaton",
    "type_automata",
    "verify_witness",
    "vertex_automaton",
]
