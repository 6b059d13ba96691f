"""Graded modal mu-calculus model checking and compilation to recurrent GNNs."""

from .formula import (
    Formula,
    FormulaError,
    ParseError,
    SubformulaIndex,
    index,
    parse,
    to_text,
    well_name,
)
from .graph import (
    GraphError,
    LabeledGraph,
    disjoint_union,
    graph_from_json,
    graph_to_json,
    load_graph,
    make_graph,
)
from .semantics import evaluate, model_check_stable
from .counting import (
    Configuration,
    ExtendedConfiguration,
    SafeguardExceeded,
    check_coherent,
    etrans_step,
    initial_configuration,
    partial_trans2,
    partial_trans3,
    run_counting,
    run_extended,
    trans1,
    trans2,
    trans3,
)
from .gnn import (
    RecurrentGnn,
    compile_formula,
    decode,
    encode,
    load_gnn,
    run_gnn,
    save_gnn,
)
from .bisim import color_refinement

__all__ = [name for name in dir() if not name.startswith("_")]
