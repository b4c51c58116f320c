"""Graphs of hyperbinary expansions and Stern-sequence algorithms."""

from .blocks import (
    PlacedGraph,
    decompose,
    embed,
    is_checking_path,
    maximal_checking_paths_from,
    place_map,
    place_preserving_map,
    place_preserving_through_path,
)
from .graphs import (
    Arc,
    HbGraph,
    Label,
    SizeLimitError,
    build_graph,
    counts,
    descendants_subgraph,
    enumerate_expansions,
    export_dot,
    export_json,
    single_step_reductions,
)
from .iso import (
    BudgetExceeded,
    IsoWitness,
    a10_automorphism,
    iso_closed_form,
    labeled_iso,
    verify_witness,
)
from .stern import (
    a,
    b_and_a,
    b_algorithm1,
    b_block_formula,
    b_matrix,
    b_matrix_blocks,
    b_recursive,
    c,
    c_matrix,
    short_expansion_count,
    v,
    v1_all,
    v_level_set_even,
)
from .words import (
    LengthClass,
    binary_expansion,
    even_core,
    is_hyperbinary,
    length_class,
    minimal_expansion,
    render,
    shortlex_cmp,
    shortlex_key,
    value,
    weight,
)

__version__ = "0.1.0"
