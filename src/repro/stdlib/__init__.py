"""The scheduling standard library ("std-lib" + "ins-lib" in Figure 9a).

Everything in this package is *user-level* code: it is built by composing the
scheduling primitives of :mod:`repro.primitives`, exactly as a performance
engineer would grow their own library on top of Exo 2.
"""

from .elevate import (
    bottomup,
    fission_after,
    hoist_stmt,
    hoist_stmt_loop,
    innermost_loops,
    lrn,
    remove_parent_loop,
    reorder_before,
    topdown,
)
from .higher_order import (
    Pred,
    apply,
    filter_c,
    is_invalid,
    lift,
    nav,
    reduce,
    reframe,
    repeat,
    savec,
    seq,
    try_else,
)
from .inspection import (
    Bounds,
    get_enclosing_loop,
    get_inner_loop,
    get_reused_vector,
    infer_bounds,
    is_loop,
    loop_bounds_const,
    loop_nest,
)
from .tiling import (
    auto_stage_mem,
    cleanup,
    general_tile2D,
    hoist_from_loop,
    interleave_loop,
    round_loop,
    tile2D,
    tile_loops_bottom_up,
    tilenD,
    unroll_and_jam,
)
from .vectorize import (
    CSE,
    LICM,
    fission_into_singles,
    fma_rule,
    parallelize_reductions,
    stage_compute,
    vectorize,
)

__all__ = [
    # higher-order combinators
    "lift", "seq", "repeat", "try_else", "reduce", "apply", "filter_c",
    "nav", "savec", "reframe", "Pred", "is_invalid",
    # ELEVATE reproduction
    "lrn", "topdown", "bottomup", "innermost_loops",
    "reorder_before", "remove_parent_loop", "fission_after",
    "hoist_stmt", "hoist_stmt_loop",
    # inspection library
    "Bounds", "infer_bounds", "get_inner_loop", "get_enclosing_loop",
    "get_reused_vector", "is_loop", "loop_bounds_const", "loop_nest",
    # tiling / staging
    "tile2D", "tilenD", "general_tile2D", "tile_loops_bottom_up",
    "round_loop", "unroll_and_jam", "interleave_loop", "auto_stage_mem",
    "hoist_from_loop", "cleanup",
    # vectorisation
    "vectorize", "fma_rule", "stage_compute", "fission_into_singles",
    "parallelize_reductions", "CSE", "LICM",
]
