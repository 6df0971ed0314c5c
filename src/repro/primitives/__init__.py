"""The scheduling primitives of Exo 2 (Appendix A).

Every primitive has type ``Op = Proc × Cursor × ... → Proc`` and raises
:class:`~repro.errors.SchedulingError` when its safety conditions cannot be
established.  Composing these primitives in ordinary Python is how users build
scheduling libraries (Section 6).
"""

from .annotations import parallelize_loop, set_memory, set_precision, set_window
from .buffers import (
    bind_expr,
    delete_buffer,
    divide_dim,
    expand_dim,
    lift_alloc,
    mult_dim,
    rearrange_dim,
    resize_dim,
    reuse_buffer,
    sink_alloc,
    stage_mem,
    stage_reduction,
    unroll_buffer,
)
from .config_ops import bind_config, delete_config, write_config
from .counter import count_rewrites
from .loops import (
    add_loop,
    cut_loop,
    divide_loop,
    divide_with_recompute,
    fission,
    join_loops,
    mult_loops,
    remove_loop,
    reorder_loops,
    shift_loop,
    unroll_loop,
)
from .procs import (
    add_assertion,
    call_eqv,
    delete_pass,
    extract_subproc,
    inline,
    insert_pass,
    rename,
)
from .rearrange import commute_expr, reorder_stmts
from .scope import fuse, lift_scope, specialize
from .simplify_ops import (
    dce,
    eliminate_dead_code,
    inline_assign,
    inline_window,
    merge_writes,
    rewrite_expr,
    simplify,
)
from .unify import replace, replace_all, replace_all_stmts

__all__ = [
    # loop transformations
    "reorder_loops",
    "divide_loop",
    "divide_with_recompute",
    "mult_loops",
    "cut_loop",
    "join_loops",
    "shift_loop",
    "fission",
    "remove_loop",
    "add_loop",
    "unroll_loop",
    # code rearrangement
    "reorder_stmts",
    "commute_expr",
    # scope transformations
    "specialize",
    "fuse",
    "lift_scope",
    # multiple procedures
    "inline",
    "replace",
    "replace_all",
    "replace_all_stmts",
    "call_eqv",
    "extract_subproc",
    "rename",
    "add_assertion",
    "insert_pass",
    "delete_pass",
    # buffer transformations
    "lift_alloc",
    "sink_alloc",
    "delete_buffer",
    "reuse_buffer",
    "resize_dim",
    "expand_dim",
    "rearrange_dim",
    "divide_dim",
    "mult_dim",
    "unroll_buffer",
    "bind_expr",
    "stage_mem",
    "stage_reduction",
    # simplification
    "simplify",
    "eliminate_dead_code",
    "dce",
    "rewrite_expr",
    "merge_writes",
    "inline_window",
    "inline_assign",
    # backend-checked annotations
    "set_memory",
    "set_precision",
    "parallelize_loop",
    "set_window",
    # configuration state
    "bind_config",
    "delete_config",
    "write_config",
    # rewrite counting
    "count_rewrites",
]
