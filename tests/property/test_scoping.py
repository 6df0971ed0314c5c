"""Every string argument of a primitive resolves in the scope of its target.

After tiling, sibling scopes routinely reuse names (two ``i`` loops, two
``t`` buffers).  A string such as ``"i < 4"`` must then mean the ``i`` *around
the target*, which is also the only reading under which a serialized trace
(expressions travel as strings) replays to the procedure that was recorded.
``assert_well_scoped`` is the oracle: a procedure that reads a symbol no
enclosing binder introduces prints fine and dies with a ``KeyError`` when run.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro import (
    SchedulingError,
    add_loop,
    cut_loop,
    divide_with_recompute,
    expand_dim,
    new_config,
    proc_from_source,
    resize_dim,
    rewrite_expr,
    shift_loop,
    specialize,
    stage_mem,
    write_config,
)
from repro.api import ReplayCache, S, lift_op, replay
from repro.api.trace import state_hash
from repro.blas import LEVEL1_KERNELS, LEVEL2_KERNELS, SGEMM, level1_schedule, level2_schedule, schedule_sgemm
from repro.gemmini import make_matmul_kernel, matmul_schedule
from repro.halide import blur_schedule, make_blur, make_unsharp, unsharp_schedule
from repro.interp import run_proc
from repro.ir import nodes as N
from repro.ir.build import walk
from repro.ir.types import bool_t, index_t, int_t
from repro.machines import AVX2, AVX512


def assert_well_scoped(proc) -> None:
    """Every symbol read or written is bound by an argument, an enclosing
    loop, or an earlier ``Alloc``/``WindowStmt`` in scope."""
    root = proc._root

    def check_expr(e, scope, where):
        for n, _ in walk(e):
            if isinstance(n, (N.Read, N.WindowExpr, N.StrideExpr)):
                assert n.name in scope, f"{proc.name()}: {n.name!r} is unbound in {where}"

    def check_type(typ, scope, where):
        for dim in getattr(typ, "shape", ()):
            check_expr(dim, scope, where)

    def check_block(stmts, scope):
        scope = set(scope)  # binders of this block end with it
        for s in stmts:
            where = str(s).splitlines()[0].strip()
            if isinstance(s, (N.Assign, N.Reduce)):
                assert s.name in scope, f"{proc.name()}: {s.name!r} is unbound in {where}"
                for e in s.idx + [s.rhs]:
                    check_expr(e, scope, where)
            elif isinstance(s, N.Alloc):
                check_type(s.typ, scope, where)
                scope.add(s.name)
            elif isinstance(s, N.WindowStmt):
                check_expr(s.rhs, scope, where)
                scope.add(s.name)
            elif isinstance(s, N.For):
                check_expr(s.lo, scope, where)
                check_expr(s.hi, scope, where)
                check_block(s.body, scope | {s.iter})
            elif isinstance(s, N.If):
                check_expr(s.cond, scope, where)
                check_block(s.body, scope)
                check_block(s.orelse, scope)
            elif isinstance(s, N.Call):
                for e in s.args:
                    check_expr(e, scope, where)
            elif isinstance(s, N.WriteConfig):
                check_expr(s.rhs, scope, where)

    args = set()
    for a in root.args:
        check_type(a.typ, args, f"the type of argument {a.name.name}")
        args.add(a.name)
    for pred in root.preds:
        check_expr(pred, args, "a precondition")
    check_block(root.body, args)


# two sibling (triangular) nests that reuse every name: i, j and t
TWINS = """
def twins(n: size, A: f32[n, n] @ DRAM, B: f32[n, n] @ DRAM):
    for i in seq(0, n):
        t: f32[n]
        for j in seq(0, i + 1):
            t[j] = A[i, j]
        for j in seq(0, i + 1):
            A[i, j] = t[j] + 1.0
    for i in seq(0, n):
        t: f32[n]
        for j in seq(0, i + 1):
            t[j] = B[i, j]
        for j in seq(0, i + 1):
            B[i, j] = t[j] * 2.0
"""

CFG = new_config("scoping_cfg", [("row", index_t)])


def _twins():
    """The procedure and its *first* nest: the ``i`` loop, a read of its
    iterator, the ``t`` it allocates, and its load loop and load statement."""
    p = proc_from_source(TWINS)
    first = p.body()[0]
    i = N.Read(first._node().iter, [], index_t)
    return p, first, i, first.body()[0], first.body()[1], first.body()[1].body()[0]


def _c(v):
    return N.Const(v, int_t)


def _plus(a, b):
    return N.BinOp("+", a, b, index_t)


# name -> fn(p, first-nest handles..., use_strings) -> scheduled procedure
PRIMITIVES = {
    "specialize": lambda p, first, i, t, load, stmt, s: specialize(
        p, stmt, ["i < 4" if s else N.BinOp("<", i, _c(4), bool_t)]
    ),
    "cut_loop": lambda p, first, i, t, load, stmt, s: cut_loop(p, load, "i" if s else i),
    "shift_loop": lambda p, first, i, t, load, stmt, s: shift_loop(p, load, "i" if s else i),
    "add_loop": lambda p, first, i, t, load, stmt, s: add_loop(p, stmt, "r", "i + 1" if s else _plus(i, _c(1))),
    "divide_with_recompute": lambda p, first, i, t, load, stmt, s: divide_with_recompute(
        p, load, "i + 1" if s else _plus(i, _c(1)), 1, ["jo", "ji"]
    ),
    "resize_dim": lambda p, first, i, t, load, stmt, s: resize_dim(
        p, t, 0, "n + i" if s else _plus(N.Read(p._root.args[0].name, [], index_t), i), "i - i" if s else N.BinOp("-", i, i, index_t)
    ),
    "expand_dim": lambda p, first, i, t, load, stmt, s: expand_dim(
        p, t, "n" if s else N.Read(p._root.args[0].name, [], index_t), "i" if s else i
    ),
    "stage_mem": lambda p, first, i, t, load, stmt, s: stage_mem(
        p,
        load,
        "A[i, 0:n]"
        if s
        else N.WindowExpr(
            p._root.args[1].name,
            [N.Point(i), N.Interval(_c(0), N.Read(p._root.args[0].name, [], index_t))],
            p._root.args[1].typ,
        ),
        "row",
    ),
    "rewrite_expr": lambda p, first, i, t, load, stmt, s: rewrite_expr(
        p, stmt.rhs().idx()[0], "i + 0" if s else _plus(i, _c(0))
    ),
    "write_config": lambda p, first, i, t, load, stmt, s: write_config(p, load.before(), CFG, "row", "i" if s else i),
}


def _run(p, n=8):
    rng = np.random.default_rng(0)
    A = rng.random((n, n), dtype=np.float32)
    B = rng.random((n, n), dtype=np.float32)
    run_proc(p, n=n, A=A, B=B, backend="interp")
    return A, B


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_a_string_argument_means_the_binding_around_the_target(name):
    from_string = PRIMITIVES[name](*_twins(), True)
    from_nodes = PRIMITIVES[name](*_twins(), False)
    assert_well_scoped(from_string)
    assert_well_scoped(from_nodes)
    assert str(from_string) == str(from_nodes)
    for got, want in zip(_run(from_string), _run(from_nodes)):
        np.testing.assert_array_equal(got, want)


def test_a_name_that_is_not_in_scope_at_the_target_is_a_scheduling_error():
    p, first, i, t, load, stmt = _twins()
    with pytest.raises(SchedulingError, match="'j'"):
        specialize(p, load, ["j < 4"])  # j is bound *inside* the target, not around it
    with pytest.raises(SchedulingError, match="'t'"):
        stage_mem(p, first, "t[0:n]", "s")  # t is allocated inside the loop
    with pytest.raises(SchedulingError, match="cannot resolve"):
        cut_loop(p, load, "i +")


def test_a_precondition_names_arguments_only():
    p = proc_from_source(TWINS)
    assert "assert n > 4" in str(p.add_assertion("n > 4"))
    with pytest.raises(SchedulingError, match="'i'"):
        p.add_assertion("i < 4")


TWO_LOOPS = """
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0
    for i in seq(0, n):
        y[i] = 2.0
"""


def _run_xy(p, backend, n=8):
    x, y = np.zeros(n, np.float32), np.zeros(n, np.float32)
    run_proc(p, n=n, x=x, y=y, backend=backend)
    return x, y


@pytest.mark.parametrize("backend", ["interp", "compiled", "c"])
def test_specialize_between_two_loops_of_one_name_runs_on_every_engine(backend):
    if backend == "c":
        from repro.backend.native import find_cc

        if find_cc() is None:
            pytest.skip("no C compiler")
    p = proc_from_source(TWO_LOOPS)
    q = specialize(p, p.find("x[_] = _"), ["i < 4"])
    assert_well_scoped(q)
    for got, want in zip(_run_xy(q, backend), _run_xy(p, backend)):
        np.testing.assert_array_equal(got, want)


def test_a_replayed_condition_binds_as_the_recorded_one_did():
    """The condition is recorded as an IR node and travels as its surface
    syntax; name-based state hashes cannot tell the two ``i`` apart, so only
    scope-exact resolution makes the replayed procedure the recorded one."""
    p = proc_from_source(TWO_LOOPS)
    i = p.body()[0]._node().iter
    cond = N.BinOp("<", N.Read(i, [], index_t), N.Const(4, int_t), bool_t)
    cold, trace = S.specialize(p.find("x[_] = _"), [cond]).apply_traced(p)
    again = replay(trace.to_json(), p)
    assert state_hash(again) == state_hash(cold)
    for q in (cold, again):
        assert_well_scoped(q)
    for got, want in zip(_run_xy(again, "interp"), _run_xy(cold, "interp")):
        np.testing.assert_array_equal(got, want)


_sgemm = lift_op(lambda p, machine: schedule_sgemm(machine), "schedule_sgemm")
MACHINES = {"AVX2": AVX2, "AVX512": AVX512}


def _precision(kernel: str) -> str:
    return "f64" if kernel.startswith("d") else "f32"


def _catalogue():
    """``(label, procedure, schedule)`` for every kernel x target of the
    BLAS / Halide / Gemmini library."""
    for mname, m in MACHINES.items():
        for k, p in LEVEL1_KERNELS.items():
            yield f"{k}@{mname}", p, level1_schedule("i", _precision(k), m)
        for k, p in LEVEL2_KERNELS.items():
            yield f"{k}@{mname}", p, level2_schedule("i", _precision(k), m)
        yield f"sgemm@{mname}", SGEMM, _sgemm(m)
        yield f"blur@{mname}", make_blur(), blur_schedule(m)
        yield f"unsharp@{mname}", make_unsharp(), unsharp_schedule(m)
    yield "blur@default", make_blur(), blur_schedule()
    yield "unsharp@default", make_unsharp(), unsharp_schedule()
    for K in (64, 512):
        yield f"gemmini[K={K}]@Gemmini", make_matmul_kernel(K=K), matmul_schedule()


def test_every_catalogue_schedule_is_well_scoped_cold_and_replayed():
    count = 0
    for label, p, sched in _catalogue():
        cold, trace = sched.apply_traced(p, {}, cache=ReplayCache())
        again = replay(trace.to_json(), p)  # checks the recorded final hash itself
        for q in (cold, again):
            assert_well_scoped(q)
        assert str(again) == str(cold), label
        count += 1
    assert count >= 107


NESTED = """
def nested(x: f32[8] @ DRAM):
    for i in seq(0, 8):
        for i in seq(0, 2):
            x[i] += 1.0
"""


def test_a_name_bound_to_a_shadowed_symbol_gets_its_own_artifact_key(tmp_path, monkeypatch):
    """The native artifact key names a procedure by its print, and the print
    cannot say which of two nested ``i`` a read means.  A read of the outer
    one is well scoped, so the key must tell the two apart itself."""
    from repro.backend import native
    from repro.core.procedure import Procedure
    from repro.ir.build import with_fields

    inner_read = proc_from_source(NESTED)
    outer, = inner_read._root.body
    inner, = outer.body
    stmt, = inner.body
    rebound = with_fields(stmt, idx=[with_fields(stmt.idx[0], name=outer.iter)])
    outer_read = Procedure(
        with_fields(inner_read._root, body=[with_fields(outer, body=[with_fields(inner, body=[rebound])])])
    )
    assert str(outer_read) == str(inner_read) and state_hash(outer_read) == state_hash(inner_read)
    for p in (inner_read, outer_read):
        assert_well_scoped(p)
    assert native.artifact_key(inner_read, cc="cc") != native.artifact_key(outer_read, cc="cc")
    # they are different programs
    runs = []
    for p in (inner_read, outer_read):
        x = np.zeros(8, np.float32)
        run_proc(p, x=x, backend="interp")
        runs.append(x.tolist())
    assert runs == [[8, 8, 0, 0, 0, 0, 0, 0], [2] * 8]
    if native.find_cc() is not None:  # and each runs its own C
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        native.clear_memo()
        for p, want in zip((inner_read, outer_read), runs):
            x = np.zeros(8, np.float32)
            native.compile_native(p)({"x": x})
            assert x.tolist() == want
        native.clear_memo()
