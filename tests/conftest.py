"""Shared fixtures: small object-code kernels used across the test suite."""

from __future__ import annotations

import pytest

from repro import obs, proc
from repro.lang import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def _fresh_counters():
    """Every test starts with every process-wide counter at zero and an
    empty event ring, so exact-count assertions never see another test."""
    obs.reset()


@proc
def _gemv(M: size, N: size, A: f32[M, N] @ DRAM, x: f32[N] @ DRAM, y: f32[M] @ DRAM):
    assert M % 8 == 0
    assert N % 8 == 0
    for i in seq(0, M):
        for j in seq(0, N):
            y[i] += A[i, j] * x[j]


@proc
def _axpy(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] += a * x[i]


@proc
def _dot(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, result: f32[1] @ DRAM):
    for i in seq(0, n):
        result[0] += x[i] * y[i]


@proc
def _copy2d(M: size, N: size, src: f32[M, N] @ DRAM, dst: f32[M, N] @ DRAM):
    for i in seq(0, M):
        for j in seq(0, N):
            dst[i, j] = src[i, j]


@proc
def _stages(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    tmp: f32[n] @ DRAM
    for i in seq(0, n):
        tmp[i] = 2.0 * x[i]
    for i in seq(0, n):
        y[i] = tmp[i] + 1.0


@pytest.fixture
def gemv():
    return _gemv


@pytest.fixture
def axpy():
    return _axpy


@pytest.fixture
def dot():
    return _dot


@pytest.fixture
def copy2d():
    return _copy2d


@pytest.fixture
def stages():
    return _stages


@pytest.fixture
def emits(monkeypatch):
    """The names of the procedures the native backend lowered to C (one
    entry per ``emit_unit`` call ``repro.backend.native`` makes: one per
    build, none for a key or a cache hit)."""
    from repro.backend import native

    calls = []
    real = native.emit_unit

    def counting(root, options=None):
        calls.append(root.name)
        return real(root, options)

    monkeypatch.setattr(native, "emit_unit", counting)
    return calls


@pytest.fixture
def redeclare():
    """``redeclare(p, name, *shape)``: ``p`` with the buffer ``name`` (an
    argument or an allocation) declared with ``shape``, each extent in source
    form, or as a scalar of its base type when ``shape`` is empty.  The parser
    refuses an access whose rank is not its buffer's, so a test of the checks
    behind it parses the program at the access's rank and then declares the
    buffer at another."""
    from repro.core.procedure import Procedure
    from repro.frontend.parser import parse_expr_fragment
    from repro.ir import nodes as N
    from repro.ir.build import map_stmts, with_fields
    from repro.ir.types import TensorType

    def redeclare(p, name, *shape):
        root = p._root

        def retyped(d):
            if d.name.name != name:
                return d
            if not shape:
                return with_fields(d, typ=d.typ.basetype())
            extents = [parse_expr_fragment(str(e), root) for e in shape]
            return with_fields(d, typ=TensorType(d.typ.basetype(), extents, d.typ.is_window))

        body = map_stmts(root.body, lambda s: retyped(s) if isinstance(s, N.Alloc) else s)
        return Procedure(with_fields(root, args=[retyped(a) for a in root.args], body=body))

    return redeclare


@pytest.fixture
def retarget():
    """``retarget(p, name, it)``: ``p`` with every write to the buffer
    ``name`` in a loop's body made a write to the enclosing loop iterator
    ``it``.  The parser refuses an assignment to a loop iterator, so a test of
    the checks behind it parses a write to a stand-in buffer and then
    retargets it."""
    from repro.core.procedure import Procedure
    from repro.ir import nodes as N
    from repro.ir.build import with_fields
    from repro.ir.types import index_t

    def retarget(p, name, it):
        def block(stmts, iters):
            out = []
            for s in stmts:
                if isinstance(s, N.For):
                    s = with_fields(s, body=block(s.body, {**iters, s.iter.name: s.iter}))
                elif isinstance(s, (N.Assign, N.Reduce)) and s.name.name == name and it in iters:
                    s = with_fields(s, name=iters[it], idx=[], typ=index_t)
                out.append(s)
            return out

        return Procedure(with_fields(p._root, body=block(p._root.body, {})))

    return retarget


@pytest.fixture
def rewindow():
    """``rewindow(p, window)``: ``p`` with the window its last statement, a
    call, passes replaced by ``window`` in source form, resolved where the
    call stands.  The parser refuses a window whose rank is not the callee
    parameter's, so a test of the checks behind it parses a call with a
    window of the right rank and then passes another."""
    from repro.core.procedure import Procedure
    from repro.frontend.parser import parse_expr_fragment
    from repro.ir import nodes as N
    from repro.ir.build import with_fields

    def rewindow(p, window):
        root = p._root
        call = root.body[-1]
        w = parse_expr_fragment(window, root, [("body", len(root.body) - 1)])
        args = [w if isinstance(a, N.WindowExpr) else a for a in call.args]
        return Procedure(with_fields(root, body=root.body[:-1] + [with_fields(call, args=args)]))

    return rewindow
