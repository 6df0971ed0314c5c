"""Every refusal of the object-code parser, by its message: the parser is the
first safety check on user input, so each rejected form is pinned here."""
from __future__ import annotations

import numpy as np
import pytest

from repro import ParseError, proc, proc_from_source

HEAD = "def f(n: size, x: f32[n] @ DRAM, b: bool):\n"

# Only a tensor has elements.  Before the parser refused these, every engine
# ran them and failed at run time: a raw TypeError for the element, an
# InterpError for the window.
SUBSCRIPTS_OF_A_SCALAR = [
    ("def f(a: f32, v: f32[4] @ DRAM):\n    v[0] = a[0]\n", "f:2: 'a' is not a tensor: it cannot be indexed"),
    ("def f(a: f32, v: f32[4] @ DRAM):\n    b = a[0:1]\n    v[0] = b[0]\n",
     "f:2: 'a' is not a tensor: it cannot be windowed"),
]


# A scalar allocation is a 0-d buffer: it is read and written whole, and its
# one window is `t[0:1]`.  Past the parser, C refused the element ("indexed
# read of / write to non-tensor t"), the NumPy engine too ("indexed read of /
# write to scalar"; a loop was kept in Python, "indexed access to cell t"),
# and every engine leaked a raw IndexError on the wider window.
SCALAR_ALLOCATIONS = [
    ("def f(x: f32[4] @ DRAM):\n    t: f32 @ DRAM\n    x[0] = t[0]\n", "f:3: 't' has rank 0, accessed with rank 1"),
    ("def f(x: f32[4] @ DRAM):\n    t: f32 @ DRAM\n    t[0] = 1.0\n", "f:3: 't' has rank 0, accessed with rank 1"),
    ("def f(x: f32[4] @ DRAM):\n    t: f32 @ DRAM\n    w = t[0:1, 0:1]\n",
     "f:3: 't' is a scalar: it can be windowed only as t\\[0:1\\]"),
    ("def f(x: f32[4] @ DRAM):\n    t: f32 @ DRAM\n    w = t[0:2]\n",
     "f:3: 't' is a scalar: it can be windowed only as t\\[0:1\\]"),
    ("def f(x: f32[4] @ DRAM):\n    t: f32 @ DRAM\n    w = t[0, 0:1]\n",
     "f:3: 't' is a scalar: it can be windowed only as t\\[0:1\\]"),
]

# Subscripts, window and loop bounds, extents and size / index actuals hold
# control values: an index, a size or an int literal.  Past the parser, the
# interpreter wrote the element a float or data subscript truncated to, and
# the NumPy engine and C raised on it.
INTEGER_POSITIONS = [
    ("def f(n: size, x: f32[8] @ DRAM):\n    x[n / 2.0] = 5.0\n", "f:2: 'n / 2.0' is f64, not an index expression"),
    ("def f(n: size, x: f32[8] @ DRAM):\n    x[x[1]] = 5.0\n", "f:2: 'x\\[1\\]' is f32, not an index expression"),
    ("def f(n: size, k: i32[n] @ DRAM, x: f32[n] @ DRAM):\n    for i in seq(0, n - 4):\n        x[i + k[0]] = 1.0\n",
     "f:3: 'i \\+ k\\[0\\]' is i32, not an index expression"),
    ("def f(n: size, k: i32[n] @ DRAM):\n    w = k[k[0]:k[0] + 1]\n", "f:2: 'k\\[0\\]' is i32, not an index expression"),
    ("def f(n: size, x: f32[n] @ DRAM):\n    for i in seq(0, x[0]):\n        pass\n", "f:2: 'x\\[0\\]' is f32, not an index expression"),
    ("def f(n: size, a: f32):\n    t: f32[a] @ DRAM\n", "f:2: 'a' is f32, not an index expression"),
    ("def f(n: size, x: f32[n] @ DRAM, b: bool):\n    x[b] = 1.0\n", "f:2: 'b' is bool, not an index expression"),
    # an extern is typed by its result, not by its first argument
    ("def f(n: size, x: f32[8] @ DRAM):\n    x[sqrt(n)] = 5.0\n", "f:2: 'sqrt\\(n\\)' is f64, not an index expression"),
    ("def f(n: size, x: f32[8] @ DRAM):\n    x[select(n, 2, x[0], 1.0)] = 5.0\n",
     "f:2: 'select\\(n, 2, x\\[0\\], 1.0\\)' is f32, not an index expression"),
]

# An extern takes as many scalars as it was registered with.  Past the
# parser, every engine leaked a raw TypeError or IndexError.
EXTERN_CALLS = [
    ("def f(x: f32[8] @ DRAM):\n    x[0] = fmax(x[0])\n", "f:2: fmax takes 2 argument\\(s\\), 1 given"),
    ("def f(x: f32[8] @ DRAM):\n    x[0] = sqrt(x)\n", "f:2: sqrt takes scalar arguments, not a tensor"),
]

# stride(x, d) reads a stride of a tensor's dimension.  Past the parser, the
# interpreter leaked a raw IndexError on a dimension past the rank, and every
# engine gave 1 for a scalar.
STRIDES = [
    ("def f(x: f32[8] @ DRAM):\n    x[0] = stride(x, 3)\n", "f:2: stride\\(\\) dimension 3 of 'x', which has rank 1"),
    ("def f(r: [f32][8] @ DRAM):\n    r[0] = stride(r, 1)\n", "f:2: stride\\(\\) dimension 1 of 'r', which has rank 1"),
    ("def f(a: f32, x: f32[8] @ DRAM):\n    x[0] = stride(a, 0)\n", "f:2: stride\\(\\) of 'a', which is not a tensor"),
    ("def f(x: f32[4] @ DRAM):\n    t: f32 @ DRAM\n    x[0] = stride(t, 0)\n", "f:3: stride\\(\\) of 't', which is not a tensor"),
]


@pytest.mark.parametrize("src, message", [
    ("def f(x: f32[4] @ NOWHERE):\n    pass\n", "f:1: unknown memory space 'NOWHERE'"),
    ("def f(x: f32[4] @ m.VEC):\n    pass\n", "f:1: expected a memory space after '@'"),
    ("def f(x: f32[4] @ 3):\n    pass\n", "f:1: expected a memory space after '@'"),
    ("def f(x: float[4]):\n    pass\n", "f:1: unknown type 'float'"),
    ("def f(x: [f32, f64][4]):\n    pass\n", "f:1: window base type must be a single scalar type"),
    ("def f(x: size[4]):\n    pass\n", "f:1: tensor base type must be numeric"),
    ("def f(x: 3):\n    pass\n", "f:1: cannot parse type annotation"),
    ("def f(x: f32[4] @ DRAM, n=3):\n    pass\n", "procedure arguments cannot have defaults or be variadic"),
    (HEAD + "    x[0] = 'a'\n", "f:2: unsupported literal 'a'"),
    (HEAD + "    x[0] = x[1] @ x[2]\n", "f:2: '@' only allowed in type annotations"),
    (HEAD + "    x[0] = x[1] ** 2.0\n", "f:2: unsupported operator Pow"),
    (HEAD + "    x[0] = not b\n", "f:2: unsupported unary operator"),
    (HEAD + "    if 0 < n < 4:\n        pass\n", "f:2: chained comparisons are not supported"),
    (HEAD + "    if n is 4:\n        pass\n", "f:2: unsupported comparison operator"),
    (HEAD + "    x[0] = x.real\n", "f:2: unsupported attribute expression"),
    (HEAD + "    x[0] = [1.0]\n", "f:2: unsupported expression List"),
    (HEAD + "    x[0] = (x)[0][1]\n", "f:2: only simple names can be indexed"),
    (HEAD + "    w = x[0:]\n", "f:2: windows require explicit upper bounds"),
    (HEAD + "    x[0] = x.copy(1)\n", "f:2: unsupported call expression"),
    (HEAD + "    x[0] = stride(x[0], 0)\n", "f:2: stride\\(\\) takes a buffer name and a dimension"),
    (HEAD + "    x[0] = stride(z, 0)\n", "f:2: undefined buffer 'z'"),
    (HEAD + "    x[0] = stride(x, n)\n", "f:2: stride\\(\\) dimension must be a constant"),
    (HEAD + "    x[0] = frobnicate(x[1])\n", "f:2: unknown function 'frobnicate' in expression"),
    (HEAD + "    x[0] = 1.0\n    assert n > 2\n", "f:3: assert statements are only allowed at the top of a procedure"),
    (HEAD + "    while n > 2:\n        pass\n", "f:2: unsupported statement While"),
    (HEAD + "    for (i, j) in seq(0, n):\n        pass\n", "f:2: loop target must be a simple name"),
    (HEAD + "    for i in seq(0, n, 2):\n        pass\n", "f:2: seq\\(\\)/par\\(\\) take exactly \\(lo, hi\\)"),
    (HEAD + "    t: f32 = 1.0\n", "f:2: allocations cannot have initial values"),
    (HEAD + "    x[0]: f32\n", "f:2: allocation target must be a simple name"),
    (HEAD + "    t = 1.0\n", "f:2: assignment to undeclared variable 't'"),
    (HEAD + "    x[0:2] = 1.0\n", "f:2: cannot assign to a window expression"),
    # a window is a buffer, never a value (past the parser, every engine
    # fails at run time with NumPy's "setting an array element with a sequence")
    (HEAD + "    x[0] = x[0:2]\n", "f:2: a window is not a value: name it"),
    (HEAD + "    x[0] += x[0:2] * 2.0\n", "f:2: a window is not a value"),
    (HEAD + "    x[0] = fabs(x[1:2])\n", "f:2: a window is not a value"),
    (HEAD + "    for i in seq(0, n):\n        if x[i:n] < 1.0:\n            pass\n", "f:3: a window is not a value"),
    # an access has its buffer's rank (past the parser, the C backend wrote
    # v[i, 1] of a 1-D v past its end)
    ("def f(v: f32[4] @ DRAM):\n    for i in seq(0, 4):\n        v[i, 1] = 2.0\n",
     "f:3: 'v' has rank 1, accessed with rank 2"),
    (HEAD + "    x[0] = x[0, n]\n", "f:2: 'x' has rank 1, accessed with rank 2"),
    ("def f(A: f32[4, 4] @ DRAM):\n    A[1] = 0.0\n", "f:2: 'A' has rank 2, accessed with rank 1"),
    ("def f(A: f32[4, 4] @ DRAM):\n    w = A[0:2]\n", "f:2: 'A' has rank 2, accessed with rank 1"),
    ("def f(A: f32[4, 4] @ DRAM):\n    w = A[0, 0:2, 1]\n", "f:2: 'A' has rank 2, accessed with rank 3"),
    ("def f(v: [f32][4] @ DRAM):\n    v[0, 0] += 1.0\n", "f:2: 'v' has rank 1, accessed with rank 2"),
    *SUBSCRIPTS_OF_A_SCALAR,
    (HEAD + "    for i in seq(0, n):\n        x[i] = x[i[0]]\n", "f:3: 'i' is not a tensor: it cannot be indexed"),
    # a register has its allocation's rank too (past the parser, C refused
    # "vector register v accessed / windowed with wrong rank", and the NumPy
    # engine kept the loop in Python)
    (HEAD + "    v: f32[8, 2] @ DRAM\n    v[0] = x[0]\n", "f:3: 'v' has rank 2, accessed with rank 1"),
    ("def f(y: [f32][4, 4] @ DRAM):\n    w = y[0:4]\n", "f:2: 'y' has rank 2, accessed with rank 1"),
    *SCALAR_ALLOCATIONS,
    *INTEGER_POSITIONS,
    *EXTERN_CALLS,
    *STRIDES,
    # loop iterators and size / index / bool arguments are control values
    (HEAD + "    for i in seq(0, n):\n        x[i] += 1.0\n        i += 1\n", "f:4: cannot assign to loop iterator 'i'"),
    ("def f(k: index, x: f32[4] @ DRAM):\n    k = 0\n", "f:2: cannot assign to index argument 'k'"),
    (HEAD + "    b = False\n", "f:2: cannot assign to bool argument 'b'"),
    (HEAD + "    n[0] = 1.0\n", "f:2: cannot assign to size argument 'n'"),
    (HEAD + "    x.real = 1.0\n", "f:2: unsupported assignment target"),
    (HEAD + "    x[0] = x[1] = 1.0\n", "f:2: multiple assignment targets are not supported"),
    (HEAD + "    x.copy()\n", "f:2: unsupported call"),
    (HEAD + "    fabs(x[0])\n", "f:2: extern 'fabs' cannot be used as a statement"),
    (HEAD + "    nothing(x)\n", "f:2: call to unknown procedure 'nothing'"),
    ("x = 1\n", "no function definition found in source"),
])
def test_the_parser_refuses(src, message):
    with pytest.raises(ParseError, match=message):
        proc_from_source(src)


# Before the parser refused them, the engines disagreed on these programs:
# the interpreter wrote the element the assignment picked, the NumPy engine
# and C failed on a float index, or all three quietly used the new size.
WRITES_TO_CONTROL_VALUES = [
    ("def f(v: f32[4] @ DRAM):\n    for i in seq(0, 4):\n        i = 2.0\n        v[i] = 1.0\n",
     {}, "f:3: cannot assign to loop iterator 'i'"),
    ("def f(n: size, v: f32[4] @ DRAM):\n    n = 3\n    v[n] = 1.0\n",
     {"n": 1}, "f:2: cannot assign to size argument 'n'"),
]


@pytest.mark.parametrize("backend", ["interp", "compiled", "c"])
@pytest.mark.parametrize("src, sizes, message", WRITES_TO_CONTROL_VALUES)
def test_no_engine_runs_an_assignment_to_a_control_value(src, sizes, message, backend):
    from repro.interp import run_proc

    v = np.zeros(4, dtype=np.float32)
    with pytest.raises(ParseError, match=message):
        run_proc(proc_from_source(src), v=v, backend=backend, **sizes)
    assert not v.any()


@pytest.mark.parametrize("backend", ["interp", "compiled", "c"])
@pytest.mark.parametrize("src, message", SUBSCRIPTS_OF_A_SCALAR)
def test_no_engine_runs_a_subscript_of_a_scalar(src, message, backend):
    from repro.interp import run_proc

    v = np.zeros(4, dtype=np.float32)
    with pytest.raises(ParseError, match=message):
        run_proc(proc_from_source(src), a=2.0, v=v, backend=backend)
    assert not v.any()


def test_a_fragment_cannot_subscript_a_scalar_argument_or_an_iterator():
    from repro.frontend.parser import parse_expr_fragment

    p = proc_from_source("def f(a: f32, v: f32[4] @ DRAM):\n    for i in seq(0, 4):\n        v[i] = a\n")
    in_loop = (("body", 0), ("body", 0))
    with pytest.raises(ParseError, match="'a' is not a tensor: it cannot be windowed"):
        parse_expr_fragment("a[0:1]", p._root)
    with pytest.raises(ParseError, match="'i' is not a tensor: it cannot be indexed"):
        parse_expr_fragment("v[i[0]]", p._root, in_loop)
    assert parse_expr_fragment("v[i]", p._root, in_loop).idx[0].name is p._root.body[0].iter


def test_a_call_passes_each_tensor_with_its_parameter_rank():
    callee = proc_from_source(
        "def callee(n: size, x: [f32][n] @ DRAM):\n    for i in seq(0, n):\n        x[i] = 0.0\n"
    )
    head = "def g(A: f32[4, 8] @ DRAM):\n"
    with pytest.raises(ParseError, match="g:2: argument 'x' of callee has rank 1, passed rank 2"):
        proc_from_source(head + "    callee(8, A[0:2, 0:8])\n", {"callee": callee})
    with pytest.raises(ParseError, match="g:2: argument 'x' of callee has rank 1, passed rank 2"):
        proc_from_source(head + "    callee(8, A)\n", {"callee": callee})
    assert "callee(8, A[1, 0:8])" in str(proc_from_source(head + "    callee(8, A[1, 0:8])\n", {"callee": callee}))


def test_a_call_passes_each_scalar_with_its_parameter_kind_and_each_tensor_as_a_buffer():
    # past the parser, the NumPy engine refused a value bound to a tensor
    # parameter ("value passed as tensor argument"), and every engine failed
    # on a scalar allocation passed whole, a 0-d array where the callee
    # indexes one element
    g = proc_from_source("def g(n: size, a: f32, x: [f32][1] @ DRAM):\n    x[0] = a\n")
    h = proc_from_source("def h(c: bool, x: [f32][1] @ DRAM):\n    if c:\n        x[0] = 1.0\n")
    head = "def f(m: size, b: f32, k: i32, y: f32[4] @ DRAM):\n"
    cases = [
        ("    g(b, b, y[0:1])\n", "f:2: argument 'n' of g is size, passed f32"),
        ("    g(m, m, y[0:1])\n", "f:2: argument 'a' of g is f32, passed size"),
        ("    g(m, 2, y[0:1])\n", "f:2: argument 'a' of g is f32, passed int"),
        ("    g(m, k, y[0:1])\n", "f:2: argument 'a' of g is f32, passed i32"),
        ("    g(y, b, y[0:1])\n", "f:2: argument 'n' of g is size, passed f32\\[4\\]"),
        ("    h(m, y[0:1])\n", "f:2: argument 'c' of h is bool, passed size"),
        ("    g(m, b, 3.0)\n", "f:2: argument 'x' of g is a tensor: pass a buffer or a window, not a value"),
        ("    t: f32 @ DRAM\n    g(m, b, t)\n", "f:3: argument 'x' of g is a tensor: pass a buffer or a window, not a value"),
    ]
    for body, message in cases:
        with pytest.raises(ParseError, match=message):
            proc_from_source(head + body, {"g": g, "h": h})
    ok = proc_from_source(
        head + "    t: f32 @ DRAM\n    g(m / 2, b * 2.0, t[0:1])\n    g(m, sqrt(m), t[0:1])\n    h(m > 2, y[1:2])\n",
        {"g": g, "h": h},
    )
    assert "g(m / 2, b * 2.0, t[0:1])\n    g(m, sqrt(m), t[0:1])" in str(ok)


def test_a_configuration_field_cannot_be_reduced_into():
    from repro import new_config
    from repro.ir.types import index_t

    cfg = new_config("parse_cfg", [("k", index_t)])
    with pytest.raises(ParseError, match="f:2: cannot reduce into configuration state"):
        proc_from_source(HEAD + "    parse_cfg.k += 1\n", {"parse_cfg": cfg})


def test_docstrings_string_statements_and_bool_and_global_constants_parse():
    p = proc_from_source(
        HEAD
        + '    """what f does"""\n'
        + "    if b == True:\n"
        + '        "a note"\n'
        + "        x[0] = SCALE\n",
        {"SCALE": 2.5},
    )
    assert str(p).endswith("    if b == True:\n        x[0] = 2.5")


def test_a_decorated_function_sees_its_closure():
    scale = 2.0

    @proc
    def f(x: f32[8] @ DRAM):  # noqa: F821 - object code
        for i in seq(0, 8):  # noqa: F821
            x[i] = scale

    assert "x[i] = 2.0" in str(f)


def test_a_closure_name_bound_after_decoration_is_undefined():
    with pytest.raises(ParseError, match="g:3: undefined variable 'later'"):
        @proc
        def g(x: f32[8] @ DRAM):  # noqa: F821 - object code
            x[0] = later  # noqa: F821
    later = 1.0  # an empty cell while g was parsed
    assert later == 1.0


def test_a_fragment_resolves_a_window_named_before_it():
    from repro import new_config, write_config
    from repro.ir.types import f32

    cfg = new_config("frag_cfg", [("v", f32)])
    p = proc_from_source(
        "def f(x: f32[8] @ DRAM):\n"
        "    w = x[2:6]\n"
        "    x[0] = w[1]\n"
    )
    q = write_config(p, p.body()[1].after(), cfg, "v", "w[3]")
    assert str(q).endswith("    x[0] = w[1]\n    frag_cfg.v = w[3]")


def test_a_memory_named_by_attribute_and_a_base_type_named_by_string():
    from repro.machines import AVX2

    p = proc_from_source("def f(x: 'f32'[8] @ machine.VEC):\n    x[0] = 1.0\n", {"VEC": AVX2.mem_type})
    assert str(p).startswith("def f(x: f32[8] @ VEC_AVX2):")
