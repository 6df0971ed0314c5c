"""Every refusal of the object-code parser, by its message: the parser is the
first safety check on user input, so each rejected form is pinned here."""
from __future__ import annotations

import pytest

from repro import ParseError, proc, proc_from_source

HEAD = "def f(n: size, x: f32[n] @ DRAM, b: bool):\n"


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
