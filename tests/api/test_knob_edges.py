"""Knob edge cases the autotuner leans on (ISSUE 5 satellite).

The tuner sweeps knob environments through ``Schedule.apply`` with a shared
replay cache; these tests pin the api-level contracts that make that safe:
configuration mistakes surface as :class:`KnobError` out of *any* combinator
nesting, and cache accounting across a sweep is exact.
"""

from __future__ import annotations

import pytest

from repro.api import KnobError, ReplayCache, S, knob, lift_op, seq, try_, try_op
from repro.primitives import divide_loop
from repro.stdlib import repeat
from repro.stdlib.elevate import innermost_loops


def _divide(k):
    return S.divide_loop("j", k, ["jo", "ji"], perfect=True)


def test_knob_error_escapes_every_recovery_combinator(gemv):
    unbound = _divide(knob("mystery", choices=(4, 8)))

    def misbound(p):
        return unbound.apply(p, mystery=3)  # 3 is outside the choices

    for wrapped, knobs in (
        (try_(unbound), {"mystery": 3}),
        (seq(S.simplify(), try_(unbound)), {"mystery": 3}),
        (lift_op(lambda p: try_op(p, misbound), "lenient")(), {}),
        (lift_op(repeat(misbound), "repeated")(), {}),
    ):
        with pytest.raises(KnobError):
            wrapped.apply(gemv, knobs)


def _divide_innermost(p, w):
    """Divide every innermost loop by ``w``, skipping the loops that refuse."""
    for loop in [c for top in p.body() for c in innermost_loops(top)]:
        p = try_op(p, divide_loop, p.forward(loop), w, ["o", "v"], perfect=True)
    return p


def test_knob_error_escapes_traversals(gemv):
    # a traversal skips sites where its op *fails to schedule*; a mis-bound
    # knob is not a site failure and must propagate
    traverse = lift_op(_divide_innermost)
    assert traverse(knob("w", 8)).apply(gemv).find_loop("o")  # sanity: the traversal itself is fine
    with pytest.raises(KnobError):
        traverse(knob("w", 8, choices=(8,))).apply(gemv, w=16)
    with pytest.raises(KnobError):
        traverse(knob("which")).apply(gemv)


def test_sweep_cache_accounting_is_exact(gemv):
    cache = ReplayCache()
    sched = _divide(knob("w", 8, choices=(2, 4, 8)))
    for w in (2, 4, 8):  # cold sweep: three distinct fingerprints
        sched.apply(gemv, {"w": w}, cache=cache)
    assert cache.stats() == {"hits": 0, "misses": 3, "entries": 3}
    for w in (2, 4, 8):  # warm sweep: every candidate hits
        sched.apply(gemv, {"w": w}, cache=cache)
    assert cache.stats() == {"hits": 3, "misses": 3, "entries": 3}
    # a fresh value outside the cache misses without disturbing the rest
    with pytest.raises(KnobError):
        sched.apply(gemv, {"w": 16}, cache=cache)
    assert cache.stats()["entries"] == 3


def test_sweep_over_single_point_and_empty_spaces(gemv):
    # the degenerate sweeps the tuner generates: one point, or none (defaults)
    sched = _divide(knob("w", 8))
    cache = ReplayCache()
    only = sched.apply(gemv, {"w": 8}, cache=cache)
    default = sched.apply(gemv, cache=cache)  # empty env == defaults
    assert str(only) == str(default)
    assert cache.hits == 1  # identical fingerprints: the default apply hit
