"""The hand-written NumPy oracles of the large sizes agree with the tree
interpreter on the unscheduled procedure (the reference of the small sizes)."""

import numpy as np
import pytest

from bench import kernels as K
from bench import surface as R


@pytest.mark.parametrize("name, sizes", [
    ("blur", {"H": 32, "W": 256}),
    ("sgemm", {"M": 12, "N": 16, "K": 8}),
])
def test_numpy_oracle_matches_the_interpreter(name, sizes):
    kernel = K.RUN_KERNELS[name]
    args = kernel.make_args(np.random.default_rng(3), sizes)
    by_numpy = K.expected_run(kernel, args)
    by_interp = K.copy_args(args)
    R.run_proc(R.proc_from_source(kernel.pair().source), backend="interp", **by_interp)
    assert K.mismatch(by_numpy, by_interp, rtol=1e-5, atol=1e-6) is None


def test_mismatch_names_the_argument_and_catches_nan():
    want = {"n": 4, "x": np.ones(4, np.float32), "y": np.ones(4, np.float32)}
    got = K.copy_args(want)
    assert K.mismatch(got, want, 1e-6, 1e-6) is None
    got["y"][2] = 1.5
    assert "'y'" in K.mismatch(got, want, 1e-6, 1e-6)
    got["y"][2] = np.nan
    assert "'y'" in K.mismatch(got, want, 1e-6, 1e-6)


def test_check_sizes_keep_small_and_cut_large():
    saxpy = K.RUN_KERNELS["saxpy"]
    assert saxpy.check_sizes(saxpy.small) == saxpy.small
    assert saxpy.check_sizes(saxpy.large) == {"n": saxpy.large["n"] // 8}
    blur = K.RUN_KERNELS["blur"]
    cut = blur.check_sizes(blur.large)
    assert cut["H"] % 32 == 0 and cut["W"] % 256 == 0  # still legal for the schedule
