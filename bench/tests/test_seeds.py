"""Same seed => same inputs; another seed => other inputs."""

import pytest

from bench.clock import CalibratedClock
from bench.workloads import WORKLOADS


def op_list(name, seed):
    workload = WORKLOADS[name](seed, sandbox=None, clock=CalibratedClock({"cpu": lambda: 1.0}))
    workload.generate()
    return workload.op_list()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_decides_the_operation_list(name):
    first, again, other = op_list(name, 7), op_list(name, 7), op_list(name, 8)
    assert first == again and len(first) > 0
    assert first != other
    classes = {c.name for c in WORKLOADS[name].classes}
    assert {cls for cls, _ in first} <= classes
