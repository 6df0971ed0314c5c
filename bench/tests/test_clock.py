"""The calibrated clock, driven by a scripted probe."""

import pytest

from bench.clock import REFERENCE_MS, CalibratedClock

REFERENCE_SPIN_MS = REFERENCE_MS["cpu"]


def scripted(values):
    it = iter(values)
    return {"cpu": lambda: next(it)}


def test_lap_is_rescaled_by_the_probes_around_it():
    clock = CalibratedClock(scripted([REFERENCE_SPIN_MS, 2 * REFERENCE_SPIN_MS * 2 - REFERENCE_SPIN_MS]))
    clock.lap("a", 1.0)
    ((tag, calibrated),) = clock.settle(force=True)
    # mean probe is twice the reference: the machine ran at half speed
    assert tag == "a" and calibrated == pytest.approx(0.5)
    assert clock.drift_share == 1.0  # the two probes disagree by far more than 10 %


def test_steady_probes_leave_time_alone_and_report_no_drift():
    clock = CalibratedClock(scripted([REFERENCE_SPIN_MS] * 3))
    clock.lap("a", 0.25)
    clock.lap("b", 0.75)
    assert [c for _, c in clock.settle(force=True)] == pytest.approx([0.25, 0.75])
    assert clock.drift_share == 0.0 and clock.raw_s == clock.calibrated_s == pytest.approx(1.0)


def test_settle_waits_for_the_probe_interval():
    clock = CalibratedClock(scripted([REFERENCE_SPIN_MS] * 2))
    clock.lap("a", 1e-6)
    assert clock.settle() == []  # a probe was taken a moment ago
    assert len(clock.settle(force=True)) == 1


def test_time_with_splits_is_rescaled_piecewise():
    fast, slow = REFERENCE_SPIN_MS, 2 * REFERENCE_SPIN_MS
    clock = CalibratedClock(scripted([fast, fast, fast, slow, slow]))
    scales = []
    clock.on_settle = scales.append

    def work():
        clock.split()  # first segment: fast..fast
        clock.split()  # second: fast..slow
        return "done"  # third: slow..slow

    result, seconds = clock.time(work)
    assert result == "done" and seconds > 0
    assert scales[1:] == pytest.approx([1.0, 1 / 1.5, 0.5])


def test_each_lap_is_rescaled_by_the_probe_of_its_resource():
    probes = {"cpu": lambda: REFERENCE_MS["cpu"], "memory": lambda: 2 * REFERENCE_MS["memory"]}
    clock = CalibratedClock(probes)
    clock.lap("python", 1.0)
    clock.lap("stream", 1.0, "memory")
    assert dict(clock.settle(force=True)) == pytest.approx({"python": 1.0, "stream": 0.5})
