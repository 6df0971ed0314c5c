"""Every workload end to end at ``--quick`` sizes: metrics present, outputs
verified, exact counts repeatable, spans written."""

import json

import pytest

from bench import surface as R
from bench.env import load_spec
from bench.runner import run_workload
from bench.workloads import WORKLOADS

needs_cc = pytest.mark.skipif(R.find_cc() is None, reason="no C compiler")
PARAMS = [
    pytest.param(name, marks=needs_cc) if cls.needs_cc else name for name, cls in WORKLOADS.items()
]
EXACT = ("primitives.rewrites_total", "ir.atomic_edits_total", "ir.lines_after", "api.trace_bytes")


@pytest.mark.parametrize("name", PARAMS)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = run_workload(name, seed=5, seconds=0.5, trace=False, quick=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in load_spec()["end_to_end"]]
    for m in result["metrics"].values():
        assert m["value"] > 0  # the driver divides by medians
    json.dumps(result)  # the record is plain data


@pytest.mark.parametrize("name", PARAMS)
def test_traced_run_reports_every_per_layer_metric_and_writes_spans(name, tmp_path):
    path = tmp_path / "spans.jsonl"
    result = run_workload(name, seed=5, seconds=0.5, trace=True, quick=True, spans_path=str(path))
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in load_spec()["per_layer"]]
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows and {r["workload"] for r in rows} == {name}
    assert any(r["parent_id"] is not None for r in rows)
    assert result["metrics"]["trace.spans"]["value"] == len(rows)
    assert result["metrics"]["trace.unattributed_share"]["value"] <= 0.10


def test_every_listed_per_layer_metric_is_produced_by_some_workload():
    """(and none is produced that is not listed: the runner refuses those)"""
    if R.find_cc() is None:
        pytest.skip("no C compiler")
    produced = set()
    for name in WORKLOADS:
        result = run_workload(name, seed=5, seconds=0.5, trace=True, quick=True)
        produced |= {k for k, m in result["metrics"].items() if m["value"] != 0}
    listed = {m["name"] for m in load_spec()["per_layer"]}
    # quick runs use the first two kernels only; exact zeros are legitimate
    quick_absent = {n for n in listed if n.rsplit(".", 1)[-1] in
                    ("sscal", "sgemv_n", "sgemv_t", "sger", "sgemm", "blur")}
    may_be_zero = {"backend.omp_pragmas", "interp.fallback_stmts", "service.errors", "service.coalesced",
                   "bench.failed_share", "backend.omp_speedup_2t", "interp.par_speedup_2t",
                   "backend.sgemm_c_gflops", "api.apply_cold_ms.sgemm", "api.apply_cold_ms.blur",
                   "api.apply_cold_ms.unsharp", "api.apply_cold_ms.gemmini", "api.apply_cold_ms.l1",
                   "api.apply_cold_ms.l2", "machine.calib_drift", "trace.overhead_share"}
    assert listed - produced - quick_absent - may_be_zero == set()


def test_same_seed_gives_identical_exact_counts():
    a = run_workload("blas_family", seed=11, seconds=0.3, trace=True, quick=True)
    b = run_workload("blas_family", seed=11, seconds=0.3, trace=True, quick=True)
    for name in EXACT:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"] > 0, name


def test_blas_family_builds_no_shared_object():
    result = run_workload("blas_family", seed=5, seconds=0.3, trace=True, quick=True)
    assert result["metrics"]["backend.so_built"]["value"] == 0
    assert result["metrics"]["backend.build_ms"]["value"] == 0
