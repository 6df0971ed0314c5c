"""BENCHMARK.json against the contract the driver checks it by."""

import json
import re

from bench.env import REPO_ROOT, load_spec
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def test_top_level_keys_and_limits():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert (REPO_ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 1 <= len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"])
    assert not any(c.startswith("/") or ".." in c for c in spec["command"])
    assert spec["paths"] == ["bench"] and all(PATH.match(p) for p in spec["paths"])
    # 4 + 22 runs per workload, 30 s each, must fit the driver's 3420 s
    assert 4 + 22 * len(spec["workloads"]) <= 3420 // 30


def test_workloads_are_the_five_with_one_line_reasons():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"]) and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metrics_have_names_units_directions_and_bounds():
    spec = load_spec()
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [
        w["name"] for w in spec["workloads"]
    ]
    assert len(names) == len(set(names)), "a name is used once"
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_file_is_plain_json():
    json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
