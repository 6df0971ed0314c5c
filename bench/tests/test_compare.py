"""bench.compare: verdicts, the pairing rule, exit codes."""

import io
import json

from bench import compare
from bench.env import load_spec


def test_worse_beyond_the_bound():
    parent = [100.0, 101.0, 99.0, 100.5] * 3
    child = [v * 1.2 for v in parent]
    assert compare.verdict(parent, child, "lower", 0.10)[0] == "worse"
    assert compare.verdict(parent, child, "higher", 0.10)[0] != "worse"


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    parent = [100.0, 80.0, 120.0, 90.0, 110.0, 70.0, 130.0, 95.0, 105.0, 100.0]
    child = [v * 1.02 for v in parent]
    assert compare.verdict(parent, child, "lower", 0.10)[0] == "unresolved"
    # ... unless every run of the child beats every run of the parent
    sweep = [v * 0.4 for v in parent]
    assert compare.verdict(parent, sweep, "lower", 0.10)[0] != "unresolved"


def test_pairing_rule_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr():
    parent = [100.0, 100.4, 99.6, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0]
    child = [v * 0.95 for v in parent]
    assert compare.verdict(parent, child, "lower", 0.10)[0] == "better"
    assert compare.verdict(parent[:9], child[:9], "lower", 0.10)[0] == "same"  # 9 pairs
    two_losses = child[:8] + [101.0, 101.0]
    assert compare.verdict(parent, two_losses, "lower", 0.10)[0] == "same"  # 8/10 wins
    inside_iqr = [v - 0.05 for v in parent]
    assert compare.verdict(parent, inside_iqr, "lower", 0.10)[0] == "same"


def _record(tmp_path, name, scale, failed=0):
    spec = load_spec()
    runs = [
        {
            "workload": w["name"], "trace": False, "attempted": 100, "failed": failed,
            "metrics": {
                m["name"]: {"value": (scale if m["better"] == "lower" else 1 / scale) * 10.0, "unit": m["unit"]}
                for m in spec["end_to_end"]
            },
        }
        for w in spec["workloads"]
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_exit_code_and_one_row_per_metric_and_workload(tmp_path):
    spec = load_spec()
    base = _record(tmp_path, "a.json", 1.0)
    out = io.StringIO()
    assert compare.compare(compare.load_runs(base), compare.load_runs(base), spec, out) == 0
    rows = [line for line in out.getvalue().splitlines()[1:] if not line.startswith("failed share")]
    assert len(rows) == len(spec["end_to_end"]) * len(spec["workloads"])
    slower = _record(tmp_path, "b.json", 1.5)
    assert compare.main([base, slower]) == 1
    assert compare.main([slower, base]) == 0
    failing = _record(tmp_path, "c.json", 1.0, failed=1)
    assert compare.main([base, failing]) == 1


def test_a_directory_is_a_set_of_runs(tmp_path):
    for i in range(3):
        _record(tmp_path, f"r{i}.json", 1.0 + i / 100)
    runs = compare.load_runs(str(tmp_path))
    values = compare.end_to_end_values(runs)
    assert all(len(v) == 3 for v in values.values())
