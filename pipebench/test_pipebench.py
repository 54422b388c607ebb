"""Fast smoke tests of the pipeline benchmark itself.

Each workload runs at a tiny size (same code paths, a few thousand to a
million events), the metric schema is checked against BENCHMARK.json,
and tail percentiles with too few samples are refused.
"""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from pb_common import END_TO_END, PER_LAYER, WORKLOADS, percentile  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location("pipebench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny(name):
    """The workload at a size that runs in seconds, reads and all."""
    workload = WORKLOADS[name]
    if name == "labeled-thrash":
        # Like the full workload: two blocks per round, one per connection,
        # and twice as many series as the cap.
        spec = dict(workload.specs[0], series={"max_active": 100})
        return replace(
            workload, specs=(spec,), series=200, fanout=4, round_events=20_000,
            rounds=3, block_size=10_000, prefill_events=20_000, prefill_block_size=10_000,
            reads=workload.reads * 3,
        )
    # 1,024-event blocks give the traced run >1,000 observe calls for p99.
    return replace(workload, round_events=100_000, rounds=10, block_size=1_024)


def test_schema_matches_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()
    }
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    for name, (unit, better) in {**END_TO_END, **{k: v[:2] for k, v in PER_LAYER.items()}}.items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
        assert better in ("higher", "lower")


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="needs >= 10"):
        percentile(list(range(99)), 90)
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_correct_at_tiny_size(name, tmp_path):
    run = _load_run()
    record, metrics, _ = run.measure(tiny(name), 7, False, tmp_path / "work")
    assert record.failed == 0, record.problems
    assert set(metrics) == set(END_TO_END)
    assert metrics["ok_op_ratio"] == 1.0
    assert all(value > 0 for value in metrics.values()), metrics


def test_traced_run_reports_every_layer_and_repeats_its_counts(tmp_path):
    run = _load_run()
    workload = tiny("labeled-thrash")
    counts = []
    for attempt in range(2):
        record, metrics, _ = run.measure(workload, 3, True, tmp_path / f"work-{attempt}")
        assert record.failed == 0, record.problems
        assert set(metrics) == set(PER_LAYER)
        counts.append({k: metrics[k] for k in (
            "monitor.periods_sealed", "serde.checkpoint_bytes",
            "series.evictions", "series.resurrections", "trace.spans",
        )})
    assert counts[0] == counts[1]
    assert metrics["series.created"] == 200 and metrics["series.evictions"] > 0
    assert metrics["client.observe_calls"] > 0 and metrics["wire.frames_in"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "pipebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "offline-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
