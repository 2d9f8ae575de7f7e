"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke runs use ``--smoke``: the benchmark's own code paths on inputs
small enough for a test.
"""
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def _zero_measure(gate):
    return 0.0


def _zero_permanent(mat, algorithm="ryser"):
    return 0j


@pytest.mark.parametrize("workload, module, name, fake", [
    ("two-mode-cert", "focklift.nogo", "entangling_measure", _zero_measure),
    ("ancilla-cert", "focklift.nogo", "entangling_measure", _zero_measure),
    ("large-permanent", "focklift.permanent", "permanent", _zero_permanent),
])
def test_a_wrong_result_raises_error_rate(monkeypatch, workload, module, name, fake):
    monkeypatch.setattr(importlib.import_module(module), name, fake)
    result = bench.run_workload(ROOT, workload, 3, 1.0, trace=False, smoke=True)
    assert result["error_rate"] > 0
    assert not bench.result_line(result)["correct"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "ancilla-cert", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children_only():
    t = spans.Tracer()
    # a [0, 10] has children b [1, 4] and b [5, 6]; c [2, 3] is under the first b
    for name, parent, start, end in [("a", -1, 0, 10), ("b", 0, 1, 4), ("c", 1, 2, 3),
                                     ("b", 0, 5, 6)]:
        t.name.append(t._id(name))
        t.parent.append(parent)
        t.run.append(0)
        t.start.append(start)
        t.end.append(end)
    table = spans.SpanTable(t)
    assert (table.self_total("a"), table.self_total("b"), table.self_total("c")) == (6, 3, 1)
    assert table.calls("b") == 2 and table.total("b") == 4
    assert int(table.under("c", "b").sum()) == 1
