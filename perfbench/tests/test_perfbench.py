"""The benchmark's own checks.  They start real servers, so they take a
few minutes; run them from the repository root with

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SMOKE_SECONDS = "3"


def _run(root: Path, workload: str, trace: int, seed: int = 7):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    code, result, proc = _run(ROOT, workload, trace)
    assert code == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name


def test_planted_wrong_ranking_is_caught_and_counted(tmp_path):
    """A server that swaps the first two genes of every first page must
    fail the run: exit 1, ``correct`` false, the bad answers counted."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    protocol = tmp_path / "src" / "repro" / "api" / "protocol.py"
    protocol.write_text(protocol.read_text() + '''

import dataclasses as _dataclasses
import sys as _sys

# the served process only: "python -m" shows "-m" while its package imports
if _sys.argv[0] == "-m" or _sys.argv[0].endswith("__main__.py"):
    _from_result = SearchResponse.from_result.__func__

    def _swapped(cls, result, request, **kwargs):
        response = _from_result(cls, result, request, **kwargs)
        rows = list(response.gene_rows)
        if request.page == 0 and len(rows) >= 2:
            (r0, g0, s0), (r1, g1, s1) = rows[0], rows[1]
            rows[0], rows[1] = (r0, g1, s0), (r1, g0, s1)
            response = _dataclasses.replace(response, gene_rows=tuple(rows))
        return response

    SearchResponse.from_result = classmethod(_swapped)
''')
    code, result, proc = _run(tmp_path, "browse-hot", 0)
    assert code == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"] is False
    assert result["failed"] > 0
    share = result["metrics"]["success_share"]["value"]
    assert share == pytest.approx(1 - result["failed"] / result["attempted"])
    assert share < 1.0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, result, proc = _run(tmp_path, "browse-hot", 0)
    assert code not in (0, 1)
    assert result is None
