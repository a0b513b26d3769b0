"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Each workload runs one short iteration untraced at two seeds and traced
at one; the printed metric names must match ``BENCHMARK.json``, another
seed must change the inputs but not the names, every output check must
pass, and the traced run must reproduce the untraced run's exact digest
(simulated statistics and archive bytes).  Run from the repository root::

    python -m pytest perfbench/test_smoke.py -q

It takes a few minutes: every run still performs its full set-up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, seed: int, trace: int,
         run_py: Path = ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def _result(cwd: Path, workload: str, seed: int, trace: int):
    out = _run(cwd, workload, seed, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    full = json.loads((cwd / ".perfbench_out" /
                       f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return last, full


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(tmp_path, workload):
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]

    first, full0 = _result(tmp_path, workload, 0, 0)
    assert list(first["metrics"]) == e2e
    assert first["correct"] and first["failed"] == 0
    assert first["attempted"] >= 1
    for name, entry in first["metrics"].items():
        assert entry["value"] > 0, name
    for key in ("commit", "host", "nproc", "python", "numpy", "seed"):
        assert key in full0["meta"]

    other, full1 = _result(tmp_path, workload, 1, 0)
    assert list(other["metrics"]) == e2e
    assert other["correct"]
    assert full0["input_digest"] != full1["input_digest"]

    traced, full_traced = _result(tmp_path, workload, 0, 1)
    assert list(traced["metrics"]) == per_layer
    assert traced["correct"], "traced run failed a check (incl. exactness)"
    assert full_traced["exact_digest"] == full0["exact_digest"]
    if workload != "serve":
        assert full0["exact_digest"]["configs"]
    spans = json.loads((tmp_path / ".perfbench_out" /
                        f"{workload}-seed0-trace1-spans.json").read_text())
    assert spans["traceEvents"]
    assert all(e["ph"] == "X" for e in spans["traceEvents"])


def test_fails_without_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero and
    print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, WORKLOADS[0], 0, 0,
               run_py=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
