"""Shared fixtures for the per-figure reproduction benchmarks.

The paper's evaluation (Section IV) is one experiment — profiled
distributed triangle counting on an R-MAT graph — observed through four
trace products.  All figure benchmarks therefore share the same four runs
({1, 2} nodes × {cyclic, range}), materialized once per session.

Artifacts (SVG charts, text series) land in ``benchmarks/output/``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import run_case_study

OUTPUT_DIR = Path(__file__).parent / "output"

#: The single root seed every benchmark threads explicitly into graph
#: construction and per-PE RNG stream derivation (``sim/rng.py``), so a
#: benchmark re-run is bit-for-bit the same experiment.
ROOT_SEED = 0


@pytest.fixture(scope="session")
def outdir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def run_1n_cyclic():
    return run_case_study(nodes=1, distribution="cyclic")


@pytest.fixture(scope="session")
def run_1n_range():
    return run_case_study(nodes=1, distribution="range")


@pytest.fixture(scope="session")
def run_2n_cyclic():
    return run_case_study(nodes=2, distribution="cyclic")


@pytest.fixture(scope="session")
def run_2n_range():
    return run_case_study(nodes=2, distribution="range")


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The simulations are deterministic, so repeated rounds only cost time.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def bench_header() -> dict:
    """Metadata header of one measured case in a ``BENCH_*.json`` file:
    which code ran where, with which interpreter and numpy.  ``commit``
    ends in ``-dirty`` when the tree had uncommitted changes, and
    ``src_sha256`` names the exact sources either way.  Each case also
    records its own ``reps`` next to its min/median/max."""
    root = Path(__file__).resolve().parent.parent
    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=root, capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "host": platform.node(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def spread(samples: list[float]) -> dict:
    """min/median/max of repeated measurements."""
    return {"min": min(samples), "median": statistics.median(samples),
            "max": max(samples)}
