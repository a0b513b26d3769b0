"""Benchmark: the run engine's speedup claim, without losing a byte.

``actorprof check --jobs 4`` must (a) beat ``--jobs 1`` by >= 2x on a
K=8 audit when 4 cores exist, and (b) produce the *byte-identical*
verdict.  (a) is the point of the engine; (b) is the constraint that
makes the speedup free — a faster audit that could disagree with the
serial one would be worthless as a determinism auditor.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_parallel_speedup.py -v -s
"""

import os
import time

import pytest

from repro.check import KernelWorkload, audit
from repro.machine.spec import MachineSpec

SCHEDULES = 8
JOBS = 4


def workload():
    # Heavy enough that per-run compute dominates the ~100ms spawn cost
    # of each worker; the speedup floor below is meaningless otherwise.
    return KernelWorkload("histogram", updates=8_000, table_size=256,
                          machine=MachineSpec(2, 2), seed=0)


@pytest.mark.skipif((os.cpu_count() or 1) < JOBS,
                    reason=f"needs >= {JOBS} cores for a meaningful "
                           f"speedup measurement (have {os.cpu_count()})")
def test_parallel_audit_speedup_with_identical_verdict(tmp_path):
    t0 = time.perf_counter()
    serial = audit(workload(), schedules=SCHEDULES,
                   out_dir=tmp_path / "serial", store_equivalence=False,
                   jobs=1)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = audit(workload(), schedules=SCHEDULES,
                   out_dir=tmp_path / "pooled", store_equivalence=False,
                   jobs=JOBS)
    t_pooled = time.perf_counter() - t0

    assert serial.to_json() == pooled.to_json(), (
        "parallel audit verdict differs from serial — determinism bug"
    )
    speedup = t_serial / t_pooled
    print(f"\nK={SCHEDULES} audit: jobs=1 {t_serial:.2f}s, "
          f"jobs={JOBS} {t_pooled:.2f}s, speedup {speedup:.2f}x")
    assert speedup >= 2.0, (
        f"expected >= 2x speedup at --jobs {JOBS}, got {speedup:.2f}x "
        f"({t_serial:.2f}s -> {t_pooled:.2f}s)"
    )


def test_parallel_audit_correctness_any_machine(tmp_path):
    """The byte-identity half of the claim, runnable on any core count
    (jobs=2 multiplexes on a single core)."""
    serial = audit(workload(), schedules=2, store_equivalence=False, jobs=1)
    pooled = audit(workload(), schedules=2, store_equivalence=False, jobs=2)
    assert serial.to_json() == pooled.to_json()
