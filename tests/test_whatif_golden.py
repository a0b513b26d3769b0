"""Golden what-if reports.

``tests/golden/whatif_*.json`` pin the full report of
:func:`repro.api.whatif` — critical-path breakdown, ranked
predictions, and replayed speedup points — for the two case-study
workloads at fixed seeds.  The tests rebuild each report from scratch
and assert *byte identity* of the JSON serialization the CLI writes, so
any drift in the DAG reconstruction, the critical-path weights, the
prediction math, or the replay engine shows up here first.

Regenerate (only after an intentional behaviour change) with::

    PYTHONPATH=src python tests/test_whatif_golden.py
"""

import json
from pathlib import Path

import pytest

import repro.api as api
from repro.check.workloads import KernelWorkload
from repro.machine.spec import MachineSpec
from repro.whatif import Scales

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN_WORKLOADS = {
    "whatif_histogram": lambda: KernelWorkload(
        "histogram",
        updates=200, table_size=32, machine=MachineSpec(2, 2), seed=0),
    "whatif_triangle": lambda: KernelWorkload(
        "triangle",
        scale=6, distribution="cyclic", machine=MachineSpec(2, 2), seed=0),
}


def _build_report(name: str) -> dict:
    return api.whatif(
        GOLDEN_WORKLOADS[name](),
        scale_sets=[Scales({"proc": 0.5})],
        sweeps=[("net.latency", [0.5, 2.0])],
    )


def _serialize(report: dict) -> str:
    # exactly what `actorprof whatif --out` writes
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_rebuilt_report_is_byte_identical_to_golden(name):
    golden = GOLDEN_DIR / f"{name}.json"
    assert golden.exists(), (
        f"missing golden report {golden}; regenerate with "
        f"`PYTHONPATH=src python {Path(__file__).name}`"
    )
    rebuilt = _serialize(_build_report(name))
    assert rebuilt == golden.read_text(), (
        f"rebuilt {name} report differs from {golden} — the DAG "
        f"reconstruction, prediction math, or replay engine drifted; if "
        f"intentional, regenerate the goldens and call it out in the "
        f"changelog"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_golden_report_invariants(name):
    """The pinned reports must themselves satisfy the whatif contract."""
    report = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    analysis = report["analysis"]
    assert analysis["prediction_exact"] is True
    assert analysis["span"] == report["baseline"]["t_total"]
    assert analysis["span"] <= analysis["work"]
    # the report ranks at least one mailbox and one transfer edge as a
    # bottleneck (the ISSUE's acceptance bar)
    assert analysis["critical_path"]["by_mailbox"]
    assert analysis["critical_path"]["top_edges"]
    assert report["exit_code"] == 0
    for point in report["points"]:
        assert point["result_matches_baseline"] is True
    # 2x PROC speedup prediction within 5% of its replay
    proc_point = next(p for p in report["points"]
                      if p["scales"] == {"proc": 0.5})
    assert abs(proc_point["prediction_error_pct"]) <= 5.0


def _regenerate() -> None:
    for name in sorted(GOLDEN_WORKLOADS):
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(_serialize(_build_report(name)))
        print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
