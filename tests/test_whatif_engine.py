"""Engine-level what-if tests: sweeps, caching, faults, CLI plumbing."""

import json

import pytest

import repro.api as api
from repro.check.workloads import KernelWorkload
from repro.core.cli import main
from repro.core.report import whatif_report
from repro.exec import ResultCache
from repro.machine.spec import MachineSpec
from repro.sim.faults import CrashFault, FaultPlan, SlowPE
from repro.whatif import Scales, parse_scale, parse_sweep
from repro.whatif.replay import CRASH_PLAN_ERROR


def _histogram(**kw):
    kw.setdefault("updates", 120)
    kw.setdefault("table_size", 32)
    kw.setdefault("machine", MachineSpec(2, 2))
    kw.setdefault("seed", 0)
    return KernelWorkload("histogram", **kw)


# ----------------------------------------------------------------------
# scale / sweep parsing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("mailbox:0=2x", ("mailbox:0", 2.0)),
    ("net.latency=0.5", ("net.latency", 0.5)),
    ("PE:3=1.5X", ("pe:3", 1.5)),
    ("buffer=0.25x", ("buffer", 0.25)),
])
def test_parse_scale_accepts_valid_specs(text, expected):
    assert parse_scale(text) == expected


@pytest.mark.parametrize("text", [
    "proc", "proc=", "proc=zero", "proc=-1", "proc=0", "proc=inf",
    "mailbox=2", "mailbox:x=2", "pe:-1=2", "turbo=2",
])
def test_parse_scale_rejects_bad_specs(text):
    with pytest.raises(ValueError):
        parse_scale(text)


def test_parse_sweep_splits_factor_axis():
    assert parse_sweep("net.latency=0.5,1,2x") == ("net.latency",
                                                   [0.5, 1.0, 2.0])
    with pytest.raises(ValueError):
        parse_sweep("net.latency=")
    with pytest.raises(ValueError):
        parse_sweep("net.latency")


def test_repeated_scale_args_compose():
    sc = Scales.from_args(["proc=2x", "proc=0.25", "main=3"])
    assert sc.to_dict() == {"proc": 0.5, "main": 3.0}


# ----------------------------------------------------------------------
# ResultCache keys must include the scale factors (the ISSUE regression)
# ----------------------------------------------------------------------

def test_cache_keys_distinguish_scale_points(tmp_path):
    """Two sweep points differing only in --scale must not collide."""
    cache = ResultCache(tmp_path / "cache")
    workload = _histogram()
    first = api.whatif(workload, scale_sets=[Scales({"proc": 0.5})],
                       cache=cache)
    second = api.whatif(workload, scale_sets=[Scales({"proc": 0.25})],
                        cache=cache)
    t1 = first["points"][0]["totals"]["t_total"]
    t2 = second["points"][0]["totals"]["t_total"]
    # a key collision would replay the cached proc=0.5 totals here
    assert t2 != t1
    assert t2 < t1  # 4x PROC speedup beats 2x


def test_cache_hits_reproduce_cold_report(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    workload = _histogram()
    kwargs = dict(scale_sets=[Scales({"proc": 0.5})],
                  sweeps=[("net.latency", [0.5, 2.0])], cache=cache)
    cold = api.whatif(workload, **kwargs)
    warm = api.whatif(workload, **kwargs)
    assert cold == warm
    assert cache.stats.hits >= len(cold["points"])


def test_jobs_do_not_change_the_report():
    workload = _histogram()
    kwargs = dict(scale_sets=[Scales({"proc": 0.5})],
                  sweeps=[("net.bytes", [0.5])])
    serial = api.whatif(workload, jobs=1, **kwargs)
    fanned = api.whatif(workload, jobs=2, **kwargs)
    assert serial == fanned


# ----------------------------------------------------------------------
# buffer scales are replay-only
# ----------------------------------------------------------------------

def test_buffer_scale_replays_but_never_predicts():
    dag_out = []
    report = api.whatif(_histogram(),
                        scale_sets=[Scales({"buffer": 0.25})],
                        dag_out=dag_out)
    row = report["points"][0]
    assert "predicted_t_total" not in row
    assert row["result_matches_baseline"] is True
    with pytest.raises(ValueError, match="replay"):
        dag_out[0].predict_times(Scales({"buffer": 0.25}))


# ----------------------------------------------------------------------
# fault × whatif composition
# ----------------------------------------------------------------------

def test_slow_pe_fault_lands_on_the_critical_path():
    plan = FaultPlan(slow_pes=(SlowPE(pe=2, multiplier=4.0),))
    report = api.whatif(_histogram(), fault_plan=plan)
    by_pe = report["analysis"]["critical_path"]["by_pe"]
    assert by_pe and by_pe[0]["pe"] == 2, (
        f"slow PE 2 should dominate the critical path, got {by_pe}"
    )
    # the engine proposes un-slowing it, and predicts a real win
    row = next(r for r in report["predictions"] if r["target"] == "pe:2")
    assert row["factor"] == 0.25  # 1/multiplier: "what if it weren't slow"
    assert row["predicted_t_total"] < report["baseline"]["t_total"]


def test_crashing_fault_plans_are_rejected():
    plan = FaultPlan.single_crash(pe=1, at_cycle=500)
    with pytest.raises(ValueError, match="crash"):
        api.whatif(_histogram(), fault_plan=plan)
    try:
        api.whatif(_histogram(), fault_plan=plan)
    except ValueError as exc:
        assert str(exc) == CRASH_PLAN_ERROR


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_whatif_reports_and_replays(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["whatif", "histogram", "--updates", "120",
                 "--table-size", "32", "--scale", "proc=0.5x",
                 "--sweep", "net.latency=0.5,2", "--jobs", "2",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "critical path by category" in text
    assert "replayed points:" in text
    report = json.loads(out.read_text())
    assert len(report["points"]) == 3
    assert all(p["result_matches_baseline"] for p in report["points"])
    # a 2x PROC speedup prediction lands within 5% of its replay
    proc = next(p for p in report["points"] if p["scales"] == {"proc": 0.5})
    assert abs(proc["prediction_error_pct"]) <= 5.0


def test_cli_whatif_rejects_bad_scales(capsys):
    assert main(["whatif", "histogram", "--scale", "turbo=2x"]) == 2
    assert "unknown scale target" in capsys.readouterr().err


def test_cli_whatif_rejects_crash_plans(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    FaultPlan(crashes=(CrashFault(pe=0, at_cycle=100),)).save(plan_path)
    code = main(["whatif", "histogram", "--fault-plan", str(plan_path)])
    assert code == 2
    assert "crash" in capsys.readouterr().err


def test_cli_whatif_rejects_bad_jobs_and_factor(capsys):
    assert main(["whatif", "histogram", "--jobs", "0"]) == 2
    assert main(["whatif", "histogram", "--candidate-factor", "-1"]) == 2


# ----------------------------------------------------------------------
# acceptance: triangle ranks a bottleneck and predicts the 2x PROC win
# ----------------------------------------------------------------------

def test_triangle_acceptance_bar():
    workload = KernelWorkload("triangle", scale=6, distribution="cyclic",
                              machine=MachineSpec(2, 2), seed=0)
    report = api.whatif(workload, scale_sets=[Scales({"proc": 0.5})])
    cp = report["analysis"]["critical_path"]
    assert cp["by_mailbox"], "no mailbox ranked on the critical path"
    assert cp["top_edges"], "no transfer edge ranked on the critical path"
    point = report["points"][0]
    assert abs(point["prediction_error_pct"]) <= 5.0
    # the text renderer round-trips the full report
    rendered = whatif_report(report)
    assert "T_TOTAL" in rendered and "mailbox" in rendered
