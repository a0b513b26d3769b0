"""Tests for ``actorprof run --sweep`` (the parallel sweep driver)."""

import json

import pytest

from repro.core.cli import main

BASE = ["run", "histogram", "--nodes", "1", "--pes-per-node", "4",
        "--updates", "100", "--table-size", "32"]
TRIANGLE_BASE = ["run", "triangle", "--nodes", "1", "--pes-per-node", "4",
                 "--scale", "5"]


def test_sweep_runs_cartesian_product(tmp_path, capsys):
    report = tmp_path / "sweep.json"
    archives = tmp_path / "archives"
    rc = main([*BASE, "--sweep", "seed=0,1", "--sweep", "updates=100,200",
               "-o", str(archives), "--sweep-report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["exit_code"] == 0 and data["exit_codes"] == []
    tags = [p["tag"] for p in data["points"]]
    assert tags == ["seed0-updates100", "seed0-updates200",
                    "seed1-updates100", "seed1-updates200"]
    for point in data["points"]:
        assert point["exit_code"] == 0
        assert (archives / point["archive"]).exists()
        assert point["archive_sha256"]
    out = capsys.readouterr().out
    assert "sweep: 4 points" in out


def test_sweep_jobs_is_deterministic(tmp_path):
    """--jobs 2 produces the same archives (byte-for-byte) and the same
    report points as --jobs 1."""
    results = {}
    for jobs in ("1", "2"):
        d = tmp_path / f"j{jobs}"
        report = d / "sweep.json"
        rc = main([*BASE, "--sweep", "seed=0,1", "--jobs", jobs,
                   "-o", str(d / "archives"), "--sweep-report", str(report)])
        assert rc == 0
        data = json.loads(report.read_text())
        archives = {p["archive"]: (d / "archives" / p["archive"]).read_bytes()
                    for p in data["points"]}
        results[jobs] = (data["points"], archives)
    assert results["1"] == results["2"]


def test_sweep_without_archive_dir(capsys):
    rc = main([*BASE, "--sweep", "seed=0,1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("updates delivered") == 2


@pytest.mark.parametrize("base,name", [
    (BASE, "bogus"),
    (BASE, "scale"),  # a triangle parameter
    (TRIANGLE_BASE, "updates"),  # a histogram parameter
], ids=["bogus", "histogram-scale", "triangle-updates"])
def test_sweep_rejects_unknown_parameter(base, name, capsys):
    rc = main([*base, "--sweep", f"{name}=1,2"])
    assert rc == 2
    assert f"cannot sweep {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("bad,fragment", [
    ("seed", "use PARAM=V1,V2"),
    ("seed=", "use PARAM=V1,V2"),
    ("seed=a,b", "int values"),
    ("distribution=diagonal", "cyclic, range, or block"),
])
def test_sweep_rejects_malformed_specs(bad, fragment, capsys):
    # distribution is a triangle parameter; histogram cannot sweep it
    base = TRIANGLE_BASE if bad.startswith("distribution") else BASE
    rc = main([*base, "--sweep", bad])
    assert rc == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("base,app", [(BASE, "histogram"),
                                      (TRIANGLE_BASE, "triangle")],
                         ids=["histogram", "triangle"])
def test_one_point_sweep_archive_matches_single_run(base, app, tmp_path):
    """A sweep point runs the same code path as the single run of that
    point, so both write the same archive bytes."""
    single = tmp_path / "one.aptrc"
    assert main([*base, "-o", str(single)]) == 0
    assert main([*base, "--sweep", "seed=0", "-o", str(tmp_path / "sw")]) == 0
    swept = tmp_path / "sw" / f"{app}-seed0.aptrc"
    assert swept.read_bytes() == single.read_bytes()


def test_sweep_rejects_duplicate_parameter(capsys):
    rc = main([*BASE, "--sweep", "seed=0", "--sweep", "seed=1"])
    assert rc == 2
    assert "given twice" in capsys.readouterr().err


def test_sweep_rejects_zero_jobs(capsys):
    rc = main([*BASE, "--sweep", "seed=0", "--jobs", "0"])
    assert rc == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_sweep_aggregates_failure_exit_codes(tmp_path, capsys):
    """A point that dies under a crash plan is salvaged (3) when archives
    are kept; the process exit is the max code and the report lists every
    distinct nonzero code."""
    from repro.sim.faults import FaultPlan

    plan_path = tmp_path / "crash.json"
    FaultPlan.single_crash(pe=0, at_cycle=10).save(plan_path)
    report = tmp_path / "sweep.json"
    rc = main([*BASE, "--sweep", "seed=0,1", "--fault-plan", str(plan_path),
               "-o", str(tmp_path / "archives"),
               "--sweep-report", str(report)])
    assert rc == 3
    data = json.loads(report.read_text())
    assert data["exit_code"] == 3
    assert data["exit_codes"] == [3]
    assert all(p["exit_code"] == 3 and p["error"] for p in data["points"])
    # salvaged archives still land on disk
    for point in data["points"]:
        assert (tmp_path / "archives" / point["archive"]).exists()
    assert "exit codes 3" in capsys.readouterr().err
