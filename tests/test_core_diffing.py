"""Tests for the run-comparison (diffing) module and CLI --compare."""

import numpy as np
import pytest

from repro.core.diffing import (
    LogicalDiff,
    OverallDiff,
    PhysicalDiff,
    compare_report,
)
from repro.core.logical import LogicalTrace
from repro.core.overall import OverallProfile
from repro.core.physical import PhysicalTrace
from repro.core.store.archive import Section
from repro.machine import MachineSpec


def make_logical(hot: bool):
    t = LogicalTrace(MachineSpec(1, 4))
    if hot:
        for _ in range(12):
            t.record(0, 1, 8)
    else:
        for src in range(4):
            for _ in range(3):
                t.record(src, (src + 1) % 4, 8)
    return t


def logical_diff(a: LogicalTrace, b: LogicalTrace) -> LogicalDiff:
    return LogicalDiff.from_matrices(a.matrix(), b.matrix())


def test_logical_diff():
    d = logical_diff(make_logical(True), make_logical(False))
    assert d.total_sends_a == d.total_sends_b == 12
    assert d.max_sends_ratio == pytest.approx(4.0)  # 12 vs 3
    assert d.send_imbalance_a == pytest.approx(4.0)
    assert d.send_imbalance_b == pytest.approx(1.0)
    assert d.moved_messages > 0


def test_logical_diff_different_shapes():
    a = LogicalTrace(MachineSpec(1, 2))
    a.record(0, 1, 8)
    b = make_logical(False)
    d = logical_diff(a, b)
    assert d.moved_messages == -1  # incomparable shapes flagged


def make_overall(fast: bool):
    p = OverallProfile(2)
    scale = 1 if fast else 3
    for pe in range(2):
        p.add_main(pe, 10 * scale)
        p.add_proc(pe, 20 * scale)
        p.add_total(pe, 100 * scale)
    return p


def test_overall_diff():
    d = OverallDiff.of(make_overall(False), make_overall(True))
    assert d.total_ratio == pytest.approx(3.0)
    assert d.comm_share_a == pytest.approx(0.7)
    assert d.comm_share_b == pytest.approx(0.7)


def test_physical_diff():
    a = PhysicalTrace(2)
    a.record("local_send", 100, 0, 1, 0)
    a.record("nonblock_send", 200, 0, 1, 0)
    b = PhysicalTrace(2)
    b.record("local_send", 50, 1, 0, 0)
    d = PhysicalDiff.from_sections(
        Section.from_columns("physical", *a.to_columns()),
        Section.from_columns("physical", *b.to_columns()),
    )
    assert d.ops_a == {"local_send": 1, "nonblock_send": 1}
    assert d.ops_b == {"local_send": 1}
    assert d.bytes_ratio == pytest.approx(6.0)


def test_compare_report_text():
    text = compare_report(
        "cyclic", "range",
        logical=logical_diff(make_logical(True), make_logical(False)),
        overall=OverallDiff.of(make_overall(False), make_overall(True)),
        physical=None,
    )
    assert "comparing 'cyclic' (A) vs 'range' (B)" in text
    assert "hottest-sender ratio 4.00x" in text
    assert "A slower" in text


def test_compare_report_empty():
    assert "no comparable traces" in compare_report("a", "b")


def test_cli_compare(tmp_path, capsys):
    """End-to-end: two profiled runs diffed through the CLI."""
    from repro.core import ActorProf, ProfileFlags
    from repro.core.cli import main
    from repro.experiments.casestudy import case_study_graph
    from repro.apps.triangle import count_triangles

    graph = case_study_graph(6)
    dirs = {}
    for dist in ("cyclic", "range"):
        ap = ActorProf(ProfileFlags.all(papi_sample_interval=64))
        count_triangles(graph, MachineSpec(2, 4), dist, profiler=ap)
        d = tmp_path / dist
        ap.write_traces(d)
        dirs[dist] = d
    rc = main([str(dirs["cyclic"]), "--num-pes", "8", "-l", "-s", "-p",
               "--compare", str(dirs["range"]), "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== comparing" in out
    assert "total-time ratio A/B" in out
    assert "physical ops (A vs B)" in out


def test_cli_compare_missing_dir(tmp_path, capsys):
    from repro.core.cli import main

    rc = main([str(tmp_path), "--num-pes", "4", "-l",
               "--compare", str(tmp_path / "nope")])
    assert rc == 2
