"""Tests for the :mod:`repro.api` facade.

Parity is the contract: every facade call must return byte-for-byte
what the core entry point behind it returns, without warnings.
"""

import warnings

import pytest

import repro.api as api
from repro.core.query import query_trace
from repro.core.store.archive import Archive
from repro.core.store.registry import RunRegistry

from tests.test_golden_archives import GOLDEN_DIR

HIST = GOLDEN_DIR / "histogram.aptrc"
TRI = GOLDEN_DIR / "triangle.aptrc"

QUERIES = [
    "sends",
    "bytes",
    "sends where src == 0",
    "sends group by dst top 3",
    "sends where src_node != dst_node",
]


# ----------------------------------------------------------------------
# open_run / Run
# ----------------------------------------------------------------------

def test_open_run_by_path():
    with api.open_run(HIST) as run:
        assert run.run_id == "histogram"
        assert run.meta["workload"] == "histogram"
        assert run.n_pes == 4
        assert "logical" in run.sections


def test_open_run_by_registered_id(tmp_path):
    registry = RunRegistry(tmp_path / "reg")
    registry.add(HIST, run_id="golden-hist")
    with api.open_run("golden-hist", registry=tmp_path / "reg") as run:
        assert run.run_id == "golden-hist"
        assert run.query("sends") == _core_query(HIST, "sends")


def test_open_run_rejects_non_archives(tmp_path):
    bogus = tmp_path / "x.aptrc"
    bogus.write_bytes(b"not an archive")
    with pytest.raises(ValueError):
        api.open_run(bogus)


def test_run_archive_escape_hatch():
    with api.open_run(HIST) as run:
        assert isinstance(run.archive, Archive)
        assert run.archive.n_pes == run.n_pes


# ----------------------------------------------------------------------
# query parity
# ----------------------------------------------------------------------

def _core_query(path, text, section="logical"):
    with Archive(path) as archive, warnings.catch_warnings():
        warnings.simplefilter("error")  # the core path must not warn
        return query_trace(archive.section(section), text)


@pytest.mark.parametrize("query", QUERIES)
def test_facade_query_matches_legacy(query):
    with api.open_run(HIST) as run:
        assert run.query(query) == _core_query(HIST, query)


def test_facade_query_physical_section():
    with api.open_run(HIST) as run:
        facade = run.query("ops group by kind", section="physical")
    assert facade == _core_query(HIST, "ops group by kind", "physical")


# ----------------------------------------------------------------------
# diff parity
# ----------------------------------------------------------------------

def test_facade_diff_matches_legacy_byte_for_byte():
    from repro.core.diffing import _diff_runs

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no path may warn
        core = _diff_runs(HIST, TRI, label_a="histogram",
                          label_b="triangle")
    with api.open_run(HIST) as run:
        facade = run.diff(TRI, label_b="triangle")
    assert facade == core
    assert api.diff(HIST, TRI, label_a="histogram",
                    label_b="triangle") == core


def _as_directory(archive_path, directory):
    """Write an archive's diffable traces out in the paper's text format."""
    from repro.core.store.archive import load_run

    traces = load_run(archive_path)
    for kind in ("logical", "physical", "overall"):
        getattr(traces, kind).write(directory)
    return directory


def test_diff_reports_identical_for_archives_and_directories(tmp_path):
    """archive↔archive, dir↔dir and archive↔dir render the same bytes."""
    hist_dir = _as_directory(HIST, tmp_path / "histogram")
    tri_dir = _as_directory(TRI, tmp_path / "triangle")
    labels = {"label_a": "histogram", "label_b": "triangle"}
    expected = api.diff(HIST, TRI, **labels)
    assert "logical: sends" in expected
    assert "overall: total-time ratio" in expected
    assert "physical ops (A vs B)" in expected
    for a, b in ((hist_dir, tri_dir), (HIST, tri_dir), (hist_dir, TRI)):
        assert api.diff(a, b, n_pes=4, **labels) == expected, (a, b)


def test_run_diff_accepts_run_objects():
    with api.open_run(HIST) as a, api.open_run(TRI) as b:
        assert a.diff(b) == a.diff(TRI)


# ----------------------------------------------------------------------
# whatif
# ----------------------------------------------------------------------

def test_facade_whatif_matches_legacy():
    from repro.check.workloads import KernelWorkload
    from repro.machine.spec import MachineSpec
    from repro.whatif.engine import _run_whatif

    def workload():
        return KernelWorkload("histogram", updates=150, table_size=32,
                              machine=MachineSpec(2, 2), seed=0)

    core = _run_whatif(workload())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        facade = api.whatif(workload())
    assert facade == core


def test_run_whatif_requires_matching_workload():
    from repro.check.workloads import KernelWorkload
    from repro.machine.spec import MachineSpec

    with api.open_run(HIST) as run:
        with pytest.raises(ValueError, match="workload"):
            run.whatif()  # archives don't carry a replayable descriptor
        mismatched = KernelWorkload("triangle", scale=6, distribution="cyclic",
                                    machine=MachineSpec(2, 2), seed=0)
        with pytest.raises(ValueError, match="histogram"):
            run.whatif(mismatched)


# ----------------------------------------------------------------------
# viz
# ----------------------------------------------------------------------

def test_facade_viz_renders_all_views_without_pyramid_sections():
    # the golden archive predates pyramids: viz must fall back to an
    # in-memory flat pyramid, not crash
    with api.open_run(HIST) as run:
        for view in ("gantt", "heatmap", "timeline"):
            svg = run.viz(view)
            assert "<svg" in svg


def test_facade_viz_uses_pyramid_levels_only(tmp_path):
    from repro.core.store.lod import backfill_pyramid

    filled = backfill_pyramid(HIST, tmp_path / "h.aptrc")
    with api.open_run(filled) as run:
        assert "<svg" in run.viz("heatmap")
        touched = {section for section, _ in run.archive.decoded_columns}
        assert touched <= {"lod_pe", "lod_edge"}


def test_facade_viz_rejects_unknown_view():
    with api.open_run(HIST) as run:
        with pytest.raises(ValueError, match="view"):
            run.viz("sparkline")
