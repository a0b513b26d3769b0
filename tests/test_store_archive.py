"""Tests for the .aptrc archive writer/reader and trace round trips."""

import numpy as np
import pytest

from repro.core import ActorProf, ProfileFlags
from repro.core.logical import LogicalTrace
from repro.core.overall import OverallProfile
from repro.core.papi_trace import PAPITrace
from repro.core.physical import PhysicalTrace
from repro.core.query import query_trace
from repro.core.store.archive import (
    Archive,
    ArchiveError,
    is_archive,
    load_logical,
    load_overall,
    load_papi,
    load_physical,
    load_run,
)
from repro.core.store.writer import ArchiveWriter, export_run
from repro.hclib import Actor, run_spmd
from repro.machine import MachineSpec


# ----------------------------------------------------------------------
# low-level writer/reader
# ----------------------------------------------------------------------

def test_empty_archive_roundtrip(tmp_path):
    path = ArchiveWriter(tmp_path / "empty.aptrc", meta={"app": "x"}).close()
    with Archive(path) as archive:
        assert archive.meta == {"app": "x"}
        assert archive.sections == ()


def test_section_roundtrip(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": [1, 2, 3], "y": [-1, 0, 1]},
                      attrs={"k": "v"})
    with Archive(tmp_path / "a.aptrc") as archive:
        section = archive.section("s")
        assert section.rows == 3
        assert set(section.columns) == {"x", "y"}
        assert section.attrs == {"k": "v"}
        assert section.column("x").tolist() == [1, 2, 3]
        assert section.column("y").tolist() == [-1, 0, 1]


def test_chunked_section_concatenates(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        s = w.begin_section("s", ("x",))
        s.write_chunk({"x": [1, 2]})
        s.write_chunk({"x": []})          # empty chunks are dropped
        s.write_chunk({"x": [3]})
        s.end(attrs={"done": 1})
    with Archive(tmp_path / "a.aptrc") as archive:
        section = archive.section("s")
        assert section.rows == 3
        assert section.column("x").tolist() == [1, 2, 3]
        assert section.attrs == {"done": 1}


def test_interleaved_sections(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        s1 = w.begin_section("one", ("x",))
        s2 = w.begin_section("two", ("y",))
        s1.write_chunk({"x": [1]})
        s2.write_chunk({"y": [10, 20]})
        s1.write_chunk({"x": [2]})
        # close() ends any still-open sections
    with Archive(tmp_path / "a.aptrc") as archive:
        assert archive.section("one").column("x").tolist() == [1, 2]
        assert archive.section("two").column("y").tolist() == [10, 20]


def test_ragged_chunk_rejected(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        s = w.begin_section("s", ("x", "y"))
        with pytest.raises(ArchiveError, match="ragged"):
            s.write_chunk({"x": [1, 2], "y": [1]})
        w.close()


def test_wrong_columns_rejected(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        s = w.begin_section("s", ("x",))
        with pytest.raises(ArchiveError, match="expects columns"):
            s.write_chunk({"z": [1]})
        w.close()


def test_duplicate_section_rejected(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": [1]})
        with pytest.raises(ArchiveError, match="duplicate"):
            w.begin_section("s", ("x",))


def test_missing_section_and_column_raise(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": [1]})
    with Archive(tmp_path / "a.aptrc") as archive:
        with pytest.raises(ArchiveError, match="no section"):
            archive.section("nope")
        with pytest.raises(ArchiveError, match="no column"):
            archive.section("s").column("nope")


def test_not_an_archive_raises(tmp_path):
    bogus = tmp_path / "bogus.aptrc"
    bogus.write_text("this is not an archive, it only dresses like one")
    with pytest.raises(ArchiveError, match="magic"):
        Archive(bogus)
    assert not is_archive(tmp_path / "missing.aptrc")
    assert not is_archive(tmp_path)


def test_truncated_archive_raises(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": list(range(100))})
    data = (tmp_path / "a.aptrc").read_bytes()
    clipped = tmp_path / "clipped.aptrc"
    clipped.write_bytes(data[:-5])
    with pytest.raises(ArchiveError, match="truncated|too small"):
        Archive(clipped)


def test_is_archive_by_suffix_and_magic(tmp_path):
    path = ArchiveWriter(tmp_path / "a.aptrc").close()
    assert is_archive(path)
    renamed = tmp_path / "disguised.bin"
    renamed.write_bytes(path.read_bytes())
    assert is_archive(renamed)  # magic sniffing, not just the suffix


# ----------------------------------------------------------------------
# laziness
# ----------------------------------------------------------------------

def test_open_decodes_nothing(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": [1, 2], "y": [3, 4]})
    with Archive(tmp_path / "a.aptrc") as archive:
        assert archive.decoded_columns == set()
        archive.section("s")           # getting a handle decodes nothing
        assert archive.decoded_columns == set()
        archive.section("s").column("y")
        assert archive.decoded_columns == {("s", "y")}


def test_column_decode_is_cached(tmp_path):
    with ArchiveWriter(tmp_path / "a.aptrc") as w:
        w.add_section("s", {"x": [1, 2]})
    with Archive(tmp_path / "a.aptrc") as archive:
        a = archive.section("s").column("x")
        b = archive.section("s").column("x")
        assert a is b


# ----------------------------------------------------------------------
# whole-run export / load
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def profiled_run(tmp_path_factory):
    """One profiled run and its exported archive."""
    ap = ActorProf(ProfileFlags.all())

    class A(Actor):
        def __init__(self, ctx, arr):
            super().__init__(ctx)
            self.arr = arr

        def process(self, idx, sender):
            self.arr[idx] += 1

    def program(ctx):
        arr = np.zeros(8, dtype=np.int64)
        a = A(ctx, arr)
        with ctx.finish():
            a.start()
            for i in range(50):
                a.send(int(ctx.rng.integers(0, 8)),
                       int(ctx.rng.integers(0, ctx.n_pes)))
            a.done()
        return int(arr.sum())

    run_spmd(program, machine=MachineSpec(2, 4), profiler=ap, seed=11)
    path = tmp_path_factory.mktemp("store") / "run.aptrc"
    ap.export_archive(path, meta={"app": "cli-fixture", "scale": 0})
    return ap, path


def test_export_archive_meta(profiled_run):
    _ap, path = profiled_run
    with Archive(path) as archive:
        assert archive.meta["app"] == "cli-fixture"
        assert archive.meta["nodes"] == 2
        assert archive.meta["pes_per_node"] == 4
        assert archive.spec().n_pes == 8
        assert set(archive.sections) == {"logical", "physical", "papi",
                                         "overall"}


def test_logical_roundtrip_exact(profiled_run):
    ap, path = profiled_run
    with Archive(path) as archive:
        got = load_logical(archive)
    assert got._counts == ap.logical._counts
    assert got._ticks == ap.logical._ticks
    assert got.sample_interval == ap.logical.sample_interval
    assert got.spec == ap.logical.spec
    assert (got.matrix() == ap.logical.matrix()).all()
    assert (got.bytes_matrix() == ap.logical.bytes_matrix()).all()


def test_physical_roundtrip_exact(profiled_run):
    ap, path = profiled_run
    with Archive(path) as archive:
        got = load_physical(archive)
    assert got._counts == ap.physical._counts
    assert got.n_pes == ap.physical.n_pes
    assert (got.matrix() == ap.physical.matrix()).all()
    assert got.counts_by_type() == ap.physical.counts_by_type()


def test_papi_roundtrip_exact(profiled_run):
    ap, path = profiled_run
    with Archive(path) as archive:
        got = load_papi(archive)
    assert got.events == ap.papi_trace.events
    assert got.spec == ap.papi_trace.spec
    for pe in range(got.n_pes):
        assert got.rows(pe) == ap.papi_trace.rows(pe)
    for region in ("MAIN", "PROC"):
        assert (got.region_totals[region]
                == ap.papi_trace.region_totals[region]).all()


def test_overall_roundtrip_exact(profiled_run):
    ap, path = profiled_run
    with Archive(path) as archive:
        got = load_overall(archive)
    assert (got.t_main == ap.overall.t_main).all()
    assert (got.t_proc == ap.overall.t_proc).all()
    assert (got.t_total == ap.overall.t_total).all()
    assert (got.t_comm() == ap.overall.t_comm()).all()


def test_load_run_collects_all_kinds(profiled_run):
    _ap, path = profiled_run
    traces = load_run(path)
    assert traces.kinds() == ("logical", "physical", "papi", "overall")
    assert traces.meta["app"] == "cli-fixture"


def test_export_run_subset(tmp_path):
    overall = OverallProfile(4)
    overall.add_main(0, 10)
    overall.add_total(0, 100)
    path = export_run(tmp_path / "o.aptrc", overall=overall)
    traces = load_run(path)
    assert traces.kinds() == ("overall",)
    assert traces.meta["n_pes"] == 4


def test_export_run_needs_a_trace(tmp_path):
    with pytest.raises(ArchiveError, match="at least one trace"):
        export_run(tmp_path / "x.aptrc")


# ----------------------------------------------------------------------
# archive-backed queries: identical results, column-pruned reads
# ----------------------------------------------------------------------

QUERIES_LOGICAL = [
    "sends",
    "bytes",
    "sends where src == 0",
    "sends where src_node != dst_node",
    "bytes where size >= 8 group by src",
    "sends group by dst top 3",
    "sends where dst == src",
]

QUERIES_PHYSICAL = [
    "ops",
    "bytes",
    "ops where kind == local_send",
    "ops where kind != nonblock_progress group by kind",
    "bytes group by dst top 2",
    "ops where kind == no_such_kind",
]


@pytest.mark.parametrize("query", QUERIES_LOGICAL)
def test_archive_query_matches_in_memory_logical(profiled_run, query):
    ap, path = profiled_run
    with Archive(path) as archive:
        assert query_trace(archive.section("logical"), query) \
            == query_trace(ap.logical, query)


@pytest.mark.parametrize("query", QUERIES_PHYSICAL)
def test_archive_query_matches_in_memory_physical(profiled_run, query):
    ap, path = profiled_run
    with Archive(path) as archive:
        assert query_trace(archive.section("physical"), query) \
            == query_trace(ap.physical, query)


def test_query_reads_only_needed_columns(profiled_run):
    """The acceptance criterion: untouched sections stay un-decoded."""
    _ap, path = profiled_run
    with Archive(path) as archive:
        assert query_trace(archive.section("logical"), "sends") > 0
        assert query_trace(archive.section("logical"), "bytes") > 0
        # un-predicated aggregates are answered from footer chunk sums:
        # no payload bytes decoded at all
        assert archive.decoded_columns == set()
        query_trace(archive.section("logical"), "sends where src == 0")
        assert archive.decoded_columns == {("logical", "count"),
                                           ("logical", "src")}
        # physical / papi / overall sections were never touched
        touched_sections = {s for s, _c in archive.decoded_columns}
        assert touched_sections == {"logical"}


def test_pushdown_off_matches_pushdown_on(profiled_run):
    _ap, path = profiled_run
    with Archive(path) as archive:
        for target, queries in (("logical", QUERIES_LOGICAL),
                                ("physical", QUERIES_PHYSICAL)):
            for query in queries:
                section = archive.section(target)
                assert query_trace(section, query, pushdown=False) \
                    == query_trace(section, query)


def test_query_on_archive_object_is_an_error(profiled_run):
    from repro.core.query import QueryError

    _ap, path = profiled_run
    with Archive(path) as archive:
        with pytest.raises(QueryError, match="section"):
            query_trace(archive, "sends")


def test_kind_field_missing_on_logical_section(profiled_run):
    from repro.core.query import QueryError

    _ap, path = profiled_run
    with Archive(path) as archive:
        with pytest.raises(QueryError, match="does not exist"):
            query_trace(archive.section("logical"), "sends where kind == local_send")


# ----------------------------------------------------------------------
# heatmap parity (acceptance criterion)
# ----------------------------------------------------------------------

def test_heatmap_svg_identical_from_archive(profiled_run):
    from repro.core.viz.heatmap import heatmap_svg

    ap, path = profiled_run
    traces = load_run(path)
    assert heatmap_svg(traces.logical.matrix()) \
        == heatmap_svg(ap.logical.matrix())
    assert heatmap_svg(traces.physical.matrix()) \
        == heatmap_svg(ap.physical.matrix())
