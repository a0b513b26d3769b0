"""Benchmark: LOD viz rendering vs full event decode.

The tentpole claim behind the ``/runs/{id}/viz/*`` endpoints: a
viewport render answers from the pyramid sections alone — O(viewport
resolution) — while the pre-LOD path decodes every raw event column,
O(trace size).  This benchmark builds synthetic ``.aptrc`` archives at
250k / 500k / 1M send rows (the shape spilled traces have), backfills
pyramids, and times both paths rendering the same heatmap.

Two full-decode baselines are timed: the *legacy* path (``load_run``
trace materialization + ``matrix()`` — what rendering a heatmap from
an archive cost before the pyramid existed) and the *vectorized* path
(``Frame`` column decode + scatter, the best a non-LOD render can do
today).  Acceptance bars asserted here:

* at 1M rows the LOD render is >= 20x faster than the legacy
  full-decode render, and faster than the vectorized decode too,
* the LOD render touches *only* ``lod_*`` columns (decode spy),
* LOD render time is ~flat across trace sizes (<= 3x from 250k to 1M)
  while the full decode grows with the row count.

A second case renders a wide machine: a 256-PE synthetic pyramid,
whose gantt (O(n_pes * res) rects) and heatmap (O(n_pes^2) cells)
views are timed through ``run.viz`` — the cost that grows with PE count
rather than trace size.

Numbers land in ``benchmarks/output/BENCH_viz_lod.json``, one key per
case (``trace_size``, ``wide_machine``), each under its own metadata
header (commit, src sha256, host, nproc, Python/numpy) with its reps.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_viz_lod.py -v -s
"""

from __future__ import annotations

import json
import time

import numpy as np

from conftest import bench_header, spread

import repro.api as api
from repro.core.store.archive import Archive
from repro.core.store.frame import Frame, scatter_matrix
from repro.core.store.lod import backfill_pyramid, build_pyramid, write_pyramid
from repro.core.store.writer import ArchiveWriter
from repro.core.timeline import TimelineTrace
from repro.core.viz import heatmap_svg

N_PES = 32
SIZES = [250_000, 500_000, 1_000_000]
SPEEDUP_BAR = 20.0
FLATNESS_BAR = 3.0
WIDE_PES = 256
WIDE_REPS = 5


def build_archive(path, n_rows):
    """Synthetic logical + overall sections, ``n_rows`` send rows."""
    meta = {"nodes": 4, "pes_per_node": N_PES // 4, "n_pes": N_PES}
    n_chunks = max(n_rows // 125_000, 1)
    per_chunk = n_rows // n_chunks
    dst = np.arange(per_chunk, dtype=np.int64) % N_PES
    sizes = np.resize(np.asarray([8, 16, 32, 64], dtype=np.int64),
                      per_chunk)
    count = np.ones(per_chunk, dtype=np.int64)
    with ArchiveWriter(path, meta=meta) as writer:
        section = writer.begin_section(
            "logical", ("src", "dst", "size", "count"), attrs=meta)
        for i in range(n_chunks):
            section.write_chunk({
                "src": np.full(per_chunk, i % N_PES, dtype=np.int64),
                "dst": dst, "size": sizes, "count": count,
            })
        section.end()
        writer.add_section("overall", {
            "t_main": np.full(N_PES, 1000, dtype=np.int64),
            "t_proc": np.full(N_PES, 2000, dtype=np.int64),
            "t_total": np.full(N_PES, 10_000, dtype=np.int64),
        }, attrs={"n_pes": N_PES})
    return path


def write_bench(outdir, case, row):
    """Store one measured case in BENCH_viz_lod.json under its own
    metadata header, keeping the other cases (and their headers) as
    they were, so rerunning one case never relabels another."""
    out = outdir / "BENCH_viz_lod.json"
    try:
        payload = json.loads(out.read_text())
    except (OSError, ValueError):
        payload = {}
    payload[case] = {"header": bench_header(), **row}
    out.write_text(json.dumps(payload, indent=2) + "\n")


def build_wide_archive(path, n_pes=WIDE_PES, horizon=400_000):
    """An archive holding only a time-resolved pyramid for ``n_pes``
    PEs: seeded MAIN/PROC bursts under one FINISH span per PE, and a
    seeded message stream between random PE pairs."""
    rng = np.random.default_rng(n_pes)
    timeline = TimelineTrace(n_pes)
    for pe in range(n_pes):
        timeline.add_span(pe, "FINISH", 0, horizon)
        starts = np.sort(rng.integers(0, horizon - 4000, size=48)).tolist()
        lengths = rng.integers(20, 4000, size=48).tolist()
        for i, (start, length) in enumerate(zip(starts, lengths)):
            timeline.add_span(pe, "PROC" if i % 3 == 0 else "MAIN",
                              start, start + length)
    n_msgs = 16 * n_pes
    for t, src, dst in zip(rng.integers(0, horizon, n_msgs).tolist(),
                           rng.integers(0, n_pes, n_msgs).tolist(),
                           rng.integers(0, n_pes, n_msgs).tolist()):
        timeline.add_net_event(t, "nonblock_send", src, dst, 64)
    meta = {"nodes": n_pes // 4, "pes_per_node": 4, "n_pes": n_pes}
    with ArchiveWriter(path, meta=meta) as writer:
        write_pyramid(writer, build_pyramid(timeline))
    return path


def test_wide_machine_render(tmp_path, outdir):
    """The views whose size grows with the PE count, at 256 PEs."""
    path = build_wide_archive(tmp_path / "wide.aptrc")
    views = {}
    with api.open_run(path) as run:
        for view in ("heatmap", "gantt"):
            samples, svg = [], ""
            for _ in range(WIDE_REPS):
                t0 = time.perf_counter()
                svg = run.viz(view)
                samples.append((time.perf_counter() - t0) * 1e3)
            assert svg.startswith("<?xml") and svg.endswith("</svg>\n")
            assert f"PE{WIDE_PES - 1}" in svg
            views[view] = {"render_ms": spread(samples),
                           "svg_bytes": len(svg.encode())}
        touched = {section for section, _ in run.archive.decoded_columns}
    assert touched <= {"lod_pe", "lod_edge"}
    write_bench(outdir, "wide_machine",
                {"n_pes": WIDE_PES, "reps": WIDE_REPS, "views": views})
    for view, row in views.items():
        print(f"{WIDE_PES} PEs {view:>8}: median "
              f"{row['render_ms']['median']:7.1f} ms  "
              f"{row['svg_bytes'] / 1e6:5.2f} MB")


def timed_lod_render(path):
    """The endpoint path: pyramid sections only."""
    with api.open_run(path) as run:
        t0 = time.perf_counter()
        svg = run.viz("heatmap")
        elapsed = time.perf_counter() - t0
        decoded = set(run.archive.decoded_columns)
    return svg, elapsed, decoded


def timed_full_decode_render(path):
    """Today's best non-LOD render: vectorized column decode + scatter,
    then the same chart."""
    with Archive(path) as archive:
        t0 = time.perf_counter()
        frame = Frame(archive.section("logical"))
        src, dst = frame.column("src"), frame.column("dst")
        count = frame.column("count")
        matrix = scatter_matrix(src, dst, count, (N_PES, N_PES))
        svg = heatmap_svg(matrix, title="full decode",
                          xlabel="destination PE", ylabel="source PE")
        elapsed = time.perf_counter() - t0
    return svg, matrix, elapsed


def timed_legacy_render(path):
    """The pre-LOD serving path: materialize the traces (``load_run``),
    then render from the in-memory logical trace."""
    from repro.core.store.archive import load_run

    t0 = time.perf_counter()
    run = load_run(path)
    matrix = run.logical.matrix()
    heatmap_svg(matrix, title="legacy", xlabel="destination PE",
                ylabel="source PE")
    return time.perf_counter() - t0


def test_lod_render_is_flat_while_full_decode_is_linear(tmp_path, outdir):
    results = []
    for n_rows in SIZES:
        path = build_archive(tmp_path / f"r{n_rows}.aptrc", n_rows)
        backfill_pyramid(path)

        _, _, t_full = timed_full_decode_render(path)
        t_legacy = timed_legacy_render(path)
        svg, t_lod, decoded = timed_lod_render(path)

        assert "<svg" in svg
        touched = {section for section, _ in decoded}
        assert touched <= {"lod_pe", "lod_edge"}, (
            f"LOD render decoded raw event columns: {touched}")
        results.append({"rows": n_rows, "t_lod_s": t_lod,
                        "t_full_decode_s": t_full,
                        "t_legacy_load_s": t_legacy,
                        "speedup_vs_legacy": t_legacy / t_lod,
                        "speedup_vs_full_decode": t_full / t_lod})

    # correctness cross-check at the largest size: the pyramid's edge
    # counts equal the full decode's scatter matrix
    path = tmp_path / f"r{SIZES[-1]}.aptrc"
    _, matrix, _ = timed_full_decode_render(path)
    with api.open_run(path) as run:
        window = run.lod().edge_window(res=1)
        np.testing.assert_array_equal(window.count, matrix)

    largest = results[-1]
    assert largest["speedup_vs_legacy"] >= SPEEDUP_BAR, (
        f"LOD render only {largest['speedup_vs_legacy']:.1f}x faster "
        f"than the legacy full-decode render at {largest['rows']:,} rows "
        f"(bar: {SPEEDUP_BAR}x)")
    assert largest["speedup_vs_full_decode"] > 1.0
    flatness = results[-1]["t_lod_s"] / max(results[0]["t_lod_s"], 1e-9)
    assert flatness <= FLATNESS_BAR, (
        f"LOD render grew {flatness:.1f}x from {SIZES[0]:,} to "
        f"{SIZES[-1]:,} rows — not O(viewport)")

    write_bench(outdir, "trace_size", {
        "n_pes": N_PES,
        "view": "heatmap",
        "speedup_bar": SPEEDUP_BAR,
        "flatness_bar": FLATNESS_BAR,
        "lod_growth_250k_to_1m": flatness,
        "reps": 1,
        "runs": results,
    })
    for row in results:
        print(f"rows={row['rows']:>9,}  lod={row['t_lod_s'] * 1e3:8.2f} ms  "
              f"decode={row['t_full_decode_s'] * 1e3:8.2f} ms  "
              f"legacy={row['t_legacy_load_s'] * 1e3:8.2f} ms  "
              f"speedup={row['speedup_vs_legacy']:7.1f}x")
