"""Benchmark: archive query scan rate at tens of millions of rows.

The ROADMAP target is "tens of millions of send records scan in
seconds".  This benchmark builds a 10M-row synthetic ``.aptrc`` archive
(64 row groups, delta-friendly columns — the shape real spilled traces
have) and measures rows/sec through three evaluation paths:

* **row-walk** — the pre-vectorization baseline: per-byte Python varint
  decode and per-row trace materialization (``load_run``), then
  in-memory evaluation of the (merged, far smaller) trace;
  measured on a 1/8-scale slice of the same data and reported as
  rows/sec (the full 10M rows would need GBs of dict overhead, which is
  itself part of why this path had to go),
* **vectorized** — numpy LEB128 decode + bincount aggregation over the
  full 10M-row archive, with chunk-stat pushdown disabled,
* **pushdown** — the same archive and full row count, with footer chunk
  stats pruning row groups and answering un-predicated aggregates.

Acceptance bars asserted here: the pushdown scan clears >= 10x the
row-walk baseline's rows/sec on the 10M-row archive, the vectorized
full-decode scan beats the baseline too, and un-predicated aggregates
decode *zero* payload bytes.  Numbers land in
``benchmarks/output/BENCH_query_scale.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_query_scale.py -v -s
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core.query import query_trace
from repro.core.store import codec
from repro.core.store.archive import Archive, load_run
from repro.core.store.writer import ArchiveWriter

N_ROWS = 10_000_000
N_CHUNKS = 64
N_PES = 64
#: The row-walk baseline materializes Python dicts; measure it on a
#: 1/8-scale slice and compare rows/sec.
SLICE_DIV = 8
FULL_SCAN_QUERY = "bytes where size >= 16 group by src"
PRUNED_SCAN_QUERY = "sends where src == 3 group by dst"


def build_archive(path, n_rows=N_ROWS, n_chunks=N_CHUNKS):
    """Synthetic send rows across sorted row groups.

    Each row group carries one source PE (as a spilling profiler's
    sorted partial aggregates do), so ``src`` stats make per-PE
    predicates prunable and every delta stream is 1-byte dominated.
    """
    meta = {"nodes": 4, "pes_per_node": N_PES // 4, "n_pes": N_PES}
    per_chunk = n_rows // n_chunks
    sizes = np.resize(np.asarray([8, 16, 32, 64], dtype=np.int64), per_chunk)
    dst = np.arange(per_chunk, dtype=np.int64) % N_PES
    count = np.ones(per_chunk, dtype=np.int64)
    with ArchiveWriter(path, meta=meta) as writer:
        section = writer.begin_section(
            "logical", ("src", "dst", "size", "count"), attrs=meta)
        for i in range(n_chunks):
            section.write_chunk({
                "src": np.full(per_chunk, i % N_PES, dtype=np.int64),
                "dst": dst,
                "size": sizes,
                "count": count,
            })
        section.end()
    return path


def timed_query(path, query, pushdown):
    with Archive(path) as archive:
        t0 = time.perf_counter()
        result = query_trace(archive.section("logical"), query,
                             pushdown=pushdown)
        elapsed = time.perf_counter() - t0
        decoded = set(archive.decoded_columns)
    return result, elapsed, decoded


def row_walk_baseline(path, query):
    """The pre-vectorization pipeline: scalar varint decode feeding
    ``load_run``'s per-row trace reconstruction, then in-memory eval."""
    real = codec.decode_uvarints
    codec.decode_uvarints = codec.decode_uvarints_scalar
    try:
        t0 = time.perf_counter()
        traces = load_run(path)
        result = query_trace(traces.logical, query)
        elapsed = time.perf_counter() - t0
    finally:
        codec.decode_uvarints = real
    return result, elapsed


def test_query_scale_10m_rows(tmp_path, outdir):
    path = build_archive(tmp_path / "scale.aptrc")
    slice_rows = N_ROWS // SLICE_DIV
    slice_path = build_archive(tmp_path / "slice.aptrc",
                               n_rows=slice_rows,
                               n_chunks=N_CHUNKS // SLICE_DIV)

    # -- row-walk baseline (scalar decode + trace materialization) ----
    walk_result, t_walk = row_walk_baseline(slice_path, FULL_SCAN_QUERY)
    walk_rows_per_s = slice_rows / t_walk

    # -- vectorized full-decode scan over all 10M rows ----------------
    vec_result, t_vec, _ = timed_query(path, FULL_SCAN_QUERY,
                                       pushdown=False)
    vec_rows_per_s = N_ROWS / t_vec
    # each src owns one identically-shaped row group in both archives,
    # so per-src sums agree on the srcs the slice covers
    vec_by_src = dict(vec_result)
    assert all(vec_by_src[src] == total for src, total in walk_result)
    assert vec_rows_per_s > walk_rows_per_s, (
        f"vectorized scan ({vec_rows_per_s:,.0f} rows/s) does not beat "
        f"the row-walk baseline ({walk_rows_per_s:,.0f} rows/s)"
    )

    # -- pushdown: selective predicate skips 63 of 64 row groups ------
    pruned_result, t_pruned, _ = timed_query(
        path, PRUNED_SCAN_QUERY, pushdown=True)
    full_result, t_full, _ = timed_query(
        path, PRUNED_SCAN_QUERY, pushdown=False)
    assert pruned_result == full_result
    pushdown_rows_per_s = N_ROWS / t_pruned
    speedup = pushdown_rows_per_s / walk_rows_per_s
    assert speedup >= 10, (
        f"pushdown scan is only {speedup:.1f}x the row-walk baseline "
        f"({pushdown_rows_per_s:,.0f} vs {walk_rows_per_s:,.0f} rows/s)"
    )

    # -- pushdown: un-predicated aggregates decode nothing ------------
    with Archive(path) as archive:
        section = archive.section("logical")
        t0 = time.perf_counter()
        total_sends = query_trace(section, "sends")
        total_bytes = query_trace(section, "bytes")
        t_sums = time.perf_counter() - t0
        assert archive.decoded_columns == set(), archive.decoded_columns
    per_chunk_sizes = np.resize(
        np.asarray([8, 16, 32, 64], dtype=np.int64), N_ROWS // N_CHUNKS)
    assert total_sends == N_ROWS
    assert total_bytes == int(per_chunk_sizes.sum()) * N_CHUNKS

    bench = {
        "bench": "query_scale",
        "rows": N_ROWS,
        "row_groups": N_CHUNKS,
        "archive_bytes": path.stat().st_size,
        "row_walk": {
            "query": FULL_SCAN_QUERY,
            "rows": slice_rows,
            "seconds": round(t_walk, 4),
            "rows_per_s": round(walk_rows_per_s),
        },
        "vectorized": {
            "query": FULL_SCAN_QUERY,
            "rows": N_ROWS,
            "seconds": round(t_vec, 4),
            "rows_per_s": round(vec_rows_per_s),
            "speedup_vs_row_walk": round(vec_rows_per_s / walk_rows_per_s, 2),
        },
        "pushdown": {
            "query": PRUNED_SCAN_QUERY,
            "rows": N_ROWS,
            "seconds": round(t_pruned, 6),
            "rows_per_s": round(pushdown_rows_per_s),
            "speedup_vs_row_walk": round(speedup, 2),
            "full_decode_seconds": round(t_full, 4),
            "unpredicated_aggregates": {
                "queries": ["sends", "bytes"],
                "seconds": round(t_sums, 6),
                "payload_columns_decoded": 0,
            },
        },
    }
    out = outdir / "BENCH_query_scale.json"
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"\n{N_ROWS:,} rows: row-walk {walk_rows_per_s / 1e6:.2f} Mrows/s, "
          f"vectorized {vec_rows_per_s / 1e6:.2f} Mrows/s "
          f"({vec_rows_per_s / walk_rows_per_s:.1f}x), "
          f"pushdown {pushdown_rows_per_s / 1e6:.1f} Mrows/s "
          f"({speedup:.0f}x), footer sums in {t_sums * 1e3:.1f} ms "
          f"→ {out}")
