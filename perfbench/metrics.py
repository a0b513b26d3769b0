"""From a workload's recorded samples to the named metrics.

Host times, every workload:

* ``turnaround_s``: host seconds of one whole unit of the workload's
  work.  For ``casestudy`` / ``fine_grained`` one profiled run (the mean
  over configurations of each configuration's median); for ``explore``
  / ``serve`` one operation of each kind, the sum of per-kind medians.
* ``read_ms``: mean over read kinds of each kind's median latency.
* ``write_ms``: median latency of one write (archive export, or push).
* ``ops_per_s``: completed operations per second of the untraced part
  of the timed loop.

The end-to-end metrics (untraced runs) state turnaround, read and
throughput in calib units: every time sample divided by the host
calibration current when it was taken (see :func:`harness.calib_ms`),
and the same medians over those: ``turnaround_calib``, ``read_calib``
and ``ops_per_calib`` (operations per calib unit of loop time); the
write latency enters them through turnaround and throughput (see
README.md for why it is not bounded on its own); plus
``setup_s`` (median of the repeated set-up, in seconds of the reference
host, see :func:`harness.timed_setup`), ``ok_ratio`` (completed /
attempted operations) and ``peak_rss_mb`` (peak RSS of the benchmark
process).

Per-layer metrics (traced runs) are per operation unless the name says
otherwise; layers a workload does not exercise read 0.
"""

from __future__ import annotations

from pathlib import Path

from harness import (VIEWS, DigestBook, Recorder, mean_of_medians, median,
                     pin_to_one_cpu, tail)
from tracer import LAYERS

SEND_KINDS = ("local_send", "nonblock_send", "nonblock_progress")
SHMEM_OPS = ("shmem_putmem_nbi", "shmem_quiet", "shmem_put", "memcpy")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tmp: Path, rec: Recorder, book: DigestBook):
    """Set up, run and summarize one workload → (metric values, extra).

    The single-client workloads run pinned to one CPU (see
    :func:`harness.pin_to_one_cpu`); ``serve`` splits the CPUs between
    its clients and the service process (:func:`serving.split_cpus`).
    """
    cpu = pin_to_one_cpu() if workload != "serve" else None
    if workload in ("casestudy", "fine_grained"):
        import pipeline

        rec.calib_numeric = False
        state = pipeline.setup(workload, seed, tmp, rec)
        counts = pipeline.run(state, seconds, rec, book, trace)
        values = _pipeline_values(state, rec, counts)
        times = _pipeline_times(state)
    elif workload == "explore":
        import explore

        state = explore.setup(seed, tmp, rec)
        counts = explore.run(state, seconds, rec, book, trace)
        values = _explore_values(rec, counts)
        times = _explore_times
    else:
        import serving

        state = serving.setup(seed, tmp, rec)
        try:
            counts = serving.run(state, seconds, rec, trace)
        finally:
            serving.stop(state)
        values = _serve_values(rec, counts)
        times = _serve_times
    turnaround, read, write = times(rec.samples)
    values.update({"turnaround_s": turnaround, "read_ms": read * 1e3,
                   "write_ms": write * 1e3})
    turnaround, read, _ = times(rec.calib_samples)
    values.update({"turnaround_calib": turnaround, "read_calib": read})
    values.update(_common(rec, trace))
    extra = {"input_digest": state.input_digest,
             "notes": {"tails": _tails(rec), "pinned_cpu": cpu,
                       "repeat_share": counts.get("repeat_share")}}
    return values, extra


# -- shared -----------------------------------------------------------------

def _med(samples: dict, name: str, scale: float = 1.0) -> float:
    values = samples.get(name)
    return median(values) * scale if values else 0.0


#: Sample sets smaller than this are left out of a kind's time (unless
#: all are): a variant that occurs only by chance, such as a diff issued
#: before the first push, would otherwise come and go between runs.
MIN_SET = 5


def _kind(samples: dict, prefix: str) -> float:
    """Mean of the medians of the sample sets named ``prefix...``."""
    names = sorted(k for k in samples if k.startswith(prefix))
    common = [k for k in names if len(samples[k]) >= MIN_SET]
    return mean_of_medians(samples, common or names)


def _tails(rec: Recorder) -> dict:
    out = {}
    for name in ("turnaround_s", "read_all_s"):
        t = tail(rec.samples.get(name, []))
        if t is not None:
            out[name] = {"value": t[0], "percentile": t[1],
                         "samples": len(rec.samples[name])}
    return out


def _common(rec: Recorder, trace: bool) -> dict:
    """Metrics every workload reports the same way."""
    out = {
        "setup_s": _med(rec.samples, "setup_s"),
        "setup_raw_s": _med(rec.samples, "setup_raw_s"),
        "ok_ratio": (rec.attempted - rec.failed) / max(rec.attempted, 1),
        "failed_ratio": rec.failed / max(rec.attempted, 1),
        "ops_per_s": rec.untraced_ops / rec.untraced_s
        if rec.untraced_s else 0.0,
        "ops_per_calib": rec.untraced_ops / rec.untraced_calib
        if rec.untraced_calib else 0.0,
        "host.calib_ms": _med(rec.samples, "host.calib_ms"),
    }
    for name, src in (("turnaround_s.tail", "turnaround_s"),
                      ("read_ms.tail", "read_all_s")):
        t = tail(rec.samples.get(src, []))
        scale = 1e3 if name.startswith("read") else 1.0
        out[name] = t[0] * scale if t is not None else 0.0
    if trace:
        traced = rec.samples.get("op_s.traced", [])
        untraced = rec.samples.get("op_s.untraced", [])
        out["trace.overhead_ratio"] = (
            (sum(traced) / len(traced)) / (sum(untraced) / len(untraced))
            if traced and untraced else 0.0)
        ops = max(rec.traced_ops, 1)
        out["unattributed_s"] = rec.unattributed / ops
        for layer in LAYERS:
            out[f"{layer}.self_s"] = rec.per_op_self(layer)
        for span in ("sim.sched", "hclib.send", "hclib.handler",
                     "conveyors.push", "conveyors.pull", "conveyors.advance",
                     "machine.work", "machine.charge_block",
                     "profiler.hooks"):
            out[f"{span}.self_s"] = rec.per_op_self(span)
        out["store.lod_build_s"] = rec.per_op_self("store.lod_build")
        out["store.open_s"] = rec.per_op_self("store.open")
        out["store.decode_s"] = rec.per_op_self("store.decode")
        out["store.columns_decoded"] = (
            rec.span_calls.get("store.decode", 0) / ops)
        out["profiler.hook_calls"] = (
            rec.span_calls.get("profiler.hooks", 0) / ops)
        lod_calls = rec.span_calls.get("lod.window", 0)
        out["lod.window_ms"] = (
            rec.span_self.get("lod.window", 0.0) / lod_calls * 1e3
            if lod_calls else 0.0)
        out["app.self_s"] = rec.per_op_self("app")
    return out


def _zero_layer_values() -> dict:
    """Per-layer metrics a workload may not exercise start at 0."""
    names = [
        "sim.wall_s", "sim.handoffs", "sim.selections", "sim.pred_evals",
        "sim.yield_fast", "sim.handoffs_per_s", "hclib.world_s",
        "hclib.sends", "conveyors.pushes", "conveyors.push_fails",
        "conveyors.push_ok_ratio", "conveyors.bytes_sent",
        "conveyors.items_per_buffer", "shmem.bytes",
        "machine.t_total_cycles", "machine.t_main_cycles",
        "machine.t_comm_cycles", "machine.t_proc_cycles", "papi.tot_ins",
        "profiler.timeline_spans", "store.export_s", "store.archive_bytes",
        "store.chunks_pruned_ratio", "diff.ms",
        "serve.artifact_hit_ratio", "serve.rejected_429", "serve.errors",
        "serve.workers.dispatched", "serve.server_peak_rss_mb",
    ]
    names += [f"conveyors.buffers.{k}" for k in SEND_KINDS]
    names += [f"shmem.calls.{op}" for op in SHMEM_OPS]
    names += [f"query.eval_ms.{k}" for k in ("stats", "pushdown",
                                             "full_decode")]
    names += [f"viz.render_ms.{v}" for v in VIEWS]
    names += [f"viz.svg_bytes.{v}" for v in VIEWS]
    names += [f"serve.{r}.ms" for r in ("push", "query", "viz", "diff")]
    return {name: 0.0 for name in names}


# -- casestudy / fine_grained -----------------------------------------------

PIPELINE_READS = ("stats", "pushdown", "full_decode") + VIEWS


def _pipeline_times(state):
    """(turnaround, read, write) of a sample set: the mean over
    configurations of each one's median run and export, and the mean
    over read kinds and configurations of each pair's median (the
    configurations' reads differ in size, so a median across them would
    jump between them)."""
    names = [cfg.name for cfg in state.configs]
    reads = [f"read.{k}.{n}" for k in PIPELINE_READS for n in names]

    def times(samples: dict) -> tuple[float, float, float]:
        return (
            mean_of_medians(samples, [f"turnaround_s.{n}" for n in names]),
            mean_of_medians(samples, reads),
            mean_of_medians(samples, [f"write_s.{n}" for n in names]))

    return times


def _pipeline_values(state, rec: Recorder, counts: dict) -> dict:
    samples = rec.samples
    for kind in PIPELINE_READS:
        samples["read_all_s"].extend(samples.get(f"read.{kind}", []))
    out = _zero_layer_values()
    out.update({
        "sim.wall_s": _med(samples, "sim.wall_s"),
        "hclib.world_s": _med(samples, "hclib.world_s"),
        "store.export_s": _med(samples, "write_s"),
    })
    for kind in ("stats", "pushdown", "full_decode"):
        out[f"query.eval_ms.{kind}"] = _med(samples, f"read.{kind}", 1e3)
    for view in VIEWS:
        out[f"viz.render_ms.{view}"] = _med(samples, f"read.{view}", 1e3)
    if not counts:
        return out
    per = list(counts.values())
    n = len(per)

    def mean(key):
        return sum(c[key] for c in per) / n

    for key in ("sim.handoffs", "sim.selections", "sim.pred_evals",
                "sim.yield_fast", "hclib.sends", "machine.t_total_cycles",
                "machine.t_main_cycles", "machine.t_proc_cycles",
                "machine.t_comm_cycles", "papi.tot_ins",
                "profiler.timeline_spans", "store.archive_bytes"):
        out[key] = mean(key)
    out["sim.handoffs_per_s"] = out["sim.handoffs"] / out["sim.wall_s"] \
        if out["sim.wall_s"] else 0.0
    for kind in SEND_KINDS:
        out[f"conveyors.buffers.{kind}"] = sum(
            c["buffers"].get(kind, 0) for c in per) / n
    for view in VIEWS:
        out[f"viz.svg_bytes.{view}"] = sum(
            c["svg_bytes"][view] for c in per) / n
    pushes, fails = mean("pushes"), mean("push_fails")
    out["conveyors.pushes"] = pushes
    out["conveyors.push_fails"] = fails
    out["conveyors.push_ok_ratio"] = pushes / (pushes + fails) \
        if pushes + fails else 0.0
    out["conveyors.bytes_sent"] = mean("bytes_sent")
    buffers = out["conveyors.buffers.local_send"] + \
        out["conveyors.buffers.nonblock_send"]
    out["conveyors.items_per_buffer"] = pushes / buffers if buffers else 0.0
    for op in SHMEM_OPS:
        out[f"shmem.calls.{op}"] = sum(
            c["shmem_calls"].get(op, 0) for c in per) / n
    out["shmem.bytes"] = mean("shmem_bytes")
    return out


# -- explore ----------------------------------------------------------------

def _explore_times(samples: dict) -> tuple[float, float, float]:
    """(turnaround, read, write): one operation of each kind, the mean
    over read kinds, and the median write; a read kind's time is the
    mean of its variants' medians (see :func:`explore.variant`)."""
    import explore

    reads = [_kind(samples, f"read.{k}.") for k in explore.READ_KINDS]
    write = _med(samples, "write")
    return sum(reads) + write, sum(reads) / len(reads), write


def _explore_values(rec: Recorder, counts: dict) -> dict:
    import explore

    samples = rec.samples
    for kind in explore.READ_KINDS:
        samples["read_all_s"].extend(samples.get(f"read.{kind}", []))
    out = _zero_layer_values()
    out.update({
        "store.export_s": _med(samples, "write"),
        "store.archive_bytes": _med(samples, "store.archive_bytes"),
        "diff.ms": _med(samples, "diff.ms"),
    })
    for kind in ("stats", "pushdown", "full_decode"):
        out[f"query.eval_ms.{kind}"] = _med(samples, f"query.eval_ms.{kind}")
    for view in VIEWS:
        out[f"viz.render_ms.{view}"] = _med(samples, f"viz.render_ms.{view}")
        out[f"viz.svg_bytes.{view}"] = _med(samples, f"viz.svg_bytes.{view}")
    if counts.get("chunks_total"):
        out["store.chunks_pruned_ratio"] = (
            counts["chunks_pruned"] / counts["chunks_total"])
    return out


# -- serve ------------------------------------------------------------------

SERVE_READS = ("query", "viz", "diff")


def _serve_times(samples: dict) -> tuple[float, float, float]:
    """(turnaround, read, write): one request of each kind, the mean
    over read kinds, and the push.  A kind's time is the mean of the
    hit and miss medians of each of its variants
    (:func:`serving.variant`): latencies are bimodal (artifact-store hit
    or miss, dedup or new push), so a median across both modes would
    jump between them."""
    reads = [_kind(samples, f"read.{k}.") for k in SERVE_READS]
    write = _kind(samples, "write.")
    return sum(reads) + write, sum(reads) / len(reads), write


def _serve_values(rec: Recorder, counts: dict) -> dict:
    samples = rec.samples
    for kind in SERVE_READS:
        samples["read_all_s"].extend(samples.get(f"read.{kind}", []))
    out = _zero_layer_values()
    for kind in SERVE_READS:
        out[f"serve.{kind}.ms"] = _kind(samples, f"read.{kind}.") * 1e3
    out["serve.push.ms"] = _kind(samples, "write.") * 1e3
    for key in ("serve.artifact_hit_ratio", "serve.rejected_429",
                "serve.errors", "serve.workers.dispatched",
                "serve.server_peak_rss_mb"):
        out[key] = float(counts.get(key, 0.0))
    return out
