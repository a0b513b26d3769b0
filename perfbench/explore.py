"""``explore``: interactive analysis of stored runs, simulator idle.

Set-up writes two seeded power-law archives of 2^20 logical rows each,
with physical/overall sections and a time-resolved LOD pyramid, through
the public writer (``ArchiveWriter`` + ``build_pyramid`` +
``write_pyramid``).  One closed-loop client then runs a fixed seeded mix
of reads and writes.  Every read opens its run through
``repro.api.open_run`` (as the CLI and the service tasks do), so no
decode cache survives between reads.

Read kinds: ``stats`` (aggregates answered from footer stats),
``pushdown`` (predicates that prune row groups), ``full_decode``
(group-bys and predicates no chunk statistic can prune), ``diff`` (the
two archives) and ``viz`` (LOD views at seeded viewports).  Writes:
``export_run(..., lod=True)`` of a pre-generated in-memory trace, so a
change that speeds decoding by slowing encoding shows here.
"""

from __future__ import annotations

import random
import re
import time
from pathlib import Path

import numpy as np

import repro.api as api
import repro.core.store as store
from repro.core.logical import LogicalTrace
from repro.core.overall import OverallProfile
from repro.core.physical import SEND_TYPES, PhysicalTrace
from repro.core.store.frame import Frame, scatter_matrix
from repro.core.timeline import TimelineTrace
from repro.machine.spec import MachineSpec

from harness import (VIEWS, DigestBook, Recorder, check, sha256_file,
                     timed_setup)

NODES, PES_PER_NODE = 8, 16
N_PES = NODES * PES_PER_NODE
ROWS = 1 << 20
CHUNKS = 16
NET_EVENTS = 60_000
HORIZON = 1 << 22
SPANS_PER_PE = 48
SETUP_REPEATS = 3

READ_KINDS = ("stats", "pushdown", "full_decode", "diff", "viz")
#: Ops of one cycle (shuffled per cycle from the seed): one of each
#: kind.  The repository holds no record of how runs are explored, so
#: no kind is weighted over another (see README.md).
MIX = READ_KINDS + ("write",)


def _power_law(rng: np.random.Generator, n: int, size: int,
               alpha: float) -> np.ndarray:
    """``size`` draws over ``range(n)`` with a seeded power-law skew."""
    weights = 1.0 / np.arange(1, n + 1) ** alpha
    perm = rng.permutation(n)
    return perm[rng.choice(n, size=size, p=weights / weights.sum())]


def _net_events(rng: np.random.Generator, n_events: int, n_pes: int):
    t = np.sort(rng.integers(0, HORIZON, n_events))
    src = _power_law(rng, n_pes, n_events, 0.8)
    dst = _power_law(rng, n_pes, n_events, 1.1)
    kind = rng.choice(len(SEND_TYPES), size=n_events, p=[0.2, 0.6, 0.2])
    nbytes = np.where(kind == SEND_TYPES.index("nonblock_progress"), 8,
                      rng.choice([256, 512, 1024, 2048], size=n_events))
    return t, src, dst, kind, nbytes


def _timeline(rng: np.random.Generator, n_pes: int, events) -> TimelineTrace:
    timeline = TimelineTrace(n_pes)
    step = HORIZON // SPANS_PER_PE
    for pe in range(n_pes):
        timeline.add_span(pe, "FINISH", 0, HORIZON)
        lens = rng.integers(step // 8, step // 2, size=SPANS_PER_PE)
        for i, length in enumerate(lens.tolist()):
            start = i * step
            region = "MAIN" if i % 2 == 0 else "PROC"
            timeline.add_span(pe, region, start, start + length)
    t, src, dst, kind, nbytes = events
    for ti, s, d, k, b in zip(t.tolist(), src.tolist(), dst.tolist(),
                              kind.tolist(), nbytes.tolist()):
        timeline.add_net_event(ti, SEND_TYPES[k], s, d, b)
    return timeline


def write_archive(path: Path, seed: int, *, nodes: int = NODES,
                  pes_per_node: int = PES_PER_NODE, rows: int = ROWS,
                  chunks: int = CHUNKS, net_events: int = NET_EVENTS,
                  lod: bool = True) -> Path:
    """One synthetic archive: power-law logical rows in src-sorted row
    groups (the shape a spilling profiler writes), physical + overall
    sections, and a time-resolved pyramid built from the same network
    events as the physical section."""
    rng = np.random.default_rng(seed)
    n_pes = nodes * pes_per_node
    machine = {"nodes": nodes, "pes_per_node": pes_per_node,
               "machine_name": "synthetic"}
    per_chunk = rows // chunks
    srcs_per_chunk = n_pes // chunks
    with store.ArchiveWriter(path, meta={**machine, "n_pes": n_pes,
                                         "seed": seed}) as writer:
        section = writer.begin_section(
            "logical", ("src", "dst", "size", "count"),
            attrs={**machine, "sample_interval": 1})
        for c in range(chunks):
            src = np.repeat(np.arange(c * srcs_per_chunk,
                                      (c + 1) * srcs_per_chunk),
                            per_chunk // srcs_per_chunk)
            dst = _power_law(rng, n_pes, len(src), 1.1)
            size = rng.choice([8, 16, 32, 64], size=len(src),
                              p=[0.4, 0.3, 0.2, 0.1])
            count = np.minimum(rng.zipf(2.0, len(src)), 1 << 20)
            order = np.lexsort((size, dst, src))
            section.write_chunk({"src": src[order], "dst": dst[order],
                                 "size": size[order],
                                 "count": count[order]})
        section.end()

        events = _net_events(rng, net_events, n_pes)
        t, src, dst, kind, nbytes = events
        keys, counts = np.unique(np.stack([kind, nbytes, src, dst]),
                                 axis=1, return_counts=True)
        writer.add_section("physical", {
            "kind": keys[0], "size": keys[1], "src": keys[2], "dst": keys[3],
            "count": counts,
        }, attrs={**machine, "n_pes": n_pes, "send_types": list(SEND_TYPES)})
        writer.add_section("overall", {
            "t_main": rng.integers(HORIZON // 8, HORIZON // 4, n_pes),
            "t_proc": rng.integers(HORIZON // 8, HORIZON // 4, n_pes),
            "t_total": np.full(n_pes, HORIZON, dtype=np.int64),
        }, attrs={"n_pes": n_pes})
        if lod:
            store.write_pyramid(writer, store.build_pyramid(
                _timeline(rng, n_pes, events)))
    return path


def write_trace(seed: int) -> dict:
    """The in-memory trace the write operations export (128 PEs)."""
    rng = np.random.default_rng(seed)
    spec = MachineSpec(NODES, PES_PER_NODE)
    logical = LogicalTrace(spec)
    for src in range(N_PES):
        for size in (8, 16):
            logical.record_batch(src, _power_law(rng, N_PES, 400, 1.1), size)
    events = _net_events(rng, 8_000, N_PES)
    physical = PhysicalTrace(N_PES, spec=spec)
    t, src, dst, kind, nbytes = events
    for ti, s, d, k, b in zip(t.tolist(), src.tolist(), dst.tolist(),
                              kind.tolist(), nbytes.tolist()):
        physical.record(SEND_TYPES[k], b, s, d, ti)
    overall = OverallProfile(N_PES)
    for pe in range(N_PES):
        overall.add_main(pe, int(rng.integers(1000, 5000)))
        overall.add_proc(pe, int(rng.integers(1000, 5000)))
        overall.add_total(pe, HORIZON)
    return {"logical": logical, "physical": physical, "overall": overall,
            "timeline": _timeline(rng, N_PES, events)}


class State:
    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.a = tmp / "explore-a.aptrc"
        self.b = tmp / "explore-b.aptrc"
        self.trace: dict = {}
        self.reference: dict = {}
        self.write_sha: str | None = None
        self.input_digest = ""


def setup(seed: int, tmp: Path, rec: Recorder) -> State:
    state = State(seed, tmp)

    def once():
        write_archive(state.a, seed * 2)
        write_archive(state.b, seed * 2 + 1)
        return write_trace(seed + 1_000_003)

    state.trace = timed_setup(rec, SETUP_REPEATS, once)
    state.input_digest = sha256_file(state.a)[:16] + sha256_file(state.b)[:16]
    return state


def check_lod_totals(path: Path) -> None:
    """The pyramid's edge totals equal the physical section's matrix."""
    with api.open_run(path) as run:
        n = run.n_pes
        frame = Frame(run.archive.section("physical"))
        full = scatter_matrix(frame.column("src"), frame.column("dst"),
                              frame.column("count"), (n, n))
        check(np.array_equal(run.lod().edge_window(res=1).count, full),
              f"{path.name}: LOD edge-window totals differ from the "
              f"physical matrix")


def make_read(rng: random.Random, kind: str, state: State,
              turn: int = 0) -> tuple:
    """One seeded read: ``(kind, archive, section, text-or-view, args)``.

    The template (query text, view and viewport width, diff direction)
    rotates with ``turn``, so every run times each template equally often
    and in the same proportions; archives, PEs and viewport positions
    come from the seed.  ``variant(read)`` names the template; kinds are
    timed per variant, because the templates of a kind differ in cost.
    """
    path = state.a if rng.random() < 0.5 else state.b
    if kind == "stats":
        section, text = [("logical", "sends"), ("logical", "bytes"),
                         ("physical", "ops"), ("physical", "bytes")][turn % 4]
        return kind, path, section, text, None
    if kind == "pushdown":
        pe = rng.randrange(N_PES)
        lo = rng.randrange(0, N_PES - 8)
        text = [f"sends where src == {pe} group by dst",
                f"bytes where src >= {lo} and src < {lo + 8}",
                f"sends where src == {pe} and size >= 32"][turn % 3]
        return kind, path, "logical", text, None
    if kind == "full_decode":
        pe = rng.randrange(N_PES)
        text = ["bytes group by dst",
                "sends where size >= 16 group by src",
                f"sends where dst == {pe}",
                "sends where src_node != dst_node group by dst"][turn % 4]
        return kind, path, "logical", text, None
    if kind == "diff":
        a, b = (state.a, state.b) if turn % 2 == 0 else (state.b, state.a)
        return kind, a, None, None, b
    view = VIEWS[turn % len(VIEWS)]
    span = HORIZON >> (turn // len(VIEWS) % 6)
    t0 = rng.randrange(0, HORIZON - span + 1)
    return kind, path, None, view, (t0, t0 + span)


def variant(read: tuple) -> str:
    """The template of a read: its section and text with numbers
    blanked, its view, or (diffs) its direction."""
    kind, path, section, text, extra = read
    if kind == "diff":
        return f"{path.stem}-{extra.stem}"
    if kind == "viz":
        return text
    return f"{section}:{re.sub(r'[0-9]+', '#', text)}"


def do_read(read: tuple):
    kind, path, section, text, extra = read
    if kind == "diff":
        return api.diff(path, extra)
    with api.open_run(path) as run:
        if kind == "viz":
            return run.viz(text, t0=extra[0], t1=extra[1])
        return run.query(text, section=section)


def verify_read(state: State, read: tuple, result) -> None:
    """Pushdown == full decode for every query; diffs repeat exactly;
    views render SVG."""
    kind, path, section, text, extra = read
    if kind == "viz":
        check("<svg" in result[:200], f"{text} view did not render an SVG")
        return
    key = (kind, path.name, section, text,
           extra.name if kind == "diff" else None)
    if key not in state.reference:
        if kind == "diff":
            state.reference[key] = result
        else:
            with api.open_run(path) as run:
                state.reference[key] = run.query(text, section=section,
                                                 pushdown=False)
    check(result == state.reference[key],
          f"{kind} {text or ''!r} on {path.name}: result differs from "
          f"{'the first diff' if kind == 'diff' else 'the full decode'}")


def do_write(state: State, n: int) -> Path:
    path = state.tmp / f"explore-write-{n % 2}.aptrc"
    store.export_run(path, meta={"workload": "explore"}, lod=True,
                     **state.trace)
    return path


def verify_write(state: State, path: Path, book: DigestBook) -> None:
    sha = sha256_file(path)
    if state.write_sha is None:
        state.write_sha = sha
        check_lod_totals(path)
    check(sha == state.write_sha, "export_run of the same trace wrote "
                                  "different bytes")
    book.check("export_run", {"archive_sha256": sha})


class _FrameObserver:
    """Counts row groups considered and pruned by every Frame (traced
    runs only)."""

    def __init__(self) -> None:
        self.frames: list[Frame] = []
        self._orig = None

    def install(self) -> None:
        orig = self._orig = Frame.__init__
        frames = self.frames

        def init(frame, *args, **kwargs):
            orig(frame, *args, **kwargs)
            frames.append(frame)

        Frame.__init__ = init

    def uninstall(self) -> None:
        if self._orig is not None:
            Frame.__init__ = self._orig
            self._orig = None

    def take(self) -> tuple[int, int]:
        total = sum(f.n_chunks for f in self.frames)
        pruned = sum(int((~f.keep).sum()) for f in self.frames)
        self.frames.clear()
        return total, pruned


def run(state: State, seconds: float, rec: Recorder, book: DigestBook,
        trace: bool) -> dict:
    """Cycle the seeded mix until ``seconds`` have passed (whole cycles);
    traced runs alternate untraced and traced cycles, and latencies come
    from the untraced ones."""
    rng = random.Random(state.seed)
    for path in (state.a, state.b):
        rec.verify(f"LOD totals of {path.name}", check_lod_totals, path)
    warmup = Recorder()
    for kind in READ_KINDS:
        warmup.op("warm-up", do_read, make_read(random.Random(0), kind, state))
    observer = _FrameObserver()
    counts = {"chunks_total": 0, "chunks_pruned": 0}
    start = time.perf_counter()
    cycle = 0
    n_writes = 0
    while True:
        traced = trace and cycle % 2 == 1
        if traced:
            rec.tracer.install()
            observer.install()
            rec.tracer.recording = cycle == 1
        rec.begin_cycle(traced)
        try:
            mix = list(MIX)
            rng.shuffle(mix)
            for kind in mix:
                if kind == "write":
                    ok, path, sec = rec.op("write", do_write, state, n_writes)
                    n_writes += 1
                    if ok and rec.verify("write check", verify_write, state,
                                         path, book) and not traced:
                        rec.add_time("write", sec)
                        rec.add("store.archive_bytes", path.stat().st_size)
                    continue
                read = make_read(rng, kind, state,
                                 cycle // 2 if trace else cycle)
                ok, result, sec = rec.op(f"{kind} read", do_read, read)
                if traced:
                    total, pruned = observer.take()
                    counts["chunks_total"] += total
                    counts["chunks_pruned"] += pruned
                if ok and rec.verify(f"{kind} check", verify_read, state,
                                     read, result) and not traced:
                    rec.add(f"read.{kind}", sec)
                    rec.add_time(f"read.{kind}.{variant(read)}", sec)
                    if kind == "viz":
                        rec.add(f"viz.render_ms.{read[3]}", sec * 1e3)
                        rec.add(f"viz.svg_bytes.{read[3]}", len(result))
                    elif kind != "diff":
                        rec.add(f"query.eval_ms.{kind}", sec * 1e3)
                    else:
                        rec.add("diff.ms", sec * 1e3)
                if traced:
                    observer.take()
        finally:
            if traced:
                rec.tracer.recording = False
                observer.uninstall()
                rec.tracer.uninstall()
            rec.end_cycle()
        cycle += 1
        if time.perf_counter() - start >= seconds and (
                not trace or cycle >= 2):
            break
    return counts
