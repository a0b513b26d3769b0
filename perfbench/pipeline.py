"""``casestudy`` and ``fine_grained``: one profiled run, end to end.

One operation is the whole user-visible loop of the paper: simulate with
every profiling flag plus the timeline, ``export_archive(lod=True)``,
``repro.api.open_run``, the paper's queries, and the gantt / heatmap /
timeline views.  Its host seconds are the turnaround.

* ``casestudy`` cycles through the paper's section IV runs: triangle
  counting on R-MAT scale 10 (graph500, edge factor 16) on {1, 2} nodes
  x 16 PEs x {cyclic, range}.  Message-heavy and simulation-dominated.
* ``fine_grained`` is the histogram at 256 PEs (64 nodes x 4), 2 updates
  per PE, table 64: the scheduler-latency point, with profiling on.
  Conveyors are nearly idle and the n_pes^2 viz output dominates.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.api as api
from repro.apps.histogram import histogram
from repro.apps.triangle import count_triangles
from repro.conveyors.conveyor import ConveyorConfig, ConveyorGroup
from repro.core.flags import ProfileFlags
from repro.core.profiler import ActorProf
from repro.core.store.frame import Frame, scatter_matrix
from repro.graphs.distributions import make_distribution
from repro.graphs.matrix import LowerTriangular
from repro.graphs.rmat import graph500_input
from repro.machine.spec import MachineSpec
from repro.shmem.runtime import ShmemRuntime
from repro.sim.rng import spawn_rngs

from harness import (VIEWS, DigestBook, Recorder, check, sha256_file,
                     timed_setup)

#: The paper's queries: (section, text, read kind).  Read kinds name how
#: the archive answers: footer stats only, chunk-pruned pushdown, or a
#: full column decode.
QUERIES = (
    ("logical", "sends", "stats"),
    ("logical", "sends group by dst", "full_decode"),
    ("logical", "sends where src_node != dst_node group by src", "pushdown"),
    ("physical", "ops group by kind", "full_decode"),
    ("physical", "bytes where kind == nonblock_send", "pushdown"),
)
HIST_UPDATES, HIST_TABLE = 2, 64
SETUP_REPEATS = 7
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@dataclass
class Config:
    """One profiled-run configuration of a workload."""

    name: str
    app: str                 # "triangle" | "histogram"
    machine: MachineSpec
    distribution: str = ""


def configs(workload: str) -> list[Config]:
    if workload == "casestudy":
        return [Config(f"triangle-{nodes}x16-{dist}", "triangle",
                       MachineSpec.perlmutter_like(nodes, 16), dist)
                for nodes in (1, 2) for dist in ("cyclic", "range")]
    return [Config("histogram-64x4", "histogram", MachineSpec(64, 4))]


class State:
    def __init__(self, workload: str, seed: int, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.configs = configs(workload)
        self.graph: LowerTriangular | None = None
        self.dists: dict[str, object] = {}
        self.reference = None
        self.input_digest = ""


def _setup_once(workload: str, seed: int, tmp: Path) -> State:
    """Inputs: the R-MAT graph and its distributions, or the histogram's
    serial reference, its per-PE deliveries replayed from the same per-PE
    random streams the program draws from.  (The triangle count is checked
    against its serial reference inside the run, ``validate=True``.)"""
    state = State(workload, seed, tmp)
    if workload == "casestudy":
        edges = graph500_input(10, edge_factor=16, seed=seed)
        state.graph = LowerTriangular.from_edges(edges)
        for cfg in state.configs:
            state.dists[cfg.name] = make_distribution(
                cfg.distribution, state.graph, cfg.machine.n_pes)
        state.input_digest = hashlib.sha256(edges.tobytes()).hexdigest()
    else:
        n_pes = state.configs[0].machine.n_pes
        received = np.zeros(n_pes, dtype=np.int64)
        for rng in spawn_rngs(seed, n_pes):
            dsts = rng.integers(0, n_pes, HIST_UPDATES)
            rng.integers(0, HIST_TABLE, HIST_UPDATES)
            received += np.bincount(dsts, minlength=n_pes)
        state.reference = received.tolist()
        state.input_digest = hashlib.sha256(received.tobytes()).hexdigest()
    return state


def _run_child(argv: list[str], timeout: float) -> None:
    """Run a child to completion.  ``Popen.wait(timeout)`` polls in
    sleeps of up to 50 ms, which would round every set-up time up to the
    next poll; a blocking wait with a kill timer does not."""
    proc = subprocess.Popen(argv)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
    if rc:
        raise subprocess.CalledProcessError(rc, argv)


def setup(workload: str, seed: int, tmp: Path, rec: Recorder) -> State:
    """Set-up as a fresh process pays it: interpreter start, imports and
    the inputs, in a child process, repeated
    (``setup_s`` is the median).  The state used is then built here."""
    code = ("import sys; from pathlib import Path; "
            f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            "import pipeline; "
            f"pipeline._setup_once({workload!r}, {seed}, Path({str(tmp)!r}))")
    timed_setup(rec, SETUP_REPEATS,
                lambda: _run_child([sys.executable, "-c", code], 120))
    return _setup_once(workload, seed, tmp)


class _Observers:
    """Counting observers attached to the layers the runs build (traced
    runs only): SHMEM calls via ``register_observer`` and conveyor
    endpoint statistics."""

    def __init__(self) -> None:
        self.shmem_calls: dict[str, int] = {}
        self.shmem_bytes = 0
        self.groups: list[ConveyorGroup] = []
        self._saved = None

    def __call__(self, call) -> None:
        self.shmem_calls[call.op] = self.shmem_calls.get(call.op, 0) + 1
        self.shmem_bytes += call.nbytes

    def install(self) -> None:
        observers = self
        orig_rt, orig_cg = ShmemRuntime.__init__, ConveyorGroup.__init__

        def rt_init(rt, *args, **kwargs):
            orig_rt(rt, *args, **kwargs)
            rt.register_observer(observers)

        def cg_init(group, *args, **kwargs):
            orig_cg(group, *args, **kwargs)
            observers.groups.append(group)

        ShmemRuntime.__init__, ConveyorGroup.__init__ = rt_init, cg_init
        self._saved = (orig_rt, orig_cg)

    def uninstall(self) -> None:
        if self._saved is not None:
            ShmemRuntime.__init__, ConveyorGroup.__init__ = self._saved
            self._saved = None

    def take(self) -> dict:
        stats = [ep.stats for g in self.groups for ep in g.endpoints]
        out = {
            "shmem_calls": dict(self.shmem_calls),
            "shmem_bytes": self.shmem_bytes,
            "pushes": sum(s.pushes for s in stats),
            "push_fails": sum(s.push_fails for s in stats),
            "bytes_sent": sum(sum(s.bytes_sent.values()) for s in stats),
        }
        self.shmem_calls, self.shmem_bytes, self.groups = {}, 0, []
        return out


def _simulate(state: State, cfg: Config, ap: ActorProf):
    if cfg.app == "triangle":
        result = count_triangles(
            state.graph, cfg.machine, state.dists[cfg.name], profiler=ap,
            conveyor_config=ConveyorConfig(payload_words=2, buffer_items=64),
            validate=True, seed=state.seed)
        check(result.triangles == result.reference,
              f"triangles {result.triangles} != reference {result.reference}")
        check(sum(result.per_pe_counts) == result.triangles,
              "per-PE triangle counts do not sum to the total")
        return result
    result = histogram(HIST_UPDATES, HIST_TABLE, cfg.machine, profiler=ap,
                       seed=state.seed, validate=True)
    check(result.per_pe_received == state.reference,
          "per-PE histogram deliveries differ from the serial reference")
    check(ap.logical.recvs_per_pe().tolist() == state.reference,
          "logical trace receive counts differ from the serial reference")
    return result


def profiled_run(state: State, cfg: Config) -> dict:
    """One operation: the whole profiled pipeline, timed by the caller."""
    path = state.tmp / f"{cfg.name}.aptrc"
    t0 = time.perf_counter()
    ap = ActorProf(ProfileFlags.all(papi_sample_interval=64,
                                    enable_timeline=True))
    result = _simulate(state, cfg, ap)
    t_sim = time.perf_counter()
    ap.export_archive(path, meta={"workload": state.workload,
                                  "config": cfg.name, "seed": state.seed},
                      lod=True)
    t_export = time.perf_counter()
    reads: list[tuple[str, float]] = []
    answers = {}
    svgs = {}
    with api.open_run(path) as run:
        for section, text, kind in QUERIES:
            q0 = time.perf_counter()
            answers[(section, text)] = run.query(text, section=section)
            reads.append((kind, time.perf_counter() - q0))
        for view in VIEWS:
            v0 = time.perf_counter()
            svgs[view] = run.viz(view)
            reads.append((view, time.perf_counter() - v0))
    return {"cfg": cfg, "path": path, "ap": ap, "result": result,
            "answers": answers, "svgs": svgs, "reads": reads,
            "sim_s": t_sim - t0, "write_s": t_export - t_sim}


def verify(state: State, out: dict, book: DigestBook) -> dict:
    """Output and exactness checks of one profiled run; returns its
    exact per-layer counts."""
    cfg, path, ap = out["cfg"], out["path"], out["ap"]
    answers, svgs = out["answers"], out["svgs"]
    logical, physical = ap.logical, ap.physical
    check(answers[("logical", "sends")] == logical.total_sends(),
          "archived logical send total differs from the in-memory trace")
    by_kind = dict(answers[("physical", "ops group by kind")])
    check(by_kind == physical.counts_by_type(),
          f"archived physical ops by kind {by_kind} differ from "
          f"{physical.counts_by_type()}")
    n_pes = cfg.machine.n_pes
    with api.open_run(path) as run:
        for section, text, _ in QUERIES:
            check(run.query(text, section=section, pushdown=False)
                  == answers[(section, text)],
                  f"pushdown != full decode for {section}: {text!r}")
        frame = Frame(run.archive.section("physical"))
        full = scatter_matrix(frame.column("src"), frame.column("dst"),
                              frame.column("count"), (n_pes, n_pes))
        check(np.array_equal(run.lod().edge_window(res=1).count, full),
              "LOD edge-window totals differ from the physical matrix")
    for view, svg in svgs.items():
        check("<svg" in svg[:200], f"{view} view did not render an SVG")

    world = out["result"].run.world
    sched = world.scheduler.stats
    overall = ap.overall
    book.check(cfg.name, {
        "cycles": [c.now for c in world.scheduler.clocks],
        "sends": int(logical.total_sends()),
        "buffers": physical.counts_by_type(),
        "handoffs": sched.handoffs,
        "selections": sched.selections,
        "archive_sha256": sha256_file(path),
    })
    return {
        "sim.handoffs": sched.handoffs,
        "sim.selections": sched.selections,
        "sim.pred_evals": sched.pred_evals,
        "sim.yield_fast": sched.yield_fast,
        "hclib.sends": int(logical.total_sends()),
        "buffers": physical.counts_by_type(),
        "machine.t_total_cycles": int(np.sum(overall.t_total)),
        "machine.t_main_cycles": int(np.sum(overall.t_main)),
        "machine.t_proc_cycles": int(np.sum(overall.t_proc)),
        "machine.t_comm_cycles": int(np.sum(overall.t_comm())),
        "papi.tot_ins": int(sum(p.counters.read("PAPI_TOT_INS")
                                for p in world.shmem.perf)),
        "profiler.timeline_spans": ap.timeline.span_count(),
        "store.archive_bytes": path.stat().st_size,
        "svg_bytes": {v: len(s.encode()) for v, s in svgs.items()},
    }


def _record(rec: Recorder, out: dict, seconds: float) -> None:
    name = out["cfg"].name
    sched = out["result"].run.world.scheduler.stats
    rec.add("turnaround_s", seconds)
    rec.add_time(f"turnaround_s.{name}", seconds)
    rec.add_time(f"write_s.{name}", out["write_s"])
    rec.add("write_s", out["write_s"])
    rec.add("sim.wall_s", sched.wall_s)
    rec.add("hclib.world_s", out["sim_s"] - sched.wall_s)
    for kind, sec in out["reads"]:
        rec.add(f"read.{kind}", sec)
        rec.add_time(f"read.{kind}.{name}", sec)


def run(state: State, seconds: float, rec: Recorder, book: DigestBook,
        trace: bool) -> dict:
    """Warm up with one untimed cycle, then cycle the configurations
    until ``seconds`` have passed (always whole cycles).

    Traced runs alternate untraced and traced cycles, so the tracing
    overhead is measured in the same process.  Latencies come from the
    untraced cycles only; exact per-layer counts come from the first
    traced run of each configuration, and the spans of the very first
    one are kept for the trace file.
    """
    warmup = Recorder()
    for cfg in state.configs:
        ok, out, _ = warmup.op("warm-up", profiled_run, state, cfg)
        if ok:
            warmup.verify("warm-up check", verify, state, out, book)
    observers = _Observers()
    counts: dict[str, dict] = {}
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = trace and cycle % 2 == 1
        if traced:
            rec.tracer.install()
            observers.install()
            rec.tracer.recording = cycle == 1
        rec.begin_cycle(traced)
        try:
            for cfg in state.configs:
                ok, out, sec = rec.op(f"profiled run {cfg.name}",
                                      profiled_run, state, cfg)
                if traced:  # the trace file holds the first traced run
                    rec.tracer.recording = False
                layer = observers.take() if traced else {}
                if not ok:
                    continue
                got = {}
                if not rec.verify(f"checks of {cfg.name}",
                                  lambda: got.update(verify(state, out,
                                                            book))):
                    continue
                if not traced:
                    _record(rec, out, sec)
                elif cfg.name not in counts:
                    counts[cfg.name] = {**got, **layer}
        finally:
            if traced:
                rec.tracer.recording = False
                observers.uninstall()
                rec.tracer.uninstall()
            rec.end_cycle()
        cycle += 1
        if time.perf_counter() - start >= seconds and (
                not trace or cycle >= 2):
            break
    return counts
