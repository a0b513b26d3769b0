"""Thread-aware span timers wrapped around the public functions of each layer.

The simulator runs every PE on its own thread, which ``cProfile`` cannot
see.  :class:`Tracer` instead replaces a fixed list of layer entry points
(class methods and module functions) with thin wrappers that push a span
on a per-thread stack.  A span's *self time* is its duration minus the
time its child spans cover on the same thread, so nested layers
(hclib -> conveyors -> shmem -> machine) each get only their own share.

Two span names are *waits*, not work: ``sim.park`` (a PE thread parked
while another PE holds the baton) and ``sim.run`` (the main thread waiting
for the PE threads to finish).  Exactly one thread does work at a time
during a simulation, so the host time of an operation splits into the
self times of the non-wait spans plus an unattributed remainder.

The wrappers live only in the benchmark; nothing under ``src/`` changes.
Spans of the first traced operations are kept in memory and written at
the end of the run as Chrome trace-event JSON (opens in Perfetto).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Spans whose self time is waiting for another thread, never work.
WAIT_SPANS = frozenset({"sim.park", "sim.run"})

#: (module, attribute path, span name).  A span name's first dotted part is
#: its layer.  Module-level functions are patched in every module listed
#: for them, because callers bind them by name at import.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # repro.sim scheduler
    ("repro.sim.scheduler", "CoopScheduler.run", "sim.run"),
    ("repro.sim.scheduler", "CoopScheduler.yield_pe", "sim.sched"),
    ("repro.sim.scheduler", "CoopScheduler.block", "sim.sched"),
    ("repro.sim.scheduler", "CoopScheduler._sleep", "sim.park"),
    ("repro.sim.scheduler", "CoopScheduler._pe_main", "app.program"),
    # repro.hclib
    ("repro.hclib.world", "run_spmd", "hclib.world"),
    ("repro.apps.triangle", "run_spmd", "hclib.world"),
    ("repro.apps.histogram", "run_spmd", "hclib.world"),
    ("repro.hclib.actor", "Selector.send", "hclib.send"),
    ("repro.hclib.actor", "Selector.send_batch", "hclib.send"),
    ("repro.hclib.actor", "Selector.done", "hclib.send"),
    ("repro.hclib.actor", "Selector._progress", "hclib.progress"),
    ("repro.hclib.actor", "Selector._drain_mailbox", "hclib.handler"),
    ("repro.hclib.world", "FinishScope._drain", "hclib.finish"),
    # repro.conveyors
    ("repro.conveyors.conveyor", "Conveyor.push", "conveyors.push"),
    ("repro.conveyors.conveyor", "Conveyor.push_many", "conveyors.push"),
    ("repro.conveyors.conveyor", "Conveyor.pull", "conveyors.pull"),
    ("repro.conveyors.conveyor", "Conveyor.pull_segments", "conveyors.pull"),
    ("repro.conveyors.conveyor", "Conveyor.advance", "conveyors.advance"),
    # repro.shmem
    ("repro.shmem.runtime", "ShmemContext.putmem_nbi_raw", "shmem.op"),
    ("repro.shmem.runtime", "ShmemContext.quiet", "shmem.op"),
    ("repro.shmem.runtime", "ShmemContext.put_signal", "shmem.op"),
    ("repro.shmem.runtime", "ShmemContext.local_memcpy", "shmem.op"),
    ("repro.shmem.runtime", "ShmemContext.barrier_all", "shmem.op"),
    ("repro.shmem.runtime", "ShmemRuntime.rendezvous", "shmem.op"),
    # repro.machine / repro.papi
    ("repro.machine.perf", "PerfCore.work", "machine.work"),
    ("repro.machine.perf", "PerfCore.stall_until", "machine.work"),
    ("repro.machine.perf", "PerfCore.memcpy", "machine.work"),
    ("repro.machine.counters", "CounterBank.charge_block", "machine.charge_block"),
    ("repro.papi.eventset", "EventSet.start", "papi.eventset"),
    ("repro.papi.eventset", "EventSet.stop", "papi.eventset"),
    ("repro.papi.eventset", "EventSet.read", "papi.eventset"),
    # repro.core.profiler hooks
    ("repro.core.profiler", "ActorProf.record", "profiler.hooks"),
    ("repro.core.profiler", "ActorProf.finish_start", "profiler.hooks"),
    ("repro.core.profiler", "ActorProf.finish_end", "profiler.hooks"),
    ("repro.core.profiler", "ActorProf.main_enter", "profiler.hooks"),
    ("repro.core.profiler", "ActorProf.main_exit", "profiler.hooks"),
    ("repro.core.profiler", "ActorProf.proc_enter", "profiler.hooks"),
    ("repro.core.profiler", "ActorProf.proc_exit", "profiler.hooks"),
    ("repro.core.profiler", "ActorProf.send", "profiler.hooks"),
    ("repro.core.profiler", "ActorProf.send_batch", "profiler.hooks"),
    # repro.core.store
    ("repro.core.store.writer", "export_run", "store.export"),
    ("repro.core.store", "export_run", "store.export"),
    ("repro.core.store.lod", "build_pyramid_for_export", "store.lod_build"),
    ("repro.core.store.lod", "build_pyramid", "store.lod_build"),
    ("repro.core.store", "build_pyramid", "store.lod_build"),
    ("repro.core.store.archive", "Archive.__init__", "store.open"),
    ("repro.core.store.archive", "Archive._decode_chunk", "store.decode"),
    # repro.core.query
    ("repro.api", "query_trace", "query.eval"),
    # repro.core.lod + repro.core.viz
    ("repro.core.lod", "LodView.pe_series", "lod.window"),
    ("repro.core.lod", "LodView.edge_window", "lod.window"),
    ("repro.api", "open_lod", "lod.window"),
    ("repro.core.viz.lodviews", "lod_gantt_svg", "viz.gantt"),
    ("repro.core.viz.lodviews", "lod_heatmap_svg", "viz.heatmap"),
    ("repro.core.viz.lodviews", "lod_timeline_svg", "viz.timeline"),
    # repro.core.diffing
    ("repro.core.diffing", "_diff_runs", "diff.run"),
)

#: Layers in report order (span-name prefixes plus the benchmark's own
#: client spans for the service).
LAYERS = ("app", "sim", "hclib", "conveyors", "shmem", "machine", "papi",
          "profiler", "store", "query", "lod", "viz", "diff", "serve")


class _Frame:
    __slots__ = ("name", "t0", "child", "parent")

    def __init__(self, name: str, t0: float, parent: str | None) -> None:
        self.name = name
        self.t0 = t0
        self.child = 0.0
        self.parent = parent


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.frame = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer._exit(self.frame)
        return False


class _ThreadState:
    """Per-thread span stack plus accumulators (merged at op end)."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)


class Tracer:
    """Installs the layer wrappers and accumulates per-span self time.

    Use :meth:`install` / :meth:`uninstall` around traced operations and
    :meth:`span` for spans the benchmark opens itself (an operation root,
    client calls to the service).  :meth:`take` returns and resets the
    accumulated self seconds and call counts by span name.
    """

    def __init__(self, keep_spans: int = 200_000) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._keep_left = keep_spans
        self.recording = False
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.missing: set[str] = set()
        self._epoch = time.perf_counter()

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _enter(self, name: str) -> _Frame:
        st = self._state()
        parent = st.stack[-1].name if st.stack else None
        frame = _Frame(name, time.perf_counter(), parent)
        st.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        t1 = time.perf_counter()
        st = self._state()
        st.stack.pop()
        dur = t1 - frame.t0
        st.self_s[frame.name] += dur - frame.child
        st.calls[frame.name] += 1
        if st.stack:
            st.stack[-1].child += dur
        if self.recording and self._keep_left > 0:
            self._keep_left -= 1
            self.spans.append((frame.name, frame.t0, t1, st.tid, frame.parent))

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _wrap(self, fn, name: str):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; the rest are listed in
        :attr:`missing` (a renamed layer function loses its span, it does
        not break the run)."""
        if self._saved:
            return
        for module_name, path, name in TARGETS:
            found = _lookup(module_name, path)
            if found is None:
                self.missing.add(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts by span name since the last take.

        Call only while no traced thread is inside a span (between
        operations), so every accumulator is complete.
        """
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        live = {t.ident for t in threading.enumerate()}
        with self._lock:
            states = list(self._states)
            self._states = [st for st in states if st.tid in live]
        for st in states:
            for name, value in st.self_s.items():
                self_s[name] += value
            for name, value in st.calls.items():
                calls[name] += value
            st.self_s.clear()
            st.calls.clear()
        return dict(self_s), dict(calls)

    def write_chrome(self, path: Path, metadata: dict) -> Path:
        """Write the kept spans as Chrome trace-event JSON."""
        events = [{
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": round((t0 - self._epoch) * 1e6, 3),
            "dur": round((t1 - t0) * 1e6, 3),
            "pid": 1, "tid": tid, "args": {"parent": parent},
        } for name, t0, t1, tid, parent in self.spans]
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms",
             "otherData": metadata}))
        return path


def _lookup(module_name: str, path: str):
    """``(owner, attribute, original)`` for one target, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    # class attributes are wrapped as found in the class body, so plain
    # functions stay methods once wrapped
    original = (owner.__dict__.get(attr) if isinstance(owner, type)
                else getattr(owner, attr, None))
    if not callable(original):
        return None
    return owner, attr, original


def attributed(self_s: dict[str, float]) -> float:
    """Host seconds of work covered by spans (waits excluded)."""
    return sum(v for k, v in self_s.items() if k not in WAIT_SPANS)

