"""Shared benchmark plumbing: operation recording, summaries, result files."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
import zlib
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from tracer import WAIT_SPANS, Tracer, attributed


#: The LOD views every workload renders.
VIEWS = ("gantt", "heatmap", "timeline")


class CheckFailed(AssertionError):
    """An output check of the benchmark did not hold."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def tail(values) -> tuple[float, int] | None:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``, or None below 11 samples.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return float(ordered[n - 11]), (100 * (n - 10)) // n


def pin_to_one_cpu() -> int | None:
    """Restrict this process (and its future children) to one CPU.

    The simulator passes one baton between PE threads.  When those
    threads may run on different CPUs, every handoff is a cross-CPU
    wake-up whose latency depends on the host's scheduler, and the same
    simulation measured back to back takes anywhere from 1x to 3x the
    time.  On one CPU the handoff is a local switch and the host time is
    repeatable.  Returns the CPU chosen, or None where affinity is not
    supported.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


#: Seconds of loop time between two host calibrations.
CALIB_EVERY_S = 0.5


def calib_ms(numeric: bool = True) -> float:
    """Milliseconds of a fixed pure-Python workload: the host's speed now.

    The host's own speed drifts while a run measures (on a shared 2-vCPU
    VM it switches between a fast and a slow mode, and one profiled run
    took 0.19 s to 0.31 s, 10th to 90th percentile, over 150 s in one
    process on the same input), and every host time of the program
    drifts with it.  The end-to-end time metrics are therefore stated in
    units of this workload, timed at most every ``CALIB_EVERY_S``
    between operations: each operation's time is divided by the
    calibration just before it (``*_calib``).  A change to the program
    moves them, a slower host does not.  The raw times are per-layer
    metrics.

    Loops of similar length, one per kind of work the program does:
    integer arithmetic (the interpreter); string formatting with dict
    inserts, a join and a sort (allocation, like rendering); lock
    handoffs between two threads (like the simulator's baton); and, with
    ``numeric``, a stable argsort, bincount and cumsum (numpy, like
    decoding and queries) and zlib compression (like archive writes).
    Between the host's two modes they slow down by about 1.4x, 1.9x,
    1.4x, 1.2x and 1.2x; profiled runs by 1.3x (gantt renders 1.6x), and
    explore's decodes, diffs and writes by 1.0x to 1.2x.  No single loop
    tracks all operations.  The simulating workloads, whose time goes to
    the interpreter, allocation and handoffs, use the first three; the
    others, which decode and compress, use all five.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    index = {}
    parts = []
    for i in range(12_500):
        text = f"<rect x='{i}' y='{i * 3 % 97}' w='{i % 13}'/>"
        parts.append(text)
        index[text] = i
    "".join(parts)
    sorted(index.values(), reverse=True)
    _handoffs(1_000)
    if numeric:
        order = np.argsort(_CALIB_INTS, kind="stable")
        np.bincount(_CALIB_INTS[order] % 97)
        np.cumsum(_CALIB_INTS)
        zlib.compress(_CALIB_BYTES, 6)
    return (time.perf_counter() - t0) * 1e3


_CALIB_INTS = np.random.default_rng(0).integers(0, 1000, 60_000)
_CALIB_BYTES = np.random.default_rng(1).integers(
    0, 50, 20_000).astype(np.int32).tobytes()


def _handoffs(n: int) -> None:
    """Pass control ``n`` times back and forth with a second thread."""
    ping, pong = threading.Lock(), threading.Lock()
    ping.acquire()
    pong.acquire()

    def other() -> None:
        for _ in range(n):
            ping.acquire()
            pong.release()

    thread = threading.Thread(target=other)
    thread.start()
    for _ in range(n):
        ping.release()
        pong.acquire()
    thread.join()


def calib_ms_on(cpus, numeric: bool = True) -> float:
    """:func:`calib_ms` with the calling thread moved to ``cpus`` for the
    duration (Linux affinity is per thread); ``None`` keeps it where it
    is."""
    if cpus is None or not hasattr(os, "sched_setaffinity"):
        return calib_ms(numeric)
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return calib_ms(numeric)
    finally:
        os.sched_setaffinity(0, saved)


#: :func:`calib_ms` of the reference host ``setup_s`` is stated for.
REF_CALIB_MS = 35.0


def timed_setup(rec: "Recorder", repeats: int, fn, cpus=None,
                between=None):
    """Run the set-up ``fn()`` ``repeats`` times; returns the last result.
    ``between(result)``, if given, runs untimed after every repeat but
    the last (to stop what the repeat started).

    Each repeat is bracketed by host calibrations on ``cpus`` (the CPUs
    the set-up runs on) and recorded twice: ``setup_raw_s`` in host
    seconds, and ``setup_s`` in seconds of the reference host, the raw
    time x ``REF_CALIB_MS`` / the mean of the two calibrations around
    it.  Set-up is too short to average out the host's drift (see
    :func:`calib_ms`), so the raw seconds of one set-up track the host's
    speed at that moment; the reference seconds move only with the
    program's set-up work.
    """
    before = calib_ms_on(cpus, rec.calib_numeric)
    result = None
    for i in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        after = calib_ms_on(cpus, rec.calib_numeric)
        rec.add("setup_raw_s", seconds)
        rec.add("setup_s", seconds * REF_CALIB_MS * 2 / (before + after))
        before = after
        if between is not None and i < repeats - 1:
            between(result)
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Recorder:
    """Samples, operation outcomes and traced per-operation layer times.

    Every operation of a workload's timed loop goes through :meth:`op`:
    an exception (including a failed output check) counts the operation
    as failed instead of aborting the run.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.tracer = tracer
        self.traced = False
        #: Summed self seconds by span name over traced operations.
        self.span_self: dict[str, float] = defaultdict(float)
        self.span_calls: dict[str, int] = defaultdict(int)
        self.traced_ops = 0
        self.traced_wall = 0.0
        self.unattributed = 0.0
        #: Time samples divided by the calibration current when they
        #: were taken (``*_calib`` units, see :meth:`add_time`).
        self.calib_samples: dict[str, list[float]] = defaultdict(list)
        self.calib_now: float | None = None
        #: Whether :meth:`calibrate` times the numpy and zlib loops too.
        self.calib_numeric = True
        #: Operations completed in the untraced cycles of the timed loop,
        #: and the loop time of those cycles in seconds and in calib
        #: units (``ops_per_s``, ``ops_per_calib``).
        self.untraced_ops = 0
        self.untraced_s = 0.0
        self.untraced_calib = 0.0
        self._last_calib = float("-inf")
        self._mark: float | None = None
        self._cycle_done = 0

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.failures[f"{what}: {type(exc).__name__}: {exc}"[:300]] += 1

    def op(self, what: str, fn, *args, **kwargs):
        """Run one operation; returns ``(ok, result, seconds)``."""
        self.attempted += 1
        if time.perf_counter() - self._last_calib >= CALIB_EVERY_S:
            self.calibrate()
        # Start every operation from a collected heap, so a cyclic
        # collection left over from the previous one is not charged here.
        gc.collect()
        tracer = self.tracer if self.traced else None
        if tracer is not None:
            tracer.take()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            result = None
            ok = False
            self.fail(what, exc)
        seconds = time.perf_counter() - t0
        if self.tracer is not None:
            self.add("op_s.traced" if self.traced else "op_s.untraced",
                     seconds)
        if tracer is not None:
            self_s, calls = tracer.take()
            for name, value in self_s.items():
                self.span_self[name] += value
            for name, value in calls.items():
                self.span_calls[name] += value
            self.traced_ops += 1
            self.traced_wall += seconds
            self.unattributed += seconds - attributed(self_s)
        return ok, result, seconds

    def verify(self, what: str, fn, *args, **kwargs) -> bool:
        """Run the output checks of a completed operation.

        A failed check turns that operation into a failed one (it was
        already counted as attempted).  Spans opened by the checks are
        not kept for the trace file and are dropped from the layer
        totals by the next operation's start.
        """
        tracer = self.tracer if self.traced else None
        recording = tracer.recording if tracer is not None else False
        if tracer is not None:
            tracer.recording = False
        try:
            fn(*args, **kwargs)
            return True
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.fail(what, exc)
            return False
        finally:
            if tracer is not None:
                tracer.recording = recording

    def calibrate(self) -> None:
        """Time :func:`calib_ms` now; its own time is not loop time."""
        self._integrate()
        self.calib_now = calib_ms(self.calib_numeric)
        self.add("host.calib_ms", self.calib_now)
        self._last_calib = time.perf_counter()
        if self._mark is not None:
            self._mark = self._last_calib

    def begin_cycle(self, traced: bool) -> None:
        """Start one cycle of the timed loop, traced or not."""
        self.traced = traced
        self._cycle_done = self.attempted - self.failed
        self._mark = time.perf_counter()

    def end_cycle(self) -> None:
        if not self.traced:
            self._integrate()
            self.untraced_ops += self.attempted - self.failed \
                - self._cycle_done
        self._mark = None
        self.traced = False

    def _integrate(self) -> None:
        """Add the loop time since the last mark to the untraced totals
        (inside a cycle)."""
        if self._mark is None:
            return
        now = time.perf_counter()
        if not self.traced:
            self.untraced_s += now - self._mark
            if self.calib_now:
                self.untraced_calib += (now - self._mark) * 1e3 \
                    / self.calib_now
        self._mark = now

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(float(value))

    def add_time(self, name: str, seconds: float,
                 calib: float | None = None) -> None:
        """A host time in seconds, also kept in calib units: divided by
        ``calib`` (default: the calibration current now)."""
        self.add(name, seconds)
        calib = calib or self.calib_now
        if calib:
            self.calib_samples[name].append(seconds * 1e3 / calib)

    def per_op_self(self, prefix: str) -> float:
        """Mean self seconds per traced operation of spans under
        ``prefix`` (a layer or a full span name)."""
        if not self.traced_ops:
            return 0.0
        total = sum(v for k, v in self.span_self.items()
                    if k not in WAIT_SPANS
                    and (k == prefix or k.startswith(prefix + ".")))
        return total / self.traced_ops



def mean_of_medians(samples: dict, names) -> float:
    """Mean over sample sets of each set's median (sets present)."""
    meds = [median(samples[n]) for n in names if samples.get(n)]
    return sum(meds) / len(meds) if meds else 0.0


def run_metadata(root: Path, seed: int, workload: str, trace: bool,
                 seconds: int) -> dict:
    """Header of every result file: where and what was measured."""
    commit = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "run_seconds": seconds,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "started_unix": time.time(),
    }


def sample_summary(samples: dict[str, list[float]]) -> dict:
    """Sample count, median and quartiles of every sample set."""
    out = {}
    for name, values in sorted(samples.items()):
        if not values:
            continue
        q1, q2, q3 = quartiles(values)
        entry = {"n": len(values), "median": q2, "q1": q1, "q3": q3}
        t = tail(values)
        if t is not None:
            entry["tail"] = {"value": t[0], "percentile": t[1]}
        out[name] = entry
    return out


def write_json(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


class DigestBook:
    """Simulated statistics that must repeat exactly across runs.

    Digests are kept per ``(workload, seed)`` in a file under the output
    directory, with the sha256 of ``src/`` they were first recorded
    under.  The first run writes them; every later run of the seed,
    traced or not and whatever the program source, is compared against
    them, so a host-only change to the program that moves a simulated
    statistic fails its checks.  (A change meant to move them deletes
    the file.)  Within a run, each repeat of a configuration is compared
    to its first.  :meth:`summary` is written into every result file and
    printed, so runs in different checkouts can be compared too.
    """

    def __init__(self, path: Path, src_sha256: str) -> None:
        self.path = path
        self.src_sha256 = src_sha256
        try:
            self.stored: dict = json.loads(path.read_text())
        except (OSError, ValueError):
            self.stored = {}
        self.seen: dict = {}

    def check(self, key: str, digest: dict) -> None:
        first = self.seen.setdefault(key, digest)
        check(first == digest,
              f"{key}: simulated statistics changed between repeats: "
              f"{_diff_keys(first, digest)}")
        stored = self.stored.get(key)
        if stored is not None:
            check(stored["digest"] == digest,
                  f"{key}: simulated statistics differ from an earlier run "
                  f"of this seed (src sha256 {stored['src_sha256'][:16]}): "
                  f"{_diff_keys(stored['digest'], digest)}; delete "
                  f"{self.path} if the change is intended")

    def summary(self) -> dict:
        """sha256 of each configuration's digest and of all of them."""
        each = {key: _sha256_json(digest)
                for key, digest in sorted(self.seen.items())}
        return {"sha256": _sha256_json(each), "configs": each}

    def save(self) -> None:
        if not self.seen:
            return
        merged = dict(self.stored)
        for key, digest in self.seen.items():
            merged.setdefault(key, {"digest": digest,
                                    "src_sha256": self.src_sha256})
        write_json(self.path, merged)


def _sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True)
                          .encode()).hexdigest()


def _diff_keys(a: dict, b: dict) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
