"""``serve``: the trace service under two closed-loop clients.

Set-up starts ``actorprof serve`` in its own process with the default
admission limits (timed over several start-ups: ``setup_s``), writes the
seeded archives and pushes the base runs.  Two closed-loop clients, each
on one keep-alive HTTP connection, then send passes of one push, one
query, one viz and one diff request each, in a seeded order.
``REPEAT_SHARE`` of the requests repeat one of a small set of requests
issued during set-up, so they hit the artifact store (or the registry's
dedup for pushes); the rest are unique and miss.

A 429 or a broken connection counts as a failed request and is never
retried away.  After the timed loop every query answer is compared with
the same query evaluated in-process through ``repro.api``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import select
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import quote

import repro.api as api

import explore
from harness import (CALIB_EVERY_S, VIEWS, Recorder, calib_ms_on, check,
                     timed_setup)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CLIENTS = 2
BASE_RUNS = 6
UNIQUE_PUSHES = 600
HOT_PUSHES = 2
#: Requests of one pass, per client (shuffled per pass): one of each
#: kind.  The repository holds no record of how the service is used, so
#: no kind is weighted over another (see README.md).
MIX = ("push", "query", "viz", "diff")
#: The CI viz smoke job fetches every view twice, a miss then a hit:
#: half the requests repeat.
REPEAT_SHARE = 0.5
QUERIES = ("sends where src == {a} and dst == {b}",
           "bytes where src == {a} group by dst top {top}",
           "sends where dst == {b} and size >= {size} group by src")
SETUP_STARTS = 7
BASE_SHAPE = {"nodes": 2, "pes_per_node": 16, "rows": 1 << 16, "chunks": 4,
              "net_events": 8_000}
PUSH_SHAPE = {"nodes": 2, "pes_per_node": 16, "rows": 512, "chunks": 1,
              "net_events": 200, "lod": False}


class Server:
    """One ``actorprof serve`` process."""

    def __init__(self, data: Path, cpus: set[int]) -> None:
        self.data = data
        data.mkdir(parents=True)
        self.log = (data.parent / f"{data.name}.log").open("w")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        launch = ("import os, runpy; "
                  f"os.sched_setaffinity(0, {sorted(cpus)!r}); "
                  "runpy.run_module('repro.core.cli', run_name='__main__')")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-c", launch, "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--data-dir", str(data), "--allow-remote-shutdown"],
            stdout=subprocess.PIPE, stderr=self.log, text=True, env=env)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        self.request("GET", "/healthz")

    def request(self, method: str, path: str, body: bytes | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            data = resp.read()
            if resp.status >= 400:
                raise RuntimeError(f"{method} {path}: HTTP {resp.status}: "
                                   f"{data[:200]!r}")
            return json.loads(data) if data.startswith(b"{") else data
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0.0
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.request("POST", "/shutdown")
            except (OSError, RuntimeError, AttributeError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc.stdout.close()
        self.log.close()


class State:
    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.server: Server | None = None
        self.base: dict[str, Path] = {}
        self.pushes: list[bytes] = []
        self.hot: list[tuple] = []
        self.server_cpus: set[int] | None = None
        self.input_digest = ""


def split_cpus() -> set[int]:
    """With two or more CPUs, put the clients on the lowest one and
    give the service the rest, so neither side's scheduling noise lands
    on the other; returns the service's CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus)
    os.sched_setaffinity(0, {cpus[0]})
    return set(cpus[1:])


def setup(seed: int, tmp: Path, rec: Recorder) -> State:
    state = State(seed, tmp)
    state.server_cpus = split_cpus()
    starts = iter(range(SETUP_STARTS))
    started: list[Server] = []

    def start() -> Server:
        started.append(Server(tmp / f"serve-data-{next(starts)}",
                              state.server_cpus))
        return started[-1]

    def stop(server: Server) -> None:
        server.stop()
        shutil.rmtree(server.data, ignore_errors=True)

    try:
        state.server = timed_setup(rec, SETUP_STARTS, start,
                                   cpus=state.server_cpus, between=stop)
        _prepare(state, seed, tmp)
    except BaseException:
        for server in started:
            server.stop()
        raise
    return state


def _prepare(state: State, seed: int, tmp: Path) -> None:
    """Archives, base runs and the warmed repeat set of a started
    service."""
    server = state.server
    for i in range(BASE_RUNS):
        run_id = f"base-{i}"
        path = explore.write_archive(tmp / f"{run_id}.aptrc",
                                     seed * 1000 + i, **BASE_SHAPE)
        state.base[run_id] = path
        server.request("POST", f"/runs?id={run_id}", body=path.read_bytes())
    push_dir = tmp / "push"
    push_dir.mkdir()
    for i in range(UNIQUE_PUSHES + HOT_PUSHES):
        path = explore.write_archive(push_dir / f"u{i}.aptrc",
                                     seed * 100_000 + 10_000 + i,
                                     **PUSH_SHAPE)
        state.pushes.append(path.read_bytes())
    shutil.rmtree(push_dir)
    hot_rng = random.Random(seed + 7)
    hot_pushes = iter(range(UNIQUE_PUSHES, UNIQUE_PUSHES + HOT_PUSHES))
    # One repeatable request per query template and per view, so every
    # variant is timed as a hit as well as a miss.
    for kind, pick in ([("push", None)] * HOT_PUSHES
                       + [("query", i) for i in range(len(QUERIES))]
                       + [("viz", i) for i in range(len(VIEWS))]
                       + [("diff", None)] * 2):
        state.hot.append(_unique(hot_rng, kind, state, [], set(),
                                 hot_pushes, pick))
    for req in state.hot:  # issue once so repeats hit
        server.request(*_wire(state, req))
    state.input_digest = hashlib.sha256(
        b"".join(p.read_bytes() for p in state.base.values())
        + b"".join(state.pushes)).hexdigest()


def _unique(rng: random.Random, kind: str, state: State, pushed: list,
            diffed: set, push_ids, pick: int | None = None) -> tuple:
    """A request not issued before: ``(kind, run, arg1, arg2)``.

    Pushes take the next unused pre-generated archive; once those run
    out a push repeats the first one (and is deduplicated).  ``pick``
    chooses the query template or view instead of the seed.
    """
    run = rng.choice(sorted(state.base))
    if kind == "push":
        i = next(push_ids, None)
        if i is None:
            return ("push", "u-0", 0, None)
        return ("push", f"u-{i}", i, None)
    if kind == "query":
        a, b = rng.randrange(32), rng.randrange(32)
        template = QUERIES[pick] if pick is not None else rng.choice(QUERIES)
        text = template.format(a=a, b=b, top=b + 1, size=8 << (a % 4))
        return ("query", run, "logical", text)
    if kind == "viz":
        span = explore.HORIZON >> rng.randrange(0, 8)
        t0 = rng.randrange(0, explore.HORIZON - span + 1)
        view = VIEWS[pick] if pick is not None else rng.choice(VIEWS)
        return ("viz", run, view, (t0, t0 + span))
    other = next((p for p in reversed(pushed) if (run, p) not in diffed),
                 None)
    if other is None:
        other = rng.choice([r for r in sorted(state.base) if r != run])
    diffed.add((run, other))
    return ("diff", run, other, None)


def variant(req: tuple) -> str:
    """The template of a request: its query text with numbers blanked,
    its view, whether a diff is against a base or a pushed run, or
    ``push``.  Kinds are timed per variant, because they differ in
    cost."""
    kind = req[0]
    if kind == "query":
        return re.sub(r"[0-9]+", "#", req[3])
    if kind == "viz":
        return req[2]
    if kind == "diff":
        return "base" if req[2].startswith("base-") else "pushed"
    return kind


def _wire(state: State, req: tuple) -> tuple:
    kind, run, a, b = req
    if kind == "push":
        return "POST", f"/runs?id={run}", state.pushes[a]
    if kind == "query":
        return ("GET", f"/runs/{quote(run)}/query?section={a}"
                       f"&q={quote(b)}", None)
    if kind == "viz":
        return "GET", f"/runs/{quote(run)}/viz/{a}?t0={b[0]}&t1={b[1]}", None
    return "GET", f"/diff?a={quote(run)}&b={quote(a)}", None


class Calibration:
    """Host calibration while every client is paused.

    A client that finds a calibration due waits at a barrier after its
    current request; when all have arrived (none has a request in flight
    and the service is idle) the last one times :func:`calib_ms` on the
    service's CPUs, where most of a request's work runs, and that becomes
    ``now``, the calibration every request is divided by until the next
    one.  Time spent paused is not loop time.
    """

    def __init__(self, service_cpus: set[int]) -> None:
        self.samples: list[float] = []
        self.service_cpus = service_cpus
        self.now: float | None = None
        self.last = float("-inf")
        self.barrier = threading.Barrier(CLIENTS, action=self._calibrate)

    def _calibrate(self) -> None:
        self.now = calib_ms_on(self.service_cpus)
        self.samples.append(self.now)
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= CALIB_EVERY_S

    def pause(self) -> None:
        """Wait for the other clients and calibrate."""
        try:
            self.barrier.wait(timeout=60)
        except threading.BrokenBarrierError:
            pass  # a client has finished: no more calibrations

    def close(self) -> None:
        self.barrier.abort()


class Client(threading.Thread):
    """One closed-loop client on one keep-alive connection."""

    def __init__(self, idx: int, state: State, deadline_fn, tracer,
                 calibration: Calibration) -> None:
        super().__init__(name=f"serve-client-{idx}", daemon=True)
        self.idx = idx
        self.state = state
        self.deadline_fn = deadline_fn
        self.tracer = tracer
        self.calibration = calibration
        self.rng = random.Random(state.seed * 31 + idx)
        self.push_ids = iter(range(idx, UNIQUE_PUSHES, CLIENTS))
        self.pushed: list[str] = []
        self.diffed: set = set()
        self.conn: http.client.HTTPConnection | None = None
        #: (req, ok, seconds, answer, hit, traced, calibration)
        self.log: list[tuple] = []
        #: Time of the untraced passes, pauses excluded, in seconds and
        #: in calib units.
        self.untraced_s = 0.0
        self.untraced_calib = 0.0
        self.passes = 0

    def _connect(self) -> http.client.HTTPConnection:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.state.server.port, timeout=60)
        return self.conn

    def _send(self, req: tuple):
        method, path, body = _wire(self.state, req)
        conn = self._connect()
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            self.conn = None
            return False, f"connection: {type(exc).__name__}: {exc}", False
        if resp.getheader("connection", "").lower() == "close":
            conn.close()
            self.conn = None
        if resp.status >= 400:
            return False, f"HTTP {resp.status}: {data[:200]!r}", False
        hit = resp.getheader("x-cache", "") == "hit"
        if req[0] == "viz":
            return True, data, hit
        answer = json.loads(data)
        return True, answer, hit or bool(answer.get("deduped"))

    def run(self) -> None:
        try:
            while not self.deadline_fn():
                self._pass()
        finally:
            self.calibration.close()
            if self.conn is not None:
                self.conn.close()

    def _pass(self) -> None:
        tracer = self.tracer if self.passes % 2 == 1 else None
        mix = list(MIX)
        self.rng.shuffle(mix)
        for kind in mix:
            if self.calibration.due():
                self.calibration.pause()
            calib = self.calibration.now
            t0 = time.perf_counter()
            if self.rng.random() < REPEAT_SHARE:
                req = self.rng.choice(
                    [r for r in self.state.hot if r[0] == kind])
            else:
                req = _unique(self.rng, kind, self.state, self.pushed,
                              self.diffed, self.push_ids)
            r0 = time.perf_counter()
            if tracer is not None:
                with tracer.span(f"serve.{kind}"):
                    ok, answer, hit = self._send(req)
            else:
                ok, answer, hit = self._send(req)
            seconds = time.perf_counter() - r0
            self.log.append((req, ok, seconds, _keep(req, ok, answer),
                             hit, tracer is not None, calib))
            if ok and kind == "push" and req[2] != 0:
                self.pushed.append(req[1])
            if tracer is None and calib:
                loop = time.perf_counter() - t0
                self.untraced_s += loop
                self.untraced_calib += loop * 1e3 / calib
        self.passes += 1


def _keep(req: tuple, ok: bool, answer):
    """The part of an answer the post-run checks need (query results in
    full; only the head of an SVG, only the presence of a diff report)."""
    if not ok or req[0] == "query":
        return answer
    if req[0] == "viz":
        return answer[:200]
    if req[0] == "diff":
        return {"report": bool(answer.get("report"))}
    return {"run": answer.get("run"), "deduped": answer.get("deduped")}


def run(state: State, seconds: float, rec: Recorder, trace: bool) -> dict:
    """Both clients send until ``seconds`` have passed (whole passes);
    in traced runs each client alternates untraced and traced passes, and
    latencies and throughput come from the untraced ones.  The host is
    calibrated at most every ``CALIB_EVERY_S`` (:class:`Calibration`)."""
    tracer = rec.tracer if trace else None
    if tracer is not None:
        tracer.take()
        tracer.recording = True
    calibration = Calibration(state.server_cpus)
    end = time.perf_counter() + seconds
    clients = [Client(i, state, lambda: time.perf_counter() >= end, tracer,
                      calibration)
               for i in range(CLIENTS)]
    for c in clients:
        c.start()
    for c in clients:
        c.join(timeout=seconds + 120)
        check(not c.is_alive(), f"{c.name} did not finish")
    rec.samples["host.calib_ms"].extend(calibration.samples)
    # The clients run side by side: throughput is all their untraced
    # requests over the mean of their untraced time.
    rec.untraced_s = sum(c.untraced_s for c in clients) / len(clients)
    rec.untraced_calib = sum(c.untraced_calib
                             for c in clients) / len(clients)
    if tracer is not None:
        tracer.recording = False
        self_s, calls = tracer.take()
        for name, value in self_s.items():
            rec.span_self[name] += value
        for name, value in calls.items():
            rec.span_calls[name] += value
    logs = [c.log for c in clients]
    expected: dict = {}
    repeats = 0
    for log in logs:
        for req, ok, sec, answer, hit, traced, calib in log:
            rec.attempted += 1
            kind = req[0]
            if req in state.hot:
                repeats += 1
            if not ok:
                rec.fail(f"{kind} request", RuntimeError(answer))
                continue
            if not rec.verify(f"{kind} check", _verify, state, req, answer,
                              expected):
                continue
            if not traced:
                rec.untraced_ops += 1
                name = "write" if kind == "push" else f"read.{kind}"
                rec.add(name, sec)
                rec.add_time(f"{name}.{variant(req)}."
                             f"{'hit' if hit else 'miss'}", sec, calib)
            if rec.tracer is not None:
                rec.add("op_s.traced" if traced else "op_s.untraced", sec)
            if traced:
                rec.traced_ops += 1
                rec.traced_wall += sec
    if rec.traced_ops:
        rec.unattributed = rec.traced_wall - sum(
            v for k, v in rec.span_self.items() if k.startswith("serve."))
    stats = state.server.request("GET", "/stats")
    art = stats.get("artifacts", {})
    hits, misses = art.get("hits", 0), art.get("misses", 0)
    return {
        "serve.artifact_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "serve.rejected_429": stats.get("ingest", {}).get(
            "rejected_backpressure", 0),
        "serve.errors": stats.get("errors", 0),
        "serve.workers.dispatched": stats.get("workers", {}).get(
            "dispatched", 0),
        "serve.server_peak_rss_mb": state.server.peak_rss_mb(),
        "repeat_share": repeats / max(rec.attempted, 1),
    }


def _verify(state: State, req: tuple, answer, expected: dict) -> None:
    kind = req[0]
    if kind == "query":
        _, run, section, text = req
        key = (run, section, text)
        if key not in expected:
            with api.open_run(state.base[run]) as local:
                result = local.query(text, section=section)
            if isinstance(result, list):
                result = [[k, v] for k, v in result]
            expected[key] = result
        check(answer.get("result") == expected[key],
              f"served answer to {text!r} on {run} differs from the "
              f"in-process answer")
    elif kind == "viz":
        check(b"<svg" in answer[:200], f"{req[2]} view is not SVG")
    elif kind == "diff":
        check(bool(answer.get("report")), "empty diff report")
    else:
        check(answer.get("run") == req[1] or answer.get("deduped"),
              f"push of {req[1]} registered as {answer.get('run')!r}")


def stop(state: State) -> None:
    if state.server is not None:
        state.server.stop()
