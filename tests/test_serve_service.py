"""End-to-end tests for the ActorProf service (`repro.serve`).

Each test talks to a real server on a background thread through real
sockets — the same wire path `actorprof push` uses — so chunked
streaming, backpressure, and connection teardown are all exercised for
real, not mocked.
"""

import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.logical import LogicalTrace
from repro.machine.spec import MachineSpec
from repro.core.store.registry import RunRegistry
from repro.core.store.writer import export_run
from repro.serve import (
    Backpressure,
    IngestLimits,
    ServeClient,
    ServeError,
    ServerConfig,
    ServerThread,
)


def make_archive(path, seed: int = 0, degraded: bool = False):
    """A small logical-trace archive whose bytes depend on ``seed``."""
    spec = MachineSpec(1, 4)
    trace = LogicalTrace(spec)
    trace.record(0, 1, 64 + seed)
    trace.record(0, 2, 128)
    trace.record(1, 2, 64 + seed)
    meta = {"app": "demo", "seed": seed}
    if degraded:
        meta["degraded"] = True
    return export_run(path, logical=trace, meta=meta)


@pytest.fixture()
def server(tmp_path):
    config = ServerConfig(data_dir=tmp_path / "srv", port=0, shards=2,
                          workers=2, allow_shutdown=True)
    with ServerThread(config) as srv:
        yield srv


def raw_exchange(server, wire: bytes) -> bytes:
    """Send raw bytes on a fresh socket and read until the peer closes."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.sendall(wire)
        sock.shutdown(socket.SHUT_WR)  # EOF: nothing more is coming
        out = b""
        while True:
            data = sock.recv(1 << 16)
            if not data:
                return out
            out += data


def test_health_banner_and_unknown_route(server):
    client = server.client()
    assert client.health() == {"ok": True}
    banner = client.request_json("GET", "/")
    assert banner["service"] == "actorprof"
    with pytest.raises(ServeError) as excinfo:
        client.request_json("GET", "/nope")
    assert excinfo.value.status == 404


def test_push_list_show_query_diff_roundtrip(server, tmp_path):
    client = server.client()
    a = make_archive(tmp_path / "a.aptrc", seed=1)
    b = make_archive(tmp_path / "b.aptrc", seed=2)
    pushed = client.push(a, run_id="alpha")
    assert pushed["run"] == "alpha" and pushed["created_run"]
    client.push(b, run_id="beta")

    assert [r["run"] for r in client.runs()] == ["alpha", "beta"]
    shown = client.show("alpha")
    assert shown["meta"]["app"] == "demo"
    assert "logical" in shown["sections"]
    assert not shown["degraded"]

    reply = client.query("alpha", "sends where src == 0")
    assert reply["result"] == 2
    assert reply["cached"] is False
    assert reply["query"] == "sends where src == 0"

    grouped = client.query("alpha", "bytes group by src top 2")
    assert isinstance(grouped["result"], list)

    report = client.diff("alpha", "beta")
    assert report["cached"] is False
    again = client.diff("alpha", "beta")
    assert again["cached"] is True
    assert again["report"] == report["report"]


def test_identical_queries_from_distinct_clients_share_artifacts(
        server, tmp_path):
    # the acceptance criterion: repeated identical queries across
    # *distinct* clients are served from the shared artifact store,
    # visible in the cache-hit counter — cosmetic spelling differences
    # included, since keys use the normalized query text
    first = server.client()
    second = ServeClient("127.0.0.1", server.port)
    first.push(make_archive(tmp_path / "a.aptrc"), run_id="alpha")

    before = first.stats()["artifacts"]
    miss = first.query("alpha", "sends where src == 0 group by dst")
    hit = second.query("alpha", "sends  WHERE src==0 group by  dst")
    assert miss["cached"] is False
    assert hit["cached"] is True
    assert hit["result"] == miss["result"]

    after = first.stats()["artifacts"]
    assert after["hits"] == before["hits"] + 1
    assert after["stores"] == before["stores"] + 1

    # the X-Cache header mirrors the flag
    status, headers, _ = second.request(
        "GET", "/runs/alpha/query?q=sends%20where%20src%20==%200%20"
               "group%20by%20dst")
    assert status == 200 and headers["x-cache"] == "hit"


def test_duplicate_upload_dedups_by_fingerprint(server, tmp_path):
    client = server.client()
    archive = make_archive(tmp_path / "a.aptrc", seed=7)
    first = client.push(archive)
    assert first["created_run"]
    assert first["run"] == f"run-{first['fingerprint'][:12]}"

    again = client.push(archive)  # same bytes, default id
    assert again["deduped"] and not again["created_run"]
    assert again["run"] == first["run"]

    renamed = client.push(archive, run_id="other-name")  # same bytes, new id
    assert renamed["deduped"] and renamed["run"] == first["run"]

    assert len(client.runs()) == 1
    stats = client.stats()["ingest"]
    assert stats["accepted"] == 1 and stats["deduped"] == 2


def test_same_id_different_bytes_conflicts(server, tmp_path):
    client = server.client()
    client.push(make_archive(tmp_path / "a.aptrc", seed=1), run_id="night")
    with pytest.raises(ServeError) as excinfo:
        client.push(make_archive(tmp_path / "b.aptrc", seed=2),
                    run_id="night")
    assert excinfo.value.status == 409
    assert len(client.runs()) == 1


def test_truncated_chunked_upload_rejected_not_registered(server, tmp_path):
    client = server.client()
    payload = make_archive(tmp_path / "a.aptrc").read_bytes()
    head = (f"POST /runs HTTP/1.1\r\nHost: h\r\n"
            f"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            ).encode()
    # one real chunk, then the connection dies mid-stream
    partial = head + b"%x\r\n" % (len(payload) // 2) + payload[:100]
    assert raw_exchange(server, partial) == b""  # nothing to answer

    assert client.runs() == []
    assert client.stats()["ingest"]["accepted"] == 0
    spool = server.config.data_dir / "spool"
    assert not list(spool.glob("*.part"))  # partial spool file was deleted


def test_truncated_sized_upload_rejected(server, tmp_path):
    client = server.client()
    payload = make_archive(tmp_path / "a.aptrc").read_bytes()
    head = (f"POST /runs HTTP/1.1\r\nHost: h\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
            ).encode()
    raw_exchange(server, head + payload[: len(payload) // 2])
    assert client.runs() == []


def test_garbage_upload_rejected_as_corrupt(server):
    client = server.client()
    with pytest.raises(ServeError) as excinfo:
        client.request_json("POST", "/runs", body=b"this is not an archive")
    assert excinfo.value.status == 400
    assert "archive" in excinfo.value.message
    assert client.stats()["ingest"]["rejected_corrupt"] == 1


def test_oversized_upload_rejected(tmp_path):
    config = ServerConfig(data_dir=tmp_path / "srv", port=0,
                          allow_shutdown=True,
                          ingest=IngestLimits(max_archive_bytes=200))
    with ServerThread(config) as server:
        client = server.client()
        # declared oversize: rejected from the Content-Length alone
        with pytest.raises(ServeError) as excinfo:
            client.request_json("POST", "/runs", body=b"x" * 500)
        assert excinfo.value.status == 413
        # undeclared (chunked) oversize: cut off while streaming
        with pytest.raises(ServeError) as excinfo:
            client.request_json("POST", "/runs",
                                chunks=iter([b"x" * 150, b"y" * 150]))
        assert excinfo.value.status == 413
        assert client.stats()["ingest"]["rejected_oversize"] == 2
        assert client.runs() == []
        assert not list((config.data_dir / "spool").glob("*.part"))


def test_backpressure_engages_without_dropping_uploads(tmp_path):
    config = ServerConfig(data_dir=tmp_path / "srv", port=0,
                          allow_shutdown=True,
                          ingest=IngestLimits(max_active=1,
                                              retry_after=0.05))
    with ServerThread(config) as server:
        client = server.client()
        payload = make_archive(tmp_path / "slow.aptrc", seed=1).read_bytes()
        small = make_archive(tmp_path / "small.aptrc", seed=2)

        # a slow upload parks on the single ingest slot: send the head
        # and the first chunk, then stall mid-stream
        head = (b"POST /runs?id=slow-run HTTP/1.1\r\nHost: h\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"Connection: close\r\n\r\n")
        half = len(payload) // 2
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as slow:
            slow.sendall(head + b"%x\r\n" % half + payload[:half] + b"\r\n")
            # until the slow upload is admitted, small pushes succeed
            # (and dedup); once it holds the slot they must see 429
            saw_backpressure = False
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    client.request_json("POST", "/runs",
                                        body=small.read_bytes())
                except Backpressure as exc:
                    assert exc.retry_after > 0
                    saw_backpressure = True
                    break
                time.sleep(0.01)
            assert saw_backpressure

            # the stalled upload still completes — backpressure refused
            # new work without dropping admitted work
            rest = len(payload) - half
            slow.sendall(b"%x\r\n" % rest + payload[half:] + b"\r\n"
                         b"0\r\n\r\n")
            reply = b""
            while b"\r\n\r\n" not in reply:
                reply += slow.recv(1 << 16)
            assert b"201 Created" in reply

        runs = {r["run"] for r in client.runs()}
        assert "slow-run" in runs
        stats = client.stats()["ingest"]
        assert stats["rejected_backpressure"] >= 1
        # the freed slot accepts new pushes again
        assert "run" in client.push(small)


def test_push_retries_through_backpressure(tmp_path):
    # ServeClient.push sleeps Retry-After and retries; against a
    # freed-up server the first retry lands
    config = ServerConfig(data_dir=tmp_path / "srv", port=0,
                          allow_shutdown=True,
                          ingest=IngestLimits(max_active=1,
                                              retry_after=0.05))
    with ServerThread(config) as server:
        client = server.client()
        archives = [make_archive(tmp_path / f"r{i}.aptrc", seed=i)
                    for i in range(6)]
        with ThreadPoolExecutor(max_workers=6) as pool:
            replies = list(pool.map(lambda a: client.push(a), archives))
        assert len({r["run"] for r in replies}) == 6
        assert len(client.runs()) == 6


def test_rejected_upload_reads_429_after_broken_pipe(tmp_path):
    # max_active=0: the gate answers 429 at admission, before reading a
    # single body byte, and closes.  A client still streaming its body
    # then hits EPIPE/ECONNRESET and must read the 429 instead of raising
    config = ServerConfig(data_dir=tmp_path / "srv", port=0,
                          allow_shutdown=True,
                          ingest=IngestLimits(max_active=0,
                                              retry_after=0.01))
    total = 1024
    sent = []

    def chunks():
        block = bytes(1 << 16)
        for _ in range(total):  # 64 MiB: far beyond the socket buffers
            sent.append(len(block))
            yield block

    with ServerThread(config) as server:
        client = server.client()
        status, headers, _ = client.request("POST", "/runs",
                                            chunks=chunks())
        assert status == 429 and float(headers["retry-after"]) > 0
        assert len(sent) < total  # the close cut the upload short
        with pytest.raises(Backpressure):
            client.push(make_archive(tmp_path / "a.aptrc"), retries=2)
        assert client.stats()["ingest"]["rejected_backpressure"] == 4


def test_concurrent_ingest_storm_matches_serial_application(tmp_path):
    # acceptance criterion: after a concurrent storm the registry holds
    # exactly what serially registering the same archives would produce
    n = 16
    archives = [make_archive(tmp_path / f"r{i:02d}.aptrc", seed=i)
                for i in range(n)]
    config = ServerConfig(data_dir=tmp_path / "srv", port=0, shards=4,
                          allow_shutdown=True,
                          ingest=IngestLimits(max_active=4,
                                              retry_after=0.02))
    with ServerThread(config) as server:
        client = server.client()
        with ThreadPoolExecutor(max_workers=n) as pool:
            replies = list(pool.map(
                lambda a: server.client().push(a, retries=100), archives))
        assert all(r["created_run"] for r in replies)
        stormed = {(r["run"], r["fingerprint"]) for r in client.runs()}
        stats = client.stats()["ingest"]
        assert stats["accepted"] == n

    serial = RunRegistry(tmp_path / "serial-reg", shards=4)
    expected = set()
    for archive in archives:
        info = serial.add(archive)  # same deterministic run-<fp12> ids?
        expected.add(info.fingerprint)
    # ids differ (serial uses filename stems) but the fingerprint sets —
    # the content — must match exactly, and every service id is the
    # deterministic run-<fp[:12]> of a serially computed fingerprint
    assert {fp for _, fp in stormed} == expected
    assert {rid for rid, _ in stormed} == {f"run-{fp[:12]}"
                                           for fp in expected}


def test_degraded_archive_accepted_and_flagged(server, tmp_path):
    client = server.client()
    pushed = client.push(make_archive(tmp_path / "d.aptrc", degraded=True),
                         run_id="crashy")
    assert pushed["degraded"] is True
    assert client.show("crashy")["degraded"] is True
    assert client.stats()["ingest"]["degraded"] == 1
    # degraded archives still answer queries
    assert client.query("crashy", "sends")["result"] == 3


def test_bad_query_and_unknown_run(server, tmp_path):
    client = server.client()
    client.push(make_archive(tmp_path / "a.aptrc"), run_id="alpha")
    for bad in ("sends where", "frobnicate", "sends where src @ 1"):
        with pytest.raises(ServeError) as excinfo:
            client.query("alpha", bad)
        assert excinfo.value.status == 400, bad
    with pytest.raises(ServeError) as excinfo:
        client.query("ghost", "sends")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client.query("alpha", "sends", section="physical")  # not recorded
    assert excinfo.value.status == 400


def test_shutdown_endpoint_gated_and_clean(tmp_path):
    config = ServerConfig(data_dir=tmp_path / "srv", port=0,
                          allow_shutdown=False)
    with ServerThread(config) as server:
        with pytest.raises(ServeError) as excinfo:
            server.client().shutdown()
        assert excinfo.value.status == 403

    config2 = ServerConfig(data_dir=tmp_path / "srv2", port=0,
                           allow_shutdown=True)
    server = ServerThread(config2)
    assert server.client().shutdown() == {"ok": True, "stopping": True}
    server._thread.join(15)
    assert not server._thread.is_alive()


def test_keep_alive_serves_sequential_requests(server):
    wire = (b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n")
    out = raw_exchange(server, wire)
    assert out.count(b'"ok": true') == 2
    assert out.count(b"200 OK") == 2


def test_process_worker_mode_answers_queries(tmp_path):
    config = ServerConfig(data_dir=tmp_path / "srv", port=0, workers=2,
                          worker_mode="process", allow_shutdown=True)
    with ServerThread(config) as server:
        client = server.client()
        client.push(make_archive(tmp_path / "a.aptrc"), run_id="alpha")
        assert client.query("alpha", "sends")["result"] == 3
        assert client.query("alpha", "sends ")["cached"] is True
        assert client.stats()["workers"]["mode"] == "process"
