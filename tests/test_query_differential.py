"""Differential tests: one query language, one oracle, four frame paths.

Every valid query must return what the independent row-walk oracle
(:mod:`tests.query_oracle`, a Python walk over the trace objects'
aggregated routes) returns, on

1. the in-memory trace objects (an in-memory section, full decode),
2. a stats-carrying archive with pushdown (chunk pruning + footer sums),
3. the same archive with ``pushdown=False`` (full column decode),
4. a stat-less archive (pre-extension footer; full-decode fallback),

including multi-chunk archives whose sections hold *partial* aggregates
with duplicate route keys.  Hypothesis drives random traces and a
grammar walk over the query surface.

The second half pins the vectorized varint codec to its scalar oracle:
byte-identical encodes, identical decodes, and identical rejection of
truncated / trailing / overflowing streams — including the 10-byte
encodings at the top of the uint64 range.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conveyors.hooks import SEND_TYPES
from repro.core.logical import LogicalTrace
from repro.core.physical import PhysicalTrace
from repro.core.query import query_trace
from repro.core.store.archive import Archive
from repro.core.store.codec import (
    CodecError,
    decode_uvarints,
    decode_uvarints_scalar,
    encode_uvarints,
    encode_uvarints_scalar,
)
from repro.core.store.writer import ArchiveWriter, export_run
from repro.machine.spec import MachineSpec

from tests.query_oracle import oracle_query

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# ----------------------------------------------------------------------
# trace + query strategies
# ----------------------------------------------------------------------

@st.composite
def machine_specs(draw):
    return MachineSpec(draw(st.integers(1, 3)), draw(st.integers(1, 4)))


@st.composite
def traced_runs(draw):
    """A (logical, physical) pair over one machine, with shared routes."""
    spec = draw(machine_specs())
    logical = LogicalTrace(spec)
    physical = PhysicalTrace(spec.n_pes, spec=spec)
    pes = st.integers(0, spec.n_pes - 1)
    rows = draw(st.lists(
        st.tuples(pes, pes, st.integers(1, 64), st.integers(1, 20),
                  st.sampled_from(SEND_TYPES)),
        min_size=1, max_size=40,
    ))
    for src, dst, size, count, kind in rows:
        key = (dst, size)
        logical._counts[src][key] = logical._counts[src].get(key, 0) + count
        pkey = (kind, size, src, dst)
        physical._counts[pkey] = physical._counts.get(pkey, 0) + count
    return spec, logical, physical


_LOGICAL_FIELDS = ("src", "dst", "size", "src_node", "dst_node")
_PHYSICAL_FIELDS = ("src", "dst", "size", "kind", "src_node", "dst_node")
_OPS = ("==", "!=", "<", "<=", ">", ">=")


@st.composite
def queries(draw, fields):
    """A grammar walk: metric [where ...] [group by f] [top N]."""
    parts = [draw(st.sampled_from(("sends", "bytes", "ops")))]
    conds = []
    for _ in range(draw(st.integers(0, 2))):
        fld = draw(st.sampled_from(fields))
        if fld == "kind":
            op = draw(st.sampled_from(("==", "!=")))
            value = draw(st.sampled_from(SEND_TYPES + ("no_such_kind",)))
        else:
            op = draw(st.sampled_from(_OPS))
            if draw(st.booleans()):
                value = draw(st.sampled_from(
                    tuple(f for f in fields if f != "kind")))
            else:
                value = draw(st.integers(-2, 12))
        conds.append(f"{fld} {op} {value}")
    if conds:
        parts.append("where " + " and ".join(conds))
    if draw(st.booleans()):
        parts.append(f"group by {draw(st.sampled_from(fields))}")
        if draw(st.booleans()):
            parts.append(f"top {draw(st.integers(1, 4))}")
    return " ".join(parts)


def _export_chunked(path, name, columns_of, attrs, rows, n_chunks, stats):
    """Write one section in ``n_chunks`` row groups (partial aggregates)."""
    with ArchiveWriter(path, meta=attrs, stats=stats) as writer:
        section = writer.begin_section(name, tuple(columns_of), attrs=attrs)
        bounds = np.linspace(0, len(rows), n_chunks + 1).astype(int)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo == hi:
                continue
            section.write_chunk({
                col: [r[i] for r in rows[lo:hi]]
                for i, col in enumerate(columns_of)
            })
        section.end()
    return path


@given(traced_runs(), st.data())
@SETTINGS
def test_differential_logical(tmp_path, run, data):
    spec, logical, physical = run
    query = data.draw(queries(_LOGICAL_FIELDS))
    expected = oracle_query(logical, query)
    assert query_trace(logical, query) == expected, ("memory", query)

    flavors = {
        "stats": export_run(tmp_path / "s.aptrc", logical=logical),
        "nostats": export_run(tmp_path / "n.aptrc", logical=logical,
                              stats=False),
    }
    # multi-chunk: the same routes split across row groups
    rows = [(src, dst, size, n)
            for src, counts in enumerate(logical._counts)
            for (dst, size), n in sorted(counts.items())]
    if rows:
        attrs = {"nodes": spec.nodes, "pes_per_node": spec.pes_per_node,
                 "n_pes": spec.n_pes}
        flavors["chunked"] = _export_chunked(
            tmp_path / "c.aptrc", "logical", ("src", "dst", "size", "count"),
            attrs, rows, n_chunks=3, stats=True)

    for label, path in flavors.items():
        with Archive(path) as archive:
            section = archive.section("logical")
            for pushdown in (True, False):
                got = query_trace(section, query, pushdown=pushdown)
                assert got == expected, (label, pushdown, query)


@given(traced_runs(), st.data())
@SETTINGS
def test_differential_physical(tmp_path, run, data):
    spec, logical, physical = run
    query = data.draw(queries(_PHYSICAL_FIELDS))
    expected = oracle_query(physical, query)
    assert query_trace(physical, query) == expected, ("memory", query)
    flavors = {
        "stats": export_run(tmp_path / "s.aptrc", physical=physical),
        "nostats": export_run(tmp_path / "n.aptrc", physical=physical,
                              stats=False),
    }
    for label, path in flavors.items():
        with Archive(path) as archive:
            section = archive.section("physical")
            for pushdown in (True, False):
                got = query_trace(section, query, pushdown=pushdown)
                assert got == expected, (label, pushdown, query)


def test_pruning_skips_chunks_but_not_answers(tmp_path):
    """A selective predicate decodes fewer row groups under pushdown."""
    rows = [(src, dst, 8, 1) for src in range(64) for dst in range(4)]
    attrs = {"nodes": 1, "pes_per_node": 64, "n_pes": 64}
    path = _export_chunked(tmp_path / "p.aptrc", "logical",
                           ("src", "dst", "size", "count"), attrs,
                           rows, n_chunks=8, stats=True)
    decodes = {True: 0, False: 0}
    results = {}
    for pushdown in (True, False):
        with Archive(path) as archive:
            real = archive._decode_chunk

            def counting(*args, _real=real, _p=pushdown, **kw):
                decodes[_p] += 1
                return _real(*args, **kw)

            archive._decode_chunk = counting
            results[pushdown] = query_trace(
                archive.section("logical"),
                "sends where src == 3 group by dst", pushdown=pushdown)
    assert results[True] == results[False]
    assert results[True] == [(d, 1) for d in range(4)]
    # src == 3 lives in 1 of 8 row groups; pushdown reads only that one
    assert decodes[True] < decodes[False]


# ----------------------------------------------------------------------
# vectorized varint codec vs scalar oracle
# ----------------------------------------------------------------------

uint64s = st.integers(0, 2**64 - 1)

#: Width-boundary values: first/last value of every varint byte width,
#: including the 10-byte encodings at the top of the range.
BOUNDARY = sorted({0, 1} | {
    v for k in range(1, 10) for v in
    ((1 << (7 * k)) - 1, 1 << (7 * k), (1 << (7 * k)) + 1)
} | {2**63 - 1, 2**63, 2**64 - 1})


@given(st.lists(uint64s, max_size=200))
@SETTINGS
def test_vectorized_encode_is_byte_identical(values):
    arr = np.asarray(values, dtype=np.uint64)
    assert encode_uvarints(arr) == encode_uvarints_scalar(arr)


@given(st.lists(uint64s, max_size=200))
@SETTINGS
def test_vectorized_decode_matches_scalar(values):
    arr = np.asarray(values, dtype=np.uint64)
    payload = encode_uvarints_scalar(arr)
    got = decode_uvarints(payload, len(values))
    oracle = decode_uvarints_scalar(payload, len(values))
    assert got.dtype == oracle.dtype == np.uint64
    assert got.tolist() == oracle.tolist() == values


def test_boundary_values_roundtrip():
    arr = np.asarray(BOUNDARY, dtype=np.uint64)
    payload = encode_uvarints(arr)
    assert payload == encode_uvarints_scalar(arr)
    assert decode_uvarints(payload, len(BOUNDARY)).tolist() == BOUNDARY


@given(st.binary(max_size=64), st.integers(0, 16))
@SETTINGS
def test_decode_accepts_and_rejects_exactly_like_scalar(data, count):
    """Arbitrary byte soup: both decoders agree on accept/reject and,
    when rejecting, on the error message."""
    try:
        oracle = decode_uvarints_scalar(data, count)
        oracle_err = None
    except CodecError as exc:
        oracle, oracle_err = None, str(exc)
    try:
        got = decode_uvarints(data, count)
        got_err = None
    except CodecError as exc:
        got, got_err = None, str(exc)
    assert got_err == oracle_err
    if oracle is not None:
        assert got.tolist() == oracle.tolist()


@pytest.mark.parametrize("stream,count,message", [
    (b"\x80", 1, "truncated"),                  # continuation, then EOF
    (b"\x01\x01", 1, "trailing"),               # one value, extra byte
    (b"\x01", 0, "trailing"),                   # zero values, data present
    (b"\x80" * 10 + b"\x01", 1, "overflows"),   # 11-byte varint
    (b"\x80" * 9 + b"\x02", 1, "overflows"),    # 10 bytes, payload > 1 bit
    # stream-order precedence: an overflow earlier in the stream wins
    # over truncation / trailing bytes discovered later
    (b"\x80" * 9 + b"\x02", 2, "overflows"),    # value 0 overflows, 1 missing
    (b"\x80" * 10, 1, "overflows"),             # unfinished 10-byte run
    (b"\x01" + b"\x80" * 10 + b"\x01\x05", 2, "overflows"),  # + trailing
])
def test_malformed_streams_rejected(stream, count, message):
    for decoder in (decode_uvarints, decode_uvarints_scalar):
        with pytest.raises(CodecError, match=message):
            decoder(stream, count)


def test_ten_byte_varint_top_bit():
    # 2**63 needs the 10th byte's single payload bit — legal and exact
    payload = encode_uvarints(np.asarray([2**63], dtype=np.uint64))
    assert len(payload) == 10
    assert decode_uvarints(payload, 1).tolist() == [2**63]
