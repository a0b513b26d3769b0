"""The ``.aptrc`` single-file binary columnar trace archive (reader side).

Layout::

    +----------------------------+
    | magic  "APTRC01\\n" (8 B)   |
    +----------------------------+
    | chunk payloads …           |   encoded column bytes, append-only
    +----------------------------+
    | footer  zlib(JSON)         |   run metadata + section/column index
    +----------------------------+
    | footer offset  (u64 LE)    |
    | footer length  (u32 LE)    |
    | tail magic "APTRCEND" (8 B)|
    +----------------------------+

The footer JSON indexes every section and, per column, the list of
chunks (offset, length, encoding, count) its data lives in.  A reader
therefore seeks straight to the bytes of one column of one section and
decodes nothing else — :class:`Archive` tracks exactly which columns
have been decoded (:attr:`Archive.decoded_columns`) so tests can assert
that laziness.

Sections written by :func:`repro.core.store.writer.export_run`:

=============  =====================================================
``logical``    aggregated logical sends: src, dst, size, count
``physical``   Conveyors ops: kind (code), size, src, dst, count
``papi``       sampled PAPI rows: src, dst, pkt_size, mailbox,
               num_sends, ev_0 … ev_{k-1}
``overall``    per-PE cycles: t_main, t_proc, t_total
=============  =====================================================

Chunked columns arise from streaming writers
(:class:`~repro.core.store.writer.TraceArchiver`): aggregate sections
may contain *partial* aggregates per chunk, which the trace
constructors merge by summing duplicate keys.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.logical import LogicalTrace
from repro.core.overall import OverallProfile
from repro.core.papi_trace import PAPITrace
from repro.core.physical import PhysicalTrace
from repro.machine.spec import MachineSpec

MAGIC = b"APTRC01\n"
TAIL_MAGIC = b"APTRCEND"
TRAILER = struct.Struct("<QI")  # footer offset, footer length
FORMAT_VERSION = 1

#: Conventional file suffix for trace archives.
SUFFIX = ".aptrc"


class ArchiveError(ValueError):
    """Raised when a ``.aptrc`` file is malformed or unreadable."""


@dataclass(frozen=True)
class ChunkRef:
    """Location of one encoded chunk of one column.

    ``stats`` is the optional ``(min, max, sum)`` of the chunk's decoded
    values, recorded by writers since the chunk-stats footer extension;
    archives written before it carry ``None`` and readers fall back to
    full decoding.
    """

    offset: int
    length: int
    encoding: str
    count: int
    stats: tuple[int, int, int] | None = None


class Section:
    """Lazy view of one archive section; decodes columns on demand.

    :meth:`from_columns` builds the same view over in-memory columns.
    """

    def __init__(self, archive: "Archive | None", name: str,
                 index: dict) -> None:
        self._archive = archive
        self.name = name
        self.attrs: dict = index.get("attrs", {})
        self.rows: int = int(index.get("rows", 0))
        self._chunks: dict[str, list[ChunkRef]] = {
            col: [ChunkRef(int(c[0]), int(c[1]), str(c[2]), int(c[3]),
                           tuple(int(s) for s in c[4]) if len(c) > 4 else None)
                  for c in chunks]
            for col, chunks in index.get("columns", {}).items()
        }
        raw_bytes = index.get("chunk_bytes")
        #: Per row-group ``sum(count * size)``, when the writer stored it.
        self.chunk_bytes: list[int] | None = (
            [int(w) for w in raw_bytes] if raw_bytes is not None else None
        )
        self._cache: dict[str, np.ndarray] = {}
        self._chunk_cache: dict[tuple[str, int], np.ndarray] = {}

    @classmethod
    def from_columns(cls, name: str, columns: dict[str, np.ndarray],
                     attrs: dict) -> "Section":
        """An in-memory section over already-decoded columns.

        Takes the ``(columns, attrs)`` pair of a trace's ``to_columns()``
        and holds it as one stat-less row group with no archive behind
        it, so queries and diffs read in-memory traces through the same
        :class:`~repro.core.store.frame.Frame` path as archives (full
        decode, no pruning).
        """
        rows = len(next(iter(columns.values()), ()))
        section = cls(None, name, {
            "attrs": attrs,
            "rows": rows,
            "columns": {col: [(0, 0, "memory", rows)] for col in columns},
        })
        for col, values in columns.items():
            section._cache[col] = values
        return section

    @property
    def columns(self) -> tuple[str, ...]:
        """Names of the columns stored in this section."""
        return tuple(self._chunks)

    @property
    def chunks_aligned(self) -> bool:
        """True when every column has the same per-chunk row counts.

        Writers always produce aligned chunks (one row group spans all
        columns); alignment is what makes chunk-level pruning sound.
        """
        counts = None
        for refs in self._chunks.values():
            these = [ref.count for ref in refs]
            if counts is None:
                counts = these
            elif these != counts:
                return False
        return True

    @property
    def n_chunks(self) -> int:
        """Number of row groups (0 for an empty section)."""
        for refs in self._chunks.values():
            return len(refs)
        return 0

    def chunk_refs(self, name: str) -> tuple[ChunkRef, ...]:
        """The chunk index entries of one column."""
        if name not in self._chunks:
            raise ArchiveError(
                f"section {self.name!r} has no column {name!r} "
                f"(have {sorted(self._chunks)})"
            )
        return tuple(self._chunks[name])

    def read_chunk(self, name: str, i: int) -> np.ndarray:
        """Read + decode one chunk of one column (cached)."""
        cached = self._chunk_cache.get((name, i))
        if cached is not None:
            return cached
        ref = self.chunk_refs(name)[i]
        out = self._archive._decode_chunk(self.name, name, ref)
        self._chunk_cache[(name, i)] = out
        return out

    def column(self, name: str) -> np.ndarray:
        """Read + decode one column (cached); int64 array of ``rows``."""
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        refs = self.chunk_refs(name)
        parts = [self.read_chunk(name, i) for i in range(len(refs))]
        if parts:
            out = parts[0] if len(parts) == 1 else np.concatenate(parts)
        else:
            out = np.zeros(0, dtype=np.int64)
        if len(out) != self.rows:
            raise ArchiveError(
                f"section {self.name!r} column {name!r} decodes to "
                f"{len(out)} values, expected {self.rows}"
            )
        self._cache[name] = out
        return out

    def read(self) -> dict[str, np.ndarray]:
        """Decode every column of this section."""
        return {name: self.column(name) for name in self._chunks}


class Archive:
    """Reader for a ``.aptrc`` file.

    Opening an archive reads only the fixed-size trailer and the footer
    index — no trace data.  Column bytes are fetched and decoded lazily
    through :meth:`Section.column`, and every decode is logged in
    :attr:`decoded_columns` as ``(section, column)`` pairs.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: ``(section, column)`` pairs actually decoded so far.
        self.decoded_columns: set[tuple[str, str]] = set()
        self._file = self.path.open("rb")
        try:
            self._read_footer()
        except Exception:
            self._file.close()
            raise

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Archive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    # -- index -----------------------------------------------------------

    def _read_footer(self) -> None:
        f = self._file
        f.seek(0, 2)
        size = f.tell()
        tail_len = TRAILER.size + len(TAIL_MAGIC)
        if size < len(MAGIC) + tail_len:
            raise ArchiveError(f"{self.path}: too small to be an archive")
        f.seek(0)
        if f.read(len(MAGIC)) != MAGIC:
            raise ArchiveError(f"{self.path}: bad magic (not a .aptrc file)")
        f.seek(size - tail_len)
        trailer = f.read(tail_len)
        if trailer[TRAILER.size:] != TAIL_MAGIC:
            raise ArchiveError(f"{self.path}: truncated (missing tail magic)")
        foot_off, foot_len = TRAILER.unpack(trailer[: TRAILER.size])
        if foot_off + foot_len > size - tail_len:
            raise ArchiveError(f"{self.path}: footer index out of bounds")
        f.seek(foot_off)
        try:
            footer = json.loads(zlib.decompress(f.read(foot_len)))
        except (zlib.error, json.JSONDecodeError) as exc:
            raise ArchiveError(f"{self.path}: footer corrupt: {exc}") from exc
        version = footer.get("version")
        if version != FORMAT_VERSION:
            raise ArchiveError(
                f"{self.path}: unsupported format version {version!r}"
            )
        self.meta: dict = footer.get("meta", {})
        self._sections: dict[str, Section] = {
            name: Section(self, name, idx)
            for name, idx in footer.get("sections", {}).items()
        }

    @property
    def sections(self) -> tuple[str, ...]:
        """Names of the sections present in this archive."""
        return tuple(self._sections)

    def has_section(self, name: str) -> bool:
        return name in self._sections

    def section(self, name: str) -> Section:
        try:
            return self._sections[name]
        except KeyError:
            raise ArchiveError(
                f"{self.path}: no section {name!r} "
                f"(have {sorted(self._sections)})"
            ) from None

    def _decode_chunk(self, section: str, column: str, ref: ChunkRef) -> np.ndarray:
        from repro.core.store.codec import decode_column

        self._file.seek(ref.offset)
        payload = self._file.read(ref.length)
        if len(payload) != ref.length:
            raise ArchiveError(
                f"{self.path}: short read in section {section!r} "
                f"column {column!r}"
            )
        self.decoded_columns.add((section, column))
        return decode_column(payload, ref.encoding, ref.count)

    # -- run metadata ----------------------------------------------------

    def spec(self) -> MachineSpec:
        """The run's :class:`MachineSpec`, from footer metadata."""
        try:
            return MachineSpec(
                nodes=int(self.meta["nodes"]),
                pes_per_node=int(self.meta["pes_per_node"]),
                name=str(self.meta.get("machine_name", "simulated-cluster")),
            )
        except KeyError as exc:
            raise ArchiveError(
                f"{self.path}: footer metadata is missing {exc}"
            ) from exc

    @property
    def n_pes(self) -> int:
        return self.spec().n_pes

    @property
    def degraded(self) -> bool:
        """True when this archive was salvaged from a failed run."""
        return bool(self.meta.get("degraded", False))


# ----------------------------------------------------------------------
# trace loaders
# ----------------------------------------------------------------------

def load_logical(archive: Archive) -> LogicalTrace:
    """Materialize the logical trace stored in ``archive``."""
    section = archive.section("logical")
    return LogicalTrace.from_columns(section.read(), section.attrs)


def load_physical(archive: Archive) -> PhysicalTrace:
    """Materialize the physical trace stored in ``archive``."""
    section = archive.section("physical")
    return PhysicalTrace.from_columns(section.read(), section.attrs)


def load_papi(archive: Archive) -> PAPITrace:
    """Materialize the PAPI region trace stored in ``archive``."""
    section = archive.section("papi")
    return PAPITrace.from_columns(section.read(), section.attrs)


def load_overall(archive: Archive) -> OverallProfile:
    """Materialize the overall profile stored in ``archive``."""
    section = archive.section("overall")
    return OverallProfile.from_columns(section.read(), section.attrs)


_LOADERS = {
    "logical": load_logical,
    "physical": load_physical,
    "papi": load_papi,
    "overall": load_overall,
}


@dataclass
class RunTraces:
    """The (optional) four trace kinds of one run, plus its metadata."""

    logical: LogicalTrace | None = None
    physical: PhysicalTrace | None = None
    papi: PAPITrace | None = None
    overall: OverallProfile | None = None
    meta: dict = field(default_factory=dict)

    def kinds(self) -> tuple[str, ...]:
        """Which trace kinds are present."""
        return tuple(
            k for k in ("logical", "physical", "papi", "overall")
            if getattr(self, k) is not None
        )

    @property
    def degraded(self) -> bool:
        """True when these traces were salvaged from a failed run."""
        return bool(self.meta.get("degraded", False))


def load_run(path: str | Path) -> RunTraces:
    """Open an archive and materialize every stored trace kind."""
    with Archive(path) as archive:
        out = RunTraces(meta=dict(archive.meta))
        for kind, loader in _LOADERS.items():
            if archive.has_section(kind):
                setattr(out, kind, loader(archive))
        return out


def is_archive(path: str | Path) -> bool:
    """Cheap check: does ``path`` look like a ``.aptrc`` archive file?"""
    path = Path(path)
    if not path.is_file():
        return False
    if path.suffix == SUFFIX:
        return True
    try:
        with path.open("rb") as f:
            return f.read(len(MAGIC)) == MAGIC
    except OSError:
        return False
