"""Columnar frame: pruned, lazy, vectorized access to archive sections.

A :class:`Frame` wraps one archive
:class:`~repro.core.store.archive.Section` and exposes the two tricks
that make multi-million-row scans cheap:

* **chunk pruning** — the footer's per-chunk ``(min, max, sum)`` stats
  (see ``docs/TRACE_STORE.md``) let a predicate like ``src == 7`` drop
  every row group whose ``[min, max]`` interval cannot contain a match,
  before any payload byte is read;
* **stats-only aggregation** — un-predicated sums (``sends``, ``bytes``)
  are answered straight from the footer sums, decoding nothing at all.

Both the query layer (:mod:`repro.core.query`) and run diffing
(:mod:`repro.core.diffing`) sit on this frame alone, for archives and
in-memory traces alike, so neither materializes full trace objects.
Sections without chunk stats — archives written before the stats
extension (or with stats disabled), and in-memory sections from
:meth:`~repro.core.store.archive.Section.from_columns` — degrade
gracefully: pruning becomes a no-op and every read falls back to full
column decoding — results are identical either way.
"""

from __future__ import annotations

import numpy as np

from repro.core.store.archive import Section


def interval_may_match(lo: int, hi: int, op: str, value: int) -> bool:
    """Can any ``x`` in ``[lo, hi]`` satisfy ``x <op> value``?

    Conservative in exactly one direction: ``True`` means "cannot rule
    the chunk out", never "every row matches".
    """
    if op == "==":
        return lo <= value <= hi
    if op == "!=":
        return not (lo == hi == value)
    if op == "<":
        return lo < value
    if op == "<=":
        return lo <= value
    if op == ">":
        return hi > value
    if op == ">=":
        return hi >= value
    raise ValueError(f"unknown comparison operator {op!r}")


class Frame:
    """Lazy pruned view of one archive section's row groups."""

    def __init__(self, section: Section, use_stats: bool = True) -> None:
        self._section = section
        self.n_chunks = section.n_chunks
        #: Which row groups survive pruning so far.
        self.keep = np.ones(self.n_chunks, dtype=bool)
        # Pruning is only sound when every column shares the same row
        # grouping (writers guarantee this; hand-built archives might not).
        self.use_stats = bool(use_stats) and section.chunks_aligned
        self._cache: dict[str, np.ndarray] = {}

    # -- stats access ----------------------------------------------------

    def _stats(self, name: str) -> list[tuple[int, int, int]] | None:
        """Per-chunk ``(min, max, sum)`` of one column, or None if any
        chunk predates the stats extension."""
        if not self.use_stats:
            return None
        stats = [ref.stats for ref in self._section.chunk_refs(name)]
        if any(s is None for s in stats):
            return None
        return stats

    # -- pruning ---------------------------------------------------------

    def prune(self, name: str, op: str, value: int,
              divisor: int | None = None) -> bool:
        """Drop row groups where ``column <op> value`` cannot hold.

        ``divisor`` prunes on ``column // divisor`` (node-of-PE fields):
        floor division is monotone, so the divided bounds still bound the
        divided values.  Returns True when stats allowed pruning (even if
        nothing was dropped), False when the frame fell back to keeping
        everything.
        """
        stats = self._stats(name)
        if stats is None:
            return False
        for i, (lo, hi, _total) in enumerate(stats):
            if not self.keep[i]:
                continue
            if divisor is not None:
                lo, hi = lo // divisor, hi // divisor
            if not interval_may_match(lo, hi, op, value):
                self.keep[i] = False
        self._cache.clear()
        return True

    # -- column access ---------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """The column's values across surviving row groups (int64)."""
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        if bool(self.keep.all()):
            out = self._section.column(name)
        else:
            parts = [self._section.read_chunk(name, i)
                     for i in np.flatnonzero(self.keep)]
            out = (np.concatenate(parts) if parts
                   else np.zeros(0, dtype=np.int64))
        self._cache[name] = out
        return out

    @property
    def rows(self) -> int:
        """Row count across surviving row groups (stats not needed)."""
        if bool(self.keep.all()):
            return self._section.rows
        counts = [ref.count for ref in
                  self._section.chunk_refs(self._section.columns[0])]
        return int(sum(c for c, k in zip(counts, self.keep) if k))

    # -- stats-only aggregation ------------------------------------------

    def total(self, name: str) -> int | None:
        """Sum of one column over surviving row groups, from footer stats
        alone (no payload decode); None when stats are unavailable."""
        stats = self._stats(name)
        if stats is None:
            return None
        return int(sum(s[2] for s, k in zip(stats, self.keep) if k))

    def weighted_total(self) -> int | None:
        """Sum of ``count * size`` over surviving row groups, from the
        footer's ``chunk_bytes`` sums; None when the writer did not
        record them."""
        if not self.use_stats:
            return None
        weighted = self._section.chunk_bytes
        if weighted is None or len(weighted) != self.n_chunks:
            return None
        return int(sum(w for w, k in zip(weighted, self.keep) if k))


# ----------------------------------------------------------------------
# vectorized aggregation helpers
# ----------------------------------------------------------------------

def _bincount_exact(indices: np.ndarray, weights: np.ndarray,
                    length: int) -> np.ndarray | None:
    """Weighted bincount, or None when float64 accumulation could be
    inexact.  ``np.bincount`` sums weights in float64, which represents
    every integer up to 2**53 — bounding each bucket by
    ``len * max|weight|`` guarantees exactness without trusting floats.
    ``np.add.at`` (the alternative) is an order of magnitude slower, so
    this fast path carries the multi-million-row aggregations."""
    if len(weights) == 0:
        return np.zeros(length, dtype=np.int64)
    peak = max(abs(int(weights.min())), abs(int(weights.max())))
    if peak * len(weights) >= 2 ** 53:
        return None
    return np.bincount(indices, weights=weights,
                       minlength=length).astype(np.int64)


def group_sum(keys: np.ndarray, weights: np.ndarray,
              mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``weights`` per distinct key; returns ``(unique_keys, sums)``.

    ``mask`` (boolean) restricts to matching rows — applied by zeroing
    weights rather than gathering, which avoids two large copies.  Keys
    of dense-enough span take a bincount; anything else falls back to
    sort-based grouping (``np.unique`` + ``np.add.at``).
    """
    keys = np.asarray(keys)
    weights = np.asarray(weights, dtype=np.int64)
    if mask is not None:
        weights = weights * mask
    if len(keys) == 0:
        return keys[:0], weights[:0]
    lo, hi = int(keys.min()), int(keys.max())
    span = hi - lo + 1
    if span <= max(1 << 20, 4 * len(keys)):
        shifted = keys - lo
        sums = _bincount_exact(shifted, weights, span)
        if sums is not None:
            if mask is None:
                occupied = np.bincount(shifted, minlength=span) > 0
            else:
                occupied = np.bincount(
                    shifted, weights=mask, minlength=span) > 0
            present = np.flatnonzero(occupied)
            return present + lo, sums[present]
    if mask is not None:
        keys = keys[mask]
        weights = weights[mask]
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inverse, weights)
    return uniq, sums


def scatter_matrix(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
                   shape: tuple[int, int]) -> np.ndarray:
    """Accumulate ``weights`` into a dense ``shape`` matrix at
    ``(rows[i], cols[i])`` — duplicate coordinates sum, which is exactly
    how streamed partial aggregates merge."""
    weights = np.asarray(weights, dtype=np.int64)
    flat = np.asarray(rows, dtype=np.int64) * shape[1] \
        + np.asarray(cols, dtype=np.int64)
    m = _bincount_exact(flat, weights, shape[0] * shape[1])
    if m is not None:
        return m.reshape(shape)
    m = np.zeros(shape, dtype=np.int64)
    np.add.at(m, (rows, cols), weights)
    return m
