"""Comparing two profiled runs (the case-study workflow, productized).

The paper's analysis is intrinsically comparative — 1D Cyclic *versus*
1D Range, one node *versus* two.  This module turns that into tooling:
given two runs' traces, compute the per-PE and aggregate deltas and render
a side-by-side report.  The CLI exposes it as ``--compare OTHER`` and as
``actorprof diff RUN_A RUN_B``, where each run may be a paper-format
trace directory or a ``.aptrc`` archive (:func:`repro.api.diff`).

Every comparison reads archive
:class:`~repro.core.store.archive.Section` objects through the columnar
:class:`~repro.core.store.frame.Frame` layer: send matrices are
scatter-summed straight from decoded columns and byte totals come from
footer chunk sums where available.  Archive sides are read lazily from
the file and never materialized into trace objects; a trace directory
is parsed once and wrapped in in-memory sections
(:meth:`Section.from_columns`), so every pairing renders the same report.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.analysis import imbalance_ratio
from repro.core.logical import parse_logical_dir
from repro.core.overall import OverallProfile, parse_overall_file
from repro.core.physical import parse_physical_file
from repro.core.store.archive import (
    Archive,
    RunTraces,
    Section,
    is_archive,
)
from repro.core.store.frame import Frame, group_sum, scatter_matrix


def _ratio(a: float, b: float) -> float:
    return float(a / b) if b else float("inf")


@dataclass(frozen=True)
class LogicalDiff:
    """Logical-trace comparison of run A against run B."""

    total_sends_a: int
    total_sends_b: int
    max_sends_ratio: float          # A's hottest sender vs B's
    max_recvs_ratio: float
    send_imbalance_a: float
    send_imbalance_b: float
    moved_messages: int             # |A - B| matrix mass (same shape only)

    @classmethod
    def from_matrices(cls, ma: np.ndarray, mb: np.ndarray) -> "LogicalDiff":
        """Diff two per-PE send-count matrices (built from section
        columns by :func:`_logical_matrix`)."""
        moved = int(np.abs(ma - mb).sum()) if ma.shape == mb.shape else -1
        return cls(
            total_sends_a=int(ma.sum()),
            total_sends_b=int(mb.sum()),
            max_sends_ratio=_ratio(ma.sum(axis=1).max(), mb.sum(axis=1).max()),
            max_recvs_ratio=_ratio(ma.sum(axis=0).max(), mb.sum(axis=0).max()),
            send_imbalance_a=imbalance_ratio(ma.sum(axis=1)),
            send_imbalance_b=imbalance_ratio(mb.sum(axis=1)),
            moved_messages=moved,
        )


@dataclass(frozen=True)
class OverallDiff:
    """Overall-profile comparison of run A against run B."""

    total_ratio: float              # max T_TOTAL A / B (>1 ⇒ A slower)
    main_share_a: float
    main_share_b: float
    comm_share_a: float
    comm_share_b: float
    proc_share_a: float
    proc_share_b: float

    @classmethod
    def of(cls, a: OverallProfile, b: OverallProfile) -> "OverallDiff":
        fa, fb = a.fractions(), b.fractions()
        return cls(
            total_ratio=_ratio(int(a.t_total.max()), int(b.t_total.max())),
            main_share_a=float(fa[:, 0].mean()),
            main_share_b=float(fb[:, 0].mean()),
            comm_share_a=float(fa[:, 1].mean()),
            comm_share_b=float(fb[:, 1].mean()),
            proc_share_a=float(fa[:, 2].mean()),
            proc_share_b=float(fb[:, 2].mean()),
        )


@dataclass(frozen=True)
class PhysicalDiff:
    """Physical-trace comparison of run A against run B."""

    ops_a: dict[str, int]
    ops_b: dict[str, int]
    bytes_ratio: float

    @classmethod
    def from_sections(cls, a: Section, b: Section) -> "PhysicalDiff":
        """Diff two physical sections without rebuilding traces."""
        return cls(
            ops_a=_ops_by_type(a),
            ops_b=_ops_by_type(b),
            bytes_ratio=_ratio(_wire_bytes(a), _wire_bytes(b)),
        )


def _ops_by_type(section: Section) -> dict[str, int]:
    """Operation counts per send-type name, from kind/count columns."""
    frame = Frame(section)
    names = [str(s) for s in section.attrs.get("send_types", ())]
    uniq, sums = group_sum(frame.column("kind"), frame.column("count"))
    return {
        (names[k] if 0 <= k < len(names) else str(k)): int(n)
        for k, n in zip(uniq.tolist(), sums.tolist())
    }


def _wire_bytes(section: Section) -> int:
    """Total ``count * size`` bytes; footer sums when available."""
    frame = Frame(section)
    total = frame.weighted_total()
    if total is None:
        total = int((frame.column("count") * frame.column("size")).sum())
    return total


def compare_report(
    label_a: str,
    label_b: str,
    logical: LogicalDiff | None = None,
    overall: OverallDiff | None = None,
    physical: PhysicalDiff | None = None,
) -> str:
    """Render a text comparison of run A vs run B."""
    lines = [f"== comparing {label_a!r} (A) vs {label_b!r} (B) =="]
    if logical is not None:
        d = logical
        lines.append(
            f"logical: sends A={d.total_sends_a:,} B={d.total_sends_b:,}; "
            f"hottest-sender ratio {d.max_sends_ratio:.2f}x, "
            f"hottest-receiver ratio {d.max_recvs_ratio:.2f}x"
        )
        lines.append(
            f"logical: send imbalance A={d.send_imbalance_a:.2f} "
            f"B={d.send_imbalance_b:.2f}"
        )
        if d.moved_messages >= 0:
            lines.append(
                f"logical: |A−B| matrix mass = {d.moved_messages:,} messages"
            )
    if overall is not None:
        d = overall
        verdict = "A slower" if d.total_ratio > 1 else "A faster"
        lines.append(
            f"overall: total-time ratio A/B = {d.total_ratio:.2f} ({verdict})"
        )
        lines.append(
            f"overall: shares A MAIN/COMM/PROC = {d.main_share_a:.0%}/"
            f"{d.comm_share_a:.0%}/{d.proc_share_a:.0%}; "
            f"B = {d.main_share_b:.0%}/{d.comm_share_b:.0%}/{d.proc_share_b:.0%}"
        )
    if physical is not None:
        d = physical
        kinds = sorted(set(d.ops_a) | set(d.ops_b))
        parts = [
            f"{k}: {d.ops_a.get(k, 0):,} vs {d.ops_b.get(k, 0):,}"
            for k in kinds
        ]
        lines.append("physical ops (A vs B): " + "; ".join(parts))
        lines.append(f"physical wire bytes ratio A/B = {d.bytes_ratio:.2f}")
    if logical is None and overall is None and physical is None:
        lines.append("(no comparable traces found)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# whole-run comparison over directories or archives
# ----------------------------------------------------------------------

def load_traces(path: str | Path, n_pes: int | None = None) -> RunTraces:
    """Parse whatever traces exist in the paper-format trace directory
    ``path``; ``n_pes`` is required to parse the per-PE CSV files.
    Archives are read by :func:`run_sections` instead."""
    path = Path(path)
    if not path.is_dir():
        raise FileNotFoundError(
            f"{path} is neither a trace directory nor a .aptrc archive"
        )
    if n_pes is None:
        raise ValueError(
            f"--num-pes is required to read the trace directory {path}"
        )
    out = RunTraces()
    try:
        out.logical = parse_logical_dir(path, n_pes)
    except FileNotFoundError:
        pass
    try:
        out.physical = parse_physical_file(path, n_pes)
    except FileNotFoundError:
        pass
    try:
        out.overall = parse_overall_file(path)
    except FileNotFoundError:
        pass
    return out


def _logical_matrix(section: Section, n_pes: int) -> np.ndarray:
    """Per-PE send-count matrix straight from archive columns.

    Streamed partial aggregates (duplicate src/dst keys across chunks)
    merge by summing in the scatter-add, exactly as trace loading would.
    """
    frame = Frame(section)
    return scatter_matrix(frame.column("src"), frame.column("dst"),
                          frame.column("count"), (n_pes, n_pes))


#: The trace kinds a run comparison reads.
_DIFF_KINDS = ("logical", "overall", "physical")


def run_sections(path: str | Path, n_pes: int | None,
                 stack: ExitStack) -> tuple[dict[str, Section], int]:
    """The diffable sections of one run, plus its PE count.

    An archive's sections are read lazily from the file (kept open on
    ``stack``); a trace directory is parsed once by :func:`load_traces`
    and wrapped in in-memory sections.
    """
    if is_archive(path):
        archive = stack.enter_context(Archive(path))
        return ({kind: archive.section(kind) for kind in _DIFF_KINDS
                 if archive.has_section(kind)}, archive.n_pes)
    traces = load_traces(path, n_pes)
    return ({kind: Section.from_columns(kind, *trace.to_columns())
             for kind in _DIFF_KINDS
             if (trace := getattr(traces, kind)) is not None}, n_pes)


def diff_sections(a: dict[str, Section], n_pes_a: int,
                  b: dict[str, Section], n_pes_b: int) -> dict:
    """Diff every trace kind present in both runs' sections; returns the
    keyword arguments of :func:`compare_report`."""
    diffs: dict = {}
    if "logical" in a and "logical" in b:
        diffs["logical"] = LogicalDiff.from_matrices(
            _logical_matrix(a["logical"], n_pes_a),
            _logical_matrix(b["logical"], n_pes_b),
        )
    if "overall" in a and "overall" in b:
        diffs["overall"] = OverallDiff.of(_overall(a["overall"]),
                                          _overall(b["overall"]))
    if "physical" in a and "physical" in b:
        diffs["physical"] = PhysicalDiff.from_sections(a["physical"],
                                                       b["physical"])
    return diffs


def _overall(section: Section) -> OverallProfile:
    """The small per-PE overall profile (the one section materialized)."""
    return OverallProfile.from_columns(section.read(), section.attrs)


def _diff_runs(
    path_a: str | Path,
    path_b: str | Path,
    n_pes: int | None = None,
    label_a: str | None = None,
    label_b: str | None = None,
) -> str:
    """Compare two stored runs and render the side-by-side report.

    Each path may be a trace directory or a ``.aptrc`` archive; only the
    trace kinds present in *both* runs are compared.  The supported
    entry points are :func:`repro.api.diff` and :meth:`repro.api.Run.diff`.
    """
    with ExitStack() as stack:
        a, n_pes_a = run_sections(path_a, n_pes, stack)
        b, n_pes_b = run_sections(path_b, n_pes, stack)
        return compare_report(
            label_a if label_a is not None else str(path_a),
            label_b if label_b is not None else str(path_b),
            **diff_sections(a, n_pes_a, b, n_pes_b),
        )
