"""Execution timeline and utilization charts (Legion-Prof-style views).

Rendered from a :class:`~repro.core.timeline.TimelineTrace`:

* :func:`timeline_svg` — one lane per PE, MAIN/PROC spans as colored
  blocks over the COMM background, network events as ticks.
* :func:`utilization_svg` — per-PE occupancy (MAIN+PROC fraction) over
  time buckets, as a PE × time heat strip.
"""

from __future__ import annotations

import numpy as np

from repro.core.timeline import TimelineTrace
from repro.core.viz.palette import REGION_COLORS, normalize, sequential_fills
from repro.core.viz.svg import Canvas

_LANE_H = 18
_LANE_GAP = 4
_MARGIN_LEFT = 60
_MARGIN_TOP = 50
_WIDTH = 900


def timeline_svg(timeline: TimelineTrace, title: str = "Execution timeline",
                 max_spans: int = 20_000) -> str:
    """Render per-PE region lanes.  Spans beyond ``max_spans`` are skipped
    uniformly to bound SVG size."""
    horizon = max(timeline.end_time(), 1)
    n = timeline.n_pes
    height = _MARGIN_TOP + n * (_LANE_H + _LANE_GAP) + 60
    cv = Canvas(_WIDTH, height)
    cv.text(_WIDTH / 2, 26, title, size=15, anchor="middle", bold=True)
    plot_w = _WIDTH - _MARGIN_LEFT - 30

    def x_of(t: int) -> float:
        return _MARGIN_LEFT + plot_w * t / horizon

    total_spans = timeline.span_count()
    stride = max(1, total_spans // max_spans)
    for pe in range(n):
        y = _MARGIN_TOP + pe * (_LANE_H + _LANE_GAP)
        cv.rect(_MARGIN_LEFT, y, plot_w, _LANE_H, fill=REGION_COLORS["COMM"],
                opacity=0.35)
        cv.text(_MARGIN_LEFT - 6, y + _LANE_H - 5, f"PE{pe}", size=9, anchor="end")
        for i, span in enumerate(timeline.spans(pe)):
            if span.region == "FINISH" or i % stride:
                continue
            x0, x1 = x_of(span.start), x_of(span.end)
            cv.rect(x0, y, max(x1 - x0, 0.6), _LANE_H,
                    fill=REGION_COLORS.get(span.region, "#888888"),
                    title=f"PE{pe} {span.region}: [{span.start}, {span.end})")
    # network event ticks under each source lane
    for ev in timeline.net_events():
        y = _MARGIN_TOP + ev.src * (_LANE_H + _LANE_GAP)
        cv.line(x_of(ev.time), y + _LANE_H, x_of(ev.time), y + _LANE_H + 3,
                stroke="#303030")
    # time axis
    axis_y = _MARGIN_TOP + n * (_LANE_H + _LANE_GAP) + 10
    cv.line(_MARGIN_LEFT, axis_y, _MARGIN_LEFT + plot_w, axis_y, stroke="#404040")
    for frac in (0, 0.25, 0.5, 0.75, 1.0):
        x = _MARGIN_LEFT + plot_w * frac
        cv.line(x, axis_y, x, axis_y + 4, stroke="#404040")
        cv.text(x, axis_y + 16, f"{int(horizon * frac):,}", size=8, anchor="middle")
    cv.text(_MARGIN_LEFT + plot_w / 2, axis_y + 32, "cycles (rdtsc)", size=10,
            anchor="middle")
    # legend
    for i, region in enumerate(("MAIN", "COMM", "PROC")):
        lx = _MARGIN_LEFT + 90 * i
        cv.rect(lx, 32, 10, 10, fill=REGION_COLORS[region],
                opacity=0.35 if region == "COMM" else 1.0)
        cv.text(lx + 14, 41, region, size=9)
    return cv.to_string()


def utilization_svg(timeline: TimelineTrace, buckets: int = 120,
                    title: str = "PE utilization over time") -> str:
    """Render a PE × time occupancy strip (MAIN+PROC fraction per bucket)."""
    if buckets < 1:
        raise ValueError("buckets must be positive")
    horizon = max(timeline.end_time(), 1)
    bucket_cycles = max(1, -(-horizon // buckets))
    n = timeline.n_pes
    rows = np.zeros((n, buckets))
    for pe in range(n):
        u = timeline.utilization(pe, bucket_cycles)
        rows[pe, : min(buckets, len(u))] = u[:buckets]
    cell_w = max(4, (900 - _MARGIN_LEFT - 40) // buckets)
    height = _MARGIN_TOP + n * (_LANE_H + 2) + 50
    width = _MARGIN_LEFT + buckets * cell_w + 40
    cv = Canvas(width, height)
    cv.text(width / 2, 26, title, size=15, anchor="middle", bold=True)
    norm = normalize(rows)
    xs = _MARGIN_LEFT + np.arange(buckets) * cell_w
    for pe in range(n):
        y = _MARGIN_TOP + pe * (_LANE_H + 2)
        cv.text(_MARGIN_LEFT - 6, y + _LANE_H - 5, f"PE{pe}", size=9, anchor="end")
        # one batch per lane
        cv.rects(xs, y, cell_w, _LANE_H,
                 fills=sequential_fills(norm[pe]).tolist(),
                 titles=[f"PE{pe} bucket {b}: {u:.0%} busy"
                         for b, u in enumerate(rows[pe].tolist())])
    cv.text(_MARGIN_LEFT, height - 14,
            f"bucket = {bucket_cycles:,} cycles; bright = busy (MAIN+PROC)",
            size=9, fill="#606060")
    return cv.to_string()
