"""A minimal SVG document builder.

Only what the ActorProf charts need: rectangles, lines, text, polygons and
grouping, emitted as standalone SVG 1.1 with a white background.  All
coordinates are user units (pixels).

Views with one rectangle per PE pair or per PE × bucket draw through
:meth:`Canvas.rects`, which takes whole columns: each distinct
coordinate is formatted once, all tooltips are escaped in one pass, and
the batch lands in the document as one string.
"""

from __future__ import annotations

import functools
import html
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np


def _fmt(v: float) -> str:
    """Compact numeric formatting for attribute values."""
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _fmt_column(values: np.ndarray, known: dict[int, str]) -> list[str]:
    """``_fmt`` of every value, computed once per distinct value.

    ``known`` maps float bit patterns to their text and carries over
    between batches of one document (heatmap rows share their x
    column, gantt lanes their bucket edges).  Keying by bits keeps
    ``-0.0`` apart from ``0.0``, as a per-value ``_fmt`` would.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = [known.get(b) or known.setdefault(b, _fmt(v))
            for b, v in zip(distinct.tolist(),
                            distinct.view(np.float64).tolist())]
    return [text[i] for i in inverse.ravel().tolist()]


def _escape_all(titles: list[str]) -> list[str]:
    """``html.escape`` of every title, in one pass over their join."""
    joined = "\n".join(titles)
    if joined.count("\n") != len(titles) - 1:  # a title spans lines
        return [html.escape(t) for t in titles]
    return html.escape(joined).split("\n")


def _rect_tag(x: str, y: str, w: str, h: str, fill: str, paint: str,
              tip: str) -> str:
    """Spell one ``<rect>`` element: the one place that knows the layout.

    Every argument is finished attribute text (numbers formatted, the
    tooltip escaped); ``paint`` is the stroke/opacity text, and an empty
    tip draws no ``<title>``.
    """
    if tip:
        return (f'<rect x="{x}" y="{y}" width="{w}" height="{h}" '
                f'fill="{fill}" {paint}><title>{tip}</title></rect>')
    return f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{fill}" {paint}/>'


@functools.cache  # charts reuse a handful of paints
def _paint(stroke: str, stroke_width: float, opacity: float) -> str:
    paint = f'stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"'
    if opacity != 1.0:
        paint += f' opacity="{_fmt(opacity)}"'
    return paint


#: the paint of :meth:`Canvas.rect`'s defaults, which every batch uses
_PLAIN = _paint("none", 1.0, 1.0)


class Canvas:
    """An append-only SVG canvas."""

    def __init__(self, width: float, height: float, background: str = "#ffffff") -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"canvas must have positive size, got {width}x{height}")
        self.width = width
        self.height = height
        self._body: list[str] = []
        self._fmt_known: dict[int, str] = {}
        if background:
            self.rect(0, 0, width, height, fill=background, stroke="none")

    # ------------------------------------------------------------------

    def rect(self, x: float, y: float, w: float, h: float, fill: str = "#000000",
             stroke: str = "none", stroke_width: float = 1.0, opacity: float = 1.0,
             title: str | None = None) -> None:
        """Axis-aligned rectangle; ``title`` adds a hover tooltip."""
        self._body.append(_rect_tag(
            _fmt(x), _fmt(y), _fmt(w), _fmt(h), fill,
            _paint(stroke, stroke_width, opacity),
            html.escape(title) if title else ""))

    def rects(self, x: float | np.ndarray, y: float | np.ndarray,
              w: float | np.ndarray, h: float | np.ndarray,
              fills: Sequence[str], titles: Sequence[str] | None = None) -> None:
        """A batch of rectangles, drawn in order, as one document entry.

        ``x``/``y``/``w``/``h`` are numeric columns or scalars broadcast
        over the batch, ``fills`` one color per rectangle, and ``titles``
        one tooltip per rectangle (an empty one draws none).  The bytes
        equal one default-paint :meth:`rect` call per rectangle.
        """
        sized = [len(c) for c in (x, y, w, h) if np.ndim(c)] + [len(fills)]
        if titles is not None:
            sized.append(len(titles))
        if min(sized) != max(sized):
            raise ValueError(f"rects needs columns of one length, got {sized}")
        if len(fills) == 0:
            return
        xs, ys, ws, hs = (
            _fmt_column(c, self._fmt_known) if np.ndim(c) else repeat(_fmt(c))
            for c in (x, y, w, h))
        tips = repeat("") if titles is None else _escape_all(list(titles))
        self._body.append("\n".join(map(
            _rect_tag, xs, ys, ws, hs, fills, repeat(_PLAIN), tips)))

    def line(self, x1: float, y1: float, x2: float, y2: float,
             stroke: str = "#000000", stroke_width: float = 1.0,
             dash: str | None = None) -> None:
        attrs = (
            f'x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"'
        )
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
        self._body.append(f"<line {attrs}/>")

    def text(self, x: float, y: float, content: str, size: float = 12,
             anchor: str = "start", fill: str = "#202020",
             rotate: float | None = None, bold: bool = False) -> None:
        """Text anchored at (x, y); ``anchor`` in start/middle/end."""
        attrs = (
            f'x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(size)}" '
            f'text-anchor="{anchor}" fill="{fill}" '
            f'font-family="Helvetica, Arial, sans-serif"'
        )
        if bold:
            attrs += ' font-weight="bold"'
        if rotate is not None:
            attrs += f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"'
        self._body.append(f"<text {attrs}>{html.escape(content)}</text>")

    def polygon(self, points: list[tuple[float, float]], fill: str = "#000000",
                stroke: str = "none", stroke_width: float = 1.0,
                opacity: float = 1.0) -> None:
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        attrs = (
            f'points="{pts}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(stroke_width)}"'
        )
        if opacity != 1.0:
            attrs += f' opacity="{_fmt(opacity)}"'
        self._body.append(f"<polygon {attrs}/>")

    def circle(self, cx: float, cy: float, r: float, fill: str = "#000000",
               stroke: str = "none", stroke_width: float = 1.0) -> None:
        self._body.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"/>'
        )

    # ------------------------------------------------------------------

    def to_string(self) -> str:
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(self.width)}" '
            f'height="{_fmt(self.height)}" viewBox="0 0 {_fmt(self.width)} '
            f'{_fmt(self.height)}">'
        )
        # one join: no intermediate copy of a multi-megabyte body
        return "\n".join([header, *(self._body or [""]), "</svg>\n"])

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_string())
        return path
