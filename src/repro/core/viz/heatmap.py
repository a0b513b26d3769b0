"""Communication heatmaps (logical and physical traces).

Mirrors the paper's mosaic-style heatmaps: a source-PE × destination-PE
grid colored by number of sends, with the last column showing each PE's
total sends and the last row each PE's total recvs.  Cell tooltips carry
the exact counts.
"""

from __future__ import annotations

import numpy as np

from repro.core.analysis import heat_with_totals
from repro.core.viz.palette import normalize, sequential, sequential_fills
from repro.core.viz.svg import Canvas

_CELL = 22
_GAP = 2
_MARGIN_LEFT = 90
_MARGIN_TOP = 70
_MARGIN_RIGHT = 120
_MARGIN_BOTTOM = 40


def heatmap_svg(
    matrix: np.ndarray,
    title: str = "Communication heatmap",
    log_scale: bool = True,
    show_totals: bool = True,
    xlabel: str = "destination PE",
    ylabel: str = "source PE",
) -> str:
    """Render a communication matrix as a mosaic heatmap SVG.

    ``show_totals`` appends the total-send column / total-recv row (they
    are color-normalized separately so they don't wash out the grid).
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"square matrix required, got shape {matrix.shape}")
    n = matrix.shape[0]
    cells = n + (1 if show_totals else 0)
    grid_w = cells * (_CELL + _GAP)
    width = _MARGIN_LEFT + grid_w + _MARGIN_RIGHT
    height = _MARGIN_TOP + grid_w + _MARGIN_BOTTOM
    cv = Canvas(width, height)
    cv.text(width / 2, 28, title, size=15, anchor="middle", bold=True)
    cv.text(_MARGIN_LEFT + grid_w / 2, _MARGIN_TOP - 28, xlabel, size=11, anchor="middle")
    cv.text(18, _MARGIN_TOP + grid_w / 2, ylabel, size=11, anchor="middle", rotate=-90)

    def cell_xy(row: int, col: int) -> tuple[float, float]:
        return (
            _MARGIN_LEFT + col * (_CELL + _GAP),
            _MARGIN_TOP + row * (_CELL + _GAP),
        )

    # one batch per grid row; zero cells stay light grey
    offsets = np.arange(n) * (_CELL + _GAP)
    to_col = [f" → PE{col}: " for col in range(n)]
    fills = np.where(matrix != 0,
                     sequential_fills(normalize(matrix, log=log_scale)),
                     "#f2f2f2")
    for row in range(n):
        _, y = cell_xy(row, 0)
        cv.rects(_MARGIN_LEFT + offsets, y, _CELL, _CELL,
                 fills=fills[row].tolist(),
                 titles=[f"PE{row}{arrow}{v} sends"
                         for arrow, v in zip(to_col, matrix[row].tolist())])
    if show_totals:
        # totals are color-normalized on their own, zeros included
        full = heat_with_totals(matrix)
        sends, recvs = full[:n, n].tolist(), full[n, :n].tolist()
        x, y = cell_xy(n, n)
        cv.rects(x + 4, _MARGIN_TOP + offsets, _CELL, _CELL,
                 fills=sequential_fills(normalize(sends, log=log_scale)).tolist(),
                 titles=[f"PE{pe} total sends: {v}" for pe, v in enumerate(sends)])
        cv.rects(_MARGIN_LEFT + offsets, y + 4, _CELL, _CELL,
                 fills=sequential_fills(normalize(recvs, log=log_scale)).tolist(),
                 titles=[f"PE{pe} total recvs: {v}" for pe, v in enumerate(recvs)])
        cv.text(x + 4, y + _CELL - 4, "Σ", size=12)

    # axis tick labels (decimated if crowded)
    step = 1 if n <= 20 else max(1, n // 16)
    for i in range(0, n, step):
        x, y = cell_xy(0, i)
        cv.text(x + _CELL / 2, _MARGIN_TOP - 8, str(i), size=9, anchor="middle")
        x, y = cell_xy(i, 0)
        cv.text(_MARGIN_LEFT - 8, y + _CELL / 2 + 3, str(i), size=9, anchor="end")
    if show_totals:
        x, _ = cell_xy(0, n)
        cv.text(x + 4 + _CELL / 2, _MARGIN_TOP - 8, "send", size=9, anchor="middle")
        _, y = cell_xy(n, 0)
        cv.text(_MARGIN_LEFT - 8, y + 4 + _CELL / 2 + 3, "recv", size=9, anchor="end")

    # color scale legend
    lx = _MARGIN_LEFT + grid_w + 24
    cv.rects(lx, _MARGIN_TOP + (39 - np.arange(40)) * 3, 14, 3,
             fills=[sequential(i / 39) for i in range(40)])
    vmax = int(matrix.max())
    cv.text(lx + 20, _MARGIN_TOP + 8, f"{vmax}", size=9)
    cv.text(lx + 20, _MARGIN_TOP + 122, "0", size=9)
    scale_note = "log scale" if log_scale else "linear"
    cv.text(lx, _MARGIN_TOP + 140, scale_note, size=8)
    return cv.to_string()


_ASCII_RAMP = " .:-=+*#%@"


def ascii_heatmap(matrix: np.ndarray, log_scale: bool = True, max_width: int = 64) -> str:
    """Terminal rendering of a communication matrix.

    Each cell is one character from a 10-step density ramp; matrices wider
    than ``max_width`` are decimated by summing blocks.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if n > max_width:
        factor = -(-n // max_width)  # ceil division
        pad = (-n) % factor
        padded = np.pad(matrix, ((0, pad), (0, pad)))
        k = padded.shape[0] // factor
        matrix = padded.reshape(k, factor, k, factor).sum(axis=(1, 3))
        n = k
    norm = normalize(matrix, log=log_scale)
    lines = []
    header = "    " + "".join(str(j % 10) for j in range(n))
    lines.append(header)
    for i in range(n):
        row = "".join(
            _ASCII_RAMP[min(int(norm[i, j] * (len(_ASCII_RAMP) - 1) + 0.5),
                            len(_ASCII_RAMP) - 1)]
            for j in range(n)
        )
        lines.append(f"{i:>3} {row}")
    return "\n".join(lines)
