"""Color utilities: sequential colormap + categorical palette.

The sequential map interpolates viridis-like anchor colors (dark purple →
teal → yellow), perceptually ordered so heatmap magnitudes read correctly.
"""

from __future__ import annotations

import numpy as np

#: Viridis-like anchors, dark → bright.
_SEQ_ANCHORS = (
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
)

#: Categorical series colors (stacked bars, violins, multi-series bars).
CATEGORICAL = (
    "#4c78a8",  # blue
    "#f58518",  # orange
    "#54a24b",  # green
    "#e45756",  # red
    "#72b7b2",  # teal
    "#b279a2",  # purple
    "#ff9da6",  # pink
    "#9d755d",  # brown
)

#: Region colors used throughout the overall-breakdown charts, chosen to
#: echo the paper's Figure 1 (MAIN = blue, PROC = red).
REGION_COLORS = {"MAIN": "#4c78a8", "COMM": "#bab0ac", "PROC": "#e45756"}


def lerp(a: float, b: float, t: float) -> float:
    return a + (b - a) * t


def sequential(t: float) -> str:
    """Map t ∈ [0, 1] to a hex color along the sequential map."""
    t = min(1.0, max(0.0, float(t)))
    pos = t * (len(_SEQ_ANCHORS) - 1)
    i = min(int(pos), len(_SEQ_ANCHORS) - 2)
    frac = pos - i
    r = lerp(_SEQ_ANCHORS[i][0], _SEQ_ANCHORS[i + 1][0], frac)
    g = lerp(_SEQ_ANCHORS[i][1], _SEQ_ANCHORS[i + 1][1], frac)
    b = lerp(_SEQ_ANCHORS[i][2], _SEQ_ANCHORS[i + 1][2], frac)
    return f"#{int(round(r)):02x}{int(round(g)):02x}{int(round(b)):02x}"


def sequential_fills(t: np.ndarray) -> np.ndarray:
    """:func:`sequential` over an array (object array of the same shape),
    evaluated once per distinct value."""
    t = np.asarray(t, dtype=float)
    distinct, inverse = np.unique(t, return_inverse=True)
    colors = np.array([sequential(v) for v in distinct.tolist()], dtype=object)
    return colors[inverse.ravel()].reshape(t.shape)


def normalize(values: np.ndarray, log: bool = False) -> np.ndarray:
    """Scale values to [0, 1] for color mapping (optionally log1p)."""
    values = np.asarray(values, dtype=float)
    if log:
        values = np.log1p(np.maximum(values, 0.0))
    vmax = values.max() if values.size else 0.0
    if vmax <= 0:
        return np.zeros_like(values)
    return values / vmax


def categorical(i: int) -> str:
    """The i-th categorical series color (cycled)."""
    return CATEGORICAL[i % len(CATEGORICAL)]
