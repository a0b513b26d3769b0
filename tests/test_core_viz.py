"""Tests for the SVG/ASCII visualization layer."""

import numpy as np
import pytest

from repro.core.overall import OverallProfile
from repro.core.viz import (
    Canvas,
    ascii_heatmap,
    bar_graph,
    grouped_bar_graph,
    heatmap_svg,
    stacked_bar_graph,
    violin_svg,
)
from repro.core.viz.palette import categorical, normalize, sequential
from repro.core.viz.violin import kde_density


# ----------------------------------------------------------------- svg


def test_canvas_emits_valid_svg_skeleton():
    cv = Canvas(100, 50)
    cv.rect(1, 2, 3, 4, fill="#ff0000")
    cv.line(0, 0, 10, 10)
    cv.text(5, 5, "hi <&> there")
    cv.polygon([(0, 0), (1, 0), (1, 1)])
    cv.circle(5, 5, 2)
    s = cv.to_string()
    assert s.startswith('<?xml version="1.0"')
    assert "<svg" in s and s.rstrip().endswith("</svg>")
    assert "hi &lt;&amp;&gt; there" in s  # escaped
    assert s.count("<rect") >= 2  # background + ours


def test_rects_batch_equals_one_rect_per_row():
    x = np.array([0.0, -0.0, 1.005, 2.675, 1e6, -0.004])
    w = np.array([3.0, 3.0, 0.4, 0.399, 12.125, 7.0])
    fills = ["#111111", "#222222", "#333333", "#444444", "#555555", "#666"]
    titles = ['a < b & "c"', "", "two\nlines", "PE1 → PE2", "", "'q'"]
    batch, single = Canvas(10, 10), Canvas(10, 10)
    batch.rects(x, 7, w, np.full(6, 2.5), fills=fills, titles=titles)
    batch.rects(x, x, 1, 1, fills=fills[::-1])  # scalars broadcast, no titles
    for i in range(6):
        single.rect(x[i], 7, w[i], 2.5, fill=fills[i], title=titles[i])
    for i in range(6):
        single.rect(x[i], x[i], 1, 1, fill=fills[5 - i])
    assert batch.to_string() == single.to_string()


def test_rects_empty_batch_draws_nothing_and_lengths_must_agree():
    cv = Canvas(10, 10)
    before = cv.to_string()
    cv.rects(np.array([]), 0, 1, 1, fills=[], titles=[])
    assert cv.to_string() == before
    with pytest.raises(ValueError):
        cv.rects(np.arange(3), 0, 1, 1, fills=["#000"] * 2)
    with pytest.raises(ValueError):
        cv.rects(1, 2, 3, 4, fills=["#000"] * 2, titles=["a"])


def test_canvas_rejects_bad_size():
    with pytest.raises(ValueError):
        Canvas(0, 10)


def test_canvas_save(tmp_path):
    cv = Canvas(10, 10)
    p = cv.save(tmp_path / "x.svg")
    assert p.read_text().startswith("<?xml")


def test_rect_tooltip():
    cv = Canvas(10, 10)
    cv.rect(0, 0, 1, 1, title="PE0 → PE1: 5")
    assert "<title>PE0 → PE1: 5</title>" in cv.to_string()


# -------------------------------------------------------------- palette


def test_sequential_endpoints_and_clamp():
    assert sequential(0.0) == "#440154"
    assert sequential(1.0) == "#fde725"
    assert sequential(-5) == sequential(0.0)
    assert sequential(5) == sequential(1.0)


def test_sequential_is_monotone_in_brightness():
    def lum(hexcolor):
        r, g, b = (int(hexcolor[i : i + 2], 16) for i in (1, 3, 5))
        return 0.2126 * r + 0.7152 * g + 0.0722 * b

    lums = [lum(sequential(t)) for t in np.linspace(0, 1, 20)]
    assert all(b >= a - 2 for a, b in zip(lums, lums[1:]))


def test_normalize():
    out = normalize(np.array([0, 5, 10]))
    assert out.tolist() == [0.0, 0.5, 1.0]
    assert normalize(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    log = normalize(np.array([0, 9, 99]), log=True)
    assert log[-1] == 1.0 and 0 < log[1] < 1


def test_categorical_cycles():
    assert categorical(0) == categorical(8)


# -------------------------------------------------------------- heatmap


def test_heatmap_svg_renders_cells_and_totals():
    m = np.arange(16).reshape(4, 4)
    s = heatmap_svg(m, title="T")
    assert "<svg" in s
    assert "PE0 → PE1: 1 sends" in s
    assert "PE3 total sends:" in s
    assert "PE3 total recvs:" in s


def test_heatmap_requires_square():
    with pytest.raises(ValueError):
        heatmap_svg(np.zeros((2, 3)))


def test_ascii_heatmap_shape():
    m = np.eye(4, dtype=int) * 9
    text = ascii_heatmap(m)
    lines = text.splitlines()
    assert len(lines) == 5  # header + 4 rows
    # diagonal should be the densest character
    assert lines[1].strip().split()[-1][0] == "@"


def test_ascii_heatmap_decimates_large_matrices():
    m = np.ones((100, 100))
    text = ascii_heatmap(m, max_width=32)
    assert len(text.splitlines()) <= 33


# --------------------------------------------------------------- violin


def test_kde_density_integrates_to_one():
    vals = np.array([1.0, 2.0, 3.0, 10.0])
    grid, dens = kde_density(vals, points=256)
    integral = np.trapezoid(dens, grid)
    assert integral == pytest.approx(1.0, abs=0.05)


def test_kde_density_constant_sample():
    grid, dens = kde_density(np.array([5.0, 5.0, 5.0]))
    assert dens.max() > 0


def test_violin_svg():
    s = violin_svg(
        {"sends": np.array([10, 20, 30, 100]), "recvs": np.array([40, 40, 45, 50])},
        title="V",
    )
    assert "<svg" in s
    assert "sends" in s and "recvs" in s
    assert "max=100" in s


def test_violin_empty_rejected():
    with pytest.raises(ValueError):
        violin_svg({})


# ----------------------------------------------------------------- bars


def test_bar_graph_highlights_max():
    s = bar_graph(np.array([1, 2, 10, 3]), title="B")
    assert "PE2: 10" in s
    assert "#e45756" in s  # highlight color present


def test_bar_graph_log_scale_and_empty():
    s = bar_graph(np.array([1, 10, 100]), log_scale=True)
    assert "<svg" in s
    with pytest.raises(ValueError):
        bar_graph(np.array([]))


def test_grouped_bar_graph():
    s = grouped_bar_graph(
        {"PAPI_TOT_INS": np.array([1, 2]), "PAPI_LST_INS": np.array([3, 4])}
    )
    assert "PAPI_TOT_INS" in s and "PAPI_LST_INS" in s
    with pytest.raises(ValueError):
        grouped_bar_graph({})
    with pytest.raises(ValueError):
        grouped_bar_graph({"a": np.array([1]), "b": np.array([1, 2])})


# --------------------------------------------------------------- stacked


def make_profile():
    p = OverallProfile(3)
    for pe in range(3):
        p.add_main(pe, 10 * (pe + 1))
        p.add_proc(pe, 5)
        p.add_total(pe, 100 * (pe + 1))
    return p


def test_stacked_absolute_and_relative():
    p = make_profile()
    s_abs = stacked_bar_graph(p, relative=False)
    s_rel = stacked_bar_graph(p, relative=True)
    assert "Absolute overall profiling" in s_abs
    assert "Relative overall profiling" in s_rel
    assert "T_MAIN" in s_abs and "T_COMM" in s_abs and "T_PROC" in s_abs
    assert "PE1 T_MAIN: 20" in s_abs.replace(",", "")
    assert "%" in s_rel
