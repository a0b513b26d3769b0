"""Byte-identity oracle for the SVG renderers.

Every chart here is pinned by the sha256 of its exact bytes.  The
digests were recorded before the renderers were batched, so any change
to drawing order, number formatting, escaping or attribute layout —
however harmless it looks in a browser — fails this file.  Cases cover
the LOD views over the golden archives (default resolution and one
zoomed viewport), every ``heatmap_svg`` option, a seeded synthetic
256-PE run with the edge cases of the gantt geometry (zero cells,
buckets over 100% occupancy, sub-0.4-px segments), tooltip escaping,
the span timeline and utilization strip (profiled and a seeded
256-PE timeline, with and without span decimation), and the small
charts that share the ``<rect>`` layout.

A failing digest means the output changed.  If the change is intended,
update the digest and say why in the commit; never regenerate the
table to make a refactor pass.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro import ActorProf, ProfileFlags
from repro.apps import histogram
from repro.core.lod import PeSeries, Viewport
from repro.core.overall import OverallProfile
from repro.core.timeline import TimelineTrace
from repro.core.viz import (
    Canvas,
    bar_graph,
    grouped_bar_graph,
    heatmap_svg,
    lod_gantt_svg,
    lod_heatmap_svg,
    lod_timeline_svg,
    stacked_bar_graph,
    violin_svg,
)
from repro.core.viz.timeline_chart import timeline_svg, utilization_svg
from repro.machine.spec import MachineSpec

GOLDEN = Path(__file__).parent / "golden"


def _lod_views(path: Path) -> dict[str, str]:
    """Every LOD view of one archive, whole run and a zoomed window."""
    with api.open_run(path) as run:
        lod = run.lod()
        h = lod.horizon
        out = {}
        for tag, (t0, t1) in (("full", (None, None)),
                              ("zoom", (h // 4, h // 2))):
            out[f"gantt-{tag}"] = lod_gantt_svg(lod.pe_series(t0, t1, 96))
            out[f"timeline-{tag}"] = lod_timeline_svg(
                lod.pe_series(t0, t1, 120))
            window = lod.edge_window(t0, t1, 16)
            out[f"heatmap-{tag}"] = lod_heatmap_svg(window)
            out[f"heatmap-bytes-{tag}"] = lod_heatmap_svg(
                window, use_bytes=True)
    return out


def _profiled_run(tmp: Path) -> tuple[Path, TimelineTrace]:
    """A time-resolved profiled run: its archive (so the zoomed LOD
    viewport really zooms) and its span timeline."""
    ap = ActorProf(ProfileFlags.all(enable_timeline=True))
    histogram(500, 128, MachineSpec(2, 2), profiler=ap)
    resolved = ap.export_archive(tmp / "timeline.aptrc",
                                 meta={"app": "hist"}, lod=True)
    return Path(resolved), ap.timeline


def _synthetic_timeline(n_pes: int = 256, spans: int = 24) -> TimelineTrace:
    """Seeded spans of every region, including zero-length ones and
    spans past the other PEs' horizon, plus network events."""
    rng = np.random.default_rng(99)
    tl = TimelineTrace(n_pes)
    for pe in range(n_pes):
        t = int(rng.integers(0, 50))
        tl.add_span(pe, "FINISH", 0, 40 * spans * 60)
        for _ in range(spans):
            length = int(rng.integers(0, 3)) * int(rng.integers(1, 90))
            region = ("MAIN", "PROC", "COMM")[int(rng.integers(0, 3))]
            tl.add_span(pe, region, t, t + length)
            t += length + int(rng.integers(0, 40))
    for _ in range(4 * n_pes):
        src, dst = (int(v) for v in rng.integers(0, n_pes, 2))
        tl.add_net_event(int(rng.integers(0, 3000)), "nonblock_send",
                         src, dst, 64)
    return tl


def _synthetic_series(n_pes: int = 256, buckets: int = 96,
                      width: int = 1000) -> PeSeries:
    """Seeded occupancy with every geometry edge case the gantt has."""
    rng = np.random.default_rng(20240917)
    occ = rng.integers(0, width, size=(n_pes, buckets, 3), dtype=np.int64)
    occ[rng.random((n_pes, buckets)) < 0.3] = 0          # empty cells
    occ[rng.random((n_pes, buckets, 3)) < 0.2] = 0       # empty regions
    over = rng.random((n_pes, buckets, 3)) < 0.05        # > bucket width
    occ[over] = width + rng.integers(1, 5 * width, size=int(over.sum()))
    tiny = rng.random((n_pes, buckets, 3)) < 0.1         # < 0.4 px wide
    occ[tiny] = rng.integers(1, 40, size=int(tiny.sum()))
    vp = Viewport(level=3, width=width, b0=17, b1=17 + buckets,
                  t0=17 * width, t1=(17 + buckets) * width)
    return PeSeries(viewport=vp, occ=occ)


def _synthetic_matrix(n: int = 256) -> np.ndarray:
    rng = np.random.default_rng(7)
    m = rng.poisson(3.0, size=(n, n)).astype(np.int64)
    m[rng.random((n, n)) < 0.25] = 0
    m[3, :] = 0                      # a PE that never sends
    m[:, 5] = 0                      # a PE that never receives
    m[9, 11] = 10_000                # a hot edge
    return m


def _small_matrix() -> np.ndarray:
    return np.array([[0, 5, 1, 0], [2, 0, 9, 3], [0, 0, 0, 0],
                     [7, 1, 0, 40]], dtype=np.int64)


def _canvas_rects() -> str:
    cv = Canvas(120.5, 80.25)
    cv.rect(1, 2, 3.333, 4.005, fill="#123456", title='a < b & "c"')
    cv.rect(0.004, -0.004, 10, 0.4, title="")
    cv.rect(5, 5, 7.125, 1e6, stroke="#000", stroke_width=0.5,
            opacity=0.25, title="PE1 → PE2")
    cv.rect(2.675, 1.005, 0, 0, fill="none", opacity=0.5)
    return cv.to_string()


def _profile(n: int = 7) -> OverallProfile:
    p = OverallProfile(n)
    for pe in range(n):
        p.add_main(pe, 1000 * (pe + 1) + 37 * pe * pe)
        p.add_proc(pe, 501 * (pe % 3))
        p.add_total(pe, 9000 + 1234 * pe)
    return p


def _render_all() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        resolved, timeline = _profiled_run(Path(tmp))
        for name, path in (("histogram", GOLDEN / "histogram.aptrc"),
                           ("triangle", GOLDEN / "triangle.aptrc"),
                           ("timeline", resolved)):
            for view, svg in _lod_views(path).items():
                out[f"{name}/{view}"] = svg
    out["spans/profiled"] = timeline_svg(timeline)
    out["utilization/profiled"] = utilization_svg(timeline)
    wide = _synthetic_timeline()
    out["spans/synthetic-256"] = timeline_svg(wide, title='spans <&">')
    out["spans/synthetic-256-decimated"] = timeline_svg(wide, max_spans=1000)
    out["utilization/synthetic-256"] = utilization_svg(wide)
    out["utilization/synthetic-256-coarse"] = utilization_svg(
        wide, buckets=7, title="<coarse>")
    small = _small_matrix()
    for totals in (True, False):
        for log in (True, False):
            out[f"heatmap/totals={totals}/log={log}"] = heatmap_svg(
                small, title="small", log_scale=log, show_totals=totals)
    out["heatmap/labels"] = heatmap_svg(
        small, title='bytes <sent> & "recv"', xlabel="to", ylabel="from")
    big = _synthetic_matrix()
    out["synthetic/heatmap-256"] = heatmap_svg(big, title="256 PEs")
    out["synthetic/heatmap-256-linear"] = heatmap_svg(
        big, title="256 PEs", log_scale=False, show_totals=False)
    series = _synthetic_series()
    out["synthetic/gantt-256"] = lod_gantt_svg(series, title='gantt <&">')
    out["synthetic/timeline-256"] = lod_timeline_svg(series, title="")
    out["canvas/rects"] = _canvas_rects()
    out["canvas/empty"] = Canvas(10, 10, background="").to_string()
    values = np.array([3.0, 0.0, 1e5, 17.5, 2.25, 990.0, 4.0])
    out["bars/linear"] = bar_graph(values, title="bars")
    out["bars/log"] = bar_graph(values, log_scale=True, highlight_max=False)
    out["bars/grouped"] = grouped_bar_graph(
        {"ins": values, "cyc": values[::-1] * 3, "l1": values + 1})
    out["stacked/abs"] = stacked_bar_graph(_profile())
    out["stacked/rel"] = stacked_bar_graph(_profile(), relative=True)
    rng = np.random.default_rng(3)
    out["violin"] = violin_svg({
        "sends": rng.poisson(40, 64).astype(float),
        "recvs": rng.poisson(40, 64).astype(float),
        "flat": np.full(16, 5.0),
    }, title="violin")
    return out


#: sha256 of each rendering, recorded against the per-cell renderer.
DIGESTS = {
    "bars/grouped":
        "3bf16267017bf1e13c1d214e04324f603f2b7e92f2a63ec7ae9b58632593ef61",
    "bars/linear":
        "e19546f596daf0df331f6f7afa3262e0965f6eebf93327fd04bb9909ce53fee9",
    "bars/log":
        "f4a8c75db1d704c02f02869749f0cba2ecc46edca6960b1b82a2df91f51a835d",
    "canvas/empty":
        "fae1d7ac4975da94304c9b2d96150273bc11c6bdec687ce4b9b1d0866cd7b668",
    "canvas/rects":
        "88c9964df7f9901551e214bcfd09a2d74a559a6648083add36eeacff359c70ed",
    "heatmap/labels":
        "cdee7328c3b325830103947bfb78fe322ed2cb806e91eda21b7857321bd7045a",
    "heatmap/totals=False/log=False":
        "02061f0d9505523996b1f80f130407a8afa39230efb3088e209921483ae84b25",
    "heatmap/totals=False/log=True":
        "f3b5e8c74c53e2ea208de9334a9da403d18bac200d92690a28268c802a0aeb73",
    "heatmap/totals=True/log=False":
        "2c6fecf114af099968b6b142d4b87609d20e52a47931926b508c2aa35aa1e2b2",
    "heatmap/totals=True/log=True":
        "5c2ec9097dd9a35d69f503298c12e3ba04829823285eae4a070b02201116d743",
    "histogram/gantt-full":
        "5beb9d5648c868bb6f8f5c717b39ef48cba595d8174a8f5149dff5715098afda",
    "histogram/gantt-zoom":
        "5beb9d5648c868bb6f8f5c717b39ef48cba595d8174a8f5149dff5715098afda",
    "histogram/heatmap-bytes-full":
        "79088c9b6200a5c302c0a1576f0b81d9348ead9bf01f79be5616decb2fa4447e",
    "histogram/heatmap-bytes-zoom":
        "79088c9b6200a5c302c0a1576f0b81d9348ead9bf01f79be5616decb2fa4447e",
    "histogram/heatmap-full":
        "8babc4142ac7a30f4cb6c09643e0b220c05b17ca32abc78a38838f9057df5134",
    "histogram/heatmap-zoom":
        "8babc4142ac7a30f4cb6c09643e0b220c05b17ca32abc78a38838f9057df5134",
    "histogram/timeline-full":
        "3ead88b8d404e303aa4f7c353d1a2e165a1ccd53ad1b562243f281e66221610f",
    "histogram/timeline-zoom":
        "3ead88b8d404e303aa4f7c353d1a2e165a1ccd53ad1b562243f281e66221610f",
    "spans/profiled":
        "6212d092f7c641b1b700566c7413341cfe2e5f2b8d555b9b228764431ff1cadc",
    "spans/synthetic-256":
        "f592cd0d93a44f840a863fa04ccb89ee9d41140790feb513c2b44493d9986ab0",
    "spans/synthetic-256-decimated":
        "7afa75cc363fdc63cf704d4af86fd21d6972f7006a89b192a0e1a9df0b6dedf2",
    "stacked/abs":
        "d6be48a0cd2f77170b6ac9d40bf21ec49f0524e344c1e66a35f3f9dd13b562b6",
    "stacked/rel":
        "465156c38e88d0c61f10cdd0a7a00e7409f1ea9f4760cf96c7cdb0853d1a8170",
    "synthetic/gantt-256":
        "c99abb7a2da527a9781e6219352ecca73faa80932d50fd5b5397f7fba9048abc",
    "synthetic/heatmap-256":
        "9992bc61563b402876035122c39dce44fdbc2403a7edf30f8f692034f5c43bbf",
    "synthetic/heatmap-256-linear":
        "39109aba4ba645029c2ac21234432c58df362935a67c644c415b62f15d624ebf",
    "synthetic/timeline-256":
        "ac903286decfe7d0df9d126241e3f7ca21a7d9de33951581679db71e4d4a82dc",
    "timeline/gantt-full":
        "c74f69ce6f69f2501f0b7f1785b64d32698d32f6eb4484ff75f5a296975a94b1",
    "timeline/gantt-zoom":
        "b6ec8adf373ed09ccaf25f037a338213b3e64522fa95e3491b652b6a4b180c3d",
    "timeline/heatmap-bytes-full":
        "169d380a9bd0ad6d19286cd8588be55bd4990e3bc4c1fc6b846847e4b2f9bf13",
    "timeline/heatmap-bytes-zoom":
        "6cd74d14ccfb019ee5d9e82d6e1c66efc42859da9ca17b13f0b4ae16e4aa2a41",
    "timeline/heatmap-full":
        "a3e8aa01ab036554e2ca51862f95ecc9419f271843bc8116ba8fda44cdc91bcc",
    "timeline/heatmap-zoom":
        "06723c4bd0dae530800885be85a2f7f5c245092e560cac3a2c040c79ceb1ee14",
    "timeline/timeline-full":
        "b01fceebf4caa99bc81bfe2be2780dfa48e5d5b52daeda7caeabf3a8079b6e2c",
    "timeline/timeline-zoom":
        "58bd928f8cd80cabe6a2b4fd059779b45a32efa5c6c024242ed76ccc2e7b6b13",
    "triangle/gantt-full":
        "8d6b6b20ddbfbd5f0c69bc5b09ffb6ee0baeed8b3212f5a5ee9decd42465091b",
    "triangle/gantt-zoom":
        "8d6b6b20ddbfbd5f0c69bc5b09ffb6ee0baeed8b3212f5a5ee9decd42465091b",
    "triangle/heatmap-bytes-full":
        "07c2dd4c7affcb19ead8be157a6c1ffeded9b0200134b1f78271ff448fec7064",
    "triangle/heatmap-bytes-zoom":
        "07c2dd4c7affcb19ead8be157a6c1ffeded9b0200134b1f78271ff448fec7064",
    "triangle/heatmap-full":
        "f1681bd5b2e3ecc3283ee5938a1deb0dc3a399600d55cc388dd080836f6ea31e",
    "triangle/heatmap-zoom":
        "f1681bd5b2e3ecc3283ee5938a1deb0dc3a399600d55cc388dd080836f6ea31e",
    "triangle/timeline-full":
        "47ea1e848c6116402b3f188a36427a5f0f3c9ed5240b080abf96693277f01ab7",
    "triangle/timeline-zoom":
        "47ea1e848c6116402b3f188a36427a5f0f3c9ed5240b080abf96693277f01ab7",
    "utilization/profiled":
        "c86340fbb1863b909d49ff40330edcf9d49b8969f700bd33d15cb27b9615818e",
    "utilization/synthetic-256":
        "76c69c679d62dace156e221e9029edb7d33b1ce852d48ce8ca4021ddca89bf98",
    "utilization/synthetic-256-coarse":
        "351d13f8edf809e875fb55a58bed8d15be3b68674c12068d61c4ac3019e88a55",
    "violin":
        "ebc8ff93c0697a48e02210f4dad11b1c4f1a9da4836b1e453256d1708bfb88e4",
}


@pytest.fixture(scope="module")
def rendered() -> dict[str, str]:
    return _render_all()


def test_every_case_is_pinned(rendered):
    assert sorted(rendered) == sorted(DIGESTS)


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_svg_bytes_unchanged(rendered, case):
    digest = hashlib.sha256(rendered[case].encode()).hexdigest()
    assert digest == DIGESTS[case], f"{case}: SVG bytes changed"
