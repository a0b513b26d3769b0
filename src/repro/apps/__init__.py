"""FA-BSP applications.

The workloads the paper profiles or motivates:

* :mod:`~repro.apps.histogram` — the paper's Listings 1–2 (random remote
  increments), the canonical FA-BSP hello-world.
* :mod:`~repro.apps.triangle` — distributed triangle counting
  (Algorithm 1), the Section IV case study, with 1D Cyclic / 1D Range /
  block distributions.
* :mod:`~repro.apps.index_gather` — the bale "ig" kernel as a two-mailbox
  request/response selector.
* :mod:`~repro.apps.permute` — the bale random-permutation kernel.
* :mod:`~repro.apps.transpose` — the bale sparse-transpose kernel.
* :mod:`~repro.apps.toposort` — the bale toposort kernel (asynchronous
  pivot cascades through message handlers).
* :mod:`~repro.apps.bfs` — level-synchronous breadth-first search.
* :mod:`~repro.apps.pagerank` — actor-based PageRank iterations.
* :mod:`~repro.apps.jaccard` — per-edge Jaccard similarity via wedge
  checks (the paper cites its Jaccard workload [7] as an ActorProf user).
* :mod:`~repro.apps.influence` — Independent-Cascade influence spread +
  greedy seed selection (the paper cites Influence Maximization [19]).

Every application validates its answer against a serial reference,
mirroring the paper's assertion-based validation.

:mod:`~repro.apps.registry` declares the kernels the ``actorprof``
tools (``run``, ``check``, ``whatif``) can run: their parameters and how
to execute them.
"""

from repro.apps.bfs import BFSResult, bfs
from repro.apps.histogram import HistogramResult, histogram
from repro.apps.index_gather import IndexGatherResult, index_gather
from repro.apps.influence import InfluenceResult, influence_spread, select_seeds
from repro.apps.jaccard import JaccardResult, jaccard
from repro.apps.pagerank import PageRankResult, pagerank
from repro.apps.permute import PermuteResult, permute
from repro.apps.toposort import ToposortResult, make_toposort_input, toposort
from repro.apps.transpose import TransposeResult, transpose
from repro.apps.triangle import TriangleResult, count_triangles

__all__ = [
    "BFSResult",
    "HistogramResult",
    "IndexGatherResult",
    "InfluenceResult",
    "JaccardResult",
    "PageRankResult",
    "PermuteResult",
    "ToposortResult",
    "TransposeResult",
    "TriangleResult",
    "bfs",
    "count_triangles",
    "histogram",
    "index_gather",
    "influence_spread",
    "jaccard",
    "pagerank",
    "permute",
    "select_seeds",
    "make_toposort_input",
    "toposort",
    "transpose",
]
