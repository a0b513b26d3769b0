"""ActorProf — the paper's contribution.

A profiling and visualization framework for FA-BSP execution, providing:

1. **Message-aware profiling** (Section III-A): the logical trace of
   pre-aggregation point-to-point sends (``PEi_send.csv``) and PAPI
   hardware-counter region profiles (``PEi_PAPI.csv``).
2. **Overall breakdown** (Section III-B): rdtsc cycles split into
   T_MAIN / T_COMM / T_PROC per PE (``overall.txt``).
3. **Physical trace** (Section III-C): post-aggregation Conveyors network
   operations — local_send / nonblock_send / nonblock_progress
   (``physical.txt``).
4. **Visualization** (Section III-D): heatmaps, violin plots, bar graphs
   and stacked bar graphs (:mod:`repro.core.viz`), driven by the
   ``actorprof`` CLI with the paper's ``-l``/``-lp``/``-s``/``-p`` flags.

Typical use::

    from repro.core import ActorProf, ProfileFlags
    from repro.hclib import run_spmd

    ap = ActorProf(ProfileFlags.all())
    result = run_spmd(program, machine=spec, profiler=ap)
    ap.write_traces("trace_dir")
"""

from repro.core.baseline import ConventionalProfiler, PShmemProfiler
from repro.core.hotspots import advise, balance_model, find_stragglers, top_pairs
from repro.core.live import LiveMonitor
from repro.core.flags import ProfileFlags
from repro.core.logical import LogicalTrace, parse_logical_dir
from repro.core.overall import OverallProfile, parse_overall_file
from repro.core.papi_trace import PAPITrace, parse_papi_dir
from repro.core.physical import PhysicalTrace, parse_physical_file
from repro.core.profiler import ActorProf
from repro.core.query import query_trace
from repro.core.store import (
    Archive,
    ArchiveWriter,
    RunRegistry,
    TraceArchiver,
    export_run,
    load_run,
)
from repro.core.timeline import TimelineTrace

__all__ = [
    "ActorProf",
    "Archive",
    "ArchiveWriter",
    "RunRegistry",
    "TraceArchiver",
    "export_run",
    "load_run",
    "ConventionalProfiler",
    "LiveMonitor",
    "LogicalTrace",
    "OverallProfile",
    "PAPITrace",
    "PShmemProfiler",
    "PhysicalTrace",
    "ProfileFlags",
    "TimelineTrace",
    "parse_logical_dir",
    "parse_overall_file",
    "parse_papi_dir",
    "parse_physical_file",
    "advise",
    "balance_model",
    "find_stragglers",
    "query_trace",
    "top_pairs",
]
