#!/usr/bin/env python3
"""The repository benchmark: four workloads from profiled run to served query.

Run from the root of a checkout::

    python3 perfbench/run.py --workload casestudy --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that attributes host time to each layer.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result (metadata
header, every sample summary, failures) is written to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json`` and traced
runs also write ``...-spans.json`` (Chrome trace events, opens in
Perfetto).  The sha256 of the run's exact digest (simulated statistics
and archive bytes, which must not change under a host-only change) is
printed and written to the result file, so two checkouts can be
compared.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("casestudy", "fine_grained", "explore", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import metrics
    from harness import (DigestBook, Recorder, peak_rss_mb, run_metadata,
                         sample_summary, write_json)
    from tracer import Tracer

    out_dir = Path.cwd() / ".perfbench_out"
    tmp = out_dir / f"tmp-{args.workload}-{time.time_ns()}"
    tmp.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    rec = Recorder(tracer)
    meta = run_metadata(ROOT, args.seed, args.workload, bool(args.trace),
                        args.seconds)
    book = DigestBook(out_dir / "digests" /
                      f"{args.workload}-seed{args.seed}.json",
                      meta["src_sha256"])
    try:
        values, extra = metrics.measure(args.workload, args.seed,
                                        args.seconds, bool(args.trace),
                                        tmp, rec, book)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    book.save()
    values["peak_rss_mb"] = peak_rss_mb()

    spec = _spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    result_metrics = {m["name"]: {"value": values[m["name"]],
                                  "unit": m["unit"]} for m in wanted}
    correct = rec.failed == 0 and rec.attempted > 0
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_chrome(out_dir / f"{stem}-spans.json", meta)
    write_json(out_dir / f"{stem}.json", {
        "meta": meta,
        "input_digest": extra.get("input_digest"),
        "exact_digest": book.summary(),
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": dict(rec.failures.most_common(20)),
        "metrics": result_metrics,
        "samples": sample_summary(rec.samples),
        "notes": {**extra.get("notes", {}),
                  "untraced_targets": sorted(tracer.missing)
                  if tracer is not None else []},
    })
    for name, entry in result_metrics.items():
        print(f"{name:32s} {entry['value']:>16.6g} {entry['unit']}")
    if book.seen:
        print(f"exact digest (simulated statistics, archive bytes): "
              f"{book.summary()['sha256']}")
    for what, n in rec.failures.most_common(5):
        print(f"FAILED x{n}: {what}")
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
