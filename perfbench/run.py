"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME ...``.

Runs one workload (``fit``, ``rank`` or ``mixed``) for ``--seconds``,
checks the program's outputs, writes a human-readable report to stderr
and prints one JSON result as the last line of stdout::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics,
taken from a separate traced pass whose spans are written to
``.bench_build/perfbench/traces/``. A per-layer metric is 0 on a
workload where its layer does no work.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, WORK, log, require_source
from fixture import ensure_fixture


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="repo benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("fit", "rank", "mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    require_source()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Every workload makes sure the serving fixture exists, so whichever
    # runs first in a checkout pays its one-off build.
    ensure_fixture()

    if args.workload == "fit":
        import wl_fit as workload
    elif args.workload == "rank":
        import wl_rank as workload
    else:
        import wl_mixed as workload
    report = workload.run(args.seed, args.seconds, bool(args.trace))

    if args.trace:
        values, listed = report["layers"], spec["per_layer"]
        spans = report.get("spans")
        if spans is not None:
            path = spans.write_jsonl(
                WORK / "traces" / f"{args.workload}-{args.seed}.jsonl")
            log(f"{len(spans.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        values, listed = report["e2e"], spec["end_to_end"]
    metrics = {}
    for metric in listed:
        # A layer that did no work reports 0; an end-to-end metric must exist.
        value = float(values[metric["name"]] if not args.trace
                      else values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        log(f"{args.workload:>5} {metric['name']:<40} {value:>14.6g} "
            f"{metric['unit']}")
    for name, value in report.get("info", {}).items():
        log(f"{args.workload:>5} {name:<40} {value:>14.6g} (info)")
    for name, passed in report["checks"].items():
        log(f"check {name}: {'pass' if passed else 'FAIL'}")
    correct = all(report["checks"].values()) and report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
