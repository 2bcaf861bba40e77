"""CLI: inspect captures and gate runs against baselines.

Commands
--------
``report <capture.jsonl> [...]``
    Pretty-print captures written by :func:`repro.obs.write_jsonl`.
    Several paths merge into **one** report: per-source trace trees and
    metric lists (each section labelled with its file), plus span
    totals aggregated across every capture.
``diff <baseline.json> <current.json>``
    Render per-metric deltas between two run snapshots written by
    :func:`repro.obs.runs.write_run`.
``check <run.json> --baseline <file> [--tolerance T] [--timing-tolerance T]``
    Exit 1 when any gated metric regressed beyond tolerance — the CI
    perf gate. Counters/gauges use ``--tolerance`` (default 10%); wall
    clock and allocation keys use the looser ``--timing-tolerance``
    (default 500%, machines differ). Gated baseline keys the run does
    not record are listed on a ``missing:`` line; they never fail the
    gate.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.obs import runs
from repro.obs.emitters import read_jsonl, render_exemplars, render_multi_report


def cmd_report(args: argparse.Namespace) -> int:
    captures = []
    status = 0
    for path in args.files:
        try:
            captures.append((str(path), read_jsonl(path)))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    if not captures:
        return status
    if args.exemplars:
        for i, (label, captured) in enumerate(captures):
            if i:
                print()
            if len(captures) > 1:
                print(f"== {label} ==")
            print(render_exemplars(captured))
    else:
        print(render_multi_report(captures))
    return status


def cmd_diff(args: argparse.Namespace) -> int:
    try:
        baseline = runs.load_run(args.baseline)
        current = runs.load_run(args.current)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"baseline: {baseline['run_id']} "
          f"(git {baseline.get('git_sha') or '?'})")
    print(f"current:  {current['run_id']} "
          f"(git {current.get('git_sha') or '?'})")
    print()
    print(runs.render_diff(runs.diff_runs(baseline, current),
                           only_changed=args.only_changed))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    try:
        baseline = runs.load_run(args.baseline)
        current = runs.load_run(args.run)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    regressions = runs.check_runs(baseline, current,
                                  tolerance=args.tolerance,
                                  timing_tolerance=args.timing_tolerance)
    gated = [d for d in runs.diff_runs(baseline, current)
             if d.direction is not None and d.baseline is not None]
    compared = sum(1 for d in gated if d.current is not None)
    # A gated baseline key the run no longer records cannot regress, so
    # name it instead of letting it drop out of the count unseen.
    missing = [d.key for d in gated if d.current is None]
    if regressions:
        print(f"REGRESSION: {len(regressions)} gated metric(s) worsened "
              f"beyond tolerance (of {compared} compared):")
    else:
        print(f"ok: {compared} gated metric(s) within tolerance "
              f"(tolerance={args.tolerance:g}, "
              f"timing-tolerance={args.timing_tolerance:g})")
    if missing:
        print(f"missing: {len(missing)} gated baseline metric(s) not in "
              f"the run: {', '.join(missing)}")
    if regressions:
        print(runs.render_diff(regressions))
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect observability captures and gate run snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="pretty-print captures (several merge into one report)")
    report.add_argument("files", nargs="+", type=pathlib.Path,
                        help="capture file(s) written by repro.obs.write_jsonl")
    report.add_argument("--exemplars", action="store_true",
                        help="render retained request exemplars (slowest / "
                             "errored) as full span trees instead of the "
                             "aggregate report")
    report.set_defaults(fn=cmd_report)

    diff = sub.add_parser("diff", help="per-metric deltas of two run snapshots")
    diff.add_argument("baseline", type=pathlib.Path,
                      help="baseline run snapshot (repro.obs.runs.write_run)")
    diff.add_argument("current", type=pathlib.Path,
                      help="run snapshot to compare against the baseline")
    diff.add_argument("--only-changed", action="store_true",
                      help="hide keys whose value is identical")
    diff.set_defaults(fn=cmd_diff)

    check = sub.add_parser(
        "check", help="exit 1 when a gated metric regressed vs the baseline")
    check.add_argument("run", type=pathlib.Path, help="run snapshot to gate")
    check.add_argument("--baseline", type=pathlib.Path, required=True,
                       help="committed baseline snapshot")
    check.add_argument("--tolerance", type=float, default=0.1,
                       help="relative budget for deterministic metrics "
                            "(default 0.1 = 10%%)")
    check.add_argument("--timing-tolerance", type=float, default=5.0,
                       help="relative budget for wall-clock/memory metrics "
                            "(default 5.0 = 500%%)")
    check.set_defaults(fn=cmd_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
