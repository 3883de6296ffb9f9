#!/usr/bin/env python3
"""End-to-end serving benchmark for the repro counting service.

Starts the real ``repro serve`` (or ``repro cluster --workers 2``) as a
subprocess, drives a seeded workload through ``ServiceClient`` in an
open-loop phase (one connection, each request's CPU metered) and a
closed-loop phase, checks every answer against an oracle, and prints each
metric with its unit.  Run from the repository root::

    python3 e2ebench/run.py --workload count-warm --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seed 1      # registered workloads, both runs

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
workload with the benchmark's spans on and replays a sample of requests down
the layer ladder, reporting the per-layer metrics.  Results land in
``e2ebench/out/`` as JSON; ``--compare FILE`` sets a run against an earlier
one.  The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero on any wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="answers-cold, update-mixed, count-routed, "
                             "all (those three), or count-warm")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per run (half open, half closed loop)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default=None,
                        help="default: 0 for one workload, both for all")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for result files")
    parser.add_argument("--compare", default=None,
                        help="an earlier result file to compare against")
    return parser.parse_args(argv)


def _format(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _table(record, reported, units) -> None:
    rows = [(name, value, units[name]) for name, value in reported.items()]
    extra = record["extra"]
    if not record["trace"]:
        rows += [(name, extra[name], units[name]) for name in (
            "latency_p50_ms", "latency_p90_ms", "throughput_rps", "loadgen.lag_p99_ms",
        )]
        if extra["write_samples"]:
            rows += [(name, extra[name], "ms") for name in ("write_p50_ms", "write_p90_ms")]
    rows += [
        ("setup_wall_s", extra["setup_wall_s"], "s"),
        ("latency_p99_ms", extra["latency_p99_ms"], "ms"),
        ("error_rate", extra["error_rate"], "ratio"),
        ("open_samples", extra["open_samples"], "count"),
        ("closed_samples", extra["closed_samples"], "count"),
        ("server_cpu_s", extra["server_cpu_s"], "s"),
        ("stolen_cpu_s", extra["stolen_cpu_s"], "s"),
        ("host_slowdown", extra["host_slowdown"], "ratio"),
    ]
    print(f"\n{record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  closed-loop threads {record['threads']}  "
          f"open-loop rate {record['open_rate']:g}/s")
    for name, value, unit in rows:
        print(f"  {name:<28} {_format(value):>14}  {unit}")
    for problem in record["problems"]:
        print(f"  ! {problem}")


def _compare(current: dict, path: str, bounds: dict) -> None:
    with open(path) as handle:
        previous = json.load(handle)
    print(f"\ncompared with {path}:")
    for name, value in current.items():
        before = previous.get("metrics", {}).get(name)
        if not isinstance(before, (int, float)) or not before:
            continue
        change = (value - before) / before
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            better = bound[0]
            worse = change > bound[1] if better == "lower" else -change > bound[1]
            verdict = "  WORSE than bound" if worse else "  within bound"
        print(f"  {name:<28} {before:>12.4f} -> {value:<12.4f} {change:+.1%}{verdict}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    # A terminated run still unwinds, so its servers and scratch files go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import harness
    import metrics as catalogue
    import workloads

    names = list(workloads.REGISTERED) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WHY for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    trace = args.trace or ("both" if args.workload == "all" else "0")
    modes = {"0": [False], "1": [True], "both": [False, True]}[trace]
    end_to_end = [name for name, *_ in catalogue.END_TO_END]
    per_layer = [name for name, *_ in catalogue.PER_LAYER]
    bounds = {name: (better, bound) for name, _, better, bound in catalogue.END_TO_END}

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    os.makedirs(args.out, exist_ok=True)
    for name in names:
        for traced in modes:
            record = harness.run(name, args.seed, args.seconds, traced, ROOT, args.out)
            stem = os.path.join(args.out, f"{name}-seed{args.seed}-trace{int(traced)}")
            if traced:
                record.pop("spans").write(stem + ".spans.jsonl")
            reported = (
                {k: record["layers"][k] for k in per_layer} if traced
                else {k: record["metrics"][k] for k in end_to_end}
            )
            _table(record, reported, catalogue.UNITS)
            with open(stem + ".json", "w") as handle:
                json.dump({**record, "metrics": {**record["metrics"],
                                                 **record.get("layers", {})}},
                          handle, indent=1, default=str)
            if args.compare and not traced:
                _compare(record["metrics"], args.compare, bounds)
            ok = record["failed"] == 0 and record["warmup_failed"] == 0 and not record["problems"]
            summary["correct"] = summary["correct"] and ok
            summary["attempted"] += record["attempted"]
            summary["failed"] += record["failed"] + record["warmup_failed"]
            prefix = "" if len(names) == 1 and len(modes) == 1 else f"{name}/"
            for key, value in reported.items():
                summary["metrics"][prefix + key] = {
                    "value": value, "unit": catalogue.UNITS[key],
                }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
