#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric by name.

Usage (from the repository root)::

    python3 perfbench/report.py --seeds 1-10
    python3 perfbench/report.py --workloads serving --seeds 1-5 --trace-seeds 0

For each workload it runs ``perfbench/run.py`` once per seed with tracing
off, and once per trace seed with tracing on, one run at a time.  It prints
the environment fingerprint, then per workload and metric: the unit, the
number of runs, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  An end-to-end
spread of a third of its ``BENCHMARK.json`` bound or more is flagged, as is
any run whose oracles failed.  The exit code is 1 if a run failed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[dict]]:
    """One benchmark run; returns its result line and its earlier JSON lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=False,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if not lines or "correct" not in lines[-1]:
        raise RuntimeError(f"{workload} seed {seed}: no result "
                           f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    return lines[-1], lines[:-1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="1",
                        help="seeds of the traced runs; 0 for none")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    trace_seeds = [s for s in parse_seeds(args.trace_seeds) if s]

    failed_runs = 0
    fingerprint_shown = False
    for workload in workloads:
        results: dict[str, list] = {"e2e": [], "layer": []}
        for trace, seed_list in ((0, seeds), (1, trace_seeds)):
            for seed in seed_list:
                result, earlier = run_once(workload, seed, seconds, trace)
                if not fingerprint_shown:
                    print("fingerprint:", json.dumps(earlier[0]["fingerprint"]))
                    fingerprint_shown = True
                summary = earlier[-1]
                if not result["correct"]:
                    failed_runs += 1
                    print(f"FAILED {workload} seed {seed} trace {trace}: "
                          f"{summary.get('errors')}")
                results["layer" if trace else "e2e"].append(
                    {"result": result, "summary": summary})
        print(f"\n== {workload}: seeds {seeds} ({len(seeds)} runs), "
              f"trace seeds {trace_seeds} ({len(trace_seeds)} runs), "
              f"{seconds} s each")
        for kind, runs in results.items():
            if not runs:
                continue
            rounds = [r["summary"]["rounds"] for r in runs]
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            print(f"  [{kind}] rounds per run {rounds}; error_rate "
                  f"{failed}/{attempted} = {failed / attempted:.6g}")
            print(f"  {'metric':44} {'unit':>9} {'n':>3} {'median':>14} "
                  f"{'q1':>14} {'q3':>14} {'spread':>8}")
            for name, first in runs[0]["result"]["metrics"].items():
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                q1, median, q3 = quartiles(values)
                spread = (q3 - q1) / abs(median) if median else 0.0
                flag = ""
                bound = bounds.get(name) if kind == "e2e" else None
                if bound is not None and name != "setup_s" and spread >= bound / 3:
                    flag = f"  <- spread >= bound/3 ({bound / 3:.3f})"
                print(f"  {name:44} {first['unit']:>9} {len(values):>3} "
                      f"{median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}{flag}")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
