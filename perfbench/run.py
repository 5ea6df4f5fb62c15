#!/usr/bin/env python3
"""Run one workload of the Liquid benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nearline --seed 1 --seconds 30 --trace 0

The input is generated from ``--seed`` before timing starts.  The run then
repeats rounds (fresh deployment set-up + measured phase + oracles) until
``--seconds`` have passed, at least ``MIN_ROUNDS`` times, and reports
medians over the rounds.  Simulated metrics must be bit-identical in every
round; a difference is a failure.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer split of the traced round
with the median wall time plus ``trace_overhead`` (median traced over median
untraced wall time), and writes that round's spans to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl.gz``.

Earlier lines of standard output hold the environment fingerprint and a
summary; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every oracle
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_ROUNDS = 3

#: End-to-end metrics and their units (see BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "records/s",
    "sim_capacity_rps": "records/s",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
    "sim_makespan_s": "s",
    "query_rps": "queries/s",
    "sim_wire_bytes_per_record": "bytes",
    "peak_rss_mb": "MiB",
}


def fingerprint() -> dict:
    """What makes results from two machines or modes comparable, or not."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "calibration_ms": round(statistics.median(samples) * 1e3, 3),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workloads, inputs, seconds: float, tracer=None) -> dict:
    """Repeat rounds for ``seconds``; with a tracer, alternate traced ones."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while (len(plain) < MIN_ROUNDS or time.perf_counter() < deadline
           or (tracer is not None and len(traced) < MIN_ROUNDS)):
        trace_this = tracer is not None and len(traced) < len(plain)
        result = workloads.run_round(inputs, hooks=tracer if trace_this else None)
        (traced if trace_this else plain).append(result)
    return {"plain": plain, "traced": traced}


def check_simulated(rounds: list, errors: list[str]) -> None:
    """Every round of one input must give bit-identical simulated metrics."""
    if any(r.sim != rounds[0].sim for r in rounds[1:]):
        errors.append("simulated metrics differ between rounds of one input")


def end_to_end(rounds: list) -> dict[str, float]:
    """Medians of the real-time metrics over rounds, plus the simulated ones."""
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "throughput_rps": statistics.median(r.records / r.stream_s for r in rounds),
        "query_rps": statistics.median(r.queries / r.query_s for r in rounds),
        **rounds[0].sim,
        "peak_rss_mb": peak_rss_mb(),
    }
    # A never-derived event makes a latency percentile infinite; JSON has
    # no infinity, so it reads as the largest float (and the run fails).
    return {name: min(metrics[name], sys.float_info.max) for name in END_TO_END}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "api.py").is_file():
        print(f"error: no Liquid sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    print(json.dumps({"fingerprint": fingerprint()}), flush=True)
    inputs = workloads.generate(args.workload, args.seed)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.LayerTracer()
        tracer.install()
    try:
        rounds = run_rounds(workloads, inputs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    every = rounds["plain"] + rounds["traced"]
    errors = [e for r in every for e in r.errors]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    # Tracing must not move the simulated clock either.
    check_simulated(every, errors)
    if args.trace:
        chosen = tracer.median_round()
        values = tracer.split(chosen)
        untraced = statistics.median(r.phase_s for r in rounds["plain"])
        traced = statistics.median(r["wall_s"] for r in tracer.rounds)
        values["trace_overhead"] = traced / untraced
        units = tracing.METRICS
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write_spans(chosen, spans_path, {
            "workload": args.workload, "seed": args.seed,
            "wall_s": chosen["wall_s"], "sim_s": chosen["sim_total"],
        })
    else:
        values = end_to_end(rounds["plain"])
        units = END_TO_END
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds["plain"]),
        "traced_rounds": len(rounds["traced"]),
        # Raw wall seconds of each measured phase, not at the reference pace.
        "round_phase_s": [round(r.phase_s, 4) for r in rounds["plain"]],
        "error_rate": failed / attempted,
        "errors": errors[:10],
    }
    if args.trace:
        summary["absent_entry_points"] = tracer.absent
        summary["spans"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(summary), flush=True)
    for error in errors[:10]:
        print(f"oracle: {error}", file=sys.stderr)
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
