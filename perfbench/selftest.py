#!/usr/bin/env python3
"""Self-test of the benchmark itself, on small inputs.

Usage (from the repository root)::

    python3 perfbench/selftest.py

For every workload it checks that

* a clean round passes every oracle, and two clean rounds of the same input
  give bit-identical simulated metrics;
* a round with one output corrupted fails its oracles, so the error rate
  rises above zero;
* a traced round gives the same simulated metrics as an untraced one, and
  its per-layer self times plus the ``bench.driver`` remainder add up to its
  wall time, with no layer claiming more time than the round took.

It also checks that an entry point missing from the program is reported as
absent instead of crashing the traced run.  Exits 1 if any check fails.
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.05


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name in workloads.WORKLOADS:
        inputs = workloads.generate(name, seed=7, scale=SCALE)
        clean = workloads.run_round(inputs)
        check(clean.failed == 0 and not clean.errors,
              f"{name}: clean round passes its oracles {clean.errors}")
        again = workloads.run_round(inputs)
        check(again.sim == clean.sim, f"{name}: simulated metrics repeat exactly")
        corrupt = workloads.run_round(inputs, corrupt=True)
        check(corrupt.failed > 0 and bool(corrupt.errors),
              f"{name}: a corrupted output raises the error rate to "
              f"{corrupt.failed}/{corrupt.attempted}")

        tracer = tracing.LayerTracer()
        tracer.install()
        try:
            traced = workloads.run_round(inputs, hooks=tracer)
        finally:
            tracer.uninstall()
        check(traced.sim == clean.sim and traced.failed == 0,
              f"{name}: tracing leaves the simulated metrics unchanged")
        split = tracer.split(tracer.rounds[0])
        wall = split["traced_wall_s"]
        selfs = [v for k, v in split.items() if k.endswith(".self_s")]
        check(abs(sum(selfs) - wall) <= 1e-9 * max(1.0, wall)
              and min(selfs) >= 0.0,
              f"{name}: per-layer self times add up to the traced wall time "
              f"({sum(selfs):.6f} s of {wall:.6f} s)")

    missing = ("bench.missing", "repro.messaging.producer", "Producer.no_such_path",
               tracing._none)
    tracing.ENTRY_POINTS.append(missing)
    try:
        tracer = tracing.LayerTracer()
        tracer.install()
        tracer.uninstall()
    finally:
        tracing.ENTRY_POINTS.remove(missing)
    check(tracer.absent == ["repro.messaging.producer:Producer.no_such_path"],
          f"a deleted entry point is reported absent: {tracer.absent}")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
