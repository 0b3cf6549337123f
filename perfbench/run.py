"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stall --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats untraced passes until ``--seconds`` have elapsed and
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
profiled pass and reports the per-layer metrics.  Every metric computed is
printed as ``name value unit`` first; the last line is one JSON object with
the metrics ``BENCHMARK.json`` declares for that mode.  A unit fails when it
raises or its simulated output differs from its pin in ``pins.json``;
``failed_frac`` is failed units over attempted ones, and the run exits 1
when it is above 0.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    # The paper's inputs are fixed and deterministic, so no workload draws
    # from the seed; it is accepted and recorded so runs stay comparable if
    # a seeded workload is added.
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} (recorded; the "
          f"paper's inputs are fixed, so no workload draws from it)")
    pins = bench.load_pins()[workload.name]
    tally = bench.Tally()

    def checked_pass(profiler=None, sample_speed=False):
        try:
            result = bench.run_pass(workload, profiler, sample_speed)
        except Exception:
            traceback.print_exc()
            tally.add([], pins)
            return None
        tally.add(result.units, pins)
        return result

    if args.trace == 0:
        setup_samples = bench.measure_setup(workload, SETUP_SAMPLES)
        # Only the seconds of a pass are kept, so that the peak resident
        # memory is one pass's, whatever the pass count.
        passes = []
        paper_err_pct = None
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            done = checked_pass(sample_speed=True)
            if done is None:
                break
            passes.append((done.seconds, done.host_speed))
            paper_err_pct = done.paper_err_pct
            del done
        print(f"pass seconds {[round(s, 3) for s, _ in passes]}, setup "
              f"seconds {[round(s, 3) for s, _ in setup_samples]}")
        metrics = (bench.end_to_end(passes, setup_samples)
                   if passes else {})
        if paper_err_pct is not None:
            metrics["paper_err_pct"] = paper_err_pct
        kind = "end_to_end"
    else:
        plain = checked_pass()
        profiler = cProfile.Profile()
        traced = checked_pass(profiler) if plain is not None else None
        metrics = (bench.per_layer(plain, traced, pstats.Stats(profiler))
                   if traced is not None else {})
        kind = "per_layer"
    metrics["failed_frac"] = tally.failed / tally.attempted
    units = bench.family_units(declared[kind])
    units.update(failed_frac="ratio", paper_err_pct="%", host_speed="ratio")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {units[bench.family(name)]}")
    if workload.case is not None:
        print("simulated speedups are unvalidated: the paper gives no "
              "per-case Figure 9 numbers")
    correct = tally.failed == 0
    if not correct:
        print(f"{tally.failed} of {tally.attempted} units failed",
              file=sys.stderr)
    if all(spec["name"] in metrics for spec in declared[kind]):
        print(json.dumps({
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {spec["name"]: {"value": metrics[spec["name"]],
                                       "unit": spec["unit"]}
                        for spec in declared[kind]},
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
