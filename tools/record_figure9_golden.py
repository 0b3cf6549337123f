#!/usr/bin/env python3
"""Record every simulated Figure 9 result as a regression golden.

Run from the repository root::

    PYTHONPATH=src python tools/record_figure9_golden.py --reason "why" [--jobs N]

It runs the full 37-case sweep on all four case runtimes at ``SimConfig()``
with 8 workers, exactly as the benchmark harness's ``benchmark_sweep``
fixture does, and writes ``tests/data/figure9_golden.json``.  For each
(case, runtime) the golden holds the elapsed, busy and overhead cycles plus
a sha256 of the sorted ``stats``; ``benchmarks/test_bench_fig9_golden.py``
compares the fixture's sweep against it.  A change that only speeds the
simulator up must leave the golden alone, so the recorder refuses to run
without a reason, and keeps every reason given in the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.common.config import SimConfig
from repro.harness import ExperimentEngine
from repro.runtime.base import RuntimeResult

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / \
    "figure9_golden.json"
#: Simulated worker cores of the pinned sweep (the paper's machine).
WORKERS = 8


def digest(result: RuntimeResult) -> Dict[str, object]:
    """The pinned form of one runtime's simulated output."""
    stats = json.dumps(sorted(result.stats.items()))
    return {
        "elapsed_cycles": result.elapsed_cycles,
        "busy_cycles": result.busy_cycles,
        "overhead_cycles": result.overhead_cycles,
        "stats_sha256": hashlib.sha256(stats.encode()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reason", required=True,
                        help="why the pinned simulated outputs change")
    parser.add_argument("--jobs", type=int, default=1,
                        help="host processes the sweep fans out over")
    args = parser.parse_args(argv)
    if not args.reason.strip():
        parser.error("--reason must say why the golden changes")
    history = []
    if GOLDEN_PATH.exists():
        history = json.loads(GOLDEN_PATH.read_text())["history"]
    config = SimConfig().with_cores(WORKERS)
    with ExperimentEngine(config=config, jobs=args.jobs) as engine:
        runs = engine.run("figure9", num_workers=WORKERS)
    results = {
        run.case.key: {name: digest(result)
                       for name, result in sorted(run.results.items())}
        for run in runs
    }
    document = {
        "config": f"SimConfig() with {WORKERS} workers",
        "history": history + [args.reason.strip()],
        "results": results,
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(results)} cases)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
