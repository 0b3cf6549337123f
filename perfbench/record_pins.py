"""Rewrite ``pins.json`` from one pass of every benchmark workload.

Usage, from the repository root::

    python3 perfbench/record_pins.py --reason "why the simulated outputs moved"

A pin is a unit's elapsed, busy and overhead cycles plus a sha256 of its
sorted ``stats``; every benchmark pass is checked against them.  A change
that only speeds the simulator up must leave them alone, so the recorder
refuses to run without a reason, and keeps every reason given in the file.
"""

from __future__ import annotations

import argparse
import json
import sys

import bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reason", required=True,
                        help="why the pinned simulated outputs change")
    args = parser.parse_args(argv)
    if not args.reason.strip():
        parser.error("--reason must say why the pins change")
    history = []
    if bench.PINS_PATH.exists():
        history = json.loads(bench.PINS_PATH.read_text())["history"]
    units = {}
    for name, workload in bench.WORKLOADS.items():
        done = bench.run_pass(workload)
        units[name] = {unit.id: bench.digest(unit.result)
                       for unit in done.units}
        print(f"{name}: {len(done.units)} units pinned", file=sys.stderr)
    document = {"history": history + [args.reason.strip()], "units": units}
    bench.PINS_PATH.write_text(json.dumps(document, indent=1,
                                          sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
