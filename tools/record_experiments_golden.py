#!/usr/bin/env python3
"""Record the Figure 6, Figure 7 and Table 2 outputs as regression goldens.

Run from the repository root::

    PYTHONPATH=src python tools/record_experiments_golden.py --reason "why"

For each pinned experiment it runs ``ExperimentEngine().run(experiment)`` at
``SimConfig()`` with the experiment's default ``num_tasks`` and writes the
sha256 of its encoded result (:func:`repro.harness.encode`, serialised with
sorted keys) to ``tests/data/experiments_golden.json``;
``tests/test_experiments_golden.py`` recomputes and compares them.  A change
that only speeds the simulator up or restructures the harness must leave
the golden alone, so the recorder refuses to run without a reason, and
keeps every reason given in the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.harness import ExperimentEngine, encode

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / \
    "experiments_golden.json"
#: The non-sweep experiments whose whole output is pinned.
EXPERIMENTS = ("figure6", "figure7", "table2")


def digest(result: object) -> str:
    """The pinned form of one experiment's output."""
    document = json.dumps(encode(result), sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reason", required=True,
                        help="why the pinned experiment outputs change")
    args = parser.parse_args(argv)
    if not args.reason.strip():
        parser.error("--reason must say why the golden changes")
    history = []
    if GOLDEN_PATH.exists():
        history = json.loads(GOLDEN_PATH.read_text())["history"]
    with ExperimentEngine() as engine:
        results = {name: digest(engine.run(name)) for name in EXPERIMENTS}
    document = {
        "config": "SimConfig() with each experiment's default num_tasks",
        "history": history + [args.reason.strip()],
        "results": results,
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(results)} experiments)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
