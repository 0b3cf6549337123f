"""Figure 6, Figure 7 and Table 2 outputs against the recorded golden.

``tests/data/experiments_golden.json`` pins the sha256 of each experiment's
encoded result at ``SimConfig()`` with its default ``num_tasks``.
Regenerate it only with ``tools/record_experiments_golden.py --reason ...``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.harness import ExperimentEngine

RECORDER = Path(__file__).resolve().parent.parent / "tools" / \
    "record_experiments_golden.py"


def load_recorder():
    spec = importlib.util.spec_from_file_location("record_experiments_golden",
                                                  RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiment_outputs_match_golden():
    recorder = load_recorder()
    golden = json.loads(recorder.GOLDEN_PATH.read_text())["results"]
    assert sorted(golden) == sorted(recorder.EXPERIMENTS)
    with ExperimentEngine() as engine:
        moved = [name for name in recorder.EXPERIMENTS
                 if recorder.digest(engine.run(name)) != golden[name]]
    assert not moved, "experiment outputs moved: " + ", ".join(moved)
