"""Figure 9 — every simulated result against the recorded golden.

``tests/data/figure9_golden.json`` pins, for each (case, runtime) of the
37-case sweep at ``SimConfig()`` with 8 workers, the elapsed, busy and
overhead cycles plus a sha256 of the sorted ``stats``.  The check reuses the
session's ``benchmark_sweep``, so it costs no extra simulation.  The quick
sweep's 9 cases are full-sweep cases with identical specs, so they are
checked against the same entries.  Regenerate the golden only with
``tools/record_figure9_golden.py --reason ...``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.eval.experiments import benchmark_cases

from conftest import quick_mode, worker_count

RECORDER = Path(__file__).resolve().parent.parent / "tools" / \
    "record_figure9_golden.py"


def load_recorder():
    spec = importlib.util.spec_from_file_location("record_figure9_golden",
                                                  RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_figure9_results_match_golden(request):
    recorder = load_recorder()
    if worker_count() != recorder.WORKERS:
        pytest.skip(f"the golden is recorded with {recorder.WORKERS} "
                    f"workers, not REPRO_WORKERS={worker_count()}")
    runs = request.getfixturevalue("benchmark_sweep")
    golden = json.loads(recorder.GOLDEN_PATH.read_text())["results"]
    full_cases = {case.key: case for case in benchmark_cases()}

    assert len(runs) == (9 if quick_mode() else len(golden))
    mismatches = []
    for run in runs:
        assert run.case == full_cases[run.case.key]
        expected = golden[run.case.key]
        assert sorted(run.results) == sorted(expected)
        for name, result in sorted(run.results.items()):
            if recorder.digest(result) != expected[name]:
                mismatches.append(f"{run.case.key} on {name}")
    assert not mismatches, "simulated results moved: " + ", ".join(mismatches)
