"""Checks of the benchmark itself, on the tiny case ``sparselu/N32 M1``.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402

TINY = bench.Workload("tiny", "sparselu/N32 M1")
DECLARED = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def passes():
    """One untraced and one profiled pass of the tiny case."""
    plain = bench.run_pass(TINY)
    profiler = cProfile.Profile()
    traced = bench.run_pass(TINY, profiler)
    return plain, traced, pstats.Stats(profiler)


def test_metric_names_and_declared_set(passes):
    plain, traced, stats = passes
    computed = {
        "end_to_end": bench.end_to_end([(plain.seconds, 1.0)], [(0.5, 1.0)]),
        "per_layer": bench.per_layer(plain, traced, stats),
    }
    for kind, metrics in computed.items():
        units = bench.family_units(DECLARED[kind])
        for name in metrics:
            assert re.fullmatch(r"[A-Za-z0-9_.-]{1,64}", name), name
            if name != "host_speed":
                assert bench.family(name) in units, name
        for spec in DECLARED[kind]:
            assert spec["name"] in metrics, spec["name"]


def test_layer_attribution_sums_to_traced_total(passes):
    _plain, _traced, stats = passes
    self_s, calls = bench.attribute(stats)
    assert sum(self_s.values()) == pytest.approx(stats.total_tt, abs=1e-9)
    assert sum(calls.values()) == sum(
        entry[1] for entry in stats.stats.values())
    assert self_s["sim"] > 0 and self_s["picos"] > 0


def test_simulated_output_is_deterministic_and_pins_catch_a_change(passes):
    plain, traced, _stats = passes
    pins = {unit.id: bench.digest(unit.result) for unit in plain.units}
    clean = bench.Tally()
    clean.add(traced.units, pins)
    assert (clean.attempted, clean.failed) == (4, 0)

    perturbed = dict(pins)
    uid = f"{TINY.case}|phentos"
    perturbed[uid] = dict(pins[uid],
                          elapsed_cycles=pins[uid]["elapsed_cycles"] + 1)
    dirty = bench.Tally()
    dirty.add(traced.units, perturbed)
    assert dirty.failed == 1 and dirty.failed / dirty.attempted > 0

    raised = bench.Tally()
    raised.add([], pins)
    assert raised.failed == raised.attempted == 4


def test_host_speed_scales_seconds_to_the_nominal_host():
    speed = bench.HostSpeed()
    speed.sample(0.05)
    assert speed.nominal_s == pytest.approx(0.05)
    assert speed.measured_s > 0
    metrics = bench.end_to_end([(2.0, 1.0), (1.0, 3.0), (3.0, 0.5)],
                               [(0.4, 0.5), (0.2, 1.5)])
    assert metrics["wall_s"] == 2.0
    assert metrics["setup_s"] == pytest.approx(0.25)
    assert metrics["host_speed"] == 1.0


def test_a_reference_slice_leaves_the_collector_alone():
    """No object the collector tracks is made, and no collection runs, in a
    slice, so the measured program's heap cannot enter its seconds."""
    speed = bench.HostSpeed()
    collections = sum(entry["collections"] for entry in gc.get_stats())
    allocated = gc.get_count()
    speed.sample(0.05)
    assert gc.get_count() == allocated
    assert sum(entry["collections"]
               for entry in gc.get_stats()) == collections
    assert gc.isenabled()


def test_sampled_pass_leaves_out_its_slices():
    sampled = bench.run_pass(TINY, sample_speed=True)
    assert sampled.host_speed is not None and sampled.host_speed > 0
    assert sampled.seconds > 0
    assert [u.id for u in sampled.units] == [
        f"{TINY.case}|{name}"
        for name in ("serial", "nanos-sw", "nanos-rv", "phentos")]


def test_every_workload_is_pinned():
    pins = bench.load_pins()
    assert set(pins) == set(bench.WORKLOADS)
    assert len(pins["stall"]) == len(pins["fine"]) == 4
    assert len(pins["overhead"]) == 16
