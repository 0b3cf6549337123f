"""Workloads, passes, pins and layer attribution of the repository benchmark.

``run.py`` is the command line, ``record_pins.py`` rewrites ``pins.json``
and ``test_bench.py`` checks this module on a tiny case.  README.md says why
each workload was chosen and which end-to-end metric each layer metric
should move.

Every pass drives the public harness entry point,
:class:`repro.harness.ExperimentEngine`, with ``jobs=1`` and no result
cache, on an engine built for that pass alone: the engine memoises sweeps in
memory, so a reused engine would time a memo hit.  Passes run in the
calling process with no threads; only the set-up measurement starts fresh
processes, one at a time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import json
import os
import pstats
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS_PATH = HERE / "pins.json"
#: Bytecode cache of the set-up processes, inside the checkout.
PYCACHE = HERE.parent / ".bench_build" / "pycache"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.eval import overhead as figure7  # noqa: E402
from repro.eval.experiments import BenchmarkCase, benchmark_cases  # noqa: E402
from repro.harness import ExperimentEngine  # noqa: E402
from repro.registry import runtime_names  # noqa: E402
from repro.runtime.base import Runtime, RuntimeResult  # noqa: E402

#: The repository's packages, each one layer of the per-layer metrics.
LAYERS = ("sim", "picos", "memory", "cpu", "delegate", "manager", "runtime",
          "common", "apps", "eval", "harness")
#: Self time outside the layers above: the standard library, builtins, this
#: benchmark and the package's other modules (``registry.py``, ``scenario``).
OTHER = "other"

#: Per-runtime metric names carry one of these as a dotted segment.
RUNTIMES = frozenset(runtime_names())

#: Functions whose profiled call count is a per-layer work counter, by
#: source file under ``src/repro`` and function name.
_COUNTED_CALLS = {
    "sim.events": (os.path.join("sim", "engine.py"), "_step"),
    "picos.capacity_checks": (os.path.join("picos", "dependence.py"),
                              "has_capacity"),
    "memory.directory_accesses": (os.path.join("memory", "mesi.py"),
                                  "access"),
}

_REPRO_PREFIX = str(SRC / "repro") + os.sep

#: Seconds one reference-loop iteration (:class:`HostSpeed`) takes on the
#: nominal host, about what a 2-CPU Xeon container took when the benchmark
#: was defined.
REF_ITERATION_S = 4e-7
#: A reference slice of 12 ms nominal every 250 ms: about 5% of a pass.
SAMPLE_NOMINAL_S = 0.012
SAMPLE_INTERVAL_S = 0.25


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a Figure 9 case, or the Figure 7 table."""

    name: str
    #: Figure 9 case key, run on the paper's case runtimes; ``None`` runs
    #: the Figure 7 lifetime-overhead table instead.
    case: Optional[str]


WORKLOADS: Dict[str, Workload] = {
    # Picos' reservation station stays full, so host time goes to capacity
    # polls and failed submissions; Nanos-SW (no Picos) is the control.
    "stall": Workload("stall", "sparselu/N128 M8"),
    # 2,048 tasks of ~2k cycles and no failed submission: host time goes to
    # the MESI directory, Stats and the engine loop.
    "fine": Workload("fine", "blackscholes/16K B8"),
    # The only workload that reaches the AXI path (Nanos-AXI), with
    # 15-dependence insert/forget, and the only one with paper numbers.
    "overhead": Workload("overhead", None),
}


class BenchError(Exception):
    """A pass produced output the benchmark cannot account for."""


# ---------------------------------------------------------------------- #
# Spans around the calls into the runtime and apps layers
# ---------------------------------------------------------------------- #
@dataclass
class Span:
    """One call into a layer, timed from the benchmark's own files."""

    layer: str
    name: str
    seconds: float
    result: object


@contextlib.contextmanager
def layer_spans() -> Iterator[List[Span]]:
    """Record a :class:`Span` per ``Runtime.run`` and task-program build.

    ``Runtime.run`` is called once per simulated unit and the builders once
    per input, so the wrappers add a few calls per pass and nothing to the
    simulation itself.  The originals are restored on exit.
    """
    spans: List[Span] = []
    originals = (Runtime.run, BenchmarkCase.build, figure7._build_workload)

    def timed(layer: str, function: Callable,
              name_of: Callable[[tuple, object], str]) -> Callable:
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = function(*args, **kwargs)
            spans.append(Span(layer, name_of(args, result),
                              time.perf_counter() - start, result))
            return result
        return wrapper

    Runtime.run = timed("runtime", originals[0], lambda a, r: a[0].name)
    BenchmarkCase.build = timed("apps", originals[1], lambda a, r: r.name)
    figure7._build_workload = timed("apps", originals[2],
                                    lambda a, r: r.name)
    try:
        yield spans
    finally:
        Runtime.run, BenchmarkCase.build, figure7._build_workload = originals


# ---------------------------------------------------------------------- #
# Host speed
# ---------------------------------------------------------------------- #
def _process(delay: int) -> Iterator[int]:
    while True:
        yield delay


class HostSpeed:
    """How fast the host runs, relative to a nominal host.

    A shared host changes speed from one second to the next as other
    tenants come and go, and that moves every host-time figure.  Timing
    slices of a fixed reference loop while a measurement runs tracks the
    change; :attr:`factor` converts measured seconds into seconds on the
    nominal host, on which one loop iteration takes ``REF_ITERATION_S``.

    The loop is interpreter-bound work of the simulator's kind: 64
    generators resumed in the order of a time heap, with counters.  It does
    not use the package, and its state is built once here, so a slice
    allocates no object the garbage collector tracks; with collection also
    switched off around it, no work of the program it interleaves with can
    run inside a slice.
    """

    def __init__(self) -> None:
        self.nominal_s = 0.0
        self.measured_s = 0.0
        self._processes = [_process(index & 7) for index in range(64)]
        # Heap entries are ``time << 6 | process``: plain ints, untracked.
        self._heap = list(range(64))
        self._counts = [0] * 64

    def sample(self, nominal_s: float) -> None:
        """Time the reference loop for about ``nominal_s`` nominal seconds."""
        iterations = max(1, round(nominal_s / REF_ITERATION_S))
        processes, heap, counts = self._processes, self._heap, self._counts
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(iterations):
                entry = heapq.heappop(heap)
                index = entry & 63
                counts[index] += 1
                heapq.heappush(heap, entry + (next(processes[index]) + 1 << 6))
            self.measured_s += time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.nominal_s += iterations * REF_ITERATION_S

    @property
    def factor(self) -> float:
        """Nominal over measured seconds: below 1 on a slower host."""
        return self.nominal_s / self.measured_s


@contextlib.contextmanager
def sampling(speed: HostSpeed) -> Iterator[None]:
    """Sample ``speed`` every ``SAMPLE_INTERVAL_S`` of wall time while active.

    A ``SIGALRM`` handler runs each slice in this thread between two
    bytecodes of whatever is running, so the samples spread evenly over the
    measured work.  No work of the measured program runs inside a slice
    (:class:`HostSpeed`), so a slice's seconds are its own, and
    :func:`run_pass` leaves them out of the pass's.
    """
    def handler(_signum, _frame) -> None:
        speed.sample(SAMPLE_NOMINAL_S)

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------- #
# Passes
# ---------------------------------------------------------------------- #
@dataclass
class Unit:
    """One simulation: a (case, runtime) or a (Figure 7 cell, platform)."""

    id: str
    runtime: str
    result: RuntimeResult


@dataclass
class Pass:
    """One execution of a workload on a fresh engine."""

    #: Host seconds of the run, without the reference slices in it.
    seconds: float
    units: List[Unit]
    spans: List[Span]
    #: :attr:`HostSpeed.factor` over the pass (``None`` when not sampled).
    host_speed: Optional[float] = None
    #: Mean absolute percentage error of the Figure 7 cells against
    #: ``PAPER_FIGURE7_CYCLES`` (``None`` on Figure 9 cases, which the
    #: paper gives no per-case numbers for).
    paper_err_pct: Optional[float] = None


def find_case(key: str) -> BenchmarkCase:
    """The paper's Figure 9 case called ``key`` (e.g. ``sparselu/N32 M1``)."""
    for case in benchmark_cases():
        if case.key == key:
            return case
    raise BenchError(f"no Figure 9 case {key!r}")


def setup(workload: Workload) -> ExperimentEngine:
    """Everything a pass needs before it simulates: engine and inputs.

    Builds the workload's task programs once, so lazy imports behind the
    builders are paid here and ``apps`` build time shows in set-up.
    """
    engine = ExperimentEngine(jobs=1)
    if workload.case is not None:
        find_case(workload.case).build()
    else:
        for _label, kind, deps in figure7.OVERHEAD_WORKLOADS:
            figure7._build_workload(kind, deps, figure7.DEFAULT_NUM_TASKS,
                                    payload_cycles=0)
    return engine


def run_pass(workload: Workload, profiler=None,
             sample_speed: bool = False) -> Pass:
    """Run ``workload`` once on a fresh engine, timing only the run itself.

    ``profiler`` (a ``cProfile.Profile``) is enabled around the run alone.
    With ``sample_speed``, the host speed is sampled during the run
    (:func:`sampling`) and the slices' seconds are left out of the pass's.
    """
    case = find_case(workload.case) if workload.case is not None else None
    engine = setup(workload)
    speed = HostSpeed()
    sampler = sampling(speed) if sample_speed else contextlib.nullcontext()
    gc.collect()
    try:
        with layer_spans() as spans:
            start = time.perf_counter()
            with sampler:
                if profiler is not None:
                    profiler.enable()
                try:
                    if case is not None:
                        output = engine.run("figure9", cases=[case])
                    else:
                        output = engine.run("figure7")
                finally:
                    if profiler is not None:
                        profiler.disable()
            seconds = time.perf_counter() - start - speed.measured_s
    finally:
        engine.close()
    factor = speed.factor if speed.measured_s else None
    if case is not None:
        units = [Unit(f"{case.key}|{runtime}", runtime, result)
                 for runtime, result in output[0].results.items()]
        return Pass(seconds, units, spans, factor)
    return _figure7_pass(seconds, output, spans, factor)


def _figure7_pass(seconds: float, cells, spans: List[Span],
                  host_speed: Optional[float]) -> Pass:
    """Pair each Figure 7 cell with the ``RuntimeResult`` behind it."""
    results = [span for span in spans if span.layer == "runtime"]
    if len(results) != len(cells):
        raise BenchError(f"{len(cells)} Figure 7 cells but "
                         f"{len(results)} runtime runs")
    units = []
    errors = []
    for cell, span in zip(cells, results):
        result = span.result
        if span.name != cell.platform or \
                result.elapsed_cycles / result.tasks_executed \
                != cell.cycles_per_task:
            raise BenchError(f"Figure 7 cell {cell.workload} on "
                             f"{cell.platform} does not match its run")
        units.append(Unit(f"{cell.workload}|{cell.platform}",
                          cell.platform, result))
        if cell.paper_cycles_per_task:
            errors.append(abs(cell.cycles_per_task
                              - cell.paper_cycles_per_task)
                          / cell.paper_cycles_per_task)
    return Pass(seconds, units, spans, host_speed,
                paper_err_pct=100 * statistics.fmean(errors))


# ---------------------------------------------------------------------- #
# Pins
# ---------------------------------------------------------------------- #
def digest(result: RuntimeResult) -> Dict[str, object]:
    """The pinned form of a unit's simulated output."""
    stats = json.dumps(sorted(result.stats.items()))
    return {
        "elapsed_cycles": result.elapsed_cycles,
        "busy_cycles": result.busy_cycles,
        "overhead_cycles": result.overhead_cycles,
        "stats_sha256": hashlib.sha256(stats.encode()).hexdigest(),
    }


def load_pins() -> Dict[str, Dict[str, dict]]:
    """Pinned unit digests, keyed by workload name and then unit id."""
    return json.loads(PINS_PATH.read_text())["units"]


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def family(name: str) -> str:
    """``name`` without its runtime segment: ``sim_cycles.serial`` and
    ``sim_cycles.phentos`` are both ``sim_cycles``."""
    return ".".join(part for part in name.split(".")
                    if part not in RUNTIMES)


def family_units(specs: List[dict]) -> Dict[str, str]:
    """Unit of each metric family declared in ``specs`` (``BENCHMARK.json``).

    The JSON line carries per-runtime metrics only for the runtimes every
    workload runs; the report lines of the others take their family's unit.
    """
    return {family(spec["name"]): spec["unit"] for spec in specs}


def measure_setup(workload: Workload, samples: int
                  ) -> List[Tuple[float, float]]:
    """Seconds from process start to ready-to-run, with a warm bytecode cache.

    Each sample starts an interpreter that imports the package, builds the
    engine and the workload's inputs (:func:`setup`) and prints the
    monotonic clock, which all processes on the host share.  It then times
    the reference loop (:class:`HostSpeed`), so that its seconds can be
    scaled by the speed of the CPU it ran on.  An untimed first process fills the bytecode cache
    under ``PYCACHE``, whatever the environment says about writing one.
    Returns (measured seconds, host speed factor) pairs.
    """
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "import bench; bench.setup(bench.WORKLOADS[sys.argv[2]]).close(); "
             "ready = time.perf_counter(); speed = bench.HostSpeed(); "
             "speed.sample(0.2); print(ready, speed.factor)")
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    measured = []
    for _ in range(samples + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", probe, str(HERE), workload.name],
            capture_output=True, text=True, check=True, timeout=120, env=env)
        ready, factor = map(float, done.stdout.split()[-2:])
        measured.append((ready - start, factor))
    return measured[1:]


def end_to_end(passes: List[Tuple[float, float]],
               setup_samples: List[Tuple[float, float]]) -> Dict[str, float]:
    """What a user of the simulator sees, from untraced passes.

    ``passes`` and ``setup_samples`` are (measured seconds, host speed
    factor) pairs.  ``wall_s`` and ``setup_s`` are medians at the nominal
    host speed.
    """
    def nominal(pairs):
        return statistics.median(seconds * factor for seconds, factor in pairs)

    return {
        "wall_s": nominal(passes),
        "setup_s": nominal(setup_samples),
        "host_speed": statistics.median(factor for _, factor in passes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def attribute(stats: pstats.Stats) -> Tuple[Dict[str, float],
                                            Dict[str, int]]:
    """Self seconds and call counts per layer, by defining source file.

    Every profiled function lands in exactly one layer or in ``other``, so
    the self times sum to the profile's total.  A generator's calls include
    its resumptions.
    """
    self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    calls = dict.fromkeys(LAYERS + (OTHER,), 0)
    for (filename, _line, _name), (_cc, ncalls, tottime, _cum, _callers) \
            in stats.stats.items():
        layer = OTHER
        if filename.startswith(_REPRO_PREFIX):
            package = filename[len(_REPRO_PREFIX):].split(os.sep, 1)[0]
            if package in LAYERS:
                layer = package
        self_s[layer] += tottime
        calls[layer] += ncalls
    return self_s, calls


def counted_calls(stats: pstats.Stats) -> Dict[str, int]:
    """Profiled call counts of the functions in ``_COUNTED_CALLS``."""
    counts = dict.fromkeys(_COUNTED_CALLS, 0)
    for (filename, _line, function), (_cc, ncalls, *_rest) \
            in stats.stats.items():
        for metric, (suffix, name) in _COUNTED_CALLS.items():
            if function == name and filename == _REPRO_PREFIX + suffix:
                counts[metric] += ncalls
    return counts


def _stat_sum(result: RuntimeResult, suffix: str) -> float:
    """Sum of ``result.stats`` counters whose name ends with ``suffix``."""
    return sum(value for name, value in result.stats.items()
               if name.endswith(suffix))


def simulated(units: List[Unit]) -> Dict[str, float]:
    """Deterministic per-runtime metrics read from each ``RuntimeResult``."""
    by_runtime: Dict[str, List[RuntimeResult]] = {}
    for unit in units:
        by_runtime.setdefault(unit.runtime, []).append(unit.result)
    metrics: Dict[str, float] = {
        "cpu.rocc_issues": sum(_stat_sum(unit.result, ".rocc_instructions")
                               for unit in units),
    }
    for runtime, results in by_runtime.items():
        core_cycles = sum(r.elapsed_cycles * r.num_cores for r in results)
        accesses = sum(r.stats.get("memory.accesses", 0) for r in results)
        misses = sum(r.stats.get("memory.misses", 0) for r in results)
        tasks = sum(r.tasks_executed for r in results)
        submits = sum(_stat_sum(r, ".rocc_submission_request")
                      for r in results)
        # Fetch SW ID reads the Picos Manager's ready queue of the core;
        # it fails when that queue is empty.
        fetches = sum(_stat_sum(r, ".instr_fetch_sw_id") for r in results)
        empty = sum(_stat_sum(r, ".fail_fetch_sw_id") for r in results)
        metrics[f"sim_cycles.{runtime}"] = sum(r.elapsed_cycles
                                               for r in results)
        metrics[f"cpu.overhead_frac.{runtime}"] = (
            sum(r.overhead_cycles for r in results) / core_cycles)
        metrics[f"memory.miss_ratio.{runtime}"] = (
            misses / accesses if accesses else 0.0)
        metrics[f"runtime.submit_attempts_per_task.{runtime}"] = (
            submits / tasks)
        metrics[f"manager.ready_fail_ratio.{runtime}"] = (
            empty / fetches if fetches else 0.0)
    return metrics


def per_layer(plain: Pass, traced: Pass, stats: pstats.Stats
              ) -> Dict[str, float]:
    """Per-layer metrics from one untraced and one profiled pass.

    Host seconds of the runtime and apps spans come from the untraced pass;
    self times and call counts from the profiled one, whose seconds are
    inflated by the profiler (``trace_overhead`` says by how much).
    """
    self_s, calls = attribute(stats)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    metrics[f"{OTHER}.self_s"] = self_s[OTHER]
    metrics.update(counted_calls(stats))
    metrics["sim.events_per_s"] = metrics["sim.events"] / plain.seconds
    metrics["trace_overhead"] = traced.seconds / plain.seconds
    metrics["apps.build_s"] = sum(span.seconds for span in plain.spans
                                  if span.layer == "apps")
    for span in plain.spans:
        if span.layer == "runtime":
            name = f"runtime.{span.name}.host_s"
            metrics[name] = metrics.get(name, 0.0) + span.seconds
    metrics.update(simulated(plain.units))
    return metrics


@dataclass
class Tally:
    """Units attempted and failed over every pass of a run."""

    attempted: int = 0
    failed: int = 0

    def add(self, units: List[Unit], pins: Dict[str, dict]) -> None:
        """Check one pass's units against ``pins``.

        A pinned unit the pass did not produce (it raised) and a produced
        unit with no pin both count as failed.
        """
        seen = {unit.id: digest(unit.result) for unit in units}
        ids = set(seen) | set(pins)
        self.attempted += len(ids)
        self.failed += sum(1 for uid in ids if seen.get(uid) != pins.get(uid))
