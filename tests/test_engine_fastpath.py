"""Differential tests: the engine loop versus recorded golden traces.

The batched run loop batches same-timestamp heap pops, routes zero-delay
wake-ups through a same-cycle bucket, interns Delay commands and dispatches
through a handler table.  None of that may change observable behaviour, so
every scenario here is replayed against the golden traces in
``tests/data/engine_traces.json`` — recorded from the legacy
one-pop-per-event loop (``Engine(slow=True)``) at the commit that removed
it — and must reproduce the identical event trace, final time, outcome
summary and (for the deadlock scenarios) error message.

``tests/data/record_engine_traces.py`` regenerates the golden file when a
scenario is added; the scenarios themselves live there so the recorder and
the tests cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import Delay, Engine, Get
from repro.sim.queues import DecoupledQueue

from tests.data.record_engine_traces import (
    SCENARIOS,
    TRACES_PATH,
    record_scenario,
)


def _golden():
    document = json.loads(Path(TRACES_PATH).read_text(encoding="utf-8"))
    assert document["schema"] == 1
    return document["scenarios"]


GOLDEN = _golden()


def test_golden_file_covers_every_scenario():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_recorded_legacy_trace(name):
    """Trace, final time, outcome and error all match the golden record."""
    replayed = record_scenario(name)
    expected = GOLDEN[name]
    assert replayed["trace"] == expected["trace"]
    assert replayed["now"] == expected["now"]
    assert replayed["outcome"] == expected["outcome"]
    assert replayed["error"] == expected["error"]


def test_deadlock_message_content():
    """The recorded deadlock lists waiters in (blocked cycle, pid) order."""
    message = GOLDEN["deadlock_report_order"]["error"]
    assert message is not None
    positions = [message.index(name) for name in ("w2", "w8", "w8b")]
    assert positions == sorted(positions)


def test_run_until_pauses_and_resumes_like_run():
    engine = Engine()

    def proc():
        yield Delay(50)
        return "late"

    process = engine.spawn(proc())
    assert engine.run_until(10) == 10
    assert not process.finished
    assert engine.now == 10
    engine.run()
    assert process.finished
    assert process.result == "late"


def test_run_until_rejects_negative_cycle():
    with pytest.raises(SimulationError):
        Engine().run_until(-1)


def test_delay_interning_and_value_semantics():
    assert Delay(1) is Delay(1)
    assert Delay(0) is Delay(0)
    # Large delays fall outside the cache but still behave identically.
    big = Delay(10_000_000)
    assert big is not Delay(10_000_000)
    assert Delay(5000).cycles == 5000
    # __new__ is the only constructor, so an interned instance is never
    # re-initialised by a second call.
    assert "__init__" not in vars(Delay)
    assert big == Delay(10_000_000)
    assert Delay(5) == Delay(5)
    assert Delay(5) != Delay(6)
    assert hash(Delay(7)) == hash(Delay(7))
    assert repr(Delay(3)) == "Delay(cycles=3)"
    with pytest.raises(SimulationError):
        Delay(-2)


def test_deadlock_report_lists_waiters_in_cycle_pid_order():
    """The deadlock message orders waiters by (blocked cycle, pid)."""
    from repro.common.errors import DeadlockError
    from repro.sim.engine import Wait

    engine = Engine()

    def stuck_after(cycles):
        yield Delay(cycles)
        yield Wait(engine.event())

    # Spawn order (pid order) deliberately differs from blocking order:
    # "late" (pid 0) blocks at cycle 10, the others at cycle 5.
    engine.spawn(stuck_after(10), name="late")
    engine.spawn(stuck_after(5), name="early_a")
    engine.spawn(stuck_after(5), name="early_b")
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    message = str(excinfo.value)
    positions = [message.index(name) for name in
                 ("early_a", "early_b", "late")]
    assert positions == sorted(positions)
    assert "3 process(es) blocked" in message


def test_schedule_callback_zero_delay_runs_this_cycle():
    engine = Engine()
    fired = []

    def proc():
        engine.schedule_callback(0, lambda: fired.append(engine.now))
        yield Delay(1)

    engine.spawn(proc())
    engine.run()
    assert fired == [0]


def test_lazy_completion_event_on_finished_process():
    engine = Engine()

    def proc():
        yield Delay(2)
        return "value"

    process = engine.spawn(proc())
    engine.run()
    # The completion event is created on first access, already triggered.
    assert process.completion.triggered
    assert process.completion.value == "value"


def test_waiting_on_renders_lazily():
    engine = Engine()
    queue = DecoupledQueue(engine, 1, name="q")

    def getter():
        yield Get(queue)

    process = engine.spawn(getter(), name="g")
    assert process.waiting_on == "start"
    engine.run_until(0)
    assert process.waiting_on.startswith("get(")
    assert "q" in process.waiting_on
