"""Tests for the Picos device model (queues, pipelines, back-pressure)."""

from __future__ import annotations

import pytest

from repro.common.config import PicosCosts
from repro.common.errors import DeadlockError, PicosError
from repro.picos.device import PicosDevice, ReadyTask
from repro.picos.packets import Direction, TaskDependence, TaskDescriptor, \
    encode_descriptor
from repro.sim.engine import Delay, Engine, Get, Put


def make_device(engine, **overrides):
    costs = PicosCosts(**overrides) if overrides else PicosCosts()
    return PicosDevice(engine, costs)


def submit(engine, device, *descriptors):
    """Feed full 48-packet descriptors through the submission queue.

    Descriptors are streamed back to back by a single process because the
    raw Picos interface requires submissions not to interleave — in the full
    system that atomicity is enforced by the Submission Handler.
    """

    def feeder():
        for descriptor in descriptors:
            for packet in encode_descriptor(descriptor):
                yield Put(device.submission_queue, packet)

    return engine.spawn(feeder(), name="feeder")


def drain_ready(device):
    """Pop every complete ready-task triple currently in the ready queue."""
    triples = []
    while len(device.ready_queue) >= 3:
        packets = [device.ready_queue.try_get() for _ in range(3)]
        assert [p.index for p in packets] == [0, 1, 2]
        triples.append(ReadyTask(packets[0].picos_id, packets[0].sw_id))
    return triples


def descriptor_with(sw_id, *deps):
    return TaskDescriptor(sw_id=sw_id, dependences=tuple(deps))


IN = Direction.IN
OUT = Direction.OUT


class TestSubmissionPipeline:
    def test_independent_task_becomes_ready(self):
        engine = Engine()
        device = make_device(engine)
        submit(engine, device, descriptor_with(42, TaskDependence(0x100, OUT)))
        engine.run(until=2_000)
        ready = drain_ready(device)
        assert len(ready) == 1
        assert ready[0].sw_id == 42
        assert device.graph.total_submitted == 1
        assert device.stats.counter("ready_tasks_emitted") == 1

    def test_submission_takes_at_least_48_packet_cycles(self):
        engine = Engine()
        device = make_device(engine)
        submit(engine, device, descriptor_with(1))
        engine.run(until=5_000)
        # 48 packets at one per cycle plus insertion latency.
        assert device.stats.counter("submission_packets") == 48
        assert device.stats.counter("tasks_accepted") == 1

    def test_dependent_task_not_ready_until_retirement(self):
        engine = Engine()
        device = make_device(engine)
        submit(engine, device,
               descriptor_with(0, TaskDependence(0x200, OUT)),
               descriptor_with(1, TaskDependence(0x200, IN)))
        engine.run(until=5_000)
        ready = drain_ready(device)
        assert [r.sw_id for r in ready] == [0]
        picos_id = ready[0].picos_id
        device.graph.mark_running(picos_id)

        def retire():
            yield Put(device.retirement_queue, picos_id)

        engine.spawn(retire())
        engine.run(until=10_000)
        woken = drain_ready(device)
        assert [r.sw_id for r in woken] == [1]
        assert device.graph.total_retired == 1

    def test_sw_id_lookup(self):
        engine = Engine()
        device = make_device(engine)
        submit(engine, device, descriptor_with(99))
        engine.run(until=2_000)
        ready = drain_ready(device)[0]
        assert device.sw_id_of(ready.picos_id) == 99
        with pytest.raises(PicosError):
            device.sw_id_of(12345)

    def test_many_tasks_flow_through(self):
        engine = Engine()
        device = make_device(engine)
        submit(engine, device,
               *(descriptor_with(index, TaskDependence(0x1000 + 64 * index, OUT))
                 for index in range(10)))

        consumed = []

        def consumer():
            while len(consumed) < 10:
                if len(device.ready_queue) >= 3:
                    packets = [device.ready_queue.try_get() for _ in range(3)]
                    consumed.append(packets[0].sw_id)
                yield Delay(5)

        process = engine.spawn(consumer())
        engine.run_until_complete([process])
        assert sorted(consumed) == list(range(10))


class TestCapacityBackpressure:
    def test_reservation_station_limits_in_flight_tasks(self):
        engine = Engine()
        device = make_device(engine, max_in_flight_tasks=4,
                             submission_queue_depth=8)
        submit(engine, device, *(descriptor_with(index) for index in range(6)))
        engine.run(until=20_000)
        assert device.in_flight_tasks == 4
        # Retiring one frees a slot for the next buffered descriptor.
        ready = drain_ready(device)
        first = ready[0]
        device.graph.mark_running(first.picos_id)

        def retire():
            yield Put(device.retirement_queue, first.picos_id)

        engine.spawn(retire())
        engine.run(until=40_000)
        assert device.graph.total_submitted >= 5

    def test_ready_queue_backpressure_defers_emission(self):
        engine = Engine()
        # Tiny ready queue: only one task's packets fit at a time.
        device = make_device(engine, ready_queue_depth=1)
        submit(engine, device, *(descriptor_with(index) for index in range(4)))
        engine.run(until=20_000)
        assert len(device.ready_queue) == 3
        assert len(device._ready_backlog) >= 1
        drained = drain_ready(device)
        engine.run(until=40_000)
        drained += drain_ready(device)
        engine.run(until=60_000)
        drained += drain_ready(device)
        assert len(drained) >= 3


class TestCapacityWake:
    """A full station wakes the insert pipeline on the next retire.

    With one slot, the second descriptor starts waiting at cycle 108 and
    the retirement pipeline retires 8 cycles after the packet arrives.
    The expected cycles were measured on the capacity-polling device,
    which checked capacity every 8 cycles from 108.
    """

    def ready_cycles(self, retire_packet_cycle):
        """Cycles at which the two ready triples appear."""
        engine = Engine()
        device = make_device(engine, max_in_flight_tasks=1)
        submit(engine, device, descriptor_with(1), descriptor_with(2))
        cycles = []

        def host():
            for _ in range(3):
                first = yield Get(device.ready_queue)
            cycles.append(engine.now)
            device.graph.mark_running(first.picos_id)
            yield Delay(retire_packet_cycle - engine.now)
            yield Put(device.retirement_queue, first.picos_id)
            for _ in range(3):
                second = yield Get(device.ready_queue)
            cycles.append(engine.now)
            assert second.sw_id == 2

        engine.run_until_complete([engine.spawn(host(), name="host")])
        return cycles

    def test_retire_off_the_grid_is_seen_at_the_next_grid_cycle(self):
        # Retire at 211; accepted at 212; ready 30 cycles later.
        assert self.ready_cycles(203) == [84, 242]

    def test_retire_on_the_grid_is_seen_one_period_later(self):
        # Retire at 212, after that cycle's check; accepted at 220.
        assert self.ready_cycles(204) == [84, 250]

    def test_wedged_station_reports_deadlock(self):
        engine = Engine()
        device = make_device(engine, max_in_flight_tasks=1,
                             submission_queue_depth=8)
        feeder = submit(engine, device,
                        *(descriptor_with(index) for index in range(3)))
        with pytest.raises(DeadlockError,
                           match=r"feeder\[put\(DecoupledQueue\('picos\.submission'"):
            engine.run_until_complete([feeder])
        assert engine.now == 108

    def test_second_capacity_waiter_is_rejected(self):
        engine = Engine()
        device = make_device(engine, max_in_flight_tasks=1)
        submit(engine, device, descriptor_with(1), descriptor_with(2))
        engine.run(until=200)
        engine.spawn(device._insert_task(descriptor_with(3)), name="second")
        with pytest.raises(PicosError, match="second insert"):
            engine.run(until=300)


class TestRetirementPipeline:
    def test_retirement_of_chain_wakes_one_at_a_time(self):
        engine = Engine()
        device = make_device(engine)
        submit(engine, device,
               *(descriptor_with(index, TaskDependence(0x500, Direction.INOUT))
                 for index in range(3)))
        engine.run(until=10_000)
        order = []
        for _ in range(3):
            ready = drain_ready(device)
            assert len(ready) == 1
            order.append(ready[0].sw_id)
            device.graph.mark_running(ready[0].picos_id)

            def retire(picos_id=ready[0].picos_id):
                yield Put(device.retirement_queue, picos_id)

            engine.spawn(retire())
            engine.run(until=engine.now + 10_000)
        assert order == [0, 1, 2]
        assert device.graph.in_flight == 0
