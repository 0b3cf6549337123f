"""Differential test: the flat MESI directory against the reference model.

Both directories see the same seeded random sequence of accesses and
evictions over a handful of lines shared by eight cores, so upgrades,
invalidations and dirty transfers happen constantly.  After every step the
cycle cost, every (core, line) state, the sharer sets, the owners and the
counters must agree.  Counters are compared in insertion order, which pins
the key set *and* when each key first appears (``Stats.items`` iterates in
that order).
"""

from __future__ import annotations

import random

import pytest

from repro.common.config import MemoryCosts
from repro.common.errors import MemoryModelError
from repro.common.stats import Stats
from repro.memory.address import span_lines
from repro.memory.hierarchy import MemorySystem
from repro.memory.mesi import AccessType, CoherenceDirectory
from tests.mesi_reference import ReferenceDirectory

NUM_CORES = 8
LINES = (0, 1, 2, 3, 1000)
STEPS = 1500
SEEDS = (0, 1, 2, 3, 4)
KINDS = (AccessType.READ, AccessType.WRITE, AccessType.RMW)

#: Default costs, and pairwise-distinct ones so that charging the wrong
#: cost on some path cannot cancel out.
COSTS = {
    "default": MemoryCosts(),
    "distinct": MemoryCosts(l1_hit=3, l1_miss_to_memory=29,
                            dirty_remote_transfer=53, invalidate_remote=11,
                            atomic_rmw_extra=7, store_buffer_drain=5),
}


def _pair(costs: MemoryCosts):
    return (CoherenceDirectory(NUM_CORES, costs, Stats("memory")),
            ReferenceDirectory(NUM_CORES, costs, Stats("memory")))


def _assert_same_state(flat: CoherenceDirectory,
                       reference: ReferenceDirectory, step: int) -> None:
    for line in LINES:
        for core in range(NUM_CORES):
            assert flat.state_of(core, line) is \
                reference.state_of(core, line), (step, core, line)
        assert flat.sharers(line) == reference.sharers(line), (step, line)
        assert flat.owner(line) == reference.owner(line), (step, line)
    assert list(flat.stats.items()) == list(reference.stats.items()), step


@pytest.mark.parametrize("costs_name", sorted(COSTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_random_sequences_match_reference(seed, costs_name):
    flat, reference = _pair(COSTS[costs_name])
    rng = random.Random(seed)
    for step in range(STEPS):
        core = rng.randrange(NUM_CORES)
        line = rng.choice(LINES)
        if rng.random() < 0.1:
            assert flat.evict(core, line) == reference.evict(core, line), step
        else:
            kind = rng.choice(KINDS)
            cycles = flat.access(core, line, kind)
            assert type(cycles) is int
            assert cycles == reference.access(core, line, kind).cycles, step
        _assert_same_state(flat, reference, step)
    # The sequence really exercised every counter the model can create.
    assert set(flat.stats.counters()) == {
        "accesses", "accesses_read", "accesses_write", "accesses_rmw",
        "access_cycles", "hits", "misses", "invalidations",
        "dirty_transfers_through_memory", "writebacks",
    }


def test_counter_keys_appear_only_when_the_reference_creates_them():
    flat, reference = _pair(MemoryCosts())
    for directory in (flat, reference):
        directory.access(0, 5, AccessType.READ)
        directory.access(0, 5, AccessType.WRITE)  # silent E -> M upgrade
    assert list(flat.stats.items()) == list(reference.stats.items())
    assert "invalidations" not in flat.stats.counters()
    assert "dirty_transfers_through_memory" not in flat.stats.counters()
    assert "writebacks" not in flat.stats.counters()


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_memory_system_spans_match_reference(seed):
    """Multi-line and single-line spans cost the sum of their line accesses."""
    costs = MemoryCosts()
    memory = MemorySystem(NUM_CORES, costs)
    reference = ReferenceDirectory(NUM_CORES, costs, Stats("memory"))
    operations = {AccessType.READ: memory.load,
                  AccessType.WRITE: memory.store,
                  AccessType.RMW: memory.atomic_rmw}
    rng = random.Random(seed)
    for step in range(500):
        core = rng.randrange(NUM_CORES)
        address = rng.randrange(4 * memory.line_bytes)
        size = rng.choice((1, 8, 64, 100, 200))
        kind = rng.choice(KINDS)
        expected = sum(reference.access(core, line, kind).cycles
                       for line in span_lines(address, size))
        assert operations[kind](core, address, size) == expected, step
    assert list(memory.stats.items()) == list(reference.stats.items())


def test_errors_match_reference():
    flat, reference = _pair(MemoryCosts())
    for directory in (flat, reference):
        with pytest.raises(MemoryModelError, match="out of range"):
            directory.access(NUM_CORES, 0, AccessType.READ)
        with pytest.raises(MemoryModelError, match="out of range"):
            directory.access(-1, 0, AccessType.WRITE)
        with pytest.raises(MemoryModelError, match="out of range"):
            directory.state_of(NUM_CORES, 0)
        with pytest.raises(MemoryModelError, match="out of range"):
            directory.evict(NUM_CORES, 0)
    memory = MemorySystem(NUM_CORES, MemoryCosts())
    with pytest.raises(MemoryModelError, match="size must be positive"):
        memory.load(0, 0, size=0)
    with pytest.raises(MemoryModelError, match="size must be positive"):
        memory.store(0, -64, size=-1)
    with pytest.raises(MemoryModelError, match="negative address"):
        memory.atomic_rmw(0, -8)
    assert not memory.stats.counters()
