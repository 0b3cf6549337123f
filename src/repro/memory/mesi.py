"""MESI coherence protocol model for the per-core L1 caches.

The paper's prototype keeps the eight 32 KB L1 data caches coherent with
MESI and has **no shared L2**, so a dirty line owned by one core must be
written back to main memory before another core can read it (Section V-B).
That property is what makes cache-line bouncing so expensive on the
prototype and is the primary reason spin-waiting on shared counters hurts.

The model tracks, per cache line, which cores hold it and in which state
(Modified / Exclusive / Shared / Invalid) and answers the question every
simulated memory access asks: *how many core cycles does this access cost
and which remote copies does it invalidate?*

Line encoding
-------------

Every simulated runtime load, store and atomic lands here, so the directory
keeps one plain ``int`` per line instead of a per-line mapping::

    entry = holders << 2 | tag

``holders`` is a bitmask with bit ``c`` set when core ``c`` holds a valid
copy; ``tag`` is the 2-bit state those copies share (``_S``, ``_E`` or
``_M``).  One tag per line is enough because MESI keeps a single-holder
invariant: a line in Modified or Exclusive state has exactly one holder,
and whenever a second core obtains a copy every copy becomes Shared.  A
line nobody holds has no entry at all, so Invalid is "bit clear".
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set

from repro.common.config import MemoryCosts
from repro.common.errors import MemoryModelError
from repro.common.stats import Stats

__all__ = ["LineState", "AccessType", "CoherenceDirectory"]


class LineState(enum.Enum):
    """MESI state of one cache line in one core's L1."""

    __slots__ = ()

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


class AccessType(enum.Enum):
    """Kind of memory access a core performs against a line."""

    __slots__ = ()

    READ = "read"
    WRITE = "write"
    RMW = "rmw"  # atomic read-modify-write (amoadd/lr-sc)


# Members resolved once, so the per-access path reads no enum attribute.
_READ = AccessType.READ
_WRITE = AccessType.WRITE
_RMW = AccessType.RMW

# Line tags (the low two bits of an entry).  Shared is 0, so the absent
# entry ``0`` reads as "no holder" without a Modified or Exclusive tag.
_S = 0
_E = 1
_M = 2
_TAG_STATES = (LineState.SHARED, LineState.EXCLUSIVE, LineState.MODIFIED)


class CoherenceDirectory:
    """Directory-style bookkeeping of every L1 line state in the system.

    The directory is deliberately *behavioural*: it does not store data, only
    states, and it resolves each access instantaneously while charging the
    appropriate latency.  Concurrency effects (two cores writing the same
    line in the same cycle) are serialised by the event engine because each
    access is performed inside a core's process.
    """

    __slots__ = ("num_cores", "costs", "stats", "_lines", "_counters",
                 "_l1_hit", "_miss", "_dirty_transfer", "_invalidate",
                 "_atomic_extra")

    def __init__(self, num_cores: int, costs: MemoryCosts,
                 stats: Optional[Stats] = None) -> None:
        if num_cores <= 0:
            raise MemoryModelError("num_cores must be positive")
        self.num_cores = num_cores
        self.costs = costs
        self.stats = stats if stats is not None else Stats("coherence")
        # line -> holders << 2 | tag; lines nobody holds have no entry.
        self._lines: Dict[int, int] = {}
        # The live counter dict of ``stats``: each access bumps it directly.
        self._counters = self.stats._counters
        self._l1_hit = costs.l1_hit
        self._miss = costs.l1_miss_to_memory
        self._dirty_transfer = costs.dirty_remote_transfer
        self._invalidate = costs.invalidate_remote
        self._atomic_extra = costs.atomic_rmw_extra

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def state_of(self, core: int, line: int) -> LineState:
        """MESI state of ``line`` in ``core``'s L1."""
        self._check_core(core)
        entry = self._lines.get(line, 0)
        if not entry >> 2 >> core & 1:
            return LineState.INVALID
        return _TAG_STATES[entry & 3]

    def sharers(self, line: int) -> Set[int]:
        """Cores holding ``line`` in any valid state."""
        holders = self._lines.get(line, 0) >> 2
        return {core for core in range(holders.bit_length())
                if holders >> core & 1}

    def owner(self, line: int) -> Optional[int]:
        """The core holding ``line`` in Modified state, if any."""
        entry = self._lines.get(line, 0)
        if entry & 3 != _M:
            return None
        return (entry >> 2).bit_length() - 1

    # ------------------------------------------------------------------ #
    # The access model
    # ------------------------------------------------------------------ #
    def access(self, core: int, line: int, kind: AccessType) -> int:
        """Perform one access and return its latency in core cycles."""
        if not 0 <= core < self.num_cores:
            raise MemoryModelError(
                f"core {core} out of range 0..{self.num_cores - 1}"
            )
        lines = self._lines
        counters = self._counters
        entry = lines.get(line, 0)
        holders = entry >> 2
        bit = 1 << core
        if kind is _READ:
            counters["accesses"] += 1
            counters["accesses_read"] += 1
            if holders & bit:
                cycles = self._l1_hit
                counters["access_cycles"] += cycles
                counters["hits"] += 1
                return cycles
            if entry & 3 == _M:
                # Dirty in a remote L1: with no shared L2 the line is written
                # back to main memory and then refilled here — the expensive
                # path the paper blames for cache-line bouncing.  Both copies
                # end Shared.
                lines[line] = (holders | bit) << 2 | _S
                cycles = self._dirty_transfer
                counters["access_cycles"] += cycles
                counters["misses"] += 1
                counters["dirty_transfers_through_memory"] += 1
                return cycles
            # A clean copy elsewhere (any Exclusive holder downgrades to
            # Shared) or none at all.  Either way the refill comes from
            # memory: no L2, no cache-to-cache transfer of clean lines.
            lines[line] = ((holders | bit) << 2 | _S if holders
                           else bit << 2 | _E)
            cycles = self._miss
            counters["access_cycles"] += cycles
            counters["misses"] += 1
            return cycles
        if kind is _WRITE:
            extra, kind_key = 0, "accesses_write"
        elif kind is _RMW:
            extra, kind_key = self._atomic_extra, "accesses_rmw"
        else:
            raise MemoryModelError(f"unknown access type {kind!r}")
        counters["accesses"] += 1
        counters[kind_key] += 1
        # Every write leaves the writer as the single Modified holder.
        lines[line] = bit << 2 | _M
        others = holders & ~bit
        if holders & bit:
            # Hit: silent upgrade from Modified/Exclusive, or an upgrade
            # from Shared that invalidates the other sharers.
            cycles = self._l1_hit + extra
            if others:
                cycles += self._invalidate
            counters["access_cycles"] += cycles
            counters["hits"] += 1
            if others:
                counters["invalidations"] += bin(others).count("1")
            return cycles
        # Invalid here: fetch with intent to modify.
        if entry & 3 == _M:
            cycles = extra + self._dirty_transfer
            counters["access_cycles"] += cycles
            counters["misses"] += 1
            counters["invalidations"] += 1
            counters["dirty_transfers_through_memory"] += 1
            return cycles
        if others:
            cycles = extra + self._miss + self._invalidate
            counters["access_cycles"] += cycles
            counters["misses"] += 1
            counters["invalidations"] += bin(others).count("1")
            return cycles
        cycles = extra + self._miss
        counters["access_cycles"] += cycles
        counters["misses"] += 1
        return cycles

    def evict(self, core: int, line: int) -> int:
        """Evict ``line`` from ``core``'s L1, returning the cycle cost."""
        self._check_core(core)
        entry = self._lines.get(line, 0)
        bit = 1 << core
        if not entry >> 2 & bit:
            return 0
        holders = entry >> 2 & ~bit
        if holders:
            # Only a Shared line has other holders; they stay Shared.
            self._lines[line] = holders << 2 | _S
        else:
            del self._lines[line]
        if entry & 3 == _M:
            self._counters["writebacks"] += 1
            return self.costs.store_buffer_drain + self.costs.l1_miss_to_memory
        return 0

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise MemoryModelError(
                f"core {core} out of range 0..{self.num_cores - 1}"
            )
