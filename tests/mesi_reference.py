"""Reference MESI directory: the original dict-of-dicts model, kept for tests.

This is the per-line ``{core: LineState}`` directory that the flat
one-int-per-line :class:`repro.memory.mesi.CoherenceDirectory` replaced,
copied unchanged apart from this docstring, its imports and its class name.
It is slow and obvious, which is what makes it a good oracle:
``tests/test_mesi_differential.py`` drives both models with the same random
access sequences and requires identical cycles, states and counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.common.config import MemoryCosts
from repro.common.errors import MemoryModelError
from repro.common.stats import Stats
from repro.memory.mesi import AccessType, LineState

__all__ = ["AccessResult", "ReferenceDirectory"]


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one line access: its latency and coherence side effects."""

    cycles: int
    hit: bool
    new_state: LineState
    invalidated: Tuple[int, ...] = ()
    writeback_through_memory: bool = False


class ReferenceDirectory:
    """Directory-style bookkeeping of every L1 line state in the system.

    The directory is deliberately *behavioural*: it does not store data, only
    states, and it resolves each access instantaneously while charging the
    appropriate latency.  Concurrency effects (two cores writing the same
    line in the same cycle) are serialised by the event engine because each
    access is performed inside a core's process.
    """

    def __init__(self, num_cores: int, costs: MemoryCosts,
                 stats: Optional[Stats] = None) -> None:
        if num_cores <= 0:
            raise MemoryModelError("num_cores must be positive")
        self.num_cores = num_cores
        self.costs = costs
        self.stats = stats if stats is not None else Stats("coherence")
        # line -> {core: state}; absent cores are Invalid.
        self._lines: Dict[int, Dict[int, LineState]] = {}

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def state_of(self, core: int, line: int) -> LineState:
        """MESI state of ``line`` in ``core``'s L1."""
        self._check_core(core)
        return self._lines.get(line, {}).get(core, LineState.INVALID)

    def sharers(self, line: int) -> Set[int]:
        """Cores holding ``line`` in any valid state."""
        return {
            core
            for core, state in self._lines.get(line, {}).items()
            if state is not LineState.INVALID
        }

    def owner(self, line: int) -> Optional[int]:
        """The core holding ``line`` in Modified state, if any."""
        for core, state in self._lines.get(line, {}).items():
            if state is LineState.MODIFIED:
                return core
        return None

    def lines_tracked(self) -> int:
        """Number of lines with at least one valid copy (for tests)."""
        return sum(1 for line in self._lines.values()
                   if any(s is not LineState.INVALID for s in line.values()))

    # ------------------------------------------------------------------ #
    # The access model
    # ------------------------------------------------------------------ #
    def access(self, core: int, line: int, kind: AccessType) -> AccessResult:
        """Perform one access and return its latency and side effects."""
        self._check_core(core)
        if kind is AccessType.READ:
            result = self._read(core, line)
        elif kind is AccessType.WRITE:
            result = self._write(core, line, atomic=False)
        elif kind is AccessType.RMW:
            result = self._write(core, line, atomic=True)
        else:  # pragma: no cover - enum is exhaustive
            raise MemoryModelError(f"unknown access type {kind!r}")
        self._record(result, kind)
        return result

    def evict(self, core: int, line: int) -> int:
        """Evict ``line`` from ``core``'s L1, returning the cycle cost."""
        state = self.state_of(core, line)
        self._set(core, line, LineState.INVALID)
        if state is LineState.MODIFIED:
            self.stats.incr("writebacks")
            return self.costs.store_buffer_drain + self.costs.l1_miss_to_memory
        return 0

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _read(self, core: int, line: int) -> AccessResult:
        state = self.state_of(core, line)
        if state is not LineState.INVALID:
            return AccessResult(self.costs.l1_hit, True, state)
        owner = self.owner(line)
        sharers = self.sharers(line)
        if owner is not None:
            # Dirty in a remote L1: with no shared L2 the line is written
            # back to main memory and then refilled here — the expensive
            # path the paper blames for cache-line bouncing.
            self._set(owner, line, LineState.SHARED)
            self._set(core, line, LineState.SHARED)
            return AccessResult(
                self.costs.dirty_remote_transfer, False, LineState.SHARED,
                writeback_through_memory=True,
            )
        if sharers:
            # Clean copy exists elsewhere; any Exclusive holder downgrades to
            # Shared.  The refill still comes from memory (no L2, no
            # cache-to-cache transfer of clean lines either).
            for sharer in sharers:
                if self.state_of(sharer, line) is LineState.EXCLUSIVE:
                    self._set(sharer, line, LineState.SHARED)
            self._set(core, line, LineState.SHARED)
            return AccessResult(self.costs.l1_miss_to_memory, False, LineState.SHARED)
        self._set(core, line, LineState.EXCLUSIVE)
        return AccessResult(self.costs.l1_miss_to_memory, False, LineState.EXCLUSIVE)

    def _write(self, core: int, line: int, atomic: bool) -> AccessResult:
        extra = self.costs.atomic_rmw_extra if atomic else 0
        state = self.state_of(core, line)
        others = self.sharers(line) - {core}
        if state in (LineState.MODIFIED, LineState.EXCLUSIVE):
            self._set(core, line, LineState.MODIFIED)
            return AccessResult(self.costs.l1_hit + extra, True, LineState.MODIFIED)
        if state is LineState.SHARED:
            # Upgrade: invalidate the other sharers.
            for other in others:
                self._set(other, line, LineState.INVALID)
            self._set(core, line, LineState.MODIFIED)
            cost = self.costs.l1_hit + extra
            if others:
                cost += self.costs.invalidate_remote
            return AccessResult(cost, True, LineState.MODIFIED,
                                invalidated=tuple(sorted(others)))
        # Invalid here: fetch with intent to modify.
        owner = self.owner(line)
        cost = extra
        writeback = False
        if owner is not None:
            cost += self.costs.dirty_remote_transfer
            writeback = True
        elif others:
            cost += self.costs.l1_miss_to_memory + self.costs.invalidate_remote
        else:
            cost += self.costs.l1_miss_to_memory
        for other in others:
            self._set(other, line, LineState.INVALID)
        self._set(core, line, LineState.MODIFIED)
        return AccessResult(cost, False, LineState.MODIFIED,
                            invalidated=tuple(sorted(others)),
                            writeback_through_memory=writeback)

    def _set(self, core: int, line: int, state: LineState) -> None:
        per_line = self._lines.setdefault(line, {})
        if state is LineState.INVALID:
            per_line.pop(core, None)
            if not per_line:
                self._lines.pop(line, None)
        else:
            per_line[core] = state

    def _record(self, result: AccessResult, kind: AccessType) -> None:
        self.stats.incr("accesses")
        self.stats.incr(f"accesses_{kind.value}")
        self.stats.add("access_cycles", result.cycles)
        if result.hit:
            self.stats.incr("hits")
        else:
            self.stats.incr("misses")
        if result.invalidated:
            self.stats.add("invalidations", len(result.invalidated))
        if result.writeback_through_memory:
            self.stats.incr("dirty_transfers_through_memory")

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise MemoryModelError(
                f"core {core} out of range 0..{self.num_cores - 1}"
            )
