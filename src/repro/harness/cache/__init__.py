"""Content-addressed result cache.

One interface, one disk backend, one composition point:

* :class:`~repro.harness.cache.store.CacheStore` — the abstract contract
  (``get``/``put``/``contains``/``delete``/``entries``/``stats``) the
  engine, sweep runner, memoisation and CLI consume exclusively.
* :class:`~repro.harness.cache.sharded.ShardedDiskStore` — the on-disk
  backend: two-level shard fan-out, lock-free atomic writes, and LRU
  eviction (by entry mtime) under an optional byte budget.
* :class:`~repro.harness.cache.memory.MemoryStore` — the in-process
  store tests use as a fake.
* :func:`~repro.harness.cache.spec.open_store` — spec string → store
  (``mem:`` or a directory path), with ``--cache-budget`` /
  ``$REPRO_CACHE_BUDGET`` resolution.

Cache *keys* are :func:`repro.harness.hashing.stable_hash` digests;
``figure9_fingerprints.json`` pins their byte-identity in CI.  See
``docs/caching.md``.
"""

from repro.harness.cache.locks import FileLock
from repro.harness.cache.memory import MemoryStore
from repro.harness.cache.sharded import ShardedDiskStore
from repro.harness.cache.spec import (
    CACHE_BUDGET_ENV,
    open_store,
    parse_budget,
    resolve_budget,
)
from repro.harness.cache.stats import CacheStats
from repro.harness.cache.store import CacheStore

__all__ = [
    "CACHE_BUDGET_ENV",
    "CacheStats",
    "CacheStore",
    "FileLock",
    "MemoryStore",
    "ShardedDiskStore",
    "open_store",
    "parse_budget",
    "resolve_budget",
]
