"""The on-disk store: one JSON document per entry, sharded two levels.

Entries are content-addressed into a two-level fan-out:
``<cache_dir>/<key[:2]>/<key[2:]>.json`` — the first two hex digits name
the shard directory, the remaining sixty-two the file.  Entry files are
the only state: an entry's size is its file size and its last access is
its mtime (writes set it, hits ``utime`` it), which is all LRU eviction
needs.

Concurrency model (the crash-safety story):

* ``put``/``get`` never lock.  Writes are atomic same-shard tmp+rename;
  readers observe either the old complete document or the new one, never
  a torn read, for any number of concurrent processes.  An unreadable or
  corrupt entry is a miss.
* Only :meth:`evict` takes a lock (``.evict.lock``), so two processes
  cannot double-delete each other's survivors mid-measure.  Put-time
  enforcement acquires it non-blocking — a put never stalls behind
  another process's maintenance cycle.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Iterator, Optional

from repro.harness.cache.locks import FileLock
from repro.harness.cache.store import MISS, CacheStore, stats_file_of

__all__ = ["ShardedDiskStore", "STALE_TMP_SECONDS"]

#: Name of the eviction lock file in the cache root.
EVICT_LOCK = ".evict.lock"

#: Age (seconds) past which a ``*.tmp`` sibling counts as a stale dropping
#: of a killed writer rather than a concurrent in-flight write.  Real
#: writes live for milliseconds; an hour is conservatively beyond any of
#: them.
STALE_TMP_SECONDS = 3600.0


def read_document(path: Path) -> object:
    """The payload of the entry document at ``path``, or :data:`MISS`.

    Any unreadable, unparsable or schema-less document is a miss — the
    cache never fails a run over a corrupt entry.
    """
    try:
        with path.open("r", encoding="utf-8") as handle:
            document = json.load(handle)
        return document["payload"]
    except (OSError, ValueError, KeyError, TypeError):
        return MISS


def write_document(path: Path, document: dict, tmp_prefix: str) -> Path:
    """Atomically persist ``document`` at ``path`` via tmp+rename.

    The temporary lives in the *same directory* as the target so the
    :func:`os.replace` is a same-filesystem rename — atomic even with
    concurrent writers racing on the same key (last writer wins a
    complete document; readers never observe a torn one).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent,
        prefix=tmp_prefix, suffix=".tmp", delete=False,
    )
    try:
        with handle:
            json.dump(document, handle)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return path


def sweep_stale_tmp(root: Path) -> None:
    """Remove hour-old ``*.tmp`` droppings of killed writers under ``root``.

    Only temporaries older than :data:`STALE_TMP_SECONDS` are swept, so a
    *concurrent* writer's in-flight temporary is never pulled out from
    under its ``os.replace``.
    """
    if not root.is_dir():
        return
    cutoff = time.time() - STALE_TMP_SECONDS
    for stale in list(root.glob("*/*.tmp")):
        try:
            if stale.stat().st_mtime < cutoff:
                stale.unlink()
        except OSError:
            pass


class ShardedDiskStore(CacheStore):
    """Content-addressed JSON result cache with two-level shard fan-out.

    With a ``budget`` (bytes), every put that takes the store over it
    triggers a non-blocking LRU :meth:`evict`; the default is unbounded.
    """

    def __init__(self, cache_dir: os.PathLike, tracer=None,
                 budget: Optional[int] = None) -> None:
        super().__init__(tracer=tracer)
        self.root = Path(cache_dir)
        self.budget = budget
        # Running size guess so put-time enforcement skips the full scan
        # while the store is clearly under budget; None until first
        # needed, exact numbers re-measured inside evict().
        self._size_estimate: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        """Location of the entry addressed by ``key``."""
        return self.root / key[:2] / f"{key[2:]}.json"

    # ------------------------------------------------------------------ #
    # CacheStore backend hooks
    # ------------------------------------------------------------------ #
    def _read(self, key: str) -> object:
        path = self.path_for(key)
        payload = read_document(path)
        if payload is not MISS:
            self._touch(path)
        return payload

    def _write(self, key: str, document: dict) -> Path:
        path = write_document(self.path_for(key), document,
                              tmp_prefix=f".{key[:8]}-")
        if self._size_estimate is not None:
            try:
                self._size_estimate += path.stat().st_size
            except OSError:
                pass
        # The estimate keeps the common case (under budget) at zero extra
        # IO; evict() re-measures exactly under its lock.
        if self.budget is not None and self._estimated_size() > self.budget:
            self.evict(self.budget, block=False)
        return path

    def contains(self, key: str) -> bool:
        """Whether an entry exists for ``key`` (does not touch the stats)."""
        return self.path_for(key).is_file()

    def delete(self, key: str) -> bool:
        """Drop the entry addressed by ``key``; True if one was removed."""
        self._size_estimate = None
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    @staticmethod
    def _touch(path: Path) -> None:
        """Record a hit as the entry file's new mtime (its LRU priority)."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    def _estimated_size(self) -> int:
        """Cheap running size guess used by put-time budget checks."""
        if self._size_estimate is None:
            self._size_estimate = self.size_bytes()
        return self._size_estimate

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def entries(self) -> Iterator[Path]:
        """Every entry file currently in the cache.

        The listing is a snapshot of a directory other processes may be
        mutating; consumers tolerate entries that vanish between listing
        and use.  Dotfiles are never entries.
        """
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            if not path.name.startswith("."):
                yield path

    def size_bytes(self) -> int:
        """Total on-disk size of all entries (concurrent deletions skipped)."""
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def clear(self) -> int:
        """Delete every entry (and stale temporaries); returns the number
        of entries removed."""
        removed = 0
        for path in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        sweep_stale_tmp(self.root)
        self._size_estimate = 0
        return removed

    def evict(self, budget: int, block: bool = True):
        """Shrink the store to at most ``budget`` bytes, LRU-first.

        Runs under the eviction lock so two processes cannot double-run a
        maintenance cycle; with ``block=False`` (the put-time path) a held
        lock means another process is already evicting, and skipping is
        correct.  Returns a report dict (``removed`` / ``freed_bytes`` /
        ``size_bytes`` / ``skipped``).
        """
        lock = FileLock(self.root / EVICT_LOCK,
                        timeout=10.0 if block else 0.0)
        if not lock.acquire():
            return {"removed": 0, "freed_bytes": 0,
                    "size_bytes": self._estimated_size(), "skipped": True}
        try:
            catalogue = []
            for path in self.entries():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                catalogue.append((stat.st_mtime, path, stat.st_size))
            total = sum(size for _, _, size in catalogue)
            removed = 0
            freed = 0
            # Oldest access first; the newest entry is evicted only when
            # it alone cannot fit the budget.
            for _, path, size in sorted(catalogue):
                if total <= budget:
                    break
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
                except OSError:
                    continue
                total -= size
                freed += size
                removed += 1
            self._size_estimate = total
        finally:
            lock.release()
        if removed:
            self.stats.evictions += removed
            if self.tracer is not None:
                self.tracer.count("cache.evictions", removed)
                self.tracer.count("cache.evicted_bytes", freed)
        return {"removed": removed, "freed_bytes": freed,
                "size_bytes": total, "skipped": False}

    # ------------------------------------------------------------------ #
    # Lifetime statistics
    # ------------------------------------------------------------------ #
    @property
    def stats_path(self) -> Path:
        """Location of the lifetime-counter document."""
        return stats_file_of(self.root)
