"""Cache-spec parsing: one string picks the store.

``open_store`` is the single composition point every consumer goes
through (engine, CLI, Study API); nothing outside this package names a
concrete backend class.

Spec grammar:

========  ===================================================
``mem:``  in-process :class:`MemoryStore` (tests, dry runs)
``PATH``  on-disk :class:`ShardedDiskStore` rooted at ``PATH``
========  ===================================================

A size budget (``--cache-budget`` / ``$REPRO_CACHE_BUDGET``) bounds the
opened store with LRU eviction.
"""

from __future__ import annotations

import os
import re
from typing import Optional, Union

from repro.common.errors import EvaluationError
from repro.harness.cache.memory import MemoryStore
from repro.harness.cache.sharded import ShardedDiskStore
from repro.harness.cache.store import CacheStore

__all__ = ["CACHE_BUDGET_ENV", "open_store", "parse_budget",
           "resolve_budget"]

#: Environment fallback for ``--cache-budget``.
CACHE_BUDGET_ENV = "REPRO_CACHE_BUDGET"

#: Spec schemes earlier versions accepted; each now names a bare path.
_RETIRED_SCHEMES = ("dir:", "sharded:", "tiered:")

_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3, "t": 1024 ** 4}


def parse_budget(value: Union[int, str, None]) -> Optional[int]:
    """A byte budget from an int or a ``512M``-style string.

    Accepts plain byte counts and binary ``K``/``M``/``G``/``T`` suffixes
    (case-insensitive, optional trailing ``B`` / ``iB``); ``None``, empty
    and ``"none"`` mean unbounded.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise EvaluationError(f"invalid cache budget: {value!r}")
    if isinstance(value, int):
        budget = value
    else:
        text = str(value).strip().lower()
        if text in ("", "none"):
            return None
        match = re.fullmatch(r"(\d+(?:\.\d+)?)\s*([kmgt])?i?b?", text)
        if match is None:
            raise EvaluationError(
                f"invalid cache budget {value!r} "
                "(expected bytes or a K/M/G/T-suffixed size, e.g. 512M)"
            )
        scale = _SUFFIXES.get(match.group(2) or "", 1)
        budget = int(float(match.group(1)) * scale)
    if budget <= 0:
        raise EvaluationError(
            f"cache budget must be positive, got {value!r}"
        )
    return budget


def resolve_budget(budget: Union[int, str, None]) -> Optional[int]:
    """The effective byte budget: explicit value, else the environment."""
    if budget is None:
        budget = os.environ.get(CACHE_BUDGET_ENV)
    return parse_budget(budget)


def open_store(spec, tracer=None,
               budget: Union[int, str, None] = None) -> CacheStore:
    """Open the cache store a spec describes.

    ``spec`` is ``"mem:"``, a directory path (string or PathLike), or an
    already-constructed :class:`CacheStore` (passed through, adopting
    ``tracer`` if it has none — the injection seam tests use).
    ``budget`` accepts an int, a ``512M``-style string, or None to
    consult ``$REPRO_CACHE_BUDGET``.
    """
    if isinstance(spec, CacheStore):
        if tracer is not None and spec.tracer is None:
            spec.tracer = tracer
        return spec

    budget_bytes = resolve_budget(budget)
    if isinstance(spec, os.PathLike):
        return ShardedDiskStore(spec, tracer=tracer, budget=budget_bytes)
    if not isinstance(spec, str):
        raise EvaluationError(f"invalid cache spec: {spec!r}")
    if not spec:
        raise EvaluationError("empty cache spec")
    if spec.startswith("mem:"):
        if spec != "mem:":
            raise EvaluationError(f"mem: takes no path, got {spec!r}")
        return MemoryStore(tracer=tracer, budget=budget_bytes)
    if spec.startswith(_RETIRED_SCHEMES):
        scheme, _, rest = spec.partition(":")
        # tiered:LOCAL|SHARED maps to its writable LOCAL directory.
        replacement = rest.split("|")[0] or "PATH"
        raise EvaluationError(
            f"the {scheme}: cache spec was removed; pass the directory as "
            f"a bare path instead (e.g. {replacement!r})")
    return ShardedDiskStore(spec, tracer=tracer, budget=budget_bytes)
