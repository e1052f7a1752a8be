"""Read-path cache with write-through invalidation and epoch guards.

The gateway's GET traffic is read-dominated (the case-portal shape), so hot
responses are served from this cache instead of querying the owning shard.
Correctness hinges on one race: a GET may read a value from the shard,
lose the CPU, and try to populate the cache *after* a write has already
invalidated that entity — caching the now-stale value forever.  The classic
fix is an invalidation **epoch** per entity:

1. the GET snapshots ``begin_read(entity)`` *before* dispatching the query;
2. every write bumps the entity's epoch (and drops its entries) under
   :meth:`invalidate` — write-through invalidation, counted in
   ``cache_invalidations``;
3. :meth:`store` only publishes the value if the entity's epoch still
   equals the snapshot — a stale read loses the race and is simply not
   cached.

Entries are keyed ``(entity, resource)`` — one entity owns several
cacheable resources (``/cases/7`` and ``/cases/7/allegations``) and a
write to the entity invalidates them all.  An index from each entity to
its cached resources makes that invalidation touch only the entity's own
entries, never the whole cache.  Thread-safe: the executor dispatch path
touches it from worker threads.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Set, Tuple

from repro.util.counters import Counters

#: miss marker distinguishable from a cached ``None`` payload
MISS = object()


class ReadCache:
    """Per-entity epoch-guarded response cache (see module docstring)."""

    def __init__(self, counters: Optional[Counters] = None,
                 max_entries: int = 4096) -> None:
        self.counters = counters or Counters()
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._epochs: Dict[str, int] = {}
        self._entries: Dict[Tuple[str, str], Tuple[int, Any]] = {}
        #: entity -> the resources it has in ``_entries``
        self._resources: Dict[str, Set[str]] = {}

    def begin_read(self, entity: str) -> int:
        """Snapshot the entity's invalidation epoch (call *before* the query)."""
        with self._lock:
            return self._epochs.get(entity, 0)

    def lookup(self, entity: str, resource: str) -> Any:
        """The cached value, or the :data:`MISS` marker; counts hits/misses."""
        with self._lock:
            entry = self._entries.get((entity, resource))
            if entry is not None and entry[0] == self._epochs.get(entity, 0):
                self.counters.bump("cache_hits")
                return entry[1]
            if entry is not None:
                # epoch moved since the entry was stored: stale, drop it
                self._drop(entity, resource)
            self.counters.bump("cache_misses")
            return MISS

    def store(self, entity: str, resource: str, epoch: int, value: Any) -> bool:
        """Publish ``value`` unless the entity was invalidated since ``epoch``.

        Returns ``False`` (and caches nothing) when the guard fails — the
        read raced a write and its value may already be stale.
        """
        with self._lock:
            if self._epochs.get(entity, 0) != epoch:
                return False
            if len(self._entries) >= self.max_entries and \
                    (entity, resource) not in self._entries:
                # simple overflow valve: drop the oldest insertion; dict
                # order is insertion order, good enough for a benchmark
                # cache (hot keys re-populate on the next read)
                self._drop(*next(iter(self._entries)))
            self._entries[(entity, resource)] = (epoch, value)
            self._resources.setdefault(entity, set()).add(resource)
            return True

    def invalidate(self, entity: str) -> int:
        """Write-through invalidation: bump the epoch, drop the entries."""
        with self._lock:
            epoch = self._epochs.get(entity, 0) + 1
            self._epochs[entity] = epoch
            for resource in self._resources.pop(entity, ()):
                del self._entries[(entity, resource)]
            self.counters.bump("cache_invalidations")
            return epoch

    def _drop(self, entity: str, resource: str) -> None:
        """Remove one entry and its index mark (caller holds the lock)."""
        del self._entries[(entity, resource)]
        resources = self._resources[entity]
        resources.discard(resource)
        if not resources:
            del self._resources[entity]

    def stats(self) -> Dict[str, int]:
        with self._lock:
            entries = len(self._entries)
        snap = self.counters.snapshot()
        return {
            "entries": entries,
            "hits": snap["cache_hits"],
            "misses": snap["cache_misses"],
            "invalidations": snap["cache_invalidations"],
        }
