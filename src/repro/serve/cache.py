"""The LRU advice cache behind :class:`repro.serve.AdvisoryEngine`.

A deliberately small, auditable LRU: an :class:`~collections.OrderedDict`
under one lock, move-to-end on hit, evict-oldest on overflow.  Keys are
the full advisory identity -- ``(plan fingerprint, canonical stats,
scheme, engine knobs)`` -- built by the engine; the cache never
interprets them.  Values are finished :class:`~repro.serve.engine.Advice`
objects, which are frozen, so sharing one instance across concurrent
readers is safe.

Hit/miss/eviction tallies feed the ``serve.cache.{hits,misses,
evictions}`` counters through :mod:`repro.obs` (no-ops unless a recorder
is installed) and are also kept as plain attributes so the service's
``/metrics`` endpoint and the load harness can read a hit-rate without
enabling observability.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional

from .. import obs


class AdviceCache:
    """Thread-safe LRU mapping advisory keys to advice objects."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1 "
                             "(disable caching at the engine instead)")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached advice, freshened to most-recently-used; ``None``
        on miss.  (Advice values are never ``None`` -- the engine only
        stores completed results.)"""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if value is None:
            obs.add("serve.cache.misses")
        else:
            obs.add("serve.cache.hits")
        return value

    def peek(self, key: Hashable) -> Optional[Any]:
        """The cached advice or ``None``, counted as neither hit nor
        miss: the engine's re-check for a miss published by another
        request after its counted :meth:`get`."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU on overflow."""
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            obs.add("serve.cache.evictions", evicted)

    def invalidate(self, match: Callable[[Hashable], bool]) -> int:
        """Evict every entry whose key satisfies ``match``.

        The scope-targeted eviction behind the engine's hot
        cluster-stats push: a stats-bucket change drops only the advice
        computed for the superseded bucket, leaving everything else
        warm.  Invalidations are counted separately from capacity
        evictions (and are neither hits nor misses, so the
        ``hits + misses == requests`` accounting the load harness checks
        is untouched).  Returns the number of evicted entries.
        """
        with self._lock:
            stale = [key for key in self._entries if match(key)]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
        if stale:
            obs.add("serve.cache.invalidations", len(stale))
        return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list:
        """Current keys, least- to most-recently used (for tests)."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for ``/metrics`` and the load harness."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
