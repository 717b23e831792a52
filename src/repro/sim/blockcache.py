"""Bounded LRU memoisation for per-block simulation results.

The engine memoises ``simulate_blocks`` on ``(model namespace, A bits,
B bits)``.  Each entry is the block's **action row**: one read-only
row in the :data:`~repro.arch.base.VECTOR_WIDTH` layout, int64 unless
the model's counters are fractional.  :class:`BlockCache` keeps
the rows in a bounded LRU with observable hit/miss/eviction counters:

- the **engine** goes through :meth:`rows_for` (one call per coalesced
  batch): a :meth:`lookup_many`, one ``simulate`` call for the keys
  neither tier holds, and an :meth:`insert_many` of its rows, which
  update both the recency order and the statistics exactly as the
  per-key :meth:`lookup` / :meth:`insert` would, key by key;
- the **fault-injection campaign** (:mod:`repro.resilience.faults`)
  reads and restores entries through ``[]``, which is
  statistics-neutral so bookkeeping traffic never skews the measured
  hit rate.

Rows entering the cache are made read-only (``setflags(write=False)``),
so an in-place update of a looked-up row raises instead of silently
corrupting the memo.

One instance is shared by every core of ``simulate_parallel`` and
persists between sweep cases; results outlive the process only
through a bound second tier.

A :class:`BlockCache` may also be backed by a **second tier**: any
object with ``key_digests(keys) -> [digest]``,
``lookup_many(keys, digests) -> (rows, found)`` and
``insert_many(keys, rows, digests)`` (duck-typed so this module
needn't import it; in practice a :class:`repro.store.ResultStore`).
Misses consult the tier -- one call per miss set -- and promote its
hits into the LRU; inserts write through.  The digests are opaque
here: :meth:`rows_for` asks the tier for each LRU-missed key's digest
once and hands the same digests to the tier's lookup and, for the
keys it then simulates, to the write-through; with no tier bound
nothing is digested.  Tier hits count as ``hits`` (the caller was
served without simulating) and additionally as ``store_hits``, so
the split is observable without changing the meaning of ``hit_rate``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

#: Cache key: (model namespace, A bitmap bytes, B bitmap bytes).
CacheKey = Tuple[str, bytes, bytes]

#: Marks a key :meth:`BlockCache.lookup_many` has not asked the tier for.
_UNFETCHED = object()

#: Default entry bound.  A row plus key is a few hundred bytes,
#: so the default caps resident cache memory around a hundred MB while
#: holding far more distinct block patterns than any corpus sweep in
#: the benchmark suite produces.
DEFAULT_CAPACITY = 1 << 18


@dataclass
class CacheStats:
    """Observable counters of one :class:`BlockCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    #: Lookups served by the persistent second tier (a subset of
    #: ``hits``) and lookups that missed both tiers while a tier was
    #: bound (a subset of ``misses``).
    store_hits: int = 0
    store_misses: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """hits / lookups (0.0 before any lookup)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    @property
    def store_hit_rate(self) -> float:
        """store_hits / store lookups — how warm the second tier is."""
        total = self.store_hits + self.store_misses
        return self.store_hits / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = self.misses = self.evictions = self.inserts = 0
        self.store_hits = self.store_misses = 0

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current counters.

        Take one before a run and diff it afterwards with :meth:`delta`
        to attribute hits/misses to that run alone — the process-wide
        cache's counters otherwise accumulate across every run since
        startup.
        """
        return CacheStats(
            hits=self.hits, misses=self.misses,
            evictions=self.evictions, inserts=self.inserts,
            store_hits=self.store_hits, store_misses=self.store_misses,
        )

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated since the ``since`` snapshot."""
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            evictions=self.evictions - since.evictions,
            inserts=self.inserts - since.inserts,
            store_hits=self.store_hits - since.store_hits,
            store_misses=self.store_misses - since.store_misses,
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (for JSON reports).

        The ``store_*`` keys appear only once a second tier has
        actually been consulted — reports from tier-less runs keep
        their historical shape.
        """
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
            "hit_rate": self.hit_rate,
        }
        if self.store_hits or self.store_misses:
            out["store_hits"] = self.store_hits
            out["store_misses"] = self.store_misses
            out["store_hit_rate"] = self.store_hit_rate
        return out


@dataclass
class BlockCache:
    """A bounded LRU mapping from cache keys to read-only action rows.

    ``capacity=None`` disables the bound (the legacy unbounded
    behaviour, still useful for short-lived unit tests).
    """

    capacity: Optional[int] = DEFAULT_CAPACITY
    stats: CacheStats = field(default_factory=CacheStats)
    #: Optional persistent second tier (duck-typed
    #: ``key_digests``/``lookup_many``/``insert_many``,
    #: e.g. :class:`repro.store.ResultStore`).  Bind/unbind through
    #: :func:`repro.sim.engine.store_tier` in application code.
    store: Optional[object] = None

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity <= 0:
            raise ConfigError("cache capacity must be positive (or None)")
        self._data: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()

    # -- engine API (stats-aware) ----------------------------------------

    def rows_for(self, keys: Sequence[CacheKey],
                 simulate: Callable[[List[CacheKey]], np.ndarray]
                 ) -> np.ndarray:
        """The ``[N, VECTOR_WIDTH]`` rows of ``keys``, simulating misses.

        A :meth:`lookup_many` of ``keys``; then, for the keys neither
        tier holds, one ``simulate(missing_keys)`` call returning their
        rows, inserted as by :meth:`insert_many`.  With a second tier
        bound, each LRU-missed key is digested once and that digest
        serves both the tier lookup and the write-through.  When every
        key missed, the simulated matrix itself is returned (read-only).
        """
        digests: Dict[CacheKey, bytes] = {}
        rows = self._lookup(keys, digests)
        pending = [i for i, row in enumerate(rows) if row is None]
        if not pending:
            return np.stack(rows)
        missing = [keys[i] for i in pending]
        fresh = _frozen(simulate(missing))
        self._insert(missing, fresh, digests)
        if len(pending) == len(rows):
            return fresh
        for i, row in zip(pending, fresh):
            rows[i] = row
        return np.stack(rows)

    def lookup_many(self, keys: Sequence[CacheKey]) -> List[Optional[np.ndarray]]:
        """Fetch memoised rows, refreshing recency; ``None`` per miss.

        Keys are served in order, with the per-key :meth:`lookup`
        semantics: an LRU hit moves to most-recent; an LRU miss with a
        second tier bound consults the tier and promotes its hit into
        the LRU (stats-neutrally, so the promotion isn't double-counted
        as an insert).  The tier is asked once, up front, for every
        distinct key absent from the LRU.
        """
        return self._lookup(keys, {})

    def _lookup(self, keys: Sequence[CacheKey],
                digests: Dict[CacheKey, bytes]) -> List[Optional[np.ndarray]]:
        """:meth:`lookup_many`, recording the tier digests it computes."""
        data, stats, store = self._data, self.stats, self.store
        fetched: Dict[CacheKey, Optional[np.ndarray]] = {}
        if store is not None:
            absent = list(dict.fromkeys(k for k in keys if k not in data))
            if absent:
                absent_digests = store.key_digests(absent)
                digests.update(zip(absent, absent_digests))
                fetched = self._fetch(absent, absent_digests)
        out: List[Optional[np.ndarray]] = []
        lru_hits = store_hits = store_misses = 0
        for key in keys:
            row = data.get(key)
            if row is not None:
                data.move_to_end(key)
                lru_hits += 1
            elif store is not None:
                row = fetched.pop(key, _UNFETCHED)
                if row is _UNFETCHED:
                    # Evicted by an earlier promotion of this call, or
                    # repeated after a tier miss: ask the tier again,
                    # as a per-key lookup would.
                    if key not in digests:
                        digests[key] = store.key_digests([key])[0]
                    row = self._fetch([key], [digests[key]])[key]
                if row is not None:
                    data[key] = row
                    self._evict()
                    store_hits += 1
                else:
                    store_misses += 1
            out.append(row)
        stats.hits += lru_hits + store_hits
        stats.misses += len(keys) - lru_hits - store_hits
        stats.store_hits += store_hits
        stats.store_misses += store_misses
        return out

    def _fetch(self, keys: List[CacheKey], digests: List[bytes]
               ) -> Dict[CacheKey, Optional[np.ndarray]]:
        rows, found = self.store.lookup_many(keys, digests)
        if not found.any():
            return dict.fromkeys(keys)
        rows.setflags(write=False)
        return {key: row if hit else None
                for key, row, hit in zip(keys, rows, found.tolist())}

    def lookup(self, key: CacheKey) -> Optional[np.ndarray]:
        """One key's memoised row, or ``None`` (see :meth:`lookup_many`)."""
        return self.lookup_many([key])[0]

    def insert_many(self, keys: Sequence[CacheKey], rows: np.ndarray) -> None:
        """Store ``rows[i]`` for ``keys[i]`` as most-recent, in order.

        ``rows`` is a ``[N, VECTOR_WIDTH]`` matrix; the cache takes it
        over read-only.  Statistics and final LRU contents equal those
        of per-key :meth:`insert` calls.  Writes through to the second
        tier in one call when one is bound (the tier deduplicates
        internally, so re-inserts after eviction are cheap no-ops on
        disk).
        """
        self._insert(keys, _frozen(rows), None)

    def _insert(self, keys: Sequence[CacheKey], rows: np.ndarray,
                digests: Optional[Dict[CacheKey, bytes]]) -> None:
        data, stats = self._data, self.stats
        if len(set(keys)) == len(keys) and data.keys().isdisjoint(keys):
            # Distinct new keys: per-key inserts would append each and
            # evict the oldest entries as the LRU overflows, which is
            # one append pass and one eviction pass.
            data.update(zip(keys, rows))
            stats.inserts += len(keys)
            self._evict()
        else:
            for key, row in zip(keys, rows):
                data[key] = row
                data.move_to_end(key)
                stats.inserts += 1
                self._evict()
        if self.store is not None:
            self.store.insert_many(
                keys, rows,
                None if digests is None else list(map(digests.__getitem__, keys)))

    def insert(self, key: CacheKey, row: np.ndarray) -> None:
        """Store one key's row (see :meth:`insert_many`)."""
        self.insert_many([key], _frozen(row)[None])

    def _evict(self) -> None:
        if self.capacity is None:
            return
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def rebound(self, capacity: Optional[int]) -> None:
        """Change the entry bound (None = unbounded), evicting to fit now.

        Evictions performed here count in the statistics like any
        capacity-driven eviction.
        """
        if capacity is not None and capacity <= 0:
            raise ConfigError("cache capacity must be positive (or None)")
        self.capacity = capacity
        self._evict()

    # -- mapping protocol (stats-neutral) --------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, key: CacheKey) -> np.ndarray:
        return self._data[key]

    def __setitem__(self, key: CacheKey, row: np.ndarray) -> None:
        self._data[key] = _frozen(row)
        self._evict()

    def clear(self, reset_stats: bool = True) -> None:
        """Drop every entry; by default also zero the counters."""
        self._data.clear()
        if reset_stats:
            self.stats.reset()

    def __repr__(self) -> str:
        cap = "unbounded" if self.capacity is None else str(self.capacity)
        return (f"BlockCache(entries={len(self._data)}, capacity={cap}, "
                f"hit_rate={self.stats.hit_rate:.3f})")


def _frozen(rows: np.ndarray) -> np.ndarray:
    """``rows`` made read-only in place: the cache owns what it holds."""
    rows = np.asarray(rows)
    rows.setflags(write=False)
    return rows
