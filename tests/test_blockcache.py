"""The bounded LRU block cache: stats, bound, sharing, engine wiring."""

import numpy as np
import pytest

from repro.arch.base import VECTOR_WIDTH
from repro.arch.tasks import T1Task
from repro.arch.unistc import UniSTC
from repro.errors import ConfigError
from repro.formats.bbc import BBCMatrix
from repro.kernels.batched import coalesce_raw, kernel_task_batches
from repro.sim import engine
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_batches, simulate_kernel
from repro.sim.parallel import (
    block_row_work,
    partition_block_rows,
    simulate_parallel,
)
from repro.store import ResultStore
from repro.workloads import synthetic


def _key(i):
    return ("stc", bytes([i]) * 4, bytes([i]) * 2)


def _row(i):
    row = np.zeros(VECTOR_WIDTH, dtype=np.int64)
    row[:2] = i
    return row


def _held(cache, key):
    """Stats-neutral membership through ``[]``."""
    try:
        cache[key]
    except KeyError:
        return False
    return True


@pytest.fixture()
def bbc():
    return BBCMatrix.from_coo(synthetic.banded(192, 24, 0.4, seed=11))


class TestStats:
    def test_hit_miss_insert_counting(self):
        cache = BlockCache()
        assert cache.lookup(_key(1)) is None
        cache.insert(_key(1), _row(1))
        assert cache.lookup(_key(1))[0] == 1
        assert cache.lookup(_key(2)) is None
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.inserts) == (1, 2, 1)
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_hit_rate_zero_before_any_lookup(self):
        assert BlockCache().stats.hit_rate == 0.0

    def test_reset_and_clear(self):
        cache = BlockCache()
        cache.insert(_key(1), _row(1))
        cache.lookup(_key(1))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0 and cache.stats.inserts == 0
        cache.insert(_key(2), _row(2))
        cache.clear(reset_stats=False)
        assert len(cache) == 0 and cache.stats.inserts == 1

    def test_as_dict_round_trips_to_json_scalars(self):
        cache = BlockCache()
        cache.insert(_key(1), _row(1))
        cache.lookup(_key(1))
        d = cache.stats.as_dict()
        assert d == {"hits": 1, "misses": 0, "evictions": 0, "inserts": 1,
                     "hit_rate": 1.0}

    def test_mapping_protocol_is_stats_neutral(self):
        cache = BlockCache()
        cache[_key(1)] = _row(1)
        cache[_key(2)] = _row(2)
        assert cache[_key(1)][0] == 1
        assert not _held(cache, _key(3))
        assert len(cache) == 2
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.inserts, stats.evictions) == (
            0, 0, 0, 0,
        )


class TestLRUBound:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigError):
            BlockCache(capacity=0)
        with pytest.raises(ConfigError):
            BlockCache(capacity=-3)

    def test_unbounded_when_none(self):
        cache = BlockCache(capacity=None)
        for i in range(256):
            cache.insert(_key(i), _row(i))
        assert len(cache) == 256 and cache.stats.evictions == 0

    def test_evicts_least_recently_used(self):
        cache = BlockCache(capacity=2)
        cache.insert(_key(1), _row(1))
        cache.insert(_key(2), _row(2))
        cache.lookup(_key(1))  # refresh 1; 2 becomes LRU
        cache.insert(_key(3), _row(3))
        assert _held(cache, _key(1)) and _held(cache, _key(3))
        assert not _held(cache, _key(2))
        assert cache.stats.evictions == 1

    def test_mapping_inserts_respect_bound(self):
        cache = BlockCache(capacity=3)
        for i in range(6):
            cache[_key(i)] = _row(i)
        assert len(cache) == 3
        assert not _held(cache, _key(0)) and _held(cache, _key(5))

    def test_rebound_shrink_evicts_now(self):
        cache = BlockCache(capacity=None)
        for i in range(8):
            cache.insert(_key(i), _row(i))
        cache.lookup(_key(0))  # refresh 0 so it survives the shrink
        cache.rebound(3)
        assert cache.capacity == 3 and len(cache) == 3
        assert _held(cache, _key(0)) and _held(cache, _key(7))
        assert cache.stats.evictions == 5

    def test_rebound_grow_and_unbind_keep_entries(self):
        cache = BlockCache(capacity=2)
        cache.insert(_key(1), _row(1))
        cache.insert(_key(2), _row(2))
        cache.rebound(64)
        assert len(cache) == 2 and cache.stats.evictions == 0
        cache.rebound(None)
        for i in range(10, 110):
            cache.insert(_key(i % 256), _row(i))
        assert len(cache) == 102 and cache.stats.evictions == 0

    def test_rebound_rejects_non_positive(self):
        cache = BlockCache()
        with pytest.raises(ConfigError):
            cache.rebound(0)
        with pytest.raises(ConfigError):
            cache.rebound(-1)

    def test_bound_holds_under_sweep(self, bbc):
        """A capacity-bounded cache never exceeds its bound across a
        multi-kernel sweep, and eviction accounting balances."""
        cache = BlockCache(capacity=16)
        for kernel in ("spmv", "spmm", "spgemm"):
            simulate_kernel(kernel, bbc, UniSTC(), cache=cache)
            assert len(cache) <= 16
        stats = cache.stats
        assert stats.inserts - stats.evictions == len(cache)
        assert stats.evictions > 0  # the sweep has > 16 distinct patterns

    def test_bounded_sweep_same_report_as_unbounded(self, bbc):
        """Eviction changes performance, never results."""
        bounded = simulate_kernel(
            "spgemm", bbc, UniSTC(), cache=BlockCache(capacity=8)
        )
        unbounded = simulate_kernel(
            "spgemm", bbc, UniSTC(), cache=BlockCache(capacity=None)
        )
        assert bounded.cycles == unbounded.cycles
        assert bounded.products == unbounded.products
        assert bounded.energy_pj == pytest.approx(unbounded.energy_pj)


class TestSharing:
    def test_shared_cache_matches_isolated_caches(self, bbc):
        """Cross-core sharing is invisible in the reports: every core
        produces the same SimReport whether the memo is shared or not."""
        kernel = "spgemm"
        shared = simulate_parallel(
            kernel, bbc, UniSTC, n_cores=4, cache=BlockCache()
        )
        work = block_row_work(bbc, kernel)
        parts = partition_block_rows(work, 4)
        isolated = [
            simulate_batches(
                UniSTC(), kernel_task_batches(kernel, bbc, rows=rows),
                kernel=kernel, cache=BlockCache(),
            )
            for rows in parts
        ]
        assert len(shared.per_core) == len(isolated)
        for ours, ref in zip(shared.per_core, isolated):
            assert ours.cycles == ref.cycles
            assert ours.products == ref.products
            assert ours.t1_tasks == ref.t1_tasks
            assert np.array_equal(ours.util_hist.bins, ref.util_hist.bins)
            assert ours.energy_pj == pytest.approx(ref.energy_pj)

    def test_shared_cache_turns_repeats_into_hits(self, bbc):
        cache = BlockCache()
        simulate_parallel("spmv", bbc, UniSTC, n_cores=4, cache=cache)
        first = cache.stats.hits
        simulate_parallel("spmv", bbc, UniSTC, n_cores=4, cache=cache)
        assert cache.stats.misses == cache.stats.inserts  # no re-simulations
        assert cache.stats.hits > first


class TestEngineWiring:
    def test_process_cache_api(self, bbc):
        engine.clear_cache()
        assert engine.cache_size() == 0
        simulate_kernel("spmv", bbc, UniSTC())
        assert engine.cache_size() > 0
        assert engine.get_cache() is engine._BLOCK_CACHE
        assert engine.cache_stats().inserts == engine.cache_size()
        engine.clear_cache()
        assert engine.cache_size() == 0 and engine.cache_stats().lookups == 0

    def test_set_cache_capacity_evicts_now(self, bbc):
        engine.clear_cache()
        simulate_kernel("spgemm", bbc, UniSTC())
        assert engine.cache_size() > 4
        try:
            engine.set_cache_capacity(4)
            assert engine.cache_size() == 4
            assert engine.cache_stats().evictions > 0
        finally:
            engine.set_cache_capacity(None)
            engine.clear_cache()


class TestRows:
    def test_lookup_many_serves_in_order(self):
        cache = BlockCache()
        cache.insert_many([_key(1), _key(2)], np.stack([_row(1), _row(2)]))
        got = cache.lookup_many([_key(2), _key(3), _key(1)])
        assert got[0][0] == 2 and got[1] is None and got[2][0] == 1
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.inserts) == (2, 1, 2)
        # Recency follows the lookup order: key 1 is now most recent.
        assert list(cache._data) == [_key(2), _key(1)]

    @pytest.mark.parametrize("batch", [[1, 3, 4, 5, 6], [1, 3, 1, 4],
                                       [5, 2, 6], [9, 2]])
    def test_insert_many_matches_per_key_inserts(self, batch):
        """Distinct new keys take one append and one eviction pass;
        repeats and resident keys go key by key.  Either way the
        counters and the LRU order equal per-key inserts'."""
        outcomes = []
        for batched in (True, False):
            cache = BlockCache(capacity=3)
            cache.insert_many([_key(2), _key(9)], np.stack([_row(2), _row(9)]))
            keys = [_key(i) for i in batch]
            rows = np.stack([_row(i) for i in batch])
            if batched:
                cache.insert_many(keys, rows)
            else:
                for key, row in zip(keys, rows):
                    cache.insert(key, row)
            outcomes.append((list(cache._data), cache.stats.as_dict()))
        assert outcomes[0] == outcomes[1]

    def test_rows_for_simulates_only_misses(self):
        cache = BlockCache()
        cache.insert_many([_key(1), _key(3)], np.stack([_row(1), _row(3)]))
        asked = []

        def simulate(keys):
            asked.append(list(keys))
            return np.stack([_row(k[1][0]) for k in keys])

        rows = cache.rows_for([_key(i) for i in (1, 2, 3, 4)], simulate)
        assert asked == [[_key(2), _key(4)]]
        assert rows[:, 0].tolist() == [1, 2, 3, 4]
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.inserts) == (2, 2, 4)
        assert cache.rows_for([_key(4), _key(2)], simulate)[:, 0].tolist() \
            == [4, 2]
        assert len(asked) == 1
        # A batch that misses entirely gets the simulated matrix back.
        fresh = []
        rows = cache.rows_for(
            [_key(5), _key(6)],
            lambda keys: fresh.append(simulate(keys)) or fresh[0])
        assert rows is fresh[0] and not rows.flags.writeable

    def test_tiered_distinct_batch_matches_per_key_lookups(self, tmp_path):
        """A batch none of whose keys is resident is promoted in one
        pass; under capacity pressure its counters and LRU order equal
        per-key lookups'."""
        keys = [_key(i) for i in (1, 7, 2, 8, 3, 4)]
        with ResultStore(tmp_path / "store") as store:
            store.insert_many([_key(i) for i in (1, 2, 3, 4)],
                              np.stack([_row(i) for i in (1, 2, 3, 4)]))
            outcomes = []
            for batched in (True, False):
                cache = BlockCache(capacity=3, store=store)
                cache.insert(_key(9), _row(9))
                got = (cache.lookup_many(keys) if batched
                       else [cache.lookup(key) for key in keys])
                outcomes.append(([None if g is None else int(g[0])
                                  for g in got],
                                 list(cache._data), cache.stats.as_dict()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == [1, None, 2, None, 3, 4]
        assert outcomes[0][1] == [_key(2), _key(3), _key(4)]

    def test_tiered_repeats_match_per_key_lookups(self, tmp_path):
        keys = [_key(1), _key(9), _key(1), _key(9)]
        with ResultStore(tmp_path / "store") as store:
            store.insert(_key(1), _row(1))
            counts = []
            for batched in (True, False):
                cache = BlockCache(store=store)
                before = store.stats.snapshot()
                got = (cache.lookup_many(keys) if batched
                       else [cache.lookup(key) for key in keys])
                served = store.stats.delta(before)
                counts.append(([None if g is None else int(g[0]) for g in got],
                               cache.stats.as_dict(), served.hits,
                               served.misses))
        assert counts[0] == counts[1]
        assert counts[0][0] == [1, None, 1, None]
        assert counts[0][2:] == (1, 2)  # the repeated miss asks again

    def test_cached_rows_are_read_only(self, bbc, tmp_path):
        cache = BlockCache()
        simulate_kernel("spmv", bbc, UniSTC(), cache=cache)
        key = next(iter(cache._data))
        row = cache.lookup(key)
        with pytest.raises(ValueError, match="read-only"):
            row += 1
        with pytest.raises(ValueError, match="read-only"):
            cache[key][0] = 0
        mine = _row(5)
        cache.insert(_key(5), mine)
        with pytest.raises(ValueError, match="read-only"):
            cache.lookup(_key(5))[0] += 1
        with ResultStore(tmp_path / "store") as store:
            store.insert(_key(6), _row(6))
            tiered = BlockCache(store=store)
            served = tiered.lookup(_key(6))
            assert served[0] == 6
            with pytest.raises(ValueError, match="read-only"):
                served += 1
        assert cache.lookup(_key(5))[0] == 5

    def test_row_route_stats_equal_per_key_route(self, bbc, tmp_path):
        """Under capacity pressure the batched route's counters equal
        those of per-key lookup/insert calls made in the engine's
        order -- including a re-scan larger than the LRU, where each
        store promotion evicts the resident entry the scan needs next."""
        stc = UniSTC()

        def per_key(cache, kernel):
            namespace = stc.cache_key()
            for batch in kernel_task_batches(kernel, bbc):
                raw = coalesce_raw(batch)
                keys = [(namespace, raw.a_bytes[a], raw.b_bytes[b])
                        for a, b, _ in raw.pairs]
                missing = [k for k in keys if cache.lookup(k) is None]
                if missing:
                    rows = stc.simulate_blocks(
                        [T1Task(k[1], k[2], n=raw.n) for k in missing])
                    for key, row in zip(missing, rows):
                        cache.insert(key, row)

        counts = []
        for route in ("rows", "per-key"):
            with ResultStore(tmp_path / route) as store:
                simulate_kernel("spmv", bbc, stc, cache=BlockCache(store=store))
                spmv_blocks = len(store)
                cache = BlockCache(capacity=30, store=store)
                for kernel in ("spmv", "spmv", "spgemm", "spmv"):
                    if route == "rows":
                        simulate_kernel(kernel, bbc, stc, cache=cache)
                    else:
                        per_key(cache, kernel)
                s = cache.stats
                counts.append((s.hits, s.misses, s.store_hits,
                               s.store_misses, s.inserts, s.evictions,
                               store.stats.hits, store.stats.misses,
                               store.stats.appends, len(store)))
        assert counts[0] == counts[1]
        _, _, store_hits, store_misses, _, evictions = counts[0][:6]
        # Every spmv pass, the back-to-back second included, was served
        # from the store: no resident entry survived to its lookup.
        assert spmv_blocks > 30
        assert store_hits == 3 * spmv_blocks
        assert store_misses > 0 and evictions > 0
