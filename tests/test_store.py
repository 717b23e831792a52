"""The persistent content-addressed result store (:mod:`repro.store`).

Covers the on-disk format and its failure modes (torn tails, interior
corruption, manifest drift), multi-writer convergence, gc/compaction,
cross-process fingerprint stability, the block-cache second tier, and
the resilient runner's round trip through a bound store.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.arch.base import VECTOR_WIDTH, BlockResult, result_rows
from repro.arch.config import FP32, UniSTCConfig
from repro.arch.counters import ACTIONS, Counters
from repro.arch.tasks import UtilHistogram
from repro.arch.unistc import UniSTC
from repro.errors import DataCorruptionError, FormatError
from repro.formats.bbc import BBCMatrix
from repro.sim import engine
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_kernel
from repro.store import (
    MANIFEST_NAME,
    ResultStore,
    STORE_SCHEMA,
    key_digest,
    resultstore,
)
from repro.workloads.synthetic import banded

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _key(i: int, ns: str = "ns"):
    return (ns, bytes([i]) * 4, bytes([i % 251, i % 7]))


def _result(i: int) -> BlockResult:
    hist = UtilHistogram(bins=np.array([i, 0, 2 * i, 1], dtype=np.int64))
    return BlockResult(cycles=i, products=2 * i, util_hist=hist,
                       counters=Counters({"mac_ops": float(3 * i)}))


def _row(i: int) -> np.ndarray:
    return result_rows([_result(i)])[0]


def _block_key(i: int, ns: str, n: int):
    """A key shaped like the engine's: 16x16 A bits, 16 x ``n`` B bits."""
    gen = np.random.default_rng(i)
    return (ns, (gen.random(256) < 0.3).tobytes(),
            (gen.random(16 * n) < 0.5).tobytes())


def _count_preads(monkeypatch) -> list:
    """Record every ``os.pread`` call from here on."""
    calls = []
    real = os.pread

    def counting(fd, size, offset):
        calls.append((size, offset))
        return real(fd, size, offset)

    monkeypatch.setattr(os, "pread", counting)
    return calls


def _reference_record(key, result: BlockResult) -> bytes:
    """The per-record object encoder of store schema 1, kept as the
    byte-level oracle for the batched row writer."""
    namespace, a_bits, b_bits = key
    ns = namespace.encode("utf-8")
    payload = b"".join([
        struct.pack("<H", len(ns)), ns,
        struct.pack("<H", len(a_bits)), a_bits,
        struct.pack("<H", len(b_bits)), b_bits,
        struct.pack(f"<6q{len(ACTIONS)}d", int(result.cycles),
                    int(result.products),
                    *[int(b) for b in result.util_hist.bins],
                    *[float(result.counters.get(a)) for a in ACTIONS]),
    ])
    prefix = struct.pack("<4s32sII", b"RBR1", key_digest(key), len(payload),
                         zlib.crc32(payload) & 0xFFFFFFFF)
    return prefix + payload


def _segments(store: ResultStore):
    return sorted(store.segment_dir.glob("*.seg"))


@pytest.fixture(autouse=True)
def fresh_engine_cache():
    engine.clear_cache()
    engine.unbind_store()
    yield
    engine.clear_cache()
    engine.unbind_store()


@pytest.fixture()
def root(tmp_path):
    return tmp_path / "blockstore"


class TestFormat:
    def test_insert_lookup_roundtrip(self, root):
        with ResultStore(root) as store:
            assert store.lookup(_key(1)) is None
            assert store.insert(_key(1), _row(1)) is True
            got = store.lookup(_key(1))
        assert got.dtype == np.int64 and got.shape == (VECTOR_WIDTH,)
        assert got[0] == 1 and got[1] == 2
        assert got[2:6].tolist() == [1, 0, 2, 1]
        assert got[6 + ACTIONS.index("mac_ops")] == 3
        assert got[-1] == 0
        assert np.array_equal(got, _row(1))

    def test_persists_across_reopen(self, root):
        with ResultStore(root) as store:
            for i in range(1, 6):
                store.insert(_key(i), _row(i))
            store.flush()
        with ResultStore(root) as store:
            assert len(store) == 5
            assert store.lookup(_key(3))[0] == 3

    def test_duplicate_insert_is_dropped(self, root):
        with ResultStore(root) as store:
            assert store.insert(_key(1), _row(1)) is True
            assert store.insert(_key(1), _row(1)) is False
            assert len(store) == 1
            assert store.stats.appends == 1
            assert store.stats.duplicates == 1

    def test_stats_traffic_accounting(self, root):
        with ResultStore(root) as store:
            store.insert(_key(1), _row(1))
            store.lookup(_key(1))
            store.lookup(_key(2))
            stats = store.stats
            assert (stats.hits, stats.misses, stats.lookups) == (1, 1, 2)
            assert stats.hit_rate == pytest.approx(0.5)
            assert stats.served_bytes > 0
            d = stats.as_dict()
            assert d["hits"] == 1 and d["misses"] == 1

    def test_describe_is_json_ready(self, root):
        import json

        with ResultStore(root) as store:
            store.insert(_key(1), _row(1))
            store.flush()
            doc = store.describe()
        assert doc["kind"] == "repro.store"
        assert doc["schema"] == STORE_SCHEMA
        assert doc["records"] == 1 and doc["segments"] == 1
        assert doc["bytes"] > 0
        json.dumps(doc)  # must not raise

    def test_refresh_sees_foreign_appends(self, root):
        writer = ResultStore(root)
        reader = ResultStore(root)
        try:
            writer.insert(_key(1), _row(1))
            writer.flush()
            assert reader.lookup(_key(1)) is None  # not yet scanned
            assert reader.refresh() == 1
            assert reader.lookup(_key(1))[0] == 1
        finally:
            writer.close()
            reader.close()


class TestBatchedRows:
    def test_lookup_many_equals_single_lookups(self, root):
        keys = [_key(3), _key(9), _key(1), _key(3), _key(7), _key(1)]
        with ResultStore(root) as store:
            store.insert_many([_key(i) for i in (1, 2, 3)],
                              np.stack([_row(i) for i in (1, 2, 3)]))
            before = store.stats.snapshot()
            rows, found = store.lookup_many(keys)
            batched = store.stats.delta(before)
            before = store.stats.snapshot()
            singles = [store.lookup(key) for key in keys]
            single = store.stats.delta(before)
        assert found.tolist() == [s is not None for s in singles]
        assert found.tolist() == [True, False, True, True, False, True]
        for row, want in zip(rows, singles):
            if want is None:
                assert not row.any()
            else:
                assert np.array_equal(row, want)
        assert rows.dtype == np.int64 and rows.shape == (6, VECTOR_WIDTH)
        assert ((batched.hits, batched.misses, batched.served_bytes)
                == (single.hits, single.misses, single.served_bytes)
                == (4, 2, single.served_bytes))
        assert single.served_bytes > 0

    def test_lookup_many_of_nothing(self, root):
        with ResultStore(root) as store:
            rows, found = store.lookup_many([])
            assert rows.shape == (0, VECTOR_WIDTH) and found.shape == (0,)
            assert store.stats.lookups == 0

    def test_insert_many_bytes_match_per_record_encoder(self, root):
        ids = [4, 1, 7, 1, 4, 2]  # repeats within the batch are deduped
        with ResultStore(root) as store:
            written = store.insert_many([_key(i) for i in ids],
                                        np.stack([_row(i) for i in ids]))
            assert written == 4
            assert (store.stats.appends, store.stats.duplicates) == (4, 2)
            assert store.insert_many([_key(7), _key(8)],
                                     np.stack([_row(7), _row(8)])) == 1
            store.flush()
            (seg,) = _segments(store)
        expected = b"".join(_reference_record(_key(i), _result(i))
                            for i in (4, 1, 7, 2, 8))
        assert seg.read_bytes() == expected

    def test_mixed_batch_bytes_match_per_record_encoder(self, root):
        """One batch interleaving two namespaces and both B widths (a
        run of three same-shaped keys among single-key runs), with
        in-batch repeats and already-stored keys, is framed record by
        record as the schema-1 encoder frames it, in first-occurrence
        order, and reads back row for row."""
        shapes = [("uni", 16), ("ds", 1), ("uni", 1), ("ds", 16)]
        keys = {i: _block_key(i, *shapes[i % 4]) for i in range(1, 11)}
        stored = [3, 8]
        batch = [1, 5, 9, 2, 3, 6, 4, 2, 8, 7, 1, 10, 10]
        fresh = [1, 5, 9, 2, 6, 4, 7, 10]
        with ResultStore(root) as store:
            assert store.insert_many([keys[i] for i in stored],
                                     np.stack([_row(i) for i in stored])) == 2
            written = store.insert_many([keys[i] for i in batch],
                                        np.stack([_row(i) for i in batch]))
            assert written == len(fresh)
            assert store.stats.duplicates == len(batch) - len(fresh)
            store.flush()
            (seg,) = _segments(store)
            assert seg.read_bytes() == b"".join(
                _reference_record(keys[i], _result(i)) for i in stored + fresh)
            order = sorted(keys, reverse=True)
            rows, found = store.lookup_many([keys[i] for i in order])
            assert found.all()
            assert np.array_equal(rows, np.stack([_row(i) for i in order]))
        with ResultStore(root) as store:
            assert store.verify(strict=True)["records"] == len(keys)

    def test_reads_records_of_the_object_encoder(self, root):
        """Stores written record by record before the row path replay
        unchanged: schema 1 on disk, no migration."""
        ResultStore(root).close()
        (root / "segments" / "old.seg").write_bytes(b"".join(
            _reference_record(_key(i), _result(i)) for i in (1, 2, 3)))
        with ResultStore(root) as store:
            rows, found = store.lookup_many([_key(3), _key(1), _key(2)])
            assert found.all()
            assert np.array_equal(rows, np.stack([_row(3), _row(1), _row(2)]))
            assert store.verify(strict=True)["records"] == 3

    def test_fractional_rows_round_trip_as_float(self, root):
        fractional = _row(2).astype(np.float64)
        fractional[6] = 1.5
        with ResultStore(root) as store:
            store.insert_many([_key(1), _key(2)],
                              np.stack([_row(1).astype(np.float64), fractional]))
            rows, found = store.lookup_many([_key(1), _key(2)])
            assert found.all() and rows.dtype == np.float64
            assert np.array_equal(rows[1], fractional)
            # A batch of integral hits alone decodes back to int64.
            assert store.lookup(_key(1)).dtype == np.int64

    def test_torn_batched_write_keeps_earlier_records(self, root):
        with ResultStore(root) as store:
            store.insert_many([_key(i) for i in range(1, 6)],
                              np.stack([_row(i) for i in range(1, 6)]))
            store.flush()
            (seg,) = _segments(store)
        data = seg.read_bytes()
        last = len(_reference_record(_key(5), _result(5)))
        clean = len(data) - last
        seg.write_bytes(data[:clean + last // 2])  # cut inside record 5
        with ResultStore(root) as store:  # live reader: tolerate the tail
            assert len(store) == 4 and store.stats.quarantined == 0
            rows, found = store.lookup_many([_key(i) for i in range(1, 6)])
            assert found.tolist() == [True] * 4 + [False]
            assert rows[3][0] == 4
        assert seg.stat().st_size == clean + last // 2
        with ResultStore(root, repair=True) as store:
            assert len(store) == 4
        assert seg.stat().st_size == clean

    def test_record_under_another_keys_digest_is_rejected(self, root):
        ResultStore(root).close()
        # A well-formed, CRC-valid record for key 2, filed under key
        # 1's digest: only the embedded key can tell.
        record = bytearray(_reference_record(_key(2), _result(2)))
        record[4:36] = key_digest(_key(1))
        (root / "segments" / "forged.seg").write_bytes(bytes(record))
        with ResultStore(root) as store:
            assert len(store) == 1 and store.stats.quarantined == 0
            with pytest.raises(DataCorruptionError, match="different key"):
                store.lookup_many([_key(3), _key(1)])
            with pytest.raises(DataCorruptionError, match="different key"):
                store.lookup(_key(1))
            assert store.verify()["errors"]


class TestBatchedReadChecks:
    """Every per-record check of the batched read path still runs on
    records read back to back in one ``pread``."""

    @staticmethod
    def _segment(root, records) -> Path:
        ResultStore(root).close()
        seg = root / "segments" / "old.seg"
        seg.write_bytes(b"".join(records))
        return seg

    def test_forged_record_inside_a_run_is_rejected(self, root, monkeypatch):
        # Record 2 is key 9's valid record filed under key 2's digest.
        forged = bytearray(_reference_record(_key(9), _result(9)))
        forged[4:36] = key_digest(_key(2))
        self._segment(root, [
            _reference_record(_key(1), _result(1)), bytes(forged),
            _reference_record(_key(3), _result(3)),
            _reference_record(_key(4), _result(4))])
        with ResultStore(root) as store:
            assert len(store) == 4 and store.stats.quarantined == 0
            preads = _count_preads(monkeypatch)
            with pytest.raises(DataCorruptionError, match="different key"):
                store.lookup_many([_key(i) for i in (1, 2, 3, 4)])
            assert len(preads) == 1
            rows, found = store.lookup_many([_key(3), _key(4)])
            assert found.all() and rows[:, 0].tolist() == [3, 4]

    def test_crc_flip_inside_a_run_is_caught_on_read(self, root, monkeypatch):
        seg = self._segment(root, [_reference_record(_key(i), _result(i))
                                   for i in (1, 2, 3, 4)])
        record = len(_reference_record(_key(1), _result(1)))
        with ResultStore(root) as store:
            assert len(store) == 4
            # Bit rot after indexing: flip record 2's last tail byte.
            data = bytearray(seg.read_bytes())
            data[2 * record - 1] ^= 0xFF
            seg.write_bytes(bytes(data))
            preads = _count_preads(monkeypatch)
            with pytest.raises(DataCorruptionError, match="CRC"):
                store.lookup_many([_key(i) for i in (1, 2, 3, 4)])
            assert len(preads) == 1

    def test_run_indexed_by_two_scans_is_one_pread(self, root, monkeypatch):
        """A refresh globs new ``Path`` objects for known segments; the
        records of one segment indexed before and after it still form
        one contiguous read."""
        writer = ResultStore(root)
        reader = None
        try:
            writer.insert_many([_key(1), _key(2)],
                               np.stack([_row(1), _row(2)]))
            writer.flush()
            reader = ResultStore(root)
            assert len(reader) == 2
            writer.insert_many([_key(3), _key(4)],
                               np.stack([_row(3), _row(4)]))
            writer.flush()
            assert reader.refresh() == 2
            preads = _count_preads(monkeypatch)
            rows, found = reader.lookup_many([_key(i) for i in (1, 2, 3, 4)])
            assert found.all() and rows[:, 0].tolist() == [1, 2, 3, 4]
            assert len(preads) == 1
        finally:
            writer.close()
            if reader is not None:
                reader.close()


class TestDigestOnce:
    """Machine-independent gate on the store-bound paths: the store's
    one digest function runs exactly once per LRU miss -- the store
    lookup and the write-through share it -- and never without a store."""

    @pytest.fixture()
    def digests(self, monkeypatch) -> list:
        calls = []
        real = resultstore.key_digest

        def counting(key):
            calls.append(key)
            return real(key)

        monkeypatch.setattr(resultstore, "key_digest", counting)
        return calls

    @staticmethod
    def _sweep(cache, smoke_cases) -> None:
        for _, bbc, kernel, operands in smoke_cases:
            simulate_kernel(kernel, bbc, UniSTC(), cache=cache, **operands)

    @staticmethod
    def _lru_misses(cache) -> int:
        return cache.stats.store_hits + cache.stats.store_misses

    def test_cold_sweep_digests_once_per_lru_miss(self, root, smoke_cases,
                                                 digests):
        with ResultStore(root) as store:
            cold = BlockCache(store=store)
            self._sweep(cold, smoke_cases)
            assert cold.stats.store_misses == len(store) == 1938
            assert len(digests) == self._lru_misses(cold) == 1938
            assert store.stats.appends == 1938

    def test_warm_replay_digests_once_per_lru_miss(self, root, smoke_cases,
                                                  digests):
        with ResultStore(root) as store:
            self._sweep(BlockCache(store=store), smoke_cases)
            for capacity in (None, 64):
                digests.clear()
                warm = BlockCache(capacity=capacity, store=store)
                self._sweep(warm, smoke_cases)
                assert warm.stats.store_misses == 0
                assert len(digests) == self._lru_misses(warm)
            # Under capacity pressure keys miss the LRU again (and a
            # promotion can evict a key its batch still needs).
            assert len(digests) > 1938 and warm.stats.evictions > 0
            assert store.stats.appends == 1938

    def test_storeless_cache_digests_nothing(self, smoke_cases, digests):
        cache = BlockCache()
        self._sweep(cache, smoke_cases)
        assert cache.stats.misses == 1938
        assert digests == []


class TestManifest:
    def test_missing_store_without_create_is_an_error(self, root):
        with pytest.raises(FormatError, match="no result store"):
            ResultStore(root, create=False)

    def test_schema_drift_is_rejected(self, root):
        import json

        ResultStore(root).close()
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["schema"] = STORE_SCHEMA + 99
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="schema"):
            ResultStore(root)

    def test_actions_vocabulary_drift_is_rejected(self, root):
        import json

        ResultStore(root).close()
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["actions"] = manifest["actions"][:-1]
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="ACTIONS"):
            ResultStore(root)

    def test_nested_creation_of_the_same_store(self, root, monkeypatch):
        """A second creator that runs between the first creator's tmp
        write and its replace leaves the first creator's tmp file alone."""
        real_replace = os.replace
        nested = []

        def replace(src, dst):
            if not nested:
                nested.append(src)
                ResultStore(root).close()
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with ResultStore(root) as store:
            store.insert(_key(1), _row(1))
        monkeypatch.undo()
        assert nested
        assert list(root.glob("*.tmp")) == []
        with ResultStore(root, create=False) as store:
            assert np.array_equal(store.lookup(_key(1)), _row(1))

    def test_foreign_manifest_kind_is_rejected(self, root):
        root.mkdir(parents=True)
        (root / MANIFEST_NAME).write_text('{"kind": "something-else"}')
        with pytest.raises(FormatError, match="not a repro.store"):
            ResultStore(root)


class TestCrashSemantics:
    def _store_with_torn_tail(self, root, records=3, torn=20):
        """A closed store whose single segment ends mid-record."""
        with ResultStore(root) as store:
            for i in range(1, records + 1):
                store.insert(_key(i), _row(i))
            store.flush()
            (seg,) = _segments(store)
        clean = seg.stat().st_size
        extra = _reference_record(_key(99), _result(99))[:torn]
        with open(seg, "ab") as fh:
            fh.write(extra)
        return seg, clean

    def test_torn_tail_tolerated_without_repair(self, root):
        seg, clean = self._store_with_torn_tail(root)
        with ResultStore(root) as store:
            assert len(store) == 3
            assert store.lookup(_key(2))[0] == 2
        # A live reader must not touch a foreign segment: the tail may
        # be another writer's append in progress.
        assert seg.stat().st_size == clean + 20

    def test_torn_tail_truncated_with_repair(self, root):
        seg, clean = self._store_with_torn_tail(root)
        with ResultStore(root, repair=True) as store:
            assert len(store) == 3
        assert seg.stat().st_size == clean

    def test_torn_payload_tolerated_too(self, root):
        # Tail cut inside the payload (prefix complete): still a torn
        # append, not interior corruption.
        seg, clean = self._store_with_torn_tail(root, torn=60)
        with ResultStore(root) as store:
            assert len(store) == 3
            assert store.stats.quarantined == 0

    def test_shrunk_segment_rescans_without_zero_extension(self, root):
        # A foreign gc/quarantine may *shrink* a segment a reader has
        # already scanned.  The resume offset must clamp to the new
        # EOF: a repair-mode truncate at the stale offset would
        # zero-extend the file, manufacturing framing garbage that the
        # next scan quarantines.
        with ResultStore(root) as writer:
            for i in range(1, 5):
                writer.insert(_key(i), _row(i))
            writer.flush()
            (seg,) = _segments(writer)
            full = seg.stat().st_size

            reader = ResultStore(root, repair=True)
            assert len(reader) == 4
            shrunk = full // 2
            seg.write_bytes(seg.read_bytes()[:shrunk])
            assert reader.refresh() == 0
            # No zero-extension past the new EOF, and no quarantine.
            assert seg.stat().st_size <= shrunk
            assert reader.stats.quarantined == 0
            # Stale beyond-EOF index entries degrade to misses, and
            # the segment is rescanned once it grows again.
            assert reader.lookup(_key(4)) is None
            writer.insert(_key(9), _row(9))
            writer.flush()
            assert reader.refresh() >= 1
            assert reader.lookup(_key(9))[0] == 9
            reader.close()

    def test_interior_corruption_quarantines_segment(self, root):
        with ResultStore(root) as store:
            for i in range(1, 4):
                store.insert(_key(i), _row(i))
            store.flush()
            (seg,) = _segments(store)
        data = bytearray(seg.read_bytes())
        data[60] ^= 0xFF  # flip one payload byte of the first record
        seg.write_bytes(bytes(data))
        with ResultStore(root) as store:
            assert len(store) == 0  # whole segment dropped from index
            assert store.stats.quarantined == 1
            assert not _segments(store)
            quarantined = list(store.segment_dir.glob("*.quarantined*"))
            assert len(quarantined) == 1
            # The store stays writable after quarantine.
            assert store.insert(_key(7), _row(7)) is True
            assert store.lookup(_key(7))[0] == 7

    def test_bad_magic_quarantines_segment(self, root):
        with ResultStore(root) as store:
            store.insert(_key(1), _row(1))
            store.flush()
            (seg,) = _segments(store)
        data = bytearray(seg.read_bytes())
        data[0:4] = b"JUNK"
        seg.write_bytes(bytes(data))
        with ResultStore(root) as store:
            assert len(store) == 0
            assert store.stats.quarantined == 1

    def test_verify_clean_and_corrupt(self, root):
        with ResultStore(root) as store:
            for i in range(1, 4):
                store.insert(_key(i), _row(i))
            store.flush()
            report = store.verify()
            assert report["records"] == 3 and report["errors"] == []
            (seg,) = _segments(store)
        # Corrupt a record *after* indexing: verify's CRC re-read (not
        # the open-time scan) must catch it.
        store = ResultStore(root)
        try:
            assert len(store) == 3
            data = bytearray(seg.read_bytes())
            data[-5] ^= 0xFF
            seg.write_bytes(bytes(data))
            report = store.verify()
            assert report["records"] < 3
            assert report["errors"]
            with pytest.raises(DataCorruptionError):
                store.verify(strict=True)
        finally:
            store.close()

    def test_concurrent_writers_converge(self, root):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.store import ResultStore\n"
            "from repro.arch.base import VECTOR_WIDTH\n"
            "root, tag = sys.argv[1], int(sys.argv[2])\n"
            "def row(cycles, products):\n"
            "    out = np.zeros(VECTOR_WIDTH, dtype=np.int64)\n"
            "    out[:2] = cycles, products\n"
            "    return out\n"
            "with ResultStore(root) as store:\n"
            "    for i in range(40):\n"
            "        store.insert(('ns', b'\\x01\\x02', b'\\x03'), row(11, 22))\n"
            "        store.insert(('w%d' % tag, bytes([i]), b'x'), row(i, i))\n"
            "    store.flush()\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root), str(tag)],
                env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
            )
            for tag in (1, 2)
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        with ResultStore(root) as store:
            # The racing key converged to exactly one readable record...
            got = store.lookup(("ns", b"\x01\x02", b"\x03"))
            assert got is not None and got[0] == 11
            # ...and nothing either writer appended was lost.
            assert len(store) == 1 + 2 * 40
            assert store.verify()["errors"] == []


class TestThreadSafety:
    def test_one_handle_shared_across_threads(self, root):
        # ThreadingHTTPServer hands one store handle to many handler
        # threads; interleaved insert (shared writer offset) and
        # lookup (shared reader seek/read) must stay coherent.
        from concurrent.futures import ThreadPoolExecutor

        with ResultStore(root) as store:
            def work(i):
                for j in range(40):
                    key = _key(j % 251, ns=f"t{i}")
                    assert store.insert(key, _row(j % 100)) is True
                    got = store.lookup(key)
                    assert got is not None and got[0] == j % 100

            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(work, range(8)))
            assert len(store) == 8 * 40
            report = store.verify(strict=True)
            assert report["records"] == 8 * 40 and report["errors"] == []


class TestGC:
    def test_gc_compacts_to_one_segment(self, root):
        for generation in range(3):  # three writer sessions -> 3 segments
            with ResultStore(root) as store:
                for i in range(1, 5):
                    store.insert(_key(10 * generation + i),
                                 _row(10 * generation + i))
                store.flush()
        with ResultStore(root, repair=True) as store:
            assert store.segments == 3
            report = store.gc()
            assert report.kept == 12 and report.dropped == 0
            assert report.segments_removed == 3
            assert store.segments == 1
            assert len(store) == 12
            assert store.lookup(_key(21))[0] == 21
        # The compacted store reopens clean.
        with ResultStore(root) as store:
            assert len(store) == 12
            assert store.verify()["errors"] == []

    def test_gc_budget_keeps_newest(self, root):
        with ResultStore(root) as store:
            for i in range(1, 11):
                store.insert(_key(i), _row(i))
            store.flush()
            per_record = store.bytes // 10
            report = store.gc(max_bytes=3 * per_record)
            assert report.kept == 3 and report.dropped == 7
            assert store.bytes <= 3 * per_record
            # Newest-append-first survival: the last three keys live on.
            for i in (8, 9, 10):
                assert store.lookup(_key(i)) is not None
            for i in (1, 2, 3):
                assert store.lookup(_key(i)) is None


class TestFingerprintStability:
    def test_digest_is_stable_across_processes(self, root):
        key = (UniSTC().cache_key(), b"\x01\x02\x03", b"\x04\x05")
        script = (
            "from repro.arch.unistc import UniSTC\n"
            "from repro.store import key_digest\n"
            "print(key_digest((UniSTC().cache_key(),\n"
            "                  b'\\x01\\x02\\x03', b'\\x04\\x05')).hex())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == key_digest(key).hex()

    def test_every_knob_changes_the_key(self):
        baseline = UniSTC().cache_key()
        variants = [
            UniSTC(UniSTCConfig(precision=FP32)),
            UniSTC(UniSTCConfig(num_dpgs=4)),
            UniSTC(UniSTCConfig(adaptive_ordering=False)),
            UniSTC(UniSTCConfig(dynamic_gating=False)),
            UniSTC(UniSTCConfig(conflict_stall=False)),
            UniSTC(UniSTCConfig(dpg_wakeup_cycles=3)),
            UniSTC(UniSTCConfig(lookahead_cycles=2)),
            UniSTC(ordering="inner"),
            UniSTC(fill_order="n"),
        ]
        keys = [stc.cache_key() for stc in variants]
        assert baseline not in keys
        assert len(set(keys)) == len(keys)  # pairwise distinct too
        digests = {
            key_digest((ns, b"a", b"b")) for ns in keys + [baseline]
        }
        assert len(digests) == len(keys) + 1

    def test_identical_configs_share_a_namespace(self):
        assert UniSTC().cache_key() == UniSTC(UniSTCConfig()).cache_key()


class TestBlockCacheTier:
    def test_store_hit_promotes_into_lru(self, root):
        with ResultStore(root) as store:
            store.insert(_key(1), _row(1))
            cache = BlockCache(store=store)
            assert cache.lookup(_key(1))[0] == 1
            assert (cache.stats.hits, cache.stats.store_hits) == (1, 1)
            # Promotion: the second lookup is pure LRU.
            assert cache.lookup(_key(1))[0] == 1
            assert (cache.stats.hits, cache.stats.store_hits) == (2, 1)
            assert store.stats.hits == 1

    def test_store_miss_counts_once(self, root):
        with ResultStore(root) as store:
            cache = BlockCache(store=store)
            assert cache.lookup(_key(1)) is None
            assert (cache.stats.misses, cache.stats.store_misses) == (1, 1)

    def test_insert_writes_through(self, root):
        with ResultStore(root) as store:
            cache = BlockCache(store=store)
            cache.insert(_key(5), _row(5))
            assert store.lookup(_key(5))[0] == 5

    def test_as_dict_keys_appear_only_with_store_traffic(self, root):
        cache = BlockCache()
        cache.insert(_key(1), _row(1))
        cache.lookup(_key(1))
        assert "store_hits" not in cache.stats.as_dict()
        with ResultStore(root) as store:
            tiered = BlockCache(store=store)
            tiered.lookup(_key(2))
            d = tiered.stats.as_dict()
            assert d["store_misses"] == 1 and d["store_hits"] == 0
            assert "store_hit_rate" in d

    def test_store_tier_context_manager(self, root):
        with ResultStore(root) as store:
            assert engine.bound_store() is None
            with engine.store_tier(store):
                assert engine.bound_store() is store
            assert engine.bound_store() is None

    def test_fresh_lru_replays_entirely_from_store(self, root):
        bbc = BBCMatrix.from_coo(banded(96, 10, 0.4, seed=3))
        with ResultStore(root) as store:
            cold = BlockCache(store=store)
            first = simulate_kernel("spmv", bbc, UniSTC(), cache=cold)
            assert cold.stats.inserts > 0
            store.flush()

            warm = BlockCache(store=store)  # a "new process": empty LRU
            second = simulate_kernel("spmv", bbc, UniSTC(), cache=warm)
            assert warm.stats.inserts == 0       # nothing re-simulated
            assert warm.stats.store_misses == 0  # every block served
            assert warm.stats.store_hits == cold.stats.inserts
        assert second.cycles == first.cycles
        assert second.products == first.products
        assert second.counters.as_dict() == first.counters.as_dict()


class TestRunnerStoreRoundTrip:
    def test_resilient_runner_end_to_end(self, root):
        from repro.runtime import CachePolicy, RunSpec, Session

        grid = ({"banded": "band:96:10:0.4"}, ["uni-stc"], ["spmv"])
        spec = RunSpec("corpus", cache=CachePolicy(store_dir=str(root)),
                       manifest_dir="")
        with Session(spec) as session:
            first = session.executor(*grid).run()
        assert engine.bound_store() is None
        engine.clear_cache()
        with ResultStore(root) as store:
            records = len(store)
        assert records > 0

        # A "new process": empty LRU, the store bound as its second tier.
        before = engine.cache_stats().snapshot()
        with Session(spec) as session:
            second = session.executor(*grid).run()
        delta = engine.cache_stats().delta(before)
        assert delta.store_hits == records  # replayed, not re-simulated
        assert delta.store_misses == 0
        r1 = first.results[0].report
        r2 = second.results[0].report
        assert (r1.cycles, r1.products) == (r2.cycles, r2.products)
        assert r1.counters.as_dict() == r2.counters.as_dict()
