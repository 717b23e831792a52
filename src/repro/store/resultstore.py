"""Persistent content-addressed store for per-block simulation results.

The process-local :class:`~repro.sim.blockcache.BlockCache` memoises
block results for one process lifetime; every new campaign, DSE
strategy and worker fleet re-pays the same cold simulation work.  The
:class:`ResultStore` makes those results durable and shareable: a
directory of append-only **segment** files plus an in-memory index,
keyed by the sha256 of ``(STC namespace, A bits, B bits)``.

Design points, in the order they matter:

**Content addressing.**  The key digest covers the model's canonical
configuration fingerprint (:meth:`~repro.arch.base.STCModel.cache_key`)
and the exact operand bitmaps.  Block results are pure functions of
that triple — the kernel only shapes *which* blocks a sweep visits,
never what an individual block costs — so any two processes that agree
on the digest may share the record.  ``tests/test_store.py`` pins the
fingerprint→key stability contract across processes and config knobs.

**Multi-writer safety without file locks.**  Each writing process
appends to its *own* segment file (named after its pid plus a random
suffix), so concurrent workers never interleave writes.  Readers scan
every segment and deduplicate by digest; racing writers that simulate
the same block simply produce duplicate records with identical
payloads, which :meth:`gc` later compacts away.  *Within* a process a
single handle may also be shared by several threads (the ``repro
serve`` front-end does): an internal re-entrant lock serialises every
index mutation and file-handle seek/read/write, so one handle is
thread-safe too.

**Crash semantics** mirror the journal-hardening contract of
:mod:`repro.resilience.runner`: a *torn final record* (short read at
end of file — the classic power-cut artefact of an append-only log) is
tolerated and, on the owning writer's next open, truncated away; a
complete record that fails its magic or CRC check is *interior
corruption* and quarantines the whole segment (renamed to
``*.quarantined``, records dropped from the index, structured warning
+ ``store.segments_quarantined`` metric).  :meth:`verify` re-reads
everything and raises :class:`~repro.errors.DataCorruptionError` in
strict mode.

**GC/compaction.**  :meth:`gc` rewrites the live records (newest
first, deduplicated) into one compact segment under a byte budget and
deletes the old segments.  It is an offline operation for the store
owner — run it between campaigns, not while workers are appending.

On-disk layout::

    <root>/STORE.json          # {"kind", "schema", "actions": [...]}
    <root>/segments/*.seg      # append-only record logs, one per writer
    <root>/segments/*.seg.quarantined   # corrupt segments, kept for autopsy

Record framing (little-endian)::

    magic  digest  payload_len  crc32(payload)  payload
    4B     32B     u32          u32             payload_len bytes

and the payload packs the namespace/bitmap key (length-prefixed) plus
a fixed numeric tail: the block's action row (cycles, products and the
four utilisation bins as int64, then one float64 per
:data:`~repro.arch.counters.ACTIONS` entry, in vocabulary order).  The
vocabulary itself is recorded in ``STORE.json`` so a vocabulary change
is a loud :class:`~repro.errors.FormatError`, never a silent
misinterpretation.

**Rows, in batches.**  The store speaks the engine's currency: the
``[N, VECTOR_WIDTH]`` action-row matrix that
:meth:`~repro.arch.base.STCModel.simulate_blocks` returns (layout:
:data:`~repro.arch.base.VECTOR_WIDTH`).  Both batch methods accept the
keys' digests precomputed (:meth:`ResultStore.key_digests`), so a
caller that looks a batch up and then writes its misses through
hashes each key once.  :meth:`ResultStore.lookup_many` returns at once
when no key is indexed; otherwise it decodes every hit's numeric tail
with one ``np.frombuffer`` and checks each record's embedded key
against the requested one.  :meth:`ResultStore.insert_many` frames
each run of keys that share a namespace and A/B widths as one
structured numpy array (prefix, key head and tail per record; one
CRC32 per record) and appends the whole batch with one ``write()``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
import threading
import uuid
import zlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, repeat
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.arch.base import VECTOR_WIDTH
from repro.arch.counters import ACTIONS
from repro.errors import DataCorruptionError, FormatError

logger = logging.getLogger(__name__)

#: On-disk schema version; bumped on any incompatible format change.
STORE_SCHEMA = 1

#: Manifest file name inside the store root.
MANIFEST_NAME = "STORE.json"

#: Record framing magic ("Repro Block Record, format 1").
_MAGIC = b"RBR1"

#: magic + sha256 digest + payload length + payload CRC32.
_PREFIX = struct.Struct("<4s32sII")

#: Length prefix of each of the payload's three key fields.
_U16 = struct.Struct("<H")

#: Fixed numeric tail of a payload (``<6q17d``): cycles, products, 4
#: util bins (i64) then one f64 per action in vocabulary order.
_TAIL = np.dtype([("ints", "<i8", (6,)), ("actions", "<f8", (len(ACTIONS),))])

#: Sanity bound on payload size — far above any real record (a record
#: is ~300 bytes); a "length" beyond this is corruption, not a payload.
_MAX_PAYLOAD = 1 << 20

#: Store key type — mirrors :data:`repro.sim.blockcache.CacheKey`.
StoreKey = Tuple[str, bytes, bytes]


def key_digest(key: StoreKey) -> bytes:
    """The 32-byte content address of a cache key.

    sha256 over ``namespace \\x1f a_bits \\x1f b_bits`` where the
    namespace is the model's canonical config fingerprint
    (:meth:`~repro.arch.base.STCModel.cache_key`).  Stable across
    processes and platforms by construction.
    """
    namespace, a_bits, b_bits = key
    h = _namespace_parts(namespace)[0].copy()
    h.update(a_bits)
    h.update(b"\x1f")
    h.update(b_bits)
    return h.digest()


def _key_head(key: StoreKey) -> bytes:
    """A payload's key section: three u16-length-prefixed fields."""
    namespace, a_bits, b_bits = key
    _, ns_field = _namespace_parts(namespace)
    return b"".join((ns_field, _U16.pack(len(a_bits)), a_bits,
                     _U16.pack(len(b_bits)), b_bits))


@lru_cache(maxsize=64)
def _namespace_parts(namespace: str) -> Tuple["hashlib._Hash", bytes]:
    """A namespace's sha256 state over ``namespace \\x1f`` and its
    payload key field.

    Every key of a sweep shares its model's namespace, so both are
    built once per namespace, not once per block (a copied hash state
    also skips the digest's per-call set-up).
    """
    ns = namespace.encode("utf-8")
    return hashlib.sha256(ns + b"\x1f"), _U16.pack(len(ns)) + ns


def _payload_key(payload: bytes) -> StoreKey:
    """Parse the key a payload embeds, checking the tail's size."""
    view = memoryview(payload)
    offset = 0
    fields = []
    for _ in range(3):
        if offset + 2 > len(view):
            raise DataCorruptionError("store payload truncated inside key")
        (length,) = _U16.unpack_from(view, offset)
        offset += 2
        if offset + length > len(view):
            raise DataCorruptionError("store payload key overruns record")
        fields.append(bytes(view[offset:offset + length]))
        offset += length
    _check_tail(len(view) - offset)
    return fields[0].decode("utf-8"), fields[1], fields[2]


def _check_tail(size: int) -> None:
    if size != _TAIL.itemsize:
        raise DataCorruptionError(
            f"store payload numeric block is {size} bytes, "
            f"expected {_TAIL.itemsize} (ACTIONS vocabulary mismatch?)")


@lru_cache(maxsize=64)
def _record_dtype(ns_len: int, a_len: int, b_len: int) -> np.dtype:
    """One framed record of a key with these field widths: the prefix
    (magic, digest, payload length, CRC) then the payload (the three
    length-prefixed key fields and the numeric tail), packed."""
    return np.dtype([
        ("magic", "S4"), ("digest", "S32"), ("length", "<u4"),
        ("crc", "<u4"),
        ("ns_len", "<u2"), ("ns", "u1", (ns_len,)),
        ("a_len", "<u2"), ("a", "u1", (a_len,)),
        ("b_len", "<u2"), ("b", "u1", (b_len,)),
        ("tail", _TAIL),
    ])


def _frame_run(namespace: str, a_bits: Sequence[bytes],
               b_bits: Sequence[bytes], digests: Sequence[bytes],
               rows: np.ndarray) -> Tuple[bytes, int, List[int]]:
    """Framed records of the keys ``(namespace, a_bits[i], b_bits[i])``,
    whose A and B bitmaps each share one width.

    Returns ``(blob, payload_len, crcs)``: the records back to back,
    each record's payload length and each payload's CRC32.  The bytes
    equal the per-record schema-1 encoder's.
    """
    ns = _namespace_parts(namespace)[1][2:]
    n, a_len, b_len = len(a_bits), len(a_bits[0]), len(b_bits[0])
    rec = np.empty(n, dtype=_record_dtype(len(ns), a_len, b_len))
    size = rec.dtype.itemsize
    payload_len = size - _PREFIX.size
    rec["magic"] = _MAGIC
    rec["digest"] = np.frombuffer(b"".join(digests), dtype="S32")
    rec["length"] = payload_len
    rec["ns_len"] = len(ns)
    rec["ns"] = np.frombuffer(ns, dtype=np.uint8)
    rec["a_len"] = a_len
    rec["a"] = np.frombuffer(b"".join(a_bits), dtype=np.uint8).reshape(n, a_len)
    rec["b_len"] = b_len
    rec["b"] = np.frombuffer(b"".join(b_bits), dtype=np.uint8).reshape(n, b_len)
    rec["tail"]["ints"] = rows[:, :6]
    rec["tail"]["actions"] = rows[:, 6:]
    flat = memoryview(rec.view(np.uint8))
    crc32 = zlib.crc32
    crcs = [crc32(flat[at:at + payload_len])
            for at in range(_PREFIX.size, n * size, size)]
    rec["crc"] = crcs
    return rec.tobytes(), payload_len, crcs


def _decode_tails(blob: bytes) -> np.ndarray:
    """Rows from back-to-back tails: int64 unless a counter is fractional."""
    tails = np.frombuffer(blob, dtype=_TAIL)
    actions = tails["actions"]
    with np.errstate(invalid="ignore"):
        as_int = actions.astype(np.int64)
    if np.array_equal(as_int, actions):
        return np.concatenate((tails["ints"], as_int), axis=1)
    return np.concatenate((tails["ints"].astype(np.float64), actions), axis=1)


@dataclass
class StoreStats:
    """Observable counters of one :class:`ResultStore` handle.

    ``hits``/``misses``/``appends``/``served_bytes`` count this
    handle's traffic; ``quarantined`` counts segments this handle has
    quarantined (across opens and :meth:`ResultStore.refresh` calls).
    """

    hits: int = 0
    misses: int = 0
    appends: int = 0
    duplicates: int = 0
    served_bytes: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> "StoreStats":
        return StoreStats(hits=self.hits, misses=self.misses,
                          appends=self.appends, duplicates=self.duplicates,
                          served_bytes=self.served_bytes,
                          quarantined=self.quarantined)

    def delta(self, since: "StoreStats") -> "StoreStats":
        return StoreStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            appends=self.appends - since.appends,
            duplicates=self.duplicates - since.duplicates,
            served_bytes=self.served_bytes - since.served_bytes,
            quarantined=self.quarantined - since.quarantined,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "appends": self.appends,
            "duplicates": self.duplicates,
            "served_bytes": self.served_bytes,
            "quarantined": self.quarantined,
            "hit_rate": self.hit_rate,
        }


#: Index entry: where a record's payload lives on disk, as
#: ``(segment id, payload offset, payload length, payload CRC32)``.  A
#: tuple of ints: the cold path indexes a whole batch per
#: ``insert_many``, and the garbage collector need not track it.
_Entry = Tuple[int, int, int, int]


@dataclass
class GCReport:
    """Outcome of one :meth:`ResultStore.gc` compaction."""

    kept: int
    dropped: int
    bytes_before: int
    bytes_after: int
    segments_removed: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "kept": self.kept,
            "dropped": self.dropped,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "segments_removed": self.segments_removed,
        }


class ResultStore:
    """A persistent, multi-process-safe block-result store.

    Parameters
    ----------
    root:
        Store directory.  Created (with its manifest) when missing and
        ``create=True``; otherwise the manifest is validated against
        this build's schema and ACTIONS vocabulary.
    create:
        Whether a missing store may be initialised.  ``repro store``
        inspection commands pass ``False`` so a typo'd path is a loud
        error instead of a fresh empty store.
    repair:
        The opener asserts no other process is writing the store, so a
        torn final record on *any* segment is truncated away at scan
        time instead of merely tolerated.  Maintenance entry points
        (``repro store verify|gc``) open with ``repair=True``; live
        campaign readers must not, because a foreign writer's torn
        tail may simply be an append in progress.
    """

    def __init__(self, root: Union[str, Path], create: bool = True,
                 repair: bool = False):
        self.root = Path(root)
        self.repair = repair
        self.stats = StoreStats()
        # One handle may serve several threads (ThreadingHTTPServer in
        # repro serve): the lock serialises index mutation and the
        # shared reader/writer handles' reads and writes.
        # Re-entrant because gc() nests flush() and close().
        self._lock = threading.RLock()
        self._index: Dict[bytes, _Entry] = {}
        self._scanned: Dict[Path, int] = {}      # segment -> clean end offset
        # Segment ids of index entries: one per segment path, however
        # many scans index its records.
        self._segment_ids: Dict[Path, int] = {}
        self._segment_paths: List[Path] = []
        self._writer: Optional[object] = None    # lazily opened file handle
        self._writer_path: Optional[Path] = None
        self._readers: Dict[Path, object] = {}
        self._load_manifest(create)
        self.segment_dir.mkdir(parents=True, exist_ok=True)
        self.refresh()

    # -- lifecycle --------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def segment_dir(self) -> Path:
        return self.root / "segments"

    def _load_manifest(self, create: bool) -> None:
        path = self.manifest_path
        if not path.exists():
            if not create:
                raise FormatError(f"no result store at {self.root} "
                                  f"({MANIFEST_NAME} missing)")
            self.root.mkdir(parents=True, exist_ok=True)
            manifest = {"kind": "repro.store", "schema": STORE_SCHEMA,
                        "actions": list(ACTIONS)}
            # A tmp name per creator: two processes creating the same
            # store must not replace each other's tmp file.
            tmp = path.with_name(
                f"{MANIFEST_NAME}.{os.getpid():d}-{uuid.uuid4().hex[:8]}.tmp")
            tmp.write_text(json.dumps(manifest, indent=2) + "\n",
                           encoding="utf-8")
            os.replace(tmp, path)
            return
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"unreadable store manifest {path}: {exc}") \
                from exc
        if manifest.get("kind") != "repro.store":
            raise FormatError(f"{path} is not a repro.store manifest")
        if manifest.get("schema") != STORE_SCHEMA:
            raise FormatError(
                f"store schema {manifest.get('schema')!r} unsupported "
                f"(this build reads schema {STORE_SCHEMA})")
        if list(manifest.get("actions", [])) != list(ACTIONS):
            raise FormatError(
                "store ACTIONS vocabulary differs from this build; refusing "
                "to reinterpret counters positionally")

    def close(self) -> None:
        """Flush and release every file handle (safe to call twice)."""
        with self._lock:
            if self._writer is not None:
                try:
                    self._writer.flush()
                    os.fsync(self._writer.fileno())
                except OSError:  # pragma: no cover - best-effort flush
                    pass
                self._writer.close()
                self._writer = None
            for handle in self._readers.values():
                handle.close()
            self._readers.clear()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return (f"ResultStore(root={str(self.root)!r}, "
                f"records={len(self._index)}, "
                f"segments={len(self._scanned)})")

    # -- scanning ---------------------------------------------------------

    def refresh(self) -> int:
        """Scan for records appended by other writers; returns new count.

        Known segments resume from their last clean offset, newly
        discovered segments are scanned from the start.  Quarantine and
        torn-tail handling run exactly as at open time.
        """
        with self._lock:
            new = 0
            for seg in sorted(self.segment_dir.glob("*.seg")):
                if seg == self._writer_path:
                    continue  # our own appends are indexed as they happen
                new += self._scan_segment(seg, self._scanned.get(seg, 0))
            self._publish_gauges()
            return new

    def _scan_segment(self, seg: Path, start: int) -> int:
        """Index records in ``seg`` from ``start``; returns records added."""
        sid = self._segment_id(seg)
        try:
            data = seg.read_bytes()
        except FileNotFoundError:
            return 0  # raced with gc/quarantine in another process
        # A known segment may have *shrunk* since the last scan (a
        # foreign gc/quarantine recreated it); resuming past EOF would
        # make the torn-tail arithmetic negative and a repair-mode
        # truncate would zero-extend the file.  Clamp and resume at
        # the (new) end; stale index entries fail their short-read
        # check on re-read and degrade to misses.
        offset, added = min(start, len(data)), 0
        own = seg == self._writer_path
        while True:
            if offset + _PREFIX.size > len(data):
                break  # torn or absent prefix at EOF -> tail
            magic, digest, length, crc = _PREFIX.unpack_from(data, offset)
            if magic != _MAGIC or length > _MAX_PAYLOAD:
                self._quarantine(seg, offset, "bad record framing")
                return added
            payload_at = offset + _PREFIX.size
            if payload_at + length > len(data):
                break  # torn payload at EOF -> tail
            payload = data[payload_at:payload_at + length]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                self._quarantine(seg, offset, "payload CRC mismatch")
                return added
            if digest not in self._index:
                self._index[digest] = (sid, payload_at, length, crc)
                added += 1
            offset = payload_at + length
        self._scanned[seg] = offset
        torn = len(data) - offset
        if torn > 0 and (own or self.repair):
            # Either our own segment (no concurrent writer by
            # construction: names embed pid + random suffix) or a
            # repair-mode open where the caller asserts sole ownership
            # -- drop the torn tail so the segment ends clean.
            logger.warning("store: truncating %d torn byte(s) from %s",
                           torn, seg.name)
            with open(seg, "r+b") as fh:
                fh.truncate(offset)
        elif torn > 0:
            # A foreign writer may simply be mid-append; tolerate.
            logger.debug("store: %s has %d trailing byte(s), "
                         "possibly an in-progress append", seg.name, torn)
        return added

    def _segment_id(self, seg: Path) -> int:
        """The id index entries use for ``seg``, assigned on first use."""
        sid = self._segment_ids.get(seg)
        if sid is None:
            sid = self._segment_ids[seg] = len(self._segment_paths)
            self._segment_paths.append(seg)
        return sid

    def _quarantine(self, seg: Path, offset: int, reason: str) -> None:
        """Interior corruption: sideline the segment, drop its records."""
        sid = self._segment_ids.pop(seg, None)
        dropped = [d for d, e in self._index.items() if e[0] == sid]
        for digest in dropped:
            del self._index[digest]
        self._scanned.pop(seg, None)
        handle = self._readers.pop(seg, None)
        if handle is not None:
            handle.close()
        target = seg.with_name(seg.name + ".quarantined")
        n = 0
        while target.exists():
            n += 1
            target = seg.with_name(f"{seg.name}.quarantined.{n}")
        try:
            os.replace(seg, target)
        except OSError:  # pragma: no cover - raced with another scanner
            target = seg
        self.stats.quarantined += 1
        obs.inc("store.segments_quarantined")
        logger.error(
            "store: quarantined segment %s at offset %d (%s); "
            "%d record(s) dropped from the index, file kept as %s",
            seg.name, offset, reason, len(dropped), target.name)

    # -- lookups and appends ----------------------------------------------

    def key_digests(self, keys: Sequence[StoreKey]) -> List[bytes]:
        """``keys``' content addresses (:func:`key_digest`), in order.

        Pass them to :meth:`lookup_many` and :meth:`insert_many` to
        hash a batch once for both.
        """
        return [key_digest(key) for key in keys]

    def lookup_many(self, keys: Sequence[StoreKey],
                    digests: Optional[Sequence[bytes]] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fetch stored rows: ``(rows [N, VECTOR_WIDTH], found [N])``.

        ``rows[i]`` is ``keys[i]``'s action row where ``found[i]``, and
        zeros on a miss.  ``digests`` are the keys' digests when the
        caller already holds them (:meth:`key_digests`).  A batch with
        no indexed key returns at once.  Otherwise hits adjacent on
        disk are read with one ``pread``; every record's CRC and
        embedded key are checked, and all hits' numeric tails are
        decoded in one ``np.frombuffer``.  The matrix is int64 unless a
        hit's counters are fractional.  A record whose embedded key
        differs from the requested one raises
        :class:`~repro.errors.DataCorruptionError`.
        """
        if digests is None:
            digests = self.key_digests(keys)
        tails: List[bytes] = []
        found: List[bool] = []
        served = 0
        with self._lock:
            index = self._index
            entries = [index.get(digest) for digest in digests]
            if entries.count(None) == len(entries):
                buf, starts = b"", entries  # nothing indexed: no reads
            else:
                buf, starts = self._read_batch(entries)
            for key, entry, start in zip(keys, entries, starts):
                found.append(start is not None)
                if start is None:
                    continue  # a miss, or a stale entry degraded to one
                head = _key_head(key)
                if not buf.startswith(head, start):
                    raise DataCorruptionError(
                        f"store record in {self._segment_paths[entry[0]].name}"
                        " embeds a different key than the one its digest "
                        "was requested for")
                _check_tail(entry[2] - len(head))
                tail = start + len(head)
                tails.append(buf[tail:tail + _TAIL.itemsize])
                served += entry[2]
            hits = len(tails)
            self.stats.hits += hits
            self.stats.misses += len(keys) - hits
            self.stats.served_bytes += served
        if hits:
            obs.inc("store.hits", hits)
        if len(keys) > hits:
            obs.inc("store.misses", len(keys) - hits)
        mask = np.array(found, dtype=bool)
        if not hits:
            return np.zeros((len(keys), VECTOR_WIDTH), dtype=np.int64), mask
        decoded = _decode_tails(b"".join(tails))
        rows = np.zeros((len(keys), VECTOR_WIDTH), dtype=decoded.dtype)
        rows[mask] = decoded
        return rows, mask

    def lookup(self, key: StoreKey) -> Optional[np.ndarray]:
        """One key's stored row, or ``None`` on miss."""
        rows, found = self.lookup_many([key])
        return rows[0] if found[0] else None

    def _read_batch(self, entries: List[Optional[_Entry]]
                    ) -> Tuple[bytes, List[Optional[int]]]:
        """Read and CRC-check the payloads of ``entries``, in one buffer.

        Returns ``(buf, starts)``: ``entries[i]``'s payload begins at
        ``buf[starts[i]]``, and ``starts[i]`` is None for a missing
        entry or a stale one (its segment is gone or shorter).  A run
        of entries that follow each other in one segment is read with
        one ``pread``.  The caller holds the lock.
        """
        chunks: List[bytes] = []
        starts: List[Optional[int]] = []
        size, i, n = 0, 0, len(entries)
        while i < n:
            first = entries[i]
            if first is None:
                starts.append(None)
                i += 1
                continue
            sid, base, length, _ = first
            j, end = i + 1, base + length
            while j < n:
                entry = entries[j]
                if (entry is None or entry[0] != sid
                        or entry[1] != end + _PREFIX.size):
                    break
                end = entry[1] + entry[2]
                j += 1
            seg = self._segment_paths[sid]
            fd = self._reader(seg)
            chunk = b"" if fd is None else os.pread(fd, end - base, base)
            view, have = memoryview(chunk), len(chunk)
            for _, offset, length, crc in entries[i:j]:
                lo = offset - base
                hi = lo + length
                if hi > have:
                    starts.append(None)  # segment shrank under us
                elif zlib.crc32(view[lo:hi]) != crc:
                    raise DataCorruptionError(
                        f"store record in {seg.name} failed its CRC on "
                        "re-read (disk-level corruption after indexing)")
                else:
                    starts.append(size + lo)
            chunks.append(chunk)
            size += have
            i = j
        return b"".join(chunks), starts

    def _reader(self, seg: Path) -> Optional[int]:
        """A read descriptor for ``seg``, or None once it is gone.

        The caller holds the lock.
        """
        handle = self._readers.get(seg)
        if handle is None:
            try:
                handle = open(seg, "rb", buffering=0)
            except FileNotFoundError:
                return None  # segment gc'd/quarantined under us
            self._readers[seg] = handle
        return handle.fileno()

    def _read_payload(self, entry: _Entry) -> Optional[bytes]:
        """One record's CRC-checked payload, or None when it is stale.

        The caller holds the lock.
        """
        buf, (start,) = self._read_batch([entry])
        return None if start is None else buf[start:start + entry[2]]

    def insert_many(self, keys: Sequence[StoreKey], rows: np.ndarray,
                    digests: Optional[Sequence[bytes]] = None) -> int:
        """Append one record per key whose digest is not yet indexed.

        ``rows`` is the ``[N, VECTOR_WIDTH]`` matrix of ``keys``' action
        rows; ``digests`` are the keys' digests when the caller already
        holds them (:meth:`key_digests`).  Keys already stored, or
        repeated within the batch, count as duplicates; the rest are
        written in first-occurrence order.  Each run of keys sharing a
        namespace and A/B widths is framed as one structured array
        (:func:`_frame_run`), and the batch is one ``write()`` call on an
        append-mode handle, so concurrent writers to *different*
        segments never interleave and a crash leaves at worst one torn
        record at the tail.  Returns the number of records written.
        """
        if digests is None:
            digests = self.key_digests(keys)
        rows = np.asarray(rows)
        with self._lock:
            index = self._index
            first: Dict[bytes, int] = {}
            for i, digest in enumerate(digests):
                if digest not in index:
                    first.setdefault(digest, i)
            self.stats.duplicates += len(keys) - len(first)
            if not first:
                return 0
            if len(first) < len(keys):
                picked = list(first.values())
                keys = [keys[i] for i in picked]
                rows = rows[picked]
            digests = list(first)
            namespaces, a_bits, b_bits = zip(*keys)
            runs = groupby(zip(namespaces, map(len, a_bits), map(len, b_bits)))
            writer = self._open_writer()
            sid, offset = self._segment_ids[self._writer_path], writer.tell()
            blobs: List[bytes] = []
            entries = []
            lo = 0
            for (namespace, _, _), run in runs:
                hi = lo + len(list(run))
                blob, length, crcs = _frame_run(
                    namespace, a_bits[lo:hi], b_bits[lo:hi], digests[lo:hi],
                    rows[lo:hi])
                size = length + _PREFIX.size
                entries.append(zip(
                    digests[lo:hi],
                    zip(repeat(sid), range(offset + _PREFIX.size,
                                           offset + len(blob), size),
                        repeat(length), crcs)))
                blobs.append(blob)
                offset += len(blob)
                lo = hi
            writer.write(b"".join(blobs))
            writer.flush()
            for run_entries in entries:
                index.update(run_entries)
            self._scanned[self._writer_path] = offset
            self.stats.appends += len(digests)
        obs.inc("store.appends", len(digests))
        return len(digests)

    def insert(self, key: StoreKey, row: np.ndarray) -> bool:
        """Append one key's row unless stored; True when written."""
        return self.insert_many([key], np.asarray(row)[None]) == 1

    def _open_writer(self):
        if self._writer is None:
            name = f"w{os.getpid():d}-{uuid.uuid4().hex[:8]}.seg"
            self._writer_path = self.segment_dir / name
            self._writer = open(self._writer_path, "ab")
            self._scanned[self._writer_path] = 0
            self._segment_id(self._writer_path)
        return self._writer

    def flush(self) -> None:
        """Push buffered appends to the OS (fsync included)."""
        with self._lock:
            if self._writer is not None:
                self._writer.flush()
                os.fsync(self._writer.fileno())

    # -- maintenance ------------------------------------------------------

    @property
    def bytes(self) -> int:
        """Total on-disk size of live (non-quarantined) segments."""
        total = 0
        for seg in self.segment_dir.glob("*.seg"):
            try:
                total += seg.stat().st_size
            except FileNotFoundError:  # pragma: no cover
                continue
        return total

    @property
    def segments(self) -> int:
        """Number of live segment files."""
        return sum(1 for _ in self.segment_dir.glob("*.seg"))

    def _publish_gauges(self) -> None:
        if obs.enabled():
            obs.set_gauge("store.records", float(len(self._index)))
            obs.set_gauge("store.bytes", float(self.bytes))

    def describe(self) -> Dict[str, object]:
        """A JSON-ready description (``repro store stat``)."""
        return {
            "kind": "repro.store",
            "schema": STORE_SCHEMA,
            "root": str(self.root),
            "records": len(self._index),
            "segments": self.segments,
            "bytes": self.bytes,
            "quarantined_segments": sum(
                1 for _ in self.segment_dir.glob("*.quarantined*")),
            "stats": self.stats.as_dict(),
        }

    def verify(self, strict: bool = False) -> Dict[str, object]:
        """Re-read every indexed record, checking framing and CRCs.

        Returns ``{"records", "bytes", "errors": [...]}``.  With
        ``strict=True`` the first failure raises
        :class:`~repro.errors.DataCorruptionError` instead.
        """
        errors: List[str] = []
        checked = checked_bytes = 0
        with self._lock:
            entries = sorted(self._index.items())
        for digest, entry in entries:
            try:
                with self._lock:
                    payload = self._read_payload(entry)
                name = self._segment_paths[entry[0]].name
                if payload is None:
                    raise DataCorruptionError(f"record in {name} vanished")
                if key_digest(_payload_key(payload)) != digest:
                    raise DataCorruptionError(
                        f"record in {name} decodes to a different key than "
                        "its digest")
            except DataCorruptionError as exc:
                if strict:
                    raise
                errors.append(str(exc))
                continue
            checked += 1
            checked_bytes += entry[2]
        return {"records": checked, "bytes": checked_bytes, "errors": errors}

    def gc(self, max_bytes: Optional[int] = None) -> GCReport:
        """Compact live records into one segment under a byte budget.

        Records are kept newest-append-first (an LRU-flavoured policy:
        segment scan order is append order, so the records most likely
        to be re-requested — the latest corpus's — survive).  With
        ``max_bytes=None`` everything is kept and gc is pure
        deduplication/compaction.  Offline only: run it when no other
        process is writing the store.
        """
        with self._lock:
            return self._gc_locked(max_bytes)

    def _gc_locked(self, max_bytes: Optional[int]) -> GCReport:
        self.flush()
        bytes_before = self.bytes
        old_segments = sorted(self.segment_dir.glob("*.seg"))
        # Newest entries last in scan order; walk reversed so the most
        # recently appended survive the budget.
        records: List[bytes] = []
        kept = dropped = budget_used = 0
        for digest, entry in reversed(list(self._index.items())):
            payload = self._read_payload(entry)
            if payload is None:
                dropped += 1
                continue
            framed = _PREFIX.pack(_MAGIC, digest, len(payload), entry[3]) \
                + payload
            if max_bytes is not None and budget_used + len(framed) > max_bytes:
                dropped += 1
                continue
            records.append(framed)
            budget_used += len(framed)
            kept += 1
        self.close()
        compact = self.segment_dir / f"c{os.getpid():d}-{uuid.uuid4().hex[:8]}.seg"
        with open(compact, "wb") as fh:
            for framed in reversed(records):  # restore append order
                fh.write(framed)
            fh.flush()
            os.fsync(fh.fileno())
        for seg in old_segments:
            if seg != compact:
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        self._index.clear()
        self._scanned.clear()
        self._segment_ids.clear()
        self._segment_paths.clear()
        self._writer_path = None
        self._scan_segment(compact, 0)
        self._publish_gauges()
        report = GCReport(kept=kept, dropped=dropped,
                          bytes_before=bytes_before, bytes_after=self.bytes,
                          segments_removed=len(old_segments))
        logger.info("store gc: kept %d, dropped %d, %d -> %d bytes",
                    report.kept, report.dropped,
                    report.bytes_before, report.bytes_after)
        return report
