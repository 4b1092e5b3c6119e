"""Persistent two-tier region store: RAM L1 over a memory-mapped disk L2.

Theorem 2 makes a certified region interpretation *canonical*: every
certified solve inside an activation region recovers the same exact
``(D, B)`` stack, so a region's parameters never go stale relative to
the model that produced them — they are cacheable forever.  The serving
tier of PRs 1–4 nevertheless *discards* certified regions on LRU/TTL
eviction and pays a full closed-form re-solve on the region's next
query, capping the servable inventory at what fits in RAM.

This module lifts that cap with a second tier:

* **L1** is the existing in-memory
  :class:`~repro.serving.cache.RegionCache` — packed stacks and
  one-matmul membership scans.
* **L2** (:class:`SegmentStore`) is an append-only, memory-mapped
  on-disk segment store.  The segments *are* the log: each record is a
  self-describing packed ``(D, B)`` region, CRC-framed (so a torn tail
  from a crash mid-append is detected and ignored) and carrying its
  :func:`region_signature` in the frame header.
  By Theorem 2 a record never changes after its fsync, so the published
  ``index.json`` holds no per-record rows — only a *watermark* (publish
  epoch, segment list, per-segment published tails, the recency
  counter) plus the positions of dead records (*tombstones*).  Opening
  scans the segments and adopts every whole frame not tombstoned; a
  reader catching up to a new publish scans only the bytes appended
  since its last catch-up.  Crash safety is append-then-fsync for
  record data plus atomic (write-temp-then-``os.replace``) rename for
  the index; a publish costs the same at ten or ten thousand records.

:class:`TieredRegionStore` composes the tiers: eviction from L1
**demotes** the region to L2 instead of dropping it (via the cache's
``on_evict`` hook), and an L1 miss scans the live L2 records with the
*same* one-matmul membership test the RAM tier uses — over resident
packed stacks the records' rows were copied into when they were adopted
— then **promotes** hits back into L1 (reading the record's bytes from
the mmap'd segment).  Both paths move the identical float64
bytes, so the tiered store preserves the serving layer's exactness
contract end to end: interpretations are bitwise identical with L2 off,
L2 on, and after any number of demote → promote round trips (gated by
``benchmarks/bench_tiered_store.py`` and pinned in
``tests/test_store.py``).

Disk growth is bounded: ``max_bytes`` caps the *live* payload (stalest
live records are marked dead first — costing a re-solve, never a wrong
answer, exactly like RAM eviction), and segments are compacted (live
records rewritten into a fresh segment, dead ones dropped, old segments
deleted after an atomic index swap) whenever the dead-byte ratio
exceeds ``compact_ratio`` — so total segment bytes stay within
``max_bytes / (1 - compact_ratio)`` plus one in-flight record.

See ``docs/serving.md`` for the operator guide (CLI flags, sizing,
restart workflow) and ``docs/architecture.md`` for where the tier
sits in the data flow.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import threading
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.equations import DEFAULT_PROB_FLOOR
from repro.core.types import CoreParameterEstimate, Interpretation
from repro.exceptions import ValidationError
from repro.serving.cache import (
    DEFAULT_MEMBERSHIP_TOL,
    RegionCache,
    RegionCacheEntry,
    _PackedGroup,
    check_lookup_shapes,
    membership_scan,
)
from repro.serving.index import (
    DEFAULT_INDEX_BITS,
    DEFAULT_INDEX_SHORTLIST,
    RegionSignIndex,
    check_index_bits,
)
from repro.utils.validation import check_positive

__all__ = [
    "region_signature",
    "signature_of",
    "SIGNATURE_DECIMALS",
    "SegmentStore",
    "L2ReaderCache",
    "TieredRegionStore",
    "TieredStoreStats",
    "RECORD_MAGIC",
    "INDEX_VERSION",
    "DEFAULT_COMPACT_RATIO",
]

#: Quantization applied to ``(D, B)`` before hashing: two certified
#: solves of the same region agree to solver rounding error (~1e-12), so
#: rounding to 6 decimals collapses them to one signature while distinct
#: regions (whose hyperplanes differ at O(1)) keep distinct signatures.
SIGNATURE_DECIMALS: int = 6

#: Framing magic of one L2 record; a scan stops (and the tail is
#: truncated) at the first frame whose magic or CRC does not check out.
RECORD_MAGIC: bytes = b"RGS1"

#: On-disk index format version.  Version 2 is the watermark plus
#: tombstones; a version-1 index (one row per record) still opens — its
#: dead rows become tombstones and a writer republishes it as version 2.
#: The segments alone rebuild every record, so a lost index only
#: revives retired regions (still exact, by Theorem 2).
INDEX_VERSION: int = 2

#: Default dead-byte ratio that triggers segment compaction.
DEFAULT_COMPACT_RATIO: float = 0.5

#: Record frame header: magic, payload length, CRC-32 of the payload,
#: region signature.  The signature sits outside the payload so the
#: open scan keys a record without unpacking its float arrays.
_HEADER = struct.Struct("<4sIIQ")

#: The ``[target, P, d]`` int64 meta that opens every payload.
_META = struct.Struct("<3q")

_INDEX_NAME = "index.json"
_SEGMENT_FMT = "segment-{:05d}.seg"
_WRITER_LOCK_NAME = "writer.lock"


def region_signature(
    target_class: int,
    pairs: tuple[tuple[int, int], ...],
    weights: np.ndarray,
    intercepts: np.ndarray,
    *,
    decimals: int = SIGNATURE_DECIMALS,
) -> int:
    """A stable integer signature of a region's certified parameters.

    Theorem 2 makes the certified ``(D, B)`` stack a *canonical name*
    for its activation region — every certified solve inside the region
    recovers the same exact parameters — so hashing the (quantized)
    stack yields a key that is identical for same-region solves and,
    with probability 1 over continuous weight distributions, distinct
    across regions.  The L2 tier keys its records by it.

    Uses ``zlib.crc32`` over the quantized float bytes, *not* Python's
    salted ``hash``, so the signature is stable across processes — a
    record written by one process is recognised by the next.

    Parameters
    ----------
    target_class:
        The class the region's parameters were solved for.
    pairs:
        The sorted ``(c, c')`` pair set (part of the identity: the same
        geometry solved for a different class pair set is a different
        serving entry).
    weights:
        ``(P, d)`` stacked pair weights in ``pairs`` order.
    intercepts:
        ``(P,)`` matching intercepts.
    decimals:
        Quantization before hashing (see :data:`SIGNATURE_DECIMALS`).

    Returns
    -------
    A non-negative int (CRC-32 range).
    """
    w = np.round(np.asarray(weights, dtype=np.float64), decimals) + 0.0
    b = np.round(np.asarray(intercepts, dtype=np.float64), decimals) + 0.0
    header = np.asarray(
        [target_class, *(idx for pair in pairs for idx in pair)],
        dtype=np.int64,
    )
    return zlib.crc32(header.tobytes() + w.tobytes() + b.tobytes())


def signature_of(interpretation: Interpretation | RegionCacheEntry) -> int:
    """:func:`region_signature` of a certified interpretation (or of a
    cache entry, which carries the same parameters)."""
    pairs = tuple(sorted(interpretation.pair_estimates))
    W = np.stack(
        [interpretation.pair_estimates[p].weights for p in pairs]
    )
    b = np.asarray(
        [interpretation.pair_estimates[p].intercept for p in pairs],
        dtype=np.float64,
    )
    return region_signature(interpretation.target_class, pairs, W, b)


@dataclass(slots=True)
class _L2Record:
    """One adopted record, in memory only (everything but the float
    payload, which stays in the mmap'd segment)."""

    signature: int
    target_class: int
    pairs: tuple[tuple[int, int], ...]
    d: int                # feature dimensionality of the record
    seg: int              # position in SegmentStore._segments
    offset: int           # frame start within the segment file
    frame_len: int        # header + payload bytes
    live: bool
    touch: int            # recency counter (stalest live dies first)
    #: The region's anchor instance (the payload's x0), which the sign
    #: index buckets.
    anchor: np.ndarray


class _Watermark(NamedTuple):
    """A parsed ``index.json``: everything a publish carries."""

    epoch: int
    segments: list[str]
    next_touch: int
    tombstones: set[tuple[int, int]]


def _payload_layout(P: int, d: int) -> dict[str, int]:
    """Byte offsets of every field inside one packed record payload.

    The single source of truth shared by :func:`_unpack_payload` (full
    record reads), the open scan (``pairs``/``x0`` only) and
    :meth:`SegmentStore.scan` (partial ``W``/``b``/``x0`` gathers), so a
    framing change cannot desync the scan from read/recovery.  Layout
    (little-endian, after the 24-byte int64 ``[target, P, d]`` meta):
    pairs ``(P, 2)`` int64, then float64 ``W (P, d)``, ``b (P,)``,
    ``x0 (d,)``, ``feats (d,)``, scalar edge.
    """
    pairs_off = 24
    w_off = pairs_off + 16 * P
    b_off = w_off + 8 * P * d
    x0_off = b_off + 8 * P
    feats_off = x0_off + 8 * d
    edge_off = feats_off + 8 * d
    return {
        "pairs": pairs_off,
        "w": w_off,
        "b": b_off,
        "x0": x0_off,
        "feats": feats_off,
        "edge": edge_off,
    }


def _pack_payload(
    target_class: int,
    pairs: tuple[tuple[int, int], ...],
    W: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    feats: np.ndarray,
    edge: float,
) -> bytes:
    """Serialize one region to the flat little-endian record payload.

    Layout: ``[target, P, d]`` int64 header, ``(P, 2)`` int64 pairs,
    then the float64 ``W (P, d)``, ``b (P,)``, ``x0 (d,)``,
    ``feats (d,)`` and the scalar edge.  ``tobytes`` of float64 arrays
    is bit-exact, so a record round-trips bitwise.
    """
    P, d = W.shape
    parts = [
        np.asarray([target_class, P, d], dtype="<i8").tobytes(),
        np.asarray(pairs, dtype="<i8").reshape(P, 2).tobytes(),
        np.ascontiguousarray(W, dtype="<f8").tobytes(),
        np.ascontiguousarray(b, dtype="<f8").tobytes(),
        np.ascontiguousarray(x0, dtype="<f8").tobytes(),
        np.ascontiguousarray(feats, dtype="<f8").tobytes(),
        np.float64(edge).tobytes(),
    ]
    return b"".join(parts)


def _unpack_payload(buf) -> tuple:
    """Inverse of :func:`_pack_payload`; returns the region record
    ``(target, pairs, W, b, x0, feats, edge)`` of fresh (owned) arrays."""
    meta = np.frombuffer(buf, dtype="<i8", count=3, offset=0)
    target_class, P, d = (int(v) for v in meta)
    layout = _payload_layout(P, d)
    pairs_arr = np.frombuffer(
        buf, dtype="<i8", count=2 * P, offset=layout["pairs"]
    )
    pairs = tuple(
        (int(pairs_arr[2 * i]), int(pairs_arr[2 * i + 1])) for i in range(P)
    )
    W = np.frombuffer(
        buf, dtype="<f8", count=P * d, offset=layout["w"]
    ).reshape(P, d).copy()
    b = np.frombuffer(buf, dtype="<f8", count=P, offset=layout["b"]).copy()
    x0 = np.frombuffer(buf, dtype="<f8", count=d, offset=layout["x0"]).copy()
    feats = np.frombuffer(
        buf, dtype="<f8", count=d, offset=layout["feats"]
    ).copy()
    edge = float(
        np.frombuffer(buf, dtype="<f8", count=1, offset=layout["edge"])[0]
    )
    return target_class, pairs, W, b, x0, feats, edge


class SegmentStore:
    """Append-only, memory-mapped on-disk region store (the L2 tier).

    Not thread-safe on its own — :class:`TieredRegionStore` serializes
    access behind one lock.  All sizes are bytes of record frames
    (header + payload); directory/metadata overhead is excluded.

    Parameters
    ----------
    directory:
        Where segments and the index live (created if missing).
    max_bytes:
        Bound on *live* record bytes; ``None`` means unbounded.  When
        exceeded, the stalest live records are marked dead (their next
        query costs a re-solve, never a wrong answer).
    compact_ratio:
        Dead-byte fraction of total segment bytes that triggers
        compaction; must lie in ``(0, 1)``.
    fsync:
        Fsync every appended record (the durability contract; the
        segments are the source of truth and the index only a watermark
        — see :meth:`append`).  Tests and bulk loads may disable it for
        speed and :meth:`sync` once at the end.
    region_index:
        Keep a per-(class, pair-set) hyperplane-sign index over the live
        records' anchors and membership-check its shortlist before the
        full gather+matmul in :meth:`scan` (falling back on a shortlist
        miss, so hit/miss behavior is unchanged).  Anchors are read from
        the payloads by the open scan and the sign buckets are rebuilt
        deterministically, so crash safety is untouched.
    index_bits, index_shortlist:
        Sign-code width / shortlist size, as :class:`RegionSignIndex`.
    read_only:
        Open a *reader* view onto a directory another process writes:
        the published segment list and tombstones are loaded and every
        whole record in the listed segments is adopted, including
        appends the live writer has fsynced but not yet published.  A
        torn or in-flight trailing frame is skipped, never truncated;
        orphan segments are left for the writer to reap; every mutator
        raises.  Readers follow the writer through :meth:`maybe_refresh`,
        which catches up only when the index file's identity changed —
        the single-writer / multi-reader discipline of the multi-process
        gateway.
    exclusive:
        Take an OS-level advisory lock (``flock``) on the directory's
        ``writer.lock`` before opening, and fail fast if another
        exclusive writer holds it.  The lock dies with the process
        (including ``SIGKILL``), so a restarted writer can always
        re-acquire.  Mutually exclusive with ``read_only``.

    Raises
    ------
    ValidationError
        For a non-positive ``max_bytes``, a ``compact_ratio`` outside
        ``(0, 1)``, an out-of-range ``index_bits``, an
        unreadable/corrupt index, or an ``exclusive`` open of a
        directory whose writer lock another process holds.
    """

    def __init__(
        self,
        directory,
        *,
        max_bytes: int | None = None,
        compact_ratio: float = DEFAULT_COMPACT_RATIO,
        fsync: bool = True,
        region_index: bool = False,
        index_bits: int = DEFAULT_INDEX_BITS,
        index_shortlist: int = DEFAULT_INDEX_SHORTLIST,
        read_only: bool = False,
        exclusive: bool = False,
    ):
        if read_only and exclusive:
            raise ValidationError(
                "read_only and exclusive are mutually exclusive "
                "(the writer lock is a writer's concern)"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ValidationError(
                f"max_bytes must be >= 1 or None, got {max_bytes}"
            )
        if not 0.0 < compact_ratio < 1.0:
            raise ValidationError(
                f"compact_ratio must be in (0, 1), got {compact_ratio}"
            )
        if index_shortlist < 1:
            raise ValidationError(
                f"index_shortlist must be >= 1, got {index_shortlist}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.read_only = bool(read_only)
        self._lock_handle = None
        if exclusive:
            self._acquire_writer_lock()
        self.max_bytes = max_bytes
        self.compact_ratio = float(compact_ratio)
        self.fsync = bool(fsync)
        self.region_index = bool(region_index)
        self.index_bits = check_index_bits(index_bits)
        self.index_shortlist = int(index_shortlist)
        self._segments: list[str] = []
        # Per segment: end of its adopted prefix (the byte offset the
        # next catch-up scan starts from; the published ``tails``).
        self._tails: list[int] = []
        # Every adopted record, live or dead, by (seg, offset) position.
        self._by_pos: dict[tuple[int, int], _L2Record] = {}
        self._by_sig: dict[int, _L2Record] = {}  # live records only
        # Positions of dead records — the index's tombstones.
        self._tombstones: set[tuple[int, int]] = set()
        # Live records grouped by (target class, pair set), each group's
        # W|b|x0 rows resident in packed scan stacks keyed by signature —
        # maintained row by row on adopt/mark_dead and rebuilt by
        # compact/wipe/refresh, so a scan never touches the mmap.
        self._live_groups: dict[
            tuple[int, tuple[tuple[int, int], ...]], _PackedGroup
        ] = {}
        # Per-group sign indexes over live anchors (region_index only).
        self._group_indexes: dict[
            tuple[int, tuple[tuple[int, int], ...]], RegionSignIndex
        ] = {}
        self._mmaps: dict[int, mmap.mmap] = {}
        self._touch = 0
        self._live_bytes = 0
        self._dead_bytes = 0
        self._n_compactions = 0
        self._index_hits = 0
        self._index_fallbacks = 0
        self._seg_counter = 0   # monotone: segment names never recycle
        self._dim: int | None = None
        self._min_classes: int | None = None
        self._epoch = 0
        self._index_stat: tuple[int, int, int] | None = None
        self._open()

    # ------------------------------------------------------------------ #
    # Opening, recovery, index persistence
    # ------------------------------------------------------------------ #
    def _seg_path(self, name: str) -> Path:
        return self.directory / name

    def _acquire_writer_lock(self) -> None:
        """Hold ``writer.lock`` exclusively for this store's lifetime.

        ``flock`` locks belong to the open file description: the kernel
        releases them when the process dies, however it dies — so a
        ``SIGKILL``'d writer never wedges the directory, and a restarted
        writer re-acquires immediately.
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX platform
            return
        handle = open(self.directory / _WRITER_LOCK_NAME, "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            handle.close()
            raise ValidationError(
                f"another writer holds the L2 store lock for "
                f"{self.directory} (single-writer discipline: only one "
                f"process may open a store directory exclusively)"
            ) from exc
        self._lock_handle = handle

    def _require_writable(self, operation: str) -> None:
        if self.read_only:
            raise ValidationError(
                f"{operation} requires a writable store; this one was "
                f"opened read_only (readers follow the writer via "
                f"maybe_refresh)"
            )

    def _open(self) -> None:
        """Adopt every record from the segments; drop orphan segments.

        The published index names the segments and the tombstones; the
        records come from scanning the segments themselves, each whole
        frame adopted as live unless a tombstone marks its position.
        The scan covers the two crash windows:

        * crash *during* an append → the torn frame fails its CRC/length
          check and the segment is truncated back to its last whole
          record (the write was never acknowledged);
        * crash *after* the fsync but before the index rename → the
          record is intact past the published tail and is adopted like
          any other.

        Segment files present on disk but absent from the index are
        leftovers of an interrupted compaction; they are deleted (the
        index, being renamed atomically, is always a consistent view).
        """
        # Stat before reading: if the writer republishes in between, the
        # cached stat differs from the file on disk and the next
        # maybe_refresh() catches up — the reader converges, never wedges.
        self._index_stat = self._stat_index()
        watermark = self._read_index()
        if watermark is not None:
            self._segments = watermark.segments
            self._tombstones = watermark.tombstones
            self._epoch = watermark.epoch
            next_touch = watermark.next_touch
        else:
            # No index: a fresh directory, or a crash before the very
            # first index write — scan whatever segments exist, oldest
            # first, treating every whole record as live.
            self._segments = sorted(
                p.name for p in self.directory.glob("segment-*.seg")
            )
            next_touch = 0
        self._tails = [0] * len(self._segments)
        if not self.read_only:
            # Orphan segments (interrupted compaction) are the writer's
            # to reap — a reader racing a live compaction must not
            # delete the segment the writer is about to publish.
            known = set(self._segments)
            for path in self.directory.glob("segment-*.seg"):
                if path.name not in known:
                    path.unlink()
        self._seg_counter = 1 + max(
            (int(name[8:13]) for name in self._segments), default=-1
        )
        for seg in range(len(self._segments)):
            self._recover_tail(seg)
        self._touch = max(self._touch, next_touch)
        if not self.read_only:
            self._persist_index()

    def _read_index(self) -> _Watermark | None:
        """Parse the published index (``None`` when there is none yet).

        A version-1 index carries one row per record; only its dead
        rows' positions are kept, as tombstones — the scan rebuilds the
        rest from the segments.
        """
        index_path = self._seg_path(_INDEX_NAME)
        try:
            payload = json.loads(index_path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(
                f"cannot read L2 index {index_path}: {exc}"
            ) from exc
        version = payload.get("version")
        if version == INDEX_VERSION:
            tombstones = {(int(s), int(o)) for s, o in payload["tombstones"]}
        elif version == 1:
            # Row: [sig, target, pairs, d, seg, offset, frame_len, live,
            # touch(, anchor)].
            tombstones = {
                (int(row[4]), int(row[5]))
                for row in payload["records"] if not row[7]
            }
        else:
            raise ValidationError(
                f"unsupported L2 index version {version} "
                f"(this build reads 1 and {INDEX_VERSION})"
            )
        return _Watermark(
            # Indexes written before the epoch existed read as epoch 0.
            epoch=int(payload.get("epoch", 0)),
            segments=list(payload["segments"]),
            next_touch=int(payload["next_touch"]),
            tombstones=tombstones,
        )

    def _adopt(self, record: _L2Record, payload) -> None:
        """Install one record into the in-memory maps and meters
        (``payload`` is the record's payload bytes, for its scan row)."""
        self._by_pos[(record.seg, record.offset)] = record
        end = record.offset + record.frame_len
        if end > self._tails[record.seg]:
            self._tails[record.seg] = end
        self._dim = record.d
        n_classes = 1 + max(map(max, record.pairs), default=-1)
        if self._min_classes is None or n_classes > self._min_classes:
            self._min_classes = n_classes
        if record.live:
            # Later records win: a signature demoted again after its
            # earlier record was marked dead supersedes it.
            prior = self._by_sig.get(record.signature)
            if prior is not None:
                self._retire(prior)
            self._by_sig[record.signature] = record
            self._live_bytes += record.frame_len
            self._group(record, payload)
        else:
            self._dead_bytes += record.frame_len

    def _retire(self, record: _L2Record) -> None:
        """Turn one live record dead in the maps and meters."""
        record.live = False
        del self._by_sig[record.signature]
        self._live_bytes -= record.frame_len
        self._dead_bytes += record.frame_len
        self._ungroup(record)

    def _group(self, record: _L2Record, payload) -> None:
        """Add a live record to its (class, pair-set) group + sign index.

        The payload's contiguous ``W|b|x0`` slice is copied once into
        the group's resident scan stacks.
        """
        key = (record.target_class, record.pairs)
        group = self._live_groups.get(key)
        if group is None:
            group = _PackedGroup(record.pairs, record.d)
            self._live_groups[key] = group
        P, d = len(record.pairs), record.d
        flat = np.frombuffer(
            payload, dtype="<f8", count=P * d + P + d,
            offset=_payload_layout(P, d)["w"],
        )
        group.append(
            record.signature,
            flat[:P * d].reshape(P, d),
            flat[P * d:P * d + P],
            flat[P * d + P:],
        )
        if self.region_index:
            index = self._group_indexes.get(key)
            if index is None:
                index = RegionSignIndex(record.d, bits=self.index_bits)
                self._group_indexes[key] = index
            index.add(record.signature, record.anchor)

    def _ungroup(self, record: _L2Record) -> None:
        """Remove a no-longer-live record from its group + sign index."""
        key = (record.target_class, record.pairs)
        group = self._live_groups[key]
        group.remove(record.signature)
        if not len(group):
            del self._live_groups[key]
        index = self._group_indexes.get(key)
        if index is not None:
            index.discard(record.signature)
            if not len(index):
                del self._group_indexes[key]

    def _recover_tail(self, seg: int) -> None:
        """Adopt every whole record past the segment's adopted prefix.

        Reads only each frame's header and the payload's meta, pairs
        and x0 (the CRC covers the rest without unpacking it).  A torn
        trailing frame is truncated by a writer; a reader stops before
        it and resumes there on its next catch-up.
        """
        start = self._tails[seg]
        try:
            with open(self._seg_path(self._segments[seg]), "rb") as handle:
                handle.seek(start)
                data = handle.read()
        except FileNotFoundError:
            # Unlinked by a compaction racing this reader; the next
            # publish lists the new segment and triggers a full refresh.
            return
        view = memoryview(data)
        offset = 0
        while offset + _HEADER.size <= len(data):
            magic, payload_len, crc, sig = _HEADER.unpack_from(data, offset)
            body = offset + _HEADER.size
            end = body + payload_len
            if (
                magic != RECORD_MAGIC
                or end > len(data)
                or zlib.crc32(view[body:end]) != crc
            ):
                break
            target, P, d = _META.unpack_from(data, body)
            layout = _payload_layout(P, d)
            flat = struct.unpack_from(
                f"<{2 * P}q", data, body + layout["pairs"]
            )
            self._adopt(
                _L2Record(
                    signature=sig,
                    target_class=target,
                    pairs=tuple(zip(flat[0::2], flat[1::2])),
                    d=d,
                    seg=seg,
                    offset=start + offset,
                    frame_len=end - offset,
                    live=(seg, start + offset) not in self._tombstones,
                    touch=self._next_touch(),
                    anchor=np.frombuffer(
                        data, dtype="<f8", count=d, offset=body + layout["x0"]
                    ).copy(),
                ),
                view[body:end],
            )
            offset = end
        # A torn (or writer-in-flight) trailing frame: the writer owns
        # truncation; a reader simply stops at the last whole record.
        if not self.read_only and offset < len(data):
            with open(self._seg_path(self._segments[seg]), "r+b") as handle:
                handle.truncate(start + offset)

    def persist_index(self) -> None:
        """Atomically publish the watermark and tombstones."""
        self._require_writable("persist_index")
        self._persist_index()

    def _persist_index(self) -> None:
        # Every publish bumps the epoch: readers compare epochs (and the
        # index file's stat identity) to detect that the writer moved.
        # No per-record rows: the cost is O(tombstones), not O(records).
        self._epoch += 1
        payload = {
            "version": INDEX_VERSION,
            "epoch": self._epoch,
            "segments": self._segments,
            "tails": self._tails,
            "next_touch": self._touch,
            "tombstones": sorted(self._tombstones),
        }
        tmp = self._seg_path(_INDEX_NAME + ".tmp")
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self._seg_path(_INDEX_NAME))
        self._index_stat = self._stat_index()

    # ------------------------------------------------------------------ #
    # Reader-side refresh (multi-process followers)
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Publish counter of the loaded index (0 for a pre-epoch or
        absent index).  Writers bump it on every index publish; readers
        report it so a fleet's epoch lag is observable."""
        return self._epoch

    def _stat_index(self) -> tuple[int, int, int] | None:
        """Identity of the index file on disk — ``os.replace`` swaps in
        a new inode, so ``(st_ino, st_mtime_ns, st_size)`` changes on
        every publish even within one mtime granule."""
        try:
            st = os.stat(self._seg_path(_INDEX_NAME))
        except FileNotFoundError:
            return None
        return (st.st_ino, st.st_mtime_ns, st.st_size)

    def _reset_view(self) -> None:
        """Forget every adopted record (segments, maps, meters, mmaps)."""
        for mm in self._mmaps.values():
            mm.close()
        self._mmaps.clear()
        self._segments = []
        self._tails = []
        self._by_pos = {}
        self._by_sig = {}
        self._tombstones = set()
        self._live_groups = {}
        self._group_indexes = {}
        self._live_bytes = 0
        self._dead_bytes = 0
        self._dim = None
        self._min_classes = None

    def refresh(self) -> None:
        """Drop the in-memory view and reopen from the directory.

        Mmaps are closed (in-flight reads already materialized their
        bytes) and every map and meter is rebuilt by a full open scan,
        exactly as a writer restart would.  :meth:`maybe_refresh` falls
        back to this only when the segment list changed (compaction or
        wipe).
        """
        self._reset_view()
        self._touch = 0
        self._epoch = 0
        self._open()

    def maybe_refresh(self) -> bool:
        """Catch up only if the writer published since the last load.

        One ``stat`` when idle.  When the index identity changed and its
        segment list is the one already adopted, the catch-up is
        incremental — each segment is scanned from its adopted tail and
        the new tombstones are applied — so it costs O(new records).  A
        changed segment list falls back to :meth:`refresh`.  Returns
        whether anything was (re)loaded.
        """
        stat = self._stat_index()
        if stat == self._index_stat:
            return False
        watermark = self._read_index()
        if watermark is None or watermark.segments != self._segments:
            self.refresh()
            return True
        self._index_stat = stat
        self._epoch = watermark.epoch
        fresh = watermark.tombstones - self._tombstones
        self._tombstones = watermark.tombstones
        for position in fresh:
            record = self._by_pos.get(position)
            if record is not None and record.live:
                self._retire(record)
        for seg in range(len(self._segments)):
            self._recover_tail(seg)
        return True

    # ------------------------------------------------------------------ #
    # Appending, liveness, budget
    # ------------------------------------------------------------------ #
    def _next_touch(self) -> int:
        self._touch += 1
        return self._touch

    def _current_segment(self) -> int:
        if not self._segments:
            self._segments.append(_SEGMENT_FMT.format(self._seg_counter))
            self._tails.append(0)
            self._seg_counter += 1
            # Register the segment (tail 0) in the index *before* any
            # record lands in it: recovery distinguishes compaction
            # orphans from live segments by index membership, so an
            # unregistered segment full of fsynced records would be
            # reaped as an orphan on the next open.  Segment creation is
            # rare (fresh store, or first append after a wipe), so this
            # never taxes the append hot path.
            self._persist_index()
        return len(self._segments) - 1

    def append(
        self,
        signature: int,
        target_class: int,
        pairs: tuple[tuple[int, int], ...],
        W: np.ndarray,
        b: np.ndarray,
        x0: np.ndarray,
        feats: np.ndarray,
        edge: float,
    ) -> bool:
        """Persist one region; returns ``False`` if it is already live.

        The record bytes are flushed (and fsynced when enabled); the
        index is deliberately *not* rewritten here.  The segment is the
        source of truth: any open, and any reader catching up to a later
        publish, adopts every whole frame it finds.  A crash at any
        point therefore leaves a loadable store (a torn frame is
        truncated away), and the append hot path — which runs inside an
        L1 insert when demotions drive it — costs one write + one
        fsync.
        """
        self._require_writable("append")
        if signature in self._by_sig:
            return False
        payload = _pack_payload(target_class, pairs, W, b, x0, feats, edge)
        header = _HEADER.pack(
            RECORD_MAGIC, len(payload), zlib.crc32(payload), signature
        )
        seg = self._current_segment()
        path = self._seg_path(self._segments[seg])
        offset = path.stat().st_size if path.exists() else 0
        with open(path, "ab") as handle:
            handle.write(header + payload)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        record = _L2Record(
            signature=signature,
            target_class=target_class,
            pairs=pairs,
            d=int(W.shape[1]),
            seg=seg,
            offset=offset,
            frame_len=len(header) + len(payload),
            live=True,
            touch=self._next_touch(),
            anchor=np.ascontiguousarray(x0, dtype=np.float64),
        )
        self._adopt(record, payload)
        self._enforce_budget()
        self._maybe_compact()
        return True

    def sync(self) -> None:
        """Force every segment to stable storage and publish the index —
        the bulk-append counterpart of per-append fsync, for a writer
        opened with ``fsync=False`` that appends a batch and then syncs
        once."""
        self._require_writable("sync")
        for name in self._segments:
            path = self._seg_path(name)
            if path.exists():
                with open(path, "rb") as handle:
                    os.fsync(handle.fileno())
        self._persist_index()

    def touch(self, signature: int) -> None:
        """Refresh a live record's recency (promotions renew the lease).
        A no-op on read-only stores — recency is writer-side state, and
        in-memory only: an open ranks records by their log order."""
        if self.read_only:
            return
        record = self._by_sig.get(signature)
        if record is not None:
            record.touch = self._next_touch()

    def mark_dead(self, signature: int) -> bool:
        """Retire a live record (its bytes are reclaimed at compaction;
        its position is a tombstone in the next published index)."""
        self._require_writable("mark_dead")
        record = self._by_sig.get(signature)
        if record is None:
            return False
        self._retire(record)
        self._tombstones.add((record.seg, record.offset))
        return True

    def _enforce_budget(self) -> None:
        if self.max_bytes is None:
            return
        while self._live_bytes > self.max_bytes and len(self._by_sig) > 1:
            stalest = min(self._by_sig.values(), key=lambda r: r.touch)
            self.mark_dead(stalest.signature)

    def _maybe_compact(self) -> bool:
        total = self._live_bytes + self._dead_bytes
        if total and self._dead_bytes / total > self.compact_ratio:
            self.compact()
            return True
        return False

    # ------------------------------------------------------------------ #
    # Reading and scanning
    # ------------------------------------------------------------------ #
    def _view(self, record: _L2Record) -> memoryview:
        """A zero-copy view of one record's payload in its mmap'd segment.

        A mapping shorter than the record (its file grew since it was
        mapped) is replaced.  ``len(mm)`` is the mapped length;
        ``mm.size()`` would be the file's current size.  The old mapping
        is not closed here: a caller may still hold a view of it, and
        it unmaps itself once the last view is gone.
        """
        mm = self._mmaps.get(record.seg)
        end = record.offset + record.frame_len
        if mm is None or len(mm) < end:
            path = self._seg_path(self._segments[record.seg])
            with open(path, "rb") as handle:
                mm = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            self._mmaps[record.seg] = mm
        return memoryview(mm)[record.offset + _HEADER.size:end]

    def read(self, signature: int) -> tuple:
        """The record ``(target, pairs, W, b, x0, feats, edge)`` of a live
        region (owned arrays — the returned floats are bitwise the bytes
        that were appended).

        Raises
        ------
        ValidationError
            For an unknown or dead signature.
        """
        record = self._by_sig.get(signature)
        if record is None:
            raise ValidationError(
                f"no live L2 record for signature {signature}"
            )
        return _unpack_payload(self._view(record))

    def scan(
        self,
        x0: np.ndarray,
        y0: np.ndarray,
        target_class: int,
        *,
        tol: float,
        floor: float,
    ) -> tuple[int, float] | None:
        """Membership-scan the live records: the signature and squared
        distance of the nearest passing candidate, or ``None``.

        Same mathematics as :meth:`RegionCache._scan` — live records are
        grouped by (target class, pair set) as they are adopted/retired
        (never rebuilt per call), every candidate's per-pair affine claim
        is evaluated with one matmul per group, and candidates within
        ``tol`` pass.  Each group's ``W``/``b``/``x0`` rows are resident
        packed stacks (:class:`~repro.serving.cache._PackedGroup`),
        copied out of the segment once when the record is adopted, so a
        scan reads no mmap'd bytes.  The price is resident memory of
        ``8 (P d + P + d)`` bytes per live record per reader (256 B at
        ``P = 2``, ``d = 10``), plus the buffers' doubling slack.
        Complexity: :math:`O(m P d)` matmul over the ``m`` live
        same-class records; with ``region_index`` on, over each group's
        sign-bucket shortlist instead (rows gathered by position),
        falling back to the full scan only when no shortlisted candidate
        passes (so hit/miss behavior is identical either way).
        """
        check_lookup_shapes(
            x0, y0, dim=self._dim, min_classes=self._min_classes
        )
        if not any(tc == target_class for tc, _ in self._live_groups):
            return None
        log_y = np.log(np.clip(y0, floor, None))
        if self.region_index:
            best = self._scan_groups(
                x0, log_y, target_class, tol, shortlist=True
            )
            if best is not None:
                self._index_hits += 1
                return best
            self._index_fallbacks += 1
        return self._scan_groups(
            x0, log_y, target_class, tol, shortlist=False
        )

    def _scan_groups(
        self,
        x0: np.ndarray,
        log_y: np.ndarray,
        target_class: int,
        tol: float,
        *,
        shortlist: bool,
    ) -> tuple[int, float] | None:
        """One pass of the membership scan over the live groups.

        With ``shortlist=True`` each group contributes only its sign
        index's nearest-bucket candidates; otherwise every live member.
        Returns the nearest passing ``(signature, squared distance)`` or
        ``None``.
        """
        best: tuple[float, int] | None = None  # (dist, signature)
        for (tc, pairs), group in self._live_groups.items():
            if tc != target_class:
                continue
            if shortlist:
                index = self._group_indexes.get((tc, pairs))
                if index is None:
                    continue
                sigs = index.shortlist(x0, self.index_shortlist)
                if not sigs:
                    continue
                W, B, X0 = group.gathered(sigs)
            else:
                sigs = group.keys
                W, B, X0 = group.stacked()
            actual = log_y[group.cs] - log_y[group.cps]
            errors, dists = membership_scan(W, B, X0, x0, actual)
            passing = np.nonzero(errors <= tol)[0]
            if passing.size:
                i = int(passing[np.argmin(dists[passing])])
                if best is None or dists[i] < best[0]:
                    best = (float(dists[i]), sigs[i])
        if best is None:
            return None
        return best[1], best[0]

    # ------------------------------------------------------------------ #
    # Compaction and lifecycle
    # ------------------------------------------------------------------ #
    def compact(self) -> int:
        """Rewrite live records into a fresh segment; drop the dead ones.

        The new segment is fully written and fsynced *before* the index
        is atomically swapped to reference it, and the old segment files
        are deleted only afterwards — a crash at any point leaves either
        the old consistent state (plus an orphan segment the next open
        deletes) or the new one.

        Returns the number of dead bytes reclaimed.
        """
        self._require_writable("compact")
        reclaimed = self._dead_bytes
        new_name = _SEGMENT_FMT.format(self._seg_counter)
        self._seg_counter += 1
        new_path = self._seg_path(new_name)
        survivors = sorted(self._by_sig.values(), key=lambda r: r.touch)
        rewritten: list[tuple[_L2Record, bytes]] = []
        with open(new_path, "wb") as handle:
            offset = 0
            for record in survivors:
                payload = bytes(self._view(record))
                header = _HEADER.pack(
                    RECORD_MAGIC, len(payload), zlib.crc32(payload),
                    record.signature,
                )
                handle.write(header + payload)
                rewritten.append((
                    _L2Record(
                        signature=record.signature,
                        target_class=record.target_class,
                        pairs=record.pairs,
                        d=record.d,
                        seg=0,
                        offset=offset,
                        frame_len=len(header) + len(payload),
                        live=True,
                        touch=record.touch,
                        anchor=record.anchor,
                    ),
                    payload,
                ))
                offset += len(header) + len(payload)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        old_segments = list(self._segments)
        self._reset_view()
        self._segments = [new_name]
        self._tails = [0]
        for record, payload in rewritten:
            self._adopt(record, payload)
        self._n_compactions += 1
        self._persist_index()
        for name in old_segments:
            if name != new_name:
                self._seg_path(name).unlink(missing_ok=True)
        # Keep segment numbering monotone: rename-free, the next append
        # continues into the compacted segment.
        return reclaimed

    def wipe(self) -> None:
        """Delete every record and segment (the index becomes empty)."""
        self._require_writable("wipe")
        old_segments = list(self._segments)
        self._reset_view()
        for name in old_segments:
            self._seg_path(name).unlink(missing_ok=True)
        self._persist_index()

    def close(self) -> None:
        """Persist the index (writers) and release OS handles.  A
        read-only close touches nothing on disk."""
        if not self.read_only:
            self._persist_index()
        for mm in self._mmaps.values():
            mm.close()
        self._mmaps.clear()
        if self._lock_handle is not None:
            self._lock_handle.close()   # releases the flock
            self._lock_handle = None

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._by_sig)

    def live_signatures(self) -> set[int]:
        return set(self._by_sig)

    @property
    def live_bytes(self) -> int:
        return self._live_bytes

    @property
    def dead_bytes(self) -> int:
        return self._dead_bytes

    @property
    def total_bytes(self) -> int:
        return self._live_bytes + self._dead_bytes

    @property
    def dead_ratio(self) -> float:
        total = self.total_bytes
        return self._dead_bytes / total if total else 0.0

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def n_compactions(self) -> int:
        return self._n_compactions

    @property
    def index_hits(self) -> int:
        """Scans decided by the sign-index shortlist (0 with it off)."""
        return self._index_hits

    @property
    def index_fallbacks(self) -> int:
        """Scans that fell back to the full gather (includes every
        miss, which only the full scan may declare)."""
        return self._index_fallbacks

    @property
    def max_record_bytes(self) -> int:
        """The largest record frame resident (0 when empty); the slack
        term of the disk-growth bound the churn benchmark gates."""
        return max((r.frame_len for r in self._by_pos.values()), default=0)


@dataclass(frozen=True)
class TieredStoreStats:
    """Point-in-time snapshot of a :class:`TieredRegionStore`'s meters.

    Field names are pinned one-to-one to the keys of :meth:`as_dict`
    (and to the glossary in ``docs/serving.md``) by
    ``tests/test_stats_schema.py``.

    Attributes
    ----------
    l1:
        The L1 :class:`~repro.serving.cache.CacheStats` rendered
        as its ``as_dict()`` (documented under its own glossary; note
        L1 ``insertions`` include promotions from L2).
    l1_hits:
        Lookups served from RAM.
    l2_hits:
        Lookups that missed RAM and were served from the disk tier
        (each one promotes the region back into L1).
    l2_misses:
        Lookups both tiers missed (the caller solves fresh).
    demotions:
        L1 evictions persisted to L2 (evictions of regions already live
        on disk refresh the disk record's recency instead).
    promotions:
        Disk-served regions re-installed into L1 (equals ``l2_hits``
        unless L1 already held a duplicate of the region).
    l2_entries:
        Live records on disk.
    l2_live_bytes / l2_total_bytes:
        Live record bytes vs. total segment bytes (live + dead).
    l2_dead_ratio:
        ``dead / total`` segment bytes; compaction triggers above the
        store's ``compact_ratio``.
    l2_segments:
        Segment files on disk.
    l2_compactions:
        Compaction passes performed over the store's lifetime.
    l2_index_hits:
        L2 membership scans decided by the sign-index shortlist (always
        0 with ``region_index`` off).  The L1 equivalents live in the
        nested ``l1`` dict (``index_hits`` / ``index_fallbacks``).
    l2_index_fallbacks:
        L2 scans whose shortlist had no passing candidate, falling back
        to the full gather+matmul (includes every L2 miss).
    """

    l1: dict
    l1_hits: int
    l2_hits: int
    l2_misses: int
    demotions: int
    promotions: int
    l2_entries: int
    l2_live_bytes: int
    l2_total_bytes: int
    l2_dead_ratio: float
    l2_segments: int
    l2_compactions: int
    l2_index_hits: int
    l2_index_fallbacks: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from *either* tier; 0.0 before
        any lookup (never NaN)."""
        lookups = self.l1_hits + self.l2_hits + self.l2_misses
        return (self.l1_hits + self.l2_hits) / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """JSON-safe rendering: every field plus ``hit_rate`` (key set
        pinned by ``tests/test_stats_schema.py``)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["hit_rate"] = float(self.hit_rate)
        return payload


class TieredRegionStore:
    """Two-tier region store: RAM L1 demoting to a mmap'd disk L2.

    Drop-in for the ``store`` surface of the interpretation service
    (``lookup`` / ``insert`` / ``stats`` / ``save`` / ``load``): an L1
    hit behaves exactly like :class:`RegionCache`; an L1 miss scans the
    disk tier, promotes the hit back into RAM, and serves it bitwise —
    so turning L2 on can change *cost*, never *content*.  Like
    :class:`L2ReaderCache`, the store relies on its caller for
    serialization: the service's flush lock admits one lookup/insert at
    a time.  L2 state additionally mutates under one store lock, which
    is never held across calls into L1 (an L1 insert may evict, and the
    eviction's demote callback takes the store lock).

    Parameters
    ----------
    directory:
        The L2 segment directory (created if missing; reopening a
        directory resumes its persisted inventory).
    max_entries, tol, max_candidates, floor, eviction, ttl_s, clock:
        L1 configuration, as :class:`RegionCache` (``max_entries`` is
        the *RAM* bound; the disk tier holds the overflow).
    l2_max_bytes:
        Live-byte budget of the disk tier (``None`` = unbounded).
    compact_ratio:
        Dead-byte ratio triggering segment compaction.
    fsync:
        Fsync appended records before indexing them (durability; tests
        may disable for speed).
    region_index:
        Enable the hyperplane-sign pruning index in *both* tiers: the
        L1 cache and the L2 segment store shortlist candidates before
        their exact membership matmuls, falling back to the full scan
        on a shortlist miss — identical hit/miss behavior, sub-linear
        lookup cost (the ``serve --region-index`` flag).
    index_bits, index_shortlist:
        Sign-code width / shortlist size, forwarded to both tiers (see
        :class:`~repro.serving.index.RegionSignIndex`).

    Raises
    ------
    ValidationError
        For any invalid forwarded parameter.

    Examples
    --------
    >>> import tempfile
    >>> from repro.data import make_blobs
    >>> from repro.models import SoftmaxRegression
    >>> from repro.api import PredictionAPI
    >>> from repro.core import OpenAPIInterpreter
    >>> ds = make_blobs(50, n_features=4, n_classes=3, seed=0)
    >>> api = PredictionAPI(SoftmaxRegression(seed=0).fit(ds.X, ds.y))
    >>> interp = OpenAPIInterpreter(seed=0).interpret(api, ds.X[0])
    >>> tmp = tempfile.TemporaryDirectory()
    >>> store = TieredRegionStore(tmp.name, max_entries=8)
    >>> store.insert(interp)
    True
    >>> y = api.predict_proba(ds.X[0])
    >>> hit = store.lookup(ds.X[0], y, interp.target_class)
    >>> bool(np.array_equal(hit.decision_features, interp.decision_features))
    True
    >>> store.close()            # drains the L1-only region to disk
    1
    >>> tmp.cleanup()
    """

    #: ``method`` tag carried by store-served interpretations — the same
    #: tag as the RAM tiers, because the tiers are indistinguishable to
    #: clients by construction.
    served_method = RegionCache.served_method

    def __init__(
        self,
        directory,
        *,
        max_entries: int = 512,
        tol: float = DEFAULT_MEMBERSHIP_TOL,
        max_candidates: int | None = None,
        floor: float = DEFAULT_PROB_FLOOR,
        eviction: str = "lru",
        ttl_s: float | None = None,
        clock=None,
        l2_max_bytes: int | None = None,
        compact_ratio: float = DEFAULT_COMPACT_RATIO,
        fsync: bool = True,
        region_index: bool = False,
        index_bits: int = DEFAULT_INDEX_BITS,
        index_shortlist: int = DEFAULT_INDEX_SHORTLIST,
    ):
        self.tol = check_positive(tol, name="tol")
        self.floor = check_positive(floor, name="floor")
        self.region_index = bool(region_index)
        self.index_bits = check_index_bits(index_bits)
        # SegmentStore itself is not thread-safe; every touch of the
        # L2 tier serializes on this (reentrant) lock.
        self._lock = threading.RLock()
        self._l2 = SegmentStore(  # guarded-by: _lock
            directory,
            max_bytes=l2_max_bytes,
            compact_ratio=compact_ratio,
            fsync=fsync,
            region_index=region_index,
            index_bits=index_bits,
            index_shortlist=index_shortlist,
        )
        self._l1 = RegionCache(
            max_entries=max_entries,
            tol=tol,
            max_candidates=max_candidates,
            floor=floor,
            eviction=eviction,
            ttl_s=ttl_s,
            clock=clock,
            on_evict=self._demote,
            region_index=region_index,
            index_bits=index_bits,
            index_shortlist=index_shortlist,
        )
        self._l2_hits = 0      # guarded-by: _lock
        self._l2_misses = 0    # guarded-by: _lock
        self._demotions = 0    # guarded-by: _lock
        self._promotions = 0   # guarded-by: _lock

    # ------------------------------------------------------------------ #
    @property
    def l1(self) -> RegionCache:
        """The RAM tier (read-only view, for observability)."""
        return self._l1

    @property
    def l2(self) -> SegmentStore:
        """The disk tier (read-only view, for observability)."""
        # repro-lint: disable=lock-discipline handle read for tests/observability; the reference never changes after __init__
        return self._l2

    def __len__(self) -> int:
        """Distinct live regions across both tiers (a promoted region
        resident in both counts once)."""
        with self._lock:
            l2_sigs = self._l2.live_signatures()
        return _count_distinct(self._l1, l2_sigs)

    # ------------------------------------------------------------------ #
    # The serving surface
    # ------------------------------------------------------------------ #
    def lookup(
        self, x0: np.ndarray, y0: np.ndarray, target_class: int
    ) -> Interpretation | None:
        """Serve ``x0`` from RAM, else from disk (promoting), else miss.

        An L2 hit rebuilds the region from its mmap'd record — bitwise
        the bytes that were demoted — promotes it into L1 (so the next
        same-region query is a RAM hit), and serves it with the same
        ``method`` tag and rebasing semantics as an L1 hit.

        Raises
        ------
        ValidationError
            On shape/dimensionality mismatches (checked by the L1 scan).
        """
        hit = self._l1.lookup(x0, y0, target_class)
        if hit is not None:
            return hit
        x0 = np.asarray(x0, dtype=np.float64)
        y0 = np.asarray(y0, dtype=np.float64)
        with self._lock:
            scored = self._l2.scan(
                x0, y0, target_class, tol=self.tol, floor=self.floor
            )
            if scored is None:
                self._l2_misses += 1
                return None
            signature, _ = scored
            record = self._l2.read(signature)
            self._l2.touch(signature)
            self._l2_hits += 1
        # Promote outside the store lock: the L1 insert may evict, and
        # the eviction's demote callback re-enters the store lock.
        promoted = _interpretation_from_record(record, self.served_method)
        if self._l1.insert(promoted):
            with self._lock:
                self._promotions += 1
        # Served re-anchored at the query instance, arrays shared with the
        # promoted copy — the same rebasing semantics as an L1 hit.
        return replace(promoted, x0=x0)

    def insert(self, interpretation: Interpretation) -> bool:
        """Insert a certified interpretation into L1 (evictions demote).

        Returns ``False`` for duplicates, mirroring
        :meth:`RegionCache.insert`.

        Raises
        ------
        ValidationError
            If the interpretation is uncertified or dimensionally
            inconsistent (enforced by L1).
        """
        return self._l1.insert(interpretation)

    def _demote(
        self, entry: RegionCacheEntry, pairs: tuple[tuple[int, int], ...]
    ) -> None:
        """The L1 eviction hook: persist the evicted region to disk."""
        W = np.stack([entry.pair_estimates[p].weights for p in pairs])
        b = np.asarray(
            [entry.pair_estimates[p].intercept for p in pairs],
            dtype=np.float64,
        )
        signature = region_signature(entry.target_class, pairs, W, b)
        with self._lock:
            if self._l2.append(
                signature, entry.target_class, pairs, W, b,
                entry.x0, entry.decision_features, entry.final_edge,
            ):
                self._demotions += 1
            else:
                self._l2.touch(signature)

    def clear(self) -> None:
        """Drop both tiers (RAM entries and disk segments; counters
        preserved).  L1 entries are *not* demoted — clearing is a reset,
        not an eviction."""
        self._l1.clear()
        with self._lock:
            self._l2.wipe()

    def drain(self) -> int:
        """Persist every L1-resident region to the disk tier (the
        entries stay in L1 — this is a flush, not an eviction), so a
        clean shutdown loses nothing.  Returns the number of regions
        newly written to disk (already-live ones are skipped)."""
        with self._lock:
            before = self._demotions
        for entry in list(self._l1._entries.values()):
            self._demote(entry, self._l1._pairs_of(entry))
        with self._lock:
            return self._demotions - before

    def close(self) -> int:
        """Drain L1 to disk, persist the L2 index, release file handles.

        After a clean close, reopening the directory resumes the *full*
        live inventory — both tiers' worth.  Returns the number of
        regions the drain newly wrote (see :meth:`drain`)."""
        drained = self.drain()
        with self._lock:
            self._l2.close()
        return drained

    def __enter__(self) -> "TieredRegionStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> TieredStoreStats:
        """Aggregate meters of both tiers (see :class:`TieredStoreStats`)."""
        l1_stats = self._l1.stats()
        with self._lock:
            return TieredStoreStats(
                l1=l1_stats.as_dict(),
                l1_hits=l1_stats.hits,
                l2_hits=self._l2_hits,
                l2_misses=self._l2_misses,
                demotions=self._demotions,
                promotions=self._promotions,
                l2_entries=len(self._l2),
                l2_live_bytes=self._l2.live_bytes,
                l2_total_bytes=self._l2.total_bytes,
                l2_dead_ratio=float(self._l2.dead_ratio),
                l2_segments=self._l2.n_segments,
                l2_compactions=self._l2.n_compactions,
                l2_index_hits=self._l2.index_hits,
                l2_index_fallbacks=self._l2.index_fallbacks,
            )


def _count_distinct(l1: RegionCache, l2_signatures: set[int]) -> int:
    """Distinct regions over an L1 cache and a set of live L2
    signatures: a promoted region resident in both counts once."""
    l1_signatures = {signature_of(e) for e in l1._entries.values()}
    return len(l1) + len(l2_signatures - l1_signatures)


def _interpretation_from_record(record: tuple, method: str) -> Interpretation:
    """A certified :class:`Interpretation` over one L2 record, anchored
    at the record's own ``x0`` (the region anchor L1 windows distances
    against).  The arrays are the record's — bitwise what was demoted."""
    target_class, pairs, W, b, x0, feats, edge = record
    estimates = {
        pair: CoreParameterEstimate(
            c=pair[0],
            c_prime=pair[1],
            weights=W[i],
            intercept=float(b[i]),
            certified=True,
        )
        for i, pair in enumerate(pairs)
    }
    return Interpretation(
        x0=np.asarray(x0, dtype=np.float64),
        target_class=target_class,
        decision_features=np.asarray(feats, dtype=np.float64),
        pair_estimates=estimates,
        method=method,
        iterations=0,
        final_edge=edge,
        n_queries=1,
        samples=None,
    )


class L2ReaderCache:
    """A worker process's region tier: private RAM L1 over a *shared*
    read-only L2 directory another process writes.

    This is the reader half of the gateway's single-writer discipline
    (:mod:`repro.serving.gateway`): each worker process keeps its own
    in-memory :class:`~repro.serving.cache.RegionCache` for the hot set,
    and on an L1 miss scans the mmap'd segments that the fleet's one
    writer appends to.  Lookups interleave a :meth:`SegmentStore.maybe_refresh`
    — one ``stat`` per miss when the writer is idle — so every worker
    converges on each published epoch without coordination.  Promotions
    move the record's exact float64 bytes, so a region solved by worker
    A and harvested by the writer is served bitwise-identically by
    worker B.

    Inserts land in the private L1 only; the worker never writes the
    shared directory.  Durability of fresh solves is the writer's job
    (the gateway harvests response payloads and appends them centrally).

    Drop-in for the ``cache`` surface of
    :class:`~repro.serving.service.InterpretationService`
    (``lookup`` / ``insert`` / ``stats``).  Serialized by the service's
    flush lock; L2 state additionally mutates under one lock, which is
    never held across calls into L1.
    """

    #: Same ``method`` tag as every other serving tier — by Theorem 2
    #: the bytes are canonical, so the tiers are indistinguishable.
    served_method = RegionCache.served_method

    def __init__(
        self,
        directory,
        *,
        max_entries: int = 512,
        tol: float = DEFAULT_MEMBERSHIP_TOL,
        floor: float = DEFAULT_PROB_FLOOR,
        region_index: bool = False,
        index_bits: int = DEFAULT_INDEX_BITS,
        index_shortlist: int = DEFAULT_INDEX_SHORTLIST,
    ):
        self.tol = check_positive(tol, name="tol")
        self.floor = check_positive(floor, name="floor")
        self._lock = threading.RLock()
        self._l1 = RegionCache(
            max_entries=max_entries,
            tol=tol,
            floor=floor,
            region_index=region_index,
            index_bits=index_bits,
            index_shortlist=index_shortlist,
        )
        self._l2 = SegmentStore(
            directory,
            read_only=True,
            region_index=region_index,
            index_bits=index_bits,
            index_shortlist=index_shortlist,
        )
        self._l1_hits = 0
        self._l2_hits = 0
        self._l2_misses = 0
        self._refreshes = 0

    @property
    def epoch(self) -> int:
        """The L2 epoch this reader has caught up to."""
        return self._l2.epoch

    def __len__(self) -> int:
        """Distinct regions across both tiers (a promoted region
        resident in both counts once, as in :class:`TieredRegionStore`)."""
        with self._lock:
            l2_sigs = self._l2.live_signatures()
        return _count_distinct(self._l1, l2_sigs)

    def lookup(self, x0, y0, target_class: int):
        """Serve from private RAM, else from the shared disk tier.

        The miss path refreshes the reader's view when the writer
        published a new epoch, and retries once through a full refresh
        if a concurrent compaction unlinked a segment mid-scan (the
        published index is always consistent, so the retry sees either
        the old inventory via still-open mmaps or the new one).
        """
        hit = self._l1.lookup(x0, y0, target_class)
        if hit is not None:
            with self._lock:
                self._l1_hits += 1
            return hit
        x0 = np.asarray(x0, dtype=np.float64)
        y0 = np.asarray(y0, dtype=np.float64)
        with self._lock:
            if self._l2.maybe_refresh():
                self._refreshes += 1
            try:
                record = self._l2_read(x0, y0, target_class)
            except (OSError, ValidationError):
                # Raced the writer's compaction: a referenced segment
                # vanished between index load and mmap.  Reload the
                # (atomically published, hence consistent) index once.
                self._l2.refresh()
                self._refreshes += 1
                record = self._l2_read(x0, y0, target_class)
            if record is None:
                self._l2_misses += 1
                return None
            self._l2_hits += 1
        promoted = _interpretation_from_record(record, self.served_method)
        self._l1.insert(promoted)
        return replace(promoted, x0=x0)

    def _l2_read(self, x0, y0, target_class: int):
        scored = self._l2.scan(
            x0, y0, target_class, tol=self.tol, floor=self.floor
        )
        if scored is None:
            return None
        return self._l2.read(scored[0])

    def insert(self, interpretation: Interpretation) -> bool:
        """Install a certified region into the *private* L1 (the shared
        directory is the writer's; workers never append to it)."""
        return self._l1.insert(interpretation)

    def stats(self) -> dict:
        """JSON-safe meter snapshot (keys documented in
        ``docs/serving.md``; surfaced per-worker by ``GatewayStats``)."""
        with self._lock:
            return {
                "l1": self._l1.stats().as_dict(),
                "l1_hits": self._l1_hits,
                "l2_hits": self._l2_hits,
                "l2_misses": self._l2_misses,
                "l2_records": len(self._l2),
                "refreshes": self._refreshes,
                "epoch": self._l2.epoch,
            }

    def clear(self) -> None:
        """Drop the private L1 (the shared disk tier is untouched)."""
        self._l1.clear()

    def close(self) -> None:
        """Release the reader's mmap handles (nothing is written)."""
        with self._lock:
            self._l2.close()
