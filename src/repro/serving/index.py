"""Hyperplane-sign pruning index: shortlist candidates before the matmul.

The membership scans of both serving tiers
(:meth:`repro.serving.cache.RegionCache._scan` and
:meth:`repro.serving.store.SegmentStore.scan`) decide a lookup with one
exact matmul over *every* resident same-class candidate — O(m·P·d) per
lookup, linear in the inventory.  Theorem 2 makes that test the sole
correctness authority, but nothing requires it to run over the whole
inventory: the companion closed-form paper defines each region by its
hyperplane *activation configuration*, i.e. by which side of a set of
hyperplanes the region lies on — exactly the structure a coarse
sign-bucket (SimHash-style) index can prune on.

:class:`RegionSignIndex` hashes every entry's *anchor* (the instance
whose certified solve populated it) to the packed sign bits of a fixed,
seeded hyperplane bank.  Queries probe the exact bucket plus every
single-bit flip (``bits + 1`` dict lookups — points near a hyperplane
land one sign flip away), then rank the gathered candidates by squared
anchor distance and keep the nearest ``k`` — the same locality heuristic
``max_candidates`` always encoded, now applied *before* the matmul
instead of after it.

**Transparency by construction.**  The index only ever *narrows* the
candidate set the exact membership matmul decides over; it never
accepts.  The scan callers fall back to the full linear scan whenever
the shortlist yields no passing candidate, so a shortlist miss costs one
extra (cheap) probe — never recall: hit/miss counts are identical with
the index on or off.  (When two or more distinct cached regions pass the
exact test for the same query — a measure-zero event for continuous
instance distributions, and same-region duplicates are already deduped
at insert — the shortlisted winner may be a different *passing* entry
than the global scan's; this is the same caveat the cache's false-hit
argument already carries.)

**Determinism.**  The bank is derived from the fixed :data:`INDEX_SEED`
per ``(d, bits)`` shape, so every process, tier and recovery scan
assigns the same entry the same bucket code — the L2 tier reads the
anchors out of its record payloads and rebuilds identical buckets on
open.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "RegionSignIndex",
    "hyperplane_bank",
    "pack_sign_bits",
    "INDEX_SEED",
    "DEFAULT_INDEX_BITS",
    "DEFAULT_INDEX_SHORTLIST",
    "MAX_INDEX_BITS",
]

#: Seed of the shared hyperplane bank.  Fixed so bucket codes agree
#: across processes, tiers and restarts (the L2 index persists
#: anchors, not codes, and recomputes codes against this bank on open).
INDEX_SEED: int = 0x51C7_1DE5

#: Default number of sign bits (hyperplanes) per index.  2^16 buckets
#: keeps expected occupancy low up to millions of regions while the
#: multiprobe cost stays at ``bits + 1`` dict lookups.
DEFAULT_INDEX_BITS: int = 16

#: Default shortlist size: how many nearest-anchor candidates survive
#: bucket probing and enter the exact membership matmul.
DEFAULT_INDEX_SHORTLIST: int = 64

#: Bucket codes are packed into a uint64, capping the bank size.
MAX_INDEX_BITS: int = 64

#: Cache of hyperplane banks keyed by (d, bits) — a few KB each, shared
#: by every index of the same shape in the process.
_BANKS: dict[tuple[int, int], np.ndarray] = {}


def check_index_bits(bits: int) -> int:
    """Validate an ``index_bits`` value (shared with the CLI layer).

    Raises
    ------
    ValidationError
        If ``bits`` is outside ``[1, MAX_INDEX_BITS]``.
    """
    if not 1 <= bits <= MAX_INDEX_BITS:
        raise ValidationError(
            f"index_bits must be in [1, {MAX_INDEX_BITS}], got {bits}"
        )
    return int(bits)


def hyperplane_bank(d: int, bits: int) -> np.ndarray:
    """The shared ``(bits, d)`` Gaussian hyperplane bank for one shape.

    Deterministic per ``(d, bits)`` (seeded by :data:`INDEX_SEED`) and
    cached process-wide; rows are unit-free — only the *sign* of the
    projection is ever used, so scale is irrelevant.
    """
    key = (int(d), int(bits))
    bank = _BANKS.get(key)
    if bank is None:
        rng = np.random.default_rng(INDEX_SEED)
        bank = rng.standard_normal((key[1], key[0]))
        bank.setflags(write=False)
        _BANKS[key] = bank
    return bank


def pack_sign_bits(signs: np.ndarray) -> np.ndarray:
    """Pack sign booleans along the last axis into ``uint64`` codes.

    ``signs`` is ``(..., bits)`` boolean with ``bits <= 64``; bit ``i``
    of the code is sign ``i``.
    """
    bits = signs.shape[-1]
    weights = np.uint64(1) << np.arange(bits, dtype=np.uint64)
    return signs.astype(np.uint64) @ weights


class _Bucket:
    """Members of one sign-code bucket: keys plus stacked anchors.

    Anchor rows are kept as a list of ``(k, d)`` blocks and concatenated
    lazily — bulk loads append one block per bucket instead of one row
    per entry.
    """

    __slots__ = ("keys", "_blocks", "_stack")

    def __init__(self) -> None:
        self.keys: list = []
        self._blocks: list[np.ndarray] = []
        self._stack: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.keys)

    def add(self, key, anchor: np.ndarray) -> None:
        self.keys.append(key)
        self._blocks.append(anchor.reshape(1, -1))
        self._stack = None

    def extend(self, keys, anchors: np.ndarray) -> None:
        self.keys.extend(keys)
        self._blocks.append(anchors)
        self._stack = None

    def discard(self, key) -> None:
        i = self.keys.index(key)
        del self.keys[i]
        self._blocks = [np.delete(self.stack(), i, axis=0)]
        self._stack = None

    def stack(self) -> np.ndarray:
        if self._stack is None:
            self._stack = (
                self._blocks[0]
                if len(self._blocks) == 1
                else np.concatenate(self._blocks)
            )
            self._blocks = [self._stack]
        return self._stack


class RegionSignIndex:
    """Sign-bucket shortlist index over region anchors.

    Maps hashable keys (L1 entry keys, L2 region signatures) to buckets
    by the packed sign bits of ``bank @ anchor``; :meth:`shortlist`
    probes the query's bucket and all single-bit neighbours and returns
    the ``k`` nearest-anchor candidates for the exact membership test.

    Not thread-safe on its own — both tiers mutate it under the lock
    that already guards the structure it accelerates (the service's
    flush lock for L1 / the tiered store lock for L2).

    Parameters
    ----------
    d:
        Anchor dimensionality (fixes the hyperplane bank).
    bits:
        Number of sign hyperplanes (bucket-code bits), in
        ``[1, MAX_INDEX_BITS]``.

    Raises
    ------
    ValidationError
        For a non-positive ``d`` or out-of-range ``bits``.

    Examples
    --------
    >>> import numpy as np
    >>> index = RegionSignIndex(d=3, bits=8)
    >>> anchors = np.random.default_rng(0).normal(size=(32, 3))
    >>> index.add_batch(range(32), anchors)
    >>> keys = index.shortlist(anchors[7], 4)
    >>> 7 in keys and len(keys) <= 4
    True
    """

    __slots__ = ("d", "bits", "_bank", "_buckets", "_code_of")

    def __init__(self, d: int, bits: int = DEFAULT_INDEX_BITS):
        if d < 1:
            raise ValidationError(f"d must be >= 1, got {d}")
        self.d = int(d)
        self.bits = check_index_bits(bits)
        self._bank = hyperplane_bank(self.d, self.bits)
        self._buckets: dict[int, _Bucket] = {}
        self._code_of: dict = {}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._code_of)

    def __contains__(self, key) -> bool:
        return key in self._code_of

    def code(self, x: np.ndarray) -> int:
        """The packed sign-bit bucket code of one instance."""
        return int(pack_sign_bits(np.matmul(self._bank, x) >= 0.0))

    def codes(self, X: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`code` over ``(n, d)`` rows → ``(n,)`` uint64."""
        return pack_sign_bits(np.matmul(X, np.swapaxes(self._bank, 0, 1)) >= 0.0)

    def add(self, key, anchor: np.ndarray) -> None:
        """Index one entry (replacing any previous anchor for ``key``)."""
        if key in self._code_of:
            self.discard(key)
        anchor = np.ascontiguousarray(anchor, dtype=np.float64)
        code = self.code(anchor)
        self._buckets.setdefault(code, _Bucket()).add(key, anchor)
        self._code_of[key] = code

    def add_batch(self, keys, anchors: np.ndarray) -> None:
        """Bulk-index entries (one code matmul, one block per bucket).

        ``keys`` must be new to the index — bulk loads (L2 open,
        benchmarks) always start empty.
        """
        keys = list(keys)
        anchors = np.ascontiguousarray(anchors, dtype=np.float64)
        if not keys:
            return
        codes = self.codes(anchors)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        bounds = [0, *(np.nonzero(np.diff(sorted_codes))[0] + 1), len(keys)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rows = order[lo:hi]
            code = int(sorted_codes[lo])
            self._buckets.setdefault(code, _Bucket()).extend(
                [keys[i] for i in rows], anchors[rows]
            )
        for key, code in zip(keys, codes):
            self._code_of[key] = int(code)

    def discard(self, key) -> None:
        """Drop one entry (no-op for unknown keys)."""
        code = self._code_of.pop(key, None)
        if code is None:
            return
        bucket = self._buckets[code]
        bucket.discard(key)
        if not bucket.keys:
            del self._buckets[code]

    def clear(self) -> None:
        self._buckets.clear()
        self._code_of.clear()

    def shortlist(self, x: np.ndarray, k: int) -> list:
        """The ≤ ``k`` nearest-anchor candidates among the probed buckets.

        Probes the query's exact bucket plus every single-bit flip
        (``bits + 1`` dict lookups), gathers the member keys, and — when
        more than ``k`` candidates surface — keeps the ``k`` with the
        smallest squared anchor distance (O(candidates)
        ``argpartition``, no sort).  May return fewer than ``k`` keys,
        or none: the caller's fallback to the full scan is what keeps
        the index transparent.
        """
        code = self.code(x)
        keys: list = []
        blocks: list[np.ndarray] = []
        for probe in self._probes(code):
            bucket = self._buckets.get(probe)
            if bucket is not None:
                keys.extend(bucket.keys)
                blocks.append(bucket.stack())
        if len(keys) <= k:
            return keys
        anchors = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        dists = ((anchors - x) ** 2).sum(axis=1)
        return [keys[i] for i in np.argpartition(dists, k - 1)[:k]]

    def _probes(self, code: int):
        yield code
        for bit in range(self.bits):
            yield code ^ (1 << bit)
