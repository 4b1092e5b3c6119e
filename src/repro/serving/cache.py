"""Region-reuse cache: one certified solve serves a whole convex region.

Theorem 2 says a certified closed-form solve recovers the *exact* core
parameters of the entire convex activation region containing ``x0`` — not
just of ``x0`` itself.  An interpretation computed once is therefore valid
for every later query landing in the same region, and a serving layer that
recognizes region membership can answer those queries with the cached
parameters at the cost of a single probe query.

Region membership is not directly observable through the API (the region
polytope lives in the hidden model), but it is cheaply *testable*: inside
the region the API's log-odds are affine with the cached ``(D, B)``, so

.. math::

    |D_{c,c'}^\\top x + B_{c,c'} - \\ln(y_c(x)/y_{c'}(x))| \\le \\tau
    \\quad \\forall (c, c')

at the new instance ``x`` (with the probe response ``y(x)`` the service
needs anyway to know the predicted class) certifies the hit.  A foreign
region's affine pieces differ, so its log-odds violate the identity — the
same probability-1 separation argument behind the paper's consistency
certificate.  False hits would require the new region's *every* pair
hyperplane to agree at ``x`` to within ``τ``, which for continuous
instance distributions is a measure-zero event.

The membership scan is fully vectorized: at insert time every entry's
per-pair ``(D, B)`` is packed into contiguous stacked matrices (grouped
by target class and pair set), so one lookup evaluates *all* candidate
claims with a single matmul and all candidate distances with one
broadcast subtraction.  With ``region_index=True`` a per-group
:class:`~repro.serving.index.RegionSignIndex` shortlists the nearest
sign-bucket candidates *before* the matmul, so lookup cost stops growing
linearly with the resident inventory; a shortlist with no passing
candidate falls back to the full scan, keeping hit/miss behavior
identical to the unindexed cache by construction (see
``docs/architecture.md``).

**Bounded memory.** The region inventory of a production model is large
but traffic over it is skewed, so the cache enforces a resident bound
with a configurable eviction policy: ``"lru"`` (least-recently-served
entry evicted first, the default) or ``"ttl"`` (entries expire a fixed
number of seconds after they were last inserted or served; expiry is
applied lazily at lookup/insert time).  :class:`CacheStats` reports
evictions and approximate resident bytes so operators can size
``max_entries`` against a memory budget (see ``docs/serving.md``).
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from repro.core.equations import DEFAULT_PROB_FLOOR, log_odds
from repro.core.types import CoreParameterEstimate, Interpretation
from repro.exceptions import ValidationError
from repro.serving.index import (
    DEFAULT_INDEX_BITS,
    DEFAULT_INDEX_SHORTLIST,
    RegionSignIndex,
    check_index_bits,
)
from repro.utils.validation import check_positive

__all__ = [
    "RegionCacheEntry",
    "RegionCache",
    "CacheStats",
    "DEFAULT_MEMBERSHIP_TOL",
    "EVICTION_POLICIES",
]

#: Max absolute log-odds mismatch accepted by the membership check.  A
#: genuine same-region instance matches at ~1e-12 (solve rounding error);
#: a foreign region typically misses by orders of magnitude.
DEFAULT_MEMBERSHIP_TOL: float = 1e-6

#: Supported eviction policies: ``"lru"`` evicts the least-recently-served
#: entry once ``max_entries`` is exceeded; ``"ttl"`` additionally expires
#: entries ``ttl_s`` seconds after their last touch (insert or hit).
EVICTION_POLICIES: tuple[str, ...] = ("lru", "ttl")

@dataclass
class RegionCacheEntry:
    """One cached certified interpretation (a region's core parameters).

    Attributes
    ----------
    key:
        Cache-internal monotone id (doubles as insertion order).
    x0:
        The anchor instance whose certified solve populated the entry.
    target_class:
        The class the region's parameters were solved for.
    pair_estimates:
        ``(c, c') -> CoreParameterEstimate`` — the region's exact
        ``(D, B)`` per class pair (Theorem 2 payload).
    decision_features:
        The region's decision features ``D_c`` (Equation 1).
    final_edge:
        Hypercube edge of the solve that certified the region.
    hits:
        How many lookups this entry has served.
    last_touch:
        Eviction clock reading of the last insert/serve (drives the
        ``"ttl"`` policy; also maintained under ``"lru"``).
    """

    key: int
    x0: np.ndarray
    target_class: int
    pair_estimates: dict[tuple[int, int], CoreParameterEstimate]
    decision_features: np.ndarray
    final_edge: float
    hits: int = 0
    last_touch: float = 0.0

    def claim_errors(
        self, x: np.ndarray, y: np.ndarray, *, floor: float
    ) -> np.ndarray:
        """|predicted - actual| log-odds per pair at instance ``x``.

        The scalar reference for the packed vectorized scan (used by the
        audit tests); production lookups never call this per entry.
        """
        errors = np.empty(len(self.pair_estimates))
        for i, ((c, c_prime), est) in enumerate(self.pair_estimates.items()):
            actual = float(log_odds(y, c, c_prime, floor=floor))
            predicted = float(est.weights @ x + est.intercept)
            errors[i] = abs(predicted - actual)
        return errors

    @property
    def resident_bytes(self) -> int:
        """Approximate bytes this entry keeps resident.

        Counts the entry's own arrays *and* their packed-scan copies
        (each entry's ``(D, B)`` and anchor are duplicated into the
        contiguous group stacks); Python object overhead is excluded.
        """
        pair_bytes = sum(
            est.weights.nbytes + 8 for est in self.pair_estimates.values()
        )
        return 2 * (self.x0.nbytes + pair_bytes) + self.decision_features.nbytes


class _PackedGroup:
    """Resident ``(D, B)`` scan stacks for one (target class, pair set)
    bucket — the packed rows both region tiers scan.

    Holds, for ``m`` members over ``P`` pairs in ``d`` dimensions,
    float64 buffers ``W (cap, P, d)``, ``b (cap, P)`` and anchors
    ``X0 (cap, d)`` whose first ``m`` rows are the members in the order
    they joined; :meth:`stacked` returns views of those rows, so a scan
    never re-stacks.  Membership changes on every fleet miss (the L1
    inserts the fresh solve and, once full, evicts), so each mutation
    costs one row: an append writes the next row (the buffers double
    when full) and a removal shifts the later rows down by one.  Rows
    are never reordered — the scan's argmin breaks distance ties by row,
    so row order is part of the answer.

    ``index`` optionally carries the group's
    :class:`~repro.serving.index.RegionSignIndex`, kept in lock-step
    with membership so the indexed scan path never sees a stale
    shortlist.
    """

    __slots__ = ("pairs", "cs", "cps", "keys", "index", "_w", "_b", "_x0", "_pos")

    def __init__(
        self,
        pairs: tuple[tuple[int, int], ...],
        d: int,
        index: RegionSignIndex | None = None,
    ):
        self.pairs = pairs
        self.cs = np.asarray([c for c, _ in pairs], dtype=np.intp)
        self.cps = np.asarray([cp for _, cp in pairs], dtype=np.intp)
        self.keys: list = []
        self.index = index
        P = len(pairs)
        cap = _INITIAL_ROWS
        self._w = np.empty((cap, P, d))
        self._b = np.empty((cap, P))
        self._x0 = np.empty((cap, d))
        self._pos: dict | None = {}

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return iter(self.keys)

    def add(self, entry: RegionCacheEntry) -> None:
        """Append a cache entry's ``(D, B)`` and anchor as the last row."""
        estimates = [entry.pair_estimates[p] for p in self.pairs]
        self.append(
            entry.key,
            [est.weights for est in estimates],
            [est.intercept for est in estimates],
            entry.x0,
        )

    def append(self, key, w, b, x0: np.ndarray) -> None:
        """Append one member's ``W (P, d)``, ``b (P,)`` and anchor
        (copied into the buffers) as the last row."""
        row = len(self.keys)
        if row == len(self._x0):
            self._w, self._b, self._x0 = (
                _doubled(buf, row) for buf in (self._w, self._b, self._x0)
            )
        self._w[row] = w
        self._b[row] = b
        self._x0[row] = x0
        self.keys.append(key)
        if self._pos is not None:
            self._pos[key] = row
        if self.index is not None:
            self.index.add(key, x0)

    def remove(self, key) -> None:
        """Drop ``key``'s row; the rows after it move up one, in order."""
        i = self.keys.index(key)
        m = len(self.keys)
        for buf in (self._w, self._b, self._x0):
            buf[i:m - 1] = buf[i + 1:m]
        del self.keys[i]
        self._pos = None
        if self.index is not None:
            self.index.discard(key)

    def load(self, keys: list, W: np.ndarray, b: np.ndarray, X0: np.ndarray) -> None:
        """Make ``W``/``b``/``X0`` (C-contiguous float64, ``len(keys)``
        rows) the buffers of an empty group, without copying them —
        for bulk-built inventories that are scanned, never mutated."""
        if self.keys:
            raise ValidationError("load requires an empty group")
        self.keys = list(keys)
        self._w, self._b, self._x0 = W, b, X0
        self._pos = None
        if self.index is not None:
            self.index.add_batch(self.keys, X0)

    def positions(self) -> dict:
        """``key -> row`` (rebuilt after a removal; the indexed scans
        gather shortlisted rows by position)."""
        if self._pos is None:
            self._pos = {key: i for i, key in enumerate(self.keys)}
        return self._pos

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the member rows: ``W (m, P, d)``, ``b (m, P)``,
        ``X0 (m, d)``, valid until the next mutation."""
        m = len(self.keys)
        return self._w[:m], self._b[:m], self._x0[:m]

    def gathered(self, keys: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the rows of ``keys``, in that order."""
        pos = self.positions()
        rows = np.fromiter((pos[k] for k in keys), dtype=np.intp, count=len(keys))
        return self._w[rows], self._b[rows], self._x0[rows]

    def claims_at(self, x0: np.ndarray) -> np.ndarray:
        """Every member's per-pair affine claim at ``x0`` — one matmul."""
        W, b, _ = self.stacked()
        return affine_claims(W, b, x0)


def affine_claims(W: np.ndarray, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Every member's per-pair affine claim at ``x0`` — one matmul.

    ``W`` is ``(m, P, d)``, ``b`` is ``(m, P)``, ``x0`` is ``(d,)``;
    returns the ``(m, P)`` claims.
    """
    m, P, d = W.shape
    return np.matmul(W.reshape(m * P, d), x0).reshape(m, P) + b


def membership_scan(
    W: np.ndarray, b: np.ndarray, X0: np.ndarray, x0: np.ndarray,
    actual: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The exact membership kernel shared by both serving tiers.

    Stacks ``W (m, P, d)``, ``b (m, P)``, anchors ``X0 (m, d)``, query
    ``x0 (d,)`` and the probe's actual log-odds ``actual (P,)``.
    Returns ``(errors (m,), dists (m,))``: the max absolute per-pair
    claim error and the squared anchor distance per candidate.  The
    pass/argmin decision stays with the caller.
    """
    errors = abs(affine_claims(W, b, x0) - actual).max(axis=1)
    dists = ((X0 - x0) ** 2).sum(axis=1)
    return errors, dists


#: Rows a new group's buffers hold before their first doubling.
_INITIAL_ROWS = 8


def _doubled(buf: np.ndarray, used: int) -> np.ndarray:
    """``buf`` reallocated at twice its rows, the first ``used`` kept."""
    grown = np.empty((2 * len(buf), *buf.shape[1:]))
    grown[:used] = buf[:used]
    return grown


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time snapshot of a :class:`RegionCache`'s meters.

    The counters (``hits`` … ``evictions``) are monotone over the cache's
    lifetime; ``size`` and ``resident_bytes`` describe the current
    resident set.  Field names are pinned one-to-one to the keys of
    :meth:`as_dict` (and to the glossary in ``docs/serving.md``) by
    ``tests/test_stats_schema.py``.

    Attributes
    ----------
    hits:
        Lookups served from a cached region.
    misses:
        Lookups that found no matching region (the caller solves fresh).
    insertions:
        Certified interpretations accepted into the cache.
    duplicates_skipped:
        Insert attempts whose region was already cached (the existing
        entry was refreshed instead).
    evictions:
        Entries removed by the eviction policy (LRU capacity or TTL
        expiry).
    index_hits:
        Membership scans decided by the sign-index shortlist (the exact
        matmul ran over shortlisted candidates only).  Always 0 with
        ``region_index=False``.
    index_fallbacks:
        Membership scans whose shortlist produced no passing candidate,
        falling back to the full linear scan (the transparency path —
        also the count for every scan that ends in a miss, since a miss
        can only be declared by the full scan).
    size:
        Entries currently resident.
    resident_bytes:
        Approximate bytes of resident region payload — entry arrays plus
        their packed scan copies; Python object overhead excluded.
    """

    hits: int
    misses: int
    insertions: int
    duplicates_skipped: int
    evictions: int
    index_hits: int
    index_fallbacks: int
    size: int
    resident_bytes: int

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)``; 0.0 before any lookup (never NaN,
        so stats snapshots stay JSON-safe)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """JSON-safe rendering: every dataclass field plus ``hit_rate``.

        The key set is pinned against the field names by
        ``tests/test_stats_schema.py`` so the JSON emitted by the serving
        benchmarks cannot drift from this class's documentation.
        """
        payload: dict[str, float | int] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        payload["hit_rate"] = float(self.hit_rate)
        return payload


def check_lookup_shapes(
    x0: np.ndarray,
    y0: np.ndarray,
    *,
    dim: int | None,
    min_classes: int | None,
) -> None:
    """Reject dimension mismatches before they hit the packed matmul.

    Shared by :class:`RegionCache` and the L2 segment store's scan.

    Raises
    ------
    ValidationError
        If ``x0``/``y0`` are not 1-D, if ``x0``'s dimensionality differs
        from the cached entries' (both named in the message), or if
        ``y0`` has fewer classes than the cached pair estimates index.
    """
    if x0.ndim != 1:
        raise ValidationError(f"x0 must be 1-D, got shape {x0.shape}")
    if y0.ndim != 1:
        raise ValidationError(f"y0 must be 1-D, got shape {y0.shape}")
    if dim is not None and x0.shape[0] != dim:
        raise ValidationError(
            f"x0 has dimensionality {x0.shape[0]} but cached entries "
            f"have dimensionality {dim}"
        )
    if min_classes is not None and y0.shape[0] < min_classes:
        raise ValidationError(
            f"y0 has {y0.shape[0]} classes but cached entries reference "
            f"class indices up to {min_classes - 1}"
        )


class RegionCache:
    """Bounded cache of certified interpretations keyed by activation region.

    Parameters
    ----------
    max_entries:
        Resident-entry bound (the least-recently-served entry is evicted
        first once exceeded).
    tol:
        Membership tolerance on absolute log-odds error (the certificate
        tolerance of the serving contract).
    max_candidates:
        Cap on how many nearest-anchor candidates the *indexed* scan
        membership-checks per lookup (the effective shortlist is
        ``min(max_candidates, index_shortlist)``); ``None`` leaves the
        shortlist at ``index_shortlist``.  The full (unindexed) scan
        always tolerance-checks every candidate — its matmul already ran
        over all of them, so windowing the comparison could only lose
        recall, never save compute (the PR 6 false-miss fix).
    floor:
        Probability clamp for the log-odds transform (must match the
        interpreter's).
    region_index:
        Enable the per-group hyperplane-sign pruning index
        (:class:`~repro.serving.index.RegionSignIndex`): lookups
        membership-check a nearest-bucket shortlist first and fall back
        to the full scan when no shortlisted candidate passes, so
        hit/miss behavior is identical to the unindexed cache while
        lookup cost stops growing linearly with the inventory.
    index_bits:
        Sign-bucket code width in ``[1, 64]`` (default
        :data:`~repro.serving.index.DEFAULT_INDEX_BITS`).
    index_shortlist:
        Candidates surviving bucket probing into the exact membership
        matmul (default
        :data:`~repro.serving.index.DEFAULT_INDEX_SHORTLIST`).
    eviction:
        ``"lru"`` (default) or ``"ttl"`` — see :data:`EVICTION_POLICIES`.
        Both respect ``max_entries``; ``"ttl"`` additionally expires
        entries by age.
    ttl_s:
        Entry lifetime in seconds for the ``"ttl"`` policy, measured from
        the entry's last touch (insert or serve).  Required iff
        ``eviction="ttl"``.
    clock:
        Monotonic time source for TTL bookkeeping (injectable for
        deterministic tests); defaults to :func:`time.monotonic`.
    on_evict:
        Optional callback ``(entry, pairs) -> None`` invoked for every
        entry the eviction policy removes (LRU capacity or TTL expiry),
        *after* the entry has left the cache.  The tiered store
        (:class:`repro.serving.store.TieredRegionStore`) uses it to
        demote evicted regions to disk instead of dropping them.
        ``clear()`` does not fire it — clearing is an operator reset,
        not an eviction.

    Raises
    ------
    ValidationError
        For non-positive bounds/tolerances, an unknown eviction policy,
        or an inconsistent ``eviction``/``ttl_s`` combination.

    Examples
    --------
    >>> from repro.data import make_blobs
    >>> from repro.models import SoftmaxRegression
    >>> from repro.api import PredictionAPI
    >>> from repro.core import OpenAPIInterpreter
    >>> ds = make_blobs(50, n_features=4, n_classes=3, seed=0)
    >>> api = PredictionAPI(SoftmaxRegression(seed=0).fit(ds.X, ds.y))
    >>> interp = OpenAPIInterpreter(seed=0).interpret(api, ds.X[0])
    >>> cache = RegionCache()
    >>> cache.insert(interp)
    True
    >>> y = api.predict_proba(ds.X[0])
    >>> hit = cache.lookup(ds.X[0], y, interp.target_class)
    >>> bool(np.array_equal(hit.decision_features, interp.decision_features))
    True
    """

    #: ``method`` tag carried by cache-served interpretations.
    served_method = "openapi+cache"

    def __init__(
        self,
        *,
        max_entries: int = 512,
        tol: float = DEFAULT_MEMBERSHIP_TOL,
        max_candidates: int | None = None,
        floor: float = DEFAULT_PROB_FLOOR,
        eviction: str = "lru",
        ttl_s: float | None = None,
        clock: Callable[[], float] | None = None,
        on_evict: Callable[
            [RegionCacheEntry, tuple[tuple[int, int], ...]], None
        ] | None = None,
        region_index: bool = False,
        index_bits: int = DEFAULT_INDEX_BITS,
        index_shortlist: int = DEFAULT_INDEX_SHORTLIST,
    ):
        if max_entries < 1:
            raise ValidationError(f"max_entries must be >= 1, got {max_entries}")
        if max_candidates is not None and max_candidates < 1:
            raise ValidationError(
                f"max_candidates must be >= 1 or None, got {max_candidates}"
            )
        if index_shortlist < 1:
            raise ValidationError(
                f"index_shortlist must be >= 1, got {index_shortlist}"
            )
        if eviction not in EVICTION_POLICIES:
            raise ValidationError(
                f"eviction must be one of {EVICTION_POLICIES}, got {eviction!r}"
            )
        if eviction == "ttl":
            if ttl_s is None:
                raise ValidationError("eviction='ttl' requires ttl_s")
            self.ttl_s: float | None = check_positive(ttl_s, name="ttl_s")
        else:
            if ttl_s is not None:
                raise ValidationError(
                    "ttl_s is only meaningful with eviction='ttl'"
                )
            self.ttl_s = None
        self.eviction = eviction
        self.max_entries = int(max_entries)
        self.tol = check_positive(tol, name="tol")
        self.max_candidates = max_candidates
        self.floor = check_positive(floor, name="floor")
        self.region_index = bool(region_index)
        self.index_bits = check_index_bits(index_bits)
        self.index_shortlist = int(index_shortlist)
        self._clock = clock if clock is not None else time.monotonic
        self.on_evict = on_evict
        self._entries: OrderedDict[int, RegionCacheEntry] = OrderedDict()
        self._groups: dict[
            tuple[int, tuple[tuple[int, int], ...]], _PackedGroup
        ] = {}
        self._group_of: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
        self._dim: int | None = None
        self._min_classes: int | None = None
        self._keys = itertools.count()
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._duplicates = 0
        self._evictions = 0
        self._index_hits = 0
        self._index_fallbacks = 0
        self._resident_bytes = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def _check_lookup_shapes(self, x0: np.ndarray, y0: np.ndarray) -> None:
        check_lookup_shapes(
            x0, y0, dim=self._dim, min_classes=self._min_classes
        )

    def lookup(
        self, x0: np.ndarray, y0: np.ndarray, target_class: int
    ) -> Interpretation | None:
        """Serve ``x0`` from a cached region, or ``None`` on a miss.

        Complexity: one ``(m·P, d)`` matmul over the packed candidate
        stacks plus an O(m) distance pass — :math:`O(m P d)` for ``m``
        resident candidates of the target class.  With
        ``region_index=True`` the matmul runs over the sign-bucket
        shortlist instead (``bits + 1`` dict probes plus
        :math:`O(k P d)` for shortlist size ``k``), falling back to the
        full scan only when no shortlisted candidate passes.

        Parameters
        ----------
        x0:
            The queried instance.  Must match the dimensionality of the
            cached entries (:class:`~repro.exceptions.ValidationError`
            naming both otherwise).
        y0:
            The API's probability row for ``x0`` (the probe the service
            performs anyway); used for the membership check only — no API
            access happens here.
        target_class:
            The class the caller wants interpreted; only entries solved
            for the same class are candidates.

        Returns
        -------
        A rebased :class:`Interpretation` sharing the cached arrays
        bitwise (``n_queries=1`` for the probe, ``iterations=0``), or
        ``None``.

        Raises
        ------
        ValidationError
            On shape/dimensionality mismatches (see
            :func:`check_lookup_shapes`).
        """
        x0 = np.asarray(x0, dtype=np.float64)
        y0 = np.asarray(y0, dtype=np.float64)
        self._check_lookup_shapes(x0, y0)
        self._purge_expired()
        scored = self._scan(x0, y0, target_class)
        if scored is None:
            self._misses += 1
            return None
        entry = self._entries[scored[0]]
        entry.hits += 1
        self._hits += 1
        self._touch(entry)
        return self._rebase(entry, x0)

    def _scan(
        self, x0: np.ndarray, y0: np.ndarray, target_class: int
    ) -> tuple[int, float] | None:
        """The pure membership scan: ``(entry key, squared distance)`` of
        the nearest passing candidate, or ``None``.

        Mutates only the index meters (shortlist hit/fallback counters)
        — hit/miss counters, LRU order and TTL leases are
        :meth:`lookup`'s job.

        With ``region_index`` on, the sign-bucket shortlist is
        membership-checked first; any passing shortlisted candidate
        decides the scan, otherwise the full scan runs — so the scan's
        hit/miss outcome is identical to the unindexed cache by
        construction (a winner must pass the exact test either way, and
        a miss is only ever declared by the full scan).
        """
        groups = [
            g for (tc, _), g in self._groups.items()
            if tc == target_class and len(g)
        ]
        if not groups:
            return None

        log_y = np.log(np.clip(y0, self.floor, None))
        if self.region_index:
            scored = self._scan_shortlisted(groups, x0, log_y)
            if scored is not None:
                self._index_hits += 1
                return scored
            self._index_fallbacks += 1
        return self._scan_full(groups, x0, log_y)

    def _scan_full(
        self, groups: list[_PackedGroup], x0: np.ndarray, log_y: np.ndarray
    ) -> tuple[int, float] | None:
        """Exact membership over *every* candidate; nearest passing wins.

        The tolerance filter runs over the full candidate set — never a
        distance-windowed subset — because the matmul has already been
        paid for all of them: windowing the comparison could only turn a
        passing region into a false miss (and a full re-solve) with zero
        compute saved.
        """
        errors_parts, dists_parts, keys = [], [], []
        for group in groups:
            actual = log_y[group.cs] - log_y[group.cps]      # (P,)
            errors, dists = membership_scan(*group.stacked(), x0, actual)
            errors_parts.append(errors)
            dists_parts.append(dists)
            keys.extend(group.keys)
        errors = np.concatenate(errors_parts)
        dists = np.concatenate(dists_parts)

        passing = np.nonzero(errors <= self.tol)[0]
        if passing.size == 0:
            return None
        best = int(passing[np.argmin(dists[passing])])
        return keys[best], float(dists[best])

    def _scan_shortlisted(
        self, groups: list[_PackedGroup], x0: np.ndarray, log_y: np.ndarray
    ) -> tuple[int, float] | None:
        """Exact membership over each group's sign-index shortlist only.

        Gathers the shortlisted rows out of the packed stacks and runs
        the same matmul + tolerance test as the full scan, just over
        ``min(index_shortlist, max_candidates)`` candidates per group
        instead of all of them.  Returns ``None`` when no shortlisted
        candidate passes — the caller then falls back to the full scan.
        """
        cap = self.index_shortlist
        if self.max_candidates is not None:
            cap = min(cap, self.max_candidates)
        best: tuple[float, int] | None = None  # (dist, key)
        for group in groups:
            shortlist = group.index.shortlist(x0, cap)
            if not shortlist:
                continue
            actual = log_y[group.cs] - log_y[group.cps]
            errors, dists = membership_scan(
                *group.gathered(shortlist), x0, actual
            )
            passing = np.nonzero(errors <= self.tol)[0]
            if passing.size:
                i = int(passing[np.argmin(dists[passing])])
                if best is None or dists[i] < best[0]:
                    best = (float(dists[i]), shortlist[i])
        if best is None:
            return None
        return best[1], best[0]

    def insert(self, interpretation: Interpretation) -> bool:
        """Cache a certified interpretation; returns False for duplicates.

        Only fully certified interpretations are accepted — the cache's
        contract is Theorem 2's region-wide exactness, which uncertified
        estimates do not carry.  An interpretation whose own affine claim
        is already reproduced by a cached entry (same region, same class,
        same pair set) refreshes that entry instead of duplicating it —
        detected with one matmul over the packed candidate stacks.

        Complexity: :math:`O(m P d)` for the duplicate scan over the
        ``m`` same-group entries, plus O(P d) to write the new row into
        the group's resident stacks (an eviction shifts the later rows
        of its group by one — a memmove, no re-stack).

        Raises
        ------
        ValidationError
            If the interpretation is not fully certified, or its
            dimensionality disagrees with the cached entries.
        """
        if not interpretation.all_certified:
            raise ValidationError(
                "only certified interpretations can enter the region cache"
            )
        x0 = interpretation.x0
        if self._dim is not None and x0.shape[0] != self._dim:
            raise ValidationError(
                f"interpretation x0 has dimensionality {x0.shape[0]} but "
                f"cached entries have dimensionality {self._dim}"
            )
        pairs = tuple(sorted(interpretation.pair_estimates))
        for pair in pairs:
            w = interpretation.pair_estimates[pair].weights
            if w.shape != x0.shape:
                raise ValidationError(
                    f"pair {pair} weights have shape {w.shape} but x0 has "
                    f"shape {x0.shape}"
                )
        self._purge_expired()
        group_key = (interpretation.target_class, pairs)

        # Same-region duplicate detection: compare the *claims* of the new
        # and cached hyperplanes at the new x0 (both exact in-region).
        group = self._groups.get(group_key)
        if group is not None and len(group):
            new_claims = np.asarray(
                [
                    interpretation.pair_estimates[p].weights @ x0
                    + interpretation.pair_estimates[p].intercept
                    for p in pairs
                ]
            )
            agree = (
                np.abs(group.claims_at(x0) - new_claims).max(axis=1)
                <= self.tol
            )
            if agree.any():
                self._duplicates += 1
                refreshed = self._entries[group.keys[int(np.argmax(agree))]]
                self._touch(refreshed)
                return False

        entry = RegionCacheEntry(
            key=next(self._keys),
            x0=x0,
            target_class=interpretation.target_class,
            pair_estimates=dict(interpretation.pair_estimates),
            decision_features=interpretation.decision_features,
            final_edge=interpretation.final_edge,
        )
        self._entries[entry.key] = entry
        if group is None:
            group = _PackedGroup(
                pairs,
                x0.shape[0],
                index=self._new_index(x0),
            )
            self._groups[group_key] = group
        group.add(entry)
        self._group_of[entry.key] = group_key
        self._dim = x0.shape[0]
        max_class = max((max(c, cp) for c, cp in pairs), default=-1)
        self._min_classes = max(self._min_classes or 0, max_class + 1)
        self._resident_bytes += entry.resident_bytes
        entry.last_touch = self._clock()
        while len(self._entries) > self.max_entries:
            self._evict(next(iter(self._entries)))
        self._insertions += 1
        return True

    def _new_index(self, x0: np.ndarray) -> RegionSignIndex | None:
        """A fresh per-group sign index (``None`` with the index off)."""
        if not self.region_index:
            return None
        return RegionSignIndex(x0.shape[0], bits=self.index_bits)

    def _touch(self, entry: RegionCacheEntry) -> None:
        """Refresh recency (LRU position) and the TTL lease of an entry."""
        self._entries.move_to_end(entry.key)
        entry.last_touch = self._clock()

    def _evict(self, key: int) -> None:
        entry = self._entries.pop(key)
        group_key = self._group_of.pop(key)
        self._groups[group_key].remove(key)
        self._resident_bytes -= entry.resident_bytes
        self._evictions += 1
        if self.on_evict is not None:
            self.on_evict(entry, group_key[1])

    def _purge_expired(self) -> None:
        """Drop entries past their TTL lease (no-op under ``"lru"``).

        Entries are kept in recency order, so expiry only ever needs to
        pop from the least-recently-touched end — O(expired), not
        O(size)."""
        if self.ttl_s is None:
            return
        now = self._clock()
        while self._entries:
            oldest = next(iter(self._entries.values()))
            if now - oldest.last_touch < self.ttl_s:
                break
            self._evict(oldest.key)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()
        self._groups.clear()
        self._group_of.clear()
        self._dim = None
        self._min_classes = None
        self._resident_bytes = 0

    def stats(self) -> CacheStats:
        """An immutable counter snapshot (see :class:`CacheStats`)."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            insertions=self._insertions,
            duplicates_skipped=self._duplicates,
            evictions=self._evictions,
            index_hits=self._index_hits,
            index_fallbacks=self._index_fallbacks,
            size=len(self._entries),
            resident_bytes=self._resident_bytes,
        )

    def _pairs_of(self, entry: RegionCacheEntry) -> tuple[tuple[int, int], ...]:
        return self._group_of[entry.key][1]

    # ------------------------------------------------------------------ #
    def _rebase(self, entry: RegionCacheEntry, x0: np.ndarray) -> Interpretation:
        """The cached region parameters, re-anchored at the new instance.

        The arrays are shared with the cache entry on purpose: a cache-hit
        response is *bitwise* the certified solve that populated the entry
        (Interpretation treats them as immutable).
        """
        return Interpretation(
            x0=x0,
            target_class=entry.target_class,
            decision_features=entry.decision_features,
            pair_estimates=entry.pair_estimates,
            method=self.served_method,
            iterations=0,
            final_edge=entry.final_edge,
            n_queries=1,
            samples=None,
        )
