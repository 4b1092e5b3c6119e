"""The interpretation serving layer: throughput architecture over OpenAPI.

The paper proves (Theorem 2) that one certified closed-form solve is exact
for the *entire* convex region containing the queried instance.  This
package converts that guarantee into serving machinery:

* :class:`RegionCache` — certified core parameters reused across every
  later query landing in the same activation region, verified by a cheap
  log-odds membership check, bounded by LRU or TTL eviction;
* :class:`TieredRegionStore` (:mod:`repro.serving.store`) — the
  persistent two-tier store: the RAM cache as L1 over an
  append-only, memory-mapped, crash-safe disk segment store as L2;
  evictions demote to disk, disk hits promote back, and the region
  inventory outlives both process memory and process lifetime (the
  segment directory is the one persistence format: a restart over it
  resumes every region);
* :class:`InterpretationService` — request queue + micro-batching loop
  coalescing concurrent requests into lock-step batch round trips, with
  structured error envelopes and full meter accounting;
* :class:`RegionSignIndex` (:mod:`repro.serving.index`) — the
  hyperplane-sign pruning index: shortlists candidates before the exact
  membership matmul in both tiers, falling back to the full scan on a
  shortlist miss, so answers are identical with the index on or off;
* :class:`Gateway` (:mod:`repro.serving.gateway`) — the multi-process
  tier: an asyncio HTTP/JSON front end routing requests across a fleet
  of worker processes (:mod:`repro.serving.worker`), each an
  :class:`InterpretationService` over an :class:`L2ReaderCache` — a
  private RAM L1 above a *shared read-only* view of one L2 segment
  directory, which the gateway's single writer appends to and
  publishes (epoch-bumped atomic index renames);
* :mod:`repro.serving.workload` — skewed workload generation (Zipf,
  drifting Zipf, multi-tenant, churn) for ``repro serve`` and the
  serving benchmarks in ``benchmarks/``.

See ``docs/architecture.md`` for the end-to-end data flow and
``docs/serving.md`` for the operator guide.
"""

from repro.serving.cache import (
    DEFAULT_MEMBERSHIP_TOL,
    EVICTION_POLICIES,
    CacheStats,
    RegionCache,
    RegionCacheEntry,
)
from repro.serving.index import (
    DEFAULT_INDEX_BITS,
    DEFAULT_INDEX_SHORTLIST,
    INDEX_SEED,
    MAX_INDEX_BITS,
    RegionSignIndex,
    hyperplane_bank,
)
from repro.serving.gateway import (
    Gateway,
    GatewayClient,
    GatewayStats,
    replay_workload,
)
from repro.serving.metrics import ServiceMetrics, ServiceStats
from repro.serving.service import InterpretationService, PendingResponse
from repro.serving.store import (
    L2ReaderCache,
    SegmentStore,
    TieredRegionStore,
    TieredStoreStats,
    region_signature,
    signature_of,
)
from repro.serving.workload import (
    churn_workload,
    drifting_zipf_workload,
    multi_tenant_workload,
    zipf_clustered_workload,
)

__all__ = [
    "RegionCache",
    "RegionCacheEntry",
    "CacheStats",
    "DEFAULT_MEMBERSHIP_TOL",
    "EVICTION_POLICIES",
    "SegmentStore",
    "L2ReaderCache",
    "TieredRegionStore",
    "TieredStoreStats",
    "Gateway",
    "GatewayClient",
    "GatewayStats",
    "replay_workload",
    "region_signature",
    "signature_of",
    "ServiceMetrics",
    "ServiceStats",
    "InterpretationService",
    "PendingResponse",
    "RegionSignIndex",
    "hyperplane_bank",
    "INDEX_SEED",
    "DEFAULT_INDEX_BITS",
    "DEFAULT_INDEX_SHORTLIST",
    "MAX_INDEX_BITS",
    "zipf_clustered_workload",
    "drifting_zipf_workload",
    "multi_tenant_workload",
    "churn_workload",
]
