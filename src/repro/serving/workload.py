"""Skewed serving workloads.

Real interpretation traffic is skewed: a fraud-review queue re-examines
the same few customer profiles, a credit-decisioning UI re-renders the
same application while an analyst tweaks inputs.  Region reuse is
precisely the exploitation of that skew, so ``repro serve`` and the
serving benchmarks in ``benchmarks/`` drive the service with skewed
workloads:

* :func:`zipf_clustered_workload` — static Zipf popularity over ``k``
  anchor instances;
* :func:`drifting_zipf_workload` — the popularity *ranking* rotates over
  time, the regime where bounded LRU caches must track a moving hot set;
* :func:`multi_tenant_workload` — several tenants, each with its own
  anchor pool and its own skew, interleaved;
* :func:`churn_workload` — a sliding window of active anchors with
  newest-is-hottest popularity, so regions *retire* and the cache must
  turn its inventory over.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "zipf_clustered_workload",
    "drifting_zipf_workload",
    "multi_tenant_workload",
    "churn_workload",
]


def _validate_workload_args(
    anchors: np.ndarray, n_requests: int, exponent: float, jitter: float
) -> np.ndarray:
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.ndim != 2 or anchors.shape[0] < 1:
        raise ValidationError(
            f"anchors must be a non-empty (k, d) matrix, got {anchors.shape}"
        )
    if n_requests < 1:
        raise ValidationError(f"n_requests must be >= 1, got {n_requests}")
    if exponent <= 0:
        raise ValidationError(f"exponent must be > 0, got {exponent}")
    if jitter < 0:
        raise ValidationError(f"jitter must be >= 0, got {jitter}")
    return anchors


def _zipf_weights(k: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def zipf_clustered_workload(
    anchors: np.ndarray,
    n_requests: int,
    *,
    exponent: float = 1.1,
    jitter: float = 0.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Draw a skewed request stream over a set of anchor instances.

    Parameters
    ----------
    anchors:
        ``(k, d)`` anchor instances (e.g. rows of a test set); anchor
        ``i`` receives traffic proportional to ``1 / (i + 1) ** exponent``.
    n_requests:
        Number of requests to draw.
    exponent:
        Zipf skew (1.0–1.3 are typical web-traffic fits; higher = more
        concentrated).
    jitter:
        Std-dev of Gaussian perturbation applied per request — small
        values keep requests inside the anchor's region while making
        every instance distinct (exercising the membership check rather
        than trivial equality).

    Returns
    -------
    ``(n_requests, d)`` request instances.

    Raises
    ------
    ValidationError
        For an empty/mis-shaped anchor matrix or non-positive
        ``n_requests``/``exponent`` (negative ``jitter``).
    """
    anchors = _validate_workload_args(anchors, n_requests, exponent, jitter)
    rng = as_generator(seed)
    k = anchors.shape[0]
    choice = rng.choice(k, size=n_requests, p=_zipf_weights(k, exponent))
    requests = anchors[choice]
    if jitter > 0:
        requests = requests + rng.normal(0.0, jitter, size=requests.shape)
    return requests


def drifting_zipf_workload(
    anchors: np.ndarray,
    n_requests: int,
    *,
    exponent: float = 1.1,
    drift_interval: int | None = None,
    drift_step: int = 1,
    jitter: float = 0.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """A Zipf stream whose popularity *ranking* rotates over time.

    The anchor-to-rank assignment is rolled by ``drift_step`` positions
    every ``drift_interval`` requests: yesterday's hottest profile cools
    down, a previously cold one heats up.  This is the regime where a
    bounded LRU cache has to *track* the hot set rather than memorize
    it — the workload the tiered-store benchmark gates demotion and
    promotion on.

    Parameters
    ----------
    anchors, n_requests, exponent, jitter, seed:
        As in :func:`zipf_clustered_workload`.
    drift_interval:
        Requests between ranking rotations (default: an eighth of the
        stream, i.e. seven rotations over the replay).
    drift_step:
        How many rank positions each rotation shifts.

    Returns
    -------
    ``(n_requests, d)`` request instances.

    Raises
    ------
    ValidationError
        As :func:`zipf_clustered_workload`, plus non-positive
        ``drift_interval``/negative ``drift_step``.
    """
    anchors = _validate_workload_args(anchors, n_requests, exponent, jitter)
    if drift_interval is None:
        drift_interval = max(1, n_requests // 8)
    if drift_interval < 1:
        raise ValidationError(
            f"drift_interval must be >= 1, got {drift_interval}"
        )
    if drift_step < 0:
        raise ValidationError(f"drift_step must be >= 0, got {drift_step}")
    rng = as_generator(seed)
    k = anchors.shape[0]
    weights = _zipf_weights(k, exponent)
    order = np.arange(k)
    choices = np.empty(n_requests, dtype=np.intp)
    for start in range(0, n_requests, drift_interval):
        stop = min(start + drift_interval, n_requests)
        epoch = start // drift_interval
        rolled = np.roll(order, epoch * drift_step)
        ranks = rng.choice(k, size=stop - start, p=weights)
        choices[start:stop] = rolled[ranks]
    requests = anchors[choices]
    if jitter > 0:
        requests = requests + rng.normal(0.0, jitter, size=requests.shape)
    return requests


def multi_tenant_workload(
    anchors: np.ndarray,
    n_requests: int,
    *,
    n_tenants: int = 4,
    exponent: float = 1.1,
    jitter: float = 0.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Interleaved traffic of several tenants, each with its own skew.

    The anchor pool is split into ``n_tenants`` disjoint slices; each
    request picks a tenant uniformly, then an anchor from that tenant's
    slice under a tenant-specific Zipf ranking (an independent random
    permutation per tenant, so every tenant has a *different* hot set).
    The aggregate stream is what a shared serving tier actually sees:
    several unrelated hot sets competing for cache residency.

    Returns
    -------
    ``(n_requests, d)`` request instances.

    Raises
    ------
    ValidationError
        As :func:`zipf_clustered_workload`, plus ``n_tenants`` outside
        ``[1, k]``.
    """
    anchors = _validate_workload_args(anchors, n_requests, exponent, jitter)
    k = anchors.shape[0]
    if not 1 <= n_tenants <= k:
        raise ValidationError(
            f"n_tenants must be in [1, {k}] for {k} anchors, got {n_tenants}"
        )
    rng = as_generator(seed)
    slices = np.array_split(np.arange(k), n_tenants)
    rankings = [rng.permutation(s) for s in slices]
    tenant_of = rng.integers(0, n_tenants, size=n_requests)
    choices = np.empty(n_requests, dtype=np.intp)
    for t, ranking in enumerate(rankings):
        positions = np.nonzero(tenant_of == t)[0]
        if positions.size == 0:
            continue
        ranks = rng.choice(
            ranking.size, size=positions.size,
            p=_zipf_weights(ranking.size, exponent),
        )
        choices[positions] = ranking[ranks]
    requests = anchors[choices]
    if jitter > 0:
        requests = requests + rng.normal(0.0, jitter, size=requests.shape)
    return requests


def churn_workload(
    anchors: np.ndarray,
    n_requests: int,
    *,
    active: int | None = None,
    churn_interval: int | None = None,
    exponent: float = 1.1,
    jitter: float = 0.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Region turnover: a sliding window of active anchors, newest hottest.

    Only ``active`` anchors receive traffic at any moment; every
    ``churn_interval`` requests the window slides by one — the oldest
    active anchor retires (its region goes permanently cold) and a new
    one enters at the top of the popularity ranking.  Replaying this
    stream makes *every* cached region eventually dead weight, the case
    TTL eviction and bounded LRU exist for.

    Parameters
    ----------
    active:
        Window size (default ``min(8, k)``).
    churn_interval:
        Requests between window slides (default ``max(1, n_requests // k)``
        so the window traverses the whole pool about once).

    Returns
    -------
    ``(n_requests, d)`` request instances.

    Raises
    ------
    ValidationError
        As :func:`zipf_clustered_workload`, plus ``active`` outside
        ``[1, k]`` or non-positive ``churn_interval``.
    """
    anchors = _validate_workload_args(anchors, n_requests, exponent, jitter)
    k = anchors.shape[0]
    if active is None:
        active = min(8, k)
    if not 1 <= active <= k:
        raise ValidationError(
            f"active must be in [1, {k}] for {k} anchors, got {active}"
        )
    if churn_interval is None:
        churn_interval = max(1, n_requests // k)
    if churn_interval < 1:
        raise ValidationError(
            f"churn_interval must be >= 1, got {churn_interval}"
        )
    rng = as_generator(seed)
    weights = _zipf_weights(active, exponent)
    choices = np.empty(n_requests, dtype=np.intp)
    for start in range(0, n_requests, churn_interval):
        stop = min(start + churn_interval, n_requests)
        base = start // churn_interval
        # Rank 0 = the newest member of the window.
        window = (base + active - 1 - np.arange(active)) % k
        ranks = rng.choice(active, size=stop - start, p=weights)
        choices[start:stop] = window[ranks]
    requests = anchors[choices]
    if jitter > 0:
        requests = requests + rng.normal(0.0, jitter, size=requests.shape)
    return requests
