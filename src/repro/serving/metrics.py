"""Service observability: counters, latency quantiles, savings accounting.

The serving layer's value proposition is quantitative — cache hits served
for one query instead of a full solve, micro-batches collapsing round
trips — so the service meters itself and exposes an immutable
:class:`ServiceStats` snapshot (the CLI's stats endpoint renders it).

Two accounting identities are maintained and pinned by tests:

* ``n_queries + calibration_queries`` equals the backing API's
  query-meter delta over the service's lifetime (every spent query is
  attributed, including queries wasted by budget failures and the
  start-edge calibration at construction);
* ``round_trips`` equals the API's request-meter delta since
  construction (after the calibration), and
  ``round_trips_saved`` is the sequential-equivalent trip count minus the
  actual one (see :mod:`repro.core.batch` for the arithmetic).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.api.service import InterpretResponse
from repro.exceptions import ValidationError

__all__ = ["ServiceMetrics", "ServiceStats"]


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time snapshot of a service's meters.

    Field names are pinned one-to-one to the keys of :meth:`as_dict`
    (and to the glossary in ``docs/serving.md``) by
    ``tests/test_stats_schema.py``, so the JSON emitted by the serving
    benchmarks cannot drift from this documentation.

    Attributes
    ----------
    n_requests, n_ok, n_errors:
        Request outcomes (``n_requests = n_ok + n_errors``).
    cache_hits, cache_misses:
        Requests served from the region cache vs. sent to the solver.
    hit_rate:
        ``cache_hits / n_requests``; 0.0 before the first request — never
        NaN, so JSON consumers of the stats endpoint always receive a
        valid number.
    n_queries:
        API instance queries spent by the service in total.
    queries_per_interpretation:
        ``n_queries / n_ok`` — the amortized per-answer query cost; the
        headline number region reuse drives toward 1.  0.0 before the
        first successful interpretation (never NaN).
    round_trips:
        Actual ``predict_proba`` round trips performed.
    round_trips_saved:
        Sequential-equivalent trips minus actual trips.
    p50_latency_s, p95_latency_s:
        Request latency quantiles over a bounded recent window (NaN when
        no latencies were recorded; rendered as ``n/a`` in text and
        ``None`` in :meth:`as_dict` so serialized output stays JSON-safe).
    initial_edge:
        The first round's edge of every fresh solve (see
        :meth:`~repro.core.batch.BatchOpenAPIInterpreter.start_edge`).
    calibration_queries:
        API queries the service's construction spent calibrating
        ``initial_edge``; not part of ``n_queries``.
    """

    n_requests: int
    n_ok: int
    n_errors: int
    cache_hits: int
    cache_misses: int
    hit_rate: float
    n_queries: int
    queries_per_interpretation: float
    round_trips: int
    round_trips_saved: int
    p50_latency_s: float
    p95_latency_s: float
    initial_edge: float
    calibration_queries: int

    def as_dict(self) -> dict[str, float | int | None]:
        """JSON-safe rendering: non-finite values become ``None``, never
        NaN (``json.dumps`` would otherwise emit invalid-JSON ``NaN``
        literals downstream consumers choke on)."""

        def _safe(value: float) -> float | None:
            return float(value) if np.isfinite(value) else None

        return {
            "n_requests": self.n_requests,
            "n_ok": self.n_ok,
            "n_errors": self.n_errors,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": _safe(self.hit_rate),
            "n_queries": self.n_queries,
            "queries_per_interpretation": _safe(self.queries_per_interpretation),
            "round_trips": self.round_trips,
            "round_trips_saved": self.round_trips_saved,
            "p50_latency_s": _safe(self.p50_latency_s),
            "p95_latency_s": _safe(self.p95_latency_s),
            "initial_edge": _safe(self.initial_edge),
            "calibration_queries": self.calibration_queries,
        }

    def as_text(self) -> str:
        """Aligned key/value rendering (the CLI stats endpoint body)."""
        rows = [
            ("requests", f"{self.n_requests}"),
            ("ok / errors", f"{self.n_ok} / {self.n_errors}"),
            ("cache hits", f"{self.cache_hits} "
                           f"({100.0 * self.hit_rate:.1f}%)"
             if self.n_requests else "0"),
            ("cache misses", f"{self.cache_misses}"),
            ("API queries", f"{self.n_queries}"),
            ("queries / interpretation",
             f"{self.queries_per_interpretation:.2f}"),
            ("round trips", f"{self.round_trips}"),
            ("round trips saved", f"{self.round_trips_saved}"),
            ("p50 latency", _fmt_latency(self.p50_latency_s)),
            ("p95 latency", _fmt_latency(self.p95_latency_s)),
            ("initial edge", f"{self.initial_edge:.6g}"),
            ("calibration queries", f"{self.calibration_queries}"),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def _fmt_latency(seconds: float) -> str:
    if not np.isfinite(seconds):
        return "n/a"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


class ServiceMetrics:
    """Mutable meters behind :class:`ServiceStats` snapshots.

    Thread-compatible by construction: every mutation happens under the
    service's flush lock, so no internal locking is needed.
    """

    def __init__(
        self,
        *,
        latency_window: int = 4096,
        initial_edge: float = 1.0,
        calibration_queries: int = 0,
    ):
        if latency_window < 1:
            raise ValidationError(
                f"latency_window must be >= 1, got {latency_window}"
            )
        self._latencies: deque[float] = deque(maxlen=latency_window)
        self.n_requests = 0
        self.n_ok = 0
        self.n_errors = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.n_queries = 0
        self.round_trips = 0
        self.round_trips_saved = 0
        self.initial_edge = float(initial_edge)
        self.calibration_queries = int(calibration_queries)

    # ------------------------------------------------------------------ #
    def record_response(self, response: InterpretResponse) -> None:
        """Fold one finished request into the counters."""
        self.n_requests += 1
        if response.ok:
            self.n_ok += 1
        else:
            self.n_errors += 1
        if response.served_from_cache:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        if np.isfinite(response.latency_s):
            self._latencies.append(float(response.latency_s))

    def record_flush(
        self,
        *,
        queries_spent: int,
        round_trips: int,
        round_trips_sequential: int,
    ) -> None:
        """Fold one micro-batch's API-side accounting into the counters.

        Parameters
        ----------
        queries_spent:
            The API query-meter delta across the whole flush (ground
            truth, so wasted queries on failures are attributed too).
        round_trips:
            The API request-meter delta across the flush.
        round_trips_sequential:
            What the same requests would have cost served one at a time:
            ``1 + T_i`` per solved instance, 1 per cache hit.
        """
        self.n_queries += int(queries_spent)
        self.round_trips += int(round_trips)
        self.round_trips_saved += int(round_trips_sequential) - int(round_trips)

    def snapshot(self) -> ServiceStats:
        latencies = np.asarray(self._latencies, dtype=np.float64)
        has_lat = latencies.size > 0
        return ServiceStats(
            n_requests=self.n_requests,
            n_ok=self.n_ok,
            n_errors=self.n_errors,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            hit_rate=(self.cache_hits / self.n_requests
                      if self.n_requests else 0.0),
            n_queries=self.n_queries,
            queries_per_interpretation=(self.n_queries / self.n_ok
                                        if self.n_ok else 0.0),
            round_trips=self.round_trips,
            round_trips_saved=self.round_trips_saved,
            p50_latency_s=(float(np.percentile(latencies, 50))
                           if has_lat else float("nan")),
            p95_latency_s=(float(np.percentile(latencies, 95))
                           if has_lat else float("nan")),
            initial_edge=self.initial_edge,
            calibration_queries=self.calibration_queries,
        )
