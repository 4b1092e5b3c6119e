"""Serving throughput: region-reuse cache on vs off under skewed traffic.

The serving layer's claim: because one certified solve is exact for its
whole activation region (Theorem 2), a Zipfian clustered workload — the
shape of real interpretation traffic — is served mostly from cache, at
one probe query per answer instead of a full Algorithm-1 run.  This bench
replays the identical request stream through two identically-seeded
services (cache enabled / disabled) and reports:

* interpretations/sec and the speedup, gated at default scale against a
  machine-relative threshold (see :func:`speedup_threshold`);
* API query and round-trip reduction;
* the cache-hit-rate trajectory per workload decile;
* an exactness audit: every answer against the OpenBox ground truth, and
  every cache-served answer bitwise against the fresh certified solve
  that populated its region entry.

Run standalone (the CI smoke uses ``--tiny``)::

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py --tiny
    PYTHONPATH=src python benchmarks/bench_serving_throughput.py \\
        --output BENCH_serving.json

or as a pytest bench: ``pytest benchmarks/bench_serving_throughput.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.api.service import PredictionAPI
from repro.api.transport import DirectTransport, QueryBroker
from repro.models.base import PiecewiseLinearModel
from repro.serving import (
    InterpretationService,
    RegionCache,
    zipf_clustered_workload,
)
from serving_common import (
    ThroughputArm,
    arm_header,
    arm_row,
    bad_sizes,
    gt_failures,
    run_arm,
    train_bench_model,
    write_report,
)

#: Cap on the speedup gate at default scale.  The *effective* gate is
#: machine-relative — ``SPEEDUP_RETENTION`` of the speedup bound measured
#: inside the same run (see :func:`speedup_threshold`), capped here and
#: floored at :data:`MIN_SPEEDUP_FLOOR` — because an absolute constant
#: silently encodes one machine's solve/probe cost ratio.  The ``--tiny``
#: CI smoke only gates correctness (bitwise consistency, ground truth),
#: not throughput.
DEFAULT_SPEEDUP_THRESHOLD: float = 5.0

#: Fraction of the same-machine speedup bound the measured speedup must
#: retain at full scale.
SPEEDUP_RETENTION: float = 0.5

#: The speedup gate never drops below this, however slow the machine —
#: a cache that cannot double throughput on a Zipfian workload is broken
#: regardless of hardware.
MIN_SPEEDUP_FLOOR: float = 1.5


@dataclass(frozen=True)
class ThroughputReport:
    """The two arms plus the derived speedup and the exactness audit."""

    cached: ThroughputArm
    uncached: ThroughputArm
    speedup: float
    query_reduction: float
    cache_bitwise_consistent: bool
    #: Same-machine speedup bound measured inside the run: with per-hit
    #: cost ``t_hit`` (timed on the warm cached service), per-solve cost
    #: ``t_solve`` (the uncached arm's per-request cost) and hit rate
    #: ``h``, the best a cache could do here is
    #: ``rho / ((1 - h) rho + h)`` for ``rho = t_solve / t_hit``.
    baseline_speedup: float = float("nan")

    def as_text(self) -> str:
        lines = [
            "serving throughput: region cache on vs off "
            "(Zipfian clustered workload)",
            "",
            arm_header(),
        ]
        for arm in (self.cached, self.uncached):
            lines.append(arm_row(arm))
        trajectory = "  ".join(
            f"{100 * r:.0f}%" for r in self.cached.hit_trajectory
        )
        bound = (
            f"{self.baseline_speedup:.1f}x"
            if np.isfinite(self.baseline_speedup)
            else "n/a"
        )
        lines += [
            "",
            f"speedup (interp/s, cached / uncached): {self.speedup:.1f}x",
            f"same-machine speedup bound:            {bound}",
            f"query reduction (uncached / cached):   {self.query_reduction:.1f}x",
            f"cache-hit trajectory (per decile):     {trajectory}",
            f"cache-served bitwise == region solve:  "
            f"{self.cache_bitwise_consistent}",
        ]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-safe rendering (``BENCH_serving.json``; key set pinned by
        the schema test)."""
        return {
            "cached": self.cached.as_dict(),
            "uncached": self.uncached.as_dict(),
            "speedup": self.speedup,
            "query_reduction": self.query_reduction,
            "cache_bitwise_consistent": self.cache_bitwise_consistent,
            "baseline_speedup": (
                float(self.baseline_speedup)
                if np.isfinite(self.baseline_speedup)
                else None
            ),
        }


def _measure_hit_cost_s(
    service: InterpretationService,
    x0: np.ndarray,
    *,
    batch_size: int = 32,
    repeats: int = 8,
) -> float:
    """Amortized per-request cost of a cache hit on the (warm) service.

    One warm-up call guarantees the region is resident, then ``repeats``
    timed micro-batches of ``batch_size`` duplicate requests measure the
    per-request probe-and-serve cost *with the same flush amortization
    the replayed workload enjoys* — timing single-request flushes would
    overstate ``t_hit`` by the per-flush overhead the replay amortizes
    ~``batch_size``-way, and silently deflate the speedup bound the gate
    is scaled by.
    """
    service.interpret(x0)
    batch = np.tile(np.asarray(x0), (batch_size, 1))
    start = time.perf_counter()
    for _ in range(repeats):
        service.interpret_many(batch)
    return (time.perf_counter() - start) / (repeats * batch_size)


def run_throughput_benchmark(
    model: PiecewiseLinearModel,
    anchors: np.ndarray,
    *,
    n_requests: int,
    seed: int,
    max_batch_size: int = 32,
    broker: bool = False,
) -> ThroughputReport:
    """Replay one Zipfian workload with the region cache on and off.

    Both arms see the identical request stream and an identically seeded
    interpreter; only ``enable_cache`` differs.  With ``broker=True``
    each arm's service queries through a coalescing
    :class:`~repro.api.QueryBroker` over a clean transport — the broker
    is bitwise transparent, so every report invariant (and the bitwise
    audit) must hold unchanged.

    After the replay the hottest anchor's hit cost is timed on the warm
    cached service and combined with the uncached arm's per-request
    solve cost and the measured hit rate into ``baseline_speedup``.
    """
    requests = zipf_clustered_workload(anchors, n_requests, seed=seed)

    def _make_service(api: PredictionAPI, enable_cache: bool):
        return InterpretationService(
            api,
            cache=RegionCache(max_entries=4096) if enable_cache else None,
            enable_cache=enable_cache,
            max_batch_size=max_batch_size,
            broker=(
                QueryBroker(DirectTransport(api)) if broker else None
            ),
            seed=seed,
        )

    cached, bitwise_ok, cached_service = run_arm(
        model, requests, label="cached",
        service_factory=lambda api: _make_service(api, True),
    )
    uncached, _, _ = run_arm(
        model, requests, label="uncached",
        service_factory=lambda api: _make_service(api, False),
    )
    speedup = (
        cached.interpretations_per_s / uncached.interpretations_per_s
        if uncached.interpretations_per_s > 0
        else float("inf")
    )
    query_reduction = (
        uncached.n_queries / cached.n_queries
        if cached.n_queries > 0
        else float("inf")
    )
    # anchors[0] is the Zipf rank-1 instance, so its region is certainly
    # resident in the cached service.
    t_solve = uncached.elapsed_s / n_requests
    t_hit = _measure_hit_cost_s(
        cached_service, anchors[0], batch_size=max_batch_size
    )
    h = cached.hit_rate
    if t_hit > 0 and t_solve > 0 and np.isfinite(h):
        rho = t_solve / t_hit
        baseline_bound = rho / ((1.0 - h) * rho + h)
    else:
        baseline_bound = float("nan")
    return ThroughputReport(
        cached=cached,
        uncached=uncached,
        speedup=speedup,
        query_reduction=query_reduction,
        cache_bitwise_consistent=bitwise_ok,
        baseline_speedup=baseline_bound,
    )


def speedup_threshold(report: ThroughputReport) -> float:
    """The full-scale speedup gate: :data:`SPEEDUP_RETENTION` of the
    same-machine bound, floored at :data:`MIN_SPEEDUP_FLOOR` and capped
    at :data:`DEFAULT_SPEEDUP_THRESHOLD`.

    Known limitation: the bound is derived from the *same* in-run hit
    cost the measured speedup depends on, so the gate verifies the
    service realizes ``SPEEDUP_RETENTION`` of what its current hit path
    permits — a uniform slowdown of the hit path lowers the bound with
    it and is only caught once the :data:`MIN_SPEEDUP_FLOOR` backstop
    trips.  Guarding absolute hit-path cost across commits needs a
    persisted per-machine reference, which a stateless CI run cannot
    carry.
    """
    if not np.isfinite(report.baseline_speedup):
        return MIN_SPEEDUP_FLOOR
    return min(
        DEFAULT_SPEEDUP_THRESHOLD,
        max(MIN_SPEEDUP_FLOOR, SPEEDUP_RETENTION * report.baseline_speedup),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="serving throughput: region cache on vs off"
    )
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--clusters", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke scale (small model, at most 60 requests and 8 "
        "clusters, no speedup gate)",
    )
    parser.add_argument(
        "--broker", action="store_true",
        help="route both arms through a coalescing QueryBroker "
        "(bitwise transparent on the clean transport)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the report here (JSON for .json paths, text otherwise)",
    )
    args = parser.parse_args(argv)
    if bad_sizes(args, "requests", "clusters"):
        return 2

    if args.tiny:
        n_requests = min(args.requests, 60)
        n_clusters = min(args.clusters, 8)
        n_features, epochs = 5, 40
    else:
        n_requests, n_clusters = args.requests, args.clusters
        n_features, epochs = 8, 80
    model, X = train_bench_model(
        n_features=n_features, epochs=epochs, seed=args.seed
    )
    report = run_throughput_benchmark(
        model, X[:n_clusters], n_requests=n_requests, seed=args.seed,
        broker=args.broker,
    )
    print(report.as_text())
    if args.output:
        write_report(args.output, report)

    failures = gt_failures(report.cached, report.uncached)
    if not report.cache_bitwise_consistent:
        failures.append(
            "cache served a result not bitwise equal to a fresh solve"
        )
    threshold = 1.0 if args.tiny else speedup_threshold(report)
    if report.speedup < threshold:
        failures.append(
            f"speedup {report.speedup:.1f}x below the machine-relative "
            f"gate {threshold:.1f}x (same-machine bound "
            f"{report.baseline_speedup:.1f}x)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_serving_throughput(results_dir):
    """Pytest-harness entry (``pytest benchmarks/bench_serving_throughput.py``)."""
    assert main(["--output", str(results_dir / "serving_throughput.txt")]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
