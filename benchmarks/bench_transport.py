"""Query-transport broker: fused round trips under concurrent callers.

The broker's claim (``repro/api/transport.py``): many interpretations in
flight at once should *share* round trips — each caller's probe and
shrink-round queries coalesce into fused ``predict_proba_blocks`` trips —
without changing a single bit of any answer and without blurring whose
queries were whose.  This bench drives ``--callers`` concurrent
``OpenAPIInterpreter`` threads through three arms and gates:

1. **Round-trip reduction** — the brokered arm must perform at least
   ``GATE_MIN_TRIP_REDUCTION``x fewer physical API round trips than the
   broker-off arm (same interpreters, same seeds, per-request dispatch).
2. **Bitwise transparency** — on the clean transport, every brokered
   interpretation must be *bitwise identical* (decision features, every
   pair's weights/intercept, query count) to the broker-off arm's.
3. **Exact attribution under faults** — on a lossy transport (seeded
   transient failures + retries), every caller still gets the bitwise
   identical answer, and the per-caller handle meters must sum *exactly*
   to the API's query meter: ``sum(handle.query_count) ==
   api.query_count``.

Run standalone (the CI smoke uses ``--tiny`` and emits
``BENCH_transport.json``)::

    PYTHONPATH=src python benchmarks/bench_transport.py --tiny
    PYTHONPATH=src python benchmarks/bench_transport.py --callers 32 \
        --output BENCH_transport.json

or as a pytest bench: ``pytest benchmarks/bench_transport.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.api import (
    DirectTransport,
    PredictionAPI,
    QueryBroker,
    RetryPolicy,
    SimulatedTransport,
)
from repro.core import OpenAPIInterpreter
from repro.core.types import Interpretation
from serving_common import train_bench_model

#: Minimum physical-round-trip reduction (broker-off trips / brokered
#: trips) at 32 concurrent interpretations.
GATE_MIN_TRIP_REDUCTION: float = 3.0

#: Transient-failure probability of the fault-injection arm.
FAULT_FAILURE_PROB: float = 0.25


@dataclass(frozen=True)
class TransportBenchReport:
    """The three arms' accounting plus the gate verdicts."""

    n_callers: int
    trips_direct: int
    trips_brokered: int
    trip_reduction: float
    queries_direct: int
    queries_brokered: int
    bitwise_identical: bool
    attribution_exact_clean: bool
    attribution_exact_faulty: bool
    bitwise_identical_faulty: bool
    faulty_retries: int
    faulty_transient_failures: int
    elapsed_direct_s: float
    elapsed_brokered_s: float
    broker_stats: dict

    def as_dict(self) -> dict:
        return {
            "n_callers": self.n_callers,
            "trips_direct": self.trips_direct,
            "trips_brokered": self.trips_brokered,
            "trip_reduction": self.trip_reduction,
            "queries_direct": self.queries_direct,
            "queries_brokered": self.queries_brokered,
            "bitwise_identical": self.bitwise_identical,
            "attribution_exact_clean": self.attribution_exact_clean,
            "attribution_exact_faulty": self.attribution_exact_faulty,
            "bitwise_identical_faulty": self.bitwise_identical_faulty,
            "faulty_retries": self.faulty_retries,
            "faulty_transient_failures": self.faulty_transient_failures,
            "elapsed_direct_s": self.elapsed_direct_s,
            "elapsed_brokered_s": self.elapsed_brokered_s,
            "broker_stats": self.broker_stats,
        }

    def as_text(self) -> str:
        return "\n".join([
            "query-transport broker: fused round trips under "
            f"{self.n_callers} concurrent interpretations",
            "",
            f"{'arm':<12} {'trips':>7} {'queries':>9} {'sec':>8}",
            f"{'direct':<12} {self.trips_direct:>7} "
            f"{self.queries_direct:>9} {self.elapsed_direct_s:>8.3f}",
            f"{'brokered':<12} {self.trips_brokered:>7} "
            f"{self.queries_brokered:>9} {self.elapsed_brokered_s:>8.3f}",
            "",
            f"round-trip reduction (direct / brokered): "
            f"{self.trip_reduction:.1f}x",
            f"bitwise identical (clean transport):      "
            f"{self.bitwise_identical}",
            f"per-caller attribution exact (clean):     "
            f"{self.attribution_exact_clean}",
            f"per-caller attribution exact (faulty):    "
            f"{self.attribution_exact_faulty} "
            f"({self.faulty_transient_failures} failures, "
            f"{self.faulty_retries} retries survived)",
            f"bitwise identical (faulty transport):     "
            f"{self.bitwise_identical_faulty}",
        ])


def _run_arm(
    model,
    instances: np.ndarray,
    *,
    broker_factory,
    seed: int,
) -> tuple[PredictionAPI, QueryBroker, list[Interpretation], float]:
    """One arm: every caller interprets its instance on its own thread.

    All callers share one API through one broker; caller ``i`` uses
    interpreter seed ``seed + i`` in every arm, so arms are comparable
    caller by caller.  A barrier lines the threads up so the coalescing
    window actually sees concurrency.
    """
    api = PredictionAPI(model)
    broker = broker_factory(api)
    n = instances.shape[0]
    results: list[Interpretation | None] = [None] * n
    errors: list[Exception | None] = [None] * n
    barrier = threading.Barrier(n)

    def work(i: int) -> None:
        handle = broker.handle(f"caller-{i}")
        interpreter = OpenAPIInterpreter(seed=seed + i)
        barrier.wait()
        try:
            results[i] = interpreter.interpret(handle, instances[i])
        except Exception as exc:  # noqa: BLE001 — reported in the gate
            errors[i] = exc

    threads = [
        threading.Thread(target=work, args=(i,), name=f"caller-{i}")
        for i in range(n)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    failed = [e for e in errors if e is not None]
    if failed:
        raise RuntimeError(
            f"{len(failed)} caller(s) failed; first: {failed[0]!r}"
        ) from failed[0]
    return api, broker, results, elapsed  # type: ignore[return-value]


def _interpretation_fingerprint(interp: Interpretation) -> tuple:
    """Everything that must match bitwise across arms."""
    pairs = tuple(sorted(interp.pair_estimates))
    return (
        interp.target_class,
        interp.iterations,
        interp.n_queries,
        interp.decision_features.tobytes(),
        pairs,
        tuple(
            (
                interp.pair_estimates[p].weights.tobytes(),
                float(interp.pair_estimates[p].intercept).hex(),
            )
            for p in pairs
        ),
    )


def _attribution_exact(api: PredictionAPI, broker: QueryBroker) -> bool:
    return sum(h.query_count for h in broker.handles) == api.query_count


def run_transport_benchmark(
    *,
    n_callers: int = 32,
    seed: int = 0,
    tiny: bool = False,
    window_s: float = 0.02,
) -> TransportBenchReport:
    """The three-arm comparison; see the module docstring for the gates."""
    n_features, epochs = (5, 30) if tiny else (8, 80)
    model, X = train_bench_model(
        n_features=n_features, epochs=epochs, seed=seed
    )
    instances = X[:n_callers]
    if instances.shape[0] < n_callers:
        reps = -(-n_callers // X.shape[0])
        instances = np.tile(X, (reps, 1))[:n_callers]

    # Arm 1 — broker off: same machinery, coalescing disabled, so every
    # logical request is its own physical trip and per-caller meters are
    # still exact (a raw shared API could not attribute concurrent
    # callers).
    api_direct, broker_direct, direct, elapsed_direct = _run_arm(
        model, instances, seed=seed,
        broker_factory=lambda api: QueryBroker(
            DirectTransport(api), coalesce=False
        ),
    )

    # Arm 2 — broker on, clean transport.
    api_brokered, broker_brokered, brokered, elapsed_brokered = _run_arm(
        model, instances, seed=seed,
        broker_factory=lambda api: QueryBroker(
            DirectTransport(api), window_s=window_s
        ),
    )

    # Arm 3 — broker on, lossy transport: seeded transient failures,
    # instant (injected) backoff so the bench stays fast.
    api_faulty, broker_faulty, faulty, _ = _run_arm(
        model, instances, seed=seed,
        broker_factory=lambda api: QueryBroker(
            SimulatedTransport(
                api, failure_prob=FAULT_FAILURE_PROB, seed=seed, sleep=None
            ),
            window_s=window_s,
            retry=RetryPolicy(max_retries=16),
            sleep=None,
        ),
    )

    fingerprints_direct = [_interpretation_fingerprint(i) for i in direct]
    bitwise = fingerprints_direct == [
        _interpretation_fingerprint(i) for i in brokered
    ]
    bitwise_faulty = fingerprints_direct == [
        _interpretation_fingerprint(i) for i in faulty
    ]
    faulty_stats = broker_faulty.stats()
    return TransportBenchReport(
        n_callers=n_callers,
        trips_direct=api_direct.request_count,
        trips_brokered=api_brokered.request_count,
        trip_reduction=(
            api_direct.request_count / api_brokered.request_count
            if api_brokered.request_count
            else float("inf")
        ),
        queries_direct=api_direct.query_count,
        queries_brokered=api_brokered.query_count,
        bitwise_identical=bitwise,
        attribution_exact_clean=(
            _attribution_exact(api_direct, broker_direct)
            and _attribution_exact(api_brokered, broker_brokered)
        ),
        attribution_exact_faulty=_attribution_exact(api_faulty, broker_faulty),
        bitwise_identical_faulty=bitwise_faulty,
        faulty_retries=faulty_stats.n_retries,
        faulty_transient_failures=faulty_stats.n_transient,
        elapsed_direct_s=elapsed_direct,
        elapsed_brokered_s=elapsed_brokered,
        broker_stats=broker_brokered.stats().as_dict(),
    )


def gate_failures(report: TransportBenchReport) -> list[str]:
    """Every violated acceptance gate, as human-readable messages."""
    failures = []
    if report.trip_reduction < GATE_MIN_TRIP_REDUCTION:
        failures.append(
            f"round-trip reduction {report.trip_reduction:.1f}x below the "
            f"{GATE_MIN_TRIP_REDUCTION:.0f}x gate "
            f"({report.trips_direct} direct vs {report.trips_brokered} "
            "brokered trips)"
        )
    if not report.bitwise_identical:
        failures.append(
            "brokered interpretations are not bitwise identical to the "
            "broker-off arm on a clean transport"
        )
    if not report.attribution_exact_clean:
        failures.append(
            "per-caller query attribution does not sum to the API meter "
            "on the clean transport"
        )
    if not report.attribution_exact_faulty:
        failures.append(
            "per-caller query attribution does not sum to the API meter "
            "under fault injection"
        )
    if not report.bitwise_identical_faulty:
        failures.append(
            "interpretations differ under fault injection (retries must "
            "not change answers)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="query-transport broker: fused round trips, bitwise "
        "transparency, exact attribution"
    )
    parser.add_argument("--callers", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke scale (small model, short training; same gates)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the report as a JSON artifact",
    )
    args = parser.parse_args(argv)
    if args.callers < 2:
        print("error: --callers must be >= 2", file=sys.stderr)
        return 2

    report = run_transport_benchmark(
        n_callers=args.callers, seed=args.seed, tiny=args.tiny
    )
    print(report.as_text())
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")
        print(f"\nJSON artifact written to {args.output}")

    failures = gate_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_transport_broker(record_result):
    """Pytest-harness entry (``pytest benchmarks/bench_transport.py``)."""
    report = run_transport_benchmark(tiny=True)
    record_result("transport_broker", report.as_text())
    assert not gate_failures(report)


if __name__ == "__main__":
    raise SystemExit(main())
