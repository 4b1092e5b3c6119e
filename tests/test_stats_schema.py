"""Schema pins: stats dataclasses == their JSON == the docs glossary.

The serving benchmarks emit JSON artifacts built from ``as_dict()``
renderings of :class:`ServiceStats`, :class:`CacheStats`,
:class:`TieredStoreStats` and the benchmark
report/arm dataclasses.  These tests pin four invariants so names
cannot drift apart again:

1. every ``as_dict()`` key set equals the dataclass field set (plus the
   documented derived properties, e.g. ``hit_rate``);
2. every stats key is documented in the ``docs/serving.md`` glossary;
3. the rendered JSON is valid JSON (no NaN/Infinity literals);
4. every ``BENCH_*.json`` artifact schema catalogued in
   ``docs/benchmarks.md`` names exactly the keys its report emits.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys
from dataclasses import fields

import numpy as np
import pytest

from repro.core.engine import EngineBenchReport, EngineBenchRow
from repro.serving import (
    CacheStats,
    GatewayBenchArm,
    GatewayBenchReport,
    GatewayStats,
    IndexScalingRow,
    RegionCache,
    RegionIndexReport,
    ServiceMetrics,
    ServiceStats,
    ThroughputArm,
    ThroughputReport,
    TieredStoreReport,
    TieredStoreStats,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = REPO / "docs" / "serving.md"
BENCH_DOCS = REPO / "docs" / "benchmarks.md"


def field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def sample_cache_stats() -> CacheStats:
    return RegionCache().stats()


def sample_service_stats() -> ServiceStats:
    return ServiceMetrics().snapshot()


def sample_broker_stats():
    from repro.api import BrokerStats

    return BrokerStats(
        n_requests=10, n_rows=90, n_round_trips=4, n_coalesced=8,
        max_fused_rows=40, max_fused_requests=5, n_retries=2,
        n_rate_limited=1, n_transient=1, n_exhausted=0,
    )


def sample_arm() -> ThroughputArm:
    return ThroughputArm(
        label="cached", n_requests=4, n_ok=4, elapsed_s=0.1,
        interpretations_per_s=40.0, n_queries=9, round_trips=3,
        hit_rate=0.5, hit_trajectory=(0.0, 0.5), max_gt_l1_error=1e-9,
    )


def sample_tiered_stats() -> TieredStoreStats:
    return TieredStoreStats(
        l1=sample_cache_stats().as_dict(), l1_hits=3, l2_hits=2,
        l2_misses=1, demotions=4, promotions=2, l2_entries=4,
        l2_live_bytes=1024, l2_total_bytes=1536, l2_dead_ratio=1 / 3,
        l2_segments=1, l2_compactions=1, l2_index_hits=2,
        l2_index_fallbacks=1,
    )


def sample_throughput_report() -> ThroughputReport:
    arm = sample_arm()
    return ThroughputReport(
        cached=arm, uncached=arm, speedup=2.0, query_reduction=3.0,
        cache_bitwise_consistent=True, engine_row=None,
        baseline_speedup=4.0,
    )


def sample_tiered_report() -> TieredStoreReport:
    arm = sample_arm()
    return TieredStoreReport(
        all_ram=arm, tiered=arm,
        all_ram_service=sample_service_stats().as_dict(),
        tiered_service=sample_service_stats().as_dict(),
        store=sample_tiered_stats().as_dict(),
        l1_max_entries=4, l1_resident_fraction=0.1,
        hit_retention=1.0, bitwise_consistent=True, churn_requests=120,
        churn_l2_max_bytes=1024, churn_compactions=2,
        churn_max_total_bytes=1800, churn_bytes_bound=2304,
        churn_bounded=True, churn_store=sample_tiered_stats().as_dict(),
    )


def sample_index_row() -> IndexScalingRow:
    return IndexScalingRow(
        n_entries=1000, n_probes=16, linear_scan_s=1e-3,
        indexed_scan_s=1e-4, speedup=10.0, identical_winners=True,
        index_hits=16, index_fallbacks=0,
    )


def sample_region_index_report() -> RegionIndexReport:
    row = sample_index_row()
    return RegionIndexReport(
        d=8, n_pairs=2, index_bits=16, index_shortlist=64,
        rows=(row, row), linear_growth=10.0, indexed_growth=1.5,
        growth_ratio=0.15, max_scale_speedup=10.0,
        identical_winners=True, tiered_requests=120,
        tiered_l1_max_entries=4, tiered_hit_rate_off=0.8,
        tiered_hit_rate_on=0.8, tiered_counts_identical=True,
        tiered_answers_identical=True, tiered_bitwise_consistent=True,
        tiered_store=sample_tiered_stats().as_dict(),
    )


def sample_gateway_stats() -> GatewayStats:
    return GatewayStats(
        n_requests=20, n_ok=19, n_errors=1, n_workers=2, workers_alive=2,
        uptime_s=1.5, requests_per_s=13.3, writer_epoch=3,
        min_worker_epoch=2, max_epoch_lag=1, harvested=6,
        harvest_duplicates=1, l2_records=6, hit_rate=0.7,
        n_shed=2, n_worker_lost=1, n_restarts=1, queue_depth=0,
        queue_depth_peak=3, queue_capacity=64,
        latency_ms_buckets=[1.0, 2.0, 5.0],
        latency_ms_counts=[4, 10, 6, 0],
        latency_p50_ms=2.0, latency_p95_ms=5.0,
        per_worker=[{"worker": 0, "pid": 123, "alive": True}],
    )


def sample_l2_reader_stats() -> dict:
    """A worker tier's meter dict (the ``tier`` payload nested in
    ``GatewayStats.per_worker``)."""
    import tempfile

    from repro.serving import L2ReaderCache

    with tempfile.TemporaryDirectory() as directory:
        reader = L2ReaderCache(directory)
        stats = reader.stats()
        reader.close()
    return stats


def sample_gateway_arm() -> GatewayBenchArm:
    return GatewayBenchArm(
        label="gateway x4", n_workers=4, n_requests=48, n_ok=48,
        elapsed_s=0.5, requests_per_s=96.0, bitwise_identical=True,
        n_mismatches=0, hit_rate=0.8, harvested=10, l2_records=10,
        writer_epoch=2, max_epoch_lag=1, p50_ms=4.0, p95_ms=20.0,
        n_shed=0, n_worker_lost=0, n_restarts=0,
    )


def sample_gateway_report() -> GatewayBenchReport:
    arm = sample_gateway_arm()
    return GatewayBenchReport(
        dataset="blobs", n_requests=48, n_anchors=10, cpu_count=4,
        tiny=True, reference=arm, arms=(arm,), overload=arm,
        rolling_restart=arm, queue_capacity=4, overload_concurrency=8,
        p95_bound_ms=250.0, speedup=2.0,
    )


def sample_engine_report() -> EngineBenchReport:
    row = EngineBenchRow(
        n_instances=4, n_points=8, d=4, C=3, engine_solves_per_s=100.0,
        reference_solves_per_s=25.0, speedup=4.0, max_weight_diff=1e-12,
    )
    return EngineBenchReport(rows=(row,))


def sample_transport_report():
    """The bench_transport report, loaded from the benchmark script (it
    is not an installed module)."""
    spec = importlib.util.spec_from_file_location(
        "bench_transport", REPO / "benchmarks" / "bench_transport.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Register before exec: dataclasses.fields resolves the class's
    # string annotations through sys.modules[cls.__module__].
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    cls = module.TransportBenchReport
    kwargs = {f.name: 0 for f in fields(cls)}
    kwargs["broker_stats"] = sample_broker_stats().as_dict()
    return cls(**kwargs)


def sample_backend_report():
    """The bench_backend report, loaded from the benchmark script (it
    is not an installed module)."""
    spec = importlib.util.spec_from_file_location(
        "bench_backend", REPO / "benchmarks" / "bench_backend.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Register before exec: dataclasses.fields resolves the class's
    # string annotations through sys.modules[cls.__module__].
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    row = module.BackendBenchRow(
        requested="numpy", effective="numpy", n_instances=4, d=4, C=3,
        engine_solves_per_s=100.0, scan_candidates_per_s=1e6,
        engine_speedup_vs_numpy=1.0, scan_speedup_vs_numpy=1.0,
        max_weight_diff=1e-12, certificates_identical=True,
    )
    return module.BackendBenchReport(
        rows=(row,), backends_available=("numpy", "stub"),
        gates_passed=True,
    )


class TestAsDictMatchesFields:
    def test_cache_stats(self):
        payload = sample_cache_stats().as_dict()
        assert set(payload) == field_names(CacheStats) | {"hit_rate"}

    def test_service_stats(self):
        payload = sample_service_stats().as_dict()
        assert set(payload) == field_names(ServiceStats)

    def test_throughput_arm(self):
        payload = sample_arm().as_dict()
        assert set(payload) == field_names(ThroughputArm)

    def test_gateway_stats(self):
        payload = sample_gateway_stats().as_dict()
        assert set(payload) == field_names(GatewayStats)

    def test_gateway_bench_arm(self):
        payload = sample_gateway_arm().as_dict()
        assert set(payload) == field_names(GatewayBenchArm)

    def test_gateway_bench_report(self):
        payload = sample_gateway_report().as_dict()
        assert set(payload) == field_names(GatewayBenchReport)
        assert set(payload["reference"]) == field_names(GatewayBenchArm)

    def test_throughput_report(self):
        arm = sample_arm()
        report = ThroughputReport(
            cached=arm, uncached=arm, speedup=2.0, query_reduction=3.0,
            cache_bitwise_consistent=True, engine_row=None,
            baseline_speedup=4.0,
        )
        payload = report.as_dict()
        assert set(payload) == {
            "cached", "uncached", "speedup", "query_reduction",
            "cache_bitwise_consistent", "baseline_speedup", "engine",
        }
        json.dumps(payload)

    def test_throughput_report_default_baseline_is_json_safe(self):
        arm = sample_arm()
        report = ThroughputReport(
            cached=arm, uncached=arm, speedup=2.0, query_reduction=3.0,
            cache_bitwise_consistent=True, engine_row=None,
        )
        payload = report.as_dict()
        assert payload["baseline_speedup"] is None
        json.dumps(payload, allow_nan=False)

    def test_broker_stats(self):
        from repro.api import BrokerStats

        payload = sample_broker_stats().as_dict()
        assert set(payload) == (
            field_names(BrokerStats) | {"round_trip_reduction"}
        )
        json.dumps(payload, allow_nan=False)

    def test_index_scaling_row(self):
        assert set(sample_index_row().as_dict()) == field_names(
            IndexScalingRow
        )

    def test_region_index_report(self):
        payload = sample_region_index_report().as_dict()
        assert set(payload) == field_names(RegionIndexReport)
        json.dumps(payload, allow_nan=False)

    def test_tiered_store_stats(self):
        payload = sample_tiered_stats().as_dict()
        assert set(payload) == field_names(TieredStoreStats) | {"hit_rate"}
        json.dumps(payload, allow_nan=False)

    def test_tiered_store_report(self):
        payload = sample_tiered_report().as_dict()
        assert set(payload) == field_names(TieredStoreReport)
        json.dumps(payload, allow_nan=False)


class TestJsonSafety:
    def test_stats_payloads_are_strict_json(self):
        for payload in (
            sample_cache_stats().as_dict(),
            sample_service_stats().as_dict(),
            sample_arm().as_dict(),
        ):
            text = json.dumps(payload, allow_nan=False)
            json.loads(text)

    def test_no_numpy_scalars_leak(self):
        stats = ServiceMetrics()
        stats.record_flush(
            queries_spent=int(np.int64(3)), round_trips=1,
            round_trips_sequential=2,
        )
        payload = stats.snapshot().as_dict()
        for value in payload.values():
            assert value is None or isinstance(value, (int, float, str))
        # The backend field is the one legitimate string (an np.str_
        # would also break strict JSON consumers).
        assert type(payload["backend"]) is str


class TestDocsGlossary:
    """Every emitted stats key is documented in docs/serving.md."""

    @pytest.fixture(scope="class")
    def glossary(self) -> str:
        assert DOCS.exists(), "docs/serving.md missing"
        return DOCS.read_text()

    @pytest.mark.parametrize(
        "payload_factory",
        [
            sample_service_stats,
            sample_cache_stats,
            sample_broker_stats,
            sample_tiered_stats,
            sample_gateway_stats,
        ],
        ids=[
            "service", "cache", "broker", "tiered-store", "gateway",
        ],
    )
    def test_keys_documented(self, glossary, payload_factory):
        missing = [
            key
            for key in payload_factory().as_dict()
            if f"`{key}`" not in glossary
        ]
        assert not missing, f"undocumented stats keys: {missing}"

    def test_l2_reader_tier_keys_documented(self, glossary):
        missing = [
            key
            for key in sample_l2_reader_stats()
            if f"`{key}`" not in glossary
        ]
        assert not missing, f"undocumented reader-tier keys: {missing}"


class TestBenchmarkCatalogSchemas:
    """Every ``BENCH_*.json`` schema table in ``docs/benchmarks.md``
    names exactly the keys the corresponding report emits — the catalog
    cannot drift from the code."""

    @pytest.fixture(scope="class")
    def catalog(self) -> str:
        assert BENCH_DOCS.exists(), "docs/benchmarks.md missing"
        return BENCH_DOCS.read_text()

    def _section(self, catalog: str, artifact: str) -> str:
        """The catalog text from the heading naming ``artifact`` to the
        next heading of the same or higher level."""
        lines = catalog.splitlines()
        start = next(
            (
                i
                for i, line in enumerate(lines)
                if line.startswith("#") and artifact in line
            ),
            None,
        )
        assert start is not None, f"no catalog section for {artifact}"
        level = len(lines[start]) - len(lines[start].lstrip("#"))
        for end in range(start + 1, len(lines)):
            line = lines[end]
            if line.startswith("#"):
                if len(line) - len(line.lstrip("#")) <= level:
                    break
        else:
            end = len(lines)
        return "\n".join(lines[start:end])

    @pytest.mark.parametrize(
        "artifact, payload_factory",
        [
            ("BENCH_serving.json", sample_throughput_report),
            ("BENCH_tiered_store.json", sample_tiered_report),
            ("BENCH_transport.json", sample_transport_report),
            ("BENCH_solve_engine.json", sample_engine_report),
            ("BENCH_region_index.json", sample_region_index_report),
            ("BENCH_backend.json", sample_backend_report),
            ("BENCH_gateway.json", sample_gateway_report),
        ],
        ids=[
            "serving", "tiered-store", "transport", "engine",
            "region-index", "backend", "gateway",
        ],
    )
    def test_artifact_keys_catalogued(
        self, catalog, artifact, payload_factory
    ):
        section = self._section(catalog, artifact)
        payload = payload_factory().as_dict()
        keys = set(payload)
        if payload.get("rows"):  # per-row schemas nest under "rows"
            keys |= set(payload["rows"][0])
        # Gateway arms nest under their own keys; pin their schemas too.
        for nested in ("reference", "overload", "rolling_restart"):
            if isinstance(payload.get(nested), dict):
                keys |= set(payload[nested])
        missing = [key for key in keys if f"`{key}`" not in section]
        assert not missing, (
            f"{artifact}: keys missing from its docs/benchmarks.md "
            f"schema table: {missing}"
        )

    def test_every_benchmark_script_catalogued(self, catalog):
        scripts = sorted(
            p.name for p in (REPO / "benchmarks").glob("bench_*.py")
        )
        missing = [name for name in scripts if f"`{name}`" not in catalog]
        assert not missing, (
            f"benchmark scripts missing from docs/benchmarks.md: {missing}"
        )
