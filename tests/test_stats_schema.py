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

The benchmark report dataclasses live in the ``benchmarks/`` scripts,
which are not an installed package; :func:`load_benchmark_module`
imports them by path.  The same loader drives each script's ``main`` to
pin that bad sizes exit 2 before any model trains.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys
from dataclasses import fields

import numpy as np
import pytest

from repro.serving import (
    CacheStats,
    GatewayStats,
    RegionCache,
    ServiceMetrics,
    ServiceStats,
    TieredStoreStats,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = REPO / "docs" / "serving.md"
BENCH_DOCS = REPO / "docs" / "benchmarks.md"
BENCH_DIR = REPO / "benchmarks"


def load_benchmark_module(name: str):
    """Import ``benchmarks/<name>.py`` by path, once per session.

    The scripts import their shared ``serving_common`` helpers by plain
    module name, as they do when run directly, so the directory joins
    the end of ``sys.path``.  The module is registered before it runs:
    ``dataclasses.fields`` resolves string annotations through
    ``sys.modules[cls.__module__]``.
    """
    if name not in sys.modules:
        if str(BENCH_DIR) not in sys.path:
            sys.path.append(str(BENCH_DIR))
        spec = importlib.util.spec_from_file_location(
            name, BENCH_DIR / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def serving_bench():
    return load_benchmark_module("bench_serving_throughput")


def tiered_bench():
    return load_benchmark_module("bench_tiered_store")


def index_bench():
    return load_benchmark_module("bench_region_index")


def engine_bench():
    return load_benchmark_module("bench_solve_engine")


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


def sample_arm():
    return load_benchmark_module("serving_common").ThroughputArm(
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


def sample_throughput_report():
    arm = sample_arm()
    return serving_bench().ThroughputReport(
        cached=arm, uncached=arm, speedup=2.0, query_reduction=3.0,
        cache_bitwise_consistent=True, baseline_speedup=4.0,
    )


def sample_tiered_report():
    arm = sample_arm()
    return tiered_bench().TieredStoreReport(
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


def sample_index_row():
    return index_bench().IndexScalingRow(
        n_entries=1000, n_probes=16, linear_scan_s=1e-3,
        indexed_scan_s=1e-4, speedup=10.0, identical_winners=True,
        index_hits=16, index_fallbacks=0,
    )


def sample_region_index_report():
    row = sample_index_row()
    return index_bench().RegionIndexReport(
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


def sample_engine_report():
    module = engine_bench()
    row = module.EngineBenchRow(
        n_instances=4, n_points=8, d=4, C=3, engine_solves_per_s=100.0,
        reference_solves_per_s=25.0, speedup=4.0, max_weight_diff=1e-12,
    )
    return module.EngineBenchReport(rows=(row,))


def sample_transport_report():
    cls = load_benchmark_module("bench_transport").TransportBenchReport
    kwargs = {f.name: 0 for f in fields(cls)}
    kwargs["broker_stats"] = sample_broker_stats().as_dict()
    return cls(**kwargs)


class TestAsDictMatchesFields:
    def test_cache_stats(self):
        payload = sample_cache_stats().as_dict()
        assert set(payload) == field_names(CacheStats) | {"hit_rate"}

    def test_service_stats(self):
        payload = sample_service_stats().as_dict()
        assert set(payload) == field_names(ServiceStats)

    def test_throughput_arm(self):
        arm = sample_arm()
        assert set(arm.as_dict()) == field_names(type(arm))

    def test_gateway_stats(self):
        payload = sample_gateway_stats().as_dict()
        assert set(payload) == field_names(GatewayStats)

    def test_throughput_report(self):
        report = sample_throughput_report()
        payload = report.as_dict()
        assert set(payload) == field_names(type(report))
        json.dumps(payload)

    def test_throughput_report_default_baseline_is_json_safe(self):
        arm = sample_arm()
        report = serving_bench().ThroughputReport(
            cached=arm, uncached=arm, speedup=2.0, query_reduction=3.0,
            cache_bitwise_consistent=True,
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
        row = sample_index_row()
        assert set(row.as_dict()) == field_names(type(row))

    def test_region_index_report(self):
        report = sample_region_index_report()
        payload = report.as_dict()
        assert set(payload) == field_names(type(report))
        json.dumps(payload, allow_nan=False)

    def test_tiered_store_stats(self):
        payload = sample_tiered_stats().as_dict()
        assert set(payload) == field_names(TieredStoreStats) | {"hit_rate"}
        json.dumps(payload, allow_nan=False)

    def test_tiered_store_report(self):
        report = sample_tiered_report()
        payload = report.as_dict()
        assert set(payload) == field_names(type(report))
        json.dumps(payload, allow_nan=False)

    def test_engine_report(self):
        report = sample_engine_report()
        payload = report.as_dict()
        assert set(payload) == field_names(type(report))
        assert set(payload["rows"][0]) == field_names(type(report.rows[0]))
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
            assert value is None or type(value) in (int, float)


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
        ],
        ids=[
            "serving", "tiered-store", "transport", "engine",
            "region-index",
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


class TestBenchScriptSizes:
    """Each script's ``main`` refuses a size below 1 with exit 2 before
    any model trains or any timing loop runs."""

    @pytest.mark.parametrize(
        "script, argv",
        [
            ("bench_serving_throughput", ["--tiny", "--requests", "0"]),
            ("bench_serving_throughput", ["--tiny", "--clusters", "0"]),
            ("bench_tiered_store", ["--tiny", "--requests", "0"]),
            ("bench_tiered_store", ["--tiny", "--anchors", "0"]),
            ("bench_region_index", ["--tiny", "--requests", "0"]),
            ("bench_region_index", ["--tiny", "--index-bits", "0"]),
            ("bench_solve_engine", ["--tiny", "--repeats", "0"]),
        ],
    )
    def test_bad_size_exits_2(self, script, argv, monkeypatch, capsys):
        module = load_benchmark_module(script)

        def _refuse(*_args, **_kwargs):
            raise AssertionError(f"{script} ran before validating {argv}")

        for runner in ("train_bench_model", "run_engine_benchmark"):
            monkeypatch.setattr(module, runner, _refuse, raising=False)
        assert module.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
