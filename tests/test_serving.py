"""Unit tests for the serving layer: cache, service, metrics, envelopes.

Also pins the cache's eviction transparency: a bounded cache may
*forget* regions (costing extra solves) but must never *distort*
answers — everything served from the region tier is bitwise a fresh
certified solve, across LRU and TTL eviction, the tiered store's
demotions, and a snapshot save -> load round trip.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import (
    ERROR_CERTIFICATE_FAILED,
    ErrorEnvelope,
    InterpretRequest,
    InterpretResponse,
    PredictionAPI,
)
from repro.core import OpenAPIInterpreter, verify_interpretation
from repro.exceptions import ValidationError
from repro.models.openbox import ground_truth_decision_features
from repro.serving import (
    InterpretationService,
    RegionCache,
    ServiceMetrics,
    TieredRegionStore,
    zipf_clustered_workload,
)


class TestRegionCache:
    def test_hit_after_insert(self, relu_api, blobs3):
        interp = OpenAPIInterpreter(seed=0).interpret(relu_api, blobs3.X[0])
        cache = RegionCache()
        assert cache.insert(interp)
        y0 = relu_api.predict_proba(blobs3.X[0])
        hit = cache.lookup(blobs3.X[0], y0, interp.target_class)
        assert hit is not None
        assert np.array_equal(hit.decision_features, interp.decision_features)
        assert hit.n_queries == 1 and hit.iterations == 0

    def test_miss_for_other_region(self, relu_api, relu_model, blobs3):
        """An instance of a different class region must not match."""
        x0 = blobs3.X[0]
        interp = OpenAPIInterpreter(seed=0).interpret(relu_api, x0)
        cache = RegionCache()
        cache.insert(interp)
        # Find an instance whose log-odds differ from the cached claim.
        other = next(
            x for x in blobs3.X[1:]
            if int(np.argmax(relu_api.predict_proba(x))) == interp.target_class
            and cache.lookup(
                x, relu_api.predict_proba(x), interp.target_class
            ) is None
        )
        assert other is not None  # at least one same-class other-region point
        assert cache.stats().misses >= 1

    def test_miss_for_other_target_class(self, relu_api, blobs3):
        interp = OpenAPIInterpreter(seed=0).interpret(relu_api, blobs3.X[0])
        cache = RegionCache()
        cache.insert(interp)
        y0 = relu_api.predict_proba(blobs3.X[0])
        wrong_class = (interp.target_class + 1) % relu_api.n_classes
        assert cache.lookup(blobs3.X[0], y0, wrong_class) is None

    def test_rejects_uncertified(self, linear_api, blobs3):
        from repro.core import NaiveInterpreter

        interp = NaiveInterpreter(0.1, seed=0).interpret(linear_api, blobs3.X[0])
        with pytest.raises(ValidationError):
            RegionCache().insert(interp)

    def test_duplicate_insert_skipped(self, relu_api, blobs3):
        cache = RegionCache()
        a = OpenAPIInterpreter(seed=0).interpret(relu_api, blobs3.X[0])
        b = OpenAPIInterpreter(seed=1).interpret(relu_api, blobs3.X[0])
        assert cache.insert(a)
        assert not cache.insert(b)  # same region, same class -> refreshed
        assert len(cache) == 1
        assert cache.stats().duplicates_skipped == 1

    def test_lru_eviction(self, relu_api, blobs3):
        interpreter = OpenAPIInterpreter(seed=0)
        cache = RegionCache(max_entries=2)
        inserted = 0
        for x in blobs3.X:
            interp = interpreter.interpret(relu_api, x)
            inserted += cache.insert(interp)
            if cache.stats().evictions >= 1:
                break
        assert inserted >= 3
        assert len(cache) == 2
        assert cache.stats().evictions >= 1

    def test_cache_served_passes_verification(self, relu_api, blobs3):
        """A cache-served interpretation is a falsifiable claim at the NEW
        instance — and a genuine one passes fresh-probe verification."""
        interp = OpenAPIInterpreter(seed=0).interpret(relu_api, blobs3.X[0])
        cache = RegionCache()
        cache.insert(interp)
        x = blobs3.X[0] + 1e-6
        y = relu_api.predict_proba(x)
        served = cache.lookup(x, y, interp.target_class)
        assert served is not None
        report = verify_interpretation(relu_api, served, seed=0)
        assert report.passed

    def test_validation(self):
        with pytest.raises(ValidationError):
            RegionCache(max_entries=0)
        with pytest.raises(ValidationError):
            RegionCache(tol=0.0)
        with pytest.raises(ValidationError):
            RegionCache(max_candidates=0)


def _affine_interp(x0, W, b):
    """A hand-built certified interpretation claiming log-odds W @ x + b
    for pairs ``(0, j+1)`` — full geometric control for cache tests."""
    from repro.core import CoreParameterEstimate, Interpretation

    pairs = {
        (0, j + 1): CoreParameterEstimate(
            c=0, c_prime=j + 1, weights=W[j], intercept=float(b[j]),
            certified=True,
        )
        for j in range(W.shape[0])
    }
    return Interpretation(
        x0=x0, target_class=0, decision_features=W.mean(axis=0),
        pair_estimates=pairs, method="test", final_edge=1.0,
    )


def _probs_for_claims(t):
    """A probability row whose log-odds ``ln(y_0 / y_j)`` equal ``t[j-1]``."""
    logits = np.concatenate([[0.0], -np.asarray(t, dtype=np.float64)])
    z = np.exp(logits - logits.max())
    return z / z.sum()


class TestRegionCacheVectorized:
    """The packed membership scan: validation and loop-equivalence."""

    def _filled_cache(self, rng, n_entries=8, d=5, n_pairs=2, **kwargs):
        cache = RegionCache(**kwargs)
        entries = []
        for _ in range(n_entries):
            x0 = rng.normal(size=d)
            W = rng.normal(size=(n_pairs, d))
            b = rng.normal(size=n_pairs)
            interp = _affine_interp(x0, W, b)
            assert cache.insert(interp)
            entries.append((x0, W, b, interp))
        return cache, entries

    def test_lookup_dim_mismatch_raises(self):
        rng = np.random.default_rng(0)
        cache, _ = self._filled_cache(rng, d=5)
        with pytest.raises(ValidationError, match=r"\b3\b.*\b5\b"):
            cache.lookup(np.zeros(3), _probs_for_claims([0.0, 0.0]), 0)

    def test_insert_dim_mismatch_raises(self):
        rng = np.random.default_rng(1)
        cache, _ = self._filled_cache(rng, d=5)
        bad = _affine_interp(
            np.zeros(4), rng.normal(size=(2, 4)), rng.normal(size=2)
        )
        with pytest.raises(ValidationError, match=r"\b4\b.*\b5\b"):
            cache.insert(bad)

    def test_lookup_y0_too_short_raises(self):
        rng = np.random.default_rng(2)
        cache, _ = self._filled_cache(rng, d=5, n_pairs=2)  # classes 0..2
        with pytest.raises(ValidationError, match="class"):
            cache.lookup(np.zeros(5), np.array([0.5, 0.5]), 0)

    def test_empty_cache_lookup_is_miss_any_dim(self):
        cache = RegionCache()
        assert cache.lookup(np.zeros(7), np.array([0.5, 0.5]), 0) is None
        assert cache.stats().misses == 1

    def test_scan_matches_per_entry_reference(self):
        """One-matmul membership scan == the per-entry claim_errors loop.

        The reference filters by tolerance over *all* candidates and
        serves the nearest passing one; ``max_candidates`` must not
        change the outcome of the full scan (it only caps the indexed
        shortlist), so both parametrizations share the same reference.
        """
        rng = np.random.default_rng(3)
        for max_candidates in (None, 3):
            cache, entries = self._filled_cache(
                rng, n_entries=10, d=4, max_candidates=max_candidates
            )
            probes = [e[0] + rng.normal(scale=0.05, size=4) for e in entries]
            probes += [rng.normal(size=4) for _ in range(5)]
            for x in probes:
                # Claims of a random entry at x — a hit for that entry
                # (and only entries agreeing at x), plus pure-noise rows.
                x0, W, b, _ = entries[rng.integers(len(entries))]
                y = _probs_for_claims(W @ x + b)

                passing = [
                    e for e in cache._entries.values()
                    if e.claim_errors(x, y, floor=cache.floor).max()
                    <= cache.tol
                ]
                expected = min(
                    passing,
                    key=lambda e: float(np.sum((e.x0 - x) ** 2)),
                    default=None,
                )
                served = cache.lookup(x, y, 0)
                if expected is None:
                    assert served is None
                else:
                    assert served is not None
                    assert np.array_equal(
                        served.decision_features, expected.decision_features
                    )

    def test_max_candidates_does_not_cause_false_miss(self):
        """Regression (PR 6): the full scan pays the membership matmul
        for *every* candidate, so windowing the tolerance comparison to
        the nearest ``max_candidates`` could only turn a passing region
        into a false miss (and a full re-solve) with zero compute saved.
        The old ``_scan`` failed this test; the fixed one filters by
        tolerance first and serves the nearest passing entry."""
        rng = np.random.default_rng(4)
        d = 4
        W_far = rng.normal(size=(2, d))
        b_far = rng.normal(size=2)
        far = _affine_interp(np.full(d, 5.0), W_far, b_far)
        near = _affine_interp(
            np.zeros(d), rng.normal(size=(2, d)), rng.normal(size=2)
        )
        x = np.full(d, 4.0)  # nearer to `far` (dist 2) than `near` (dist 8)
        y = _probs_for_claims(W_far @ x + b_far)

        windowed = RegionCache(max_candidates=1)
        windowed.insert(far)
        windowed.insert(near)
        served = windowed.lookup(x, y, 0)  # far is nearest and passes
        assert served is not None
        assert np.array_equal(served.decision_features, far.decision_features)

        # The probe nearest `near` (whose claims differ) while only
        # `far` passes: the old window kept only `near` and reported a
        # false miss; the passing entry must be served regardless of
        # its distance rank.
        x_near_miss = np.full(d, 0.5)
        y2 = _probs_for_claims(W_far @ x_near_miss + b_far)
        served = windowed.lookup(x_near_miss, y2, 0)
        assert served is not None
        assert np.array_equal(served.decision_features, far.decision_features)
        assert windowed.stats().misses == 0

        unwindowed = RegionCache(max_candidates=None)
        unwindowed.insert(far)
        unwindowed.insert(near)
        assert unwindowed.lookup(x_near_miss, y2, 0) is not None

    def test_eviction_keeps_packed_stacks_consistent(self):
        rng = np.random.default_rng(5)
        cache, entries = self._filled_cache(rng, n_entries=6, d=3,
                                            max_entries=4)
        assert len(cache) == 4
        assert cache.stats().evictions == 2
        # Only the 4 newest entries remain servable.
        for i, (x0, W, b, _) in enumerate(entries):
            y = _probs_for_claims(W @ x0 + b)
            hit = cache.lookup(x0, y, 0)
            assert (hit is not None) == (i >= 2)

    def test_clear_resets_dimensionality(self):
        rng = np.random.default_rng(6)
        cache, _ = self._filled_cache(rng, d=5)
        cache.clear()
        other = _affine_interp(
            np.zeros(3), rng.normal(size=(2, 3)), rng.normal(size=2)
        )
        assert cache.insert(other)

    def test_fresh_cache_hit_rate_is_zero_not_nan(self):
        stats = RegionCache().stats()
        assert stats.hit_rate == 0.0

    def test_stats_as_dict_is_json_safe(self):
        import json

        rng = np.random.default_rng(7)
        cache, _ = self._filled_cache(rng, n_entries=3)
        payload = cache.stats().as_dict()
        assert payload["size"] == 3
        assert payload["resident_bytes"] > 0
        json.dumps(payload)


class TestEvictionPolicies:
    """LRU capacity + TTL expiry bookkeeping on the monolithic cache."""

    def _interp(self, rng, d=4):
        x0 = rng.normal(size=d)
        W = rng.normal(size=(2, d))
        b = rng.normal(size=2)
        return _affine_interp(x0, W, b), W, b

    def test_ttl_requires_and_validates_ttl_s(self):
        with pytest.raises(ValidationError, match="ttl_s"):
            RegionCache(eviction="ttl")
        with pytest.raises(ValidationError, match="ttl_s"):
            RegionCache(eviction="ttl", ttl_s=0.0)
        with pytest.raises(ValidationError, match="ttl_s"):
            RegionCache(eviction="lru", ttl_s=5.0)
        with pytest.raises(ValidationError, match="eviction"):
            RegionCache(eviction="fifo")

    def test_ttl_expires_and_hit_refreshes_lease(self, fake_clock):
        rng = np.random.default_rng(8)
        clock = fake_clock
        cache = RegionCache(eviction="ttl", ttl_s=10.0, clock=clock)
        interp, W, b = self._interp(rng)
        cache.insert(interp)
        y = _probs_for_claims(W @ interp.x0 + b)
        clock.advance(8.0)
        assert cache.lookup(interp.x0, y, 0) is not None
        clock.advance(8.0)  # 16s after insert, 8s after last serve
        assert cache.lookup(interp.x0, y, 0) is not None
        clock.advance(10.5)
        assert cache.lookup(interp.x0, y, 0) is None
        stats = cache.stats()
        assert stats.evictions == 1 and stats.size == 0

    def test_duplicate_insert_refreshes_ttl_lease(self, fake_clock):
        rng = np.random.default_rng(9)
        clock = fake_clock
        cache = RegionCache(eviction="ttl", ttl_s=10.0, clock=clock)
        interp, W, b = self._interp(rng)
        cache.insert(interp)
        clock.advance(8.0)
        assert not cache.insert(_affine_interp(interp.x0 + 1e-9, W, b))
        clock.advance(8.0)  # 16s after first insert, 8s after refresh
        y = _probs_for_claims(W @ interp.x0 + b)
        assert cache.lookup(interp.x0, y, 0) is not None

    def test_resident_bytes_tracks_inserts_and_evictions(self):
        rng = np.random.default_rng(10)
        cache = RegionCache(max_entries=2)
        sizes = []
        for _ in range(4):
            interp, _, _ = self._interp(rng)
            cache.insert(interp)
            sizes.append(cache.stats().resident_bytes)
        assert sizes[0] > 0
        assert sizes[1] == 2 * sizes[0]      # uniform entry shapes
        assert sizes[2] == sizes[1]          # insert + eviction balance
        assert cache.stats().evictions == 2
        cache.clear()
        assert cache.stats().resident_bytes == 0


class TestEnvelopes:
    def test_request_validates_shape(self):
        with pytest.raises(ValidationError):
            InterpretRequest(request_id=0, x0=np.ones((2, 2)))

    def test_success_and_failure_constructors(self, relu_api, blobs3):
        request = InterpretRequest(request_id=7, x0=blobs3.X[0])
        interp = OpenAPIInterpreter(seed=0).interpret(relu_api, blobs3.X[0])
        ok = InterpretResponse.success(request, interp, n_queries=3)
        assert ok.ok and ok.request_id == 7 and ok.error is None
        bad = InterpretResponse.failure(
            request, ERROR_CERTIFICATE_FAILED, "boom", retryable=True
        )
        assert not bad.ok and bad.interpretation is None
        assert bad.error == ErrorEnvelope(
            code=ERROR_CERTIFICATE_FAILED, message="boom", retryable=True
        )


class TestServiceBasics:
    def test_inline_interpret_and_stats(self, relu_api_fresh, blobs3):
        service = InterpretationService(relu_api_fresh, seed=0)
        r1 = service.interpret(blobs3.X[0])
        r2 = service.interpret(blobs3.X[0])
        assert r1.ok and not r1.served_from_cache
        assert r2.ok and r2.served_from_cache
        stats = service.stats()
        assert stats.n_requests == 2 and stats.cache_hits == 1
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.n_queries == relu_api_fresh.query_count
        assert "cache hits" in stats.as_text()
        assert stats.as_dict()["cache_hits"] == 1

    def test_explicit_target_class(self, relu_api_fresh, blobs3):
        service = InterpretationService(relu_api_fresh, seed=0)
        response = service.interpret(blobs3.X[0], target_class=1)
        assert response.ok
        assert response.interpretation.target_class == 1

    def test_submit_validation(self, relu_api_fresh):
        service = InterpretationService(relu_api_fresh, seed=0)
        with pytest.raises(ValidationError):
            service.submit(np.ones(3))
        with pytest.raises(ValidationError):
            service.submit(np.ones(relu_api_fresh.n_features), target_class=99)

    def test_request_ids_monotone(self, relu_api_fresh, blobs3):
        service = InterpretationService(relu_api_fresh, seed=0)
        responses = service.interpret_many(blobs3.X[:3])
        assert [r.request_id for r in responses] == [0, 1, 2]

    def test_duplicate_requests_coalesced_in_one_batch(
        self, relu_api_fresh, blobs3
    ):
        """Identical queued instances ride one solve."""
        service = InterpretationService(relu_api_fresh, seed=0)
        X = np.vstack([blobs3.X[0]] * 4)
        responses = service.interpret_many(X)
        assert all(r.ok for r in responses)
        assert sum(r.served_from_cache for r in responses) == 3
        assert sum(r.n_queries for r in responses) == relu_api_fresh.query_count
        # Savings accounting: sequentially this costs (1 + T) trips for
        # the representative plus 1 per duplicate (each would hit the
        # just-cached entry); actual is 1 probe + T lock-step rounds.
        T = responses[0].interpretation.iterations
        stats = service.stats()
        assert stats.round_trips == 1 + T
        assert stats.round_trips_saved == (1 + T + 3) - (1 + T)

    def test_nan_request_rejected_at_submit(self, relu_api_fresh):
        x0 = np.zeros(relu_api_fresh.n_features)
        x0[0] = np.nan
        service = InterpretationService(relu_api_fresh, seed=0)
        with pytest.raises(ValidationError):
            service.submit(x0)

    def test_internal_failure_becomes_envelope_and_worker_survives(
        self, relu_model, blobs3
    ):
        """An unexpected solver exception must not kill the background
        loop or hang pendings: it becomes an internal_error envelope and
        the next request is served normally."""
        from repro.api import ERROR_INTERNAL

        api = PredictionAPI(relu_model)
        service = InterpretationService(api, seed=0, max_wait_s=0.005)

        real = service.interpreter.interpret_batch
        blown = {"done": False}

        def explode(*args, **kwargs):
            if not blown["done"]:
                blown["done"] = True
                raise RuntimeError("solver blew up")
            return real(*args, **kwargs)

        service.interpreter.interpret_batch = explode
        with service:
            poisoned = service.interpret(blobs3.X[0], timeout=30.0)
            assert not poisoned.ok
            assert poisoned.error.code == ERROR_INTERNAL
            assert "solver blew up" in poisoned.error.message
            healthy = service.interpret(blobs3.X[1], timeout=30.0)
            assert healthy.ok
        stats = service.stats()
        assert stats.n_errors == 1 and stats.n_ok == 1
        assert stats.n_queries == api.query_count  # aborted flush metered

    def test_background_loop_concurrent_submits(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        service = InterpretationService(
            api, seed=0, max_batch_size=16, max_wait_s=0.01
        )
        results: dict[int, bool] = {}

        def client(i: int) -> None:
            response = service.interpret(blobs3.X[i % 4], timeout=30.0)
            results[i] = response.ok

        with service:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(results) == 12 and all(results.values())
        stats = service.stats()
        assert stats.n_requests == 12
        assert stats.n_queries == api.query_count
        assert stats.round_trips == api.request_count

    def test_stop_drains_queue(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        service = InterpretationService(api, seed=0)
        service.start()
        pendings = [service.submit(x) for x in blobs3.X[:4]]
        service.stop()
        assert all(p.result(timeout=5.0).ok for p in pendings)

    def test_validation(self, relu_api_fresh):
        with pytest.raises(ValidationError):
            InterpretationService(relu_api_fresh, max_batch_size=0)
        with pytest.raises(ValidationError):
            InterpretationService(relu_api_fresh, max_wait_s=-1.0)

    def test_accepts_any_seedlike(self, relu_model, blobs3):
        """The interpreter seed may be any SeedLike form, not just an
        int (regression: int(seed) blew up on Generators)."""
        for seed in (None, 3, np.random.default_rng(0),
                     np.random.SeedSequence(5)):
            service = InterpretationService(
                PredictionAPI(relu_model), seed=seed
            )
            assert service.interpret(blobs3.X[0]).ok


class TestServiceMetrics:
    def test_empty_snapshot(self):
        stats = ServiceMetrics().snapshot()
        assert stats.n_requests == 0
        # JSON-safe no-traffic snapshot: rates report 0.0, never NaN.
        assert stats.hit_rate == 0.0
        assert stats.queries_per_interpretation == 0.0
        assert np.isnan(stats.p50_latency_s)
        assert "n/a" in stats.as_text()

    def test_empty_snapshot_as_dict_is_json_safe(self):
        import json

        payload = ServiceMetrics().snapshot().as_dict()
        assert payload["hit_rate"] == 0.0
        assert payload["p50_latency_s"] is None
        assert payload["p95_latency_s"] is None
        assert "NaN" not in json.dumps(payload)

    def test_round_trip_savings_accounting(self):
        metrics = ServiceMetrics()
        metrics.record_flush(
            queries_spent=40, round_trips=3, round_trips_sequential=11
        )
        stats = metrics.snapshot()
        assert stats.n_queries == 40
        assert stats.round_trips == 3
        assert stats.round_trips_saved == 8

    def test_validation(self):
        with pytest.raises(ValidationError):
            ServiceMetrics(latency_window=0)


class TestWorkload:
    def test_shapes_and_skew(self, blobs3):
        anchors = blobs3.X[:10]
        requests = zipf_clustered_workload(anchors, 500, seed=0)
        assert requests.shape == (500, blobs3.n_features)
        # Zipf skew: the most popular anchor dominates.
        counts = np.array([
            np.sum(np.all(requests == a, axis=1)) for a in anchors
        ])
        assert counts[0] == counts.max()
        assert counts[0] > 500 / 10

    def test_jitter_perturbs(self, blobs3):
        anchors = blobs3.X[:5]
        requests = zipf_clustered_workload(anchors, 50, jitter=1e-4, seed=1)
        assert not any(
            np.all(requests[0] == a) for a in anchors
        )

    def test_validation(self, blobs3):
        with pytest.raises(ValidationError):
            zipf_clustered_workload(blobs3.X[:3], 0)
        with pytest.raises(ValidationError):
            zipf_clustered_workload(blobs3.X[:3], 10, exponent=0.0)
        with pytest.raises(ValidationError):
            zipf_clustered_workload(blobs3.X[:3], 10, jitter=-1.0)
        with pytest.raises(ValidationError):
            zipf_clustered_workload(np.ones(3), 10)


def _random_interps(rng, n, d=5, n_pairs=2):
    out = []
    for _ in range(n):
        W = rng.normal(size=(n_pairs, d))
        b = rng.normal(size=n_pairs)
        out.append((_affine_interp(rng.normal(size=d), W, b), W, b))
    return out


class TestSnapshots:
    def _filled(self, rng, n=10, **kwargs):
        cache = RegionCache(**kwargs)
        interps = _random_interps(rng, n)
        for interp, _, _ in interps:
            cache.insert(interp)
        return cache, interps

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(10)
        cache, interps = self._filled(rng, max_entries=64)
        path = tmp_path / "regions.npz"
        assert cache.save(path) == 10
        restored = RegionCache(max_entries=64)
        assert restored.load(path) == 10
        for interp, W, b in interps:
            y = _probs_for_claims(W @ interp.x0 + b)
            hit = restored.lookup(interp.x0, y, 0)
            assert hit is not None
            assert (
                hit.decision_features.tobytes()
                == interp.decision_features.tobytes()
            )
            for pair, est in interp.pair_estimates.items():
                back = hit.pair_estimates[pair]
                assert back.weights.tobytes() == est.weights.tobytes()
                assert back.intercept == est.intercept

    def test_snapshot_portable_across_tiers(self, tmp_path):
        """A snapshot saved by the tiered store warm-starts either tier:
        the disk tier of a fresh store and a plain RAM cache, bitwise."""
        rng = np.random.default_rng(11)
        interps = _random_interps(rng, 10)
        store = TieredRegionStore(tmp_path / "src", max_entries=4)
        for interp, _, _ in interps:
            store.insert(interp)
        path = tmp_path / "regions.npz"
        assert store.save(path) == 10
        store.close()
        boot = TieredRegionStore(tmp_path / "boot", max_entries=4)
        assert boot.load(path) == 10
        mono = RegionCache(max_entries=64)
        assert mono.load(path) == 10
        for target in (boot, mono):
            for interp, W, b in interps:
                y = _probs_for_claims(W @ interp.x0 + b)
                hit = target.lookup(interp.x0, y, 0)
                assert hit is not None
                assert (
                    hit.decision_features.tobytes()
                    == interp.decision_features.tobytes()
                )
        boot.close()

    def test_monolithic_round_trip_and_lru_order(self, tmp_path):
        rng = np.random.default_rng(12)
        cache, interps = self._filled(rng, max_entries=64)
        path = tmp_path / "mono.npz"
        cache.save(path)
        # Loading into a smaller cache keeps the *most recent* entries.
        small = RegionCache(max_entries=3)
        small.load(path)
        assert len(small) == 3
        kept = 0
        for interp, W, b in interps[-3:]:
            y = _probs_for_claims(W @ interp.x0 + b)
            kept += small.lookup(interp.x0, y, 0) is not None
        assert kept == 3

    def test_load_requires_empty_cache(self, tmp_path):
        rng = np.random.default_rng(13)
        cache, _ = self._filled(rng)
        path = tmp_path / "regions.npz"
        cache.save(path)
        with pytest.raises(ValidationError, match="empty"):
            cache.load(path)
        cache.clear()
        assert cache.load(path) == 10

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(ValidationError, match="version"):
            RegionCache().load(path)


class TestEvictionTransparency:
    """Bounded tiers may forget, but never distort: everything served
    from the region tier is bitwise a fresh certified solve, and
    everything matches the OpenBox ground truth."""

    def _request_stream(self, X, seed, n=30):
        rng = np.random.default_rng(seed)
        pool = X[:6]
        return pool[rng.integers(0, len(pool), size=n)]

    def _replay_and_audit(self, model, service, requests):
        responses = service.interpret_many(requests)
        fresh = {
            r.interpretation.decision_features.tobytes()
            for r in responses
            if r.ok and not r.served_from_cache
        }
        n_hits = 0
        for x0, response in zip(requests, responses):
            assert response.ok
            interp = response.interpretation
            gt = ground_truth_decision_features(
                model, x0, interp.target_class
            )
            np.testing.assert_allclose(
                interp.decision_features, gt, atol=1e-7
            )
            if response.served_from_cache:
                assert interp.decision_features.tobytes() in fresh
                n_hits += 1
        return responses, fresh, n_hits

    @pytest.mark.parametrize(
        "tier_kwargs",
        [
            lambda tmp: {"cache": RegionCache(max_entries=2)},
            lambda tmp: {
                "cache": RegionCache(eviction="ttl", ttl_s=1e9, max_entries=2)
            },
            lambda tmp: {"store": TieredRegionStore(tmp, max_entries=2)},
            lambda tmp: {
                "store": TieredRegionStore(
                    tmp, max_entries=2, eviction="ttl", ttl_s=1e9
                )
            },
        ],
        ids=["lru", "ttl", "tiered-lru", "tiered-ttl"],
    )
    def test_bounded_cache_is_transparent(
        self, relu_model, blobs3, tier_kwargs, tmp_path
    ):
        api = PredictionAPI(relu_model)
        service = InterpretationService(
            api, seed=0, max_batch_size=4, **tier_kwargs(tmp_path)
        )
        requests = self._request_stream(blobs3.X, seed=0)
        _, _, n_hits = self._replay_and_audit(relu_model, service, requests)
        # The tiny capacity must actually evict (the property is about
        # serving *through* eviction, not around it) yet still serve hits.
        stats = service.cache.stats()
        l1 = stats.l1 if service.store is not None else stats.as_dict()
        assert l1["evictions"] > 0
        assert n_hits > 0
        if service.store is not None:
            service.store.close()

    def test_ttl_expiry_mid_stream_stays_transparent(
        self, relu_model, blobs3, fake_clock
    ):
        api = PredictionAPI(relu_model)
        cache = RegionCache(
            max_entries=64, eviction="ttl", ttl_s=5.0, clock=fake_clock,
        )
        service = InterpretationService(api, cache=cache, seed=0,
                                        max_batch_size=4)
        requests = self._request_stream(blobs3.X, seed=1, n=12)
        for chunk in np.array_split(requests, 4):
            self._replay_and_audit(relu_model, service, chunk)
            fake_clock.advance(6.0)  # every resident region expires
        assert cache.stats().evictions > 0

    def test_snapshot_round_trip_transparent(
        self, relu_model, blobs3, tmp_path
    ):
        api = PredictionAPI(relu_model)
        service = InterpretationService(api, seed=0, max_batch_size=4)
        requests = self._request_stream(blobs3.X, seed=2)
        self._replay_and_audit(relu_model, service, requests)
        saved = {
            entry.decision_features.tobytes()
            for entry in service.cache._entries.values()
        }
        path = tmp_path / "warm.npz"
        service.cache.save(path)

        warm_cache = RegionCache()
        warm_cache.load(path)
        warm_service = InterpretationService(
            PredictionAPI(relu_model), cache=warm_cache, seed=0,
            max_batch_size=4,
        )
        warm_responses = warm_service.interpret_many(requests)
        warm_fresh = {
            r.interpretation.decision_features.tobytes()
            for r in warm_responses
            if r.ok and not r.served_from_cache
        }
        n_hits = 0
        for x0, response in zip(requests, warm_responses):
            assert response.ok
            interp = response.interpretation
            gt = ground_truth_decision_features(
                relu_model, x0, interp.target_class
            )
            np.testing.assert_allclose(interp.decision_features, gt,
                                       atol=1e-7)
            if response.served_from_cache:
                assert interp.decision_features.tobytes() in saved | warm_fresh
                n_hits += 1
        # The snapshot actually served: hits from regions solved in the
        # *previous* process's replay.
        assert n_hits > 0
        assert warm_service.stats().hit_rate > 0


@pytest.fixture()
def relu_api_fresh(relu_model):
    """Function-scoped API so query meters start at zero per test."""
    return PredictionAPI(relu_model)
