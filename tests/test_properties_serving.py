"""Property-based suite for the serving layer's exactness guarantees.

A seeded randomized sweep (no hypothesis dependency) over model families
(PLNN / maxout / logistic model tree) and random instances, asserting the
three laws the serving architecture is allowed to rely on:

(a) **cache transparency** — a cache-served interpretation is bitwise
    equal to the fresh certified solve that populated its region entry,
    and exact against the OpenBox ground truth;
(b) **batch/sequential agreement** — ``BatchOpenAPIInterpreter`` and
    ``OpenAPIInterpreter`` produce the same per-instance answer;
(c) **query conservation** — summing per-response ``n_queries`` across a
    micro-batched workload reproduces the API meter exactly, hits and
    misses alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PredictionAPI
from repro.core import BatchOpenAPIInterpreter, OpenAPIInterpreter
from repro.data import make_blobs
from repro.models import (
    LogisticModelTree,
    MaxOutNetwork,
    ReLUNetwork,
    TrainingConfig,
    train_network,
)
from repro.models.openbox import ground_truth_decision_features
from repro.serving import InterpretationService, RegionCache

MODEL_KINDS = ("plnn", "maxout", "tree")
SWEEP_SEEDS = (0, 1)


def _make_setup(kind: str, seed: int):
    """One randomized (model, dataset) pair of the requested family."""
    rng = np.random.default_rng(1000 * seed + hash(kind) % 997)
    if kind == "tree":
        # XOR-style layout so the LMT actually splits into regions.
        centers = np.array(
            [[0.2, 0.2], [0.8, 0.8], [0.2, 0.8], [0.8, 0.2]]
        ) + rng.normal(0, 0.02, size=(4, 2))
        X = np.vstack(
            [c + rng.normal(0, 0.07, size=(60, 2)) for c in centers]
        )
        y = np.repeat([0, 0, 1, 1], 60)
        X = np.clip(X, 0, 1)
        model = LogisticModelTree(
            min_samples_split=40, leaf_accuracy_stop=0.95, max_depth=4,
            seed=seed,
        ).fit(X, y)
        return model, X
    d = int(rng.integers(4, 8))
    ds = make_blobs(
        240, n_features=d, n_classes=3, separation=4.0, seed=seed + 20
    )
    if kind == "plnn":
        model = ReLUNetwork([d, 12, 8, 3], seed=seed)
    else:
        model = MaxOutNetwork([d, 8, 3], pieces=3, seed=seed)
    train_network(
        model, ds.X, ds.y,
        TrainingConfig(epochs=50, learning_rate=3e-3, seed=seed),
    )
    return model, ds.X


@pytest.fixture(scope="module", params=[
    (kind, seed) for kind in MODEL_KINDS for seed in SWEEP_SEEDS
], ids=lambda p: f"{p[0]}-s{p[1]}")
def setup(request):
    kind, seed = request.param
    model, X = _make_setup(kind, seed)
    return kind, seed, model, X


class TestCacheTransparency:
    """(a) cache-served answers are bitwise the certified region solve."""

    def test_repeat_queries_bitwise_equal(self, setup):
        kind, seed, model, X = setup
        api = PredictionAPI(model)
        service = InterpretationService(api, seed=seed)
        pool = X[:5]
        order = np.random.default_rng(seed).integers(0, 5, size=20)
        fresh_solves: set[bytes] = set()
        n_hits = 0
        for idx in order:
            response = service.interpret(pool[idx])
            assert response.ok, (kind, seed, idx)
            feats = response.interpretation.decision_features
            if response.served_from_cache:
                # Bitwise — not allclose — equality with one of the fresh
                # certified solves that populated the cache.  (Distinct
                # pool instances may legitimately share a region, so the
                # match is against the set of fresh solves, not per-index.)
                assert feats.tobytes() in fresh_solves
                assert response.interpretation.method == RegionCache.served_method
                n_hits += 1
            else:
                fresh_solves.add(feats.tobytes())
        # Every repeat of an already-seen instance must have hit.
        assert n_hits >= len(order) - len(np.unique(order))

    def test_cache_served_exact_against_ground_truth(self, setup):
        kind, seed, model, X = setup
        api = PredictionAPI(model)
        service = InterpretationService(api, seed=seed)
        pool = X[:4]
        responses = service.interpret_many(np.vstack([pool, pool, pool]))
        assert sum(r.served_from_cache for r in responses) >= len(pool)
        for response in responses:
            assert response.ok
            interp = response.interpretation
            gt = ground_truth_decision_features(
                model, interp.x0, interp.target_class
            )
            np.testing.assert_allclose(
                interp.decision_features, gt, atol=1e-7,
                err_msg=f"{kind} seed={seed} cached={response.served_from_cache}",
            )

    def test_same_region_jittered_instances_hit(self, setup):
        """Nearby (same-region) but non-identical instances are served
        from the cache and remain exact at *their own* x0."""
        kind, seed, model, X = setup
        api = PredictionAPI(model)
        service = InterpretationService(api, seed=seed)
        rng = np.random.default_rng(seed + 7)
        x0 = X[0]
        warm = service.interpret(x0)
        assert warm.ok
        hits = 0
        for _ in range(6):
            x = x0 + rng.normal(0, 1e-5, size=x0.shape)
            response = service.interpret(x)
            assert response.ok
            gt = ground_truth_decision_features(
                model, x, response.interpretation.target_class
            )
            np.testing.assert_allclose(
                response.interpretation.decision_features, gt, atol=1e-7
            )
            hits += response.served_from_cache
        # Tiny jitter stays within the activation region almost surely.
        assert hits >= 5


class TestBatchSequentialAgreement:
    """(b) lock-step batching changes round trips, never answers."""

    def test_per_instance_agreement(self, setup):
        kind, seed, model, X = setup
        instances = X[:6]

        seq_api = PredictionAPI(model)
        sequential = [
            OpenAPIInterpreter(seed=seed).interpret(seq_api, x0)
            for x0 in instances
        ]
        batch_api = PredictionAPI(model)
        batched = BatchOpenAPIInterpreter(seed=seed).interpret_batch(
            batch_api, instances
        )
        assert batched.n_failed == 0
        for x0, seq, bat in zip(instances, sequential, batched.interpretations):
            assert seq.target_class == bat.target_class
            assert seq.all_certified and bat.all_certified
            gt = ground_truth_decision_features(model, x0, seq.target_class)
            np.testing.assert_allclose(seq.decision_features, gt, atol=1e-8)
            np.testing.assert_allclose(bat.decision_features, gt, atol=1e-8)
            np.testing.assert_allclose(
                seq.decision_features, bat.decision_features, atol=1e-8
            )

    def test_batch_round_trips_bounded(self, setup):
        kind, seed, model, X = setup
        api = PredictionAPI(model)
        interpreter = BatchOpenAPIInterpreter(seed=seed)
        interpreter.start_edge(api)  # the calibration's trips come first
        trips_before = api.request_count
        result = interpreter.interpret_batch(api, X[:6])
        iterations = [
            i.iterations for i in result.interpretations if i is not None
        ]
        assert result.rounds == max(iterations)
        assert api.request_count - trips_before == 1 + result.rounds


class TestQueryConservation:
    """(c) every spent query is attributed to exactly one response."""

    def test_micro_batch_n_queries_conserved(self, setup):
        kind, seed, model, X = setup
        api = PredictionAPI(model)
        service = InterpretationService(api, seed=seed, max_batch_size=8)
        trips_before = api.request_count  # after the calibration
        rng = np.random.default_rng(seed + 3)
        pool = X[:5]
        requests = pool[rng.integers(0, 5, size=24)]
        responses = service.interpret_many(requests)
        assert all(r.ok for r in responses)
        stats = service.stats()
        served = api.query_count - stats.calibration_queries
        assert sum(r.n_queries for r in responses) == served
        assert stats.n_queries == served
        assert stats.round_trips == api.request_count - trips_before
        assert stats.n_ok == len(responses)

    def test_conservation_without_cache(self, setup):
        kind, seed, model, X = setup
        api = PredictionAPI(model)
        service = InterpretationService(
            api, seed=seed, enable_cache=False, max_batch_size=8
        )
        trips_before = api.request_count  # after the calibration
        responses = service.interpret_many(X[:6])
        assert all(r.ok for r in responses)
        assert not any(r.served_from_cache for r in responses)
        stats = service.stats()
        assert (sum(r.n_queries for r in responses)
                == api.query_count - stats.calibration_queries)
        assert stats.round_trips == api.request_count - trips_before

    def test_cached_run_spends_fewer_queries(self, setup):
        kind, seed, model, X = setup
        pool = X[:3]
        requests = np.vstack([pool] * 5)

        cached_api = PredictionAPI(model)
        cached = InterpretationService(cached_api, seed=seed)
        cached.interpret_many(requests)

        uncached_api = PredictionAPI(model)
        uncached = InterpretationService(
            uncached_api, seed=seed, enable_cache=False
        )
        uncached.interpret_many(requests)

        assert cached_api.query_count < uncached_api.query_count
