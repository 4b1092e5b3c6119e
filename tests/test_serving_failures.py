"""Failure injection for the serving layer.

The service's contract under failure:

* budget exhaustion mid-micro-batch produces structured
  ``budget_exhausted`` envelopes for the unfinished requests, keeps every
  result certified *before* the failure, and leaves the cache and meters
  consistent;
* certificate failures (noisy APIs, boundary instances) come back as
  ``certificate_failed`` envelopes without poisoning the queue — later
  requests are served normally;
* the cache never stores anything but certified solves, so failures can
  never corrupt future cache-served answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    ERROR_BUDGET_EXHAUSTED,
    ERROR_CERTIFICATE_FAILED,
    NoisyResponse,
    PredictionAPI,
)
from repro.core import BatchOpenAPIInterpreter
from repro.exceptions import APIBudgetExceededError
from repro.serving import InterpretationService


class TestBatchBudgetModes:
    def test_raise_on_budget_default(self, relu_model, blobs3):
        d = blobs3.n_features
        api = PredictionAPI(relu_model, budget=3 + 3 * (d + 1) // 2)
        with pytest.raises(APIBudgetExceededError):
            BatchOpenAPIInterpreter(seed=0).interpret_batch(api, blobs3.X[:3])

    def test_partial_results_when_not_raising(self, relu_model, blobs3):
        """Instances certified before the budget died keep their results."""
        from repro.models.openbox import ground_truth_decision_features

        d = blobs3.n_features
        X = blobs3.X[:4]
        # Enough for round 0 plus exactly one full lock-step round.
        api = PredictionAPI(relu_model, budget=4 + 4 * (d + 1))
        result = BatchOpenAPIInterpreter(seed=0).interpret_batch(
            api, X, raise_on_budget=False
        )
        assert result.rounds == 1
        done = [i for i in result.interpretations if i is not None]
        if result.budget_exhausted:
            assert len(done) < 4
        for x0, interp in zip(X, result.interpretations):
            if interp is None:
                continue
            gt = ground_truth_decision_features(
                relu_model, x0, interp.target_class
            )
            np.testing.assert_allclose(interp.decision_features, gt, atol=1e-8)
        assert result.n_queries == api.query_count


class TestServiceBudgetExhaustion:
    def test_probe_round_budget_failure(self, relu_model, blobs3):
        """Budget dies on the probe round: every request gets a structured
        envelope, nothing hangs, meters match the API."""
        api = PredictionAPI(relu_model, budget=2)
        service = InterpretationService(api, seed=0)
        responses = service.interpret_many(blobs3.X[:4])
        assert len(responses) == 4
        assert all(not r.ok for r in responses)
        assert all(r.error.code == ERROR_BUDGET_EXHAUSTED for r in responses)
        assert all(r.error.retryable for r in responses)
        stats = service.stats()
        assert stats.n_errors == 4
        assert stats.n_queries == api.query_count  # nothing spent, nothing lost

    def test_mid_batch_budget_leaves_cache_and_meters_consistent(
        self, relu_model, blobs3
    ):
        d = blobs3.n_features
        X = blobs3.X[:4]
        # Probe round (4) + one lock-step round (4 * (d+1)), then death.
        api = PredictionAPI(relu_model, budget=4 + 4 * (d + 1))
        service = InterpretationService(api, seed=0)
        responses = service.interpret_many(X)
        assert len(responses) == 4
        ok = [r for r in responses if r.ok]
        failed = [r for r in responses if not r.ok]
        assert failed, "budget was sized to kill at least one instance"
        assert all(r.error.code == ERROR_BUDGET_EXHAUSTED for r in failed)
        # Meters: every spent query is accounted, none invented.
        stats = service.stats()
        assert stats.n_queries == api.query_count
        assert stats.round_trips == api.request_count
        assert stats.n_ok == len(ok) and stats.n_errors == len(failed)
        # Cache: only the certified results went in.
        if service.cache is not None:
            assert len(service.cache) == len(
                {r.interpretation.decision_features.tobytes() for r in ok}
            )

    def test_cache_still_serves_after_budget_death(self, relu_model, blobs3):
        """A hit needs only the probe query, so a warmed cache keeps
        serving even when the remaining budget can't fund a solve."""
        d = blobs3.n_features
        x0 = blobs3.X[0]
        warm_api = PredictionAPI(relu_model)
        # A budgeted API keeps the paper's start edge; so does the warm-up.
        warm_service = InterpretationService(warm_api, seed=0, initial_edge=1.0)
        warm = warm_service.interpret(x0)
        assert warm.ok
        spent = warm_api.query_count

        api = PredictionAPI(relu_model, budget=spent + 1)
        service = InterpretationService(api, seed=0)
        first = service.interpret(x0)
        assert first.ok  # fresh solve fits the budget exactly
        again = service.interpret(x0)  # only 1 query left: probe + hit
        assert again.ok and again.served_from_cache
        # A third, different-region request dies cleanly.
        other = next(
            x for x in blobs3.X[1:]
            if not np.array_equal(x, x0)
        )
        dead = service.interpret(other)
        assert not dead.ok
        assert dead.error.code == ERROR_BUDGET_EXHAUSTED
        assert service.stats().n_queries == api.query_count


class TestCertificateFailures:
    def test_noisy_api_returns_structured_envelope(self, relu_model, blobs3):
        api = PredictionAPI(
            relu_model, transform=NoisyResponse(0.02, seed=0)
        )
        service = InterpretationService(
            api, seed=0, max_iterations=3
        )
        response = service.interpret(blobs3.X[0])
        assert not response.ok
        assert response.error.code == ERROR_CERTIFICATE_FAILED
        assert not response.error.retryable
        assert response.interpretation is None

    def test_failure_does_not_poison_queue(self, relu_model, blobs3):
        """A noisy warm-up failure must not corrupt later clean serving
        (fresh API, same service pattern) — and on a clean API a mixed
        batch with an impossible instance still serves the good ones."""
        api = PredictionAPI(relu_model)
        service = InterpretationService(api, seed=0, max_iterations=25)
        responses = service.interpret_many(blobs3.X[:3])
        assert all(r.ok for r in responses)
        # Queue drained; later singles still work, cache still hits.
        again = service.interpret(blobs3.X[0])
        assert again.ok and again.served_from_cache

    def test_mixed_batch_noisy_api(self, relu_model, blobs3):
        """Under a noisy API every instance fails with an envelope — and
        the service keeps answering (no exception escapes, queue empty)."""
        api = PredictionAPI(relu_model, transform=NoisyResponse(0.05, seed=1))
        service = InterpretationService(api, seed=0, max_iterations=2)
        responses = service.interpret_many(blobs3.X[:3])
        assert len(responses) == 3
        assert all(
            not r.ok and r.error.code == ERROR_CERTIFICATE_FAILED
            for r in responses
        )
        stats = service.stats()
        assert stats.n_errors == 3
        assert stats.n_queries + stats.calibration_queries == api.query_count
        assert len(service._queue) == 0
        # The cache holds nothing uncertified.
        assert len(service.cache) == 0
