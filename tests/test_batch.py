"""Tests for the lock-step batch interpreter (repro.core.batch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import NoisyResponse, PredictionAPI
from repro.core import BatchOpenAPIInterpreter, OpenAPIInterpreter
from repro.exceptions import ValidationError
from repro.models.openbox import ground_truth_decision_features


class TestBatchExactness:
    def test_exact_on_plnn_batch(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        batch = BatchOpenAPIInterpreter(seed=0)
        X = blobs3.X[:6]
        result = batch.interpret_batch(api, X)
        assert result.n_failed == 0
        for x0, interp in zip(X, result.interpretations):
            gt = ground_truth_decision_features(
                relu_model, x0, interp.target_class
            )
            assert interp.all_certified
            np.testing.assert_allclose(interp.decision_features, gt, atol=1e-8)

    def test_exact_on_lmt_batch(self, lmt_model, xor_dataset):
        api = PredictionAPI(lmt_model)
        result = BatchOpenAPIInterpreter(seed=1).interpret_batch(
            api, xor_dataset.X[:5]
        )
        assert result.n_failed == 0
        for x0, interp in zip(xor_dataset.X[:5], result.interpretations):
            gt = ground_truth_decision_features(
                lmt_model, x0, interp.target_class
            )
            np.testing.assert_allclose(interp.decision_features, gt, atol=1e-8)

    def test_explicit_classes(self, linear_model, blobs3):
        api = PredictionAPI(linear_model)
        classes = np.array([0, 1, 2])
        result = BatchOpenAPIInterpreter(seed=2).interpret_batch(
            api, blobs3.X[:3], classes
        )
        assert [i.target_class for i in result.interpretations] == [0, 1, 2]


class TestRoundTripSavings:
    def test_fewer_round_trips_than_sequential(self, relu_model, blobs3):
        X = blobs3.X[:8]

        seq_api = PredictionAPI(relu_model)
        sequential = OpenAPIInterpreter(seed=3)
        seq_iters = []
        for x0 in X:
            seq_iters.append(sequential.interpret(seq_api, x0).iterations)

        batch_api = PredictionAPI(relu_model)
        result = BatchOpenAPIInterpreter(
            seed=3, initial_edge=1.0
        ).interpret_batch(batch_api, X)

        # Sequential: one trip for each x0 plus one per iteration.
        assert seq_api.request_count == len(X) + sum(seq_iters)
        # Batch: one trip for all x0 plus one per lock-step round.
        assert batch_api.request_count == 1 + result.rounds
        assert batch_api.request_count < seq_api.request_count

    def test_query_totals_match_per_instance_formula(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        X = blobs3.X[:4]
        d = X.shape[1]
        result = BatchOpenAPIInterpreter(seed=4).interpret_batch(api, X)
        # Lock-step keeps sampling for unfinished instances only; total
        # queries = n (for x0s) + (d+1) * sum of per-instance iterations.
        total_iters = sum(i.iterations for i in result.interpretations)
        assert result.n_queries == len(X) + (d + 1) * total_iters

    def test_rounds_equal_max_iterations_across_batch(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        result = BatchOpenAPIInterpreter(seed=5).interpret_batch(
            api, blobs3.X[:6]
        )
        assert result.rounds == max(
            i.iterations for i in result.interpretations
        )


class TestBatchFailureHandling:
    def test_noisy_api_yields_none_entries(self, relu_model, blobs3):
        api = PredictionAPI(relu_model, transform=NoisyResponse(0.02, seed=0))
        result = BatchOpenAPIInterpreter(
            seed=6, max_iterations=4
        ).interpret_batch(api, blobs3.X[:3])
        assert result.n_failed == 3
        assert result.interpretations == [None, None, None]

    def test_mixed_instances_independent(self, relu_model, blobs3):
        """One hard instance must not block the others."""
        api = PredictionAPI(relu_model)
        # Give instance budgets that certify everything comfortably.
        result = BatchOpenAPIInterpreter(seed=7).interpret_batch(
            api, blobs3.X[:5]
        )
        iters = [i.iterations for i in result.interpretations]
        assert min(iters) >= 1
        # Lock-step must not inflate the fast instances' iteration counts.
        assert min(iters) < max(iters) or len(set(iters)) == 1


class TestBatchValidation:
    def test_shape_checks(self, linear_api, blobs3):
        batch = BatchOpenAPIInterpreter(seed=0)
        with pytest.raises(ValidationError):
            batch.interpret_batch(linear_api, np.ones((2, 99)))
        with pytest.raises(ValidationError):
            batch.interpret_batch(linear_api, np.empty((0, 6)))
        with pytest.raises(ValidationError):
            batch.interpret_batch(linear_api, blobs3.X[:2], classes=np.array([0]))
        with pytest.raises(ValidationError):
            batch.interpret_batch(
                linear_api, blobs3.X[:2], classes=np.array([0, 99])
            )

    def test_invalid_hyperparams(self):
        with pytest.raises(ValidationError):
            BatchOpenAPIInterpreter(max_iterations=0)
        with pytest.raises(ValidationError):
            BatchOpenAPIInterpreter(shrink=1.5)
