"""Tests for OpenAPI (Algorithm 1) and the naive method — the paper's core.

The central claims under test:

* **Exactness (Theorem 2)**: a certified OpenAPI interpretation equals the
  OpenBox ground truth to numerical precision, on every PLM family (linear,
  ReLU net, MaxOut net, LMT).
* **Consistency**: instances sharing a locally linear region receive
  identical decision features.
* **Theorem 1**: the naive method silently returns wrong answers when its
  fixed perturbation distance crosses regions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import NoisyResponse, PredictionAPI
from repro.core import NaiveInterpreter, OpenAPIInterpreter
from repro.data import make_blobs
from repro.exceptions import CertificateError, ValidationError
from repro.models import ReLUNetwork, SoftmaxRegression, TrainingConfig, train_network
from repro.models.openbox import (
    ground_truth_core_parameters,
    ground_truth_decision_features,
)


class TestOpenAPIOnLinearModel:
    def test_exact_on_first_iteration(self, linear_api, linear_model, blobs3):
        interp = OpenAPIInterpreter(seed=0).interpret(linear_api, blobs3.X[0])
        assert interp.all_certified
        assert interp.iterations == 1
        gt = ground_truth_decision_features(
            linear_model, blobs3.X[0], interp.target_class
        )
        np.testing.assert_allclose(interp.decision_features, gt, atol=1e-9)

    def test_core_parameters_exact(self, linear_api, linear_model, blobs3):
        x0 = blobs3.X[1]
        interp = OpenAPIInterpreter(seed=1).interpret(linear_api, x0, c=0)
        for (c, cp), est in interp.pair_estimates.items():
            D, B = ground_truth_core_parameters(linear_model, x0, c, cp)
            np.testing.assert_allclose(est.weights, D, atol=1e-9)
            assert est.intercept == pytest.approx(B, abs=1e-8)

    def test_query_accounting(self, linear_model, blobs3):
        api = PredictionAPI(linear_model)
        interp = OpenAPIInterpreter(seed=2).interpret(api, blobs3.X[0])
        d = blobs3.n_features
        # 1 query for x0 + (d+1) per iteration.
        assert interp.n_queries == 1 + interp.iterations * (d + 1)
        assert api.query_count == interp.n_queries

    def test_explicit_class(self, linear_api, blobs3):
        interp = OpenAPIInterpreter(seed=3).interpret(linear_api, blobs3.X[0], c=2)
        assert interp.target_class == 2
        assert set(interp.pair_estimates) == {(2, 0), (2, 1)}


class TestOpenAPIOnPLNN:
    def test_exact_decision_features(self, relu_api, relu_model, blobs3):
        for i in (0, 5, 11):
            x0 = blobs3.X[i]
            interp = OpenAPIInterpreter(seed=i).interpret(relu_api, x0)
            gt = ground_truth_decision_features(
                relu_model, x0, interp.target_class
            )
            assert interp.all_certified
            np.testing.assert_allclose(interp.decision_features, gt, atol=1e-8)

    def test_adaptive_shrinking_happens(self, relu_api, blobs3):
        """On a multi-region PLNN, r=1.0 cubes usually cross regions."""
        interpreter = OpenAPIInterpreter(seed=4)
        iterations = [
            interpreter.interpret(relu_api, blobs3.X[i]).iterations
            for i in range(8)
        ]
        assert max(iterations) > 1

    def test_final_edge_matches_iterations(self, relu_api, blobs3):
        interp = OpenAPIInterpreter(seed=5, initial_edge=1.0, shrink=0.5).interpret(
            relu_api, blobs3.X[3]
        )
        assert interp.final_edge == pytest.approx(0.5 ** (interp.iterations - 1))

    def test_run_history_recorded(self, relu_api, blobs3):
        interpreter = OpenAPIInterpreter(seed=6)
        interp = interpreter.interpret(relu_api, blobs3.X[2])
        history = interpreter.last_run_history_
        assert len(history) == interp.iterations
        assert history[-1].n_certified == history[-1].n_pairs
        # Failed iterations (if any) carry large residuals.
        for record in history[:-1]:
            assert record.n_certified < record.n_pairs

    def test_consistency_within_region(self, relu_api, relu_model, blobs3):
        """Two instances of one region get identical decision features."""
        x0 = blobs3.X[0]
        region = relu_model.region_id(x0)
        rng = np.random.default_rng(0)
        x1 = None
        for _ in range(100):
            candidate = x0 + rng.uniform(-1e-3, 1e-3, size=x0.shape)
            if relu_model.region_id(candidate) == region:
                x1 = candidate
                break
        assert x1 is not None
        interpreter = OpenAPIInterpreter(seed=7)
        f0 = interpreter.interpret(relu_api, x0, c=0).decision_features
        f1 = interpreter.interpret(relu_api, x1, c=0).decision_features
        np.testing.assert_allclose(f0, f1, atol=1e-8)


class TestOpenAPIOnLMT(object):
    def test_exact_on_lmt(self, lmt_api, lmt_model, xor_dataset):
        for i in (0, 10, 20):
            x0 = xor_dataset.X[i]
            interp = OpenAPIInterpreter(seed=i).interpret(lmt_api, x0)
            gt = ground_truth_decision_features(
                lmt_model, x0, interp.target_class
            )
            np.testing.assert_allclose(interp.decision_features, gt, atol=1e-8)


class TestOpenAPIOnMaxOut:
    def test_exact_on_maxout(self, maxout_api, maxout_model, blobs3):
        x0 = blobs3.X[7]
        interp = OpenAPIInterpreter(seed=8).interpret(maxout_api, x0)
        gt = ground_truth_decision_features(maxout_model, x0, interp.target_class)
        np.testing.assert_allclose(interp.decision_features, gt, atol=1e-8)


class TestOpenAPIFailureModes:
    def test_noisy_api_raises_certificate_error(self, relu_model, blobs3):
        """A noisy API is not a PLM; the certificate must refuse, not lie."""
        api = PredictionAPI(relu_model, transform=NoisyResponse(0.01, seed=0))
        interpreter = OpenAPIInterpreter(seed=9, max_iterations=5)
        with pytest.raises(CertificateError) as exc_info:
            interpreter.interpret(api, blobs3.X[0])
        assert exc_info.value.iterations == 5

    def test_wrong_shape_rejected(self, linear_api):
        with pytest.raises(ValidationError):
            OpenAPIInterpreter().interpret(linear_api, np.ones(99))

    def test_bad_class_rejected(self, linear_api, blobs3):
        with pytest.raises(ValidationError):
            OpenAPIInterpreter().interpret(linear_api, blobs3.X[0], c=17)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValidationError):
            OpenAPIInterpreter(max_iterations=0)
        with pytest.raises(ValidationError):
            OpenAPIInterpreter(shrink=1.0)
        with pytest.raises(ValidationError):
            OpenAPIInterpreter(shrink=0.0)
        with pytest.raises(ValidationError):
            OpenAPIInterpreter(initial_edge=0.0)


class TestInterpretAllClasses:
    def test_all_classes_from_one_sample_set(self, relu_api, relu_model, blobs3):
        x0 = blobs3.X[6]
        interpreter = OpenAPIInterpreter(seed=10)
        interpretations = interpreter.interpret_all_classes(relu_api, x0)
        assert len(interpretations) == 3
        for interp in interpretations:
            gt = ground_truth_decision_features(
                relu_model, x0, interp.target_class
            )
            np.testing.assert_allclose(interp.decision_features, gt, atol=1e-8)

    def test_queries_charged_once(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        interpretations = OpenAPIInterpreter(seed=11).interpret_all_classes(
            api, blobs3.X[0]
        )
        assert interpretations[0].n_queries == api.query_count
        assert all(i.n_queries == 0 for i in interpretations[1:])

    def test_pair_residuals_match_direct_interpret(self, relu_model, blobs3):
        """Regression: derived per-pair residuals must equal what a direct
        ``interpret(api, x0, c=c)`` over the same sample set reports.

        The pre-fix code labelled the derived pair ``(c, c')`` with the
        residual of the base pair ``(0, c')``, mislabelling every pair of
        the non-base classes (and pairs involving class 0 got a residual
        belonging to a different solve).  Now each derived pair is an
        actual least-squares solve of the shared certified sample set, so
        a fresh interpreter with the same seed — which draws the identical
        samples — must report the identical residuals.
        """
        x0 = blobs3.X[4]
        api = PredictionAPI(relu_model)
        interpretations = OpenAPIInterpreter(seed=21).interpret_all_classes(
            api, x0
        )
        for interp in interpretations:
            c = interp.target_class
            direct = OpenAPIInterpreter(seed=21).interpret(api, x0, c=c)
            if direct.iterations != interp.iterations:
                continue  # different sample set; residuals not comparable
            assert set(interp.pair_estimates) == set(direct.pair_estimates)
            for pair, est in interp.pair_estimates.items():
                ref = direct.pair_estimates[pair]
                assert est.residual == pytest.approx(ref.residual, rel=1e-9, abs=0)
                np.testing.assert_allclose(est.weights, ref.weights, rtol=1e-12)
                assert est.intercept == pytest.approx(ref.intercept, rel=1e-9)

    def test_derived_certificate_failure_falls_back_to_direct(
        self, relu_model, blobs3
    ):
        """Under an imperfect API a derived class's re-solve can fail the
        certificate even though class 0 passed (the base certificate never
        checked pairs without class 0).  Regression: this must fall back
        to a direct solve — with its extra queries metered — instead of
        raising an undocumented ValidationError."""
        from repro.api import RoundedResponse

        api = PredictionAPI(relu_model, transform=RoundedResponse(5))
        interpreter = OpenAPIInterpreter(seed=0, rtol=1e-4, max_iterations=30)
        # Instance 136 deterministically certifies class 0 while a local
        # re-solve of a derived class fails its certificate (found by
        # sweep over the simplex design; 1 instance in 300 at this seed).
        interpretations = interpreter.interpret_all_classes(api, blobs3.X[136])
        assert len(interpretations) == 3
        assert [i.target_class for i in interpretations] == [0, 1, 2]
        assert all(i.all_certified for i in interpretations)
        # At least one derived class took the fallback path and metered
        # its own queries; classes served from the shared set cost 0.
        fallback_queries = [i.n_queries for i in interpretations[1:]]
        assert any(q > 0 for q in fallback_queries)

    def test_pair_residuals_are_own_solve_residuals(self, relu_api, blobs3):
        """Each derived pair's residual is finite, certified, and *not*
        simply copied from the base class's pair list (the old bug)."""
        interpretations = OpenAPIInterpreter(seed=22).interpret_all_classes(
            relu_api, blobs3.X[2]
        )
        base = interpretations[0]
        for interp in interpretations[1:]:
            c = interp.target_class
            for (a, b), est in interp.pair_estimates.items():
                assert a == c and b != c
                assert np.isfinite(est.residual)
                assert est.certified
            # The pair (c, 0) mirrors base pair (0, c): same system up to
            # sign, so its residual must match the base solve's.
            assert interp.pair_estimates[(c, 0)].residual == pytest.approx(
                base.pair_estimates[(0, c)].residual, rel=1e-6, abs=1e-12
            )


class TestNaiveMethod:
    def test_exact_in_ideal_case(self, linear_api, linear_model, blobs3):
        """One region everywhere -> the ideal case always holds."""
        x0 = blobs3.X[0]
        interp = NaiveInterpreter(0.1, seed=0).interpret(linear_api, x0, c=0)
        gt = ground_truth_decision_features(linear_model, x0, 0)
        np.testing.assert_allclose(interp.decision_features, gt, atol=1e-8)

    def test_not_certified(self, linear_api, blobs3):
        interp = NaiveInterpreter(0.1, seed=1).interpret(linear_api, blobs3.X[0])
        assert not interp.all_certified
        assert all(not e.certified for e in interp.pair_estimates.values())

    def test_wrong_when_crossing_regions(self, relu_api, relu_model, blobs3):
        """Theorem 1: big h mixes regions and the answer is silently wrong."""
        errors = []
        for i in range(6):
            x0 = blobs3.X[i]
            c = int(relu_model.predict(x0)[0])
            interp = NaiveInterpreter(0.5, seed=i).interpret(relu_api, x0, c)
            gt = ground_truth_decision_features(relu_model, x0, c)
            errors.append(np.abs(interp.decision_features - gt).sum())
        assert max(errors) > 1e-3

    def test_accurate_with_tiny_h_inside_region(self, relu_api, relu_model, blobs3):
        x0 = blobs3.X[0]
        c = int(relu_model.predict(x0)[0])
        interp = NaiveInterpreter(1e-7, seed=2).interpret(relu_api, x0, c)
        gt = ground_truth_decision_features(relu_model, x0, c)
        assert np.abs(interp.decision_features - gt).sum() < 1e-3

    def test_query_count(self, linear_model, blobs3):
        api = PredictionAPI(linear_model)
        interp = NaiveInterpreter(0.1, seed=3).interpret(api, blobs3.X[0])
        assert interp.n_queries == 1 + blobs3.n_features

    def test_samples_exposed(self, linear_api, blobs3):
        interp = NaiveInterpreter(0.1, seed=4).interpret(linear_api, blobs3.X[0])
        assert interp.samples is not None
        assert interp.samples.shape == (blobs3.n_features, blobs3.n_features)

    def test_validations(self, linear_api):
        with pytest.raises(ValidationError):
            NaiveInterpreter(0.0)
        with pytest.raises(ValidationError):
            NaiveInterpreter(0.1).interpret(linear_api, np.ones(2))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_openapi_exact_on_random_linear_models(seed):
    """Theorem 2 end-to-end: exactness for arbitrary softmax-linear models."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    C = int(rng.integers(2, 5))
    model = SoftmaxRegression().set_parameters(
        rng.normal(size=(d, C)), rng.normal(size=C)
    )
    api = PredictionAPI(model)
    x0 = rng.uniform(-1, 1, size=d)
    interp = OpenAPIInterpreter(seed=seed).interpret(api, x0, c=0)
    gt = ground_truth_decision_features(model, x0, 0)
    assert interp.all_certified
    np.testing.assert_allclose(interp.decision_features, gt, atol=1e-7)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 200))
def test_property_openapi_exact_on_random_relu_nets(seed):
    """Exactness on untrained (random) ReLU networks of random sizes.

    Where every hidden unit is dead (seeds 29 and 58 of the range) the
    log-odds are constant, and a pair without signal is refused."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 6))
    hidden = int(rng.integers(4, 10))
    net = ReLUNetwork([d, hidden, 3], seed=seed)
    api = PredictionAPI(net)
    x0 = rng.uniform(0, 1, size=d)
    c = int(np.argmax(api.predict_proba(x0)))
    if any(
        not np.any(ground_truth_core_parameters(net, x0, c, other)[0])
        for other in range(3) if other != c
    ):
        with pytest.raises(CertificateError):
            OpenAPIInterpreter(seed=seed).interpret(api, x0)
        return
    interp = OpenAPIInterpreter(seed=seed).interpret(api, x0)
    gt = ground_truth_decision_features(net, x0, interp.target_class)
    np.testing.assert_allclose(interp.decision_features, gt, atol=1e-7)
