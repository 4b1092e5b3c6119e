"""Consolidated property-based tests of the paper's formal results.

Each test here is a Hypothesis rendition of a theorem/lemma, run against
randomly generated models and instances — the strongest correctness
evidence the suite provides, because nothing is tuned to a fixture.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PredictionAPI
from repro.core import (
    BatchOpenAPIInterpreter,
    NaiveInterpreter,
    OpenAPIInterpreter,
    verify_interpretation,
)
from repro.core.equations import pairwise_log_odds_targets
from repro.exceptions import CertificateError
from repro.models import MaxOutNetwork, ReLUNetwork, SoftmaxRegression
from repro.models.openbox import (
    decision_features_from_weights,
    ground_truth_core_parameters,
    ground_truth_decision_features,
)


def _random_linear_model(rng, d, C):
    return SoftmaxRegression().set_parameters(
        rng.normal(size=(d, C)), rng.normal(size=C)
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_equation2_log_odds_identity(seed):
    """Equation 2: ln(y_c/y_c') == D_{c,c'}^T x + B_{c,c'} inside a region,
    for random linear models and random inputs."""
    rng = np.random.default_rng(seed)
    d, C = int(rng.integers(2, 8)), int(rng.integers(2, 6))
    model = _random_linear_model(rng, d, C)
    x = rng.normal(size=d)
    probs = model.predict_proba(x)[None, :]
    c = int(rng.integers(0, C))
    targets, pairs = pairwise_log_odds_targets(probs, c)
    for col, (cc, cp) in enumerate(pairs):
        D, B = ground_truth_core_parameters(model, x, cc, cp)
        assert float(D @ x + B) == pytest.approx(float(targets[0, col]), abs=1e-8)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_equation1_antisymmetry_and_zero_sum(seed):
    """D_c vectors over all classes sum to zero (pairwise antisymmetry)."""
    rng = np.random.default_rng(seed)
    d, C = int(rng.integers(2, 8)), int(rng.integers(2, 6))
    W = rng.normal(size=(d, C))
    total = np.sum(
        [decision_features_from_weights(W, c) for c in range(C)], axis=0
    )
    np.testing.assert_allclose(total, 0.0, atol=1e-10)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 5000))
def test_theorem2_batch_and_sequential_agree_with_truth(seed):
    """Theorem 2 end to end for both interpreter implementations, on a
    random untrained ReLU network (worst case: irregular regions).

    Where every hidden unit is dead the log-odds are constant: a pair
    with ``D = 0`` has no signal, and both interpreters refuse it."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 6))
    net = ReLUNetwork([d, int(rng.integers(4, 8)), 3], seed=seed)
    api = PredictionAPI(net)
    x0 = rng.uniform(0, 1, size=d)

    c = int(np.argmax(api.predict_proba(x0)))
    if any(
        not np.any(ground_truth_core_parameters(net, x0, c, other)[0])
        for other in range(3) if other != c
    ):
        with pytest.raises(CertificateError):
            OpenAPIInterpreter(seed=seed).interpret(api, x0)
        batch = BatchOpenAPIInterpreter(seed=seed + 1).interpret_batch(
            api, x0[None, :]
        )
        assert batch.interpretations == [None]
        return

    sequential = OpenAPIInterpreter(seed=seed).interpret(api, x0)
    batch = BatchOpenAPIInterpreter(seed=seed + 1).interpret_batch(
        api, x0[None, :], np.array([sequential.target_class])
    )
    gt = ground_truth_decision_features(net, x0, sequential.target_class)
    np.testing.assert_allclose(sequential.decision_features, gt, atol=1e-7)
    assert batch.interpretations[0] is not None
    np.testing.assert_allclose(
        batch.interpretations[0].decision_features, gt, atol=1e-7
    )


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2000))
def test_theorem2_on_random_maxout(seed):
    """Exactness extends to the MaxOut member of the PLM family."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 5))
    net = MaxOutNetwork([d, 4, 3], pieces=2, seed=seed)
    api = PredictionAPI(net)
    x0 = rng.uniform(0, 1, size=d)
    interp = OpenAPIInterpreter(seed=seed).interpret(api, x0)
    gt = ground_truth_decision_features(net, x0, interp.target_class)
    np.testing.assert_allclose(interp.decision_features, gt, atol=1e-7)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 5000))
def test_verification_accepts_truth_rejects_perturbation(seed):
    """A certified claim verifies; the same claim with perturbed weights
    does not (falsifiability, on random linear models)."""
    import dataclasses

    rng = np.random.default_rng(seed)
    d, C = int(rng.integers(2, 6)), int(rng.integers(2, 4))
    model = _random_linear_model(rng, d, C)
    api = PredictionAPI(model)
    x0 = rng.normal(size=d)
    interp = OpenAPIInterpreter(seed=seed).interpret(api, x0)
    assert verify_interpretation(api, interp, seed=seed).passed

    pair, est = next(iter(interp.pair_estimates.items()))
    bad_est = dataclasses.replace(
        est, weights=est.weights + rng.normal(size=d) + 0.5
    )
    tampered = dataclasses.replace(
        interp, pair_estimates={**interp.pair_estimates, pair: bad_est}
    )
    assert not verify_interpretation(api, tampered, seed=seed).passed


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 3000))
def test_io_round_trip_random_networks(seed):
    """Serialization preserves predictions bit-for-bit on random nets."""
    import tempfile

    from repro.io import load_model, save_model

    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    net = ReLUNetwork([d, int(rng.integers(3, 7)), 3], seed=seed)
    X = rng.uniform(0, 1, size=(5, d))
    with tempfile.NamedTemporaryFile(suffix=".npz") as handle:
        save_model(net, handle.name)
        loaded = load_model(handle.name)
    np.testing.assert_array_equal(
        loaded.decision_logits(X), net.decision_logits(X)
    )


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 5000), h=st.floats(1e-6, 1e-2))
def test_naive_exact_in_single_region_models(seed, h):
    """Theorem 1's complement: when the ideal case *does* hold (single
    region), the naive method is exact for any h."""
    rng = np.random.default_rng(seed)
    d, C = int(rng.integers(2, 6)), int(rng.integers(2, 4))
    model = _random_linear_model(rng, d, C)
    api = PredictionAPI(model)
    x0 = rng.normal(size=d)
    interp = NaiveInterpreter(h, seed=seed).interpret(api, x0, c=0)
    gt = ground_truth_decision_features(model, x0, 0)
    np.testing.assert_allclose(interp.decision_features, gt, atol=1e-5)
