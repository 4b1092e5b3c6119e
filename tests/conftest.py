"""Shared fixtures: small trained models over controllable datasets.

Everything is session-scoped — training even the small networks hundreds
of times would dominate the suite's runtime, and the models are treated as
immutable by all tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PredictionAPI
from repro.data import Dataset, make_blobs
from repro.models import (
    LogisticModelTree,
    MaxOutNetwork,
    ReLUNetwork,
    SoftmaxRegression,
    TrainingConfig,
    train_network,
)


class FakeClock:
    """Deterministic monotonic clock for TTL tests."""

    def __init__(self):
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def fake_clock() -> FakeClock:
    """A fresh :class:`FakeClock` at t = 0 (inject as a cache's ``clock``)."""
    return FakeClock()


@pytest.fixture(scope="session")
def blobs3() -> Dataset:
    """Well-separated 3-class Gaussian blobs in 6 dimensions."""
    return make_blobs(300, n_features=6, n_classes=3, separation=4.0, seed=10)


@pytest.fixture(scope="session")
def xor_dataset() -> Dataset:
    """A 2-class dataset no single linear classifier can fit (XOR layout).

    Forces the LMT to actually split, producing a multi-region PLM.
    """
    rng = np.random.default_rng(11)
    n_per = 90
    centers = np.array(
        [[0.2, 0.2], [0.8, 0.8], [0.2, 0.8], [0.8, 0.2]], dtype=np.float64
    )
    labels = np.array([0, 0, 1, 1])
    X = np.vstack(
        [c + rng.normal(0, 0.07, size=(n_per, 2)) for c in centers]
    )
    y = np.repeat(labels, n_per)
    perm = rng.permutation(X.shape[0])
    return Dataset(X=np.clip(X[perm], 0, 1), y=y[perm], name="xor")


@pytest.fixture(scope="session")
def linear_model(blobs3: Dataset) -> SoftmaxRegression:
    return SoftmaxRegression(seed=0).fit(blobs3.X, blobs3.y)


@pytest.fixture(scope="session")
def linear_api(linear_model: SoftmaxRegression) -> PredictionAPI:
    return PredictionAPI(linear_model)


@pytest.fixture(scope="session")
def relu_model(blobs3: Dataset) -> ReLUNetwork:
    net = ReLUNetwork([6, 16, 8, 3], seed=1)
    train_network(
        net,
        blobs3.X,
        blobs3.y,
        TrainingConfig(epochs=60, learning_rate=3e-3, seed=1),
    )
    return net


@pytest.fixture(scope="session")
def relu_api(relu_model: ReLUNetwork) -> PredictionAPI:
    return PredictionAPI(relu_model)


@pytest.fixture(scope="session")
def maxout_model(blobs3: Dataset) -> MaxOutNetwork:
    net = MaxOutNetwork([6, 8, 3], pieces=3, seed=2)
    train_network(
        net,
        blobs3.X,
        blobs3.y,
        TrainingConfig(epochs=60, learning_rate=3e-3, seed=2),
    )
    return net


@pytest.fixture(scope="session")
def maxout_api(maxout_model: MaxOutNetwork) -> PredictionAPI:
    return PredictionAPI(maxout_model)


@pytest.fixture(scope="session")
def lmt_model(xor_dataset: Dataset) -> LogisticModelTree:
    lmt = LogisticModelTree(
        min_samples_split=40,
        leaf_accuracy_stop=0.95,
        max_depth=4,
        l1=0.0,
        seed=3,
    )
    return lmt.fit(xor_dataset.X, xor_dataset.y)


@pytest.fixture(scope="session")
def lmt_api(lmt_model: LogisticModelTree) -> PredictionAPI:
    return PredictionAPI(lmt_model)
