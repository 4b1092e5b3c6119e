"""The rotated-simplex design of Algorithm 1 and its closed-form screen.

Both interpreters query, each round, the ``d + 1`` vertices of a regular
simplex centred on ``x0`` (:func:`repro.core.sampling.simplex_directions`)
and reject failing rounds in closed form
(:func:`repro.core.rounds.screen_simplex_rounds`) before the engine runs.
These tests pin the design's geometry, the screen against the engine,
and the interpreters against an engine-only run on the same samples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batch as core_batch
import repro.core.openapi as core_openapi
from repro.api import PredictionAPI
from repro.core import BatchOpenAPIInterpreter, OpenAPIInterpreter
from repro.core.engine import solve_stack, stacked_log_odds
from repro.core.equations import DEFAULT_PROB_FLOOR
from repro.core.rounds import screen_simplex_rounds
from repro.core.sampling import (
    instance_generator,
    random_rotation,
    regular_simplex,
    simplex_directions,
)
from repro.data import load_dataset
from repro.models.openbox import ground_truth_decision_features
from repro.serving.worker import train_worker_model

#: The fleet benchmark's fixed fresh draw (dataset seed and size).
FRESH_SEED = 90210
FRESH_CANDIDATES = 2048


@pytest.fixture(scope="module")
def credit_model():
    return train_worker_model("credit-scoring", 0)[2]


def _design(x0: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """The ``(d + 2, d + 1)`` design ``[1 | X - x0]`` of one round."""
    points = np.vstack([x0[None, :], samples])
    return np.hstack([np.ones((len(points), 1)), points - x0])


class TestSimplexDesign:
    @pytest.mark.parametrize("d", [2, 10, 64])
    def test_geometry_and_leverage(self, d):
        rng = np.random.default_rng(d)
        for edge in (1.0, 2.0**-6, 2.0**-20):
            # Round offsets from x0: centroid 0, every vertex at distance
            # edge, so every sample inside the paper's hypercube
            # |p_i - x0_i| <= edge.
            offsets = edge * simplex_directions(rng, d)
            assert offsets.shape == (d + 1, d)
            np.testing.assert_allclose(
                offsets.mean(axis=0), 0.0, atol=1e-12 * edge
            )
            np.testing.assert_allclose(
                np.linalg.norm(offsets, axis=1), edge, rtol=1e-12
            )
            assert np.abs(offsets).max() <= edge
        # Leverage of the unit design: no sample is blind to the
        # certificate, each reaches it with 1 - h_ii = 1/((d+1)(d+2)).
        A = _design(np.zeros(d), simplex_directions(rng, d))
        hat = A @ np.linalg.solve(A.T @ A, A.T)
        slack = 1.0 - np.diag(hat)
        np.testing.assert_allclose(
            slack[1:], 1.0 / ((d + 1) * (d + 2)), rtol=1e-9
        )
        np.testing.assert_allclose(slack[0], (d + 1) / (d + 2), rtol=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 10, 64])
    def test_regular_simplex_and_rotation(self, d):
        vertices = regular_simplex(d)
        gram = vertices @ vertices.T
        # Unit circumradius, equal angles: <v_i, v_j> = -1/d off-diagonal.
        expected = np.full((d + 1, d + 1), -1.0 / d)
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_allclose(gram, expected, atol=1e-12)
        Q = random_rotation(np.random.default_rng(0), d)
        np.testing.assert_allclose(Q.T @ Q, np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 10, 64])
    def test_rotation_is_a_pure_function_of_seed_and_x0(self, d):
        x0 = np.linspace(-1.0, 1.0, d)
        first = simplex_directions(instance_generator(7, x0), d)
        again = simplex_directions(instance_generator(7, x0.copy()), d)
        np.testing.assert_array_equal(first, again)
        other_seed = simplex_directions(instance_generator(8, x0), d)
        other_x0 = simplex_directions(instance_generator(7, x0 + 1e-3), d)
        assert not np.array_equal(first, other_seed)
        assert not np.array_equal(first, other_x0)


def _round_probs(x0, samples, W, b, kink):
    """Softmax probabilities of affine logits, optionally plus a ReLU
    kink on class 0 through the middle of the simplex."""
    points = np.vstack([x0[None, :], samples])
    logits = points @ W + b
    if kink is not None:
        direction, weight = kink
        offsets = (points - x0) @ direction
        logits[:, 0] += weight * np.maximum(offsets - np.median(offsets), 0.0)
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    return points, probs / probs.sum(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    d=st.integers(1, 16),
    C=st.integers(2, 6),
    log2_edge=st.floats(-13.0, 0.0),
    kinked=st.booleans(),
)
def test_screen_residual_matches_engine(seed, d, C, log2_edge, kinked):
    """The closed-form residual is the engine's least-squares residual
    (relative to the centred target norm, the certificate's scale), and
    block ``b`` of a stacked screen is its lone screen bitwise."""
    rng = np.random.default_rng(seed)
    edge = 2.0**log2_edge
    x0 = rng.normal(size=d)
    W = rng.normal(size=(d, C))
    b = rng.normal(size=C)
    kink = (
        (rng.normal(size=d) / np.sqrt(d), rng.uniform(0.5, 3.0))
        if kinked else None
    )
    blocks = []
    for _ in range(3):
        samples = x0 + edge * simplex_directions(rng, d)
        blocks.append(_round_probs(x0, samples, W, b, kink))
    points = np.stack([p for p, _ in blocks])
    probs = np.stack([q for _, q in blocks])
    classes = rng.integers(0, C, size=3)

    screen = screen_simplex_rounds(probs, classes)
    engine = solve_stack(points, probs, classes, centers=np.stack([x0] * 3))
    _, targets_t = stacked_log_odds(probs, classes, DEFAULT_PROB_FLOOR)
    centred = np.linalg.norm(
        targets_t - targets_t.mean(axis=2, keepdims=True), axis=2
    )
    scale = np.maximum(centred, engine.res_norms)
    assert np.all(np.abs(screen.res_norms - engine.res_norms) <= 1e-9 * scale)
    for i in range(3):
        lone = screen_simplex_rounds(probs[i:i + 1], classes[i:i + 1])
        np.testing.assert_array_equal(lone.res_norms[0], screen.res_norms[i])
        assert lone.passed[0] == screen.passed[i]


def _engine_only(monkeypatch, module):
    """Make ``module``'s interpreter send every round to the engine: the
    screen still runs, but every block passes it."""
    def pass_all(probs, target_classes, **kwargs):
        screen = screen_simplex_rounds(probs, target_classes, **kwargs)
        screen.passed = [True] * len(screen.passed)
        return screen

    monkeypatch.setattr(module, "screen_simplex_rounds", pass_all)


class TestInterpreters:
    def test_fresh_draw_instance_636_certifies_exactly(self, credit_model):
        """Regression: on the uniform hypercube this instance certified a
        round in which one sample, of leverage 0.9999981, sat across a
        flipped ReLU; its decision features came out 0.029 off."""
        x0 = load_dataset(
            "credit-scoring", FRESH_CANDIDATES, seed=FRESH_SEED
        ).X[636]
        result = BatchOpenAPIInterpreter(
            seed=0, per_instance_seed=True
        ).interpret_batch(PredictionAPI(credit_model), x0[None, :])
        interp = result.interpretations[0]
        truth = ground_truth_decision_features(
            credit_model, x0, interp.target_class
        )
        np.testing.assert_allclose(interp.decision_features, truth, atol=1e-6)

    def test_screen_changes_no_answer_on_the_fresh_draw(
        self, credit_model, monkeypatch
    ):
        """Screen-plus-engine and engine-only, on the same simplex
        samples: equal query counts, bitwise-equal decision features."""
        X = load_dataset("credit-scoring", 4000, seed=FRESH_SEED).X
        interpreter = BatchOpenAPIInterpreter(seed=0, per_instance_seed=True)

        def solve_all():
            api = PredictionAPI(credit_model)
            out = []
            for lo in range(0, len(X), 500):
                out += interpreter.interpret_batch(
                    api, X[lo:lo + 500]
                ).interpretations
            return out, api.query_count

        screened, screened_queries = solve_all()
        _engine_only(monkeypatch, core_batch)
        reference, reference_queries = solve_all()
        assert screened_queries == reference_queries
        for got, want in zip(screened, reference):
            assert got.n_queries == want.n_queries
            np.testing.assert_array_equal(
                got.decision_features, want.decision_features
            )

    def test_engine_runs_only_for_passing_rounds(
        self, credit_model, monkeypatch
    ):
        X = load_dataset("credit-scoring", 64, seed=FRESH_SEED).X
        blocks = []
        real = core_batch.run_solve_rounds_batched

        def counting(points, *args, **kwargs):
            blocks.append(len(points))
            return real(points, *args, **kwargs)

        monkeypatch.setattr(core_batch, "run_solve_rounds_batched", counting)
        # The paper's start edge, where most rounds fail.
        result = BatchOpenAPIInterpreter(
            seed=0, initial_edge=1.0
        ).interpret_batch(PredictionAPI(credit_model), X)
        assert result.n_failed == 0
        # Every solve's certifying round reached the engine; most failed
        # rounds never did.
        rounds = sum(it.iterations for it in result.interpretations)
        assert len(X) <= sum(blocks) < rounds / 4

    def test_sequential_history_reads_the_screen(self, relu_model, blobs3,
                                                 monkeypatch):
        api = PredictionAPI(relu_model)
        screened = OpenAPIInterpreter(seed=5)
        histories = []
        for x0 in blobs3.X[:6]:
            interp = screened.interpret(api, x0)
            histories.append((interp, screened.last_run_history_))
        _engine_only(monkeypatch, core_openapi)
        reference = OpenAPIInterpreter(seed=5)
        for x0, (interp, history) in zip(blobs3.X[:6], histories):
            want = reference.interpret(api, x0)
            assert interp.n_queries == want.n_queries
            np.testing.assert_array_equal(
                interp.decision_features, want.decision_features
            )
            assert len(history) == len(reference.last_run_history_)
            for got, exp in zip(history, reference.last_run_history_):
                assert (got.iteration, got.edge, got.n_pairs) == (
                    exp.iteration, exp.edge, exp.n_pairs
                )
                assert got.n_certified == exp.n_certified
                assert got.worst_relative_residual == pytest.approx(
                    exp.worst_relative_residual, rel=1e-6, abs=1e-12
                )

    def test_batch_and_sequential_draw_the_same_designs(self, relu_model,
                                                         blobs3):
        """One rotation per solve, drawn in instance order from the shared
        stream: both interpreters query the same samples per instance."""
        X = blobs3.X[:5]
        sequential = OpenAPIInterpreter(seed=11)
        api = PredictionAPI(relu_model)
        seq = [sequential.interpret(api, x0) for x0 in X]
        batch = BatchOpenAPIInterpreter(
            seed=11, initial_edge=1.0
        ).interpret_batch(PredictionAPI(relu_model), X)
        for a, b in zip(seq, batch.interpretations):
            assert a.n_queries == b.n_queries
            np.testing.assert_array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("kind", ["batch", "sequential"])
    def test_clip_box_keeps_the_hypercube(self, relu_model, blobs3,
                                          monkeypatch, kind):
        """Clipping breaks the symmetric design: a clipped interpreter
        draws hypercube samples and never consults the screen."""
        def refuse(*args, **kwargs):
            raise AssertionError("the screen ran under clip_box")

        monkeypatch.setattr(core_batch, "screen_simplex_rounds", refuse)
        monkeypatch.setattr(core_openapi, "screen_simplex_rounds", refuse)
        api = PredictionAPI(relu_model)
        box = (-20.0, 20.0)
        X = blobs3.X[:3]
        if kind == "batch":
            interps = BatchOpenAPIInterpreter(
                seed=0, clip_box=box
            ).interpret_batch(api, X).interpretations
        else:
            interpreter = OpenAPIInterpreter(seed=0, clip_box=box)
            interps = [interpreter.interpret(api, x0) for x0 in X]
        for x0, interp in zip(X, interps):
            offsets = np.linalg.norm(interp.samples - x0, axis=1)
            # Uniform hypercube draws: distances to x0 differ.
            assert np.ptp(offsets) > 0
