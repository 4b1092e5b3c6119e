"""Property suite pinning the batched solve engine to the reference loop.

The engine (:mod:`repro.core.engine`) must be a pure speedup: for every
instance of a stacked solve it has to reproduce the pre-engine
implementation (:func:`reference_solve_all_pairs`) — allclose weights,
intercepts and residuals, and *identical* certificate verdicts — across
randomized shapes, degenerate targets, float32 inputs and rank-deficient
blocks.  Also the regression tests for the two bugfixes shipped with the
engine: the ``n_classes < 2`` zero-pair crash and the empty-round
``worst_relative_residual``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchOpenAPIInterpreter,
    OpenAPIInterpreter,
    SolveRound,
    reference_solve_all_pairs,
    run_solve_round,
    run_solve_rounds_batched,
    solve_all_pairs,
    solve_pair_systems_stacked,
)
from repro.core.engine import solve_stack
from repro.core.sampling import simplex_directions
from repro.exceptions import ValidationError
from repro.serving import RegionCache, TieredRegionStore

SWEEP_SEEDS = (0, 1, 2)
#: (n_points, d, C) — overdetermined (n = d + 2) and taller systems,
#: binary through many-class.
SWEEP_SHAPES = ((6, 4, 3), (10, 8, 2), (12, 6, 5), (16, 6, 3))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def _random_problem(
    rng: np.random.Generator,
    k: int,
    n: int,
    d: int,
    C: int,
    *,
    noise: float = 0.0,
):
    """A stack of ``k`` solve problems with affine (plus noise) log-odds."""
    x0s = rng.normal(size=(k, d))
    samples = x0s[:, None, :] + rng.uniform(-0.5, 0.5, size=(k, n - 1, d))
    points = np.concatenate([x0s[:, None, :], samples], axis=1)
    W = rng.normal(size=(d, C))
    logits = points @ W
    if noise:
        logits = logits + rng.normal(scale=noise, size=logits.shape)
    probs = _softmax(logits)
    classes = rng.integers(0, C, size=k)
    return points, probs, classes, x0s


def _assert_equivalent(engine_solutions, reference_solutions):
    """Engine block == reference solve: same pairs (same order), same
    verdicts, allclose parameters and residuals."""
    assert list(engine_solutions) == list(reference_solutions)
    for pair, ref in reference_solutions.items():
        eng = engine_solutions[pair]
        assert eng.c == ref.c and eng.c_prime == ref.c_prime
        assert eng.certified == ref.certified, pair
        np.testing.assert_allclose(
            eng.result.weights, ref.result.weights, rtol=1e-6, atol=1e-9
        )
        np.testing.assert_allclose(
            eng.result.intercept, ref.result.intercept, rtol=1e-6, atol=1e-9
        )
        np.testing.assert_allclose(
            eng.result.residual_norm,
            ref.result.residual_norm,
            rtol=1e-4,
            atol=1e-8,
        )
        np.testing.assert_allclose(
            eng.result.relative_residual,
            ref.result.relative_residual,
            rtol=1e-4,
            atol=1e-8,
        )
        assert eng.result.rank == ref.result.rank
        assert eng.result.n_equations == ref.result.n_equations
        assert eng.result.n_unknowns == ref.result.n_unknowns


class TestEngineEquivalence:
    """The property pin: engine ≡ reference across randomized problems."""

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    @pytest.mark.parametrize("shape", SWEEP_SHAPES)
    @pytest.mark.parametrize("noise", (0.0, 1e-3))
    def test_randomized_stacks(self, seed, shape, noise):
        n, d, C = shape
        rng = np.random.default_rng(seed)
        points, probs, classes, centers = _random_problem(
            rng, 5, n, d, C, noise=noise
        )
        stacked = solve_pair_systems_stacked(
            points, probs, classes, centers=centers
        )
        for b in range(points.shape[0]):
            reference = reference_solve_all_pairs(
                points[b], probs[b], int(classes[b]), center=centers[b]
            )
            _assert_equivalent(stacked[b], reference)
            # Exact-region problems must actually certify (and noisy ones
            # must not) so the sweep exercises both verdicts.
            certified = all(s.certified for s in reference.values())
            assert certified == (noise == 0.0)

    def test_single_instance_path_equals_stacked(self):
        """solve_all_pairs (k=1 entry) is the same engine."""
        rng = np.random.default_rng(7)
        points, probs, classes, centers = _random_problem(rng, 3, 8, 6, 4)
        stacked = solve_pair_systems_stacked(
            points, probs, classes, centers=centers
        )
        for b in range(3):
            single = solve_all_pairs(
                points[b], probs[b], int(classes[b]), center=centers[b]
            )
            _assert_equivalent(single, stacked[b])

    def test_float32_inputs_upcast(self):
        rng = np.random.default_rng(3)
        points, probs, classes, centers = _random_problem(rng, 4, 7, 5, 3)
        stacked32 = solve_pair_systems_stacked(
            points.astype(np.float32),
            probs.astype(np.float32),
            classes,
            centers=centers.astype(np.float32),
        )
        for b in range(4):
            reference = reference_solve_all_pairs(
                points[b].astype(np.float32).astype(np.float64),
                probs[b].astype(np.float32).astype(np.float64),
                int(classes[b]),
                center=centers[b].astype(np.float32).astype(np.float64),
            )
            _assert_equivalent(stacked32[b], reference)
            for sol in stacked32[b].values():
                assert sol.result.weights.dtype == np.float64

    def test_constant_log_odds_targets(self):
        """Degenerate zero-signal targets: no signal, so every pair is
        refused (infinite relative residual), on both paths."""
        rng = np.random.default_rng(5)
        k, n, d, C = 3, 8, 4, 3
        x0s = rng.normal(size=(k, d))
        points = x0s[:, None, :] + rng.uniform(-0.5, 0.5, size=(k, n, d))
        row = rng.dirichlet(np.ones(C))
        probs = np.broadcast_to(row, (k, n, C)).copy()
        classes = np.zeros(k, dtype=int)
        stacked = solve_pair_systems_stacked(
            points, probs, classes, centers=x0s
        )
        for b in range(k):
            reference = reference_solve_all_pairs(
                points[b], probs[b], 0, center=x0s[b]
            )
            _assert_equivalent(stacked[b], reference)
            for sol in stacked[b].values():
                assert not sol.certified
                assert sol.result.relative_residual == np.inf
                np.testing.assert_allclose(
                    sol.result.weights, 0.0, atol=1e-10
                )

    def test_rank_deficient_blocks_fall_back_to_lstsq(self):
        """Degenerate sample sets must reproduce the lstsq reference
        exactly — rank, minimum-norm solution and failed certificate."""
        rng = np.random.default_rng(9)
        k, n, d, C = 3, 8, 4, 3
        points, probs, classes, centers = _random_problem(rng, k, n, d, C)
        # Block 0: every point identical (offsets rank 0).
        points[0] = centers[0]
        probs[0] = probs[0, 0]
        # Block 1: last feature constant (offsets rank d-1).
        points[1, :, -1] = centers[1, -1]
        stacked = solve_pair_systems_stacked(
            points, probs, classes, centers=centers
        )
        for b in range(k):
            reference = reference_solve_all_pairs(
                points[b], probs[b], int(classes[b]), center=centers[b]
            )
            _assert_equivalent(stacked[b], reference)
        for sol in stacked[0].values():
            assert sol.result.rank == 1
            assert not sol.certified
        for sol in stacked[1].values():
            assert sol.result.rank == d
            assert not sol.certified
        for sol in stacked[2].values():  # healthy block rode along
            assert sol.result.rank == d + 1
            assert sol.certified

    def test_ill_conditioned_blocks_take_the_svd_path(self):
        """A full-rank design past condition 100 is solved by ``lstsq``
        (the normal equations would square its condition number): its
        weights are the reference's bitwise.  A simplex design, at
        condition O(1), stays on the fast path."""
        rng = np.random.default_rng(21)
        k, d, C = 2, 6, 3
        x0s = rng.uniform(size=(k, d))
        # Block 0: a hypercube draw squashed along one axis.
        steps = rng.uniform(-1e-3, 1e-3, size=(k, d + 1, d))
        steps[0, :, 0] *= 1e-3
        steps[1] = 1e-3 * simplex_directions(rng, d)
        points = np.concatenate(
            [x0s[:, None, :], x0s[:, None, :] + steps], axis=1
        )
        W = rng.normal(size=(d, C))
        probs = _softmax(points @ W)
        classes = np.zeros(k, dtype=int)
        offsets = points[0] - x0s[0]
        design = np.hstack(
            [np.ones((d + 2, 1)), offsets / np.abs(offsets).max()]
        )
        assert np.linalg.cond(design) > 100.0
        stack = solve_stack(points, probs, classes, centers=x0s)
        assert 0 in stack._lstsq and 1 not in stack._lstsq
        stacked = [stack.solutions(b) for b in range(k)]
        for b in range(k):
            reference = reference_solve_all_pairs(
                points[b], probs[b], 0, center=x0s[b]
            )
            _assert_equivalent(stacked[b], reference)
        for pair, ref in reference_solve_all_pairs(
            points[0], probs[0], 0, center=x0s[0]
        ).items():
            assert (stacked[0][pair].result.weights.tobytes()
                    == ref.result.weights.tobytes())

    def test_batched_rounds_match_sequential_rounds(self):
        rng = np.random.default_rng(11)
        k, n, d, C = 4, 7, 5, 3
        points, probs, classes, centers = _random_problem(rng, k, n, d, C)
        samples = points[:, 1:, :]
        batched = run_solve_rounds_batched(
            points, probs, samples, classes, centers=centers
        )
        for b in range(k):
            single = run_solve_round(
                points[b], probs[b], samples[b], int(classes[b]),
                center=centers[b],
            )
            assert isinstance(batched[b], SolveRound)
            assert batched[b].target_class == single.target_class
            assert batched[b].certified == single.certified
            _assert_equivalent(batched[b].solutions, single.solutions)

    def test_empty_stack(self):
        assert solve_pair_systems_stacked(
            np.empty((0, 5, 3)), np.empty((0, 5, 2)), np.empty(0, dtype=int)
        ) == []

    def test_validation(self):
        rng = np.random.default_rng(0)
        points, probs, classes, centers = _random_problem(rng, 2, 6, 4, 3)
        with pytest.raises(ValidationError):
            solve_pair_systems_stacked(points[0], probs, classes)
        with pytest.raises(ValidationError):
            solve_pair_systems_stacked(points, probs[:, :4], classes)
        with pytest.raises(ValidationError):
            solve_pair_systems_stacked(points, probs, classes[:1])
        with pytest.raises(ValidationError):
            solve_pair_systems_stacked(points, probs, np.array([0, 3]))
        with pytest.raises(ValidationError):
            solve_pair_systems_stacked(
                points, probs, classes, centers=centers[:, :2]
            )
        with pytest.raises(ValidationError):
            solve_pair_systems_stacked(points, probs, classes, floor=0.0)
        with pytest.raises(ValidationError):
            solve_pair_systems_stacked(
                points[:, :3, :], probs[:, :3, :], classes
            )


class _OneClassAPI:
    """A degenerate service exposing a single class (no pairs exist)."""

    n_features = 3
    n_classes = 1
    query_count = 0

    def predict_proba(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.ones((X.shape[0], 1))


class TestZeroPairRegression:
    """A single-class API must be rejected with a clear ValidationError,
    not crash with ``ValueError: max() arg is an empty sequence``."""

    def test_interpret_rejects_single_class_api(self):
        with pytest.raises(ValidationError, match="at least 2 classes"):
            OpenAPIInterpreter(seed=0).interpret(
                _OneClassAPI(), np.zeros(3)
            )

    def test_interpret_batch_rejects_single_class_api(self):
        with pytest.raises(ValidationError, match="at least 2 classes"):
            BatchOpenAPIInterpreter(seed=0).interpret_batch(
                _OneClassAPI(), np.zeros((2, 3))
            )

    def test_worst_relative_residual_empty_round(self):
        round_ = SolveRound(
            points=np.zeros((2, 1)),
            probs=np.ones((2, 1)),
            samples=np.zeros((1, 1)),
            target_class=0,
            solutions={},
        )
        assert round_.worst_relative_residual == 0.0
        assert round_.n_pairs == 0


def _assert_bitwise(got_solutions, want_solutions):
    """Same pairs in the same order, every field bitwise equal."""
    assert list(got_solutions) == list(want_solutions)
    for pair, want in want_solutions.items():
        got = got_solutions[pair]
        assert (got.c, got.c_prime, got.certified) == (
            want.c, want.c_prime, want.certified
        )
        assert np.array_equal(got.result.weights, want.result.weights)
        assert np.array_equal(
            got.result.singular_values, want.result.singular_values
        )
        for field in (
            "intercept", "residual_norm", "relative_residual", "rank",
            "n_equations", "n_unknowns",
        ):
            assert getattr(got.result, field) == getattr(want.result, field)


class TestBatchInvariance:
    """Block ``b`` of a ``k``-stack is bitwise its lone (``k = 1``) solve.

    The fleet's bitwise identity rests on this: a region solved in any
    lock-step batch, on any process, must carry the exact bytes of the
    same instance solved alone.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_blocks_equal_lone_solves_bitwise(self, seed):
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(2, 7))
        n, d, C = [(12, 10, 3), (6, 4, 3), (16, 6, 5), (7, 5, 2)][seed % 4]
        noise = (0.0, 1e-3)[seed % 2]
        points, probs, classes, centers = _random_problem(
            rng, k, n, d, C, noise=noise
        )
        if seed == 5:
            # A rank-deficient block rides along: the lstsq fallback.
            points[1, :, -1] = centers[1, -1]
        samples = points[:, 1:, :]
        stacked = run_solve_rounds_batched(
            points, probs, samples, classes, centers=centers
        )
        for b in range(k):
            lone = run_solve_rounds_batched(
                points[b:b + 1], probs[b:b + 1], samples[b:b + 1],
                classes[b:b + 1], centers=centers[b:b + 1],
            )[0]
            got, want = stacked[b], lone
            assert got.certified == want.certified
            assert got.n_certified == want.n_certified
            assert got.worst_relative_residual == want.worst_relative_residual
            _assert_bitwise(got.solutions, want.solutions)

    def test_lazy_failed_round_reads_like_an_eager_one(self):
        """A round whose certificate fails reports the same verdicts
        from the engine's arrays as from its built ``solutions``."""
        rng = np.random.default_rng(21)
        points, probs, classes, centers = _random_problem(
            rng, 3, 8, 6, 4, noise=1e-3
        )
        rounds = run_solve_rounds_batched(
            points, probs, points[:, 1:], classes, centers=centers
        )
        for lazy in rounds:
            assert not lazy.certified
            eager = SolveRound(
                points=lazy.points,
                probs=lazy.probs,
                samples=lazy.samples,
                target_class=lazy.target_class,
                solutions=solve_all_pairs(
                    lazy.points, lazy.probs, lazy.target_class,
                    center=lazy.points[0],
                ),
            )
            # Verdicts first: they must not need the built solutions.
            assert lazy.n_certified == eager.n_certified
            assert lazy.n_pairs == eager.n_pairs
            assert lazy.worst_relative_residual == eager.worst_relative_residual
            assert lazy.certified == eager.certified
            _assert_bitwise(lazy.solutions, eager.solutions)
            assert lazy.solutions is lazy.solutions  # built once


class TestFloat32UpcastEquivalence:
    """Entering any hot layer with float32 gives the float64 answer."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_engine_entry(self, seed):
        points, probs, classes, centers = _random_problem(
            np.random.default_rng(seed), 3, 6, 4, 3, noise=1e-10
        )
        p32 = points.astype(np.float32)
        q32 = probs.astype(np.float32)
        c32 = centers.astype(np.float32)
        # float32 inputs are not the same real numbers as the float64
        # originals, so the oracle is the caller upcasting beforehand:
        # the engine's coercion must be equivalent to that, bitwise.
        out32 = solve_pair_systems_stacked(p32, q32, classes, centers=c32)
        ref = solve_pair_systems_stacked(
            p32.astype(np.float64),
            q32.astype(np.float64),
            classes,
            centers=c32.astype(np.float64),
        )
        for eng, exp in zip(out32, ref):
            assert eng.keys() == exp.keys()
            for pair in exp:
                assert np.array_equal(
                    eng[pair].result.weights, exp[pair].result.weights
                )
                assert eng[pair].certified == exp[pair].certified

    def test_cache_entry(self, relu_api, blobs3):
        x0 = blobs3.X[0]
        interp = OpenAPIInterpreter(seed=0).interpret(relu_api, x0)
        cache = RegionCache()
        assert cache.insert(interp)
        y0 = relu_api.predict_proba(x0)
        x32 = x0.astype(np.float32)
        y32 = y0.astype(np.float32)
        hit32 = cache.lookup(x32, y32, interp.target_class)
        ref = cache.lookup(
            x32.astype(np.float64), y32.astype(np.float64),
            interp.target_class,
        )
        assert hit32 is not None and ref is not None
        assert np.array_equal(hit32.decision_features, ref.decision_features)

    def test_store_entry(self, relu_api, blobs3, tmp_path):
        x0 = blobs3.X[0]
        interp = OpenAPIInterpreter(seed=0).interpret(relu_api, x0)
        store = TieredRegionStore(directory=tmp_path / "l2", fsync=False)
        assert store.insert(interp)
        y0 = relu_api.predict_proba(x0)
        x32 = x0.astype(np.float32)
        y32 = y0.astype(np.float32)
        hit32 = store.lookup(x32, y32, interp.target_class)
        ref = store.lookup(
            x32.astype(np.float64), y32.astype(np.float64),
            interp.target_class,
        )
        assert hit32 is not None and ref is not None
        assert np.array_equal(hit32.decision_features, ref.decision_features)
