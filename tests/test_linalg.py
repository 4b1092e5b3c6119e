"""Tests for the affine solver toolkit (repro.utils.linalg)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.utils.linalg import (
    AffineLeastSquaresResult,
    affine_design_matrix,
    consistency_certificate,
    is_full_rank,
    solve_affine_least_squares,
    solve_affine_ridge,
    solve_affine_system,
)


def _affine_data(rng, n, d, scale=1.0):
    """Random affine ground truth plus exact targets."""
    weights = rng.normal(size=d)
    intercept = float(rng.normal())
    points = rng.uniform(-scale, scale, size=(n, d))
    targets = points @ weights + intercept
    return points, targets, weights, intercept


class TestAffineDesignMatrix:
    def test_prepends_ones_column(self):
        pts = np.arange(6, dtype=float).reshape(3, 2)
        A = affine_design_matrix(pts)
        assert A.shape == (3, 3)
        assert np.all(A[:, 0] == 1.0)
        assert np.array_equal(A[:, 1:], pts)

    def test_rejects_non_2d(self):
        with pytest.raises(ValidationError):
            affine_design_matrix(np.ones(3))


class TestSolveAffineLeastSquares:
    def test_exact_recovery_determined(self):
        rng = np.random.default_rng(0)
        pts, t, w, b = _affine_data(rng, 5, 4)
        res = solve_affine_least_squares(pts, t)
        np.testing.assert_allclose(res.weights, w, atol=1e-10)
        assert res.intercept == pytest.approx(b, abs=1e-10)

    def test_exact_recovery_overdetermined(self):
        rng = np.random.default_rng(1)
        pts, t, w, b = _affine_data(rng, 9, 4)
        res = solve_affine_least_squares(pts, t)
        np.testing.assert_allclose(res.weights, w, atol=1e-10)
        assert res.relative_residual < 1e-12

    def test_tiny_neighborhood_stays_conditioned(self):
        """Solving around a far-away center with r=1e-9 must stay exact.

        Targets are built from the offsets directly (``t = U @ w + const``)
        so the *test data* carries no cancellation error; any error in the
        recovered weights is then attributable to the solver.
        """
        rng = np.random.default_rng(2)
        d = 6
        center = rng.uniform(5, 10, size=d)
        w = rng.normal(size=d)
        pts = center + rng.uniform(-1e-9, 1e-9, size=(d + 2, d))
        # Targets must correspond to the representable (rounded) points —
        # exactly what a real API responds to — so build them from the
        # post-rounding offsets.
        const = float(center @ w) + 3.0
        t = (pts - center) @ w + const
        res = solve_affine_least_squares(pts, t, center=center)
        # Float64 targets of magnitude ~10 carry a 1e-9 signal with at best
        # ~1e-6 relative precision (eps * |t| / signal); 1e-4 therefore
        # certifies the solver adds no error of its own.  A naive solve on
        # the raw design [1 | X] fails this completely (cond ~ 1e10).
        np.testing.assert_allclose(res.weights, w, rtol=1e-4)
        # relative_residual is measured against the centered target norm
        # (itself ~1e-9 here) while the absolute residual sits at the
        # lstsq noise floor ~1e-14: the ratio ~1e-5 correctly exceeds the
        # certificate rtol — at this extreme scale float64 cannot certify
        # exactness, and the certificate is deliberately conservative.
        assert res.residual_norm < 1e-12
        assert 1e-9 < res.relative_residual < 1e-3
        # The recovered affine function must reproduce the targets exactly
        # even though the naive design [1 | X] would be singular here.
        np.testing.assert_allclose(pts @ res.weights + res.intercept, t, rtol=1e-12)

    def test_residual_nonzero_for_inconsistent_system(self):
        rng = np.random.default_rng(3)
        pts, t, _, _ = _affine_data(rng, 8, 4)
        t = t.copy()
        t[-1] += 1.0  # break one equation
        res = solve_affine_least_squares(pts, t)
        assert res.relative_residual > 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            solve_affine_least_squares(np.ones((5, 3)), np.ones(4))

    def test_underdetermined_rejected(self):
        with pytest.raises(ValidationError):
            solve_affine_least_squares(np.ones((3, 4)), np.ones(3))

    def test_nan_targets_rejected(self):
        pts = np.random.default_rng(4).uniform(size=(5, 3))
        t = np.array([1.0, 2.0, np.nan, 0.0, 1.0])
        with pytest.raises(ValidationError):
            solve_affine_least_squares(pts, t)

    def test_bad_center_shape_rejected(self):
        rng = np.random.default_rng(5)
        pts, t, _, _ = _affine_data(rng, 5, 3)
        with pytest.raises(ValidationError):
            solve_affine_least_squares(pts, t, center=np.zeros(2))

    def test_result_metadata(self):
        rng = np.random.default_rng(6)
        pts, t, _, _ = _affine_data(rng, 7, 4)
        res = solve_affine_least_squares(pts, t)
        assert res.n_equations == 7
        assert res.n_unknowns == 5
        assert res.is_overdetermined
        assert res.rank == 5
        assert res.condition_number >= 1.0
        assert res.as_parameter_vector().shape == (5,)
        assert res.as_parameter_vector()[0] == res.intercept

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(1, 8),
        extra=st.integers(0, 3),
    )
    def test_property_exact_recovery(self, seed, d, extra):
        """Any consistent affine system is recovered to rounding error."""
        rng = np.random.default_rng(seed)
        pts, t, w, b = _affine_data(rng, d + 1 + extra, d)
        res = solve_affine_least_squares(pts, t)
        np.testing.assert_allclose(res.weights, w, atol=1e-7, rtol=1e-7)
        assert res.intercept == pytest.approx(b, abs=1e-7, rel=1e-7)


class TestSolveAffineSystem:
    def test_requires_exactly_d_plus_one(self):
        rng = np.random.default_rng(7)
        pts, t, _, _ = _affine_data(rng, 6, 4)
        with pytest.raises(ValidationError):
            solve_affine_system(pts, t)

    def test_determined_solve(self):
        rng = np.random.default_rng(8)
        pts, t, w, b = _affine_data(rng, 5, 4)
        res = solve_affine_system(pts, t)
        np.testing.assert_allclose(res.weights, w, atol=1e-9)
        assert not res.is_overdetermined


class TestConsistencyCertificate:
    def test_accepts_consistent(self):
        rng = np.random.default_rng(9)
        pts, t, _, _ = _affine_data(rng, 8, 4)
        res = solve_affine_least_squares(pts, t)
        assert consistency_certificate(res)

    def test_rejects_inconsistent(self):
        rng = np.random.default_rng(10)
        pts, t, _, _ = _affine_data(rng, 8, 4)
        t = t.copy()
        t[0] += 0.5
        res = solve_affine_least_squares(pts, t)
        assert not consistency_certificate(res)

    def test_refuses_determined_systems(self):
        """The naive method's flaw: a square system always 'has a solution'."""
        rng = np.random.default_rng(11)
        pts, t, _, _ = _affine_data(rng, 5, 4)
        res = solve_affine_system(pts, t)
        with pytest.raises(ValidationError):
            consistency_certificate(res)

    def test_rejects_rank_deficient(self):
        # Duplicate points make the design rank-deficient.
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        t = np.array([0.0, 2.0, 2.0, 2.0])
        res = solve_affine_least_squares(pts, t)
        assert not consistency_certificate(res)

    def test_zero_signal_refused(self):
        """Constant targets (zero, or any value whose centring leaves
        only rounding) carry no signal: never certified as ``D = 0``."""
        rng = np.random.default_rng(12)
        pts = rng.uniform(size=(7, 4))
        for value in (0.0, 0.1, -3.7, 1e6):
            res = solve_affine_least_squares(pts, np.full(7, value))
            assert res.relative_residual == np.inf
            assert not consistency_certificate(res)

    def test_tiny_signal_still_certified(self):
        """The refusal is relative to the targets' own magnitude: an
        exact affine signal of size 1e-12 certifies."""
        rng = np.random.default_rng(16)
        pts = rng.uniform(-1e-12, 1e-12, size=(7, 4))
        res = solve_affine_least_squares(pts, pts @ rng.normal(size=4))
        assert res.relative_residual < 1e-10
        assert consistency_certificate(res)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 6))
    def test_property_separates_consistent_from_broken(self, seed, d):
        rng = np.random.default_rng(seed)
        pts, t, _, _ = _affine_data(rng, d + 2, d)
        good = solve_affine_least_squares(pts, t)
        assert consistency_certificate(good)
        t_bad = t.copy()
        t_bad[rng.integers(0, d + 2)] += 1.0 + abs(rng.normal())
        bad = solve_affine_least_squares(pts, t_bad)
        assert not consistency_certificate(bad)


class TestSolveAffineRidge:
    def test_zero_alpha_matches_ols(self):
        rng = np.random.default_rng(13)
        pts, t, w, b = _affine_data(rng, 20, 4)
        weights, intercept = solve_affine_ridge(pts, t, alpha=0.0)
        np.testing.assert_allclose(weights, w, atol=1e-8)
        assert intercept == pytest.approx(b, abs=1e-8)

    def test_large_alpha_shrinks_weights_not_intercept(self):
        """The Ridge-LIME pathology: weights vanish, intercept survives."""
        rng = np.random.default_rng(14)
        pts, t, w, _ = _affine_data(rng, 30, 4, scale=1e-6)
        weights, intercept = solve_affine_ridge(pts, t, alpha=1.0)
        assert np.linalg.norm(weights) < 1e-3 * np.linalg.norm(w)
        assert intercept == pytest.approx(float(t.mean()), abs=1e-3)

    def test_sample_weights_focus_fit(self):
        rng = np.random.default_rng(15)
        pts = rng.uniform(-1, 1, size=(40, 2))
        # Two different affine regimes; weight only the first half.
        t = np.where(pts[:, 0] > 0, pts @ [1.0, 0.0], pts @ [0.0, 5.0])
        sw = (pts[:, 0] > 0).astype(float)
        weights, _ = solve_affine_ridge(pts, t, alpha=1e-8, sample_weight=sw)
        np.testing.assert_allclose(weights, [1.0, 0.0], atol=1e-6)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            solve_affine_ridge(np.ones((3, 2)), np.ones(3), alpha=-1.0)

    def test_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            solve_affine_ridge(
                np.ones((3, 2)), np.ones(3), sample_weight=np.zeros(3)
            )


class TestIsFullRank:
    def test_identity_full_rank(self):
        assert is_full_rank(np.eye(4))

    def test_duplicate_rows_not_full_rank(self):
        m = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert not is_full_rank(m)

    def test_empty_matrix(self):
        assert not is_full_rank(np.empty((0, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            is_full_rank(np.ones(3))
