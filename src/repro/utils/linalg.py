"""Affine linear-system solvers used by the OpenAPI closed-form solution.

Every interpretation in this library reduces to systems of the form

.. math::

    D^\\top x^i + B = t^i, \\qquad i = 0, \\ldots, n-1,

where the unknowns are the weight vector ``D`` (length ``d``) and the
intercept ``B``.  The paper builds two flavours:

* a *determined* system with ``n = d + 1`` equations (the naive method of
  Section IV-B), and
* an *overdetermined* system with ``n = d + 2`` equations (OpenAPI,
  Section IV-C) whose *consistency* acts as a probabilistic certificate that
  all sample points share one locally linear region.

Numerical care
--------------
OpenAPI shrinks the sampling hypercube geometrically, so the raw design
matrix ``[1 | X]`` becomes catastrophically ill-conditioned as the edge
length ``r`` goes to zero: all rows converge to ``[1 | x0]``.  We therefore
solve in *centered, scaled* coordinates ``u^i = (x^i - x_c) / s`` where
``x_c`` is the instance being interpreted and ``s`` is the spread of the
sample.  In those coordinates the design matrix stays O(1)-conditioned
regardless of ``r``, and the affine solution is mapped back exactly:

.. math::

    E = s \\cdot D, \\quad \\tilde B = B + D^\\top x_c
    \\;\\Longrightarrow\\;
    D = E / s, \\quad B = \\tilde B - D^\\top x_c.

The consistency certificate measures the residual against the *centered*
target norm ``||t - mean(t)||`` — the component of the targets that
actually determines the weights.  The obvious alternative (relative to
``||t||``) is subtly wrong for PLMs: a piecewise linear function is
continuous, so a sample that crossed into an adjacent region sits close to
the shared boundary and violates the equations by only ``O(r)`` — shrinking
the hypercube would eventually push that violation below any fixed
``||t||``-relative threshold *while the recovered weights stay wrong by
O(ΔD)*.  The centered norm also scales as ``O(r)``, which removes the
hypercube edge from the crossing signature and the certificate from
that false-accept mode.

The signature is *not* ``≈ |ΔD| / |D|`` in general, though: a crossing
sample's violation reaches the residual scaled by ``sqrt(1 - h_ii)``,
where ``h_ii`` is that sample's leverage in the ``(d+2) × (d+1)``
design.  A random hypercube design can leave one sample with
``1 - h_ii`` near zero, and then a crossing passes the certificate:
on the hypercube, instance 636 of ``perfbench``'s fixed fresh draw
certified at a relative residual of 5.1e-7, under the default ``rtol``
of 1e-6, with decision features 0.029 off the ground truth (pinned in
``perfbench/common.py`` as ``KNOWN_FALSE_CERTIFICATES``).

The interpreters therefore query a rotated regular simplex
(:func:`repro.core.sampling.simplex_directions`), on which every sample
has the same ``1 - h_ii = 1 / ((d + 1)(d + 2))``: each reaches the
residual with sensitivity ``1 / sqrt((d + 1)(d + 2))``, 1/sqrt(132) ≈
0.087 at ``d = 10``, and no sample is blind.  That narrows the
false-certificate hole; it does not close it.  Over 24,000 fresh
credit-scoring instances (three draws of 8,000,
``benchmarks/bench_ablation_query_cost.py``), the simplex certified 4
answers more than 1e-6 off the ground truth against 23 for the
hypercube, the worst 1.7e-4 off against 2.13.  The remaining errors
are shallow crossings: a sample so little past a boundary that its
violation, and the error it puts in ``D``, are a small fraction of the
round's signal, under ``rtol`` even at full sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "AffineLeastSquaresResult",
    "affine_design_matrix",
    "solve_affine_system",
    "solve_affine_least_squares",
    "solve_affine_ridge",
    "consistency_certificate",
    "is_full_rank",
]

#: Default relative-residual threshold for the consistency certificate.
#: With the centered-target denominator, consistent systems land at
#: ~1e-12 and region-crossing systems typically well above it, whatever
#: the hypercube edge.  A crossing sample of high leverage ``h_ii`` is
#: damped by ``sqrt(1 - h_ii)`` and can fall under this threshold; the
#: simplex design bounds that damping, but a shallow crossing can still
#: pass (see the module notes).
DEFAULT_CERTIFICATE_RTOL: float = 1e-6

#: Default absolute floor on the residual for the certificate.  Guards the
#: degenerate case where targets are identically zero.
DEFAULT_CERTIFICATE_ATOL: float = 1e-9


@dataclass(frozen=True)
class AffineLeastSquaresResult:
    """Solution of an affine least-squares problem plus diagnostics.

    Attributes
    ----------
    weights:
        Recovered weight vector ``D`` of length ``d``.
    intercept:
        Recovered intercept ``B``.
    residual_norm:
        Euclidean norm of ``M @ beta - t`` in the *scaled* coordinates
        actually solved (the certificate operates on this value).
    relative_residual:
        ``residual_norm`` measured against the centered target norm
        ``||t - mean(t)||``; see module docstring for why centering is
        load-bearing.
    rank:
        Numerical rank of the scaled design matrix.
    n_equations:
        Number of equations in the system.
    n_unknowns:
        Number of unknowns, always ``d + 1``.
    """

    weights: np.ndarray
    intercept: float
    residual_norm: float
    relative_residual: float
    rank: int
    n_equations: int
    n_unknowns: int
    singular_values: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))

    @property
    def is_overdetermined(self) -> bool:
        """True when the system has more equations than unknowns."""
        return self.n_equations > self.n_unknowns

    @property
    def condition_number(self) -> float:
        """2-norm condition number of the scaled design matrix."""
        sv = self.singular_values
        if sv.size == 0 or sv[-1] == 0.0:
            return float("inf")
        return float(sv[0] / sv[-1])

    def as_parameter_vector(self) -> np.ndarray:
        """Return ``[B, D_1, ..., D_d]`` as one vector (paper's beta)."""
        return np.concatenate(([self.intercept], self.weights))


def affine_design_matrix(points: np.ndarray) -> np.ndarray:
    """Build the paper's coefficient matrix ``A = [1 | X]``.

    ``points`` has one sample per row; the returned matrix prepends the
    all-ones column that multiplies the intercept ``B`` (matching the matrix
    ``A`` in Lemma 1 of the paper).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    return np.hstack([np.ones((n, 1)), points])


def _center_and_scale(
    points: np.ndarray, center: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Return (scaled offsets U, center, scale) for conditioning."""
    if center is None:
        center = points.mean(axis=0)
    offsets = points - center
    scale = float(np.max(np.abs(offsets)))
    if scale == 0.0 or not np.isfinite(scale):
        scale = 1.0
    return offsets / scale, center, scale


def solve_affine_least_squares(
    points: np.ndarray,
    targets: np.ndarray,
    *,
    center: np.ndarray | None = None,
) -> AffineLeastSquaresResult:
    """Least-squares solve of ``D^T x_i + B = t_i`` with conditioning care.

    Parameters
    ----------
    points:
        ``(n, d)`` array of sample points (rows).
    targets:
        Length-``n`` vector of right-hand sides, e.g. ``ln(y_c / y_c')``.
    center:
        Point to center the coordinates on; defaults to the sample mean.
        OpenAPI passes the instance being interpreted so the recovered
        intercept is exact even for microscopic hypercubes.

    Returns
    -------
    AffineLeastSquaresResult
        Solution plus residual/rank diagnostics.  For ``n = d + 2`` the
        ``relative_residual`` field drives the consistency certificate.
    """
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError(f"points must be 2-D, got shape {points.shape}")
    n, d = points.shape
    if targets.shape != (n,):
        raise ValidationError(
            f"targets must have shape ({n},) to match points, got {targets.shape}"
        )
    if n < d + 1:
        raise ValidationError(
            f"need at least d+1={d + 1} equations for d={d} features, got {n}"
        )
    if not np.all(np.isfinite(targets)):
        raise ValidationError("targets contain NaN or infinite entries")

    if center is not None:
        center = np.asarray(center, dtype=np.float64)
        if center.shape != (d,):
            raise ValidationError(f"center must have shape ({d},), got {center.shape}")

    scaled, center, scale = _center_and_scale(points, center)
    design = np.hstack([np.ones((n, 1)), scaled])

    beta, _, rank, sv = np.linalg.lstsq(design, targets, rcond=None)
    residual = design @ beta - targets
    residual_norm = float(np.linalg.norm(residual))
    # Centered target norm: the weight-determining signal (see module docs).
    denom = float(np.linalg.norm(targets - targets.mean()))
    relative = residual_norm / denom if denom > 0 else residual_norm

    weights = beta[1:] / scale
    intercept = float(beta[0] - weights @ center)
    return AffineLeastSquaresResult(
        weights=weights,
        intercept=intercept,
        residual_norm=residual_norm,
        relative_residual=float(relative),
        rank=int(rank),
        n_equations=n,
        n_unknowns=d + 1,
        singular_values=np.asarray(sv, dtype=np.float64),
    )


def solve_affine_system(
    points: np.ndarray,
    targets: np.ndarray,
    *,
    center: np.ndarray | None = None,
) -> AffineLeastSquaresResult:
    """Solve the *determined* ``(d+1) x (d+1)`` system of the naive method.

    Thin wrapper over :func:`solve_affine_least_squares` that additionally
    insists on exactly ``d + 1`` equations, mirroring the paper's
    :math:`\\Omega^{c,c'}_{d+1}`.  The determined system always "solves" (it
    is square and full-rank with probability 1 — Lemma 1), which is exactly
    why the naive method cannot detect region crossings; see Theorem 1.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError(f"points must be 2-D, got shape {points.shape}")
    n, d = points.shape
    if n != d + 1:
        raise ValidationError(
            f"the determined system needs exactly d+1={d + 1} equations, got {n}"
        )
    return solve_affine_least_squares(points, targets, center=center)


def solve_affine_ridge(
    points: np.ndarray,
    targets: np.ndarray,
    *,
    alpha: float = 1.0,
    sample_weight: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Ridge regression ``min ||X w + b - t||^2 + alpha ||w||^2``.

    The intercept is *not* penalized (the convention of common ridge
    implementations, and the behaviour the paper's Ridge Regression LIME
    baseline exhibits: with tiny perturbations the penalized weights shrink
    to zero and the fit collapses to a constant).

    Returns ``(weights, intercept)``.
    """
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError(f"points must be 2-D, got shape {points.shape}")
    n, d = points.shape
    if targets.shape != (n,):
        raise ValidationError(f"targets must have shape ({n},), got {targets.shape}")
    if alpha < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")

    if sample_weight is not None:
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
        if sample_weight.shape != (n,):
            raise ValidationError(
                f"sample_weight must have shape ({n},), got {sample_weight.shape}"
            )
        sqrt_w = np.sqrt(np.clip(sample_weight, 0.0, None))
    else:
        sqrt_w = np.ones(n)

    # Centering removes the intercept from the penalized problem: fit on
    # (weighted) centered data, recover b = mean(t) - w^T mean(x).
    w_total = float(sqrt_w @ sqrt_w)
    if w_total == 0.0:
        raise ValidationError("sample_weight sums to zero")
    x_mean = (sqrt_w**2 @ points) / w_total
    t_mean = float(sqrt_w**2 @ targets) / w_total
    xc = (points - x_mean) * sqrt_w[:, None]
    tc = (targets - t_mean) * sqrt_w

    gram = xc.T @ xc + alpha * np.eye(d)
    rhs = xc.T @ tc
    try:
        weights = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        weights = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    intercept = t_mean - float(weights @ x_mean)
    return weights, float(intercept)


def consistency_certificate(
    result: AffineLeastSquaresResult,
    *,
    rtol: float = DEFAULT_CERTIFICATE_RTOL,
    atol: float = DEFAULT_CERTIFICATE_ATOL,
) -> bool:
    """Decide whether an overdetermined system "has a solution".

    This is the floating-point realization of the paper's exact-arithmetic
    test "if :math:`\\Omega^{c,c'}_{d+2}` has a solution".  A system is
    accepted when its residual is at noise level:

    ``residual_norm <= atol  or  relative_residual <= rtol``.

    With exact region containment the relative residual sits at ~1e-12
    (rounding error of the log-odds over the centered-signal scale).  When
    a sample crossed a region boundary, the hypercube edge cancels (both
    the violation and the centered signal shrink linearly with it), but
    the sample's violation reaches the residual scaled by
    ``sqrt(1 - h_ii)``, its leverage ``h_ii`` in the design.  The residual
    is therefore ~|ΔD|/|D| only for a sample of moderate leverage; a
    sample with ``1 - h_ii`` near zero hides its crossing.  On the
    hypercube, instance 636 of ``perfbench``'s fresh draw certified
    falsely this way at a relative residual of 5.1e-7, under the default
    ``rtol`` of 1e-6.  The interpreters' simplex design gives every
    sample ``1 - h_ii = 1 / ((d + 1)(d + 2))`` (see the module notes).

    The ``atol`` floor covers the degenerate zero-signal case (all targets
    identical — a locally constant log-odds, i.e. ``D = 0``).
    """
    if not result.is_overdetermined:
        # A square full-rank system always has a (unique) solution; calling
        # this on it would silently accept anything, which is the naive
        # method's flaw — force callers to be explicit.
        raise ValidationError(
            "consistency certificate requires an overdetermined system; "
            f"got {result.n_equations} equations for {result.n_unknowns} unknowns"
        )
    if result.rank < result.n_unknowns:
        # Rank-deficient sample (probability 0 under continuous sampling):
        # the solution is not unique, so we cannot certify it.
        return False
    return result.residual_norm <= atol or result.relative_residual <= rtol


def is_full_rank(matrix: np.ndarray, *, rtol: float = 1e-10) -> bool:
    """Check numerical full (column) rank via singular values.

    Used by tests to verify Lemma 1: the coefficient matrix ``A`` of a
    hypercube sample is full-rank with probability 1.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got shape {matrix.shape}")
    if matrix.size == 0:
        return False
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv[0] == 0.0:
        return False
    return bool(sv[min(matrix.shape) - 1] > rtol * sv[0])
