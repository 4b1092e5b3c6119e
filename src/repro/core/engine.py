"""Batched solve engine: every pair system of every instance in one shot.

The closed-form solve at the heart of Algorithm 1 is pure local linear
algebra, and it is *embarrassingly batchable*: each instance contributes a
``(n, d+1)`` centered/scaled design matrix and a ``(n, C-1)`` multi-RHS
log-odds target block, and nothing couples the instances.  This module
stacks ``k`` such systems into 3-D tensors and solves them with one fused
batched pass:

1. stack designs ``A`` into ``(k, n, d+1)`` and targets ``T`` into
   ``(k, n, C-1)``;
2. form the normal equations ``G = AᵀA`` (``(k, d+1, d+1)``) and
   ``R = AᵀT`` (``(k, d+1, C-1)``) with two batched matmuls;
3. screen conditioning via one batched ``eigvalsh`` over the Gram stacks —
   well-conditioned blocks are solved together by one batched
   ``np.linalg.solve``, while ill-conditioned / rank-deficient blocks fall
   back to the per-block SVD ``lstsq`` path (bit-identical to the
   pre-engine reference, including its rank and singular-value
   diagnostics);
4. residual norms, centered-target denominators and certificate verdicts
   are computed vectorized over the whole ``(k, C-1)`` grid.

:func:`solve_stack` returns those verdicts as a :class:`StackedSolve`
and builds a block's per-pair result objects only on request: an
Algorithm-1 round is tiny (``d + 1`` unknowns) and usually fails its
certificate, so the pass keeps only the arithmetic whose values reach a
verdict or a payload.  :func:`solve_pair_systems_stacked` is the same
pass with every block's results built.

Because the shared design is centered on the interpreted instance and
scaled to unit spread (see :mod:`repro.utils.linalg`), the Gram matrices
stay O(1)-conditioned for arbitrarily small hypercube edges, so the
normal-equations path loses no accuracy where it is taken — and the
conditioning screen routes everything else to ``lstsq``.

Every solve path in the library funnels through this engine:
:func:`repro.core.equations.solve_all_pairs` and
:func:`repro.core.rounds.run_solve_round` (the sequential interpreter and
``interpret_all_classes``) call it with ``k = 1``;
:class:`repro.core.batch.BatchOpenAPIInterpreter` and the serving layer
call it with one block per active instance per lock-step round via
:func:`repro.core.rounds.run_solve_rounds_batched`.  Block ``b`` of a
``k``-stack is bitwise its lone solve.

:func:`reference_solve_all_pairs` preserves the pre-engine per-instance
implementation verbatim; the property suite pins the engine against it
(allclose parameters, identical certificate verdicts) and
``benchmarks/bench_solve_engine.py`` measures the speedup.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.equations import (
    DEFAULT_PROB_FLOOR,
    PairSystemSolution,
    pairwise_log_odds_targets,
)
from repro.exceptions import ValidationError
from repro.utils.linalg import (
    DEFAULT_CERTIFICATE_RTOL,
    AffineLeastSquaresResult,
    consistency_certificate,
    signal_resolution,
)

__all__ = [
    "StackedSolve",
    "solve_stack",
    "solve_pair_systems_stacked",
    "reference_solve_all_pairs",
    "GRAM_CONDITION_RTOL",
]

#: Conditioning screen for the normal-equations fast path: a block whose
#: Gram matrix has ``eig_min <= GRAM_CONDITION_RTOL² · eig_max`` (i.e. a
#: design condition number above ``1 / GRAM_CONDITION_RTOL``) is routed to
#: the per-block ``lstsq`` fallback.  The normal equations square the
#: design's condition number, and at the small edges where solves
#: certify the targets' rounding is about 1e-12 of their signal, so a
#: design past condition 100 loses digits the SVD keeps: clipped
#: uniform hypercubes at ``d = 64`` (condition 1e3–4e3) put decision
#: features up to 1.6e-5 off the ground truth through the fast path and
#: under 2e-8 through ``lstsq``.  The regular simplex sits at condition
#: 1.6–5.1 from ``d = 2`` to ``d = 784`` and always takes the fast path.
GRAM_CONDITION_RTOL: float = 1e-2


@functools.lru_cache(maxsize=None)
def _pair_columns(C: int) -> np.ndarray:
    """``(C, C)``: row ``c`` is ``c`` followed by every other class in
    ascending order — the log-odds columns of base class ``c``."""
    table = np.asarray(
        [[c, *(j for j in range(C) if j != c)] for c in range(C)],
        dtype=np.intp,
    )
    table.flags.writeable = False
    return table


class StackedSolve:
    """The outcome of one fused engine pass over ``k`` stacked blocks.

    Holds the verdict arrays (residual norms, relative residuals,
    certificate grid) and the solved parameters; the per-pair
    :class:`~repro.core.equations.PairSystemSolution` objects of a block
    are built only when :meth:`solutions` asks for them.  An
    Algorithm-1 round that fails its certificate is discarded after its
    verdict is read, so most blocks never pay for result objects.
    """

    __slots__ = (
        "target_classes", "others", "weights", "intercepts", "res_norms",
        "relatives", "certified_blocks", "_certified_grid", "_eigs",
        "_lstsq", "_n", "_d",
    )

    def __init__(
        self, *, target_classes, others, weights, intercepts, res_norms,
        relatives, certified_grid, eigs, lstsq, n, d,
    ):
        self.target_classes = target_classes
        self.others = others
        self.weights = weights            # (k, d, C-1)
        self.intercepts = intercepts      # (k, C-1)
        self.res_norms = res_norms        # (k, C-1)
        self.relatives = relatives        # (k, C-1)
        self._certified_grid = certified_grid
        #: Per block: every pair passed the certificate (host bools).
        self.certified_blocks: list[bool] = certified_grid.all(axis=1).tolist()
        self._eigs = eigs                 # (k, d+1) Gram eigenvalues
        self._lstsq = lstsq               # block -> (rank, singular values)
        self._n = n
        self._d = d

    def __len__(self) -> int:
        return len(self.certified_blocks)

    @property
    def n_pairs(self) -> int:
        return self.others.shape[1]

    def n_certified(self, b: int) -> int:
        """Pairs of block ``b`` that passed the certificate."""
        return int(np.count_nonzero(self._certified_grid[b]))

    def worst_relative_residual(self, b: int) -> float:
        """Largest relative residual of block ``b`` (0.0 without pairs)."""
        return float(max(self.relatives[b].tolist(), default=0.0))

    def solutions(self, b: int) -> dict[tuple[int, int], PairSystemSolution]:
        """Block ``b`` as ``(c, c') -> PairSystemSolution``, in ascending
        ``c'`` order (what :func:`solve_all_pairs` returns for it)."""
        if b in self._lstsq:
            rank, sv = self._lstsq[b]
        else:
            # Full rank; the Gram eigenvalues are the squared design
            # singular values.
            rank = self._d + 1
            sv = np.sqrt(np.clip(self._eigs[b, ::-1], 0.0, None))
        c = int(self.target_classes[b])
        w_rows = np.ascontiguousarray(self.weights[b].T)
        solutions: dict[tuple[int, int], PairSystemSolution] = {}
        for col, (c_prime, intercept, res, rel, certified) in enumerate(
            zip(
                self.others[b].tolist(),
                self.intercepts[b].tolist(),
                self.res_norms[b].tolist(),
                self.relatives[b].tolist(),
                self._certified_grid[b].tolist(),
            )
        ):
            result = AffineLeastSquaresResult(
                weights=w_rows[col],
                intercept=intercept,
                residual_norm=res,
                relative_residual=rel,
                rank=rank,
                n_equations=self._n,
                n_unknowns=self._d + 1,
                singular_values=sv,
            )
            solutions[(c, c_prime)] = PairSystemSolution(
                c=c, c_prime=c_prime, result=result, certified=certified
            )
        return solutions


def stacked_log_odds(
    probs: np.ndarray, target_classes: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """The pair targets of every block: ``(columns, targets_t)``.

    ``targets_t[b, j, i]`` is the log-odds of block ``b``'s target class
    against its ``j``-th other class (ascending, as
    :func:`~repro.core.equations.pairwise_log_odds_targets`) at point
    ``i``; ``columns`` is the ``(k, C)`` class order (target first).
    ``probs`` is ``(k, n, C)`` float64, ``target_classes`` ``(k,)``.
    """
    k, _, C = probs.shape
    columns = _pair_columns(C)[target_classes]                   # (k, C)
    # ``maximum`` is what ``clip`` with no upper bound computes.
    log_p = np.log(np.maximum(probs, floor))
    picked = log_p[np.arange(k)[:, None], :, columns]            # (k, C, n)
    return columns, picked[:, :1, :] - picked[:, 1:, :]          # (k, C-1, n)


def certificate_verdicts(
    res_norms: np.ndarray, targets_t: np.ndarray, *, rtol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Relative residuals and the certificate grid of ``(k, C-1)`` norms.

    The rule of :func:`~repro.utils.linalg.consistency_certificate`,
    vectorized: a pair passes when ``res / ||t - mean(t)|| <= rtol``.
    The relative residual is ``inf``, and the pair refused, where the
    centred target norm is at or under
    :func:`~repro.utils.linalg.signal_resolution` times the largest
    ``|t_i|``: a pair without signal.  ``targets_t`` is the
    ``(k, C-1, n)`` output of :func:`stacked_log_odds`.
    """
    # The mean and norm reduce over the innermost contiguous axis: the
    # per-column reference's summation order (see solve_stack).
    denoms = np.linalg.norm(
        targets_t - targets_t.mean(axis=2, keepdims=True), axis=2
    )
    floors = signal_resolution(targets_t.shape[2]) * np.abs(targets_t).max(
        axis=2, initial=0.0
    )
    relatives = np.divide(
        res_norms, denoms, out=np.full_like(res_norms, np.inf),
        where=denoms > floors,
    )
    return relatives, relatives <= rtol


def solve_pair_systems_stacked(
    points: np.ndarray,
    probs: np.ndarray,
    target_classes: np.ndarray,
    *,
    centers: np.ndarray | None = None,
    rtol: float = DEFAULT_CERTIFICATE_RTOL,
    floor: float = DEFAULT_PROB_FLOOR,
    check_certificate: bool = True,
) -> list[dict[tuple[int, int], PairSystemSolution]]:
    """Solve every class pair of every stacked instance in one fused pass.

    Parameters and raises as :func:`solve_stack`, which this wraps.

    Returns
    -------
    One ``(c, c') -> PairSystemSolution`` dict per instance, in input
    order — element ``i`` is exactly what
    :func:`repro.core.equations.solve_all_pairs` returns for block ``i``.
    """
    stack = solve_stack(
        points, probs, target_classes, centers=centers, rtol=rtol,
        floor=floor, check_certificate=check_certificate,
    )
    return [stack.solutions(b) for b in range(len(stack))]


def solve_stack(
    points: np.ndarray,
    probs: np.ndarray,
    target_classes: np.ndarray,
    *,
    centers: np.ndarray | None = None,
    rtol: float = DEFAULT_CERTIFICATE_RTOL,
    floor: float = DEFAULT_PROB_FLOOR,
    check_certificate: bool = True,
) -> StackedSolve:
    """Solve and certify every class pair of every stacked instance.

    Parameters
    ----------
    points:
        ``(k, n, d)`` equation points, one block per instance.
    probs:
        ``(k, n, C)`` matching API probability rows.
    target_classes:
        ``(k,)`` base class per instance (blocks may differ).
    centers:
        ``(k, d)`` centering points (the interpreted instances); ``None``
        centers each block on its sample mean.
    rtol:
        Consistency-certificate threshold.
    floor:
        Probability clamp for the log-odds transform.
    check_certificate:
        When false every solution reports ``certified=False`` (the naive
        determined-system path).

    Returns
    -------
    A :class:`StackedSolve`: the verdicts of every block, with the
    per-pair result objects built on demand.

    Raises
    ------
    ValidationError
        For mis-shaped ``points``/``probs``/``target_classes``/``centers``,
        out-of-range class indices, fewer than ``d + 1`` equations per
        block, or a non-positive ``floor``.

    Notes
    -----
    Complexity: :math:`O(k\\,(n (d+1)^2 + (d+1)^3 + n (d+1) C))` for the
    stacked Gram build, the batched factorizations (normal-equations
    ``solve`` plus the ``eigvalsh`` screen) and the multi-RHS
    back-substitution/residual grid — all issued as a constant number of
    batched LAPACK/BLAS calls regardless of ``k``, which is where the
    measured speedup over the per-instance reference loop comes from.
    Degenerate blocks add one per-block SVD ``lstsq``
    (:math:`O(n (d+1)^2)` each).
    """
    points = np.asarray(points, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    target_classes = np.asarray(target_classes, dtype=np.intp)
    if points.ndim != 3:
        raise ValidationError(f"points must be 3-D (k, n, d), got shape {points.shape}")
    k, n, d = points.shape
    if probs.ndim != 3 or probs.shape[:2] != (k, n):
        raise ValidationError(
            f"probs must be ({k}, {n}, C) to match points, got {probs.shape}"
        )
    C = probs.shape[2]
    if target_classes.shape != (k,):
        raise ValidationError(
            f"target_classes must have shape ({k},), got {target_classes.shape}"
        )
    bad = [c for c in target_classes.tolist() if not 0 <= c < C]
    if bad:
        raise ValidationError(f"class index {bad[0]} out of range [0, {C})")
    if k and n < d + 1:
        raise ValidationError(f"need at least d+1={d + 1} equations, got {n}")
    if floor <= 0:
        raise ValidationError(f"floor must be > 0, got {floor}")
    if centers is None:
        centers_arr = points.mean(axis=1)
    else:
        centers_arr = np.asarray(centers, dtype=np.float64)
        if centers_arr.shape != (k, d):
            raise ValidationError(
                f"centers must have shape ({k}, {d}), got {centers_arr.shape}"
            )

    columns, targets_t = stacked_log_odds(probs, target_classes, floor)
    targets = np.ascontiguousarray(targets_t.transpose(0, 2, 1))  # (k, n, C-1)

    # Stacked centered/scaled designs [1 | (x - center) / scale], filled
    # in place (same math as solve_all_pairs, vectorized over instances
    # as well as right-hand sides).
    design = np.empty((k, n, d + 1))
    design[:, :, 0] = 1.0
    offsets = design[:, :, 1:]
    np.subtract(points, centers_arr[:, None, :], out=offsets)
    scale = np.abs(offsets).max(axis=(1, 2))
    scale[(scale == 0.0) | ~np.isfinite(scale)] = 1.0
    np.divide(offsets, scale[:, None, None], out=offsets)

    design_t = np.swapaxes(design, -1, -2)
    gram = np.matmul(design_t, design)      # (k, d+1, d+1)
    rhs = np.matmul(design_t, targets)      # (k, d+1, C-1)

    # Conditioning screen: Gram eigenvalues are the squared design
    # singular values, one batched sweep for the whole stack.
    eigs = np.linalg.eigvalsh(gram)
    fast = eigs[:, 0] > (GRAM_CONDITION_RTOL**2) * eigs[:, -1]

    # Per degenerate block: the lstsq rank and singular values.
    lstsq: dict[int, tuple[int, np.ndarray]] = {}
    degenerate = [] if fast.all() else np.flatnonzero(~fast).tolist()
    if not degenerate:
        try:
            betas = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:  # pragma: no cover — screened above
            degenerate = list(range(k))
    if degenerate:
        betas = np.empty((k, d + 1, C - 1))
        if len(degenerate) < k:
            idx = np.flatnonzero(fast)
            betas[fast] = np.linalg.solve(gram[idx], rhs[idx])
    for b in degenerate:
        # Degenerate block: the SVD path reproduces the pre-engine
        # reference exactly, rank and singular values included.
        betas[b], _, rank_b, sv_b = np.linalg.lstsq(
            design[b], targets[b], rcond=None
        )
        lstsq[b] = (int(rank_b), np.asarray(sv_b, dtype=np.float64))

    residuals = design @ betas - targets
    # Norms and means reduce over the *innermost contiguous* axis of the
    # transposed copies so the pairwise summation order matches the
    # per-column reference exactly — otherwise a constant target column
    # can yield denom 0.0 on one path and ~1e-31 on the other, flipping
    # the zero-denominator branch of certificate_verdicts.
    residuals_t = np.ascontiguousarray(residuals.transpose(0, 2, 1))
    res_norms = np.linalg.norm(residuals_t, axis=2)  # (k, C-1)
    relatives, certified_grid = certificate_verdicts(
        res_norms, targets_t, rtol=rtol
    )
    weights = betas[:, 1:, :] / scale[:, None, None]                # (k, d, C-1)
    # The intercept recentering must match the reference dot order bitwise.
    intercepts = betas[:, 0, :] - np.einsum(
        "kd,kdp->kp", centers_arr, weights
    )

    if not (check_certificate and n > d + 1):
        # Determined systems (the naive method) carry no certificate.
        certified_grid[:] = False
    else:
        for b, (rank_b, _) in lstsq.items():
            if rank_b != d + 1:
                certified_grid[b] = False
    return StackedSolve(
        target_classes=target_classes,
        others=columns[:, 1:],
        weights=weights,
        intercepts=intercepts,
        res_norms=res_norms,
        relatives=relatives,
        certified_grid=certified_grid,
        eigs=eigs,
        lstsq=lstsq,
        n=n,
        d=d,
    )


def reference_solve_all_pairs(
    points: np.ndarray,
    probs: np.ndarray,
    c: int,
    *,
    center: np.ndarray | None = None,
    rtol: float = DEFAULT_CERTIFICATE_RTOL,
    floor: float = DEFAULT_PROB_FLOOR,
    check_certificate: bool = True,
) -> dict[tuple[int, int], PairSystemSolution]:
    """The pre-engine per-instance solve, preserved as the pinned reference.

    One ``lstsq`` multi-RHS solve per instance, plus a Python loop over
    pairs.  The property suite asserts the batched engine reproduces this
    implementation (allclose parameters and residuals, identical
    certificate verdicts); ``benchmarks/bench_solve_engine.py`` measures
    how much faster the fused path is.  Not a production path.

    Parameters
    ----------
    points, probs, c, center, rtol, floor, check_certificate:
        One instance's slice of the stacked inputs of
        :func:`solve_pair_systems_stacked` (``c`` is the scalar target
        class, ``center`` the single centering point).

    Returns
    -------
    ``(c, c') -> PairSystemSolution`` for every pair of ``c``.

    Raises
    ------
    ValidationError
        For mis-shaped ``points``/``probs``/``center`` or fewer than
        ``d + 1`` equations.

    Notes
    -----
    Complexity: :math:`O(n (d+1)^2 + n (d+1) C)` per call via one SVD
    ``lstsq`` — the same arithmetic as one engine block, but dispatched
    per instance from Python (the overhead the engine amortizes away).
    """
    points = np.asarray(points, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError(f"points must be 2-D, got shape {points.shape}")
    n, d = points.shape
    if probs.shape[0] != n:
        raise ValidationError(f"probs must have {n} rows, got {probs.shape[0]}")
    if n < d + 1:
        raise ValidationError(f"need at least d+1={d + 1} equations, got {n}")

    targets, pairs = pairwise_log_odds_targets(probs, c, floor=floor)

    if center is None:
        center_vec = points.mean(axis=0)
    else:
        center_vec = np.asarray(center, dtype=np.float64)
        if center_vec.shape != (d,):
            raise ValidationError(
                f"center must have shape ({d},), got {center_vec.shape}"
            )
    offsets = points - center_vec
    scale = float(np.max(np.abs(offsets)))
    if scale == 0.0 or not np.isfinite(scale):
        scale = 1.0
    design = np.hstack([np.ones((n, 1)), offsets / scale])

    betas, _, rank, sv = np.linalg.lstsq(design, targets, rcond=None)
    residuals = design @ betas - targets
    overdetermined = n > d + 1

    solutions: dict[tuple[int, int], PairSystemSolution] = {}
    for col, pair in enumerate(pairs):
        beta = betas[:, col]
        res_norm = float(np.linalg.norm(residuals[:, col]))
        denom = float(np.linalg.norm(targets[:, col] - targets[:, col].mean()))
        resolution = signal_resolution(n) * float(
            np.abs(targets[:, col]).max()
        )
        relative = res_norm / denom if denom > resolution else float("inf")
        weights = beta[1:] / scale
        intercept = float(beta[0] - weights @ center_vec)
        result = AffineLeastSquaresResult(
            weights=weights,
            intercept=intercept,
            residual_norm=res_norm,
            relative_residual=float(relative),
            rank=int(rank),
            n_equations=n,
            n_unknowns=d + 1,
            singular_values=np.asarray(sv, dtype=np.float64),
        )
        certified = bool(
            overdetermined
            and check_certificate
            and consistency_certificate(result, rtol=rtol)
        )
        solutions[pair] = PairSystemSolution(
            c=pair[0], c_prime=pair[1], result=result, certified=certified
        )
    return solutions
