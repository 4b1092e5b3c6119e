"""Linear equation systems over API responses (Equations 2-3).

Inside one locally linear region the softmax log-odds are affine:

.. math::

    \\ln(y_c / y_{c'}) = D_{c,c'}^\\top x + B_{c,c'}.

Each queried instance therefore contributes one linear equation per class
pair.  This module turns ``(points, probabilities)`` into those systems;
the actual solves are delegated to the fused batched engine
(:mod:`repro.core.engine`): the design matrix ``[1 | X]`` is identical
across pairs, only the right-hand sides differ, so one normal-equations
factorization — :math:`O((d+2)^3)` — covers all ``C-1`` right-hand sides
at :math:`O((d+2)^2)` each, making a shrink iteration
:math:`O((d+2)^3 + C (d+2)^2)` per instance rather than the naive
:math:`O(C (d+2)^3)`; the engine additionally stacks ``k`` instances into
one batched pass so a lock-step round costs ``k`` of those in fused
LAPACK sweeps instead of ``k`` Python-level solver calls.

Softmax saturation
------------------
When a probability underflows to exactly 0.0 the log-odds are infinite and
no finite linear system exists.  ``prob_floor`` clamps probabilities away
from zero before taking logs; the clamped equations are then *wrong* (the
true log-odds are larger), which surfaces as a large residual and a failed
certificate rather than a silently wrong interpretation — the honest
realization of the saturation issue the paper discusses in Section V-D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.linalg import (
    DEFAULT_CERTIFICATE_RTOL,
    AffineLeastSquaresResult,
)

__all__ = [
    "DEFAULT_PROB_FLOOR",
    "log_odds",
    "pairwise_log_odds_targets",
    "build_pair_system",
    "solve_all_pairs",
    "PairSystemSolution",
]

#: Probabilities are clamped to at least this before taking logarithms.
#: float64 softmax underflows around exp(-745); the floor keeps equations
#: finite while leaving genuine saturation detectable via the certificate.
DEFAULT_PROB_FLOOR: float = 1e-300


def log_odds(
    probs: np.ndarray, c: int, c_prime: int, *, floor: float = DEFAULT_PROB_FLOOR
) -> np.ndarray:
    """``ln(y_c / y_c')`` for a batch of probability vectors.

    Parameters
    ----------
    probs:
        ``(n, C)`` probability rows (or a single length-``C`` vector).
    floor:
        Clamp for zero/underflowed probabilities; see module docstring.
    """
    probs = np.asarray(probs, dtype=np.float64)
    single = probs.ndim == 1
    if single:
        probs = probs[None, :]
    if probs.ndim != 2:
        raise ValidationError(f"probs must be 1-D or 2-D, got shape {probs.shape}")
    C = probs.shape[1]
    for idx in (c, c_prime):
        if not 0 <= idx < C:
            raise ValidationError(f"class index {idx} out of range [0, {C})")
    if c == c_prime:
        raise ValidationError("c and c_prime must differ")
    if floor <= 0:
        raise ValidationError(f"floor must be > 0, got {floor}")
    clipped = np.clip(probs, floor, None)
    out = np.log(clipped[:, c]) - np.log(clipped[:, c_prime])
    return out[0] if single else out


def pairwise_log_odds_targets(
    probs: np.ndarray, c: int, *, floor: float = DEFAULT_PROB_FLOOR
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Log-odds targets of class ``c`` against every other class.

    Returns
    -------
    (targets, pairs):
        ``targets`` is ``(n, C-1)`` with one column per pair; ``pairs`` is
        the matching list of ``(c, c')`` tuples in ascending ``c'`` order.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValidationError(f"probs must be 2-D, got shape {probs.shape}")
    C = probs.shape[1]
    if not 0 <= c < C:
        raise ValidationError(f"class index {c} out of range [0, {C})")
    if floor <= 0:
        raise ValidationError(f"floor must be > 0, got {floor}")
    log_p = np.log(np.clip(probs, floor, None))
    others = [c_prime for c_prime in range(C) if c_prime != c]
    targets = log_p[:, [c]] - log_p[:, others]
    pairs = [(c, c_prime) for c_prime in others]
    return targets, pairs


def build_pair_system(
    points: np.ndarray,
    probs: np.ndarray,
    c: int,
    c_prime: int,
    *,
    floor: float = DEFAULT_PROB_FLOOR,
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize one pair's system ``(points, targets)`` (Equation 3).

    Mostly useful for tests and didactic code; :func:`solve_all_pairs` is
    the efficient production path.
    """
    points = np.asarray(points, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if points.ndim != 2 or probs.ndim != 2:
        raise ValidationError("points and probs must be 2-D")
    if points.shape[0] != probs.shape[0]:
        raise ValidationError(
            f"points has {points.shape[0]} rows, probs has {probs.shape[0]}"
        )
    targets = log_odds(probs, c, c_prime, floor=floor)
    return points, targets


@dataclass(frozen=True)
class PairSystemSolution:
    """Solution of one pair's system plus its certificate verdict."""

    c: int
    c_prime: int
    result: AffineLeastSquaresResult
    certified: bool


def solve_all_pairs(
    points: np.ndarray,
    probs: np.ndarray,
    c: int,
    *,
    center: np.ndarray | None = None,
    rtol: float = DEFAULT_CERTIFICATE_RTOL,
    floor: float = DEFAULT_PROB_FLOOR,
    check_certificate: bool = True,
) -> dict[tuple[int, int], PairSystemSolution]:
    """Solve every pair ``(c, c')`` over one shared sample set.

    A thin single-instance entry into the fused batched engine
    (:func:`repro.core.engine.solve_pair_systems_stacked`): the design is
    built once (centered on ``center``, scaled — see
    :mod:`repro.utils.linalg`) and all ``C-1`` right-hand sides share one
    normal-equations factorization, with an SVD ``lstsq`` fallback for
    degenerate sample sets.  When ``check_certificate`` is true and the
    system is overdetermined, each pair's residual is tested against the
    consistency certificate; determined systems (the naive method) skip
    the test and report ``certified=False``.

    Returns
    -------
    dict mapping ``(c, c')`` to :class:`PairSystemSolution`.
    """
    from repro.core.engine import solve_pair_systems_stacked

    points_s, probs_s, classes, centers = single_instance_stack(
        points, probs, c, center
    )
    return solve_pair_systems_stacked(
        points_s,
        probs_s,
        classes,
        centers=centers,
        rtol=rtol,
        floor=floor,
        check_certificate=check_certificate,
    )[0]


def single_instance_stack(
    points: np.ndarray,
    probs: np.ndarray,
    c: int,
    center: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """One instance's solve inputs, checked and shaped as a ``k = 1``
    engine stack ``(points, probs, target_classes, centers)``.

    Raises
    ------
    ValidationError
        For mis-shaped ``points``/``probs``/``center``, fewer than
        ``d + 1`` equations, or an out-of-range class ``c``.
    """
    points = np.asarray(points, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError(f"points must be 2-D, got shape {points.shape}")
    n, d = points.shape
    if probs.ndim != 2 or probs.shape[0] != n:
        raise ValidationError(f"probs must have {n} rows, got {probs.shape[0]}")
    if n < d + 1:
        raise ValidationError(f"need at least d+1={d + 1} equations, got {n}")
    C = probs.shape[1]
    if not 0 <= c < C:
        raise ValidationError(f"class index {c} out of range [0, {C})")

    if center is None:
        centers = None
    else:
        center_vec = np.asarray(center, dtype=np.float64)
        if center_vec.shape != (d,):
            raise ValidationError(
                f"center must have shape ({d},), got {center_vec.shape}"
            )
        centers = center_vec[None, :]
    return points[None, :, :], probs[None, :, :], np.asarray([c]), centers
