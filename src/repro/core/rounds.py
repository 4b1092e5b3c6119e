"""One solve-and-certify round, shared by every Algorithm-1 driver.

Algorithm 1 has exactly one compute-heavy step per shrink iteration: take
the queried ``(points, probabilities)``, solve every class pair's linear
system over them, and check all certificates.  Three callers need that
step and must agree on it bit for bit:

* :class:`~repro.core.openapi.OpenAPIInterpreter` — sequential shrinking;
* :class:`~repro.core.batch.BatchOpenAPIInterpreter` — lock-step batches;
* :meth:`~repro.core.openapi.OpenAPIInterpreter.interpret_all_classes` —
  re-solving one certified sample set for every base class *without* new
  API queries (the whole point of Theorem 2's region-wide validity).

This module is that step.  :func:`run_solve_round` (one instance) and
:func:`run_solve_rounds_batched` (a whole stack of instances) both run one
fused engine pass (:func:`repro.core.engine.solve_stack`) and wrap each
block into a :class:`SolveRound` that retains the inputs (so a certified
round can be re-solved for another target class, or audited later).  A
round reads its verdicts straight from the engine's arrays; the per-pair
result objects are built only when a caller reads ``solutions`` — in
practice only for the round that certifies.  :func:`build_interpretation`
is the one place a certified round becomes an
:class:`~repro.core.types.Interpretation`.

On the interpreters' simplex design (:func:`repro.core.sampling.simplex_directions`)
most rounds never reach the engine: :func:`screen_simplex_rounds` computes
every pair's least-squares residual in closed form and rejects the rounds
whose certificate must fail.  Only the rounds it passes are solved, and
the engine's verdict on them is the only one that accepts.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import ArrayBackend
from repro.core.engine import (
    StackedSolve,
    certificate_verdicts,
    solve_stack,
    stacked_log_odds,
)
from repro.core.equations import (
    DEFAULT_PROB_FLOOR,
    PairSystemSolution,
    single_instance_stack,
)
from repro.core.types import CoreParameterEstimate, Interpretation
from repro.exceptions import ValidationError
from repro.utils.linalg import DEFAULT_CERTIFICATE_ATOL, DEFAULT_CERTIFICATE_RTOL

__all__ = [
    "SimplexScreen",
    "SolveRound",
    "run_solve_round",
    "run_solve_rounds_batched",
    "build_interpretation",
    "screen_simplex_rounds",
]


class SolveRound:
    """Everything one solve-and-certify iteration produced.

    Attributes
    ----------
    points:
        The ``(d + 2, d)`` equation points: ``x0`` first, samples after.
    probs:
        The matching ``(d + 2, C)`` API probability rows.
    samples:
        The ``(d + 1, d)`` perturbed instances (``points`` minus ``x0``).
    target_class:
        The base class ``c`` the pairs were solved against.
    solutions:
        ``(c, c') -> PairSystemSolution`` for every pair.

    A round made by :func:`run_solve_round` or
    :func:`run_solve_rounds_batched` reads its verdicts (``certified``,
    ``n_certified``, ``worst_relative_residual``) from the engine's
    arrays and builds ``solutions`` on first access: most rounds fail
    their certificate and are dropped unread.  A round constructed with
    an explicit ``solutions`` dict reads everything from that dict.
    """

    __slots__ = (
        "points", "probs", "samples", "target_class", "_solutions",
        "_stack", "_block",
    )

    def __init__(
        self,
        points: np.ndarray,
        probs: np.ndarray,
        samples: np.ndarray,
        target_class: int,
        solutions: dict[tuple[int, int], PairSystemSolution],
    ):
        self.points = points
        self.probs = probs
        self.samples = samples
        self.target_class = target_class
        self._solutions: dict | None = solutions
        self._stack: StackedSolve | None = None
        self._block = 0

    @classmethod
    def _of_block(
        cls,
        stack: StackedSolve,
        block: int,
        points: np.ndarray,
        probs: np.ndarray,
        samples: np.ndarray,
    ) -> "SolveRound":
        """Block ``block`` of an engine pass, results built on demand."""
        round_ = cls(
            points, probs, samples, int(stack.target_classes[block]), None
        )
        round_._stack = stack
        round_._block = block
        return round_

    @property
    def solutions(self) -> dict[tuple[int, int], PairSystemSolution]:
        if self._solutions is None:
            self._solutions = self._stack.solutions(self._block)
        return self._solutions

    @property
    def certified(self) -> bool:
        """True when every pair passed the consistency certificate."""
        if self._stack is not None:
            return self._stack.certified_blocks[self._block]
        return self.n_certified == self.n_pairs

    @property
    def n_certified(self) -> int:
        if self._stack is not None:
            return self._stack.n_certified(self._block)
        return sum(sol.certified for sol in self._solutions.values())

    @property
    def n_pairs(self) -> int:
        if self._stack is not None:
            return self._stack.n_pairs
        return len(self._solutions)

    @property
    def worst_relative_residual(self) -> float:
        """Largest relative residual across pairs (certificate input).

        0.0 when the round has no pairs (a single-class API reaches here
        only through defensive paths — the interpreters reject
        ``n_classes < 2`` at entry — but ``max()`` over an empty sequence
        must never crash a diagnostics read).
        """
        if self._stack is not None:
            return self._stack.worst_relative_residual(self._block)
        return float(
            max(
                (sol.result.relative_residual
                 for sol in self._solutions.values()),
                default=0.0,
            )
        )

    def pair_estimates(self) -> dict[tuple[int, int], CoreParameterEstimate]:
        """The solutions as result-layer core-parameter estimates."""
        return {
            pair: CoreParameterEstimate(
                c=sol.c,
                c_prime=sol.c_prime,
                weights=sol.result.weights,
                intercept=sol.result.intercept,
                residual=sol.result.relative_residual,
                certified=sol.certified,
            )
            for pair, sol in self.solutions.items()
        }


def run_solve_round(
    points: np.ndarray,
    probs: np.ndarray,
    samples: np.ndarray,
    target_class: int,
    *,
    center: np.ndarray | None = None,
    rtol: float = DEFAULT_CERTIFICATE_RTOL,
    atol: float = DEFAULT_CERTIFICATE_ATOL,
    floor: float = DEFAULT_PROB_FLOOR,
    backend: ArrayBackend | None = None,
) -> SolveRound:
    """Solve and certify all pairs of ``target_class`` over one sample set.

    Pure local linear algebra — no API access.  Re-invoking on the same
    ``(points, probs)`` with another ``target_class`` yields that class's
    exact per-pair solves (and residuals) for free, which is how
    ``interpret_all_classes`` prices ``C`` interpretations at one query
    budget.  The round is the ``k = 1`` case of the engine pass of
    :func:`run_solve_rounds_batched`, with the checks of
    :func:`~repro.core.equations.solve_all_pairs`.
    """
    points_s, probs_s, classes, centers = single_instance_stack(
        points, probs, target_class, center
    )
    stack = solve_stack(
        points_s, probs_s, classes, centers=centers,
        rtol=rtol, atol=atol, floor=floor, backend=backend,
    )
    return SolveRound._of_block(stack, 0, points, probs, samples)


def run_solve_rounds_batched(
    points: np.ndarray,
    probs: np.ndarray,
    samples: np.ndarray,
    target_classes: np.ndarray,
    *,
    centers: np.ndarray | None = None,
    rtol: float = DEFAULT_CERTIFICATE_RTOL,
    atol: float = DEFAULT_CERTIFICATE_ATOL,
    floor: float = DEFAULT_PROB_FLOOR,
    backend: ArrayBackend | None = None,
) -> list[SolveRound]:
    """Solve and certify a whole stack of instances in one engine pass.

    Parameters
    ----------
    points:
        ``(k, n, d)`` equation points, one block per instance (``x0``
        first, samples after).
    probs:
        ``(k, n, C)`` matching API probability rows.
    samples:
        ``(k, n - 1, d)`` perturbed instances per block.
    target_classes:
        ``(k,)`` base class per instance.
    centers:
        ``(k, d)`` centering points (normally the interpreted instances).
    backend:
        The engine's array backend, as :func:`~repro.core.engine.solve_stack`
        (the interpreters pass the one they resolved at construction).

    Returns
    -------
    One :class:`SolveRound` per instance, in input order — element ``i``
    equals ``run_solve_round(points[i], probs[i], ...)`` (the two paths
    share the engine).
    """
    stack = solve_stack(
        points,
        probs,
        target_classes,
        centers=centers,
        rtol=rtol,
        atol=atol,
        floor=floor,
        backend=backend,
    )
    return [
        SolveRound._of_block(stack, i, points[i], probs[i], samples[i])
        for i in range(len(stack))
    ]


class SimplexScreen:
    """The closed-form certificate of ``k`` simplex rounds (see
    :func:`screen_simplex_rounds`).

    Attributes
    ----------
    res_norms, relatives:
        ``(k, C-1)`` residual norms and relative residuals, the values
        the engine's ``StackedSolve`` would report for the same blocks.
    certified_grid:
        ``(k, C-1)`` certificate verdict per pair.
    passed:
        ``(k,)`` host bools: every pair of the block passed.
    """

    __slots__ = ("res_norms", "relatives", "certified_grid", "passed")

    def __init__(self, res_norms, relatives, certified_grid):
        self.res_norms = res_norms
        self.relatives = relatives
        self.certified_grid = certified_grid
        self.passed: list[bool] = certified_grid.all(axis=1).tolist()

    def n_certified(self, b: int) -> int:
        """Pairs of block ``b`` that passed."""
        return int(np.count_nonzero(self.certified_grid[b]))

    def worst_relative_residual(self, b: int) -> float:
        """Largest relative residual of block ``b`` (0.0 without pairs)."""
        return float(max(self.relatives[b].tolist(), default=0.0))


def screen_simplex_rounds(
    probs: np.ndarray,
    target_classes: np.ndarray,
    *,
    rtol: float = DEFAULT_CERTIFICATE_RTOL,
    atol: float = DEFAULT_CERTIFICATE_ATOL,
    floor: float = DEFAULT_PROB_FLOOR,
) -> SimplexScreen:
    """Certify ``k`` simplex rounds without solving them.

    Parameters
    ----------
    probs:
        ``(k, d + 2, C)`` API probability rows per block: ``x0`` first,
        then the ``d + 1`` vertices ``x0 + edge * directions`` of a
        regular simplex centred on ``x0``
        (:func:`~repro.core.sampling.simplex_directions`).
    target_classes:
        ``(k,)`` base class per block (validated by the caller).

    Notes
    -----
    On that design the left null vector of the design ``[1 | X - x0]``
    is ``n = (-(d + 1), 1, ..., 1)``: ``n·1 = 0`` and the vertices sum to
    ``(d + 1)·x0``.  The design has full column rank, so ``n`` spans its
    left null space and a pair's least-squares residual norm is
    ``|n·t| / ||n|| = |Σ_i (t_i - t_0)| / sqrt((d + 1)(d + 2))`` — the
    round is consistent iff ``x0``'s log-odds equal the mean of its
    samples'.  The same log-odds transform and certificate rule as the
    engine (:func:`~repro.core.engine.certificate_verdicts`) turn it into
    verdicts, in ``O(k·d·C)`` arithmetic.  The closed form meets the
    engine's residuals up to the rounding of the sample coordinates, a
    relative ``O(eps·|x0| / edge)`` of the centred target norm.
    """
    probs = np.asarray(probs, dtype=np.float64)
    _, targets_t = stacked_log_odds(
        probs, np.asarray(target_classes, dtype=np.intp), floor
    )
    n = targets_t.shape[2]
    steps = targets_t[:, :, 1:] - targets_t[:, :, :1]      # (k, C-1, n-1)
    res_norms = np.abs(steps.sum(axis=2)) / np.sqrt((n - 1) * n)
    relatives, grid = certificate_verdicts(
        res_norms, targets_t, rtol=rtol, atol=atol
    )
    return SimplexScreen(res_norms, relatives, grid)


def build_interpretation(
    round_: SolveRound,
    *,
    method: str,
    iterations: int,
    final_edge: float,
    n_queries: int,
) -> Interpretation:
    """Turn a certified round into an :class:`Interpretation`.

    ``n_queries`` is whatever meter the driver read — for drivers
    querying through a :class:`~repro.api.BrokerHandle` that is the
    handle's own committed row count, so per-interpretation query
    accounting stays exact even when the physical round trips were
    fused across concurrent callers by the query broker.

    Raises
    ------
    ValidationError
        If the round is not fully certified — uncertified solves must
        never silently become interpretations.
    """
    if not round_.certified:
        raise ValidationError(
            "cannot build an interpretation from an uncertified round "
            f"({round_.n_certified}/{round_.n_pairs} pairs certified)"
        )
    pair_estimates = round_.pair_estimates()
    decision_features = np.mean(
        [est.weights for est in pair_estimates.values()], axis=0
    )
    return Interpretation(
        x0=round_.points[0],
        target_class=round_.target_class,
        decision_features=decision_features,
        pair_estimates=pair_estimates,
        method=method,
        iterations=iterations,
        final_edge=final_edge,
        n_queries=n_queries,
        samples=round_.samples,
    )
