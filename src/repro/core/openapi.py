"""OpenAPI — Algorithm 1 of the paper (Section IV-C).

The method that makes black-box interpretation *exact*:

1. pick ``d + 1`` perturbed instances within the hypercube of edge ``r``
   centered on ``x0`` and query the API on them;
2. together with ``(x0, y0)`` this yields ``d + 2`` equations per class
   pair — an *overdetermined* system :math:`\\Omega^{c,c'}_{d+2}`;
3. if every pair's system is consistent, Theorem 2 guarantees the solution
   equals the true core parameters with probability 1: return the closed
   form solution;
4. otherwise at least one sample crossed a region boundary — halve ``r``
   and resample.

The consistency check is the paper's "has a solution" test realized in
floating point as a relative-residual certificate
(:func:`repro.utils.linalg.consistency_certificate`).

Step 1 deviates from the paper's uniform draw: the samples are the
vertices of a regular simplex of circumradius ``r`` around ``x0``, under
one random rotation per solve (:mod:`repro.core.sampling`).  On that
design a round's residuals have a closed form, so a failing round is
rejected in :math:`O(d C)` arithmetic
(:func:`repro.core.rounds.screen_simplex_rounds`) and only a round that
passes is solved.  An interpreter built with a ``clip_box`` draws the
paper's uniform hypercube and solves every round, since clipping would
break the simplex's symmetry.

Complexity: :math:`O(T \\cdot d C + (d+2)^3 + C (d+2)^2)` for ``T``
shrink iterations — each round's closed-form screen is linear, and the
round that passes pays a single normal-equations factorization
(:math:`O((d+2)^3)`) whose ``C-1`` right-hand sides cost
:math:`O((d+2)^2)` each, via the fused batched engine
(:mod:`repro.core.engine`) shared with the lock-step batch interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.transport import QueryClient
from repro.core.backend import resolve_backend
from repro.core.equations import DEFAULT_PROB_FLOOR
from repro.core.rounds import (
    SolveRound,
    build_interpretation,
    run_solve_round,
    screen_simplex_rounds,
)
from repro.core.sampling import HypercubeSampler, simplex_directions
from repro.core.types import Interpretation
from repro.exceptions import CertificateError, ValidationError
from repro.utils.linalg import DEFAULT_CERTIFICATE_ATOL, DEFAULT_CERTIFICATE_RTOL
from repro.utils.rng import SeedLike
from repro.utils.validation import check_in_range, check_positive

__all__ = ["OpenAPIInterpreter", "IterationRecord"]


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics of one shrink iteration (for the ablation benches)."""

    iteration: int
    edge: float
    n_certified: int
    n_pairs: int
    worst_relative_residual: float


@dataclass
class _RunState:
    """Mutable bookkeeping across shrink iterations."""

    history: list[IterationRecord] = field(default_factory=list)


class OpenAPIInterpreter:
    """Exact closed-form interpreter for PLMs behind APIs (Algorithm 1).

    Parameters
    ----------
    max_iterations:
        The paper's ``m``; Algorithm 1 stops after this many shrink rounds
        (the paper uses 100 and observes convergence within 20).
    initial_edge:
        Starting hypercube edge ``r`` (paper initializes 1.0 and notes the
        value barely matters because of the adaptive shrinking).
    shrink:
        Multiplicative edge decay per failed iteration (paper: 1/2).
    rtol, atol:
        Consistency-certificate thresholds; see
        :func:`repro.utils.linalg.consistency_certificate`.
    prob_floor:
        Probability clamp for the log-odds transform.
    clip_box:
        Optional input-domain clipping for constrained APIs (off by
        default; see :mod:`repro.core.sampling`).
    seed:
        Sampling seed.

    Examples
    --------
    >>> from repro.data import make_blobs
    >>> from repro.models import SoftmaxRegression
    >>> from repro.api import PredictionAPI
    >>> ds = make_blobs(200, n_features=4, n_classes=3, seed=7)
    >>> model = SoftmaxRegression(seed=7).fit(ds.X, ds.y)
    >>> api = PredictionAPI(model)
    >>> interp = OpenAPIInterpreter(seed=7).interpret(api, ds.X[0])
    >>> interp.all_certified
    True
    """

    method_name = "openapi"

    def __init__(
        self,
        *,
        max_iterations: int = 100,
        initial_edge: float = 1.0,
        shrink: float = 0.5,
        rtol: float = DEFAULT_CERTIFICATE_RTOL,
        atol: float = DEFAULT_CERTIFICATE_ATOL,
        prob_floor: float = DEFAULT_PROB_FLOOR,
        clip_box: tuple[float, float] | None = None,
        seed: SeedLike = None,
    ):
        if max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {max_iterations}")
        self.max_iterations = int(max_iterations)
        self.initial_edge = check_positive(initial_edge, name="initial_edge")
        self.shrink = check_in_range(shrink, 0.0, 1.0, name="shrink", inclusive=False)
        self.rtol = check_positive(rtol, name="rtol")
        self.atol = check_positive(atol, name="atol")
        self.prob_floor = check_positive(prob_floor, name="prob_floor")
        self._sampler = HypercubeSampler(seed, clip_box=clip_box)
        # Resolved once here, not once per solve round.
        self._backend = resolve_backend(None)
        #: Diagnostics of the most recent interpret() call.
        self.last_run_history_: list[IterationRecord] = []
        # Certified round of the most recent interpret() call; retained so
        # interpret_all_classes can re-solve the same sample set locally.
        self._last_round_: SolveRound | None = None

    # ------------------------------------------------------------------ #
    def interpret(
        self, api: QueryClient, x0: np.ndarray, c: int | None = None
    ) -> Interpretation:
        """Compute the exact decision features ``D_c`` for ``x0``.

        Parameters
        ----------
        api:
            The black-box service; the *only* model access used.  Any
            :class:`~repro.api.transport.QueryClient` works — a
            :class:`~repro.api.PredictionAPI` directly, or a
            :class:`~repro.api.BrokerHandle` so this interpretation's
            round trips coalesce with concurrent callers' (``n_queries``
            then meters exactly this caller's rows, regardless of
            fusion).
        x0:
            The instance to interpret.
        c:
            Target class; defaults to the API's prediction on ``x0``.

        Returns
        -------
        Interpretation
            With ``all_certified=True`` and per-pair core parameters.

        Raises
        ------
        ValidationError
            If the API exposes fewer than 2 classes — no class pairs
            exist, so no interpretation is defined.
        CertificateError
            If no consistent system is found within ``max_iterations``
            (probability 0 for instances off region boundaries; can also
            indicate a non-PLM model or a noisy API).
        """
        if api.n_classes < 2:
            raise ValidationError(
                f"interpretation requires an API with at least 2 classes, "
                f"got n_classes={api.n_classes} (no class pairs exist to "
                "solve)"
            )
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.ndim != 1 or x0.shape[0] != api.n_features:
            raise ValidationError(
                f"x0 must have shape ({api.n_features},), got {x0.shape}"
            )
        d = api.n_features
        queries_before = api.query_count

        y0 = api.predict_proba(x0)
        if c is None:
            c = int(np.argmax(y0))
        if not 0 <= c < api.n_classes:
            raise ValidationError(f"class index {c} out of range [0, {api.n_classes})")

        state = _RunState()
        self._last_round_ = None
        # The simplex design and its closed-form screen need the
        # symmetric samples that clipping would break.
        directions = (
            simplex_directions(self._sampler.rng, d)
            if self._sampler.clip_box is None
            else None
        )
        edge = self.initial_edge
        for iteration in range(1, self.max_iterations + 1):
            if directions is None:
                samples = self._sampler.draw(x0, edge, d + 1)
            else:
                samples = x0 + edge * directions
            probs = np.vstack([y0[None, :], api.predict_proba(samples)])

            if directions is not None:
                screen = screen_simplex_rounds(
                    probs[None], np.array([c]),
                    rtol=self.rtol, atol=self.atol, floor=self.prob_floor,
                )
                if not screen.passed[0]:
                    state.history.append(
                        IterationRecord(
                            iteration=iteration,
                            edge=edge,
                            n_certified=screen.n_certified(0),
                            n_pairs=api.n_classes - 1,
                            worst_relative_residual=(
                                screen.worst_relative_residual(0)
                            ),
                        )
                    )
                    edge *= self.shrink
                    continue

            points = np.vstack([x0[None, :], samples])
            round_ = run_solve_round(
                points, probs, samples, c,
                center=x0,
                rtol=self.rtol,
                atol=self.atol,
                floor=self.prob_floor,
                backend=self._backend,
            )
            state.history.append(
                IterationRecord(
                    iteration=iteration,
                    edge=edge,
                    n_certified=round_.n_certified,
                    n_pairs=round_.n_pairs,
                    worst_relative_residual=round_.worst_relative_residual,
                )
            )

            if round_.certified:
                self.last_run_history_ = state.history
                self._last_round_ = round_
                return build_interpretation(
                    round_,
                    method=self.method_name,
                    iterations=iteration,
                    final_edge=edge,
                    n_queries=api.query_count - queries_before,
                )
            edge *= self.shrink

        self.last_run_history_ = state.history
        raise CertificateError(
            f"no consistent system within {self.max_iterations} iterations "
            f"(final edge {edge / self.shrink:.3g}); the instance may lie on a "
            "region boundary, or the API may be noisy / not piecewise linear",
            iterations=self.max_iterations,
            final_edge=edge / self.shrink,
        )

    # ------------------------------------------------------------------ #
    def interpret_all_classes(
        self, api: QueryClient, x0: np.ndarray
    ) -> list[Interpretation]:
        """Interpretations of every class, reusing one certified sample set.

        A sample set whose equations are consistent for one base class is
        consistent for *every* base class (all pairs live in the same
        region), so the certified round of the ``c = 0`` solve can be
        re-solved locally for each remaining class: every pair estimate —
        weights, intercept *and* residual — comes from an actual
        least-squares solve over the shared sample set, identical to what
        a direct ``interpret(api, x0, c=c)`` on the same samples would
        produce, at zero additional API queries.

        Under imperfect APIs (rounding/noise transforms) a derived
        class's certificate can fail even though the base class's passed
        — the base certificate never checked the pairs not involving
        class 0.  Such classes fall back to a direct :meth:`interpret`
        call, whose extra queries are honestly metered in that
        interpretation's ``n_queries`` (still zero for the classes the
        shared sample set covered).
        """
        base = self.interpret(api, x0, c=0)
        round0 = self._last_round_
        assert round0 is not None  # interpret() either set it or raised

        interpretations: list[Interpretation] = [base]
        for c in range(1, api.n_classes):
            round_c = run_solve_round(
                round0.points,
                round0.probs,
                round0.samples,
                c,
                center=base.x0,
                rtol=self.rtol,
                atol=self.atol,
                floor=self.prob_floor,
                backend=self._backend,
            )
            if round_c.certified:
                interpretations.append(
                    build_interpretation(
                        round_c,
                        method=self.method_name,
                        iterations=base.iterations,
                        final_edge=base.final_edge,
                        n_queries=0,
                    )
                )
            else:
                interpretations.append(self.interpret(api, x0, c=c))
        return interpretations
