"""Batch interpretation: many instances, few API round trips.

Interpreting ``n`` instances sequentially costs ``Σ_i (1 + T_i)`` API
round trips.  Real services amortize per-request overhead across batched
instances, so the dominant latency cost is *round trips*, not scored rows.
:class:`BatchOpenAPIInterpreter` runs Algorithm 1 for all instances in
lock-step: each round gathers the next sample set of every still-active
instance into **one** ``predict_proba`` call, rejects the failing rounds
in closed form (:func:`repro.core.rounds.screen_simplex_rounds`), and
solves and certifies the rest in **one** fused engine pass
(:func:`repro.core.rounds.run_solve_rounds_batched` — stacked designs,
batched normal equations; see :mod:`repro.core.engine`).  Total round
trips drop to ``1 + max_i T_i`` and the local compute per round is a
few vectorized sweeps instead of a Python loop of solver calls.

Each solve draws one simplex rotation
(:func:`repro.core.sampling.simplex_directions`), in instance order from
the shared stream unless ``per_instance_seed`` is set.  The sequential
interpreter draws its rotations from the same stream in the same order,
so for one seed and one instance order both interpreters query the same
samples.  Their verdicts can still differ: a model scores a stacked
``predict_proba`` call with row-count-dependent rounding (see
``per_instance_seed``), which can move a residual near ``rtol`` across
it.  So query counts and answers usually match the sequential
interpreter's instance by instance, but are not guaranteed identical.
With a ``clip_box`` both interpreters draw hypercube samples round by round
from the shared stream, in different orders, and agree only in
distribution.

Round-trip accounting under micro-batching
------------------------------------------
The serving layer (:mod:`repro.serving`) coalesces concurrent
single-instance requests into one lock-step run.  Its accounting builds on
two contracts of :meth:`~BatchOpenAPIInterpreter.interpret_batch`:

* When the caller already holds the ``x0`` probability rows (the service
  scores every queued instance once up front — the same round trip feeds
  the region-cache membership check), it passes them via ``y0`` and round
  trip 0 is skipped entirely.  A micro-batch of ``k`` cache misses then
  costs ``1 + max_i T_i`` trips total (1 probe round shared with the cache
  check + the lock-step sample rounds), versus ``Σ_i (1 + T_i)`` for the
  same instances served sequentially.
* Per-instance ``Interpretation.n_queries`` is always the *sequential
  equivalent* ``1 + T_i (d + 1)`` — including the single ``x0`` probe row
  regardless of who paid for it — so summing ``n_queries`` over every
  response of a micro-batch (cache hits count 1 each) exactly reproduces
  the API's query-meter delta.  Tests pin this conservation law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.transport import QueryClient
from repro.core.backend import resolve_backend
from repro.core.equations import DEFAULT_PROB_FLOOR
from repro.core.rounds import (
    build_interpretation,
    run_solve_rounds_batched,
    screen_simplex_rounds,
)
from repro.core.sampling import (
    HypercubeSampler,
    instance_generator,
    sample_hypercube,
    simplex_directions,
)
from repro.core.types import Interpretation
from repro.exceptions import (
    APIBudgetExceededError,
    TransportExhaustedError,
    ValidationError,
)
from repro.utils.linalg import DEFAULT_CERTIFICATE_ATOL, DEFAULT_CERTIFICATE_RTOL
from repro.utils.rng import SeedLike
from repro.utils.validation import check_in_range, check_positive

__all__ = ["BatchOpenAPIInterpreter", "BatchResult"]


@dataclass
class _InstanceState:
    """Per-instance bookkeeping across lock-step rounds."""

    x0: np.ndarray
    y0: np.ndarray
    target_class: int
    edge: float
    iterations: int = 0
    done: bool = False
    result: Interpretation | None = None
    rng: np.random.Generator | None = None  # per_instance_seed mode only
    directions: np.ndarray | None = None  # simplex design (no clip_box)


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a batch interpretation run.

    Attributes
    ----------
    interpretations:
        One entry per input instance: an :class:`Interpretation` on
        success, ``None`` where the iteration budget ran out (boundary
        instances / non-PLM APIs) or the API budget died first.
    rounds:
        Lock-step rounds executed (= API round trips after the first).
    n_queries:
        Total instances scored across all rounds (matches sequential).
    budget_exhausted:
        True when the run stopped early because the API's query budget
        ran out (only possible with ``raise_on_budget=False``); the
        still-unfinished instances are ``None``.
    transport_failed:
        True when the run stopped early because a round trip kept
        failing past the transport's retry budget (only possible with
        ``raise_on_transport=False``); instances already certified keep
        their results, the rest are ``None``.
    """

    interpretations: list[Interpretation | None]
    rounds: int
    n_queries: int
    budget_exhausted: bool = False
    transport_failed: bool = False

    @property
    def n_failed(self) -> int:
        """Instances whose certificate never passed."""
        return sum(1 for i in self.interpretations if i is None)


class BatchOpenAPIInterpreter:
    """Lock-step OpenAPI over a batch of instances (same math, fewer trips).

    Constructor parameters mirror
    :class:`~repro.core.openapi.OpenAPIInterpreter`, plus:

    per_instance_seed:
        When True, every instance draws its samples from a private
        generator derived from ``(seed, x0 bytes)``
        (:func:`~repro.core.sampling.instance_generator`) instead of the
        interpreter's shared advancing stream.  The *samples* then
        depend only on the instance and the seed — not on solve order,
        batch composition, or which process ran the solve.  The
        *answers* still depend on batch composition, through the API
        rather than the engine: block ``b`` of a ``k``-stack engine pass
        is bitwise its lone solve, but a model scoring one stacked
        ``predict_proba`` call rounds each row by the row count (about
        1e-16 on the probabilities of a ReLU network, which the
        closed-form solve turns into about 1e-11 on the weights at a
        batch of 8).  The multi-process serving fleet's bitwise-identity
        guarantee therefore rests on lone (``k = 1``) solves, which is
        how its workers solve a request.  Requires an integer (or
        ``None``) seed so the derivation is reproducible across
        processes.  Off by default: the shared-stream behaviour (and its
        exact sample sequences) is unchanged for existing callers.
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
        per_instance_seed: bool = False,
    ):
        if max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {max_iterations}")
        self.max_iterations = int(max_iterations)
        self.initial_edge = check_positive(initial_edge, name="initial_edge")
        self.shrink = check_in_range(shrink, 0.0, 1.0, name="shrink", inclusive=False)
        self.rtol = check_positive(rtol, name="rtol")
        self.atol = check_positive(atol, name="atol")
        self.prob_floor = check_positive(prob_floor, name="prob_floor")
        self.per_instance_seed = bool(per_instance_seed)
        if self.per_instance_seed and not (
            seed is None or isinstance(seed, (int, np.integer))
        ):
            raise ValidationError(
                "per_instance_seed requires an integer (or None) seed — "
                "the per-instance derivation must be reproducible in any "
                f"process, got {type(seed).__name__}"
            )
        self._seed = seed
        self._sampler = HypercubeSampler(seed, clip_box=clip_box)
        # Resolved once here, not once per solve round.
        self._backend = resolve_backend(None)

    # ------------------------------------------------------------------ #
    def interpret_batch(
        self,
        api: QueryClient,
        X: np.ndarray,
        classes: np.ndarray | list[int] | None = None,
        *,
        y0: np.ndarray | None = None,
        raise_on_budget: bool = True,
        raise_on_transport: bool = True,
    ) -> BatchResult:
        """Interpret every row of ``X`` (one lock-step Algorithm 1 run).

        Parameters
        ----------
        classes:
            Optional per-instance target classes; defaults to each
            instance's predicted class (from the same initial round trip).
        y0:
            Optional precomputed ``(n, C)`` probability rows for ``X``.
            When given, round trip 0 is skipped — the serving layer uses
            this to share one probe round between the region-cache
            membership check and the lock-step seed.  Per-instance
            ``n_queries`` still reports the sequential equivalent
            ``1 + T_i (d + 1)`` (see module docstring), while
            ``BatchResult.n_queries`` meters only what *this call* spent.
        raise_on_budget:
            When False, an :class:`APIBudgetExceededError` mid-run stops
            the lock-step loop instead of propagating: instances already
            certified keep their results, the rest stay ``None`` and the
            result carries ``budget_exhausted=True``.
        raise_on_transport:
            Same contract for a
            :class:`~repro.exceptions.TransportExhaustedError` from a
            brokered ``api`` (retry budget spent mid-run): when False the
            loop stops, certified instances keep their results and the
            result carries ``transport_failed=True``.

        Returns
        -------
        BatchResult
            Per-instance interpretations (``None`` for the probability-0
            budget exhaustion case) plus round-trip accounting.
        """
        if api.n_classes < 2:
            raise ValidationError(
                f"interpretation requires an API with at least 2 classes, "
                f"got n_classes={api.n_classes} (no class pairs exist to "
                "solve)"
            )
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != api.n_features:
            raise ValidationError(
                f"X must be (n, {api.n_features}), got {X.shape}"
            )
        n, d = X.shape
        if n == 0:
            raise ValidationError("X must contain at least one instance")
        if classes is not None:
            classes = np.asarray(classes)
            if classes.shape != (n,):
                raise ValidationError(
                    f"classes must have shape ({n},), got {classes.shape}"
                )

        queries_before = api.query_count
        if y0 is None:
            # Round trip 0: all the x0 predictions at once.  The opt-out
            # flags cover this probe too — nothing was interpreted yet,
            # so a dead budget/transport here returns an all-``None``
            # result with the matching flag instead of raising.
            try:
                y0_all = api.predict_proba(X)
            except APIBudgetExceededError:
                if raise_on_budget:
                    raise
                return BatchResult(
                    interpretations=[None] * n,
                    rounds=0,
                    n_queries=api.query_count - queries_before,
                    budget_exhausted=True,
                )
            except TransportExhaustedError:
                if raise_on_transport:
                    raise
                return BatchResult(
                    interpretations=[None] * n,
                    rounds=0,
                    n_queries=api.query_count - queries_before,
                    transport_failed=True,
                )
        else:
            y0_all = np.asarray(y0, dtype=np.float64)
            if y0_all.shape != (n, api.n_classes):
                raise ValidationError(
                    f"y0 must be ({n}, {api.n_classes}), got {y0_all.shape}"
                )
        # The simplex design and its closed-form screen need the
        # symmetric samples that clipping would break.
        simplex = self._sampler.clip_box is None
        states = []
        for i in range(n):
            c = int(classes[i]) if classes is not None else int(np.argmax(y0_all[i]))
            if not 0 <= c < api.n_classes:
                raise ValidationError(
                    f"class index {c} out of range [0, {api.n_classes})"
                )
            rng = (
                instance_generator(self._seed, X[i])
                if self.per_instance_seed
                else None
            )
            state = _InstanceState(
                x0=X[i], y0=y0_all[i], target_class=c,
                edge=self.initial_edge, rng=rng,
            )
            if simplex:
                state.directions = simplex_directions(
                    rng if rng is not None else self._sampler.rng, d
                )
            states.append(state)

        rounds = 0
        budget_exhausted = False
        transport_failed = False
        for _ in range(self.max_iterations):
            active = [s for s in states if not s.done]
            if not active:
                break
            # One round trip carries every active instance's sample set
            # (through a broker handle it additionally fuses with other
            # callers' concurrent rounds — same rows, fewer trips).
            if simplex:
                sample_blocks = [s.x0 + s.edge * s.directions for s in active]
            else:
                sample_blocks = [
                    sample_hypercube(
                        s.x0, s.edge, d + 1, s.rng,
                        clip_box=self._sampler.clip_box,
                    )
                    if s.rng is not None
                    else self._sampler.draw(s.x0, s.edge, d + 1)
                    for s in active
                ]
            stacked = np.vstack(sample_blocks)
            try:
                probs_stacked = api.predict_proba(stacked)
            except APIBudgetExceededError:
                if raise_on_budget:
                    raise
                budget_exhausted = True
                break
            except TransportExhaustedError:
                if raise_on_transport:
                    raise
                transport_failed = True
                break
            rounds += 1
            for state in active:
                state.iterations += 1

            # Stack the (x0 | samples) blocks and the matching probability
            # rows into 3-D tensors.
            k = len(active)
            x0s = np.stack([s.x0 for s in active])
            y0s = np.stack([s.y0 for s in active])
            probs_stack = np.concatenate(
                [y0s[:, None, :], probs_stacked.reshape(k, d + 1, -1)], axis=1
            )
            classes_stack = np.fromiter(
                (s.target_class for s in active), dtype=np.intp, count=k
            )
            # On the simplex design the closed-form screen rejects the
            # rounds whose certificate must fail; one fused engine pass
            # solves and certifies the rest.
            solve = range(k)
            if simplex:
                screen = screen_simplex_rounds(
                    probs_stack, classes_stack,
                    rtol=self.rtol, atol=self.atol, floor=self.prob_floor,
                )
                solve = [b for b in range(k) if screen.passed[b]]
            if solve:
                idx = np.asarray(solve)
                samples_stack = np.stack([sample_blocks[b] for b in solve])
                points_stack = np.concatenate(
                    [x0s[idx, None, :], samples_stack], axis=1
                )
                solve_rounds = run_solve_rounds_batched(
                    points_stack, probs_stack[idx], samples_stack,
                    classes_stack[idx],
                    centers=x0s[idx],
                    rtol=self.rtol, atol=self.atol, floor=self.prob_floor,
                    backend=self._backend,
                )
                for b, round_ in zip(solve, solve_rounds):
                    if round_.certified:
                        state = active[b]
                        state.result = build_interpretation(
                            round_,
                            method=self.method_name,
                            iterations=state.iterations,
                            final_edge=state.edge,
                            n_queries=1 + state.iterations * (d + 1),
                        )
                        state.done = True
            for state in active:
                if not state.done:
                    state.edge *= self.shrink

        return BatchResult(
            interpretations=[s.result for s in states],
            rounds=rounds,
            n_queries=api.query_count - queries_before,
            budget_exhausted=budget_exhausted,
            transport_failed=transport_failed,
        )
