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

The start edge
--------------
The paper starts every solve at edge ``r = 1`` and halves it after each
failed round, so on a model whose regions are much smaller than 1 most
of a solve's queries go to rounds that must fail.  Left at its default
(``initial_edge=None``), the interpreter instead measures where its
solves certify against an API before its first batch there
(:meth:`BatchOpenAPIInterpreter.start_edge`): one lock-step run of the
paper's schedule (edge 1, shrink 1/2) over :data:`CALIBRATION_DRAW`
standard-normal points (uniform in the ``clip_box`` when one is set)
drawn from a generator private to the calibration and keyed by the
integer ``seed``.  The start edge is the largest power of two at or
below the :data:`CALIBRATION_QUANTILE` quantile of the certified final
edges, or 1 when more than that share of the draw fails.  The result is
a pure function of ``(seed, d, the API's answers)``: every process that
builds the same interpreter over the same model starts at the same edge,
and no live request, cache or arrival order enters it.  An API with a
hard ``budget`` is not spent on calibration and keeps edge 1.  A
smaller start edge does not weaken the certificate: a round certifies
on its own consistency, whatever edge it ran at (see
:mod:`repro.utils.linalg`).

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

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.api.transport import QueryClient
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
from repro.utils.linalg import DEFAULT_CERTIFICATE_RTOL
from repro.utils.rng import SeedLike
from repro.utils.validation import check_in_range, check_positive

__all__ = [
    "BatchOpenAPIInterpreter",
    "BatchResult",
    "CALIBRATION_DRAW",
    "CALIBRATION_QUANTILE",
]

#: Instances in the start-edge calibration draw.
CALIBRATION_DRAW: int = 128

#: Share of the calibration draw allowed to fail, or to certify only
#: below the chosen start edge.
CALIBRATION_QUANTILE: float = 0.01

#: Spawn key of the calibration generator: it shares only the integer
#: seed with the interpreter's own sample stream, never its state.
_CALIBRATION_SPAWN_KEY = (0xCA1B,)


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
        initial_edge: float | None = None,
        shrink: float = 0.5,
        rtol: float = DEFAULT_CERTIFICATE_RTOL,
        prob_floor: float = DEFAULT_PROB_FLOOR,
        clip_box: tuple[float, float] | None = None,
        seed: SeedLike = None,
        per_instance_seed: bool = False,
    ):
        if max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {max_iterations}")
        self.max_iterations = int(max_iterations)
        self.initial_edge = (
            None if initial_edge is None
            else check_positive(initial_edge, name="initial_edge")
        )
        self.shrink = check_in_range(shrink, 0.0, 1.0, name="shrink", inclusive=False)
        self.rtol = check_positive(rtol, name="rtol")
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
        self._calibration_lock = threading.Lock()
        # One calibration per API object, dropped with the API.
        self._calibrations: weakref.WeakKeyDictionary = (  # guarded-by: _calibration_lock
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------ #
    def start_edge(self, api: QueryClient) -> float:
        """The first round's edge of this interpreter's solves on ``api``.

        With an explicit ``initial_edge`` that edge, at no cost.
        Otherwise the first call per API object runs the calibration
        (see the module notes; its queries show on ``api``'s meter) and
        later calls return its result.  The calibration neither reads
        nor advances the interpreter's own sample stream.
        """
        if self.initial_edge is not None:
            return self.initial_edge
        with self._calibration_lock:
            edge = self._calibrations.get(api)
            if edge is None:
                edge = self._calibrate(api)
                self._calibrations[api] = edge
            return edge

    def _calibrate(self, api: QueryClient) -> float:  # requires-lock: _calibration_lock
        """One lock-step run of the paper's schedule over the
        calibration draw, reduced to a start edge."""
        # PredictionAPI and BrokerHandle expose a budget; a client
        # without one has none.
        if getattr(api, "budget", None) is not None:
            return 1.0
        seed = (
            int(self._seed)
            if isinstance(self._seed, (int, np.integer))
            else 0
        )
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=_CALIBRATION_SPAWN_KEY)
        )
        shape = (CALIBRATION_DRAW, api.n_features)
        clip_box = self._sampler.clip_box
        if clip_box is None:
            X = rng.standard_normal(shape)
        else:
            lo, hi = clip_box
            X = lo + (hi - lo) * rng.random(shape)
        paper = BatchOpenAPIInterpreter(
            max_iterations=self.max_iterations,
            initial_edge=1.0,
            shrink=0.5,
            rtol=self.rtol,
            prob_floor=self.prob_floor,
            clip_box=clip_box,
            seed=rng,
        )
        result = paper.interpret_batch(
            api, X, raise_on_budget=False, raise_on_transport=False
        )
        edges = [
            it.final_edge for it in result.interpretations if it is not None
        ]
        if len(X) - len(edges) > CALIBRATION_QUANTILE * len(X):
            return 1.0
        quantile = float(np.percentile(edges, 100 * CALIBRATION_QUANTILE))
        # The largest power of two at or below the quantile.
        return min(1.0, math.ldexp(0.5, math.frexp(quantile)[1]))

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

        start_edge = self.start_edge(api)
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
                edge=start_edge, rng=rng,
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
                    rtol=self.rtol, floor=self.prob_floor,
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
                    rtol=self.rtol, floor=self.prob_floor,
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
