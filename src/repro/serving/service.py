"""The interpretation service: region cache + micro-batched solving.

:class:`InterpretationService` fronts one :class:`~repro.api.PredictionAPI`
and answers interpretation requests through three cooperating mechanisms:

1. **Region-reuse cache** (:class:`~repro.serving.cache.RegionCache`) —
   Theorem 2 makes one certified solve valid for its whole activation
   region, so repeat-region queries cost one probe query instead of a
   fresh Algorithm-1 run.
2. **Request queue + micro-batching** — concurrent single-instance
   requests are coalesced into one lock-step
   :class:`~repro.core.batch.BatchOpenAPIInterpreter` run.  The flush
   scores every queued instance in a single probe round trip, uses those
   rows for both the cache membership check and the lock-step seed
   (``y0`` pass-through), and solves only the misses.
3. **Structured failures** — budget exhaustion and certificate failures
   come back as :class:`~repro.api.ErrorEnvelope` responses; the queue is
   never poisoned and the meters stay consistent.

Two usage styles:

* synchronous: ``service.interpret(x0)`` / ``service.interpret_many(X)``
  (each call flushes its own micro-batch);
* pipelined: ``service.start()``, then ``submit()`` from any thread —
  one background worker gathers requests for up to ``max_wait_s`` (or
  until ``max_batch_size``) and flushes them together.

Every flush — inline or from the worker — runs under one flush lock, so
the region tier behind the service (a :class:`RegionCache`, a
:class:`~repro.serving.store.TieredRegionStore` or an
:class:`~repro.serving.store.L2ReaderCache`) sees one caller at a time.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.api.service import (
    ERROR_BUDGET_EXHAUSTED,
    ERROR_CERTIFICATE_FAILED,
    ERROR_INTERNAL,
    ERROR_INVALID_REQUEST,
    ERROR_TRANSPORT_FAILED,
    InterpretRequest,
    InterpretResponse,
    PredictionAPI,
)
from repro.api.transport import QueryBroker, QueryClient
from repro.core.batch import BatchOpenAPIInterpreter
from repro.exceptions import (
    APIBudgetExceededError,
    TransportError,
    TransportExhaustedError,
    ValidationError,
)
from repro.serving.cache import RegionCache
from repro.serving.metrics import ServiceMetrics, ServiceStats
from repro.utils.rng import SeedLike

__all__ = ["InterpretationService", "PendingResponse"]


class PendingResponse:
    """A future-like handle for one submitted request."""

    def __init__(self, request: InterpretRequest, enqueued_at: float):
        self.request = request
        self._enqueued_at = enqueued_at
        self._event = threading.Event()
        self._response: InterpretResponse | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> InterpretResponse:
        """Block until the response is ready (or ``TimeoutError``)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id} not resolved "
                f"within {timeout} s"
            )
        assert self._response is not None
        return self._response

    def _resolve(self, response: InterpretResponse) -> None:
        self._response = response
        self._event.set()


class InterpretationService:
    """Serve exact interpretations with region reuse and micro-batching.

    Parameters
    ----------
    api:
        The black-box service to interpret against.
    interpreter:
        The lock-step solver for cache misses; a default
        :class:`BatchOpenAPIInterpreter` is built from ``seed`` and
        ``interpreter_kwargs`` when omitted.  Its start edge is resolved
        here, before the first request
        (:meth:`~repro.core.batch.BatchOpenAPIInterpreter.start_edge`;
        a calibrating interpreter queries the API once, reported as
        ``calibration_queries`` in :meth:`stats`).
    cache:
        The region tier: a pre-configured :class:`RegionCache`, or any
        object with the same ``lookup``/``insert``/``stats`` surface — a
        :class:`~repro.serving.store.TieredRegionStore` (RAM L1 over a
        disk L2; the caller keeps its handle and closes it) or an
        :class:`~repro.serving.store.L2ReaderCache`.  ``None`` builds a
        default :class:`RegionCache`.  Pass ``enable_cache=False`` (and
        no ``cache``) to disable region reuse entirely (every request
        solves fresh — the baseline the throughput benchmark compares
        against).
    max_batch_size:
        Micro-batch cap for the background loop.
    max_wait_s:
        How long the background loop waits to coalesce more requests
        after the first one arrives.
    broker:
        Optional :class:`~repro.api.QueryBroker` over the same ``api``.
        When given, every flush queries through the service's own
        :class:`~repro.api.BrokerHandle` instead of the raw API, so its
        probe and lock-step trips coalesce with any other broker
        callers' into fused round trips (the service itself has one
        batch in flight at a time); exhausted transport retries come
        back as structured
        ``transport_failed`` envelopes.  Meter accounting keeps reading
        the underlying API, so the lifetime totals stay exact.

    Raises
    ------
    ValidationError
        For a non-positive ``max_batch_size``, negative ``max_wait_s``,
        a ``broker`` not backed by ``api``, or a ``cache`` passed with
        ``enable_cache=False``.

    Examples
    --------
    >>> from repro.data import make_blobs
    >>> from repro.models import SoftmaxRegression
    >>> from repro.api import PredictionAPI
    >>> ds = make_blobs(100, n_features=4, n_classes=3, seed=0)
    >>> api = PredictionAPI(SoftmaxRegression(seed=0).fit(ds.X, ds.y))
    >>> service = InterpretationService(api, seed=0)
    >>> first = service.interpret(ds.X[0])
    >>> again = service.interpret(ds.X[0])
    >>> first.ok and again.ok and again.served_from_cache
    True
    """

    def __init__(
        self,
        api: PredictionAPI,
        *,
        interpreter: BatchOpenAPIInterpreter | None = None,
        cache: RegionCache | None = None,
        enable_cache: bool = True,
        max_batch_size: int = 64,
        max_wait_s: float = 0.002,
        broker: QueryBroker | None = None,
        seed: SeedLike = None,
        **interpreter_kwargs,
    ):
        if max_batch_size < 1:
            raise ValidationError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_wait_s < 0:
            raise ValidationError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if broker is not None and broker.api is not api:
            raise ValidationError(
                "broker must be backed by the service's own api (meter "
                "accounting reads the underlying API's counters)"
            )
        if cache is not None and not enable_cache:
            raise ValidationError(
                "cache= requires the region tier enabled (drop "
                "enable_cache=False, or the cache)"
            )
        self.api = api
        self.broker = broker
        self.interpreter = interpreter or BatchOpenAPIInterpreter(
            seed=seed, **interpreter_kwargs
        )
        # `cache is None` — NOT `not cache`: caches define __len__, so a
        # freshly configured (empty) cache is falsy and would be silently
        # swapped for a default-configured one.
        if cache is None and enable_cache:
            cache = RegionCache()
        self.cache: RegionCache | None = cache
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)

        # The one query client every flush speaks through: the service's
        # broker handle when brokered, else the raw API.
        self._client: QueryClient = (
            broker.handle("service") if broker is not None else api
        )
        # The start edge is resolved here, once, through the served
        # client; its queries are metered apart from every flush's.
        queries_before = api.query_count
        initial_edge = self.interpreter.start_edge(self._client)
        self.metrics = ServiceMetrics(  # guarded-by: _metrics_lock
            initial_edge=initial_edge,
            calibration_queries=api.query_count - queries_before,
        )

        self._queue: deque[PendingResponse] = deque()  # guarded-by: _cv
        self._cv = threading.Condition()
        self._flush_lock = threading.Lock()
        # Meter accounting is delta-based against these high-water marks,
        # under its own lock so stats() readers never see a half-folded
        # flush: every spent query is counted by exactly one _account call.
        self._metrics_lock = threading.Lock()
        self._metered_queries = api.query_count  # guarded-by: _metrics_lock
        self._metered_trips = api.request_count  # guarded-by: _metrics_lock
        self._next_id = 0              # guarded-by: _cv
        self._worker: threading.Thread | None = None
        self._stopping = False         # guarded-by: _cv

    # ------------------------------------------------------------------ #
    # Request intake
    # ------------------------------------------------------------------ #
    def submit(
        self, x0: np.ndarray, target_class: int | None = None
    ) -> PendingResponse:
        """Queue one request; resolve via :meth:`flush` or the loop.

        Raises
        ------
        ValidationError
            For a mis-shaped/non-finite ``x0`` or an out-of-range
            ``target_class``.
        """
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.ndim != 1 or x0.shape[0] != self.api.n_features:
            raise ValidationError(
                f"x0 must have shape ({self.api.n_features},), got {x0.shape}"
            )
        if not np.all(np.isfinite(x0)):
            raise ValidationError("x0 contains NaN or infinite entries")
        if target_class is not None and not 0 <= target_class < self.api.n_classes:
            raise ValidationError(
                f"class index {target_class} out of range "
                f"[0, {self.api.n_classes})"
            )
        with self._cv:
            request = InterpretRequest(
                request_id=self._next_id, x0=x0, target_class=target_class
            )
            self._next_id += 1
            pending = PendingResponse(request, time.perf_counter())
            self._queue.append(pending)
            self._cv.notify_all()
        return pending

    def interpret(
        self,
        x0: np.ndarray,
        target_class: int | None = None,
        *,
        timeout: float | None = None,
    ) -> InterpretResponse:
        """Submit one request and wait for its response.

        With the background loop running the request rides the next
        micro-batch; otherwise it is flushed inline.
        """
        pending = self.submit(x0, target_class)
        if self._worker is None:
            self.flush()
        return pending.result(timeout)

    def interpret_many(
        self,
        X: np.ndarray,
        classes: list[int] | np.ndarray | None = None,
        *,
        timeout: float | None = None,
    ) -> list[InterpretResponse]:
        """Submit every row of ``X`` and wait for all responses in order."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-D, got shape {X.shape}")
        if classes is not None and len(classes) != X.shape[0]:
            raise ValidationError(
                f"classes must have length {X.shape[0]}, got {len(classes)}"
            )
        pendings = [
            self.submit(x0, None if classes is None else int(classes[i]))
            for i, x0 in enumerate(X)
        ]
        if self._worker is None:
            while any(not p.done() for p in pendings):
                if not self.flush():
                    break
        return [p.result(timeout) for p in pendings]

    # ------------------------------------------------------------------ #
    # Micro-batch processing
    # ------------------------------------------------------------------ #
    def flush(self) -> list[InterpretResponse]:
        """Process up to ``max_batch_size`` queued requests as one batch.

        Serialized by the flush lock — one micro-batch in flight at a
        time, whether flushed inline or by the background worker.
        """
        with self._flush_lock:
            with self._cv:
                batch = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), self.max_batch_size))
                ]
            if not batch:
                return []
            return self._process(batch)

    def _process(
        self, batch: list[PendingResponse]
    ) -> list[InterpretResponse]:
        """Serve one micro-batch; never lets an exception escape.

        The worker thread runs this, so any exception leaking out would
        kill the loop and wedge every pending request.  Unexpected
        failures therefore become structured envelopes
        (``invalid_request`` for validation issues, ``transport_failed``
        — carrying the error's own retryability — for transport errors
        that escaped the broker's own handling, e.g. a misbehaving
        pluggable ``Transport``, ``internal_error`` otherwise) and the
        meters still record whatever the aborted flush spent.
        """
        try:
            return self._process_batch(batch)
        except Exception as exc:  # boundary: service envelope boundary — failures become structured error envelopes and the meters still account the aborted flush
            if isinstance(exc, ValidationError):
                code, retryable = ERROR_INVALID_REQUEST, False
            elif isinstance(exc, TransportError):
                # Honor the error's own flag: transient/exhausted failures
                # are retryable, a deterministic defect (e.g. a transport
                # that mis-counts result blocks) is not.
                code, retryable = ERROR_TRANSPORT_FAILED, bool(exc.retryable)
            else:
                code, retryable = ERROR_INTERNAL, False
            responses = []
            for pending in batch:
                if pending.done():
                    continue
                response = self._fail(
                    pending,
                    code,
                    f"{type(exc).__name__}: {exc}",
                    retryable=retryable,
                )
                responses.append(response)
            self._account(responses)
            for pending, response in zip(
                [p for p in batch if not p.done()], responses
            ):
                pending._resolve(response)
            return responses

    def _process_batch(
        self, batch: list[PendingResponse]
    ) -> list[InterpretResponse]:
        """One probe trip + cache scan + lock-step solve of the misses.

        Queries go through ``self._client`` — the raw API, or a broker
        handle whose trips fuse with other broker callers'.

        Complexity per flush of ``B`` requests with ``M`` misses over a
        ``d``-dimensional, ``C``-class model: one probe round trip
        scoring all ``B`` instances, one cache scan per request
        (:math:`O(m P d)` each over ``m`` resident same-class
        candidates), and ``T`` lock-step rounds of the fused engine for
        the misses — :math:`O(T (M (d+2)^3 + M C (d+2)^2))` via
        :func:`repro.core.engine.solve_pair_systems_stacked`.
        """
        api = self._client
        X = np.vstack([p.request.x0 for p in batch])

        # Probe round: one trip scores every queued instance; the rows
        # drive the predicted class, the cache membership check, and the
        # lock-step seed of the miss batch.
        try:
            y0_all = np.atleast_2d(api.predict_proba(X))
        except (APIBudgetExceededError, TransportExhaustedError) as exc:
            code = (
                ERROR_BUDGET_EXHAUSTED
                if isinstance(exc, APIBudgetExceededError)
                else ERROR_TRANSPORT_FAILED
            )
            responses = [
                self._fail(p, code, str(exc), retryable=True) for p in batch
            ]
            self._account(responses)
            for pending, response in zip(batch, responses):
                pending._resolve(response)
            return responses

        targets = [
            p.request.target_class
            if p.request.target_class is not None
            else int(np.argmax(y0_all[i]))
            for i, p in enumerate(batch)
        ]

        responses: list[InterpretResponse | None] = [None] * len(batch)
        misses: list[int] = []
        for i, pending in enumerate(batch):
            hit = (
                self.cache.lookup(pending.request.x0, y0_all[i], targets[i])
                if self.cache is not None
                else None
            )
            if hit is not None:
                responses[i] = InterpretResponse.success(
                    pending.request,
                    hit,
                    served_from_cache=True,
                    n_queries=1,
                    latency_s=self._latency(pending),
                )
            else:
                misses.append(i)

        rounds = 0
        sequential_trips = len(batch) - len(misses)  # 1 per cache hit
        # Coalesce exact-duplicate requests inside the micro-batch: only
        # one representative per distinct (x0, class) goes to the solver;
        # duplicates share its certified result (cache semantics, without
        # waiting for the insert).  The uncached baseline keeps solving
        # every request so the benchmark comparison stays honest.
        solve_slots: list[int] = []
        dup_of: dict[int, int] = {}
        if self.cache is not None:
            seen: dict[tuple[bytes, int], int] = {}
            for i in misses:
                key = (batch[i].request.x0.tobytes(), targets[i])
                if key in seen:
                    dup_of[i] = seen[key]
                else:
                    seen[key] = i
                    solve_slots.append(i)
        else:
            solve_slots = misses
        if solve_slots:
            result = self.interpreter.interpret_batch(
                api,
                X[solve_slots],
                [targets[i] for i in solve_slots],
                y0=y0_all[solve_slots],
                raise_on_budget=False,
                raise_on_transport=False,
            )
            rounds = result.rounds
            for slot, interp in zip(solve_slots, result.interpretations):
                pending = batch[slot]
                if interp is not None:
                    if self.cache is not None:
                        self.cache.insert(interp)
                    sequential_trips += 1 + interp.iterations
                    responses[slot] = InterpretResponse.success(
                        pending.request,
                        interp,
                        n_queries=interp.n_queries,
                        latency_s=self._latency(pending),
                    )
                elif result.budget_exhausted:
                    sequential_trips += 1 + rounds
                    responses[slot] = self._fail(
                        pending,
                        ERROR_BUDGET_EXHAUSTED,
                        "API query budget exhausted before the instance "
                        "was certified",
                        retryable=True,
                    )
                elif result.transport_failed:
                    sequential_trips += 1 + rounds
                    responses[slot] = self._fail(
                        pending,
                        ERROR_TRANSPORT_FAILED,
                        "query transport kept failing past its retry "
                        "budget before the instance was certified",
                        retryable=True,
                    )
                else:
                    sequential_trips += 1 + rounds
                    responses[slot] = self._fail(
                        pending,
                        ERROR_CERTIFICATE_FAILED,
                        "no consistent system within the iteration budget "
                        "(boundary instance, noisy API, or non-PLM model)",
                    )
            for slot, rep in dup_of.items():
                pending = batch[slot]
                rep_response = responses[rep]
                assert rep_response is not None
                # Sequentially, a duplicate would hit the entry its
                # representative just cached: 1 probe trip, like any hit.
                sequential_trips += 1
                if rep_response.ok:
                    responses[slot] = InterpretResponse.success(
                        pending.request,
                        rep_response.interpretation,
                        served_from_cache=True,
                        n_queries=1,
                        latency_s=self._latency(pending),
                    )
                else:
                    responses[slot] = self._fail(
                        pending,
                        rep_response.error.code,
                        rep_response.error.message,
                        retryable=rep_response.error.retryable,
                    )

        final = [r for r in responses if r is not None]
        assert len(final) == len(batch)
        self._account(final, sequential_trips=sequential_trips)
        for pending, response in zip(batch, final):
            pending._resolve(response)
        return final

    def _account(
        self,
        responses: list[InterpretResponse],
        *,
        sequential_trips: int | None = None,
    ) -> None:
        """Fold one flush into the meters.

        Query/trip spend is measured as the API-meter delta since the
        last ``_account`` call (the high-water marks live under
        ``_metrics_lock``), so lifetime totals match the API meters
        exactly.
        """
        with self._metrics_lock:
            q_now = self.api.query_count
            t_now = self.api.request_count
            queries = q_now - self._metered_queries
            trips = t_now - self._metered_trips
            self._metered_queries = q_now
            self._metered_trips = t_now
            if sequential_trips is None:
                sequential_trips = trips
            for response in responses:
                self.metrics.record_response(response)
            self.metrics.record_flush(
                queries_spent=queries,
                round_trips=trips,
                round_trips_sequential=sequential_trips,
            )

    def _fail(
        self,
        pending: PendingResponse,
        code: str,
        message: str,
        *,
        retryable: bool = False,
    ) -> InterpretResponse:
        return InterpretResponse.failure(
            pending.request,
            code,
            message,
            retryable=retryable,
            latency_s=self._latency(pending),
        )

    def _latency(self, pending: PendingResponse) -> float:
        return time.perf_counter() - pending._enqueued_at

    # ------------------------------------------------------------------ #
    # Background micro-batching loop
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the background worker loop (idempotent)."""
        if self._worker is not None:
            return
        with self._cv:
            self._stopping = False
        self._worker = threading.Thread(
            target=self._loop, name="interpretation-service", daemon=True
        )
        self._worker.start()

    def stop(self, *, drain: bool = True) -> None:
        """Stop the loop; by default flush whatever is still queued."""
        if self._worker is None:
            return
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        self._worker.join()
        self._worker = None
        if drain:
            while self.flush():
                pass

    def __enter__(self) -> "InterpretationService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stopping:
                    self._cv.wait(timeout=0.05)
                if self._stopping:
                    return
                # Coalesce: give concurrent submitters max_wait_s to pile
                # onto this micro-batch (or until it is full).
                deadline = time.perf_counter() + self.max_wait_s
                while len(self._queue) < self.max_batch_size:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or self._stopping:
                        break
                    self._cv.wait(timeout=remaining)
            try:
                while self.flush():
                    pass
            except Exception:  # boundary: defense in depth — the flush worker must outlive any surprise (_process already envelopes) or pending requests hang forever
                # Defense in depth: the worker must outlive any surprise,
                # or every pending request would hang forever.
                continue

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def stats(self) -> ServiceStats:
        """The stats endpoint: an immutable snapshot of every meter."""
        with self._metrics_lock:
            return self.metrics.snapshot()
