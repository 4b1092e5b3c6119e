"""Query transport: resilient brokered round trips to a prediction API.

The paper's setting is a model *hidden behind an API* — and real APIs are
remote: round trips cost latency, services rate-limit and fail
transiently, and well-behaved clients batch, retry and meter their
traffic.  After PRs 1–3 the only remote-ish thing in this repository was
a synchronous in-process ``predict_proba`` call; this module supplies the
missing transport tier:

* :class:`Transport` — the wire: delivers a fused round trip of row
  blocks to a :class:`~repro.api.PredictionAPI`.
  :class:`DirectTransport` is the clean wire; :class:`SimulatedTransport`
  adds latency, token-bucket rate limiting (429s) and deterministic
  seeded transient-failure injection for resilience tests and benches.
* :class:`RetryPolicy` — bounded exponential backoff; exhausted retries
  surface as :class:`~repro.exceptions.TransportExhaustedError`, which
  the serving layer converts to a structured ``transport_failed``
  :class:`~repro.api.ErrorEnvelope`.
* :class:`QueryBroker` — cross-request coalescing: concurrent
  ``predict_proba`` calls from many in-flight interpretations are gathered
  for a micro-batch window and dispatched as **one** fused round trip
  (:meth:`PredictionAPI.predict_proba_blocks`), then scattered back with
  per-caller row ordering intact.
* :class:`BrokerHandle` — a caller's private view of the broker.  It
  speaks the same query surface as :class:`~repro.api.PredictionAPI`
  (``predict_proba`` / ``n_features`` / ``n_classes`` / ``query_count`` /
  ``request_count``), so every interpreter in :mod:`repro.core` runs
  unmodified over a handle; its meters attribute exactly the rows *this
  caller* was answered, regardless of how trips were fused.

Two invariants, pinned by ``tests/test_transport.py`` and gated by
``benchmarks/bench_transport.py``:

* **Bitwise transparency.**  On a clean transport, an interpretation
  computed through a broker handle is bitwise identical to one computed
  directly against the API.  This is structural, not numerical luck: a
  fused trip scores each caller's block with an independent model call
  (see :meth:`PredictionAPI.predict_proba_blocks`), so fusing changes
  *when* rows travel, never *what* comes back.
* **Exact meter attribution.**  Every successfully answered row is
  committed to exactly one handle, and transports fail *before* the
  model scores anything, so ``sum(handle.query_count for all handles) ==
  api.query_count`` holds exactly — including under fault injection and
  retries.  The one exclusion is an asynchronous ``BaseException``
  (``KeyboardInterrupt``) killing a trip mid-flight: the API may have
  committed rows no handle ever received, which is why such aborts are
  surfaced as non-retryable unknown-outcome errors.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.api.service import PredictionAPI
from repro.exceptions import (
    APIBudgetExceededError,
    RateLimitedError,
    TransientTransportError,
    TransportError,
    TransportExhaustedError,
    ValidationError,
)
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "QueryClient",
    "Transport",
    "DirectTransport",
    "SimulatedTransport",
    "RetryPolicy",
    "BrokerStats",
    "BrokerHandle",
    "QueryBroker",
]


@runtime_checkable
class QueryClient(Protocol):
    """The query surface interpreters are allowed to touch.

    Both :class:`~repro.api.PredictionAPI` and :class:`BrokerHandle`
    satisfy it, so :mod:`repro.core` interpreters accept either — a
    direct API for standalone use, a broker handle when round trips
    should coalesce across concurrent interpretations.
    """

    @property
    def n_features(self) -> int: ...  # pragma: no cover - protocol

    @property
    def n_classes(self) -> int: ...  # pragma: no cover - protocol

    @property
    def query_count(self) -> int: ...  # pragma: no cover - protocol

    def predict_proba(self, X: np.ndarray) -> np.ndarray: ...  # pragma: no cover


class Transport(Protocol):
    """One wire to a prediction API: deliver a fused round trip.

    ``send`` takes the blocks of one fused trip and returns one
    probability array per block (in order), or raises a
    :class:`~repro.exceptions.TransportError` *before any row was
    scored* — the failure model of a request that never reached the
    service, which is what keeps meter attribution exact.
    """

    #: The metered API behind the wire.
    api: PredictionAPI

    def send(self, blocks: list[np.ndarray]) -> list[np.ndarray]:  # pragma: no cover
        ...


class DirectTransport:
    """The clean wire: every round trip succeeds, zero latency."""

    def __init__(self, api: PredictionAPI):
        if not isinstance(api, PredictionAPI):
            raise ValidationError(
                f"api must be a PredictionAPI, got {type(api).__name__}"
            )
        self.api = api

    def send(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        return self.api.predict_proba_blocks(blocks)


class SimulatedTransport:
    """A lossy wire: latency, rate-limit 429s, seeded transient failures.

    All failures happen *before* the API is touched (a refused or lost
    request never reaches the model), so failed trips consume no query
    budget and attribution stays exact.

    Parameters
    ----------
    api:
        The backing service.
    latency_s:
        Fixed per-trip latency (slept via ``sleep``; pass
        ``sleep=None`` to only record it).
    per_row_latency_s:
        Additional latency per fused row (serialization cost).
    failure_prob:
        Probability a trip fails with
        :class:`~repro.exceptions.TransientTransportError`, drawn from a
        generator seeded by ``seed`` — runs are reproducible.
    rate_per_s / burst:
        Token-bucket rate limit: at most ``burst`` trips back-to-back,
        refilled at ``rate_per_s``; an empty bucket raises
        :class:`~repro.exceptions.RateLimitedError` carrying the refill
        wait as ``retry_after_s``.  ``None`` disables rate limiting.
    seed:
        Failure-injection seed (deterministic).
    sleep / clock:
        Injectable timing (tests pass a fake clock and ``sleep=None`` to
        run instantly).
    """

    def __init__(
        self,
        api: PredictionAPI,
        *,
        latency_s: float = 0.0,
        per_row_latency_s: float = 0.0,
        failure_prob: float = 0.0,
        rate_per_s: float | None = None,
        burst: int = 1,
        seed: SeedLike = None,
        sleep: Callable[[float], None] | None = time.sleep,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if not isinstance(api, PredictionAPI):
            raise ValidationError(
                f"api must be a PredictionAPI, got {type(api).__name__}"
            )
        if latency_s < 0 or per_row_latency_s < 0:
            raise ValidationError("latencies must be >= 0")
        if not 0.0 <= failure_prob <= 1.0:
            raise ValidationError(
                f"failure_prob must be in [0, 1], got {failure_prob}"
            )
        if rate_per_s is not None and rate_per_s <= 0:
            raise ValidationError(f"rate_per_s must be > 0, got {rate_per_s}")
        if burst < 1:
            raise ValidationError(f"burst must be >= 1, got {burst}")
        self.api = api
        self.latency_s = float(latency_s)
        self.per_row_latency_s = float(per_row_latency_s)
        self.failure_prob = float(failure_prob)
        self.rate_per_s = rate_per_s
        self.burst = int(burst)
        # Deterministic fault injection must not interleave draws.
        self._rng = as_generator(seed)  # guarded-by: _lock
        self._sleep = sleep
        self._clock = clock
        self._tokens = float(burst)     # guarded-by: _lock
        self._last_refill = clock()     # guarded-by: _lock
        self._lock = threading.Lock()

    def _take_token(self) -> None:
        with self._lock:
            now = self._clock()
            self._tokens = min(
                float(self.burst),
                self._tokens + (now - self._last_refill) * self.rate_per_s,
            )
            self._last_refill = now
            if self._tokens < 1.0:
                retry_after = (1.0 - self._tokens) / self.rate_per_s
                raise RateLimitedError(
                    f"rate limit exceeded ({self.rate_per_s:g} trips/s, "
                    f"burst {self.burst})",
                    retry_after_s=retry_after,
                )
            self._tokens -= 1.0

    def send(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        if self.rate_per_s is not None:
            self._take_token()
        with self._lock:
            fail = self.failure_prob > 0.0 and (
                float(self._rng.random()) < self.failure_prob
            )
        if fail:
            raise TransientTransportError(
                "simulated transient transport failure (request lost in "
                "transit; no rows were scored)"
            )
        latency = self.latency_s + self.per_row_latency_s * sum(
            block.shape[0] for block in blocks
        )
        if latency > 0 and self._sleep is not None:
            self._sleep(latency)
        return self.api.predict_proba_blocks(blocks)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for retryable transport failures.

    ``max_retries`` is the number of *re*-tries after the initial
    attempt; backoff for retry ``k`` (1-based) is
    ``min(base_backoff_s * multiplier**(k-1), max_backoff_s)``, raised to
    a rate limit's ``retry_after_s`` when the server suggested one.
    Deliberately jitter-free so retry schedules are reproducible.
    """

    max_retries: int = 3
    base_backoff_s: float = 0.005
    multiplier: float = 2.0
    max_backoff_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValidationError("backoff times must be >= 0")
        if self.multiplier < 1.0:
            raise ValidationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )

    def backoff_s(self, retry: int, error: TransportError) -> float:
        """Seconds to wait before 1-based retry ``retry`` of ``error``."""
        wait = min(
            self.base_backoff_s * self.multiplier ** (retry - 1),
            self.max_backoff_s,
        )
        retry_after = getattr(error, "retry_after_s", None)
        if retry_after is not None:
            wait = max(wait, float(retry_after))
        return wait


@dataclass(frozen=True)
class BrokerStats:
    """Counters of one :class:`QueryBroker` (snapshot; see ``stats()``).

    Attributes
    ----------
    n_requests:
        Logical ``predict_proba`` calls submitted through handles.
    n_rows:
        Instance rows those calls carried.
    n_round_trips:
        Fused round trips delivered successfully.
    n_coalesced:
        Logical requests that traveled in a fused trip alongside at
        least one other request (every member of a multi-request trip
        counts; solo trips contribute nothing).
    max_fused_rows / max_fused_requests:
        Largest fused trip observed (rows / logical requests).
    n_retries:
        Individual retry attempts performed after retryable failures.
    n_rate_limited / n_transient:
        Retryable failures observed, by kind.
    n_exhausted:
        Fused trips abandoned after the retry budget ran out (each
        resolves *all* its callers with ``transport_failed``).
    """

    n_requests: int
    n_rows: int
    n_round_trips: int
    n_coalesced: int
    max_fused_rows: int
    max_fused_requests: int
    n_retries: int
    n_rate_limited: int
    n_transient: int
    n_exhausted: int

    @property
    def round_trip_reduction(self) -> float:
        """Logical requests per delivered fused trip (1.0 = no fusion)."""
        if not self.n_round_trips:
            return 0.0
        return self.n_requests / self.n_round_trips

    def as_dict(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "n_rows": self.n_rows,
            "n_round_trips": self.n_round_trips,
            "n_coalesced": self.n_coalesced,
            "max_fused_rows": self.max_fused_rows,
            "max_fused_requests": self.max_fused_requests,
            "n_retries": self.n_retries,
            "n_rate_limited": self.n_rate_limited,
            "n_transient": self.n_transient,
            "n_exhausted": self.n_exhausted,
            "round_trip_reduction": self.round_trip_reduction,
        }


class _Ticket:
    """One caller's block riding one fused trip."""

    __slots__ = ("block", "handle", "event", "result", "error")

    def __init__(self, block: np.ndarray, handle: "BrokerHandle"):
        self.block = block
        self.handle = handle
        self.event = threading.Event()
        self.result: np.ndarray | None = None
        self.error: Exception | None = None


class BrokerHandle:
    """One caller's private, exactly-attributed view of a broker.

    Satisfies :class:`QueryClient`, so any interpreter runs over it
    unmodified.  ``query_count`` / ``request_count`` meter only what
    *this* handle was answered: rows commit on successful delivery, one
    logical round trip per ``predict_proba`` call — summing
    ``query_count`` across all of a broker's handles reproduces the
    backing API's query meter exactly.

    A handle is a single-caller object: one thread issues its queries at
    a time (each interpreter/worker takes its own handle via
    :meth:`QueryBroker.handle`).
    """

    def __init__(self, broker: "QueryBroker", name: str):
        self._broker = broker
        self.name = name
        self._query_count = 0
        self._request_count = 0

    @property
    def n_features(self) -> int:
        return self._broker.api.n_features

    @property
    def n_classes(self) -> int:
        return self._broker.api.n_classes

    @property
    def query_count(self) -> int:
        """Rows successfully answered through this handle."""
        return self._query_count

    @property
    def budget(self) -> int | None:
        """The backing API's hard query budget (shared by every handle)."""
        return self._broker.api.budget

    @property
    def request_count(self) -> int:
        """Logical round trips (``predict_proba`` calls) this handle made.

        The *physical* trips are the broker's fused ones; this is the
        sequential-equivalent count the fusion is measured against.
        """
        return self._request_count

    def _commit(self, n_rows: int) -> None:
        self._query_count += int(n_rows)
        self._request_count += 1

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Queue one logical query on the broker and block for its rows.

        A 1-D input returns a 1-D probability vector, matching
        :meth:`PredictionAPI.predict_proba`.  Shape errors are raised
        here, in the caller, before anything is enqueued — an invalid
        request must never poison a fused trip.
        """
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValidationError(
                f"expected instances with {self.n_features} features, "
                f"got {X.shape}"
            )
        if X.shape[0] == 0:
            # The direct API answers an empty batch locally ((0, C), one
            # logical round trip, zero rows); mirror that here — a 0-row
            # block must never ride a fused trip (the blocks endpoint
            # rejects it), and there is nothing to ask the service.
            self._commit(0)
            return np.empty((0, self.n_classes), dtype=np.float64)
        result = self._broker._submit(_Ticket(X, self))
        return result[0] if single else result


class QueryBroker:
    """Coalesce concurrent API queries into fused, retried round trips.

    Callers obtain a :class:`BrokerHandle` and query it like an API.
    Submissions gather in a pending queue; the first submitter becomes
    the *leader*, waits up to ``window_s`` for concurrent callers to pile
    on (or until ``max_rows`` rows are pending), then dispatches one
    fused :meth:`~repro.api.PredictionAPI.predict_proba_blocks` round
    trip through the transport — retrying retryable failures per
    ``retry`` — and scatters the per-block results back to their
    callers.  Leadership hands over automatically when the queue drains.

    Per-caller row ordering is trivially preserved (a caller's rows
    travel as one contiguous block), and per-caller metering is exact
    (rows commit to exactly the handle they answered, only on success).

    Parameters
    ----------
    transport:
        The wire (:class:`DirectTransport`,
        :class:`SimulatedTransport`, or anything satisfying
        :class:`Transport`).  A bare :class:`PredictionAPI` is accepted
        and wrapped in a :class:`DirectTransport`.
    window_s:
        Coalescing window: how long the leader holds a fused trip open
        for more callers.  0 dispatches immediately (still fusing
        whatever already queued).  While the broker has issued at most
        one handle no concurrent caller can exist (handles are
        single-caller objects), so the leader skips the window and
        dispatches immediately — a lone caller never pays the window as
        pure per-trip latency.
    max_rows:
        Row cap per fused trip; a trip dispatches early when full.  A
        single over-sized block still travels (alone) — blocks are never
        split.
    retry:
        The :class:`RetryPolicy` for retryable transport failures.
    coalesce:
        ``False`` turns fusion off: every logical request dispatches as
        its own round trip (retry/metering machinery unchanged).  This
        is the broker-off baseline of ``benchmarks/bench_transport.py``.
    sleep:
        Injectable backoff sleep (tests pass ``None`` to retry
        instantly).
    """

    def __init__(
        self,
        transport: Transport | PredictionAPI,
        *,
        window_s: float = 0.002,
        max_rows: int = 4096,
        retry: RetryPolicy | None = None,
        coalesce: bool = True,
        sleep: Callable[[float], None] | None = time.sleep,
    ):
        if isinstance(transport, PredictionAPI):
            transport = DirectTransport(transport)
        if window_s < 0:
            raise ValidationError(f"window_s must be >= 0, got {window_s}")
        if max_rows < 1:
            raise ValidationError(f"max_rows must be >= 1, got {max_rows}")
        self.transport = transport
        self.window_s = float(window_s)
        self.max_rows = int(max_rows)
        self.retry = retry if retry is not None else RetryPolicy()
        self.coalesce = bool(coalesce)
        self._sleep = sleep
        self._cv = threading.Condition()
        self._pending: deque[_Ticket] = deque()  # guarded-by: _cv
        self._leader_active = False              # guarded-by: _cv
        self._handles: list[BrokerHandle] = []   # guarded-by: _cv
        self._stats_lock = threading.Lock()
        self._n_requests = 0         # guarded-by: _stats_lock
        self._n_rows = 0             # guarded-by: _stats_lock
        self._n_round_trips = 0      # guarded-by: _stats_lock
        self._n_coalesced = 0        # guarded-by: _stats_lock
        self._max_fused_rows = 0     # guarded-by: _stats_lock
        self._max_fused_requests = 0  # guarded-by: _stats_lock
        self._n_retries = 0          # guarded-by: _stats_lock
        self._n_rate_limited = 0     # guarded-by: _stats_lock
        self._n_transient = 0        # guarded-by: _stats_lock
        self._n_exhausted = 0        # guarded-by: _stats_lock

    # ------------------------------------------------------------------ #
    @property
    def api(self) -> PredictionAPI:
        """The metered API at the far end of the transport."""
        return self.transport.api

    def handle(self, name: str | None = None) -> BrokerHandle:
        """A new caller handle (one per interpreter/worker/thread)."""
        with self._cv:
            handle = BrokerHandle(
                self, name if name is not None else f"caller-{len(self._handles)}"
            )
            self._handles.append(handle)
        return handle

    @property
    def handles(self) -> tuple[BrokerHandle, ...]:
        """Every handle issued so far (observability / attribution sums)."""
        with self._cv:
            return tuple(self._handles)

    def stats(self) -> BrokerStats:
        with self._stats_lock:
            return BrokerStats(
                n_requests=self._n_requests,
                n_rows=self._n_rows,
                n_round_trips=self._n_round_trips,
                n_coalesced=self._n_coalesced,
                max_fused_rows=self._max_fused_rows,
                max_fused_requests=self._max_fused_requests,
                n_retries=self._n_retries,
                n_rate_limited=self._n_rate_limited,
                n_transient=self._n_transient,
                n_exhausted=self._n_exhausted,
            )

    # ------------------------------------------------------------------ #
    def _submit(self, ticket: _Ticket) -> np.ndarray:
        with self._stats_lock:
            self._n_requests += 1
            self._n_rows += ticket.block.shape[0]
        if not self.coalesce:
            self._dispatch([ticket])
        else:
            with self._cv:
                self._pending.append(ticket)
                lead = not self._leader_active
                if lead:
                    self._leader_active = True
                else:
                    # Wake a window-waiting leader if this submission
                    # filled the fused trip.
                    self._cv.notify_all()
            if lead:
                self._lead()
        ticket.event.wait()
        if ticket.error is not None:
            raise ticket.error
        assert ticket.result is not None
        return ticket.result

    def _rows_pending(self) -> int:  # requires-lock: _cv
        return sum(t.block.shape[0] for t in self._pending)

    @staticmethod
    def _fail_tickets(tickets: list[_Ticket], error: Exception) -> None:
        """Resolve every ticket with ``error`` — the one way a trip fails,
        so no path can ever leave a caller waiting on an unset event."""
        for ticket in tickets:
            ticket.error = error
            ticket.event.set()

    def _lead(self) -> None:
        """Drain the pending queue as fused trips, then hand leadership off.

        The leader is an ordinary caller thread: it flushes until the
        queue is empty (resolving its own ticket along the way), so no
        dedicated broker thread exists and an idle broker costs nothing.

        If the leader dies abnormally (``KeyboardInterrupt`` during the
        window wait, a non-``Exception`` escaping dispatch), it must not
        wedge the broker: leadership is released and every ticket the
        dead leader was responsible for is resolved — still-queued
        tickets with a *retryable* error (they never traveled, so
        resubmitting is safe), tickets already popped for the in-flight
        trip with a non-retryable unknown-outcome error (the trip may
        have reached the API) — and the original exception propagates
        to the leading caller.
        """
        batch: list[_Ticket] = []
        try:
            while True:
                with self._cv:
                    # A single-handle broker cannot have a concurrent
                    # caller, so waiting out the window would be pure
                    # added latency with no fusion possible.  The gate is
                    # deliberately this conservative: once more handles
                    # exist, a lone *active* caller (idle workers, drain)
                    # still pays the window, because lock-step callers
                    # arrive staggered mid-window and any gate keyed on
                    # who is blocked *right now* would dispatch before
                    # they show up, collapsing fusion for the workload
                    # the broker exists for.
                    if self.window_s > 0 and len(self._handles) > 1:
                        deadline = time.perf_counter() + self.window_s
                        while self._rows_pending() < self.max_rows:
                            remaining = deadline - time.perf_counter()
                            if remaining <= 0:
                                break
                            self._cv.wait(remaining)
                    batch = []
                    rows = 0
                    while self._pending:
                        nxt = self._pending[0].block.shape[0]
                        if batch and rows + nxt > self.max_rows:
                            break
                        ticket = self._pending.popleft()
                        batch.append(ticket)
                        rows += nxt
                if batch:
                    self._dispatch(batch)
                with self._cv:
                    if not self._pending:
                        self._leader_active = False
                        return
        except BaseException:
            with self._cv:
                self._leader_active = False
                stranded = list(self._pending)
                self._pending.clear()
                self._cv.notify_all()
            self._fail_tickets(
                stranded,
                TransientTransportError(
                    "broker leader thread died before this request was "
                    "dispatched (no rows were scored; resubmitting is safe)"
                ),
            )
            # Tickets popped for the in-flight trip but never resolved are
            # also stranded, but their trip may already have reached the
            # API — resolve them with the conservative unknown-outcome
            # error instead of promising a safe resubmit.
            self._fail_tickets(
                [t for t in batch if not t.event.is_set()],
                TransportError(
                    "broker leader thread died with this request's fused "
                    "trip in flight; outcome unknown — rows may have been "
                    "scored and metered, check the API meters before "
                    "resubmitting"
                ),
            )
            raise

    def _dispatch(self, batch: list[_Ticket]) -> None:
        """Deliver one fused trip (with retries); never raises an ordinary
        ``Exception`` — outcomes travel back to the callers through their
        tickets.  A non-``Exception`` (``KeyboardInterrupt`` etc.) still
        resolves every ticket before propagating, so no caller is left
        waiting forever on an event that will never be set."""
        blocks = [t.block for t in batch]
        try:
            results = self._send_with_retries(blocks)
        except APIBudgetExceededError as exc:
            if len(batch) > 1:
                # The *fused* row total tripped the budget check, but a
                # smaller request might still fit — near exhaustion the
                # broker must not fail callers that would have succeeded
                # alone.  Budget refusals burn nothing, so re-dispatching
                # each caller's block solo is free and lets whichever
                # requests the remaining budget covers go through.
                for ticket in batch:
                    self._dispatch([ticket])
                return
            self._fail_tickets(batch, exc)
            return
        except Exception as exc:  # boundary: dispatch resolver — every ticket must resolve (callers block on the event), so any failure becomes the tickets' error
            self._fail_tickets(batch, exc)
            return
        except BaseException as exc:
            # The interrupt may have landed before the trip was sent, or
            # after the API already committed its rows — the outcome is
            # unknown, so a blind resubmit cannot be advertised as safe
            # (it could double-spend budget).
            self._fail_tickets(
                batch,
                TransportError(
                    f"round trip aborted by {type(exc).__name__} in the "
                    f"dispatching thread; outcome unknown — rows may have "
                    f"been scored and metered, check the API meters before "
                    f"resubmitting"
                ),
            )
            raise
        if len(results) != len(batch):
            # A pluggable Transport that mis-counts must fail loudly:
            # zip-truncating here would leave unmatched tickets' events
            # forever unset and their callers blocked without a timeout.
            self._fail_tickets(
                batch,
                TransportError(
                    f"transport returned {len(results)} result block(s) "
                    f"for a {len(batch)}-block fused trip; results cannot "
                    f"be attributed to callers"
                ),
            )
            return
        with self._stats_lock:
            self._n_round_trips += 1
            if len(batch) > 1:
                self._n_coalesced += len(batch)
            self._max_fused_rows = max(
                self._max_fused_rows, sum(b.shape[0] for b in blocks)
            )
            self._max_fused_requests = max(self._max_fused_requests, len(batch))
        for ticket, result in zip(batch, results):
            ticket.handle._commit(ticket.block.shape[0])
            ticket.result = result
            ticket.event.set()

    def _send_with_retries(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        attempt = 1
        while True:
            try:
                return self.transport.send(blocks)
            except TransportError as exc:
                if not exc.retryable:
                    raise
                with self._stats_lock:
                    if isinstance(exc, RateLimitedError):
                        self._n_rate_limited += 1
                    else:
                        self._n_transient += 1
                if attempt > self.retry.max_retries:
                    with self._stats_lock:
                        self._n_exhausted += 1
                    raise TransportExhaustedError(
                        f"round trip failed {attempt} time(s); retry budget "
                        f"({self.retry.max_retries} retries) exhausted: "
                        f"{type(exc).__name__}: {exc}",
                        attempts=attempt,
                        last_error=exc,
                    ) from exc
                with self._stats_lock:
                    self._n_retries += 1
                wait = self.retry.backoff_s(attempt, exc)
                if wait > 0 and self._sleep is not None:
                    self._sleep(wait)
                attempt += 1
