"""Query-transport broker: coalescing, retries, metering, envelopes.

Covers the two load-bearing invariants of :mod:`repro.api.transport`
(bitwise transparency of fused trips, exact per-caller query-meter
attribution), the failure machinery (retry/backoff, rate limits,
exhaustion as ``transport_failed`` envelopes), and the serving-layer
integration (brokered flush workers, mid-run transport death).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import (
    ERROR_TRANSPORT_FAILED,
    BrokerHandle,
    DirectTransport,
    PredictionAPI,
    QueryBroker,
    QueryClient,
    RetryPolicy,
    SimulatedTransport,
)
from repro.core import BatchOpenAPIInterpreter, OpenAPIInterpreter
from repro.exceptions import (
    APIBudgetExceededError,
    RateLimitedError,
    TransientTransportError,
    TransportError,
    TransportExhaustedError,
    ValidationError,
)
from repro.serving import InterpretationService


class FlakyScriptedTransport:
    """Fails the first ``n_failures`` sends, then delegates to the API."""

    def __init__(self, api: PredictionAPI, n_failures: int, error=None):
        self.api = api
        self.n_failures = n_failures
        self.sends = 0
        self.error = error or TransientTransportError("scripted failure")

    def send(self, blocks):
        self.sends += 1
        if self.sends <= self.n_failures:
            raise self.error
        return self.api.predict_proba_blocks(blocks)


def make_broker(api, **kwargs):
    kwargs.setdefault("window_s", 0.0)
    kwargs.setdefault("sleep", None)
    return QueryBroker(DirectTransport(api), **kwargs)


class TestPredictProbaBlocks:
    def test_one_round_trip_many_blocks(self, linear_api, blobs3):
        before_q, before_t = linear_api.query_count, linear_api.request_count
        blocks = [blobs3.X[:3], blobs3.X[3:4], blobs3.X[4:9]]
        results = linear_api.predict_proba_blocks(blocks)
        assert linear_api.request_count - before_t == 1
        assert linear_api.query_count - before_q == 9
        assert [r.shape for r in results] == [(3, 3), (1, 3), (5, 3)]

    def test_blocks_bitwise_equal_solo_calls(self, linear_api, blobs3):
        blocks = [blobs3.X[:4], blobs3.X[10:11], blobs3.X[4:10]]
        fused = linear_api.predict_proba_blocks(blocks)
        for block, result in zip(blocks, fused):
            solo = linear_api.predict_proba(block)
            assert np.array_equal(solo, result)

    def test_validation(self, linear_api, blobs3):
        with pytest.raises(ValidationError):
            linear_api.predict_proba_blocks([])
        with pytest.raises(ValidationError):
            linear_api.predict_proba_blocks([blobs3.X[0]])  # 1-D block
        with pytest.raises(ValidationError):
            linear_api.predict_proba_blocks([blobs3.X[:0]])  # empty block

    def test_budget_checked_before_scoring(self, linear_model, blobs3):
        api = PredictionAPI(linear_model, budget=5)
        with pytest.raises(APIBudgetExceededError):
            api.predict_proba_blocks([blobs3.X[:3], blobs3.X[3:6]])
        assert api.query_count == 0
        assert api.request_count == 0


class TestMeterCommitOnSuccess:
    """Regression: the meter used to commit *before* the model ran, so a
    mid-batch failure permanently burnt budget for undelivered answers."""

    class _Boom:
        def __call__(self, probs):
            raise RuntimeError("mid-batch model failure")

    def test_failed_call_burns_nothing(self, linear_model, blobs3):
        api = PredictionAPI(linear_model, budget=10, transform=self._Boom())
        with pytest.raises(RuntimeError):
            api.predict_proba(blobs3.X[:4])
        assert api.query_count == 0
        assert api.request_count == 0

    def test_budget_survives_failures_then_serves(self, linear_model, blobs3):
        api = PredictionAPI(linear_model, budget=4, transform=self._Boom())
        for _ in range(3):
            with pytest.raises(RuntimeError):
                api.predict_proba(blobs3.X[:4])
        # Without commit-on-success three failed calls would have burnt
        # 12 > 4 rows of budget; the full budget must still be available.
        api._transform = None
        assert api.predict_proba(blobs3.X[:4]).shape == (4, 3)
        assert api.query_count == 4


class TestBrokerBasics:
    def test_handle_satisfies_query_client(self, linear_api):
        handle = make_broker(linear_api).handle("h")
        assert isinstance(handle, QueryClient)
        assert isinstance(linear_api, QueryClient)
        assert handle.n_features == linear_api.n_features
        assert handle.n_classes == linear_api.n_classes

    def test_single_caller_bitwise_and_meters(self, linear_model, blobs3):
        api = PredictionAPI(linear_model)
        broker = make_broker(api)
        handle = broker.handle("solo")
        direct = PredictionAPI(linear_model)

        row = handle.predict_proba(blobs3.X[0])
        mat = handle.predict_proba(blobs3.X[:5])
        assert np.array_equal(row, direct.predict_proba(blobs3.X[0]))
        assert np.array_equal(mat, direct.predict_proba(blobs3.X[:5]))
        assert row.ndim == 1 and mat.shape == (5, 3)
        assert handle.query_count == 6 == api.query_count
        assert handle.request_count == 2

    def test_shape_errors_raised_in_caller(self, linear_model):
        api = PredictionAPI(linear_model)
        handle = make_broker(api).handle()
        with pytest.raises(ValidationError):
            handle.predict_proba(np.zeros(4))  # wrong width
        assert api.query_count == 0

    def test_empty_batch_mirrors_direct_api(self, linear_model):
        """A 0-row 2-D batch is answered like the direct API does it:
        an empty ``(0, C)`` result and one zero-row logical round trip,
        never a 0-row block on a fused trip."""
        api = PredictionAPI(linear_model)
        direct = PredictionAPI(linear_model)
        handle = make_broker(api).handle()
        empty = np.zeros((0, direct.n_features))
        out = handle.predict_proba(empty)
        ref = direct.predict_proba(empty)
        assert out.shape == ref.shape == (0, direct.n_classes)
        assert out.dtype == ref.dtype
        assert handle.query_count == 0 == api.query_count
        assert handle.request_count == 1 == direct.request_count
        # No physical trip traveled for the empty batch.
        assert api.request_count == 0

    def test_validation(self, linear_api):
        with pytest.raises(ValidationError):
            QueryBroker(DirectTransport(linear_api), window_s=-1)
        with pytest.raises(ValidationError):
            QueryBroker(DirectTransport(linear_api), max_rows=0)
        with pytest.raises(ValidationError):
            DirectTransport("not an api")

    def test_bare_api_wrapped_in_direct_transport(self, linear_api, blobs3):
        broker = QueryBroker(linear_api, window_s=0.0)
        assert broker.api is linear_api
        handle = broker.handle()
        assert handle.predict_proba(blobs3.X[:2]).shape == (2, 3)


class TestBrokerCoalescing:
    def test_concurrent_callers_fuse_trips(self, linear_model, blobs3):
        api = PredictionAPI(linear_model)
        broker = QueryBroker(DirectTransport(api), window_s=0.05)
        n = 8
        results: list[np.ndarray | None] = [None] * n
        barrier = threading.Barrier(n)

        def work(i):
            handle = broker.handle(f"c{i}")
            barrier.wait()
            results[i] = handle.predict_proba(blobs3.X[i * 3:(i + 1) * 3])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Ordering/content: every caller got exactly its own rows.
        reference = PredictionAPI(linear_model)
        for i in range(n):
            expected = reference.predict_proba(blobs3.X[i * 3:(i + 1) * 3])
            assert np.array_equal(results[i], expected)
        # Fusion: far fewer physical trips than logical requests.
        stats = broker.stats()
        assert stats.n_requests == n
        assert api.request_count < n
        assert stats.n_round_trips == api.request_count
        assert stats.max_fused_requests >= 2
        # Attribution: handle meters sum to the API meter.
        assert sum(h.query_count for h in broker.handles) == api.query_count

    def test_max_rows_splits_fused_trips(self, linear_api, blobs3):
        broker = QueryBroker(
            DirectTransport(linear_api), window_s=0.0, max_rows=4
        )
        handle = broker.handle()
        # A single block larger than max_rows still travels (alone).
        out = handle.predict_proba(blobs3.X[:6])
        assert out.shape == (6, 3)

    def test_interpretation_through_handle_bitwise(self, relu_api, relu_model, blobs3):
        direct = OpenAPIInterpreter(seed=5).interpret(relu_api, blobs3.X[1])
        api = PredictionAPI(relu_model)
        handle = make_broker(api).handle()
        brokered = OpenAPIInterpreter(seed=5).interpret(handle, blobs3.X[1])
        assert np.array_equal(
            direct.decision_features, brokered.decision_features
        )
        assert direct.n_queries == brokered.n_queries
        assert direct.iterations == brokered.iterations


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(
            max_retries=5, base_backoff_s=0.01, multiplier=2.0,
            max_backoff_s=0.05,
        )
        err = TransientTransportError("x")
        assert policy.backoff_s(1, err) == pytest.approx(0.01)
        assert policy.backoff_s(2, err) == pytest.approx(0.02)
        assert policy.backoff_s(4, err) == pytest.approx(0.05)  # capped

    def test_rate_limit_retry_after_wins(self):
        policy = RetryPolicy(base_backoff_s=0.01)
        err = RateLimitedError("429", retry_after_s=0.5)
        assert policy.backoff_s(1, err) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValidationError):
            RetryPolicy(base_backoff_s=-1)


class TestBrokerRetries:
    def test_transient_failures_survived(self, linear_model, blobs3):
        api = PredictionAPI(linear_model)
        transport = FlakyScriptedTransport(api, n_failures=3)
        broker = QueryBroker(
            transport, window_s=0.0, retry=RetryPolicy(max_retries=3),
            sleep=None,
        )
        handle = broker.handle()
        out = handle.predict_proba(blobs3.X[:2])
        assert np.array_equal(out, linear_model.predict_proba(blobs3.X[:2]))
        assert transport.sends == 4
        stats = broker.stats()
        assert stats.n_retries == 3
        assert stats.n_transient == 3
        assert stats.n_exhausted == 0
        assert handle.query_count == 2 == api.query_count

    def test_exhaustion_raises_and_burns_nothing(self, linear_model, blobs3):
        api = PredictionAPI(linear_model)
        transport = FlakyScriptedTransport(api, n_failures=100)
        broker = QueryBroker(
            transport, window_s=0.0, retry=RetryPolicy(max_retries=2),
            sleep=None,
        )
        handle = broker.handle()
        with pytest.raises(TransportExhaustedError) as excinfo:
            handle.predict_proba(blobs3.X[:2])
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error, TransientTransportError)
        assert api.query_count == 0
        assert handle.query_count == 0
        assert broker.stats().n_exhausted == 1
        # The broker must stay serviceable after an exhausted trip.
        transport.n_failures = 0
        assert handle.predict_proba(blobs3.X[:2]).shape == (2, 3)

    def test_budget_error_passes_through_unretried(self, linear_model, blobs3):
        api = PredictionAPI(linear_model, budget=3)
        transport = FlakyScriptedTransport(api, n_failures=0)
        broker = QueryBroker(transport, window_s=0.0, sleep=None)
        handle = broker.handle()
        with pytest.raises(APIBudgetExceededError):
            handle.predict_proba(blobs3.X[:5])
        assert transport.sends == 1  # budget failures are not retryable
        assert api.query_count == 0

    def test_fused_budget_refusal_splits_per_caller(self, linear_model, blobs3):
        """Near budget exhaustion the broker must not fail a caller whose
        request would have succeeded alone: a fused trip refused by the
        budget check re-dispatches each caller's block solo."""
        api = PredictionAPI(linear_model, budget=10)
        broker = QueryBroker(DirectTransport(api), window_s=0.05)
        outcomes: list[object] = [None, None]
        barrier = threading.Barrier(2)

        def work(i):
            handle = broker.handle(f"c{i}")
            barrier.wait()
            try:
                outcomes[i] = handle.predict_proba(blobs3.X[:6])
            except APIBudgetExceededError as exc:
                outcomes[i] = exc

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Whether or not the window fused them, exactly one 6-row request
        # fits the 10-row budget; the other gets the budget error.
        ok = [o for o in outcomes if isinstance(o, np.ndarray)]
        failed = [o for o in outcomes if isinstance(o, APIBudgetExceededError)]
        assert len(ok) == 1 and len(failed) == 1
        assert ok[0].shape == (6, 3)
        assert api.query_count == 6
        assert sum(h.query_count for h in broker.handles) == 6


class TestSimulatedTransport:
    def test_failure_injection_deterministic(self, linear_api, blobs3):
        outcomes = []
        for _ in range(2):
            transport = SimulatedTransport(
                linear_api, failure_prob=0.5, seed=42, sleep=None
            )
            run = []
            for _ in range(10):
                try:
                    transport.send([blobs3.X[:1]])
                    run.append("ok")
                except TransientTransportError:
                    run.append("fail")
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert "fail" in outcomes[0] and "ok" in outcomes[0]

    def test_rate_limit_token_bucket(self, linear_api, blobs3):
        clock = {"t": 0.0}
        transport = SimulatedTransport(
            linear_api, rate_per_s=2.0, burst=2, sleep=None,
            clock=lambda: clock["t"],
        )
        transport.send([blobs3.X[:1]])
        transport.send([blobs3.X[:1]])
        with pytest.raises(RateLimitedError) as excinfo:
            transport.send([blobs3.X[:1]])
        assert excinfo.value.retry_after_s == pytest.approx(0.5)
        clock["t"] += 0.6  # refill > 1 token
        transport.send([blobs3.X[:1]])

    def test_latency_recorded_via_injected_sleep(self, linear_api, blobs3):
        slept = []
        transport = SimulatedTransport(
            linear_api, latency_s=0.01, per_row_latency_s=0.001,
            sleep=slept.append,
        )
        transport.send([blobs3.X[:3], blobs3.X[:2]])
        assert slept == [pytest.approx(0.01 + 0.005)]

    def test_validation(self, linear_api):
        with pytest.raises(ValidationError):
            SimulatedTransport(linear_api, failure_prob=1.5)
        with pytest.raises(ValidationError):
            SimulatedTransport(linear_api, latency_s=-1)
        with pytest.raises(ValidationError):
            SimulatedTransport(linear_api, rate_per_s=0)
        with pytest.raises(ValidationError):
            SimulatedTransport(linear_api, burst=0)


class TestAttributionUnderFaults:
    def test_handles_sum_to_api_meter(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        broker = QueryBroker(
            SimulatedTransport(api, failure_prob=0.3, seed=3, sleep=None),
            window_s=0.01,
            retry=RetryPolicy(max_retries=16),
            sleep=None,
        )
        n = 6
        errors: list[Exception | None] = [None] * n
        barrier = threading.Barrier(n)

        def work(i):
            handle = broker.handle(f"c{i}")
            interpreter = OpenAPIInterpreter(seed=20 + i)
            barrier.wait()
            try:
                interpreter.interpret(handle, blobs3.X[i])
            except Exception as exc:  # noqa: BLE001
                errors[i] = exc

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(e is None for e in errors)
        assert sum(h.query_count for h in broker.handles) == api.query_count
        assert broker.stats().n_round_trips == api.request_count


class TestBatchInterpreterTransport:
    def test_raise_on_transport_false_keeps_partial_results(
        self, relu_model, blobs3
    ):
        api = PredictionAPI(relu_model)
        transport = FlakyScriptedTransport(api, n_failures=0)
        broker = QueryBroker(
            transport, window_s=0.0, retry=RetryPolicy(max_retries=0),
            sleep=None,
        )
        handle = broker.handle()
        y0 = handle.predict_proba(blobs3.X[:3])
        # Let round trip 1 succeed (certifying easy instances), then die.
        transport.sends = 0
        transport.n_failures = 10**9

        def run(**kwargs):
            transport.sends = 0
            return BatchOpenAPIInterpreter(seed=0).interpret_batch(
                handle, blobs3.X[:3], y0=y0, **kwargs
            )

        with pytest.raises(TransportExhaustedError):
            run()
        result = run(raise_on_transport=False)
        assert result.transport_failed
        assert not result.budget_exhausted
        assert all(i is None for i in result.interpretations)
        assert result.n_queries == 0

    def test_probe_trip_covered_by_opt_out_flags(self, relu_model, blobs3):
        """Regression: the round-0 probe (y0=None) sat outside the
        ``raise_on_transport``/``raise_on_budget`` opt-outs, so a failure
        on the very first trip raised the exception the caller had
        opted out of."""
        api = PredictionAPI(relu_model)
        broker = QueryBroker(
            FlakyScriptedTransport(api, n_failures=10**9),
            window_s=0.0, retry=RetryPolicy(max_retries=0), sleep=None,
        )
        result = BatchOpenAPIInterpreter(seed=0).interpret_batch(
            broker.handle(), blobs3.X[:3], raise_on_transport=False
        )
        assert result.transport_failed and not result.budget_exhausted
        assert all(i is None for i in result.interpretations)
        assert result.rounds == 0 and result.n_queries == 0

        budget_api = PredictionAPI(relu_model, budget=1)
        result = BatchOpenAPIInterpreter(seed=0).interpret_batch(
            budget_api, blobs3.X[:3], raise_on_budget=False
        )
        assert result.budget_exhausted and not result.transport_failed
        assert all(i is None for i in result.interpretations)
        assert result.rounds == 0 and result.n_queries == 0

    def test_clean_transport_flag_defaults(self, relu_api, blobs3):
        result = BatchOpenAPIInterpreter(seed=0).interpret_batch(
            relu_api, blobs3.X[:3]
        )
        assert not result.transport_failed


class TestServiceWithBroker:
    def test_brokered_service_bitwise_and_exact_meters(
        self, relu_model, blobs3
    ):
        plain_api = PredictionAPI(relu_model)
        plain = InterpretationService(plain_api, seed=0, max_batch_size=8)
        expected = [r.interpretation for r in plain.interpret_many(blobs3.X[:6])]

        api = PredictionAPI(relu_model)
        broker = make_broker(api)
        service = InterpretationService(
            api, broker=broker, seed=0, max_batch_size=8
        )
        responses = service.interpret_many(blobs3.X[:6])
        assert all(r.ok for r in responses)
        for response, exp in zip(responses, expected):
            assert np.array_equal(
                response.interpretation.decision_features,
                exp.decision_features,
            )
        assert service.stats().n_queries == api.query_count
        assert sum(h.query_count for h in broker.handles) == api.query_count

    def test_broker_must_share_the_api(self, relu_model):
        api = PredictionAPI(relu_model)
        other = PredictionAPI(relu_model)
        with pytest.raises(ValidationError):
            InterpretationService(api, broker=make_broker(other))

    def test_transport_failure_becomes_envelope(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        broker = QueryBroker(
            SimulatedTransport(api, failure_prob=1.0, seed=0, sleep=None),
            window_s=0.0,
            retry=RetryPolicy(max_retries=1),
            sleep=None,
        )
        service = InterpretationService(api, broker=broker, seed=0)
        response = service.interpret(blobs3.X[0])
        assert not response.ok
        assert response.error.code == ERROR_TRANSPORT_FAILED
        assert response.error.retryable
        assert api.query_count == 0

    def test_midrun_transport_death_envelopes_misses(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        transport = FlakyScriptedTransport(api, n_failures=0)
        broker = QueryBroker(
            transport, window_s=0.0, retry=RetryPolicy(max_retries=0),
            sleep=None,
        )
        service = InterpretationService(
            api, broker=broker, seed=0, enable_cache=False, max_batch_size=4
        )

        # Probe succeeds, every lock-step round after it fails.
        real_send = transport.send
        state = {"sent": 0}

        def dying_send(blocks):
            state["sent"] += 1
            if state["sent"] > 1:
                raise TransientTransportError("wire died mid-run")
            return real_send(blocks)

        transport.send = dying_send
        responses = service.interpret_many(blobs3.X[:3])
        assert all(not r.ok for r in responses)
        assert {r.error.code for r in responses} == {ERROR_TRANSPORT_FAILED}
        # Probe rows were delivered and are honestly metered.
        assert service.stats().n_queries == api.query_count == 3

    def test_services_share_one_broker(self, relu_model, blobs3):
        """Two services running concurrently over one broker: each
        speaks through its own handle, and the handles' attribution
        sums to the backing API's meters exactly."""
        api = PredictionAPI(relu_model)
        broker = QueryBroker(DirectTransport(api), window_s=0.005)
        services = [
            InterpretationService(
                api, broker=broker, seed=i, max_batch_size=4
            )
            for i in range(2)
        ]
        rng = np.random.default_rng(0)
        requests = blobs3.X[rng.integers(0, 20, 40)]
        responses: dict[int, list] = {}

        def run(i: int) -> None:
            with services[i]:
                responses[i] = services[i].interpret_many(requests)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r.ok for i in range(2) for r in responses[i])
        assert len(broker.handles) == 2
        assert sum(h.query_count for h in broker.handles) == api.query_count
        stats = broker.stats()
        assert stats.n_round_trips == api.request_count
        assert stats.n_requests >= stats.n_round_trips

    def test_service_speaks_through_one_handle(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        broker = make_broker(api)
        service = InterpretationService(api, broker=broker, seed=0)
        assert service.interpret(blobs3.X[0]).ok
        assert service.interpret(blobs3.X[1]).ok
        (handle,) = broker.handles
        assert isinstance(handle, BrokerHandle)
        assert handle.query_count == api.query_count


class TestMeterThreadSafety:
    """Regression: ``_score_blocks`` used an unsynchronized
    check-then-commit, so concurrent broker-off callers could lose meter
    updates (breaking ``sum(handle.query_count) == api.query_count``) and
    two threads could both pass the budget check, silently overspending."""

    def test_concurrent_round_trips_never_lose_updates(
        self, linear_model, blobs3
    ):
        api = PredictionAPI(linear_model)
        broker = QueryBroker(DirectTransport(api), coalesce=False)
        n_threads, trips_each = 16, 8
        barrier = threading.Barrier(n_threads)

        def work(i):
            handle = broker.handle(f"c{i}")
            barrier.wait()
            for _ in range(trips_each):
                handle.predict_proba(blobs3.X[i % 10 : i % 10 + 3])

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert api.query_count == n_threads * trips_each * 3
        assert api.request_count == n_threads * trips_each
        assert sum(h.query_count for h in broker.handles) == api.query_count

    def test_concurrent_callers_never_overspend_budget(
        self, linear_model, blobs3
    ):
        budget = 30
        api = PredictionAPI(linear_model, budget=budget)
        n_threads = 16
        barrier = threading.Barrier(n_threads)
        delivered = []
        lock = threading.Lock()

        def work(i):
            barrier.wait()
            try:
                probs = api.predict_proba(blobs3.X[i % 10 : i % 10 + 4])
            except APIBudgetExceededError:
                return
            with lock:
                delivered.append(probs.shape[0])

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert api.query_count <= budget
        assert api.query_count == sum(delivered)


class _MiscountingTransport:
    """A buggy pluggable Transport that returns too few result blocks."""

    def __init__(self, api: PredictionAPI):
        self.api = api

    def send(self, blocks):
        return self.api.predict_proba_blocks(blocks)[:-1]


class _DyingTransport:
    """Raises a non-``Exception`` once dispatch is in flight, on cue."""

    class Interrupt(BaseException):
        pass

    def __init__(self, api: PredictionAPI):
        self.api = api
        self.entered = threading.Event()
        self.release = threading.Event()

    def send(self, blocks):
        self.entered.set()
        assert self.release.wait(timeout=5.0)
        raise self.Interrupt()


class TestBrokerResilience:
    def test_miscounting_transport_fails_all_callers_without_hanging(
        self, linear_model, blobs3
    ):
        """Regression: the scatter used plain ``zip``, so a transport
        returning fewer blocks than the fused trip left the unmatched
        tickets blocked forever; now every caller gets a TransportError."""
        api = PredictionAPI(linear_model)
        broker = QueryBroker(
            _MiscountingTransport(api), window_s=0.2, sleep=None
        )
        n = 3
        outcomes: list[object] = [None] * n
        barrier = threading.Barrier(n)

        def work(i):
            handle = broker.handle(f"c{i}")
            barrier.wait()
            try:
                outcomes[i] = handle.predict_proba(blobs3.X[i : i + 2])
            except TransportError as exc:
                outcomes[i] = exc

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert all(isinstance(o, TransportError) for o in outcomes)
        # Unattributable rows are metered to no handle.
        assert sum(h.query_count for h in broker.handles) == 0

    def test_leader_death_fails_stranded_tickets_and_releases_leadership(
        self, linear_model, blobs3
    ):
        """Regression: a non-``Exception`` escaping the leader left
        ``_leader_active`` set forever, wedging every later submission."""
        api = PredictionAPI(linear_model)
        transport = _DyingTransport(api)
        broker = QueryBroker(transport, window_s=0.0, sleep=None)
        leader_outcome: list[object] = [None]
        follower_outcome: list[object] = [None]

        def leader():
            handle = broker.handle("leader")
            try:
                handle.predict_proba(blobs3.X[:2])
            except BaseException as exc:  # noqa: BLE001 — capturing for assert
                leader_outcome[0] = exc

        def follower():
            handle = broker.handle("follower")
            assert transport.entered.wait(timeout=5.0)
            try:
                handle.predict_proba(blobs3.X[2:4])
            except TransportError as exc:
                follower_outcome[0] = exc

        t_lead = threading.Thread(target=leader)
        t_follow = threading.Thread(target=follower)
        t_lead.start()
        # The follower enqueues while the leader's trip is stuck in send().
        t_follow.start()
        assert transport.entered.wait(timeout=5.0)
        # Give the follower a moment to enqueue behind the in-flight trip.
        deadline = 200
        while len(broker._pending) == 0 and deadline > 0:
            time.sleep(0.005)
            deadline -= 1
        transport.release.set()
        t_lead.join(timeout=10.0)
        t_follow.join(timeout=10.0)
        assert not t_lead.is_alive() and not t_follow.is_alive()
        # The original interrupt propagates to the leading caller itself;
        # the stranded follower gets a retryable transport error.
        assert isinstance(leader_outcome[0], _DyingTransport.Interrupt)
        assert isinstance(follower_outcome[0], TransientTransportError)
        # Leadership was released: the broker accepts new traffic.
        broker.transport = DirectTransport(api)
        assert broker.handle("late").predict_proba(blobs3.X[:1]).shape == (1, 3)
        assert not broker._leader_active

    def test_lone_caller_skips_coalescing_window(self, linear_model, blobs3):
        """A single-handle broker cannot fuse with anyone; the leader must
        not stall ``window_s`` per round trip waiting for callers that
        cannot exist."""
        api = PredictionAPI(linear_model)
        broker = QueryBroker(DirectTransport(api), window_s=0.5)
        handle = broker.handle()
        start = time.perf_counter()
        for i in range(4):
            handle.predict_proba(blobs3.X[i : i + 2])
        elapsed = time.perf_counter() - start
        # Four trips through a 0.5 s window would take >= 2 s if the
        # window were paid; skipping it makes them near-instant.
        assert elapsed < 0.4
        assert api.request_count == 4

    def test_second_handle_restores_window_fusion(self, linear_model, blobs3):
        """The skip applies only while one handle exists — two handles
        must still fuse through the window."""
        api = PredictionAPI(linear_model)
        broker = QueryBroker(DirectTransport(api), window_s=0.05)
        n = 4
        outcomes: list[object] = [None] * n
        barrier = threading.Barrier(n)

        def work(i):
            handle = broker.handle(f"c{i}")
            barrier.wait()
            outcomes[i] = handle.predict_proba(blobs3.X[i : i + 2])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(isinstance(o, np.ndarray) for o in outcomes)
        assert broker.stats().max_fused_requests >= 2

    def test_interrupt_between_pop_and_dispatch_strands_no_caller(
        self, linear_model, blobs3
    ):
        """Regression: a BaseException landing after the leader popped a
        fused batch but before dispatch resolved it failed only the
        still-queued tickets — co-riders of the popped batch hung."""

        class Interrupt(BaseException):
            pass

        api = PredictionAPI(linear_model)
        broker = QueryBroker(DirectTransport(api), window_s=0.1)

        def dying_dispatch(batch):
            raise Interrupt()

        broker._dispatch = dying_dispatch
        n = 3
        outcomes: list[object] = [None] * n
        barrier = threading.Barrier(n)

        def work(i):
            handle = broker.handle(f"c{i}")
            barrier.wait()
            try:
                outcomes[i] = handle.predict_proba(blobs3.X[i : i + 2])
            except BaseException as exc:  # noqa: BLE001 — capturing for assert
                outcomes[i] = exc

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        # Every caller resolved: leaders re-raise the interrupt; popped
        # co-riders get the non-retryable unknown-outcome error,
        # still-queued tickets the retryable stranded error.
        interrupted = [o for o in outcomes if isinstance(o, Interrupt)]
        stranded = [o for o in outcomes if isinstance(o, TransportError)]
        assert len(interrupted) >= 1
        assert len(interrupted) + len(stranded) == n
        # Leadership released and the broker still serves.
        del broker._dispatch
        assert broker.handle("late").predict_proba(blobs3.X[:1]).shape == (1, 3)
        assert not broker._leader_active
