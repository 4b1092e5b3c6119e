"""Supervised-gateway chaos: kill storms, overload, rolling restarts.

The supervisor's contract (``repro/serving/gateway.py``) is that fault
handling never changes an answer byte: a respawned worker re-derives
the identical deterministic model, bounded admission sheds with a
structured 429 rather than degrading admitted requests, and a rolling
restart drains in-flight work before touching a process.  Every arm
here replays the same drifting-Zipf workload as ``tests/test_gateway.py``
and holds fleet responses to the sequential single-process reference,
byte for byte, while the fault is injected:

* **SIGKILL storm** — kill workers staggered mid-replay; survivors
  absorb the traffic bitwise, the supervisor respawns the dead slots
  (healthz handshake before re-admission), and restored capacity
  serves bitwise again;
* **restart storm** — a slot that keeps dying respawns under
  exponential backoff that escalates to the cap, so a crash loop
  cannot monopolize the gateway;
* **overload soak** — a client pool far above ``queue_capacity``:
  every response is a bitwise-correct 200 or a structured 429 with
  ``Retry-After``, queue depth never exceeds capacity, and the event
  loop leaks no tasks once the load drops;
* **zero-loss rolling restart** — ``POST /admin/restart`` mid-replay
  replaces every worker pid without dropping or corrupting a single
  request;
* **failover classification** — the worker ``crash`` op (a pure
  ``os._exit``, the protocol-level SIGKILL) deterministically produces
  the retryable ``worker_lost`` half of the 503 classification.

Every subprocess interaction carries a hard timeout; a wedged fleet
fails the test rather than hanging the suite.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from proc_helpers import TINY_GATEWAY_KWARGS
from repro.api import PredictionAPI
from repro.serving import (
    Gateway,
    GatewayClient,
    InterpretationService,
    drifting_zipf_workload,
    replay_workload,
)
from repro.serving.worker import (
    distinct_region_anchors,
    interpretation_payload,
    train_worker_model,
)

def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _wait_for(predicate, *, timeout: float = 120.0,
              interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture(scope="session")
def chaos_model():
    kwargs = dict(TINY_GATEWAY_KWARGS)
    return train_worker_model(
        kwargs.pop("dataset"), kwargs.pop("seed"), **kwargs
    )


@pytest.fixture(scope="session")
def chaos_workload(chaos_model):
    """``(requests, reference payloads)`` — identical recipe to the
    ``tests/test_gateway.py`` workload so both suites pin the same
    single-process answers."""
    _data, test, model = chaos_model
    anchors = distinct_region_anchors(
        PredictionAPI(model),
        test.X[:40],
        seed=TINY_GATEWAY_KWARGS["seed"],
        limit=8,
    )
    assert anchors.shape[0] >= 3
    requests = drifting_zipf_workload(anchors, 18, seed=1)
    service = InterpretationService(
        PredictionAPI(model),
        seed=TINY_GATEWAY_KWARGS["seed"],
        per_instance_seed=True,
    )
    reference = []
    with service:
        for x0 in requests:
            response = service.interpret(x0)
            assert response.ok
            reference.append(
                _canonical(interpretation_payload(response.interpretation))
            )
    return requests, reference


def _start_gateway(tmp_path, *, n_workers, **overrides) -> Gateway:
    kwargs = dict(TINY_GATEWAY_KWARGS)
    kwargs.update(overrides)
    gateway = Gateway(
        n_workers=n_workers, l2_dir=tmp_path / "l2", **kwargs
    )
    gateway.start()
    return gateway


def _assert_bitwise(responses: list[dict], reference: list[str]) -> None:
    assert len(responses) == len(reference)
    for i, (response, expected) in enumerate(zip(responses, reference)):
        assert response["ok"], (i, response)
        assert _canonical(response["result"]) == expected, i


class TestSigkillStorm:
    """Kill k of n workers staggered mid-replay: survivors keep the
    stream bitwise, the supervisor restores full capacity, and the
    respawned slots serve bitwise too."""

    def test_supervisor_restores_capacity_bitwise(
        self, tmp_path, chaos_workload
    ):
        requests, reference = chaos_workload
        storm = np.concatenate([requests] * 4)
        storm_reference = reference * 4
        gateway = _start_gateway(
            tmp_path, n_workers=3,
            supervisor_poll_s=0.05, restart_backoff_s=0.0,
            restart_backoff_cap_s=0.0,
        )
        try:
            before = set(gateway.worker_pids())
            result: dict = {}

            def _replay():
                result["responses"], _ = replay_workload(
                    gateway.host, gateway.port, storm, concurrency=4
                )

            thread = threading.Thread(target=_replay)
            thread.start()
            time.sleep(0.3)
            gateway.kill_worker(0)
            time.sleep(0.3)
            gateway.kill_worker(1)
            thread.join(timeout=300)
            assert not thread.is_alive()

            # Every admitted request in flight through the storm came
            # back bitwise — in-band failover, never a wrong answer.
            _assert_bitwise(result["responses"], storm_reference)

            # The supervisor respawns both dead slots and re-admits
            # them only after the healthz handshake.
            assert _wait_for(
                lambda: gateway.stats().workers_alive == 3, timeout=120.0
            ), "supervisor never restored fleet capacity"
            stats = gateway.stats()
            assert stats.n_restarts >= 2
            after = set(gateway.worker_pids())
            assert len(after) == 3
            assert len(after - before) >= 2  # two slots hold fresh pids

            # Restored capacity serves the workload bitwise: the
            # respawned workers re-derived the identical model.
            responses, _ = replay_workload(
                gateway.host, gateway.port, requests, concurrency=4
            )
            _assert_bitwise(responses, reference)
        finally:
            gateway.stop()


class TestRestartStorm:
    """A slot that dies immediately after every respawn escalates its
    backoff toward the cap instead of respawning at full speed."""

    def test_backoff_escalates_to_cap(self, tmp_path):
        base, cap = 0.2, 0.8
        gateway = _start_gateway(
            tmp_path, n_workers=1,
            supervisor_poll_s=0.02, restart_backoff_s=base,
            restart_backoff_cap_s=cap, restart_backoff_reset_s=600.0,
        )
        try:
            observed = []
            for kill in range(4):
                old_pid = gateway.worker_pids()[0]
                gateway.kill_worker(0)
                assert _wait_for(
                    lambda: (
                        gateway.worker_pids()[0] != old_pid
                        and gateway.stats().per_worker[0]["alive"]
                    ),
                    timeout=120.0,
                ), f"slot never respawned after kill {kill}"
                observed.append(gateway.stats().per_worker[0]["backoff_s"])
            stats = gateway.stats()
        finally:
            gateway.stop()
        # First death pays no backoff (the slot had never respawned);
        # every death inside the reset window after that doubles the
        # delay from the base until the cap pins it.
        assert observed == [0.0, base, 2 * base, cap]
        assert stats.n_restarts == 4
        assert stats.per_worker[0]["restarts"] == 4


class TestOverloadSoak:
    """A client pool far above ``queue_capacity``: every response is a
    bitwise-correct 200 or a structured 429, the depth bound holds,
    and nothing leaks once the pool drains."""

    N_THREADS = 12
    REQUESTS_PER_THREAD = 4

    def test_bounded_admission_sheds_structured(
        self, tmp_path, chaos_workload
    ):
        requests, reference = chaos_workload
        retry_after = 3
        gateway = _start_gateway(
            tmp_path, n_workers=1, queue_capacity=1,
            retry_after_s=retry_after,
        )
        try:
            baseline = gateway.pending_task_count()
            barrier = threading.Barrier(self.N_THREADS)
            results: list[list] = [[] for _ in range(self.N_THREADS)]

            def _soak(slot: int) -> None:
                client = GatewayClient(gateway.host, gateway.port)
                try:
                    barrier.wait(timeout=60)
                    for turn in range(self.REQUESTS_PER_THREAD):
                        i = (slot + turn) % len(requests)
                        status, body = client.request(
                            "POST", "/interpret",
                            {"x0": requests[i].tolist()},
                        )
                        results[slot].append(
                            (i, status, body, dict(client.last_headers))
                        )
                finally:
                    client.close()

            threads = [
                threading.Thread(target=_soak, args=(slot,))
                for slot in range(self.N_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
                assert not thread.is_alive()

            n_ok = n_shed = 0
            for rows in results:
                assert len(rows) == self.REQUESTS_PER_THREAD
                for i, status, body, headers in rows:
                    if status == 200:
                        n_ok += 1
                        assert body["ok"], body
                        assert _canonical(body["result"]) == reference[i]
                    else:
                        n_shed += 1
                        assert status == 429, (status, body)
                        assert body["ok"] is False
                        assert body["error"]["code"] == "overloaded"
                        assert body["error"]["retryable"] is True
                        assert headers["retry-after"] == str(retry_after)

            total = self.N_THREADS * self.REQUESTS_PER_THREAD
            assert n_ok + n_shed == total
            assert n_ok >= 1  # someone always gets through
            # Twelve clients firing into a one-deep queue must shed.
            assert n_shed >= 1

            stats = gateway.stats()
            assert stats.n_shed == n_shed
            assert stats.n_ok == n_ok
            assert stats.queue_depth == 0
            assert 1 <= stats.queue_depth_peak <= stats.queue_capacity
            # The histogram meters *admitted* requests only; shed 429s
            # turn around before any latency worth measuring accrues.
            assert sum(stats.latency_ms_counts) == stats.n_requests == n_ok

            # No orphaned asyncio tasks: once every client connection
            # closes, the loop settles back to its resting task set.
            assert _wait_for(
                lambda: gateway.pending_task_count() <= baseline,
                timeout=60.0,
            ), (
                f"leaked tasks: {gateway.pending_task_count()} pending "
                f"vs baseline {baseline}"
            )
        finally:
            gateway.stop()


class TestRollingRestart:
    """``POST /admin/restart`` mid-replay: every worker pid replaced,
    zero requests dropped, every answer bitwise."""

    def test_zero_loss_mid_replay(self, tmp_path, chaos_workload):
        requests, reference = chaos_workload
        stream = np.concatenate([requests] * 4)
        stream_reference = reference * 4
        gateway = _start_gateway(tmp_path, n_workers=2)
        try:
            before = set(gateway.worker_pids())
            result: dict = {}

            def _replay():
                result["responses"], _ = replay_workload(
                    gateway.host, gateway.port, stream, concurrency=4
                )

            thread = threading.Thread(target=_replay)
            thread.start()
            time.sleep(0.2)
            with GatewayClient(
                gateway.host, gateway.port, timeout=600.0
            ) as client:
                status, summary = client.rolling_restart()
            thread.join(timeout=300)
            assert not thread.is_alive()

            assert status == 200, summary
            assert summary["ok"] is True
            assert sorted(summary["restarted"]) == [0, 1]
            assert summary["skipped"] == []

            # Zero loss: the full stream answered, bitwise, with the
            # restart running through the middle of it.
            _assert_bitwise(result["responses"], stream_reference)

            after = set(gateway.worker_pids())
            assert after.isdisjoint(before)  # every process replaced
            stats = gateway.stats()
            assert stats.workers_alive == 2
            assert stats.n_restarts == 2
            assert stats.n_errors == 0
        finally:
            gateway.stop()

    def test_admin_restart_is_post_only(self, tmp_path):
        gateway = _start_gateway(tmp_path, n_workers=1)
        try:
            with GatewayClient(gateway.host, gateway.port) as client:
                status, body = client.request("GET", "/admin/restart")
        finally:
            gateway.stop()
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"


class TestFailoverClassification:
    """The worker ``crash`` op — ``os._exit`` with no reply, the
    protocol-level SIGKILL — deterministically produces the retryable
    ``worker_lost`` classification; the never-dispatched half
    (``no_workers``) is pinned in ``tests/test_gateway.py``."""

    def test_crash_op_mid_response_is_worker_lost(self, tmp_path):
        gateway = _start_gateway(tmp_path, n_workers=1, supervise=False)
        try:
            gateway.crash_worker(0)
            # ``os._exit(17)``, not a signal: the protocol-level kill.
            assert gateway._workers[0].proc.returncode == 17

            with GatewayClient(gateway.host, gateway.port) as client:
                lost_status, lost_body = client.request(
                    "POST", "/interpret", {"x0": [0.0] * 5}
                )
                next_status, next_body = client.request(
                    "POST", "/interpret", {"x0": [0.0] * 5}
                )
            stats = gateway.stats()
        finally:
            gateway.stop()
        assert lost_status == 503
        assert lost_body["error"]["code"] == "worker_lost"
        assert lost_body["error"]["retryable"] is True
        assert next_status == 503
        assert next_body["error"]["code"] == "no_workers"
        assert stats.n_worker_lost == 1

    def test_supervised_crash_op_is_respawned(self, tmp_path):
        """Under supervision the same crash is absorbed: the slot
        respawns (exit code 17 is just another death) and the fleet
        returns to full strength."""
        gateway = _start_gateway(
            tmp_path, n_workers=1,
            supervisor_poll_s=0.05, restart_backoff_s=0.0,
            restart_backoff_cap_s=0.0,
        )
        try:
            old_pid = gateway.crash_worker(0)
            assert _wait_for(
                lambda: (
                    gateway.worker_pids()[0] != old_pid
                    and gateway.stats().workers_alive == 1
                ),
                timeout=120.0,
            ), "supervisor never respawned the crashed slot"
            stats = gateway.stats()
        finally:
            gateway.stop()
        assert stats.n_restarts == 1
        assert stats.per_worker[0]["restarts"] == 1
