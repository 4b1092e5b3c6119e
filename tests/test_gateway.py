"""Cross-process serving: fleet identity, worker kills, writer crashes.

Everything here crosses a *real* process boundary — worker fleets are
spawned subprocesses, the crash tests SIGKILL a live writer inside an
armed window — because the gateway's contracts are precisely the ones
in-process tests cannot exercise:

* **bitwise identity** — a gateway fleet of any width, index on or
  off, returns byte-identical ``result`` payloads to a sequential
  single-process :class:`InterpretationService` on the same
  drifting-Zipf replay.  Per-instance seeding makes each certified
  solve a pure function of ``(seed, x0)``; the workload's anchors are
  filtered to region-unambiguous ones so every request has exactly one
  servable answer regardless of which worker, tier, or epoch serves it;
* **fleet resilience** — SIGKILL of a worker mid-replay degrades
  capacity, never answers: remaining requests keep serving bitwise
  through the survivors, and an empty fleet reports 503, not garbage;
* **crash safety across processes** — readers over the shared L2
  survive the writer dying mid-index-rename and mid-compaction (the
  atomic-publish discipline means they keep serving the old epoch,
  bitwise), and a restarted writer re-adopts every fsynced record
  while never reviving a published-dead region.

Every subprocess interaction carries a hard timeout; a wedged child
fails the test rather than hanging the suite.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from proc_helpers import (
    PROC_HELPERS_DIR,
    TINY_GATEWAY_KWARGS,
    CrashWriter,
    subprocess_env,
)
from proc_helpers import crash_writer
from repro.api import PredictionAPI
from repro.serving import (
    Gateway,
    GatewayClient,
    InterpretationService,
    SegmentStore,
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


@pytest.fixture(scope="session")
def gateway_model():
    kwargs = dict(TINY_GATEWAY_KWARGS)
    return train_worker_model(
        kwargs.pop("dataset"), kwargs.pop("seed"), **kwargs
    )


@pytest.fixture(scope="session")
def gateway_workload(gateway_model):
    """``(requests, reference payloads)`` — the drifting-Zipf replay
    over region-unambiguous anchors, with the sequential single-process
    answers every fleet response must match byte for byte."""
    _data, test, model = gateway_model
    anchors = distinct_region_anchors(
        PredictionAPI(model),
        test.X[:40],
        seed=TINY_GATEWAY_KWARGS["seed"],
        limit=8,
    )
    assert anchors.shape[0] >= 3  # enough distinct regions to be a test
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


class TestBitwiseIdentity:
    """Fleet responses equal the single-process reference, always."""

    @pytest.mark.parametrize(
        "n_workers,region_index",
        [(1, False), (2, True), (4, False)],
        ids=["x1", "x2-indexed", "x4"],
    )
    def test_fleet_matches_single_process(
        self, n_workers, region_index, tmp_path, gateway_workload
    ):
        requests, reference = gateway_workload
        gateway = _start_gateway(
            tmp_path, n_workers=n_workers, region_index=region_index
        )
        try:
            responses, _elapsed = replay_workload(
                gateway.host, gateway.port, requests, concurrency=4
            )
            stats = gateway.stats()
        finally:
            gateway.stop()
        assert len(responses) == len(requests)
        for i, (response, expected) in enumerate(zip(responses, reference)):
            assert response["ok"], (i, response)
            assert _canonical(response["result"]) == expected, i
        assert stats.n_ok == len(requests)
        assert stats.workers_alive == n_workers
        # The writer harvested the fleet's fresh solves into the
        # shared L2 (every anchor solved somewhere, exactly once live).
        assert stats.l2_records >= 1

    def test_second_gateway_reuses_harvested_regions(
        self, tmp_path, gateway_workload
    ):
        """The L2 directory is durable fleet state: a new fleet over
        the same directory serves the same bytes, now from disk."""
        requests, reference = gateway_workload
        gateway = _start_gateway(tmp_path, n_workers=1)
        try:
            replay_workload(gateway.host, gateway.port, requests)
        finally:
            gateway.stop()
        revived = _start_gateway(tmp_path, n_workers=2)
        try:
            responses, _ = replay_workload(
                revived.host, revived.port, requests
            )
            stats = revived.stats()
        finally:
            revived.stop()
        for response, expected in zip(responses, reference):
            assert response["ok"]
            assert _canonical(response["result"]) == expected
        # Nothing fresh to harvest: every region came from the disk tier.
        assert stats.harvested == 0


class TestFleetResilience:
    """Unsupervised (PR 8) behavior, pinned with ``supervise=False``:
    a dead worker degrades capacity and is never replaced.  The
    supervised counterparts live in ``tests/test_gateway_chaos.py``."""

    def test_requests_survive_worker_sigkill(
        self, tmp_path, gateway_workload
    ):
        requests, reference = gateway_workload
        gateway = _start_gateway(tmp_path, n_workers=2, supervise=False)
        try:
            half = len(requests) // 2
            first, _ = replay_workload(
                gateway.host, gateway.port, requests[:half]
            )
            gateway.kill_worker(0)
            second, _ = replay_workload(
                gateway.host, gateway.port, requests[half:]
            )
            stats = gateway.stats()
            with GatewayClient(gateway.host, gateway.port) as client:
                status, health = client.healthz()
        finally:
            gateway.stop()
        for response, expected in zip(
            first + second, reference
        ):
            assert response["ok"]
            assert _canonical(response["result"]) == expected
        assert stats.workers_alive == 1
        assert status == 200 and health["workers_alive"] == 1

    def test_empty_fleet_is_503_not_garbage(self, tmp_path):
        """Both halves of the failover classification: the request that
        *observed* the death (dispatched, then the worker vanished) is
        a retryable ``worker_lost``; once the fleet is known-empty a
        request that was never dispatched anywhere is ``no_workers``."""
        gateway = _start_gateway(tmp_path, n_workers=1, supervise=False)
        try:
            gateway.kill_worker(0)
            with GatewayClient(gateway.host, gateway.port) as client:
                lost_status, lost_body = client.request(
                    "POST", "/interpret", {"x0": [0.0] * 5}
                )
                status, body = client.request(
                    "POST", "/interpret", {"x0": [0.0] * 5}
                )
                health_status, health = client.healthz()
        finally:
            gateway.stop()
        assert lost_status == 503
        assert lost_body["error"]["code"] == "worker_lost"
        assert lost_body["error"]["retryable"] is True
        assert status == 503
        assert body["error"]["code"] == "no_workers"
        assert body["error"]["retryable"] is True
        assert health_status == 503 and health["workers_alive"] == 0


class TestWorkerSpawn:
    def test_stderr_log_closed_after_spawn(self, tmp_path, monkeypatch):
        """The gateway's handle on a worker's stderr log is closed once
        the child is spawned (the child keeps its own descriptor)."""
        from repro.serving import gateway as gateway_module

        recorded = []

        class _RecordingPopen:
            def __init__(self, argv, **kwargs):
                recorded.append(kwargs)

        monkeypatch.setattr(
            gateway_module.subprocess, "Popen", _RecordingPopen
        )
        l2_dir = tmp_path / "l2"
        l2_dir.mkdir()
        gateway = Gateway(n_workers=1, l2_dir=l2_dir, **TINY_GATEWAY_KWARGS)
        gateway._popen_worker(0)
        assert len(recorded) == 1
        assert recorded[0]["stderr"].closed


class TestHttpFrontend:
    @pytest.fixture(scope="class")
    def running_gateway(self, tmp_path_factory):
        gateway = _start_gateway(
            tmp_path_factory.mktemp("gw-http"), n_workers=1
        )
        yield gateway
        gateway.stop()

    def test_unknown_path_is_404(self, running_gateway):
        with GatewayClient(running_gateway.host, running_gateway.port) as client:
            status, body = client.request("GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, running_gateway):
        with GatewayClient(running_gateway.host, running_gateway.port) as client:
            status, body = client.request("GET", "/interpret")
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"

    def test_unparseable_body_is_400(self, running_gateway):
        with GatewayClient(running_gateway.host, running_gateway.port) as client:
            client._conn.request(
                "POST", "/interpret", body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = client._conn.getresponse()
            body = json.loads(response.read())
        assert response.status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_malformed_instance_is_service_error(self, running_gateway):
        with GatewayClient(running_gateway.host, running_gateway.port) as client:
            body = client.interpret(np.array([1.0, 2.0]))  # wrong width
        assert body["ok"] is False
        assert body["error"]["code"] == "invalid_request"

    def test_stats_endpoint_shape(self, running_gateway):
        with GatewayClient(running_gateway.host, running_gateway.port) as client:
            stats = client.stats()
        assert stats["n_workers"] == 1
        assert "per_worker" in stats and len(stats["per_worker"]) == 1


class TestClientHygiene:
    def test_http_frontend_tests_close_their_sockets(self):
        """The front-end tests close every client they open: they pass
        with a leaked socket's ResourceWarning raised as an error."""
        proc = subprocess.run(
            [
                sys.executable, "-X", "dev", "-m", "pytest", "-q",
                "-p", "no:cacheprovider",
                "-W", "error::ResourceWarning",
                "-W", "error::pytest.PytestUnraisableExceptionWarning",
                f"{__file__}::TestHttpFrontend",
            ],
            capture_output=True, text=True, timeout=300,
            env=subprocess_env(), cwd=PROC_HELPERS_DIR.parents[1],
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        assert "ResourceWarning" not in proc.stdout + proc.stderr


def _assert_record_bitwise(store: SegmentStore, sig: int) -> None:
    expected = crash_writer.synthetic_record(sig)
    got = store.read(sig)
    assert got[0] == expected[0] and got[1] == expected[1]
    for have, want in zip(got[2:6], expected[2:6]):
        assert np.asarray(have).tobytes() == np.asarray(want).tobytes()
    assert got[6] == expected[6]


class TestWriterCrash:
    """SIGKILL the L2 writer inside armed windows; readers and the
    restarted writer must both come out exact."""

    def test_reader_survives_kill_mid_index_rename(self, tmp_path):
        writer = CrashWriter(tmp_path)
        try:
            for sig in (1, 2, 3):
                writer.op("append", sig=sig)
            writer.op("publish")
            reader = SegmentStore(tmp_path, read_only=True)
            assert reader.live_signatures() == {1, 2, 3}

            # New record fsynced (append fsyncs each frame), then the
            # writer dies with the index tmp written but never renamed
            # into place.
            writer.op("append", sig=4)
            writer.kill_in_window("publish")
        finally:
            writer.close()

        # The reader's world is untouched — the publish never happened.
        assert reader.maybe_refresh() is False
        assert reader.live_signatures() == {1, 2, 3}
        for sig in (1, 2, 3):
            _assert_record_bitwise(reader, sig)

        # The restarted writer re-adopts the fsynced record by tail
        # scan (the kernel released the dead writer's flock).
        restarted = SegmentStore(tmp_path, exclusive=True)
        assert restarted.live_signatures() == {1, 2, 3, 4}
        _assert_record_bitwise(restarted, 4)
        restarted.persist_index()
        restarted.close()

        assert reader.maybe_refresh() is True
        assert reader.live_signatures() == {1, 2, 3, 4}
        _assert_record_bitwise(reader, 4)
        reader.close()

    def test_reader_survives_kill_mid_compaction(self, tmp_path):
        writer = CrashWriter(tmp_path)
        try:
            for sig in (1, 2, 3, 4):
                writer.op("append", sig=sig)
            writer.op("mark_dead", sig=1)
            writer.op("publish")
            reader = SegmentStore(tmp_path, read_only=True)
            assert reader.live_signatures() == {2, 3, 4}

            # Die after the compacted segment is fully written but
            # before the index rename adopts it: the old segments are
            # still the published truth.
            writer.kill_in_window("compact")
        finally:
            writer.close()

        assert reader.maybe_refresh() is False
        assert reader.live_signatures() == {2, 3, 4}
        for sig in (2, 3, 4):
            _assert_record_bitwise(reader, sig)

        # Restart: the half-compacted segment is an unreferenced
        # orphan (dropped), the published-dead region stays dead, and
        # the store keeps working.
        restarted = SegmentStore(tmp_path, exclusive=True)
        assert restarted.live_signatures() == {2, 3, 4}
        assert 1 not in restarted.live_signatures()
        for sig in (2, 3, 4):
            _assert_record_bitwise(restarted, sig)
        assert restarted.append(5, *crash_writer.synthetic_record(5))
        restarted.persist_index()
        restarted.close()

        assert reader.maybe_refresh() is True
        assert reader.live_signatures() == {2, 3, 4, 5}
        reader.close()

    def test_second_writer_is_locked_out_until_the_first_dies(
        self, tmp_path
    ):
        from repro.exceptions import ValidationError

        writer = CrashWriter(tmp_path)
        try:
            writer.op("append", sig=1)
            writer.op("publish")
            with pytest.raises(ValidationError, match="another writer"):
                SegmentStore(tmp_path, exclusive=True)
            writer.proc.kill()
            writer.proc.wait(timeout=30)
        finally:
            writer.close()
        # SIGKILL released the flock; the successor acquires it.
        successor = SegmentStore(tmp_path, exclusive=True)
        assert successor.live_signatures() == {1}
        successor.close()
