"""The calibrated start edge of the batch interpreter and the service,
and the certificate's refusal of pairs without signal."""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from proc_helpers import TINY_GATEWAY_KWARGS, read_json_line, subprocess_env
from repro.api import NoisyResponse, PredictionAPI, QueryBroker, RoundedResponse
from repro.core import BatchOpenAPIInterpreter, OpenAPIInterpreter
from repro.core.batch import CALIBRATION_DRAW
from repro.core.rounds import screen_simplex_rounds
from repro.exceptions import CertificateError
from repro.models.openbox import ground_truth_decision_features
from repro.serving import InterpretationService, L2ReaderCache, SegmentStore
from repro.serving.worker import train_worker_model


def _is_power_of_two(edge: float) -> bool:
    mantissa, _ = np.frexp(edge)
    return mantissa == 0.5


class TestStartEdge:
    def test_calibrates_below_the_paper_edge(self, relu_model):
        api = PredictionAPI(relu_model)
        edge = BatchOpenAPIInterpreter(seed=0).start_edge(api)
        assert 0.0 < edge < 1.0 and _is_power_of_two(edge)
        # One lock-step run over the draw: at least one row per point.
        assert api.query_count >= CALIBRATION_DRAW

    def test_same_edge_from_two_interpreters(self, relu_model):
        edges, costs = [], []
        for _ in range(2):
            api = PredictionAPI(relu_model)
            edges.append(BatchOpenAPIInterpreter(seed=7).start_edge(api))
            costs.append(api.query_count)
        assert edges[0] == edges[1] and costs[0] == costs[1]

    def test_resolved_once_per_api(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        interpreter = BatchOpenAPIInterpreter(seed=0)
        result = interpreter.interpret_batch(api, blobs3.X[:3])
        calibration = api.query_count - result.n_queries
        assert calibration > 0
        again = interpreter.interpret_batch(api, blobs3.X[3:6])
        assert api.query_count == calibration + result.n_queries + again.n_queries
        # Another API object is calibrated afresh.
        other = PredictionAPI(relu_model)
        assert interpreter.start_edge(other) == interpreter.start_edge(api)
        assert other.query_count == calibration

    def test_concurrent_callers_calibrate_once(self, relu_model):
        """Threads racing on a fresh API share one calibration run."""
        single = PredictionAPI(relu_model)
        expected = BatchOpenAPIInterpreter(seed=0).start_edge(single)
        api = PredictionAPI(relu_model)
        interpreter = BatchOpenAPIInterpreter(seed=0)
        edges: list[float] = []
        threads = [
            threading.Thread(
                target=lambda: edges.append(interpreter.start_edge(api))
            )
            for _ in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert edges == [expected] * 6
        assert api.query_count == single.query_count

    def test_explicit_edge_is_free(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        interpreter = BatchOpenAPIInterpreter(seed=0, initial_edge=0.25)
        assert interpreter.start_edge(api) == 0.25
        result = interpreter.interpret_batch(api, blobs3.X[:2])
        assert api.query_count == result.n_queries

    def test_shared_stream_untouched(self, relu_model, blobs3):
        """Calibrating draws nothing from the interpreter's own stream:
        the calibrated interpreter answers exactly like one handed the
        same edge explicitly."""
        X = blobs3.X[:6]
        calibrated = BatchOpenAPIInterpreter(seed=5)
        first = calibrated.interpret_batch(PredictionAPI(relu_model), X)
        edge = calibrated.start_edge(PredictionAPI(relu_model))
        explicit = BatchOpenAPIInterpreter(seed=5, initial_edge=edge)
        second = explicit.interpret_batch(PredictionAPI(relu_model), X)
        for a, b in zip(first.interpretations, second.interpretations):
            assert a.n_queries == b.n_queries
            assert a.final_edge == b.final_edge
            assert a.decision_features.tobytes() == b.decision_features.tobytes()

    def test_calibrated_answers_are_exact(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        result = BatchOpenAPIInterpreter(seed=0).interpret_batch(
            api, blobs3.X[:10]
        )
        for x0, interp in zip(blobs3.X[:10], result.interpretations):
            gt = ground_truth_decision_features(
                relu_model, x0, interp.target_class
            )
            np.testing.assert_allclose(interp.decision_features, gt, atol=1e-8)

    def test_budgeted_api_keeps_paper_edge(self, relu_model):
        api = PredictionAPI(relu_model, budget=100_000)
        assert BatchOpenAPIInterpreter(seed=0).start_edge(api) == 1.0
        assert api.query_count == 0
        handle = QueryBroker(api, window_s=0.0).handle("calibration")
        assert handle.budget == 100_000
        assert BatchOpenAPIInterpreter(seed=0).start_edge(handle) == 1.0
        assert api.query_count == 0

    def test_degraded_api_pushes_the_edge_up(self, relu_model):
        api = PredictionAPI(relu_model, transform=NoisyResponse(1e-4, seed=0))
        assert BatchOpenAPIInterpreter(
            seed=0, max_iterations=5
        ).start_edge(api) == 1.0


class TestServiceMeters:
    def test_calibrated_at_construction(self, relu_model, blobs3):
        api = PredictionAPI(relu_model)
        service = InterpretationService(api, seed=0)
        stats = service.stats()
        assert stats.calibration_queries == api.query_count > 0
        assert stats.n_queries == 0
        assert stats.initial_edge == service.interpreter.start_edge(api)
        assert stats.as_dict()["initial_edge"] == stats.initial_edge

    def test_meter_identity(self, relu_model, blobs3):
        """Every query the API answered is a flush's or the calibration's."""
        api = PredictionAPI(relu_model)
        service = InterpretationService(api, seed=0, max_batch_size=4)
        responses = service.interpret_many(np.vstack([blobs3.X[:6]] * 2))
        assert all(r.ok for r in responses)
        stats = service.stats()
        assert api.query_count == stats.n_queries + stats.calibration_queries
        assert stats.n_queries == sum(r.n_queries for r in responses)
        fresh = [r for r in responses if not r.served_from_cache]
        assert all(
            r.interpretation.final_edge <= stats.initial_edge for r in fresh
        )

    def test_budgeted_service(self, relu_model, blobs3):
        api = PredictionAPI(relu_model, budget=100_000)
        service = InterpretationService(api, seed=0)
        stats = service.stats()
        assert stats.initial_edge == 1.0 and stats.calibration_queries == 0
        assert service.interpret(blobs3.X[0]).ok
        assert service.stats().n_queries == api.query_count

    def test_worker_process_matches_in_process(self, tmp_path):
        """A ``python -m repro.serving.worker`` process and an in-process
        service on the same recipe calibrate the same edge, at the same
        cost."""
        l2 = tmp_path / "l2"
        SegmentStore(l2).close()
        kw = TINY_GATEWAY_KWARGS
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serving.worker",
                "--dataset", kw["dataset"], "--seed", str(kw["seed"]),
                "--train-size", str(kw["train_size"]),
                "--epochs", str(kw["epochs"]),
                "--hidden", ",".join(str(h) for h in kw["hidden"]),
                "--l2-dir", str(l2),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=subprocess_env(),
        )
        try:
            ready = read_json_line(proc, timeout_s=120.0)
            with socket.create_connection(("127.0.0.1", ready["port"]),
                                          timeout=60) as conn:
                stream = conn.makefile("rwb")
                for op in ("stats", "shutdown"):
                    stream.write(json.dumps({"op": op}).encode() + b"\n")
                    stream.flush()
                    reply = json.loads(stream.readline())
                    if op == "stats":
                        remote = reply["service"]
                stream.close()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()

        model = train_worker_model(
            kw["dataset"], kw["seed"], train_size=kw["train_size"],
            epochs=kw["epochs"], hidden=kw["hidden"],
        )[2]
        tier = L2ReaderCache(l2)
        try:
            local = InterpretationService(
                PredictionAPI(model), cache=tier, seed=kw["seed"],
                per_instance_seed=True,
            ).stats()
        finally:
            tier.close()
        assert remote["initial_edge"] == local.initial_edge
        assert remote["calibration_queries"] == local.calibration_queries > 0


class TestZeroSignalRefused:
    def test_screen_refuses_constant_targets(self):
        probs = np.broadcast_to([0.2, 0.3, 0.5], (2, 6, 3)).copy()
        screen = screen_simplex_rounds(probs, np.array([0, 2]))
        assert screen.passed == [False, False]
        assert np.all(np.isinf(screen.relatives))

    def test_quantised_plateau_refused(self, relu_model, blobs3):
        """At an edge far below the API's rounding step every answer is
        identical: a constant, consistent system that is refused, not
        certified as ``D = 0``."""
        api = PredictionAPI(relu_model, transform=RoundedResponse(6))
        interpreter = OpenAPIInterpreter(
            seed=0, initial_edge=2.0**-30, max_iterations=3
        )
        with pytest.raises(CertificateError):
            interpreter.interpret(api, blobs3.X[0])
        assert all(
            record.worst_relative_residual == np.inf
            for record in interpreter.last_run_history_
        )
        batch = BatchOpenAPIInterpreter(
            seed=0, initial_edge=2.0**-30, max_iterations=3
        ).interpret_batch(api, blobs3.X[:3])
        assert batch.interpretations == [None] * 3
