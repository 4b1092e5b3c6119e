"""Helpers shared by the benchmark scripts in this directory.

Not a benchmark itself (no ``bench_`` prefix, so neither pytest nor the
catalog test collects it): the replay arm the serving benches report,
the workload PLNN they train, the report writer behind every
``--output`` flag, and the size check each script's ``main`` runs before
any model trains.  The scripts import it by plain module name: running
``python benchmarks/bench_<x>.py`` and ``pytest benchmarks/`` both put
this directory on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.api.service import PredictionAPI
from repro.models.base import PiecewiseLinearModel
from repro.models.openbox import ground_truth_decision_features
from repro.serving.service import InterpretationService

#: Every served answer must match the OpenBox ground truth to this
#: absolute tolerance (max over decision features).
MAX_GT_L1_ERROR: float = 1e-6


@dataclass(frozen=True)
class ThroughputArm:
    """One replayed arm of a serving benchmark."""

    label: str
    n_requests: int
    n_ok: int
    elapsed_s: float
    interpretations_per_s: float
    n_queries: int
    round_trips: int
    hit_rate: float
    hit_trajectory: tuple[float, ...]
    max_gt_l1_error: float

    def as_dict(self) -> dict:
        """JSON-safe rendering (key set pinned by the schema test)."""
        return {
            "label": self.label,
            "n_requests": self.n_requests,
            "n_ok": self.n_ok,
            "elapsed_s": self.elapsed_s,
            "interpretations_per_s": self.interpretations_per_s,
            "n_queries": self.n_queries,
            "round_trips": self.round_trips,
            "hit_rate": self.hit_rate,
            "hit_trajectory": list(self.hit_trajectory),
            "max_gt_l1_error": self.max_gt_l1_error,
        }


def arm_header() -> str:
    return (
        f"{'arm':<12} {'req':>5} {'ok':>5} {'sec':>8} "
        f"{'interp/s':>10} {'queries':>9} {'trips':>7} {'hit%':>6} "
        f"{'max GT err':>11}"
    )


def arm_row(arm: ThroughputArm) -> str:
    hit = f"{100 * arm.hit_rate:.1f}" if np.isfinite(arm.hit_rate) else "-"
    return (
        f"{arm.label:<12} {arm.n_requests:>5} {arm.n_ok:>5} "
        f"{arm.elapsed_s:>8.3f} {arm.interpretations_per_s:>10.1f} "
        f"{arm.n_queries:>9} {arm.round_trips:>7} {hit:>6} "
        f"{arm.max_gt_l1_error:>11.2e}"
    )


def run_arm(
    model: PiecewiseLinearModel,
    requests: np.ndarray,
    *,
    label: str,
    service_factory: Callable[[PredictionAPI], InterpretationService],
    n_checkpoints: int = 10,
) -> tuple[ThroughputArm, bool, InterpretationService]:
    """Replay the workload through one service; audit every answer.

    Every served answer is checked against the OpenBox ground truth.
    The bitwise audit is two-pass: collect every fresh certified solve,
    then require each cache-served answer to be bitwise one of them.
    """
    api = PredictionAPI(model)
    service = service_factory(api)
    n = requests.shape[0]
    checkpoints = np.linspace(n / n_checkpoints, n, n_checkpoints).astype(int)
    trajectory: list[float] = []
    responses = []
    served = 0
    start = time.perf_counter()
    for bound in checkpoints:
        chunk = requests[served:bound]
        if chunk.shape[0]:
            responses.extend(service.interpret_many(chunk))
        served = int(bound)
        stats = service.stats()
        trajectory.append(
            stats.cache_hits / stats.n_requests if stats.n_requests else 0.0
        )
    elapsed = time.perf_counter() - start

    max_err = 0.0
    region_solves = {
        r.interpretation.decision_features.tobytes()
        for r in responses
        if r.ok and not r.served_from_cache
    }
    bitwise_ok = True
    for x0, response in zip(requests, responses):
        if not response.ok:
            continue
        interp = response.interpretation
        gt = ground_truth_decision_features(model, x0, interp.target_class)
        max_err = max(max_err, float(np.abs(interp.decision_features - gt).max()))
        if response.served_from_cache:
            bitwise_ok = (
                bitwise_ok
                and interp.decision_features.tobytes() in region_solves
            )

    stats = service.stats()
    arm = ThroughputArm(
        label=label,
        n_requests=n,
        n_ok=stats.n_ok,
        elapsed_s=elapsed,
        interpretations_per_s=stats.n_ok / elapsed if elapsed > 0 else float("inf"),
        n_queries=stats.n_queries,
        round_trips=stats.round_trips,
        hit_rate=stats.hit_rate,
        hit_trajectory=tuple(trajectory),
        max_gt_l1_error=max_err,
    )
    return arm, bitwise_ok, service


def train_bench_model(
    *, n_features: int, epochs: int, seed: int
) -> tuple[PiecewiseLinearModel, np.ndarray]:
    """The workload PLNN the serving and transport benches share."""
    from repro.data import make_blobs
    from repro.models import ReLUNetwork, TrainingConfig, train_network

    ds = make_blobs(
        400, n_features=n_features, n_classes=3, separation=4.0, seed=seed
    )
    model = ReLUNetwork([n_features, 16, 8, 3], seed=seed)
    train_network(
        model, ds.X, ds.y,
        TrainingConfig(epochs=epochs, learning_rate=3e-3, seed=seed),
    )
    return model, ds.X


def gt_failures(*arms: ThroughputArm) -> list[str]:
    """One failure line per arm that served an answer off the ground
    truth by more than :data:`MAX_GT_L1_ERROR`."""
    return [
        f"{arm.label}: an answer is {arm.max_gt_l1_error:.2e} off the "
        f"OpenBox ground truth (gate {MAX_GT_L1_ERROR:.0e})"
        for arm in arms
        if not arm.max_gt_l1_error <= MAX_GT_L1_ERROR
    ]


def bad_sizes(args, *flags: str) -> bool:
    """Print a one-line ``error:`` and return True when any of the named
    integer flags (``"requests"``, ``"anchors"``, ...) is below 1."""
    bad = [f"--{flag}" for flag in flags if getattr(args, flag) < 1]
    if bad:
        print(f"error: {', '.join(bad)} must be >= 1", file=sys.stderr)
    return bool(bad)


def write_report(path: str | os.PathLike, report) -> None:
    """Write ``report`` to ``path``: ``report.as_dict()`` as indented
    JSON for ``.json`` paths (the CI artifact format), ``as_text()``
    otherwise."""
    with open(path, "w") as handle:
        if str(path).endswith(".json"):
            json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")
        else:
            handle.write(report.as_text() + "\n")
    print(f"\nreport written to {path}")
