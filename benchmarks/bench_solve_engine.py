"""Solve engine throughput: fused batched solve vs the reference loop.

The engine (:mod:`repro.core.engine`) stacks every active instance's
centered/scaled design and multi-RHS log-odds targets into 3-D tensors
and solves one batched normal-equations system per lock-step round; the
reference is the pre-engine implementation — one Python-level ``lstsq``
call per instance.  Both sides produce the full per-pair
:class:`~repro.core.equations.PairSystemSolution` result objects, so the
comparison is honest end to end.

Acceptance gate (enforced at default scale, not ``--tiny``): the engine
must be at least :data:`ENGINE_SPEEDUP_THRESHOLD` times the reference
loop at ``n=64, d=16, C=10`` (:data:`ENGINE_ACCEPTANCE_POINT`).  The
report also carries the max engine-vs-reference weight difference per
configuration, which must sit at solver rounding error at every scale.

Run standalone (the CI smoke uses ``--tiny``)::

    PYTHONPATH=src python benchmarks/bench_solve_engine.py --tiny
    PYTHONPATH=src python benchmarks/bench_solve_engine.py \\
        --output BENCH_solve_engine.json

or as a pytest bench: ``pytest benchmarks/bench_solve_engine.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.core.engine import (
    reference_solve_all_pairs,
    solve_pair_systems_stacked,
)
from serving_common import bad_sizes, write_report

#: The acceptance configuration ``(n_instances, d, C)`` the engine is
#: gated on: the batched path must beat the reference loop by at least
#: :data:`ENGINE_SPEEDUP_THRESHOLD` here.
ENGINE_ACCEPTANCE_POINT: tuple[int, int, int] = (64, 16, 10)

#: Required engine-vs-reference speedup at the acceptance point.
ENGINE_SPEEDUP_THRESHOLD: float = 3.0

#: Engine-vs-reference weights must agree to solver rounding error at
#: every grid point (the property suite pins this per pair; the bench
#: re-checks it on the timed problems, ``--tiny`` included).
MAX_ENGINE_WEIGHT_DIFF: float = 1e-6

#: The default grid: a sweep around the acceptance point.
BENCH_CONFIGS: list[tuple[int, int, int]] = [
    (16, 8, 3), (64, 16, 10), (256, 16, 10), (64, 32, 5),
]

#: CI smoke grid: small shapes, correctness-gated only.
TINY_BENCH_CONFIGS: list[tuple[int, int, int]] = [(8, 5, 3), (16, 8, 3)]


@dataclass(frozen=True)
class EngineBenchRow:
    """Engine vs reference-loop throughput at one ``(k, d, C)`` point."""

    n_instances: int
    n_points: int
    d: int
    C: int
    engine_solves_per_s: float
    reference_solves_per_s: float
    speedup: float
    max_weight_diff: float

    def as_dict(self) -> dict[str, float | int]:
        return {
            "n_instances": self.n_instances,
            "n_points": self.n_points,
            "d": self.d,
            "C": self.C,
            "engine_solves_per_s": self.engine_solves_per_s,
            "reference_solves_per_s": self.reference_solves_per_s,
            "speedup": self.speedup,
            "max_weight_diff": self.max_weight_diff,
        }


@dataclass(frozen=True)
class EngineBenchReport:
    """The grid of throughput rows plus a text rendering."""

    rows: tuple[EngineBenchRow, ...]

    def as_text(self) -> str:
        lines = [
            "solve engine throughput: fused batched solve vs reference loop",
            "",
            f"{'k':>5} {'n':>4} {'d':>4} {'C':>4} "
            f"{'engine/s':>11} {'reference/s':>12} {'speedup':>8} "
            f"{'max |dW|':>10}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.n_instances:>5} {row.n_points:>4} {row.d:>4} "
                f"{row.C:>4} {row.engine_solves_per_s:>11.0f} "
                f"{row.reference_solves_per_s:>12.0f} "
                f"{row.speedup:>7.1f}x {row.max_weight_diff:>10.2e}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict[str, list[dict[str, float | int]]]:
        return {"rows": [row.as_dict() for row in self.rows]}


def _bench_problem(
    n_instances: int, n_points: int, d: int, C: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A synthetic stacked solve problem shaped like a lock-step round."""
    rng = np.random.default_rng(seed)
    x0s = rng.normal(size=(n_instances, d))
    samples = x0s[:, None, :] + rng.uniform(
        -0.5, 0.5, size=(n_instances, n_points - 1, d)
    )
    points = np.concatenate([x0s[:, None, :], samples], axis=1)
    # Affine log-odds plus a pinch of noise: realistic residual scales
    # without every certificate trivially passing.
    W = rng.normal(size=(d, C))
    logits = points @ W + rng.normal(scale=1e-10, size=(n_instances, n_points, C))
    probs = np.exp(logits - logits.max(axis=2, keepdims=True))
    probs /= probs.sum(axis=2, keepdims=True)
    classes = rng.integers(0, C, size=n_instances)
    return points, probs, classes, x0s


def run_engine_benchmark(
    configs: list[tuple[int, int, int]],
    *,
    repeats: int,
    seed: int,
) -> EngineBenchReport:
    """Time the batched engine against the reference loop over a grid.

    ``configs`` are ``(n_instances, d, C)`` grid points; ``n_points`` is
    the Algorithm-1 shape ``d + 2`` throughout.  Each configuration is
    timed ``repeats`` times and the best is reported, to shed scheduler
    noise; the engine-vs-reference max weight difference is re-checked
    on the timed problems.
    """
    rows = []
    for n_instances, d, C in configs:
        n_points = d + 2
        points, probs, classes, centers = _bench_problem(
            n_instances, n_points, d, C, seed
        )

        def engine_pass():
            return solve_pair_systems_stacked(
                points, probs, classes, centers=centers
            )

        def reference_pass():
            return [
                reference_solve_all_pairs(
                    points[b], probs[b], int(classes[b]), center=centers[b]
                )
                for b in range(n_instances)
            ]

        engine_out = engine_pass()          # warm-up + correctness probe
        reference_out = reference_pass()
        max_diff = 0.0
        for eng, ref in zip(engine_out, reference_out):
            for pair, sol in ref.items():
                diff = np.abs(
                    eng[pair].result.weights - sol.result.weights
                ).max()
                max_diff = max(max_diff, float(diff))

        def best_time(fn):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            return best

        t_engine = best_time(engine_pass)
        t_reference = best_time(reference_pass)
        rows.append(
            EngineBenchRow(
                n_instances=n_instances,
                n_points=n_points,
                d=d,
                C=C,
                engine_solves_per_s=n_instances / t_engine,
                reference_solves_per_s=n_instances / t_reference,
                speedup=t_reference / t_engine,
                max_weight_diff=max_diff,
            )
        )
    return EngineBenchReport(rows=tuple(rows))


def gate_failures(report: EngineBenchReport, threshold: float) -> list[str]:
    """Every reason ``report`` fails its gates (empty list = pass):
    weight agreement with the reference at every row (``--tiny``
    included), plus the ``threshold`` speedup at
    :data:`ENGINE_ACCEPTANCE_POINT` when the grid contains it."""
    failures = []
    worst_diff = max(row.max_weight_diff for row in report.rows)
    if worst_diff > MAX_ENGINE_WEIGHT_DIFF:
        failures.append(
            f"engine weights diverge from reference by {worst_diff:.2e} "
            f"(gate {MAX_ENGINE_WEIGHT_DIFF:.0e})"
        )
    for row in report.rows:
        point = (row.n_instances, row.d, row.C)
        if point == ENGINE_ACCEPTANCE_POINT and row.speedup < threshold:
            failures.append(
                f"engine speedup {row.speedup:.1f}x below "
                f"{threshold:.0f}x at the acceptance point"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="solve engine throughput: batched engine vs reference loop"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats", type=int, default=20,
        help="timed repetitions per configuration (best-of reported; "
        "--tiny caps it at 5)",
    )
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke scale (small shapes, no speedup gate)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the report here (JSON for .json paths such as "
        "BENCH_solve_engine.json, text otherwise)",
    )
    args = parser.parse_args(argv)
    if bad_sizes(args, "repeats"):
        return 2

    if args.tiny:
        configs, repeats, threshold = (
            TINY_BENCH_CONFIGS, min(args.repeats, 5), 0.0
        )
    else:
        configs, repeats, threshold = (
            BENCH_CONFIGS, args.repeats, ENGINE_SPEEDUP_THRESHOLD
        )
    report = run_engine_benchmark(configs, repeats=repeats, seed=args.seed)
    print(report.as_text())
    if args.output:
        write_report(args.output, report)

    failures = gate_failures(report, threshold)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_solve_engine(results_dir):
    """Pytest-harness entry (``pytest benchmarks/bench_solve_engine.py``)."""
    assert main(["--output", str(results_dir / "solve_engine.txt")]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
