"""Tiered region store: disk-backed inventory vs all-in-RAM serving.

The tiered store's claim (``repro/serving/store.py``): Theorem 2 makes
certified regions cacheable forever, so evicting one from RAM should
*demote* it to disk, not discard it — the region inventory outlives
memory, and the next same-region query costs a promotion (one probe +
one mmap'd membership scan), never a closed-form re-solve.  This bench
replays one drifting-Zipf stream through two arms and a churn arm and
gates:

* **hit-cost retention** — with L1 bounded to 10% of the all-in-RAM
  arm's resident entries (the disk tier holding the rest), the tiered
  arm must retain >= 80% of the all-RAM hit rate at default scale,
  hits served from *either* tier (no re-solves);
* **bounded disk growth** — the churn arm replays region turnover
  against a tiny L2 byte budget; dead-marking plus compaction must
  engage (>= 1 compaction) and total segment bytes must stay within the
  analytic ``max_bytes / (1 - compact_ratio)`` bound;
* **bitwise transparency, always** (``--tiny`` included) — store-served
  answers bitwise equal a fresh certified solve, through demotion,
  promotion, and the mmap round trip, and every answer matches the
  OpenBox ground truth.

Run standalone (the CI smoke uses ``--tiny``)::

    PYTHONPATH=src python benchmarks/bench_tiered_store.py --tiny
    PYTHONPATH=src python benchmarks/bench_tiered_store.py \\
        --output BENCH_tiered_store.json

or as a pytest bench: ``pytest benchmarks/bench_tiered_store.py``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api.service import PredictionAPI
from repro.models.base import PiecewiseLinearModel
from repro.serving import (
    InterpretationService,
    RegionCache,
    TieredRegionStore,
    churn_workload,
    drifting_zipf_workload,
)
from serving_common import (
    ThroughputArm,
    arm_header,
    arm_row,
    bad_sizes,
    gt_failures,
    run_arm,
    train_bench_model,
    write_report,
)

#: L1 (RAM) resident-entry budget of the tiered-store arm, as a fraction
#: of the all-in-RAM arm's final inventory — deliberately small, because
#: the disk tier is supposed to absorb the difference.
TIERED_L1_RESIDENT_FRACTION: float = 0.10

#: Tiered-store gate: at 10% L1 residency the tiered arm must retain at
#: least this fraction of the all-in-RAM hit rate (hits served from
#: *either* tier — no re-solves) on the drifting-Zipf workload.
TIERED_HIT_RETENTION_THRESHOLD: float = 0.8


@dataclass(frozen=True)
class TieredStoreReport:
    """The tiered-store comparison plus the churn/compaction audit.

    ``all_ram`` and ``tiered`` replay the identical drifting-Zipf
    stream; the tiered arm's L1 holds only
    :data:`TIERED_L1_RESIDENT_FRACTION` of the all-RAM arm's final
    inventory, with every L1 eviction demoted to the mmap'd disk tier.
    ``hit_retention`` is the ratio of service-level hit rates (a "hit"
    is any response served without a fresh solve — from either tier).
    The churn arm replays a region-turnover stream against a
    deliberately tiny L2 byte budget and records the maximum total
    segment bytes ever resident, proving compaction bounds disk growth.
    """

    all_ram: ThroughputArm
    tiered: ThroughputArm
    all_ram_service: dict
    tiered_service: dict
    store: dict
    l1_max_entries: int
    l1_resident_fraction: float
    hit_retention: float
    bitwise_consistent: bool
    churn_requests: int
    churn_l2_max_bytes: int
    churn_compactions: int
    churn_max_total_bytes: int
    churn_bytes_bound: int
    churn_bounded: bool
    churn_store: dict

    def as_text(self) -> str:
        store = self.store
        lines = [
            "tiered region store: RAM L1 + mmap disk L2 vs all-in-RAM "
            "(drifting-Zipf workload)",
            "",
            arm_header(),
            arm_row(self.all_ram),
            arm_row(self.tiered),
            "",
            f"tiered L1 bound:     {self.l1_max_entries} entries "
            f"({100 * self.l1_resident_fraction:.0f}% of all-RAM "
            "resident)",
            f"tier traffic:        {store['l1_hits']} L1 hits, "
            f"{store['l2_hits']} L2 hits (promoted), "
            f"{store['l2_misses']} misses, {store['demotions']} demotions",
            f"L2 inventory:        {store['l2_entries']} live records, "
            f"{store['l2_live_bytes']} live bytes / "
            f"{store['l2_total_bytes']} total, "
            f"{store['l2_segments']} segment(s), "
            f"{store['l2_compactions']} compaction(s)",
            f"hit retention (tiered / all-RAM):         "
            f"{self.hit_retention:.3f}",
            f"cache-served bitwise == region solve:     "
            f"{self.bitwise_consistent}",
            f"churn arm: {self.churn_requests} requests at "
            f"{self.churn_l2_max_bytes} L2 budget bytes -> "
            f"{self.churn_compactions} compaction(s), max "
            f"{self.churn_max_total_bytes} segment bytes "
            f"(bound {self.churn_bytes_bound}, "
            f"bounded={self.churn_bounded})",
        ]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-safe rendering (the ``BENCH_tiered_store.json`` CI
        artifact; key set pinned by the schema test)."""
        return {
            "all_ram": self.all_ram.as_dict(),
            "tiered": self.tiered.as_dict(),
            "all_ram_service": self.all_ram_service,
            "tiered_service": self.tiered_service,
            "store": self.store,
            "l1_max_entries": self.l1_max_entries,
            "l1_resident_fraction": self.l1_resident_fraction,
            "hit_retention": self.hit_retention,
            "bitwise_consistent": self.bitwise_consistent,
            "churn_requests": self.churn_requests,
            "churn_l2_max_bytes": self.churn_l2_max_bytes,
            "churn_compactions": self.churn_compactions,
            "churn_max_total_bytes": self.churn_max_total_bytes,
            "churn_bytes_bound": self.churn_bytes_bound,
            "churn_bounded": self.churn_bounded,
            "churn_store": self.churn_store,
        }


def _record_frame_bytes(d: int, n_classes: int) -> int:
    """Analytic size of one L2 record frame at (d, C) model geometry:
    the 20-byte frame header plus the packed payload of ``P = C - 1``
    pairs (see :func:`repro.serving.store._pack_payload`)."""
    P = n_classes - 1
    return 20 + 24 + 16 * P + 8 * (P * d + P + 2 * d + 1)


def run_tiered_store_benchmark(
    model: PiecewiseLinearModel,
    anchors: np.ndarray,
    *,
    n_requests: int,
    churn_requests: int,
    exponent: float = 2.2,
    seed: int,
    l2_dir: str | None = None,
) -> TieredStoreReport:
    """Replay one drifting-Zipf stream through the all-RAM and tiered
    arms, then the churn arm.

    The all-RAM arm runs an unbounded cache; the tiered arm runs a
    :class:`~repro.serving.store.TieredRegionStore` whose L1 holds only
    :data:`TIERED_L1_RESIDENT_FRACTION` of the all-RAM arm's final
    inventory — evictions demote to disk, disk hits promote back.  The
    churn arm replays a region-turnover stream against a tiny L2 byte
    budget, sampling total segment bytes after every chunk, to prove
    dead-marking + compaction bound disk growth.
    """
    requests = drifting_zipf_workload(
        anchors, n_requests, exponent=exponent, drift_step=3, seed=seed
    )

    all_ram, bitwise_a, ram_service = run_arm(
        model, requests, label="all-ram",
        service_factory=lambda api: InterpretationService(
            api, cache=RegionCache(max_entries=1_000_000),
            max_batch_size=8, seed=seed,
        ),
    )
    ram_resident = ram_service.cache.stats().size
    l1_max_entries = int(np.ceil(ram_resident * TIERED_L1_RESIDENT_FRACTION))

    if l2_dir is None:
        tmp = tempfile.TemporaryDirectory()
        base = Path(tmp.name)
    else:
        tmp = None
        base = Path(l2_dir)
    try:
        store = TieredRegionStore(
            base / "drifting",
            max_entries=l1_max_entries,
        )
        if len(store):
            # A reused --l2-dir resumes the previous run's inventory;
            # regions served from it are not among *this* run's fresh
            # solves and would spuriously fail the bitwise audit.
            store.clear()
        tiered, bitwise_b, tiered_service = run_arm(
            model, requests, label="tiered",
            service_factory=lambda api: InterpretationService(
                api, cache=store, max_batch_size=8, seed=seed,
            ),
        )
        store_stats = store.stats()
        store.close()

        # Churn arm: region turnover against a deliberately tiny L2 byte
        # budget.  Sized in whole records of this model's geometry so
        # dead-marking and compaction *must* engage; total segment bytes
        # are sampled after every chunk and gated against the analytic
        # bound max_bytes / (1 - compact_ratio) + slack for the records
        # in flight between budget checks.
        # 4 live records against a turnover stream that retires far more
        # regions than that: dead bytes must cross the compact_ratio
        # trigger (at the 9th distinct region, analytically), so a store
        # that never compacts fails the gate deterministically.
        record_bytes = _record_frame_bytes(anchors.shape[1], model.n_classes)
        churn_budget = 4 * record_bytes
        compact_ratio = 0.5
        churn_stream = churn_workload(
            anchors, churn_requests, exponent=exponent, seed=seed
        )
        churn_store = TieredRegionStore(
            base / "churn",
            max_entries=4,
            l2_max_bytes=churn_budget,
            compact_ratio=compact_ratio,
        )
        if len(churn_store):
            churn_store.clear()
        churn_service = InterpretationService(
            PredictionAPI(model), cache=churn_store, max_batch_size=8,
            seed=seed,
        )
        max_total = 0
        chunk = 16
        for start in range(0, churn_requests, chunk):
            churn_service.interpret_many(
                churn_stream[start:start + chunk]
            )
            max_total = max(
                max_total, churn_store.stats().l2_total_bytes
            )
        churn_stats = churn_store.stats()
        churn_store.close()
        bytes_bound = int(
            churn_budget / (1.0 - compact_ratio) + 2 * record_bytes
        )
    finally:
        if tmp is not None:
            tmp.cleanup()

    hit_retention = (
        tiered.hit_rate / all_ram.hit_rate
        if all_ram.hit_rate > 0
        else float("inf")
    )
    return TieredStoreReport(
        all_ram=all_ram,
        tiered=tiered,
        all_ram_service=ram_service.stats().as_dict(),
        tiered_service=tiered_service.stats().as_dict(),
        store=store_stats.as_dict(),
        l1_max_entries=l1_max_entries,
        l1_resident_fraction=TIERED_L1_RESIDENT_FRACTION,
        hit_retention=hit_retention,
        bitwise_consistent=bitwise_a and bitwise_b,
        churn_requests=churn_requests,
        churn_l2_max_bytes=churn_budget,
        churn_compactions=churn_stats.l2_compactions,
        churn_max_total_bytes=max_total,
        churn_bytes_bound=bytes_bound,
        churn_bounded=max_total <= bytes_bound,
        churn_store=churn_stats.as_dict(),
    )


def gate_failures(
    report: TieredStoreReport, *, min_hit_retention: float
) -> list[str]:
    """Every reason ``report`` fails its gates (empty list = pass):
    ground truth, bitwise transparency and bounded churn-arm disk
    growth always (``--tiny`` included), plus ``min_hit_retention``."""
    failures = gt_failures(report.all_ram, report.tiered)
    if not report.bitwise_consistent:
        failures.append(
            "a store-served answer was not bitwise equal to a fresh "
            "certified solve"
        )
    if report.hit_retention < min_hit_retention:
        failures.append(
            f"tiered store retains {report.hit_retention:.3f} of the "
            f"all-RAM hit rate at "
            f"{100 * report.l1_resident_fraction:.0f}% L1 residency "
            f"(gate {min_hit_retention:.2f})"
        )
    if report.churn_compactions < 1:
        failures.append(
            "the churn arm never compacted (dead-entry reclamation is "
            "not engaging)"
        )
    if not report.churn_bounded:
        failures.append(
            f"churn-arm segment bytes peaked at "
            f"{report.churn_max_total_bytes} against the "
            f"{report.churn_bytes_bound}-byte compaction bound "
            "(disk growth is unbounded)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="tiered region store: disk-backed inventory retention "
        "and compaction-bounded disk growth"
    )
    parser.add_argument("--requests", type=int, default=600)
    parser.add_argument("--anchors", type=int, default=48)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--l2-dir", default=None,
        help="keep the L2 segment directories here instead of a "
        "temporary directory (inspectable after the run; cleared at "
        "the start of the next one, so each run audits only its own "
        "solves)",
    )
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke scale (small model, at most 120 requests and 16 "
        "anchors, correctness gates only)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the report here (JSON for .json paths, text otherwise)",
    )
    args = parser.parse_args(argv)
    if bad_sizes(args, "requests", "anchors"):
        return 2

    if args.tiny:
        n_requests = min(args.requests, 120)
        n_anchors = min(args.anchors, 16)
        n_features, epochs = 5, 40
        min_hit_retention = 0.0
    else:
        n_requests, n_anchors = args.requests, args.anchors
        n_features, epochs = 8, 80
        min_hit_retention = TIERED_HIT_RETENTION_THRESHOLD
    model, X = train_bench_model(
        n_features=n_features, epochs=epochs, seed=args.seed
    )
    report = run_tiered_store_benchmark(
        model, X[:n_anchors], n_requests=n_requests,
        churn_requests=min(n_requests, 120 if args.tiny else 300),
        seed=args.seed, l2_dir=args.l2_dir,
    )
    print(report.as_text())
    if args.output:
        write_report(args.output, report)

    failures = gate_failures(report, min_hit_retention=min_hit_retention)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_tiered_store(results_dir):
    """Pytest-harness entry (``pytest benchmarks/bench_tiered_store.py``)."""
    assert main(["--output", str(results_dir / "tiered_store.txt")]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
