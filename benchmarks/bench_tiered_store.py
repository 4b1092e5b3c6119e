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
  promotion, and the mmap round trip.

The workload, scale constants and gates live in
:func:`repro.serving.run_tiered_store_benchmark`, shared with the
``python -m repro bench-store`` subcommand.

Run standalone (the CI smoke uses ``--tiny``)::

    PYTHONPATH=src python benchmarks/bench_tiered_store.py --tiny
    PYTHONPATH=src python benchmarks/bench_tiered_store.py \\
        --output BENCH_tiered_store.json

or as a pytest bench: ``pytest benchmarks/bench_tiered_store.py``.
"""

from __future__ import annotations

import argparse
import sys

from repro.io import write_report
from repro.serving import run_tiered_store_benchmark, tiered_gate_failures


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
        help="CI smoke scale (small model, 120 requests, correctness "
        "gates only)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the report here (JSON for .json paths, text otherwise)",
    )
    args = parser.parse_args(argv)

    report, min_retention = run_tiered_store_benchmark(
        n_requests=args.requests, n_anchors=args.anchors,
        seed=args.seed, tiny=args.tiny, l2_dir=args.l2_dir,
    )
    print(report.as_text())
    if args.output:
        write_report(args.output, report)
        print(f"\nreport written to {args.output}")

    failures = tiered_gate_failures(
        report, min_hit_retention=min_retention
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_tiered_store(record_result):
    """Pytest-harness entry (``pytest benchmarks/bench_tiered_store.py``)."""
    report, min_retention = run_tiered_store_benchmark()
    record_result("tiered_store", report.as_text())
    failures = tiered_gate_failures(report, min_hit_retention=min_retention)
    assert not failures, failures
    assert report.all_ram.max_gt_l1_error < 1e-6
    assert report.tiered.max_gt_l1_error < 1e-6


if __name__ == "__main__":
    raise SystemExit(main())
