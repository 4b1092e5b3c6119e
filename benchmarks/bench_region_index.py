"""Region sign index: shortlisted vs linear membership scan at scale.

The pruning index's claim (``repro/serving/index.py``): the exact
one-matmul membership test stays the sole correctness authority, but it
does not have to run over the whole inventory — a coarse hyperplane-sign
bucket probe plus a nearest-anchor shortlist narrows the candidate set
first, and a shortlist miss falls back to the full scan, so answers are
identical with the index on or off.  This bench builds synthetic region
inventories of growing size (1M regions at default scale), times the
production ``RegionCache._scan`` in both arms, and gates:

* **identical winners, always** (``--tiny`` included) — every probe
  returns a bitwise-equal ``(key, distance)`` winner in both arms;
* **tiered transparency, always** — one drifting-Zipf stream replayed
  through two tiered stores (index off/on) at a tiny L1, so eviction,
  demotion and promotion all fire, must yield identical hit/miss counts
  and bitwise-identical answers;
* **sub-linear scaling, at default scale** — the indexed scan must be
  >= 4x faster than the linear scan at the largest inventory, and its
  cost growth across the size sweep at most half the linear arm's.

Run standalone (the CI smoke uses ``--tiny``)::

    PYTHONPATH=src python benchmarks/bench_region_index.py --tiny
    PYTHONPATH=src python benchmarks/bench_region_index.py \\
        --output BENCH_region_index.json

or as a pytest bench: ``pytest benchmarks/bench_region_index.py``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.api.service import PredictionAPI
from repro.models.base import PiecewiseLinearModel
from repro.serving import (
    MAX_INDEX_BITS,
    InterpretationService,
    RegionCache,
    TieredRegionStore,
    drifting_zipf_workload,
)
from repro.utils.rng import as_generator
from serving_common import bad_sizes, train_bench_model, write_report

#: Speedup the indexed scan must reach over the linear scan at the
#: largest benchmark inventory (1M synthetic regions at default scale).
INDEX_SPEEDUP_THRESHOLD: float = 4.0

#: Sub-linearity gate: the indexed arm's cost growth across the size
#: sweep may be at most this fraction of the linear arm's growth.
INDEX_GROWTH_RATIO_THRESHOLD: float = 0.5


@dataclass(frozen=True)
class IndexScalingRow:
    """Linear vs indexed membership-scan timing at one inventory size.

    Both caches hold the *same* synthetic regions (shared stacks) and
    are probed with the same queries; ``identical_winners`` asserts the
    two scans returned bitwise-equal ``(key, distance)`` winners for
    every probe.  ``speedup = linear_scan_s / indexed_scan_s``.
    """

    n_entries: int
    n_probes: int
    linear_scan_s: float
    indexed_scan_s: float
    speedup: float
    identical_winners: bool
    index_hits: int
    index_fallbacks: int

    def as_dict(self) -> dict:
        return {
            "n_entries": self.n_entries,
            "n_probes": self.n_probes,
            "linear_scan_s": self.linear_scan_s,
            "indexed_scan_s": self.indexed_scan_s,
            "speedup": self.speedup,
            "identical_winners": self.identical_winners,
            "index_hits": self.index_hits,
            "index_fallbacks": self.index_fallbacks,
        }


@dataclass(frozen=True)
class RegionIndexReport:
    """The region-index comparison: scan scaling plus a tiered audit.

    The scaling arm times the production :meth:`RegionCache._scan` —
    index off vs on — over synthetic inventories of growing size;
    ``growth_ratio`` divides the indexed arm's cost growth (largest
    size over smallest) by the linear arm's, so a value well below 1
    is sub-linear lookup scaling.  The tiered arm replays one
    drifting-Zipf stream through two :class:`TieredRegionStore`
    services (index off/on) at a deliberately tiny L1 — forcing
    eviction, demotion and promotion — and requires identical hit/miss
    counts and bitwise-identical answers.
    """

    d: int
    n_pairs: int
    index_bits: int
    index_shortlist: int
    rows: tuple[IndexScalingRow, ...]
    linear_growth: float
    indexed_growth: float
    growth_ratio: float
    max_scale_speedup: float
    identical_winners: bool
    tiered_requests: int
    tiered_l1_max_entries: int
    tiered_hit_rate_off: float
    tiered_hit_rate_on: float
    tiered_counts_identical: bool
    tiered_answers_identical: bool
    tiered_bitwise_consistent: bool
    tiered_store: dict

    def as_text(self) -> str:
        lines = [
            "region sign index: shortlisted vs linear membership scan "
            f"(d={self.d}, P={self.n_pairs}, {self.index_bits}-bit, "
            f"shortlist {self.index_shortlist})",
            "",
            f"{'entries':>10}  {'probes':>6}  {'linear/scan':>12}  "
            f"{'indexed/scan':>12}  {'speedup':>8}  identical",
        ]
        for row in self.rows:
            lines.append(
                f"{row.n_entries:>10}  {row.n_probes:>6}  "
                f"{1e6 * row.linear_scan_s:>10.0f}us  "
                f"{1e6 * row.indexed_scan_s:>10.0f}us  "
                f"{row.speedup:>7.1f}x  {row.identical_winners}"
            )
        lines += [
            "",
            f"cost growth ({self.rows[0].n_entries} -> "
            f"{self.rows[-1].n_entries} entries): linear "
            f"{self.linear_growth:.1f}x, indexed {self.indexed_growth:.1f}x "
            f"(ratio {self.growth_ratio:.3f})",
            f"tiered audit ({self.tiered_requests} drifting-Zipf requests, "
            f"L1 <= {self.tiered_l1_max_entries} entries): hit rate "
            f"{100 * self.tiered_hit_rate_off:.1f}% off vs "
            f"{100 * self.tiered_hit_rate_on:.1f}% on, "
            f"counts identical={self.tiered_counts_identical}, "
            f"answers identical={self.tiered_answers_identical}, "
            f"bitwise={self.tiered_bitwise_consistent}",
            f"L2 index traffic: {self.tiered_store['l2_index_hits']} hits, "
            f"{self.tiered_store['l2_index_fallbacks']} fallbacks",
        ]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-safe rendering (the ``BENCH_region_index.json`` CI
        artifact; key set pinned by the schema test)."""
        return {
            "d": self.d,
            "n_pairs": self.n_pairs,
            "index_bits": self.index_bits,
            "index_shortlist": self.index_shortlist,
            "rows": [row.as_dict() for row in self.rows],
            "linear_growth": self.linear_growth,
            "indexed_growth": self.indexed_growth,
            "growth_ratio": self.growth_ratio,
            "max_scale_speedup": self.max_scale_speedup,
            "identical_winners": self.identical_winners,
            "tiered_requests": self.tiered_requests,
            "tiered_l1_max_entries": self.tiered_l1_max_entries,
            "tiered_hit_rate_off": self.tiered_hit_rate_off,
            "tiered_hit_rate_on": self.tiered_hit_rate_on,
            "tiered_counts_identical": self.tiered_counts_identical,
            "tiered_answers_identical": self.tiered_answers_identical,
            "tiered_bitwise_consistent": self.tiered_bitwise_consistent,
            "tiered_store": self.tiered_store,
        }


def _time_scans(
    scan: Callable[[np.ndarray, np.ndarray, int], object],
    probes: np.ndarray,
    y: np.ndarray,
    *,
    repeats: int = 3,
) -> float:
    """Best-of-``repeats`` mean seconds per membership scan."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x in probes:
            scan(x, y, 0)
        best = min(best, (time.perf_counter() - t0) / probes.shape[0])
    return best


def _synthetic_region_inventory(
    rng: np.random.Generator, m: int, d: int, n_pairs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``m`` synthetic certified regions with a shared claim target.

    Every region ``i`` gets a random ``(P, d)`` weight stack and an
    anchor in ``[-1, 1]^d``; intercepts are back-solved so region ``i``
    passes the membership test *exactly at its own anchor* against one
    shared log-odds vector ``t`` (error ~1e-15), while any other
    region's claim there is off by ``W_j @ (anchor_i - anchor_j)`` —
    O(1) against a 1e-6 tolerance.  Probing entry anchors therefore
    exercises the hit path with exactly one passing candidate.

    Returns ``(W, B, anchors, y)`` where ``y`` is the probe's class
    distribution realising ``t``.
    """
    W = rng.normal(size=(m, n_pairs, d))
    anchors = rng.uniform(-1.0, 1.0, size=(m, d))
    t = rng.normal(scale=0.5, size=n_pairs)
    B = t - np.einsum("mpd,md->mp", W, anchors)
    u = np.concatenate(([1.0], np.exp(-t)))
    y = u / u.sum()
    return W, B, anchors, y


def _bulk_filled_cache(
    W: np.ndarray,
    B: np.ndarray,
    anchors: np.ndarray,
    *,
    region_index: bool,
    index_bits: int,
    index_shortlist: int,
) -> RegionCache:
    """A :class:`RegionCache` whose packed stacks are installed directly.

    ``_scan`` reads only the per-group packed stacks, keys and sign
    index, so the benchmark installs those wholesale — million-entry
    inventories in one vectorized pass — while still driving the
    *production* scan code.  Both arms share the same stack arrays, so
    any winner disagreement is the index's fault, not the data's.
    """
    from repro.serving.cache import _PackedGroup
    from repro.serving.index import RegionSignIndex

    m, n_pairs, d = W.shape
    pairs = tuple((0, j + 1) for j in range(n_pairs))
    cache = RegionCache(
        max_entries=m,
        region_index=region_index,
        index_bits=index_bits,
        index_shortlist=index_shortlist,
    )
    index = RegionSignIndex(d, bits=index_bits) if region_index else None
    group = _PackedGroup(pairs, d, index=index)
    group.load(list(range(m)), W, B, anchors)
    cache._groups[(0, pairs)] = group
    cache._dim = d
    cache._min_classes = n_pairs + 1
    return cache


def run_region_index_benchmark(
    model: PiecewiseLinearModel,
    stream_anchors: np.ndarray,
    *,
    sizes: tuple[int, ...],
    probe_counts: list[int],
    n_requests: int,
    index_bits: int,
    index_shortlist: int,
    seed: int,
    d: int = 8,
    n_pairs: int = 2,
) -> RegionIndexReport:
    """Run both arms of the region-index benchmark.

    * *Scaling* — synthetic inventories of each size in ``sizes``, the
      production ``RegionCache._scan`` timed index-off vs index-on over
      the same probes, every winner compared bitwise.
    * *Tiered audit* — one drifting-Zipf stream over ``stream_anchors``
      replayed through two tiered stores (index off/on) at a tiny L1, so
      eviction, demotion and promotion all fire; hit/miss counts and
      answers must be identical.
    """
    rng = as_generator(seed)
    rows = []
    for m, n_probes in zip(sizes, probe_counts):
        W, B, anchors, y = _synthetic_region_inventory(rng, m, d, n_pairs)
        linear = _bulk_filled_cache(
            W, B, anchors, region_index=False,
            index_bits=index_bits, index_shortlist=index_shortlist,
        )
        indexed = _bulk_filled_cache(
            W, B, anchors, region_index=True,
            index_bits=index_bits, index_shortlist=index_shortlist,
        )
        probe_rows = rng.choice(m, size=min(n_probes, m), replace=False)
        probes = anchors[probe_rows]
        identical = all(
            linear._scan(x, y, 0) == indexed._scan(x, y, 0) for x in probes
        )
        linear._scan(probes[0], y, 0)  # warm-up (stacks are pre-built)
        indexed._scan(probes[0], y, 0)
        linear_s = _time_scans(linear._scan, probes, y)
        indexed_s = _time_scans(indexed._scan, probes, y)
        rows.append(
            IndexScalingRow(
                n_entries=m,
                n_probes=probes.shape[0],
                linear_scan_s=linear_s,
                indexed_scan_s=indexed_s,
                speedup=linear_s / indexed_s if indexed_s > 0 else float("inf"),
                identical_winners=identical,
                index_hits=indexed._index_hits,
                index_fallbacks=indexed._index_fallbacks,
            )
        )

    linear_growth = (
        rows[-1].linear_scan_s / rows[0].linear_scan_s
        if rows[0].linear_scan_s > 0 else float("inf")
    )
    indexed_growth = (
        rows[-1].indexed_scan_s / rows[0].indexed_scan_s
        if rows[0].indexed_scan_s > 0 else float("inf")
    )

    # Tiered audit: same stream, index off vs on, tiny L1 so regions
    # churn through evict -> demote -> promote while the answers and
    # hit/miss counts must stay identical.
    requests = drifting_zipf_workload(
        stream_anchors, n_requests, exponent=2.2, drift_step=3, seed=seed
    )
    l1_max_entries = 4
    arms = {}
    with tempfile.TemporaryDirectory() as base:
        for label, on in (("index-off", False), ("index-on", True)):
            store = TieredRegionStore(
                Path(base) / label,
                max_entries=l1_max_entries,
                region_index=on,
                index_bits=index_bits,
                index_shortlist=index_shortlist,
            )
            service = InterpretationService(
                PredictionAPI(model), cache=store, max_batch_size=8,
                seed=seed,
            )
            responses = service.interpret_many(requests)
            # The same two-pass bitwise audit as run_arm: every
            # store-served answer must be bitwise one of this run's
            # fresh certified solves.
            region_solves = {
                r.interpretation.decision_features.tobytes()
                for r in responses
                if r.ok and not r.served_from_cache
            }
            bitwise_ok = all(
                r.interpretation.decision_features.tobytes() in region_solves
                for r in responses
                if r.ok and r.served_from_cache
            )
            arms[label] = (
                service.stats(), responses, bitwise_ok, store.stats()
            )
            store.close()
    stats_off, responses_off, bitwise_off, _ = arms["index-off"]
    stats_on, responses_on, bitwise_on, store_stats_on = arms["index-on"]
    counts_identical = (
        stats_off.cache_hits == stats_on.cache_hits
        and stats_off.n_ok == stats_on.n_ok
        and stats_off.n_requests == stats_on.n_requests
    )
    answers_identical = all(
        a.ok == b.ok
        and (
            not a.ok
            or a.interpretation.decision_features.tobytes()
            == b.interpretation.decision_features.tobytes()
        )
        for a, b in zip(responses_off, responses_on)
    )

    return RegionIndexReport(
        d=d,
        n_pairs=n_pairs,
        index_bits=index_bits,
        index_shortlist=index_shortlist,
        rows=tuple(rows),
        linear_growth=linear_growth,
        indexed_growth=indexed_growth,
        growth_ratio=(
            indexed_growth / linear_growth
            if linear_growth > 0 else float("inf")
        ),
        max_scale_speedup=rows[-1].speedup,
        identical_winners=all(row.identical_winners for row in rows),
        tiered_requests=int(requests.shape[0]),
        tiered_l1_max_entries=l1_max_entries,
        tiered_hit_rate_off=stats_off.hit_rate,
        tiered_hit_rate_on=stats_on.hit_rate,
        tiered_counts_identical=counts_identical,
        tiered_answers_identical=bool(answers_identical),
        tiered_bitwise_consistent=bitwise_off and bitwise_on,
        tiered_store=store_stats_on.as_dict(),
    )


def gate_failures(
    report: RegionIndexReport,
    *,
    min_speedup: float,
    max_growth_ratio: float,
) -> list[str]:
    """Every reason ``report`` fails its gates (empty list = pass):
    identical winners and the tiered audit always (``--tiny``
    included), plus the speedup and sub-linearity thresholds."""
    failures = []
    if not report.identical_winners:
        failures.append(
            "the indexed scan returned a different (key, distance) "
            "winner than the linear scan"
        )
    if not report.tiered_counts_identical:
        failures.append(
            "the tiered replay produced different hit/miss counts with "
            "the index on vs off"
        )
    if not report.tiered_answers_identical:
        failures.append(
            "a tiered-replay answer differed bitwise between the "
            "index-on and index-off arms"
        )
    if not report.tiered_bitwise_consistent:
        failures.append(
            "a store-served answer was not bitwise equal to a fresh "
            "certified solve"
        )
    if report.max_scale_speedup < min_speedup:
        failures.append(
            f"indexed scan is {report.max_scale_speedup:.1f}x faster "
            f"than linear at {report.rows[-1].n_entries} entries "
            f"(gate {min_speedup:.1f}x)"
        )
    if report.growth_ratio > max_growth_ratio:
        failures.append(
            f"indexed cost growth is {report.growth_ratio:.3f} of "
            f"linear growth across the size sweep "
            f"(gate {max_growth_ratio:.2f} — not sub-linear)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="region sign index: sub-linear membership-scan "
        "scaling with identical answers index on/off"
    )
    parser.add_argument("--index-bits", type=int, default=16)
    parser.add_argument("--shortlist", type=int, default=64)
    parser.add_argument("--requests", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke scale (hundreds of regions instead of 1M, at most "
        "60 requests, correctness gates only)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the report here (JSON for .json paths, text otherwise)",
    )
    args = parser.parse_args(argv)
    if bad_sizes(args, "requests", "shortlist"):
        return 2
    if not 1 <= args.index_bits <= MAX_INDEX_BITS:
        print(f"error: --index-bits must be in [1, {MAX_INDEX_BITS}]",
              file=sys.stderr)
        return 2

    if args.tiny:
        sizes = (200, 400)
        probe_counts = [32] * len(sizes)
        n_requests = min(args.requests, 60)
        min_speedup, max_growth_ratio = 0.0, float("inf")
    else:
        sizes = (10_000, 100_000, 1_000_000)
        probe_counts = [max(8, 64 >> i) for i in range(len(sizes))]
        n_requests = args.requests
        min_speedup = INDEX_SPEEDUP_THRESHOLD
        max_growth_ratio = INDEX_GROWTH_RATIO_THRESHOLD
    model, X = train_bench_model(n_features=5, epochs=40, seed=args.seed)
    report = run_region_index_benchmark(
        model, X[:16], sizes=sizes, probe_counts=probe_counts,
        n_requests=n_requests, index_bits=args.index_bits,
        index_shortlist=args.shortlist, seed=args.seed,
    )
    print(report.as_text())
    if args.output:
        write_report(args.output, report)

    failures = gate_failures(
        report, min_speedup=min_speedup, max_growth_ratio=max_growth_ratio
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_region_index(results_dir):
    """Pytest-harness entry (``pytest benchmarks/bench_region_index.py``)."""
    assert main(["--output", str(results_dir / "region_index.txt")]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
