"""Tiered region store: durability, transparency, tier round trips.

Covers the store module's three contracts:

* **durability** — a kill during an append leaves a loadable store (the
  torn tail frame is detected by its CRC and truncated away); a crash
  between the record fsync and the index rename is recovered by the
  tail scan; compaction preserves every live signature while dropping
  dead bytes; a clean close drains L1 so reopening resumes the full
  inventory;
* **bitwise transparency** — interpretations are identical with L2 off,
  L2 on, and after demote → promote round trips through the mmap'd
  segments (the paper's Theorem 2 exactness contract, extended to
  disk);
* **snapshot interop** — `.npz` region snapshots written by either
  tier bootstrap the disk tier, bitwise.

It also pins the stability of :func:`region_signature`, the key every
L2 record is stored under.
"""

from __future__ import annotations

import json
import tempfile
import threading
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import PredictionAPI
from repro.core import CoreParameterEstimate, Interpretation
from repro.exceptions import ValidationError
from repro.models.openbox import ground_truth_decision_features
from repro.serving import (
    InterpretationService,
    L2ReaderCache,
    RegionCache,
    SegmentStore,
    TieredRegionStore,
    region_signature,
    signature_of,
    zipf_clustered_workload,
)
from repro.serving.store import _HEADER, _pack_payload


def _affine_interp(x0, W, b, *, target_class=0):
    """A hand-built certified interpretation claiming log-odds W @ x + b
    for pairs ``(target, j)`` — full geometric control for store tests."""
    others = [j for j in range(W.shape[0] + 1) if j != target_class]
    pairs = {
        (target_class, j): CoreParameterEstimate(
            c=target_class, c_prime=j, weights=W[i], intercept=float(b[i]),
            certified=True,
        )
        for i, j in enumerate(others)
    }
    return Interpretation(
        x0=x0, target_class=target_class, decision_features=W.mean(axis=0),
        pair_estimates=pairs, method="test", final_edge=1.0,
    )


def _probs_for_claims(t):
    """A probability row whose log-odds ``ln(y_0 / y_j)`` equal ``t[j-1]``."""
    logits = np.concatenate([[0.0], -np.asarray(t, dtype=np.float64)])
    z = np.exp(logits - logits.max())
    return z / z.sum()


def _random_records(rng, n, *, d=4, P=2):
    """``n`` synthetic L2 records keyed by signature ``100 + i``."""
    records = {}
    pairs = tuple((0, j + 1) for j in range(P))
    for i in range(n):
        records[100 + i] = (
            0, pairs, rng.normal(size=(P, d)), rng.normal(size=P),
            rng.normal(size=d), rng.normal(size=d), float(rng.uniform(0.1, 1)),
        )
    return records


def _fill(store: SegmentStore, records: dict) -> None:
    for sig, rec in records.items():
        assert store.append(sig, *rec)


def _segment_paths(directory):
    return sorted(directory.glob("segment-*.seg"))


class TestRegionSignature:
    def test_stable_across_calls_and_processes(self):
        rng = np.random.default_rng(0)
        W, b = rng.normal(size=(2, 4)), rng.normal(size=2)
        pairs = ((0, 1), (0, 2))
        sig = region_signature(0, pairs, W, b)
        assert sig == region_signature(0, pairs, W, b)
        # CRC-based, not Python hash() — pin one literal value so a salted
        # or platform-dependent hash cannot sneak in (L2 records written
        # by one process must be recognised by the next).
        fixed = region_signature(
            1, ((1, 0),), np.array([[1.0, 2.0]]), np.array([3.0])
        )
        assert fixed == region_signature(
            1, ((1, 0),), np.array([[1.0, 2.0]]), np.array([3.0])
        )
        assert 0 <= fixed < 2**32

    def test_quantization_collapses_solver_noise(self):
        rng = np.random.default_rng(1)
        W, b = rng.normal(size=(2, 4)), rng.normal(size=2)
        pairs = ((0, 1), (0, 2))
        noisy = region_signature(0, pairs, W + 1e-10, b - 1e-10)
        assert noisy == region_signature(0, pairs, W, b)

    def test_distinct_regions_distinct_signatures(self):
        rng = np.random.default_rng(2)
        pairs = ((0, 1), (0, 2))
        sigs = {
            region_signature(
                0, pairs, rng.normal(size=(2, 4)), rng.normal(size=2)
            )
            for _ in range(64)
        }
        assert len(sigs) == 64

    def test_signature_of_matches_manual(self):
        rng = np.random.default_rng(3)
        W, b = rng.normal(size=(2, 5)), rng.normal(size=2)
        interp = _affine_interp(rng.normal(size=5), W, b)
        pairs = tuple(sorted(interp.pair_estimates))
        assert signature_of(interp) == region_signature(0, pairs, W, b)


class TestSegmentStoreDurability:
    def test_append_read_bitwise_and_duplicate_skip(self, tmp_path):
        rng = np.random.default_rng(0)
        records = _random_records(rng, 5)
        store = SegmentStore(tmp_path)
        _fill(store, records)
        assert len(store) == 5
        sig, rec = next(iter(records.items()))
        assert not store.append(sig, *rec)  # live duplicate skipped
        for sig, rec in records.items():
            got = store.read(sig)
            assert got[0] == rec[0] and got[1] == rec[1]
            for a, b in zip(got[2:6], rec[2:6]):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            assert got[6] == rec[6]
        store.close()

    def test_kill_during_append_leaves_loadable_store(self, tmp_path):
        rng = np.random.default_rng(1)
        records = _random_records(rng, 4)
        store = SegmentStore(tmp_path)
        _fill(store, records)
        store.close()
        # Simulate a crash mid-append: a torn frame (valid-looking header,
        # truncated payload) lands past the indexed tail.
        seg = _segment_paths(tmp_path)[0]
        payload = _pack_payload(*records[100])
        header = _HEADER.pack(b"RGS1", len(payload), zlib.crc32(payload), 999)
        with open(seg, "ab") as handle:
            handle.write(header + payload[: len(payload) // 2])
        torn_size = seg.stat().st_size

        reopened = SegmentStore(tmp_path)
        assert len(reopened) == 4                       # tail ignored
        assert 999 not in reopened.live_signatures()
        assert seg.stat().st_size < torn_size           # tail truncated
        for sig, rec in records.items():                # data intact
            assert reopened.read(sig)[2].tobytes() == rec[2].tobytes()
        # The store keeps working after recovery.
        assert reopened.append(999, *records[100])
        assert len(reopened) == 5
        reopened.close()

    def test_crash_between_fsync_and_index_rename_is_recovered(
        self, tmp_path
    ):
        rng = np.random.default_rng(2)
        records = _random_records(rng, 3)
        store = SegmentStore(tmp_path)
        _fill(store, records)
        store.close()
        # Simulate the record fsync landing but the index rename not: a
        # whole valid frame sits past the indexed tail.
        extra_sig, extra = 999, records[100]
        payload = _pack_payload(*extra)
        header = _HEADER.pack(
            b"RGS1", len(payload), zlib.crc32(payload), extra_sig
        )
        with open(_segment_paths(tmp_path)[0], "ab") as handle:
            handle.write(header + payload)

        reopened = SegmentStore(tmp_path)
        assert extra_sig in reopened.live_signatures()
        assert reopened.read(extra_sig)[2].tobytes() == extra[2].tobytes()
        reopened.close()

    def test_missing_index_recovers_by_full_scan(self, tmp_path):
        rng = np.random.default_rng(3)
        records = _random_records(rng, 4)
        store = SegmentStore(tmp_path)
        _fill(store, records)
        store.close()
        (tmp_path / "index.json").unlink()
        reopened = SegmentStore(tmp_path)
        assert reopened.live_signatures() == set(records)
        reopened.close()

    def test_orphan_segments_from_interrupted_compaction_are_dropped(
        self, tmp_path
    ):
        rng = np.random.default_rng(4)
        store = SegmentStore(tmp_path)
        _fill(store, _random_records(rng, 2))
        store.close()
        orphan = tmp_path / "segment-99999.seg"
        orphan.write_bytes(b"leftover of a crashed compaction")
        reopened = SegmentStore(tmp_path)
        assert not orphan.exists()
        assert len(reopened) == 2
        reopened.close()

    def test_budget_marks_stalest_dead_and_compaction_preserves_live(
        self, tmp_path
    ):
        rng = np.random.default_rng(5)
        records = _random_records(rng, 12)
        probe = SegmentStore(tmp_path / "probe")
        sig0, rec0 = next(iter(records.items()))
        probe.append(sig0, *rec0)
        frame = probe.live_bytes
        probe.close()

        store = SegmentStore(
            tmp_path / "bounded", max_bytes=4 * frame, compact_ratio=0.5
        )
        _fill(store, records)
        assert len(store) == 4                    # budget enforced
        assert store.live_bytes <= 4 * frame
        assert store.n_compactions >= 1           # dead ratio crossed 0.5
        assert store.total_bytes <= int(4 * frame / 0.5) + 2 * frame
        live_before = store.live_signatures()
        reclaimed = store.compact()
        assert reclaimed >= 0
        assert store.live_signatures() == live_before
        assert store.dead_bytes == 0
        assert store.n_segments == 1
        for sig in live_before:                   # payloads survive, bitwise
            assert store.read(sig)[2].tobytes() == records[sig][2].tobytes()
        store.close()
        reopened = SegmentStore(tmp_path / "bounded")
        assert reopened.live_signatures() == live_before
        reopened.close()

    def test_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            SegmentStore(tmp_path, max_bytes=0)
        with pytest.raises(ValidationError):
            SegmentStore(tmp_path, compact_ratio=1.0)
        store = SegmentStore(tmp_path)
        with pytest.raises(ValidationError):
            store.read(12345)
        store.close()


class TestTieredRegionStore:
    def test_eviction_demotes_and_lookup_promotes_bitwise(self, tmp_path):
        rng = np.random.default_rng(6)
        store = TieredRegionStore(tmp_path, max_entries=2)
        interps = []
        for _ in range(5):
            interp = _affine_interp(
                rng.normal(size=4), rng.normal(size=(2, 4)),
                rng.normal(size=2),
            )
            interps.append(interp)
            assert store.insert(interp)
        stats = store.stats()
        assert stats.demotions == 3                 # 5 inserted, L1 holds 2
        assert stats.l2_entries == 3
        assert len(store) == 5                      # nothing was dropped

        # The first-inserted region was evicted to disk; serving it again
        # promotes it back, bitwise.
        victim = interps[0]
        claims = np.asarray(
            [
                victim.pair_estimates[p].weights @ victim.x0
                + victim.pair_estimates[p].intercept
                for p in sorted(victim.pair_estimates)
            ]
        )
        y0 = _probs_for_claims(claims)
        hit = store.lookup(victim.x0, y0, victim.target_class)
        assert hit is not None
        assert (
            hit.decision_features.tobytes()
            == victim.decision_features.tobytes()
        )
        for pair, est in victim.pair_estimates.items():
            assert (
                hit.pair_estimates[pair].weights.tobytes()
                == est.weights.tobytes()
            )
        stats = store.stats()
        assert stats.l2_hits == 1 and stats.promotions == 1
        # Promoted: the next same-region lookup is a RAM hit.
        again = store.lookup(victim.x0, y0, victim.target_class)
        assert again is not None
        assert store.stats().l1_hits >= 1
        store.close()

    def test_close_drains_l1_and_reopen_resumes_inventory(self, tmp_path):
        rng = np.random.default_rng(7)
        store = TieredRegionStore(tmp_path, max_entries=4)
        interps = [
            _affine_interp(
                rng.normal(size=4), rng.normal(size=(2, 4)),
                rng.normal(size=2),
            )
            for _ in range(4)
        ]
        for interp in interps:
            assert store.insert(interp)
        assert store.stats().l1["size"] > 0         # some only in RAM
        assert store.stats().l2_entries < 4         # ... not yet on disk
        store.close()                               # drain persists them

        reopened = TieredRegionStore(tmp_path, max_entries=4)
        assert len(reopened) == 4
        for interp in interps:
            claims = np.asarray(
                [
                    interp.pair_estimates[p].weights @ interp.x0
                    + interp.pair_estimates[p].intercept
                    for p in sorted(interp.pair_estimates)
                ]
            )
            hit = reopened.lookup(
                interp.x0, _probs_for_claims(claims), interp.target_class
            )
            assert hit is not None
            assert (
                hit.decision_features.tobytes()
                == interp.decision_features.tobytes()
            )
        reopened.close()

    def test_snapshot_bootstraps_l2_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        store = TieredRegionStore(tmp_path / "src", max_entries=2)
        interps = [
            _affine_interp(
                rng.normal(size=4), rng.normal(size=(2, 4)),
                rng.normal(size=2),
            )
            for _ in range(5)
        ]
        for interp in interps:
            store.insert(interp)
        snap = tmp_path / "regions.npz"
        assert store.save(snap) == 5                # both tiers, deduped
        store.close()

        boot = TieredRegionStore(tmp_path / "boot", max_entries=2)
        assert boot.load(snap) == 5
        assert boot.stats().l2_entries == 5         # cold RAM, warm disk
        assert len(boot.l1) == 0
        for interp in interps:
            hit = boot.lookup(interp.x0, _y0_for(interp), interp.target_class)
            assert hit is not None
            assert (
                hit.decision_features.tobytes()
                == interp.decision_features.tobytes()
            )
        boot.close()

    def test_region_cache_snapshot_bootstraps_l2(self, tmp_path):
        """`.npz` snapshots written by the RAM tiers are L2 bootstrap
        payloads — the PR's snapshot-rewiring contract."""
        rng = np.random.default_rng(9)
        cache = RegionCache()
        interp = _affine_interp(
            rng.normal(size=4), rng.normal(size=(2, 4)), rng.normal(size=2)
        )
        cache.insert(interp)
        snap = tmp_path / "cache.npz"
        cache.save(snap)

        store = TieredRegionStore(tmp_path / "boot")
        assert store.load(snap) == 1
        claims = np.asarray(
            [
                interp.pair_estimates[p].weights @ interp.x0
                + interp.pair_estimates[p].intercept
                for p in sorted(interp.pair_estimates)
            ]
        )
        hit = store.lookup(
            interp.x0, _probs_for_claims(claims), interp.target_class
        )
        assert hit is not None
        assert (
            hit.decision_features.tobytes()
            == interp.decision_features.tobytes()
        )
        store.close()

    def test_load_requires_empty_store(self, tmp_path):
        rng = np.random.default_rng(10)
        store = TieredRegionStore(tmp_path / "a")
        store.insert(
            _affine_interp(
                rng.normal(size=4), rng.normal(size=(2, 4)),
                rng.normal(size=2),
            )
        )
        snap = tmp_path / "snap.npz"
        store.save(snap)
        with pytest.raises(ValidationError):
            store.load(snap)
        store.clear()
        assert len(store) == 0
        assert store.load(snap) == 1
        store.close()

    def test_service_rejects_cache_and_store_together(
        self, relu_model, tmp_path
    ):
        api = PredictionAPI(relu_model)
        store = TieredRegionStore(tmp_path)
        with pytest.raises(ValidationError):
            InterpretationService(api, cache=RegionCache(), store=store)
        with pytest.raises(ValidationError):
            InterpretationService(api, store=store, enable_cache=False)
        store.close()


class TestTieredTransparency:
    """Interpretations identical with L2 off, L2 on, and through the
    service's background worker loop."""

    def _replay(self, relu_model, blobs3, tmp_path, *, background):
        requests = zipf_clustered_workload(
            blobs3.X[:10], 60, exponent=1.5, seed=3
        )
        # Arm 1: RAM-only cache (L2 off), unbounded — the
        # reference in which no region is ever forgotten.  (A *bounded*
        # RAM arm would re-solve evicted regions; a fresh certified
        # solve of the same region is exact but not bit-identical to
        # the first one, so it is not the right bitwise reference.)
        ram_service = InterpretationService(
            PredictionAPI(relu_model),
            cache=RegionCache(max_entries=1_000_000),
            max_batch_size=8, seed=0,
        )
        ram = ram_service.interpret_many(requests)
        # Arm 2: tiered store (L2 on) at the same L1 bound.
        store = TieredRegionStore(tmp_path, max_entries=4)
        tiered_service = InterpretationService(
            PredictionAPI(relu_model), store=store, max_batch_size=8, seed=0,
        )
        if background:
            with tiered_service:
                tiered = tiered_service.interpret_many(requests)
        else:
            tiered = tiered_service.interpret_many(requests)
        return requests, ram, tiered, store

    def test_l2_on_equals_l2_off_bitwise(self, relu_model, blobs3, tmp_path):
        requests, ram, tiered, store = self._replay(
            relu_model, blobs3, tmp_path, background=False
        )
        assert store.stats().demotions > 0          # the disk tier engaged
        assert store.stats().l2_hits > 0
        for a, b in zip(ram, tiered):
            assert a.ok and b.ok
            assert (
                a.interpretation.decision_features.tobytes()
                == b.interpretation.decision_features.tobytes()
            )
        store.close()

    def test_background_loop_store_served_answers_match_ground_truth(
        self, relu_model, blobs3, tmp_path
    ):
        requests, _, tiered, store = self._replay(
            relu_model, blobs3, tmp_path, background=True
        )
        for x0, response in zip(requests, tiered):
            assert response.ok
            interp = response.interpretation
            gt = ground_truth_decision_features(
                relu_model, x0, interp.target_class
            )
            assert np.abs(interp.decision_features - gt).max() < 1e-6
        store.close()

    def test_concurrent_clients_keep_exact_meters(
        self, relu_model, blobs3, tmp_path
    ):
        """Many submitting threads against the background loop over a
        demoting store: every request is served and the service meters
        equal the API meters exactly."""
        api = PredictionAPI(relu_model)
        store = TieredRegionStore(tmp_path, max_entries=2)
        service = InterpretationService(
            api, store=store, seed=0, max_batch_size=4, max_wait_s=0.002,
        )
        results: dict[int, bool] = {}

        def client(i: int) -> None:
            response = service.interpret(blobs3.X[i % 6], timeout=30.0)
            results[i] = response.ok

        with service:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(24)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(results) == 24 and all(results.values())
        stats = service.stats()
        assert stats.n_requests == 24
        assert stats.n_queries == api.query_count
        assert stats.round_trips == api.request_count
        assert store.stats().demotions > 0
        store.close()


# --------------------------------------------------------------------- #
# Single-writer / many-reader discipline (the gateway's shared L2)
# --------------------------------------------------------------------- #


def _y0_for(interp):
    """The probability row under which ``interp``'s region claims hold."""
    claims = np.asarray(
        [
            interp.pair_estimates[p].weights @ interp.x0
            + interp.pair_estimates[p].intercept
            for p in sorted(interp.pair_estimates)
        ]
    )
    return _probs_for_claims(claims)


def _record_of(interp):
    """``interp`` in the snapshot record format ``SegmentStore.append``
    takes — the bytes a gateway writer harvests from a worker."""
    pairs = tuple(sorted(interp.pair_estimates))
    W = np.stack([interp.pair_estimates[p].weights for p in pairs])
    b = np.asarray([interp.pair_estimates[p].intercept for p in pairs])
    return (
        interp.target_class, pairs, W, b, interp.x0,
        interp.decision_features, float(interp.final_edge),
    )


class TestReadOnlyAndEpochs:
    def test_read_only_rejects_every_mutation(self, tmp_path):
        rng = np.random.default_rng(20)
        records = _random_records(rng, 2)
        writer = SegmentStore(tmp_path)
        _fill(writer, records)
        writer.close()

        reader = SegmentStore(tmp_path, read_only=True)
        sig, rec = next(iter(records.items()))
        assert reader.read(sig)[2].tobytes() == rec[2].tobytes()
        with pytest.raises(ValidationError, match="read_only"):
            reader.append(999, *rec)
        with pytest.raises(ValidationError, match="read_only"):
            reader.mark_dead(sig)
        with pytest.raises(ValidationError, match="read_only"):
            reader.persist_index()
        with pytest.raises(ValidationError, match="read_only"):
            reader.sync()
        with pytest.raises(ValidationError, match="read_only"):
            reader.compact()
        reader.close()

    def test_read_only_and_exclusive_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValidationError, match="mutually exclusive"):
            SegmentStore(tmp_path, read_only=True, exclusive=True)

    def test_exclusive_lock_admits_one_writer_at_a_time(self, tmp_path):
        first = SegmentStore(tmp_path, exclusive=True)
        with pytest.raises(ValidationError, match="another writer"):
            SegmentStore(tmp_path, exclusive=True)
        # Readers are never blocked by the writer lock.
        reader = SegmentStore(tmp_path, read_only=True)
        reader.close()
        first.close()
        successor = SegmentStore(tmp_path, exclusive=True)
        successor.close()

    def test_reader_follows_publishes_without_reopening(self, tmp_path):
        rng = np.random.default_rng(21)
        records = _random_records(rng, 3)
        writer = SegmentStore(tmp_path)
        _fill(writer, records)
        writer.persist_index()

        reader = SegmentStore(tmp_path, read_only=True)
        assert reader.epoch == writer.epoch
        assert reader.live_signatures() == set(records)
        assert reader.maybe_refresh() is False      # writer idle: one stat

        late_sig, late = 777, next(iter(records.values()))
        assert writer.append(late_sig, *late)
        writer.persist_index()                      # epoch bump
        assert reader.maybe_refresh() is True
        assert reader.epoch == writer.epoch
        assert reader.read(late_sig)[2].tobytes() == late[2].tobytes()
        reader.close()
        writer.close()

    def test_reader_keeps_serving_across_a_compaction(self, tmp_path):
        """The writer compacts (old segment files are unlinked) while a
        reader holds mmaps of them: the reader's un-refreshed view keeps
        serving the old inventory bitwise, and the refresh converges."""
        rng = np.random.default_rng(22)
        records = _random_records(rng, 4)
        writer = SegmentStore(tmp_path)
        _fill(writer, records)
        writer.persist_index()

        reader = SegmentStore(tmp_path, read_only=True)
        victim = min(records)
        for sig, rec in records.items():            # map every segment
            assert reader.read(sig)[2].tobytes() == rec[2].tobytes()

        writer.mark_dead(victim)
        writer.compact()
        # Not yet refreshed: the unlinked files are still mapped, so the
        # pre-compaction inventory — dead region included — serves.
        assert reader.live_signatures() == set(records)
        for sig, rec in records.items():
            assert reader.read(sig)[2].tobytes() == rec[2].tobytes()
        assert reader.maybe_refresh() is True
        assert reader.live_signatures() == set(records) - {victim}
        for sig in set(records) - {victim}:
            assert reader.read(sig)[2].tobytes() == records[sig][2].tobytes()
        reader.close()
        writer.close()

    def test_new_segment_is_indexed_at_creation(self, tmp_path):
        """The very first append must land in an *indexed* segment:
        recovery reaps unindexed segment files as compaction orphans, so
        registering at creation is what makes a crash right after the
        first fsync recoverable (and the fleet's fresh L2 adoptable)."""
        import json

        rng = np.random.default_rng(23)
        sig, rec = next(iter(_random_records(rng, 1).items()))
        writer = SegmentStore(tmp_path)
        assert writer.append(sig, *rec)
        # No close, no explicit publish: the index on disk already
        # references the segment (with a pre-append tail).
        payload = json.loads((tmp_path / "index.json").read_text())
        assert payload["segments"] == ["segment-00000.seg"]

        # A concurrent fresh open therefore tail-scans the segment and
        # adopts the fsynced record instead of deleting the file.
        reader = SegmentStore(tmp_path, read_only=True)
        assert reader.live_signatures() == {sig}
        assert reader.read(sig)[2].tobytes() == rec[2].tobytes()
        reader.close()
        writer.close()


class TestL2ReaderCacheTier:
    def _shared_store(self, tmp_path, n, *, seed):
        rng = np.random.default_rng(seed)
        interps = [
            _affine_interp(
                rng.normal(size=4), rng.normal(size=(2, 4)),
                rng.normal(size=2),
            )
            for _ in range(n)
        ]
        writer = SegmentStore(tmp_path)
        for i, interp in enumerate(interps):
            assert writer.append(1000 + i, *_record_of(interp))
        writer.persist_index()
        return writer, interps

    def test_l2_hit_promotes_bitwise_then_serves_from_l1(self, tmp_path):
        writer, interps = self._shared_store(tmp_path, 3, seed=30)
        reader = L2ReaderCache(tmp_path, max_entries=8)
        target = interps[0]
        y0 = _y0_for(target)

        hit = reader.lookup(target.x0, y0, target.target_class)
        assert hit is not None
        assert hit.method == L2ReaderCache.served_method
        assert (
            hit.decision_features.tobytes()
            == target.decision_features.tobytes()
        )
        for pair, est in target.pair_estimates.items():
            assert (
                hit.pair_estimates[pair].weights.tobytes()
                == est.weights.tobytes()
            )
        stats = reader.stats()
        assert stats["l2_hits"] == 1 and stats["l1_hits"] == 0
        assert stats["l2_records"] == 3

        again = reader.lookup(target.x0, y0, target.target_class)
        assert again is not None                    # promoted: RAM hit
        assert reader.stats()["l1_hits"] == 1
        reader.close()
        writer.close()

    def test_len_counts_a_promoted_region_once(self, tmp_path):
        """A region promoted from L2 is resident in both tiers but is one
        region — the same distinct-signature count as the tiered store."""
        rng = np.random.default_rng(35)
        interp = _affine_interp(
            rng.normal(size=4), rng.normal(size=(2, 4)), rng.normal(size=2)
        )
        writer = SegmentStore(tmp_path)
        assert writer.append(signature_of(interp), *_record_of(interp))
        writer.persist_index()
        reader = L2ReaderCache(tmp_path, max_entries=8)
        assert len(reader) == 1
        assert reader.lookup(
            interp.x0, _y0_for(interp), interp.target_class
        ) is not None
        assert reader.stats()["l2_hits"] == 1
        assert len(reader) == 1
        reader.close()
        writer.close()

    def test_insert_is_private_to_the_reader(self, tmp_path):
        """Workers never write the shared directory: an insert lands in
        the reader's own L1 only, invisible to every other reader."""
        writer, _ = self._shared_store(tmp_path, 1, seed=31)
        rng = np.random.default_rng(32)
        fresh = _affine_interp(
            rng.normal(size=4), rng.normal(size=(2, 4)), rng.normal(size=2)
        )
        reader_a = L2ReaderCache(tmp_path, max_entries=8)
        reader_b = L2ReaderCache(tmp_path, max_entries=8)
        assert reader_a.insert(fresh)
        assert reader_a.lookup(
            fresh.x0, _y0_for(fresh), fresh.target_class
        ) is not None
        assert reader_b.lookup(
            fresh.x0, _y0_for(fresh), fresh.target_class
        ) is None
        assert reader_b.stats()["l2_misses"] == 1
        assert len(writer) == 1                     # shared dir untouched
        reader_a.close()
        reader_b.close()
        writer.close()

    def test_lookups_converge_on_new_epochs(self, tmp_path):
        writer, interps = self._shared_store(tmp_path, 1, seed=33)
        reader = L2ReaderCache(tmp_path, max_entries=8)
        assert reader.lookup(
            interps[0].x0, _y0_for(interps[0]), interps[0].target_class
        ) is not None

        rng = np.random.default_rng(34)
        late = _affine_interp(
            rng.normal(size=4), rng.normal(size=(2, 4)), rng.normal(size=2)
        )
        assert writer.append(2000, *_record_of(late))
        writer.persist_index()
        # The miss path refreshes to the new epoch and finds the record.
        hit = reader.lookup(late.x0, _y0_for(late), late.target_class)
        assert hit is not None
        assert (
            hit.decision_features.tobytes()
            == late.decision_features.tobytes()
        )
        stats = reader.stats()
        assert stats["refreshes"] >= 1
        assert stats["epoch"] == writer.epoch
        reader.close()
        writer.close()

    def test_region_index_on_serves_identical_bytes(self, tmp_path):
        writer, interps = self._shared_store(tmp_path, 4, seed=35)
        plain = L2ReaderCache(tmp_path, max_entries=8)
        indexed = L2ReaderCache(tmp_path, max_entries=8, region_index=True)
        for interp in interps:
            y0 = _y0_for(interp)
            a = plain.lookup(interp.x0, y0, interp.target_class)
            b = indexed.lookup(interp.x0, y0, interp.target_class)
            assert a is not None and b is not None
            assert (
                a.decision_features.tobytes()
                == b.decision_features.tobytes()
            )
        plain.close()
        indexed.close()
        writer.close()


# --------------------------------------------------------------------- #
# The watermark index: segments are the log, index.json only a
# watermark plus tombstones; readers catch up incrementally.
# --------------------------------------------------------------------- #


def _pool_record(i, *, d=4):
    """Pool record ``i``: target 0 over classes {1, 2}, in one of two
    pair orders (two scan groups), bytes fixed by ``i`` alone."""
    rng = np.random.default_rng(500 + i)
    pairs = ((0, 1), (0, 2)) if i % 2 else ((0, 2), (0, 1))
    return (
        0, pairs, rng.normal(size=(2, d)), rng.normal(size=2),
        rng.normal(size=d), rng.normal(size=d), float(rng.uniform(0.1, 1)),
    )


def _pool_probe(i):
    """``(x, y)`` under which pool record ``i``'s claims hold at its
    anchor — a scan hit exactly while the record is live."""
    _, pairs, W, b, x0, _, _ = _pool_record(i)
    logits = np.zeros(3)
    for (_, j), claim in zip(pairs, W @ x0 + b):
        logits[j] = -claim
    z = np.exp(logits - logits.max())
    return x0, z / z.sum()


POOL = 8
PROBES = [_pool_probe(i) for i in range(POOL)] + [
    (np.full(4, 40.0), np.full(3, 1.0 / 3.0))
]


def _assert_same_view(incremental: SegmentStore, fresh: SegmentStore):
    """Everything a reader serves from is equal in both views."""
    assert incremental.epoch == fresh.epoch
    assert incremental.live_signatures() == fresh.live_signatures()
    assert incremental.live_bytes == fresh.live_bytes
    assert incremental.dead_bytes == fresh.dead_bytes
    assert {
        key: set(members)
        for key, members in incremental._live_groups.items()
    } == {key: set(members) for key, members in fresh._live_groups.items()}
    for sig in fresh.live_signatures():
        got, want = incremental.read(sig), fresh.read(sig)
        assert got[:2] == want[:2] and got[6] == want[6]
        for a, b in zip(got[2:6], want[2:6]):
            assert a.tobytes() == b.tobytes()
    for x, y in PROBES:
        assert incremental.scan(x, y, 0, tol=1e-6, floor=1e-12) == (
            fresh.scan(x, y, 0, tol=1e-6, floor=1e-12)
        )


_OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(0, POOL - 1)),
    st.tuples(st.just("mark_dead"), st.integers(0, POOL - 1)),
    st.tuples(st.sampled_from(["publish", "catch_up", "check"])),
    st.tuples(st.sampled_from(["compact", "wipe"])),
)


class TestWatermarkIndex:
    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(_OPS, max_size=30), region_index=st.booleans())
    # A record tombstoned before the reader ever scanned it.
    @example(
        ops=[("append", 0), ("check",), ("append", 1), ("mark_dead", 1)],
        region_index=False,
    )
    # A retired signature appended again after the reader adopted it.
    @example(
        ops=[("append", 0), ("check",), ("mark_dead", 0), ("append", 0)],
        region_index=True,
    )
    def test_incremental_reader_equals_fresh_open(self, ops, region_index):
        """After any interleaving of writer mutations and publishes, a
        reader that only ever caught up incrementally (plus the full
        refresh a changed segment list forces) serves exactly what a
        freshly opened reader serves."""
        with tempfile.TemporaryDirectory() as tmp:
            writer = SegmentStore(tmp, fsync=False)
            reader = SegmentStore(
                tmp, read_only=True, region_index=region_index
            )
            for op, *args in ops + [("check",)]:
                if op == "append":
                    writer.append(args[0], *_pool_record(args[0]))
                elif op == "mark_dead":
                    writer.mark_dead(args[0])
                elif op == "compact":
                    writer.compact()
                elif op == "wipe":
                    writer.wipe()
                elif op == "publish":
                    writer.persist_index()
                elif op == "catch_up":
                    reader.maybe_refresh()
                else:
                    writer.persist_index()
                    assert reader.maybe_refresh()
                    fresh = SegmentStore(
                        tmp, read_only=True, region_index=region_index
                    )
                    _assert_same_view(reader, fresh)
                    assert fresh.live_signatures() == (
                        writer.live_signatures()
                    )
                    fresh.close()
            reader.close()
            writer.close()

    def test_publish_size_does_not_grow_with_live_appends(self, tmp_path):
        """The index carries no per-record rows: with no tombstones, its
        size moves only by the digits of its counters."""
        writer = SegmentStore(tmp_path, fsync=False)
        sizes = []
        for sig in range(300):
            assert writer.append(sig, *_pool_record(sig % POOL))
            writer.persist_index()
            sizes.append((tmp_path / "index.json").stat().st_size)
        assert sizes[-1] - sizes[0] <= 12
        payload = json.loads((tmp_path / "index.json").read_text())
        assert payload["version"] == 2
        assert payload["tombstones"] == []
        assert set(payload) == {
            "version", "epoch", "segments", "tails", "next_touch",
            "tombstones",
        }
        writer.close()

    def test_mapping_is_replaced_when_its_file_grew(self, tmp_path):
        """Regression: a mapping made before its segment grew must not
        serve a record past its end.  ``mmap.size()`` reports the file's
        size, not the mapped length, so checking it left the stale
        mapping in place and the read failed."""
        writer = SegmentStore(tmp_path, fsync=False)
        assert writer.append(0, *_pool_record(0))
        writer.persist_index()
        reader = SegmentStore(tmp_path, read_only=True)
        assert reader.read(0)[2].tobytes() == _pool_record(0)[2].tobytes()
        assert writer.read(0)[2].tobytes() == _pool_record(0)[2].tobytes()

        assert writer.append(1, *_pool_record(1))   # grows past both maps
        assert writer.read(1)[2].tobytes() == _pool_record(1)[2].tobytes()
        writer.persist_index()
        assert reader.maybe_refresh()               # incremental: maps kept
        assert reader.read(1)[2].tobytes() == _pool_record(1)[2].tobytes()
        x, y = _pool_probe(1)
        assert reader.scan(x, y, 0, tol=1e-6, floor=1e-12) == (1, 0.0)
        reader.close()
        writer.close()

    def test_version_1_index_opens_and_is_upgraded(self, tmp_path):
        """A directory published by the row-per-record format opens: its
        dead row stays dead, and a writer republishes it as version 2."""
        frames, rows, offset = [], [], 0
        for sig in (1, 2, 3):
            payload = _pack_payload(*_pool_record(sig))
            frame = _HEADER.pack(
                b"RGS1", len(payload), zlib.crc32(payload), sig
            ) + payload
            _, pairs, _, _, x0, _, _ = _pool_record(sig)
            rows.append(
                [sig, 0, [list(p) for p in pairs], 4, 0, offset,
                 len(frame), sig != 2, sig, x0.tolist()]
            )
            frames.append(frame)
            offset += len(frame)
        rows[0] = rows[0][:9]               # a row from before anchors
        (tmp_path / "segment-00000.seg").write_bytes(b"".join(frames))
        (tmp_path / "index.json").write_text(json.dumps({
            "version": 1, "epoch": 7, "segments": ["segment-00000.seg"],
            "tails": [offset], "next_touch": 3, "records": rows,
        }))

        reader = SegmentStore(tmp_path, read_only=True)
        assert reader.epoch == 7
        assert reader.live_signatures() == {1, 3}
        assert reader.dead_bytes == rows[1][6]
        writer = SegmentStore(tmp_path)
        assert writer.live_signatures() == {1, 3}
        payload = json.loads((tmp_path / "index.json").read_text())
        assert payload["version"] == 2 and payload["epoch"] == 8
        assert payload["tombstones"] == [[0, rows[1][5]]]
        assert reader.maybe_refresh()
        assert reader.live_signatures() == {1, 3}
        writer.close()
        reopened = SegmentStore(tmp_path, read_only=True)
        assert reopened.live_signatures() == {1, 3}
        reopened.close()
        reader.close()

        (tmp_path / "index.json").write_text(json.dumps({"version": 99}))
        with pytest.raises(ValidationError, match="unsupported"):
            SegmentStore(tmp_path, read_only=True)
