"""The hyperplane-sign region index: equivalence and maintenance tests.

The index's contract (``repro/serving/index.py``) is transparency: it
only ever *narrows* the candidate set the exact membership matmul
decides over, and a shortlist miss falls back to the full scan — so
every lookup outcome (hit/miss, winner, distance) must be identical
with the index on or off, across insertion, eviction, L2 reopen,
demotion/promotion, and compaction.  These tests pin that
property at every layer (L1 cache, L2 segment store, tiered store),
plus the two PR 6 scan-path regressions (the ``max_candidates``
false-miss fix lives in ``test_serving.py``; the L2 framing dedup and
incremental grouping are pinned here).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import CoreParameterEstimate, Interpretation
from repro.exceptions import ValidationError
from repro.serving import RegionCache, TieredRegionStore
from repro.serving.index import (
    DEFAULT_INDEX_BITS,
    MAX_INDEX_BITS,
    RegionSignIndex,
    hyperplane_bank,
    pack_sign_bits,
)
from repro.serving.store import (
    SegmentStore,
    _payload_layout,
    _pack_payload,
    _unpack_payload,
)


def _affine_interp(x0, W, b):
    """A hand-built certified interpretation claiming log-odds
    ``W @ x + b`` for pairs ``(0, j+1)``."""
    pairs = {
        (0, j + 1): CoreParameterEstimate(
            c=0, c_prime=j + 1, weights=W[j], intercept=float(b[j]),
            certified=True,
        )
        for j in range(W.shape[0])
    }
    return Interpretation(
        x0=x0, target_class=0, decision_features=W.mean(axis=0),
        pair_estimates=pairs, method="test", final_edge=1.0,
    )


def _probs_for_claims(t):
    """A probability row whose log-odds ``ln(y_0 / y_j)`` equal ``t[j-1]``."""
    logits = np.concatenate([[0.0], -np.asarray(t, dtype=np.float64)])
    z = np.exp(logits - logits.max())
    return z / z.sum()


def _synthetic_regions(rng, m, d, n_pairs):
    """``m`` regions sharing one claim target ``t``: region ``i`` passes
    the membership test exactly at its own anchor (and, generically,
    nowhere near any other anchor)."""
    W = rng.normal(size=(m, n_pairs, d))
    anchors = rng.uniform(-1.0, 1.0, size=(m, d))
    t = rng.normal(scale=0.5, size=n_pairs)
    B = t - np.einsum("mpd,md->mp", W, anchors)
    return W, B, anchors, _probs_for_claims(t)


class TestRegionSignIndex:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RegionSignIndex(0)
        with pytest.raises(ValidationError):
            RegionSignIndex(3, bits=0)
        with pytest.raises(ValidationError):
            RegionSignIndex(3, bits=MAX_INDEX_BITS + 1)

    def test_bank_shape_and_determinism(self):
        bank = hyperplane_bank(5, 12)
        assert bank.shape == (12, 5)
        assert bank is hyperplane_bank(5, 12)  # process-wide cache
        assert not bank.flags.writeable

    def test_add_discard_replace(self):
        rng = np.random.default_rng(0)
        index = RegionSignIndex(4, bits=8)
        a, b = rng.normal(size=4), rng.normal(size=4)
        index.add("a", a)
        index.add("b", b)
        assert len(index) == 2 and "a" in index
        assert set(index.shortlist(a, 10)) == {"a", "b"} or "a" in set(
            index.shortlist(a, 10)
        )
        index.add("a", b)  # re-add moves the key to the new bucket
        assert len(index) == 2
        index.discard("a")
        assert len(index) == 1 and "a" not in index
        index.discard("missing")  # no-op
        index.clear()
        assert len(index) == 0
        assert index.shortlist(a, 4) == []

    def test_add_batch_matches_sequential(self):
        rng = np.random.default_rng(1)
        anchors = rng.normal(size=(64, 6))
        batch = RegionSignIndex(6, bits=10)
        batch.add_batch(range(64), anchors)
        seq = RegionSignIndex(6, bits=10)
        for i, x in enumerate(anchors):
            seq.add(i, x)
        assert len(batch) == len(seq) == 64
        assert batch._code_of == seq._code_of
        for x in anchors[:8]:
            assert sorted(batch.shortlist(x, 5)) == sorted(
                seq.shortlist(x, 5)
            )

    def test_codes_deterministic_across_instances(self):
        rng = np.random.default_rng(2)
        anchors = rng.normal(size=(16, 5))
        a = RegionSignIndex(5, bits=DEFAULT_INDEX_BITS)
        b = RegionSignIndex(5, bits=DEFAULT_INDEX_BITS)
        assert np.array_equal(a.codes(anchors), b.codes(anchors))
        assert a.code(anchors[0]) == int(a.codes(anchors)[0])

    def test_shortlist_caps_at_k_nearest(self):
        rng = np.random.default_rng(3)
        # One bit -> two buckets: every anchor lands in a probed bucket,
        # so the shortlist must rank purely by anchor distance.
        index = RegionSignIndex(3, bits=1)
        anchors = rng.normal(size=(32, 3))
        index.add_batch(range(32), anchors)
        x = anchors[11]
        keys = index.shortlist(x, 4)
        assert len(keys) == 4 and 11 in keys
        dists = ((anchors - x) ** 2).sum(axis=1)
        assert set(keys) == set(np.argsort(dists)[:4])


class TestPackSignBits:
    def test_known_codes(self):
        signs = np.array([[True, False, True], [False, False, False]])
        codes = pack_sign_bits(signs)
        assert codes.dtype == np.uint64
        assert codes.tolist() == [0b101, 0]

    def test_bit_64_boundary(self):
        signs = np.zeros(64, dtype=bool)
        signs[63] = True
        assert int(pack_sign_bits(signs)) == 1 << 63


class TestL1Equivalence:
    """RegionCache lookups must be identical with the index on or off."""

    def _paired_caches(self, **kwargs):
        plain = RegionCache(**kwargs)
        indexed = RegionCache(region_index=True, **kwargs)
        return plain, indexed

    def _fill(self, caches, rng, m=40, d=6, n_pairs=2):
        entries = []
        for _ in range(m):
            x0 = rng.normal(size=d)
            W = rng.normal(size=(n_pairs, d))
            b = rng.normal(size=n_pairs)
            interp = _affine_interp(x0, W, b)
            for cache in caches:
                cache.insert(interp)
            entries.append((x0, W, b))
        return entries

    def _assert_identical(self, plain, indexed, probes):
        for x, y in probes:
            a = plain.lookup(x, y, 0)
            b = indexed.lookup(x, y, 0)
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(
                    a.decision_features, b.decision_features
                )
        ps, ix = plain.stats(), indexed.stats()
        assert (ps.hits, ps.misses) == (ix.hits, ix.misses)

    def test_identical_lookups(self):
        rng = np.random.default_rng(10)
        plain, indexed = self._paired_caches()
        entries = self._fill((plain, indexed), rng)
        probes = []
        for x0, W, b in entries:
            probes.append((x0, _probs_for_claims(W @ x0 + b)))  # hits
        for _ in range(20):  # mostly misses
            x = rng.normal(size=6)
            _, W, b = entries[rng.integers(len(entries))]
            probes.append((x, _probs_for_claims(W @ x + b)))
        self._assert_identical(plain, indexed, probes)
        assert indexed.stats().index_hits > 0

    def test_identical_under_eviction(self):
        rng = np.random.default_rng(11)
        plain, indexed = self._paired_caches(max_entries=8)
        entries = self._fill((plain, indexed), rng, m=30)
        assert plain.stats().evictions == indexed.stats().evictions > 0
        probes = [
            (x0, _probs_for_claims(W @ x0 + b)) for x0, W, b in entries
        ]
        self._assert_identical(plain, indexed, probes)
        # The index never serves an evicted entry: every group's index
        # tracks exactly the resident keys.
        for group in indexed._groups.values():
            assert sorted(group.index._code_of) == sorted(group.keys)

    def test_fallback_finds_far_passing_entry(self):
        """A passing entry outside the probed buckets (or ranked beyond
        the shortlist) must still be served — via the full-scan
        fallback — so recall is identical to the unindexed cache."""
        d = 2
        # `far` passes everywhere (zero weights, intercepts == claims);
        # `near` never passes; the probe sits next to `near`.
        t = np.array([0.4, -0.2])
        far = _affine_interp(np.full(d, 10.0), np.zeros((2, d)), t)
        near = _affine_interp(
            np.array([0.1, 0.0]), np.zeros((2, d)), t + 1.0
        )
        plain = RegionCache()
        indexed = RegionCache(region_index=True, index_shortlist=1)
        for cache in (plain, indexed):
            cache.insert(far)
            cache.insert(near)
        x = np.zeros(d)
        y = _probs_for_claims(t)
        a = plain.lookup(x, y, 0)
        b = indexed.lookup(x, y, 0)
        assert a is not None and b is not None
        assert np.array_equal(a.decision_features, b.decision_features)
        assert np.array_equal(b.decision_features, far.decision_features)
        assert indexed.stats().index_fallbacks >= 1


class TestPayloadLayoutRegression:
    """Regression (PR 6): ``SegmentStore.scan`` used to re-derive the
    record framing inline (hardcoded ``24 + 16 * P``), silently
    duplicating ``_unpack_payload``; both now read offsets from
    ``_payload_layout``, pinned here against the packer."""

    def test_layout_matches_packed_payload(self):
        rng = np.random.default_rng(20)
        for P, d in ((1, 3), (2, 5), (4, 8)):
            pairs = tuple((0, j + 1) for j in range(P))
            W = rng.normal(size=(P, d))
            b = rng.normal(size=P)
            x0 = rng.normal(size=d)
            feats = rng.normal(size=d)
            payload = _pack_payload(0, pairs, W, b, x0, feats, 0.5)
            layout = _payload_layout(P, d)
            assert layout["edge"] + 8 == len(payload)
            for name, ref, count in (
                ("w", W, P * d), ("b", b, P), ("x0", x0, d),
                ("feats", feats, d),
            ):
                got = np.frombuffer(
                    payload, dtype="<f8", count=count,
                    offset=layout[name],
                )
                assert np.array_equal(got, np.asarray(ref).ravel())
            # And the full unpacker agrees with the layout-based reads.
            target, upairs, uW, ub, ux0, ufeats, uedge = _unpack_payload(
                payload
            )
            assert target == 0 and upairs == pairs and uedge == 0.5
            assert np.array_equal(uW, W) and np.array_equal(ub, b)
            assert np.array_equal(ux0, x0) and np.array_equal(ufeats, feats)


class TestL2SegmentStore:
    """SegmentStore scans: index equivalence and incremental grouping."""

    def _paired_stores(self, tmp_path, **kwargs):
        plain = SegmentStore(tmp_path / "plain", fsync=False, **kwargs)
        indexed = SegmentStore(
            tmp_path / "indexed", fsync=False, region_index=True, **kwargs
        )
        return plain, indexed

    def _fill(self, stores, rng, m=30, d=5, n_pairs=2):
        W, B, anchors, y = _synthetic_regions(rng, m, d, n_pairs)
        pairs = tuple((0, j + 1) for j in range(n_pairs))
        for i in range(m):
            for store in stores:
                assert store.append(
                    i, 0, pairs, W[i], B[i], anchors[i],
                    W[i].mean(axis=0), 1.0,
                )
        return W, B, anchors, y

    def _assert_identical_scans(self, plain, indexed, probes, y):
        for x in probes:
            assert plain.scan(x, y, 0, tol=1e-6, floor=1e-12) == \
                indexed.scan(x, y, 0, tol=1e-6, floor=1e-12)

    def test_scan_equivalence_and_counters(self, tmp_path):
        rng = np.random.default_rng(30)
        plain, indexed = self._paired_stores(tmp_path)
        W, B, anchors, y = self._fill((plain, indexed), rng)
        self._assert_identical_scans(plain, indexed, anchors, y)
        assert indexed.index_hits > 0
        # Misses fall back to the full scan before being declared.
        fallbacks_before = indexed.index_fallbacks
        miss = np.full(5, 50.0)
        assert indexed.scan(miss, y, 0, tol=1e-6, floor=1e-12) is None
        assert indexed.index_fallbacks == fallbacks_before + 1

    def test_equivalence_after_mark_dead(self, tmp_path):
        rng = np.random.default_rng(31)
        plain, indexed = self._paired_stores(tmp_path)
        W, B, anchors, y = self._fill((plain, indexed), rng)
        for sig in (0, 7, 13):
            assert plain.mark_dead(sig) and indexed.mark_dead(sig)
        self._assert_identical_scans(plain, indexed, anchors, y)
        # A dead record's anchor must be a scan miss in both stores.
        assert plain.scan(anchors[7], y, 0, tol=1e-6, floor=1e-12) is None

    def test_equivalence_after_compaction(self, tmp_path):
        rng = np.random.default_rng(32)
        plain, indexed = self._paired_stores(tmp_path)
        W, B, anchors, y = self._fill((plain, indexed), rng)
        for sig in range(0, 20):
            plain.mark_dead(sig)
            indexed.mark_dead(sig)
        assert plain.compact() > 0 and indexed.compact() > 0
        self._assert_identical_scans(plain, indexed, anchors, y)
        assert indexed.scan(
            anchors[25], y, 0, tol=1e-6, floor=1e-12
        ) == (25, 0.0)

    def test_reopen_rebuilds_identical_index(self, tmp_path):
        """Persisted anchors round-trip through JSON exactly, so the
        reopened store's sign codes — and scans — are identical."""
        rng = np.random.default_rng(33)
        store = SegmentStore(
            tmp_path / "s", fsync=False, region_index=True
        )
        W, B, anchors, y = self._fill((store,), rng, m=20)
        codes_before = {
            key: dict(index._code_of)
            for key, index in store._group_indexes.items()
        }
        results_before = [
            store.scan(x, y, 0, tol=1e-6, floor=1e-12) for x in anchors
        ]
        store.close()
        reopened = SegmentStore(
            tmp_path / "s", fsync=False, region_index=True
        )
        codes_after = {
            key: dict(index._code_of)
            for key, index in reopened._group_indexes.items()
        }
        assert codes_before == codes_after
        assert results_before == [
            reopened.scan(x, y, 0, tol=1e-6, floor=1e-12) for x in anchors
        ]
        reopened.close()

    def test_legacy_index_rows_without_anchor(self, tmp_path):
        """A version-1 index whose rows predate the anchor field (9
        elements) must still open; anchors come from the payloads and
        the rebuilt sign index is identical."""
        rng = np.random.default_rng(34)
        store = SegmentStore(
            tmp_path / "s", fsync=False, region_index=True
        )
        W, B, anchors, y = self._fill((store,), rng, m=12)
        expected = [
            store.scan(x, y, 0, tol=1e-6, floor=1e-12) for x in anchors
        ]
        codes = {
            key: dict(index._code_of)
            for key, index in store._group_indexes.items()
        }
        rows = [
            [sig, r.target_class, [list(p) for p in r.pairs], r.d, r.seg,
             r.offset, r.frame_len, True, r.touch]
            for sig, r in store._by_sig.items()
        ]
        store.close()
        index_path = tmp_path / "s" / "index.json"
        payload = json.loads(index_path.read_text())
        index_path.write_text(json.dumps({
            "version": 1, "epoch": payload["epoch"],
            "segments": payload["segments"], "tails": payload["tails"],
            "next_touch": payload["next_touch"], "records": rows,
        }))
        reopened = SegmentStore(
            tmp_path / "s", fsync=False, region_index=True
        )
        assert codes == {
            key: dict(index._code_of)
            for key, index in reopened._group_indexes.items()
        }
        assert expected == [
            reopened.scan(x, y, 0, tol=1e-6, floor=1e-12) for x in anchors
        ]
        reopened.close()

    def test_incremental_grouping_matches_rebuild(self, tmp_path):
        """Regression (PR 6): the (class, pairs) grouping used to be
        rebuilt from ``_by_sig`` inside every scan call; it is now
        maintained incrementally and must stay equal to the from-scratch
        grouping through append, mark_dead and compaction."""
        rng = np.random.default_rng(35)
        store = SegmentStore(tmp_path / "s", fsync=False)

        def rebuilt():
            groups: dict = {}
            for sig, record in store._by_sig.items():
                key = (record.target_class, record.pairs)
                groups.setdefault(key, set()).add(sig)
            return groups

        def incremental():
            return {
                key: set(members)
                for key, members in store._live_groups.items()
                if members
            }

        self._fill((store,), rng, m=15)
        assert incremental() == rebuilt()
        for sig in (1, 4, 9):
            store.mark_dead(sig)
            assert incremental() == rebuilt()
        store.compact()
        assert incremental() == rebuilt()
        store.wipe()
        assert incremental() == rebuilt() == {}
        store.close()


class TestTieredEquivalence:
    """TieredRegionStore: identical behavior through demote/promote."""

    def _paired_stores(self, tmp_path, **kwargs):
        plain = TieredRegionStore(
            tmp_path / "plain", fsync=False, **kwargs
        )
        indexed = TieredRegionStore(
            tmp_path / "indexed", fsync=False,
            region_index=True, **kwargs
        )
        return plain, indexed

    def test_identical_through_demote_promote(self, tmp_path):
        rng = np.random.default_rng(40)
        plain, indexed = self._paired_stores(tmp_path, max_entries=4)
        entries = []
        for _ in range(12):
            x0 = rng.normal(size=5)
            W = rng.normal(size=(2, 5))
            b = rng.normal(size=2)
            interp = _affine_interp(x0, W, b)
            assert plain.insert(interp) and indexed.insert(interp)
            entries.append((x0, W, b))
        # Early inserts were demoted to L2; looking them up promotes
        # them back (evicting/demoting others) — the same churn in both.
        for x0, W, b in entries + entries[:4]:
            y = _probs_for_claims(W @ x0 + b)
            a = plain.lookup(x0, y, 0)
            c = indexed.lookup(x0, y, 0)
            assert a is not None and c is not None
            assert np.array_equal(a.decision_features, c.decision_features)
        ps, ix = plain.stats(), indexed.stats()
        assert (ps.l1_hits, ps.l2_hits, ps.l2_misses, ps.promotions) == \
            (ix.l1_hits, ix.l2_hits, ix.l2_misses, ix.promotions)
        assert ps.demotions == ix.demotions
        assert ix.l2_index_hits + ix.l2_index_fallbacks > 0
        plain.close()
        indexed.close()

    def test_stats_expose_l2_index_meters(self, tmp_path):
        store = TieredRegionStore(
            tmp_path / "s", max_entries=2, fsync=False,
            region_index=True,
        )
        stats = store.stats()
        assert stats.l2_index_hits == 0
        assert stats.l2_index_fallbacks == 0
        assert "l2_index_hits" in stats.as_dict()
        store.close()
