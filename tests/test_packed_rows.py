"""The resident scan stacks of both region tiers stay in member order.

Both tiers keep each (target class, pair set) group's ``W``/``b``/anchor
rows resident in one packed-rows type
(:class:`repro.serving.cache._PackedGroup`) and mutate it one row at a
time: the L1 cache on insert, eviction and clear, the L2 store on adopt,
mark_dead, compact, wipe and a reader's catch-up.  The scan breaks
distance ties by row, so row *order* is part of the answer.  After any
interleaving of those mutations:

* every group's stacks equal ``np.stack`` of its live members' rows, in
  member order (L1: insertion order; L2: log order);
* every scan returns the winner a per-record gather in that order picks.

The probe pool is built so that ties happen: every region of a family
passes at the family's probe point, and the family's anchors sit at equal
distances from it — whichever tied region comes first wins.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CoreParameterEstimate, Interpretation
from repro.serving import RegionCache, SegmentStore
from repro.serving.cache import membership_scan

D = 4
PAIRS = ((0, 1), (0, 2))
FAMILIES = 2
PER_FAMILY = 4
POOL = FAMILIES * PER_FAMILY
TOL = 1e-6
FLOOR = 1e-12
#: Exact offsets: anchors ``center ± delta`` tie in squared distance.
DELTAS = (
    np.array([0.5, 0.0, 0.25, 0.0]),
    np.array([0.0, 0.5, 0.0, -0.25]),
)


def _center(family: int) -> np.ndarray:
    return np.full(D, float(family + 1))


def _claims(family: int) -> np.ndarray:
    return np.array([0.3, -0.7]) + family


def _region(i: int):
    """Pool region ``i``: target 0, pairs ``PAIRS``; its claims equal its
    family's at the family center, and its anchor is the center moved by
    ``±delta`` — so the family's regions all pass at the center and tie
    pairwise in distance."""
    family, j = divmod(i, PER_FAMILY)
    rng = np.random.default_rng(900 + i)
    W = rng.normal(size=(len(PAIRS), D))
    b = _claims(family) - W @ _center(family)
    sign = 1.0 if j % 2 == 0 else -1.0
    anchor = _center(family) + sign * DELTAS[j // 2]
    return W, b, anchor


def _probs_for(claims: np.ndarray) -> np.ndarray:
    """A probability row whose log-odds ``ln(y_0 / y_j)`` are ``claims``."""
    logits = np.concatenate([[0.0], -claims])
    z = np.exp(logits - logits.max())
    return z / z.sum()


#: Each family's center (every region of the family passes there, tied
#: pairwise), then each region's own anchor (only that region passes).
PROBES = [(_center(f), _probs_for(_claims(f))) for f in range(FAMILIES)] + [
    (_region(i)[2], _probs_for(_region(i)[0] @ _region(i)[2] + _region(i)[1]))
    for i in range(POOL)
]


def _interp(i: int) -> Interpretation:
    W, b, anchor = _region(i)
    estimates = {
        pair: CoreParameterEstimate(
            c=pair[0], c_prime=pair[1], weights=W[k],
            intercept=float(b[k]), certified=True,
        )
        for k, pair in enumerate(PAIRS)
    }
    return Interpretation(
        x0=anchor, target_class=0, decision_features=W.mean(axis=0),
        pair_estimates=estimates, method="test", final_edge=1.0,
    )


def _gather_scan(groups, x, y):
    """The reference scan: per-record rows, stacked in member order, one
    membership kernel per group, the first nearest passing row wins.
    ``groups`` is a list of ``(keys, W, b, X0)``."""
    log_y = np.log(np.clip(y, FLOOR, None))
    actual = np.array([log_y[c] - log_y[cp] for c, cp in PAIRS])
    best = None  # (dist, key)
    for keys, W, b, X0 in groups:
        errors, dists = membership_scan(W, b, X0, x, actual)
        passing = np.nonzero(errors <= TOL)[0]
        if passing.size:
            i = int(passing[np.argmin(dists[passing])])
            if best is None or dists[i] < best[0]:
                best = (float(dists[i]), keys[i])
    return None if best is None else (best[1], best[0])


def _assert_group_rows(group, keys, W, b, X0):
    """A resident group holds exactly these rows, in this order."""
    assert list(group) == keys
    got_W, got_b, got_X0 = group.stacked()
    assert np.array_equal(got_W, W)
    assert np.array_equal(got_b, b)
    assert np.array_equal(got_X0, X0)
    picked = keys[::-2]
    rows = [keys.index(k) for k in picked]
    for got, want in zip(group.gathered(picked), (W, b, X0)):
        assert np.array_equal(got, want[rows])


# --------------------------------------------------------------------- #
# L1: RegionCache groups
# --------------------------------------------------------------------- #
def _check_cache(cache: RegionCache) -> None:
    reference = []
    for (tc, pairs), group in cache._groups.items():
        members = sorted(
            key for key, g in cache._group_of.items() if g == (tc, pairs)
        )
        entries = [cache._entries[key] for key in members]
        W = np.stack([
            np.stack([e.pair_estimates[p].weights for p in pairs])
            for e in entries
        ]) if entries else np.empty((0, len(pairs), D))
        b = np.asarray(
            [[e.pair_estimates[p].intercept for p in pairs] for e in entries]
        ).reshape(-1, len(pairs))
        X0 = np.stack([e.x0 for e in entries]) if entries else np.empty((0, D))
        _assert_group_rows(group, members, W, b, X0)
        if members:
            reference.append((members, W, b, X0))
    for x, y in PROBES:
        assert cache._scan(x, y, 0) == _gather_scan(reference, x, y)


_L1_OPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, POOL - 1)),
    st.tuples(st.just("lookup"), st.integers(0, len(PROBES) - 1)),
    st.tuples(st.just("clear")),
)


class TestCacheRows:
    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(_L1_OPS, max_size=30))
    # An eviction from the middle of a group: later rows move up.
    @example(ops=[("insert", i) for i in (0, 1, 2, 3, 4, 5)])
    def test_rows_follow_members(self, ops):
        """Insert, LRU eviction (capacity 4), serving touches and clear
        keep every group's rows equal to its live entries, in insertion
        order, and every scan equal to the per-record gather's."""
        cache = RegionCache(max_entries=4, tol=TOL, floor=FLOOR)
        for op, *args in ops:
            if op == "insert":
                cache.insert(_interp(args[0]))
            elif op == "lookup":
                x, y = PROBES[args[0]]
                cache.lookup(x, y, 0)
            else:
                cache.clear()
            _check_cache(cache)

    def test_buffers_grow_past_initial_capacity(self):
        cache = RegionCache(max_entries=64, tol=TOL, floor=FLOOR)
        rng = np.random.default_rng(3)
        for _ in range(40):
            W = rng.normal(size=(2, D))
            x0 = rng.normal(size=D)
            cache.insert(Interpretation(
                x0=x0, target_class=0, decision_features=W.mean(axis=0),
                pair_estimates={
                    pair: CoreParameterEstimate(
                        c=0, c_prime=pair[1], weights=W[k],
                        intercept=float(k), certified=True,
                    )
                    for k, pair in enumerate(PAIRS)
                },
                method="test", final_edge=1.0,
            ))
        assert len(cache) == 40
        _check_cache(cache)


# --------------------------------------------------------------------- #
# L2: SegmentStore live groups
# --------------------------------------------------------------------- #
def _check_store(store: SegmentStore) -> None:
    by_group: dict = {}
    for record in sorted(
        store._by_sig.values(), key=lambda r: (r.seg, r.offset)
    ):
        by_group.setdefault((record.target_class, record.pairs), []).append(
            record.signature
        )
    assert set(store._live_groups) == set(by_group)
    reference = []
    for key, group in store._live_groups.items():
        sigs = by_group[key]
        rows = [store.read(sig) for sig in sigs]
        W = np.stack([r[2] for r in rows])
        b = np.stack([r[3] for r in rows])
        X0 = np.stack([r[4] for r in rows])
        _assert_group_rows(group, sigs, W, b, X0)
        reference.append((sigs, W, b, X0))
    for x, y in PROBES:
        assert store.scan(x, y, 0, tol=TOL, floor=FLOOR) == (
            _gather_scan(reference, x, y)
        )


def _append(store: SegmentStore, i: int) -> None:
    W, b, anchor = _region(i)
    store.append(i, 0, PAIRS, W, b, anchor, W.mean(axis=0), 1.0)


_L2_OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(0, POOL - 1)),
    st.tuples(st.just("mark_dead"), st.integers(0, POOL - 1)),
    st.tuples(st.sampled_from(["compact", "wipe", "refresh"])),
)


class TestStoreRows:
    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(_L2_OPS, max_size=30))
    # A retire from the middle of a group, seen by the reader's catch-up.
    @example(ops=[
        ("append", 0), ("append", 1), ("append", 2), ("refresh",),
        ("mark_dead", 0), ("refresh",),
    ])
    # A retired signature appended again moves to the end of its group.
    @example(ops=[
        ("append", 0), ("append", 1), ("mark_dead", 0), ("append", 0),
        ("refresh",), ("compact",), ("refresh",),
    ])
    def test_rows_follow_members(self, ops):
        """Adopt, mark_dead, compact, wipe and a reader's incremental
        catch-up keep every live group's rows equal to its live records,
        in log order, on the writer and on the reader — and every scan
        equal to the per-record gather's."""
        with tempfile.TemporaryDirectory() as tmp:
            writer = SegmentStore(tmp, fsync=False, compact_ratio=0.75)
            reader = SegmentStore(tmp, read_only=True)
            for op, *args in ops:
                if op == "append":
                    _append(writer, args[0])
                elif op == "mark_dead":
                    writer.mark_dead(args[0])
                elif op == "compact":
                    writer.compact()
                elif op == "wipe":
                    writer.wipe()
                else:
                    writer.persist_index()
                    reader.maybe_refresh()
                    _check_store(reader)
                _check_store(writer)
            reader.close()
            writer.close()
