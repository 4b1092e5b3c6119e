"""Shared pieces of the serving benchmark: the model recipe, input pools,
the in-process reference, answer checks, and /proc readings."""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import PredictionAPI
from repro.core.batch import BatchOpenAPIInterpreter
from repro.core.equations import DEFAULT_PROB_FLOOR
from repro.data import load_dataset
from repro.models.openbox import ground_truth_decision_features
from repro.serving import region_signature
from repro.serving.cache import DEFAULT_MEMBERSHIP_TOL
from repro.serving.worker import (
    distinct_region_anchors,
    interpretation_payload,
    train_worker_model,
)

#: The fleet's default model recipe (``Gateway`` and ``repro.serving.worker``
#: defaults) and service seed; every process trains the same weights.
DATASET = "credit-scoring"
MODEL_SEED = 0

#: Dataset seeds of the instance pools.  Fixed, so that a solve workload
#: serves the same set of instances in every run (the benchmark seed only
#: orders them) and its query count is identical across runs.
FRESH_POOL_SEED = 90210
HOT_POOL_SEED = 4242
#: Size of the fixed fresh draw; a run's fresh pool comes from a prefix.
FRESH_CANDIDATES = 2048

#: Indices into the fresh draw whose certified answer is off the ground
#: truth, solved alone or in any batch: a known defect of the program (a
#: consistency certificate that passes on a wrong answer).  Only these
#: are left out of the stream; an answer off the ground truth for any
#: other instance fails the run.  The hot draw has none.
KNOWN_FALSE_CERTIFICATES = frozenset({636})

HOT_SET = 32
ZIPF_EXPONENT = 1.1

#: Ground-truth tolerance on served decision features.
GROUND_TRUTH_TOL = 1e-6

CLK_TCK = os.sysconf("SC_CLK_TCK")


def train_model():
    """Train the recipe's model (about 0.4 s) and return it."""
    return train_worker_model(DATASET, MODEL_SEED)[2]


# ---------------------------------------------------------------------- #
# Reference answers
# ---------------------------------------------------------------------- #
def canonical(payload: dict) -> str:
    """The canonical JSON text of one ``interpretation_payload``."""
    return json.dumps(payload, sort_keys=True)


def payload_json(interpretation) -> str:
    """The canonical payload text of one interpretation."""
    return canonical(interpretation_payload(interpretation))


def reference_solves(model, X: np.ndarray, batches=None) -> list:
    """Per-instance-seeded solves of the rows of ``X`` on a private API.

    ``batches`` lists the index arrays solved together, in the
    composition the serving path under test solves them (default: each
    row alone, as a lone request is).  With ``per_instance_seed`` the
    samples of a solve depend only on ``(seed, x0)``; the engine's
    arithmetic still depends on how many instances share a lock-step
    batch (see README), so the reference uses the same batches.
    """
    api = PredictionAPI(model)
    interpreter = BatchOpenAPIInterpreter(
        seed=MODEL_SEED, per_instance_seed=True
    )
    if batches is None:
        batches = [[i] for i in range(len(X))]
    out: list = [None] * len(X)
    for batch in batches:
        result = interpreter.interpret_batch(api, X[np.asarray(batch)])
        for i, interp in zip(batch, result.interpretations):
            out[i] = interp
    return out


@dataclass
class Reference:
    """The reference answer of each instance of a pool."""

    X: np.ndarray          # (n, d) instances
    payloads: list         # canonical payload JSON per instance
    n_queries: np.ndarray  # sequential query cost per instance
    truth: np.ndarray      # (n, d) ground-truth decision features
    regions: list          # ``SegmentStore.append`` arguments per instance


def build_reference(model, X: np.ndarray, batches=None) -> Reference:
    """The reference answers to ``X`` solved in ``batches``."""
    interps = reference_solves(model, X, batches)
    if any(it is None for it in interps):
        raise RuntimeError("a reference solve failed to certify")
    truth = np.stack([
        ground_truth_decision_features(model, x, it.target_class)
        for x, it in zip(X, interps)
    ])
    return Reference(
        X=np.asarray(X, dtype=np.float64),
        payloads=[payload_json(it) for it in interps],
        n_queries=np.asarray([it.n_queries for it in interps], dtype=np.int64),
        truth=truth,
        regions=[region_fields(it) for it in interps],
    )


def region_fields(interp) -> tuple:
    """The ``SegmentStore.append`` arguments of one certified solve: the
    record the gateway's writer harvests from a worker's reply."""
    pairs = tuple(sorted(interp.pair_estimates))
    W = np.stack([interp.pair_estimates[p].weights for p in pairs])
    b = np.asarray([interp.pair_estimates[p].intercept for p in pairs],
                   dtype=np.float64)
    return (
        int(region_signature(interp.target_class, pairs, W, b)),
        interp.target_class, pairs, W, b,
        np.asarray(interp.x0, dtype=np.float64),
        np.asarray(interp.decision_features, dtype=np.float64),
        float(interp.final_edge),
    )


def _conflicts(api, X: np.ndarray, interps: list) -> list[set]:
    """For each instance, the other instances whose region (or near
    region) might claim it, or that its own region might claim.

    The test is the region tier's membership check — every pair's
    affine log-odds claim within the membership tolerance of the
    probe's log-odds — at ten times the tolerance, so the relation is a
    superset of what any cache lookup could ever decide.
    """
    Y = api.predict_proba(X)
    log_y = np.log(np.clip(Y, DEFAULT_PROB_FLOOR, None))
    n = len(X)
    conflict: list[set] = [set() for _ in range(n)]
    by_class: dict[tuple, list[int]] = {}
    for i, it in enumerate(interps):
        key = (it.target_class, tuple(sorted(it.pair_estimates)))
        by_class.setdefault(key, []).append(i)
    tol = 10.0 * DEFAULT_MEMBERSHIP_TOL
    for (c, pairs), members in by_class.items():
        members = np.asarray(members)
        W = np.stack([
            np.stack([interps[j].pair_estimates[p].weights for p in pairs])
            for j in members
        ])                                              # (m, P, d)
        b = np.asarray([
            [interps[j].pair_estimates[p].intercept for p in pairs]
            for j in members
        ])                                              # (m, P)
        targets = np.asarray([
            i for i, it in enumerate(interps) if it.target_class == c
        ])
        actual = np.stack(
            [log_y[targets, a] - log_y[targets, b_] for a, b_ in pairs],
            axis=1,
        )                                               # (t, P)
        for lo in range(0, len(members), 256):
            claims = np.einsum("mpd,td->mtp", W[lo:lo + 256], X[targets])
            claims += b[lo:lo + 256, None, :]
            err = np.abs(claims - actual[None]).max(axis=2)  # (m, t)
            for mi, ti in zip(*np.nonzero(err <= tol)):
                j, i = int(members[lo + mi]), int(targets[ti])
                if i != j:
                    conflict[i].add(j)
                    conflict[j].add(i)
    return conflict


@dataclass
class Pool:
    """Instances a workload serves, and how they were chosen."""

    X: np.ndarray
    candidates: int
    #: Pinned candidates left out of the pool (see
    #: ``KNOWN_FALSE_CERTIFICATES``).
    false_certificates: int


def fresh_pool(model, n: int) -> Pool:
    """``n`` fresh instances no two of which could share a region-tier
    answer: the first that qualify in a prefix of the fixed draw.

    Solving them in any order, on any process, every request is a fresh
    solve — so each run's query count is exactly the sum of the
    reference counts, however the fleet's harvest races.  Only the
    pinned ``KNOWN_FALSE_CERTIFICATES`` are left out; any other answer
    off the ground truth reaches the stream and fails the run.
    """
    api = PredictionAPI(model)
    size = int(n * 1.6) + 64
    if size > FRESH_CANDIDATES:
        raise RuntimeError(
            f"a pool of {n} needs {size} candidates; the draw has "
            f"{FRESH_CANDIDATES} (shorten --seconds)")
    X = load_dataset(DATASET, FRESH_CANDIDATES, seed=FRESH_POOL_SEED).X[:size]
    interps = reference_solves(model, X, np.array_split(
        np.arange(len(X)), max(1, len(X) // 128)))
    ok = [i for i, it in enumerate(interps)
          if it is not None and i not in KNOWN_FALSE_CERTIFICATES]
    conflict = _conflicts(api, X[ok], [interps[i] for i in ok])
    kept: list[int] = []
    kept_set: set[int] = set()
    for j in range(len(ok)):
        if conflict[j] & kept_set:
            continue
        kept.append(j)
        kept_set.add(j)
        if len(kept) == n:
            break
    if len(kept) < n:
        raise RuntimeError(f"only {len(kept)} unambiguous instances, need {n}")
    end = ok[kept[-1]] + 1
    pinned = sum(1 for i in KNOWN_FALSE_CERTIFICATES if i < end)
    return Pool(X[[ok[j] for j in kept]], end, pinned)


def hot_set(model) -> tuple[Reference, Pool]:
    """``HOT_SET`` region-unambiguous anchors, the same in every run."""
    api = PredictionAPI(model)
    candidates = load_dataset(DATASET, 2 * HOT_SET, seed=HOT_POOL_SEED).X
    anchors = distinct_region_anchors(api, candidates, seed=MODEL_SEED)
    anchors = anchors[:HOT_SET]
    if len(anchors) < HOT_SET:
        raise RuntimeError(f"only {len(anchors)} hot anchors")
    return build_reference(model, anchors), Pool(anchors, len(candidates), 0)


def zipf_stream(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """``n`` draws of ``range(k)``, index ``r`` with weight
    ``1 / (r + 1) ** ZIPF_EXPONENT``.  The ranks are fixed, so the mix
    of work is the same for every seed; ``rng`` draws the sequence."""
    weights = 1.0 / np.arange(1, k + 1) ** ZIPF_EXPONENT
    return rng.choice(k, size=n, p=weights / weights.sum())


class Checker:
    """Counts answers that differ from the reference or the ground truth."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.mismatches = 0
        self.truth_errors = 0
        self.path_errors = 0
        self.first_error: str | None = None

    def check(self, i: int, payload_json: str, features, *,
              served_from_cache: bool, expect_cached: bool) -> None:
        """One served answer to instance ``i``; ``expect_cached`` says
        whether the workload guarantees a cache hit or a fresh solve."""
        if bool(served_from_cache) != expect_cached:
            self.path_errors += 1
            self._note(f"instance {i}: served_from_cache={served_from_cache}")
        if payload_json != self.ref.payloads[i]:
            self.mismatches += 1
            self._note(f"payload of instance {i} differs from the reference")
        err = np.max(np.abs(np.asarray(features) - self.ref.truth[i]))
        if not err <= GROUND_TRUTH_TOL:
            self.truth_errors += 1
            self._note(f"instance {i}: decision features off by {err:.3g}")

    def _note(self, message: str) -> None:
        if self.first_error is None:
            self.first_error = message


# ---------------------------------------------------------------------- #
# /proc readings
# ---------------------------------------------------------------------- #
def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of every thread of ``pid`` so far."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def host_ticks() -> tuple[int, int]:
    """``(total, steal)`` jiffies of the host from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        cols = [int(v) for v in fh.readline().split()[1:]]
    return sum(cols[:8]), cols[7] if len(cols) > 7 else 0


class Window:
    """CPU of a set of processes and host steal across a timed phase."""

    def __init__(self, pids: list[int]):
        self.pids = list(pids)
        self._cpu0 = {p: proc_cpu_s(p) for p in self.pids}
        self._ticks0 = host_ticks()
        self._t0 = time.perf_counter()
        self.cpu_s: dict[int, float] = {}
        self.steal_share = 0.0
        self.wall_s = 0.0

    def close(self) -> "Window":
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = {p: proc_cpu_s(p) - self._cpu0[p] for p in self.pids}
        total, steal = host_ticks()
        d_total = total - self._ticks0[0]
        self.steal_share = (steal - self._ticks0[1]) / d_total if d_total else 0.0
        return self


# ---------------------------------------------------------------------- #
# Summaries
# ---------------------------------------------------------------------- #
def percentile_ms(latency_ns, q: float) -> float:
    return float(np.percentile(np.asarray(latency_ns, dtype=np.float64), q)) / 1e6


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def environment(root: Path) -> dict:
    """The noise record's static part: host, toolchain and revision."""
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except Exception:  # the config layout differs across numpy versions
        pass
    threads = {
        k: os.environ.get(k, "unset")
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_sha": git_sha(root),
        "argv": sys.argv[1:],
    }


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside
    a git checkout)."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (root / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"
