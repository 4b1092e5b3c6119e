"""The benchmark's closed-loop workloads.

Every workload builds its system the way a user would, through the
program's public entry points, times one caller-side stream against it
and checks every answer against an in-process reference.  With
``trace`` the same stream is instead replayed at several entry points
and under span wrappers, and the per-layer metrics are reported (see
``README.md`` for the definitions).
"""

from __future__ import annotations

import base64
import json
import os
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import common
import loadgen
import repro.core.batch as core_batch
import repro.serving.worker as worker_mod
from fleet import GatewayProcess, WorkerProcess
from repro.api import PredictionAPI
from repro.serving import InterpretationService, L2ReaderCache, SegmentStore
from tracing import Tracer

#: Set-ups per measured run; ``setup_s`` is their median.
SETUPS = 5
#: The fleet default, and the keep-alive connections the generator opens
#: (never more than ``nproc``).
FLEET_WORKERS = 2
CONNECTIONS = max(1, min(FLEET_WORKERS, os.cpu_count() or 1))
#: The fleet workloads time one round per ``ROUND_S`` seconds of run
#: (at least one), each on a fresh fleet over an empty L2 directory, so
#: every round grows the same inventory and runs on its own process
#: placement.  Untraced, every round's set-up is one ``setup_s`` sample.
ROUND_S = 10.0
#: Fresh solves per second of run, about one run length of work on a
#: 2-vCPU host.  The pool is a fixed set served once per round in a new
#: order, so the query count of a run is the same in every run.
FLEET_SOLVES_PER_S = 65
#: Every run times at least this many calls (p90 keeps 10 samples above).
#: The noise record cuts a run into at most ``BLOCKS`` blocks of at least
#: ``MIN_CALLS`` calls.
MIN_CALLS = 100
BLOCKS = 10
#: Hit streams are drawn longer than any run can consume.
HITS_PER_S_CAP = 20000
#: Requests of the traced run's background-loop diagnostic.
LOOP_DIAGNOSTIC_CALLS = 300

E2E_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_request": "ms",
    "queries_per_request": "queries",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "gateway.cpu_ms_per_request": "ms",
    "gateway.self_ms_p50": "ms",
    "gateway.queue_depth_peak": "count",
    "gateway.worker_lost": "count",
    "gateway.harvested_per_request": "ratio",
    "gateway.publishes_per_request": "ratio",
    "worker.cpu_ms_per_request": "ms",
    "worker.hop_ms_p50": "ms",
    "worker.encode_ms_per_request": "ms",
    "worker.reply_bytes_per_request": "bytes",
    "worker.region_bytes_per_miss": "bytes",
    "service.self_ms_per_request": "ms",
    "service.flushes_per_request": "ratio",
    "service.batch_size_mean": "count",
    "service.inline_ms_p50": "ms",
    "service.loop_latency_ms_p50": "ms",
    "service.loop_wait_ms_p50": "ms",
    "cache.lookup_ms_per_call": "ms",
    "cache.insert_ms_per_call": "ms",
    "cache.hit_ratio": "ratio",
    "store.l1_lookup_ms_per_call": "ms",
    "store.l2_scan_ms_per_call": "ms",
    "store.l2_hit_ratio": "ratio",
    "store.append_ms_per_call": "ms",
    "store.publish_ms_per_call": "ms",
    "store.refresh_ms_per_call": "ms",
    "store.refreshes_per_request": "ratio",
    "api.round_trips_per_request": "ratio",
    "api.rows_per_trip": "rows",
    "api.query_ms_per_trip": "ms",
    "core.solve_ms_per_round": "ms",
    "core.sample_ms_per_round": "ms",
    "core.k_mean": "count",
    "core.rounds_per_solve": "count",
    "core.certified_ratio": "ratio",
    "gen.cpu_ms_per_request": "ms",
    "trace.overhead_ms_per_request": "ms",
    "trace.unattributed_ms_per_request": "ms",
}


class Context:
    def __init__(self, root: Path, tmp: Path, seed: int, seconds: float,
                 trace: bool):
        self.root = root
        self.tmp = tmp
        self.seconds = float(seconds)
        self.trace = trace
        self.rng = np.random.default_rng(seed)


class Result:
    """Metrics, sample counts, failures and the noise record of a run."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.noise: dict = {}

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = int(samples)

    def pool(self, pool: common.Pool) -> None:
        """Record how the served instances were chosen."""
        self.noise["pool"] = {
            "served": len(pool.X),
            "candidates": pool.candidates,
            "false_certificates": pool.false_certificates,
        }

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def expect_queries(self, measured: int, expected: int) -> None:
        if measured != expected:
            self.problem(
                f"model rows scored {measured} != reference count {expected}"
            )

    def checked(self, checker: common.Checker) -> None:
        if checker.first_error is not None:
            self.problem(
                f"{checker.mismatches} payload mismatches, "
                f"{checker.truth_errors} ground-truth errors, "
                f"{checker.path_errors} served on the wrong path; first: "
                f"{checker.first_error}"
            )

    def noise_window(self, label: str, window: common.Window,
                     roles: dict[int, str]) -> None:
        self.noise.setdefault(label, []).append({
            "env.steal_share": window.steal_share,
            "wall_s": window.wall_s,
            "cpu_s": {
                f"{roles.get(pid, 'process')}:{pid}": cpu
                for pid, cpu in window.cpu_s.items()
            },
        })

    @property
    def correct(self) -> bool:
        return not self.problems


def put_e2e(res: Result, *, latency_ns: list, ok_n: list, wall_s: float,
            cpu_s: float, sent: int, queries: int, setups: list,
            rss_mb: float, n_procs: int) -> None:
    """The end-to-end metrics of one timed phase: percentiles over every
    successful call, throughput and CPU over the whole phase.  ``ok_n[i]``
    is 1 if call ``i`` was served correctly, else 0."""
    calls = len(latency_ns)
    ok = sum(ok_n)
    if calls < MIN_CALLS:
        res.problem(f"only {calls} timed calls; a run needs {MIN_CALLS}")
    lat = [v for v, good in zip(latency_ns, ok_n) if good] or [0]
    res.put("throughput_rps", ok / wall_s, ok)
    res.put("latency_p50_ms", common.percentile_ms(lat, 50), ok)
    res.put("latency_p90_ms", common.percentile_ms(lat, 90), ok)
    res.put("cpu_ms_per_request", 1e3 * cpu_s / max(ok, 1), ok)
    res.put("queries_per_request", queries / max(sent, 1), sent)
    res.put("ok_ratio", ok / max(sent, 1), sent)
    res.put("setup_s", common.median(setups), len(setups))
    res.put("peak_rss_mb", rss_mb, n_procs)


def block_values(rep: loadgen.Replay, ok_n: list) -> dict:
    """Throughput, latency percentiles and the program's CPU per block
    of a replay, for the noise record only."""
    out: dict[str, list] = {
        "throughput_rps": [], "latency_p50_ms": [],
        "latency_p90_ms": [], "cpu_ms_per_request": []}
    for (t0, c0, cpu0), (t1, c1, cpu1) in zip(rep.marks, rep.marks[1:]):
        done = [i for i in rep.order[c0:c1] if ok_n[i]]
        if not done:
            continue
        lat = [rep.latency_ns[i] for i in done]
        out["throughput_rps"].append(len(done) / ((t1 - t0) / 1e9))
        out["latency_p50_ms"].append(common.percentile_ms(lat, 50))
        out["latency_p90_ms"].append(common.percentile_ms(lat, 90))
        out["cpu_ms_per_request"].append(1e3 * (cpu1 - cpu0) / len(done))
    return out


def n_blocks(calls: int) -> int:
    """Blocks of a work-bounded phase of ``calls`` calls."""
    return max(1, min(BLOCKS, calls // MIN_CALLS))


def _json_lines(X: np.ndarray) -> list[bytes]:
    return [
        json.dumps({"op": "interpret", "x0": x.tolist(),
                    "target_class": None}).encode() + b"\n"
        for x in X
    ]


def _http_requests(X: np.ndarray) -> list[bytes]:
    return [
        loadgen.encode_post("/interpret", json.dumps(
            {"x0": x.tolist(), "target_class": None}).encode())
        for x in X
    ]


class Writer:
    """The fleet's single writer, run by the benchmark for the entry
    points below the gateway: it opens an L2 directory as the gateway
    does (fsync on) and, like the gateway's harvest, appends the region
    record of each fresh solve and publishes the index, so the readers
    on the directory see the inventory grow as the fleet's do."""

    def __init__(self, path: Path, ref: common.Reference):
        self.path = path
        self.ref = ref
        self.store = SegmentStore(path, exclusive=True, fsync=True)
        self.store.persist_index()

    def harvest(self, i: int) -> None:
        """Append the region of reference instance ``i`` and publish."""
        if self.store.append(*self.ref.regions[i]):
            self.store.persist_index()

    def close(self) -> None:
        self.store.close()


# ---------------------------------------------------------------------- #
# In-process serving
# ---------------------------------------------------------------------- #
def _encode_reply(response) -> bytes:
    """The worker's reply line for one response (what
    ``repro.serving.worker`` sends the gateway)."""
    interp = response.interpretation
    out = {
        "ok": True,
        "served_from_cache": bool(response.served_from_cache),
        "n_queries": int(response.n_queries),
        "result": worker_mod.interpretation_payload(interp),
    }
    if not response.served_from_cache and interp.all_certified:
        signature, payload = worker_mod.region_record(interp)
        out["region"] = {
            "signature": signature,
            "payload_b64": base64.b64encode(payload).decode("ascii"),
        }
    return json.dumps(out).encode() + b"\n"


def _check_one(checker: common.Checker, i: int, response,
               cached: bool) -> int:
    """Check one in-process response to instance ``i``: 1 if it served
    an answer, 0 for an error envelope."""
    if not response.ok:
        return 0
    interp = response.interpretation
    checker.check(i, common.payload_json(interp), interp.decision_features,
                  served_from_cache=response.served_from_cache,
                  expect_cached=cached)
    return 1


def _call_loop(call, args: list, check, *,
               tracer: Tracer | None = None) -> tuple[list, list]:
    """Closed loop of one caller: ``call(arg)`` for each arg in turn.
    ``check(k, result)`` runs after each call, outside its timing, and
    returns 1 if the call served correctly; results are not kept.
    Returns ``(latency_ns, ok_n)`` per call."""
    clock = time.perf_counter_ns
    # Flat arrays: the loop's own memory must not grow with the stream.
    latency, ok = array("q"), array("q")
    for k, arg in enumerate(args):
        if tracer is None:
            t0 = clock()
            result = call(arg)
            latency.append(clock() - t0)
        else:
            with tracer.request(k):
                result = call(arg)
        ok.append(check(k, result))
    if tracer is not None:
        latency = array("q", (int(ms * 1e6) for ms in tracer.request_ms()))
    return list(latency), list(ok)


def instrument(tracer: Tracer, service: InterpretationService,
               tier: L2ReaderCache, writer: Writer | None) -> None:
    """Wrap the public callables of every layer under ``service``, the
    reader tier's L1 and L2, and the writer's append and publish."""
    t = tracer
    t.wrap(service, "interpret", "service")
    t.wrap(service, "interpret_many", "service")
    t.wrap(service, "flush", "service.flush")

    def count_lookup(args, result):
        t.counts["cache.lookups"] += 1
        t.counts["cache.hits"] += result is not None

    t.wrap(tier, "lookup", "cache.lookup", count_lookup)
    t.wrap(tier, "insert", "cache.insert")
    # The reader's own L1 and L2 are private attributes; the L2 is a
    # public ``SegmentStore``, whose ``scan`` and ``maybe_refresh`` run on
    # every L1 miss.
    t.wrap(tier._l1, "lookup", "store.l1.lookup")
    t.wrap(tier._l2, "scan", "store.l2.scan")
    t.wrap(tier._l2, "maybe_refresh", "store.l2.refresh")
    if writer is not None:
        t.wrap(writer.store, "append", "store.l2.append")
        t.wrap(writer.store, "persist_index", "store.publish")

    def count_rows(args, result):
        t.counts["api.rows"] += len(np.atleast_2d(result))

    t.wrap(service.api, "predict_proba", "api.predict_proba", count_rows)
    t.wrap(service.interpreter, "interpret_batch", "core.interpret_batch")

    def count_round(args, rounds):
        t.counts["core.k"] += len(rounds)
        t.counts["core.certified"] += sum(bool(r.certified) for r in rounds)

    t.wrap(core_batch, "run_solve_rounds_batched", "core.solve", count_round)
    t.wrap(core_batch, "sample_hypercube", "core.sample")
    t.wrap(worker_mod, "interpretation_payload", "worker.payload")


def put_layers(res: Result, tracer: Tracer, requests: int,
               untraced_ns: list) -> None:
    """The in-process per-layer metrics of one traced pass."""
    tot = tracer.totals()
    c = tracer.counts
    n = max(requests, 1)

    def per_call(name, base=None):
        calls = tot[base or name]["calls"]
        return tot[name]["ms"] / calls if calls else 0.0

    def put_per_call(metric, span):
        res.put(metric, per_call(span), tot[span]["calls"])

    flushes = tot["service.flush"]["calls"]
    res.put("service.self_ms_per_request",
            (tot["service"]["self_ms"] + tot["service.flush"]["self_ms"]) / n,
            requests)
    res.put("service.flushes_per_request", flushes / n, requests)
    res.put("service.batch_size_mean", requests / flushes if flushes else 0.0,
            flushes)
    put_per_call("cache.lookup_ms_per_call", "cache.lookup")
    put_per_call("cache.insert_ms_per_call", "cache.insert")
    res.put("cache.hit_ratio",
            c["cache.hits"] / c["cache.lookups"] if c["cache.lookups"] else 0.0,
            int(c["cache.lookups"]))
    put_per_call("store.l1_lookup_ms_per_call", "store.l1.lookup")
    put_per_call("store.l2_scan_ms_per_call", "store.l2.scan")
    put_per_call("store.refresh_ms_per_call", "store.l2.refresh")
    put_per_call("store.append_ms_per_call", "store.l2.append")
    put_per_call("store.publish_ms_per_call", "store.publish")
    trips = tot["api.predict_proba"]["calls"]
    res.put("api.round_trips_per_request", trips / n, requests)
    res.put("api.rows_per_trip", c["api.rows"] / trips if trips else 0.0,
            trips)
    res.put("api.query_ms_per_trip", per_call("api.predict_proba"), trips)
    rounds = tot["core.solve"]["calls"]
    res.put("core.solve_ms_per_round", per_call("core.solve"), rounds)
    res.put("core.sample_ms_per_round", per_call("core.sample", "core.solve"),
            rounds)
    res.put("core.k_mean", c["core.k"] / rounds if rounds else 0.0, rounds)
    res.put("core.rounds_per_solve",
            c["core.k"] / c["core.certified"] if c["core.certified"] else 0.0,
            int(c["core.certified"]))
    res.put("core.certified_ratio",
            c["core.certified"] / c["core.k"] if c["core.k"] else 0.0,
            int(c["core.k"]))
    traced_ms = tracer.request_ms()
    res.put("trace.overhead_ms_per_request",
            (sum(traced_ms) - sum(untraced_ns) / 1e6) / n, requests)
    res.put("trace.unattributed_ms_per_request",
            tot["request"]["self_ms"] / n, requests)


def put_absent(res: Result) -> None:
    """Layers a workload does not run read zero."""
    for name in LAYER_UNITS:
        if name not in res.metrics:
            res.put(name, 0.0, 0)


def _loop_diagnostic(res: Result, service: InterpretationService,
                     rows: list) -> None:
    """Time submit -> result of lone warm hits with the background loop
    running, against a wrapped ``flush``: the difference is the
    coalescing wait (``service.inline_ms_p50`` is the same hit called
    inline)."""
    flush_ns: list[int] = []
    lock = threading.Lock()
    original = service.flush

    def timed_flush():
        t0 = time.perf_counter_ns()
        out = original()
        if out:
            with lock:
                flush_ns.append(time.perf_counter_ns() - t0)
        return out

    service.flush = timed_flush
    latency = []
    try:
        with service:
            for k in range(LOOP_DIAGNOSTIC_CALLS):
                t0 = time.perf_counter_ns()
                service.submit(rows[k % len(rows)]).result(timeout=60)
                latency.append(time.perf_counter_ns() - t0)
    finally:
        del service.flush
    n = min(len(latency), len(flush_ns))
    waits = [latency[i] - flush_ns[i] for i in range(n)]
    res.put("service.loop_latency_ms_p50",
            common.percentile_ms(latency, 50), len(latency))
    res.put("service.loop_wait_ms_p50", common.percentile_ms(waits, 50), n)


# ---------------------------------------------------------------------- #
# The fleet
# ---------------------------------------------------------------------- #
def _post(port: int, request: bytes) -> dict:
    """One synchronous request outside any timed phase."""
    rep = loadgen.replay([("127.0.0.1", port)], [request])
    status, body = loadgen.split_response(rep.raw[0])
    if status != 200:
        raise RuntimeError(f"warm-up request failed with HTTP {status}")
    return json.loads(body)


def _warm_fleet_hits(gw: GatewayProcess, requests: list) -> None:
    """Until every worker has served every hot anchor from its cache.

    The gateway routes round-robin, so a lone caller knows which worker
    comes next and sends it an anchor that worker still needs."""
    need = {(w, a) for w in range(FLEET_WORKERS) for a in range(len(requests))}
    budget = 8 * len(need)
    nxt = 0
    while need:
        budget -= 1
        if budget < 0:
            raise RuntimeError("warm-up: the fleet never served the hot set")
        mine = [a for (w, a) in need if w == nxt]
        a = min(mine) if mine else min(a for _, a in need)
        reply = _post(gw.port, requests[a])
        if not reply.get("ok"):
            raise RuntimeError(f"warm-up request failed: {reply}")
        worker = int(reply["worker"])
        if reply["served_from_cache"]:
            need.discard((worker, a))
        nxt = (worker + 1) % FLEET_WORKERS


def _check_http(checker: common.Checker, rep: loadgen.Replay, ref_idx,
                cached: bool) -> list[int]:
    """Check each served answer; 1 per ok response, else 0."""
    ok = [0] * len(rep.raw)
    for k, (i, raw) in enumerate(zip(ref_idx, rep.raw)):
        if raw is None:
            continue
        status, body = loadgen.split_response(raw)
        if status != 200:
            continue
        reply = json.loads(body)
        if not reply.get("ok"):
            continue
        ok[k] = 1
        result = reply["result"]
        checker.check(i, common.canonical(result), result["decision_features"],
                      served_from_cache=reply["served_from_cache"],
                      expect_cached=cached)
    return ok


def _fleet_sum(stats: dict, section: str, key: str) -> int:
    return sum(int(row[section][key]) for row in stats["per_worker"]
               if section in row)


@dataclass
class FleetRun:
    """One timed replay through the gateway."""

    before: dict           # gateway stats before the timed phase
    after: dict            # and after it
    rep: loadgen.Replay
    window: common.Window
    served: list           # indices into the reference, in request order
    rss_mb: float
    roles: dict            # pid -> "gateway" | "worker"


def _run_fleet(ctx: Context, *, ref: common.Reference, streams: list, warm,
               seconds: float | None) -> tuple[list, list]:
    """One round per stream: start a fleet on a fresh L2 directory, warm
    it with ``warm(gateway, requests)``, replay the stream (indices into
    ``ref``) over ``CONNECTIONS`` connections and stop it.  Untraced
    runs set up at least ``SETUPS`` times; set-ups beyond the rounds are
    torn down unused.  Returns ``(rounds, set-up seconds)``."""
    requests = _http_requests(ref.X)
    builds = max(len(streams), 1 if ctx.trace else SETUPS)
    spare = builds - len(streams)
    setups: list[float] = []
    runs: list[FleetRun] = []

    def build(k):
        t0 = time.perf_counter()
        gw = GatewayProcess(ctx.root, ctx.tmp / f"l2-{k}", FLEET_WORKERS)
        gw.start()
        try:
            warm(gw, requests)
        except BaseException:
            gw.stop()
            raise
        setups.append(time.perf_counter() - t0)
        return gw

    for k in range(spare):
        build(k).stop()
    for r, stream in enumerate(streams):
        gw = build(spare + r)
        try:
            s0 = gw.stats()
            pids = gw.pids
            window = common.Window(pids)
            rep = loadgen.replay(
                [("127.0.0.1", gw.port)] * CONNECTIONS,
                [requests[i] for i in stream],
                seconds=seconds,
                blocks=BLOCKS if seconds else n_blocks(len(stream)),
                sample=lambda: sum(common.proc_cpu_s(p) for p in pids))
            window.close()
            s1 = gw.stats()
            rss = sum(common.proc_hwm_mb(pid) for pid in pids)
            roles = {gw.pid: "gateway",
                     **{pid: "worker" for pid in gw.worker_pids}}
        finally:
            gw.stop()
        runs.append(FleetRun(s0, s1, rep, window, stream[: len(rep.raw)],
                             rss, roles))
    return runs, setups


def _fleet_e2e(ctx: Context, res: Result, ref: common.Reference,
               streams: list, warm, cached: bool,
               seconds: float | None) -> None:
    """Time the rounds; the metrics cover every call of every round, and
    throughput and CPU the sum of the rounds' timed phases."""
    checker = common.Checker(ref)
    runs, setups = _run_fleet(ctx, ref=ref, streams=streams, warm=warm,
                              seconds=seconds)
    latency_ns, ok = [], []
    sent = queries = expected = 0
    wall_s = cpu_s = 0.0
    for run in runs:
        rep, served = run.rep, run.served
        ok_r = _check_http(checker, rep, served, cached)
        latency_ns += rep.latency_ns
        ok += ok_r
        sent += rep.sent
        queries += (_fleet_sum(run.after, "service", "n_queries")
                    - _fleet_sum(run.before, "service", "n_queries"))
        expected += (int(ref.n_queries[served].sum()) if not cached
                     else len(served))
        (t0, _, cpu0), (t1, _, cpu1) = rep.marks[0], rep.marks[-1]
        wall_s += (t1 - t0) / 1e9
        cpu_s += cpu1 - cpu0
        res.noise_window("timed", run.window, run.roles)
        res.noise.setdefault("blocks", []).append(block_values(rep, ok_r))
        res.noise.setdefault("generator_cpu_s", []).append(rep.cpu_s)
    res.expect_queries(queries, expected)
    put_e2e(res, latency_ns=latency_ns, ok_n=ok, wall_s=wall_s, cpu_s=cpu_s,
            sent=sent, queries=queries, setups=setups,
            rss_mb=max(run.rss_mb for run in runs),
            n_procs=len(runs[0].roles))
    res.attempted, res.failed = sent, sent - sum(ok)
    res.checked(checker)


def _fleet_traced(ctx: Context, res: Result, model, ref: common.Reference,
                  stream: list, warm_http, warm_rows: list, cached: bool,
                  seconds: float | None) -> None:
    """The three stacked entry points on one stream: the gateway's HTTP,
    the workers' JSON-lines sockets, and in-process ``interpret``.  Below
    the gateway a :class:`Writer` stands in for its harvest, so every
    entry point sees the shared inventory grow alike."""
    checker = common.Checker(ref)
    (run,), _ = _run_fleet(ctx, ref=ref, streams=[stream], warm=warm_http,
                           seconds=seconds)
    rep, served, window = run.rep, run.served, run.window
    s0, s1 = run.before, run.after
    ok = _check_http(checker, rep, served, cached)
    n = len(served)
    gw_pid = next(p for p, role in run.roles.items() if role == "gateway")
    http_ms = [v / 1e6 for v, good in zip(rep.latency_ns, ok) if good]
    res.put("gen.cpu_ms_per_request", 1e3 * rep.cpu_s / n, n)
    res.put("gateway.cpu_ms_per_request", 1e3 * window.cpu_s[gw_pid] / n, n)
    res.put("worker.cpu_ms_per_request",
            1e3 * sum(v for p, v in window.cpu_s.items() if p != gw_pid) / n,
            n)
    res.put("gateway.queue_depth_peak", s1["queue_depth_peak"], n)
    res.put("gateway.worker_lost", s1["n_worker_lost"], n)
    res.put("gateway.harvested_per_request",
            (s1["harvested"] - s0["harvested"]) / n, n)
    res.put("gateway.publishes_per_request",
            (s1["writer_epoch"] - s0["writer_epoch"]) / n, n)
    res.put("store.refreshes_per_request",
            (_fleet_sum(s1, "tier", "refreshes")
             - _fleet_sum(s0, "tier", "refreshes")) / n, n)
    l2_hits = _fleet_sum(s1, "tier", "l2_hits") - _fleet_sum(s0, "tier", "l2_hits")
    l2_all = l2_hits + (_fleet_sum(s1, "tier", "l2_misses")
                        - _fleet_sum(s0, "tier", "l2_misses"))
    res.put("store.l2_hit_ratio", l2_hits / l2_all if l2_all else 0.0, l2_all)
    res.noise_window("http", window, run.roles)

    # The workers' own sockets, one connection each, same stream.
    lines = _json_lines(ref.X)
    writer = Writer(ctx.tmp / "direct-l2", ref)
    workers = [WorkerProcess(ctx.root, writer.path)
               for _ in range(FLEET_WORKERS)]
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.calls([lines[i] for i in warm_rows])
        for i in dict.fromkeys(warm_rows):
            writer.harvest(i)
        wwin = common.Window([w.pid for w in workers])
        direct = loadgen.replay(
            [w.address for w in workers], [lines[i] for i in served],
            lines=True,
            on_response=None if cached else (
                lambda k: writer.harvest(served[k])))
        wwin.close()
    finally:
        for w in workers:
            w.stop()
        writer.close()
    direct_ok, reply_bytes, region_bytes, misses = 0, 0, 0, 0
    for i, raw in zip(served, direct.raw):
        if raw is None:
            continue
        reply = json.loads(raw)
        if not reply.get("ok"):
            continue
        direct_ok += 1
        reply_bytes += len(raw)
        if "region" in reply:
            misses += 1
            region_bytes += len(reply["region"]["payload_b64"])
        result = reply["result"]
        checker.check(i, common.canonical(result), result["decision_features"],
                      served_from_cache=reply["served_from_cache"],
                      expect_cached=cached)
    direct_ms = [v / 1e6 for v, r in zip(direct.latency_ns, direct.raw) if r]
    res.put("worker.reply_bytes_per_request", reply_bytes / max(direct_ok, 1),
            direct_ok)
    res.put("worker.region_bytes_per_miss",
            region_bytes / misses if misses else 0.0, misses)
    res.put("gateway.self_ms_p50",
            float(np.median(http_ms) - np.median(direct_ms)), n)
    res.noise_window("direct", wwin, {w.pid: "worker" for w in workers})

    # In process, as each worker runs it: untraced, then traced.
    def build(tag):
        writer = Writer(ctx.tmp / f"inproc-l2-{tag}", ref)
        tier = L2ReaderCache(writer.path)
        service = InterpretationService(
            PredictionAPI(model), cache=tier, seed=common.MODEL_SEED,
            per_instance_seed=True)
        for i in warm_rows:
            if not service.interpret(ref.X[i]).served_from_cache:
                writer.harvest(i)
        return service, tier, writer

    def close(tier, writer):
        tier.close()
        writer.close()

    def checker_for(writer):
        def check(k, response):
            good = _check_one(checker, served[k], response, cached)
            if good and not response.served_from_cache:
                writer.harvest(served[k])
            return good
        return check

    service, tier, writer = build("plain")
    try:
        untraced_ns, _ = _call_loop(
            lambda i: service.interpret(ref.X[i]), served, checker_for(writer))
    finally:
        close(tier, writer)
    service, tier, writer = build("traced")
    tracer = Tracer()
    instrument(tracer, service, tier, writer)
    check = checker_for(writer)

    def check_and_encode(k, response):
        with tracer.span("worker.encode"):
            _encode_reply(response)
        return check(k, response)

    try:
        _call_loop(lambda i: service.interpret(ref.X[i]), served,
                   check_and_encode, tracer=tracer)
    finally:
        tracer.restore()
        close(tier, writer)
    put_layers(res, tracer, n, untraced_ns)
    res.put("service.inline_ms_p50", common.percentile_ms(untraced_ns, 50), n)
    if cached:
        service, tier, writer = build("loop")
        try:
            _loop_diagnostic(res, service, [ref.X[i] for i in served])
        finally:
            close(tier, writer)
    tot = tracer.totals()
    res.put("worker.encode_ms_per_request", tot["worker.encode"]["ms"] / n, n)
    res.put("worker.hop_ms_p50",
            float(np.median(direct_ms) - np.median(untraced_ns) / 1e6), n)
    res.attempted = rep.sent + direct.sent + 2 * n
    res.failed = (rep.sent - sum(ok)) + (direct.sent - direct_ok)
    res.checked(checker)


def n_rounds(ctx: Context) -> int:
    return max(1, round(ctx.seconds / ROUND_S))


def hits_fleet(ctx: Context) -> Result:
    res = Result()
    model = common.train_model()
    hot, chosen = common.hot_set(model)
    res.pool(chosen)
    rounds = 1 if ctx.trace else n_rounds(ctx)
    seconds = ctx.seconds / (2 if ctx.trace else rounds)
    streams = [common.zipf_stream(
        ctx.rng, len(hot.X), int(HITS_PER_S_CAP * seconds)).tolist()
        for _ in range(rounds)]
    if ctx.trace:
        warm_rows = [a for a in range(len(hot.X)) for _ in range(2)]
        _fleet_traced(ctx, res, model, hot, streams[0], _warm_fleet_hits,
                      warm_rows, cached=True, seconds=seconds)
    else:
        _fleet_e2e(ctx, res, hot, streams, _warm_fleet_hits, cached=True,
                   seconds=seconds)
    return res


def solves_fleet(ctx: Context) -> Result:
    res = Result()
    model = common.train_model()
    n_warm = 2 * FLEET_WORKERS
    rounds = n_rounds(ctx)
    n = max(MIN_CALLS, int(FLEET_SOLVES_PER_S * ctx.seconds / rounds))
    chosen = common.fresh_pool(model, n_warm + n)
    res.pool(chosen)
    pool = common.build_reference(model, chosen.X)
    orders = [(n_warm + ctx.rng.permutation(n)).tolist()
              for _ in range(rounds)]

    def warm(gw, requests):
        for i in range(n_warm):
            reply = _post(gw.port, requests[i])
            if not reply.get("ok") or reply["served_from_cache"]:
                raise RuntimeError(f"warm-up solve failed: {reply}")

    if ctx.trace:
        _fleet_traced(ctx, res, model, pool, orders[0][: n // 2], warm,
                      list(range(n_warm)), cached=False, seconds=None)
    else:
        _fleet_e2e(ctx, res, pool, orders, warm, cached=False, seconds=None)
    return res


WORKLOADS = {
    "hits_fleet": hits_fleet,
    "solves_fleet": solves_fleet,
}


def run(ctx: Context, name: str) -> Result:
    res = WORKLOADS[name](ctx)
    if ctx.trace:
        put_absent(res)
    return res


__all__ = ["WORKLOADS", "E2E_UNITS", "LAYER_UNITS", "Context", "run"]
