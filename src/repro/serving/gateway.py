"""Multi-process serving: an asyncio HTTP/JSON gateway over a worker fleet.

This is the tier that takes the serving stack across the GIL boundary.
A :class:`Gateway` owns

* **a fleet of worker processes** (`python -m repro.serving.worker`),
  each a complete :class:`~repro.serving.service.InterpretationService`
  over the *same* deterministically-trained model, with an
  :class:`~repro.serving.store.L2ReaderCache` reading one shared,
  mmap'd L2 segment directory;
* **the fleet's single writer** — the only process (this one) that ever
  appends to that directory.  Workers return fresh certified solves
  alongside their responses as exact packed record bytes; a dedicated
  writer thread appends them, dedupes by region signature, and
  publishes a new index watermark (epoch bump) via the store's atomic
  tmp+``os.replace`` rename.  Readers notice the bump on their next
  miss (one ``stat``) and catch up by scanning only the records
  appended since, without dropping in-flight scans;
* **a hand-rolled HTTP/1.1 front end** on stdlib ``asyncio`` streams —
  no new runtime dependencies — speaking JSON:
  ``POST /interpret``, ``GET /stats``, ``GET /healthz``,
  ``POST /admin/restart``;
* **a worker supervisor** that notices worker death (polling and
  in-band, via the routing layer), respawns the slot with the same
  deterministic ``(dataset, seed)`` identity, and re-admits it to
  rotation only after a ``healthz`` handshake over the fleet protocol.
  Deaths arriving faster than ``restart_backoff_reset_s`` apart
  escalate an exponential per-slot backoff (capped at
  ``restart_backoff_cap_s``), so a crash-looping worker cannot turn
  the supervisor into a fork bomb;
* **bounded admission**: ``POST /interpret`` passes through a
  fixed-capacity admission gate.  Once ``queue_capacity`` requests are
  in flight behind the gateway, further requests are shed immediately
  with a structured ``429 overloaded`` envelope and a ``Retry-After``
  header — backpressure instead of an unbounded pile of asyncio tasks;
* **rolling restarts**: ``POST /admin/restart`` (and
  ``serve --gateway --rolling-restart``) drains one worker at a time —
  stop routing to it, wait for its in-flight calls up to
  ``drain_deadline_s``, shut it down gracefully, respawn, handshake,
  re-admit — then moves to the next, so a fleet-wide restart loses
  zero admitted requests.

The correctness story is Theorem 2's: a certified region is canonical,
so *which* worker solves it (or serves it from whichever tier) cannot
change a single byte of the answer.  That is what makes scale-out
free of coordination: round-robin routing, independent per-worker RAM
caches, and write-behind harvesting are all invisible in the response
bytes — and it is also what makes supervision and draining free of
loss: a respawned worker answers exactly like its predecessor, and a
request failed over mid-drain re-solves to the same bytes elsewhere.
The property is pinned across real process boundaries by
``tests/test_gateway.py`` and ``tests/test_gateway_chaos.py``, and
gated by ``benchmarks/bench_gateway.py``.

A worker crash (even ``SIGKILL`` mid-request) is absorbed: the gateway
marks the connection dead, retries the request on the remaining
workers, and (with supervision on, the default) respawns the dead
slot in the background.  A request that observed a mid-response death
with no surviving peer gets a retryable ``worker_lost`` envelope — a
different failure than ``no_workers`` (nothing to route to at all).
A writer crash is the store's crash-safety story — readers keep
serving their loaded epoch, and a restarted writer recovers every
fsynced record.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import json
import math
import os
import queue
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path

from repro.exceptions import ValidationError
from repro.serving.store import SegmentStore, _unpack_payload

__all__ = [
    "Gateway",
    "GatewayStats",
    "GatewayClient",
    "WorkerLostError",
    "LATENCY_BUCKET_BOUNDS_MS",
    "replay_workload",
]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on an HTTP request body the gateway will read.
_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Fixed upper bucket bounds (milliseconds) of the admitted-request
#: latency histogram.  Bucket ``i`` counts requests with latency
#: ``<= LATENCY_BUCKET_BOUNDS_MS[i]`` (and above the previous bound);
#: one extra overflow bucket counts anything slower than the last
#: bound.  Fixed at import time so histograms from different runs and
#: different stats snapshots are always mergeable bucket-by-bucket.
LATENCY_BUCKET_BOUNDS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0, 30000.0, 60000.0,
)


class WorkerLostError(ConnectionError):
    """A worker died *after* a request was dispatched to it.

    Distinct from a plain :class:`ConnectionError` (the handle was
    already known-dead or unconnected, so nothing was dispatched):
    a lost worker means the request bytes reached a process that then
    vanished mid-response.  The routing layer retries both cases on the
    surviving fleet — answers are pure functions of ``(seed, x0)``, so
    a retry is byte-identical — but when no peer remains the client
    sees ``worker_lost`` instead of ``no_workers``, because the remedy
    differs (retry shortly vs. give up).
    """


def _histogram_quantile(
    bounds: tuple, counts: list, q: float
) -> float | None:
    """The upper bucket bound containing quantile ``q`` — ``None`` with
    no samples, or when the quantile lands in the overflow bucket
    (slower than every finite bound, i.e. effectively unbounded)."""
    total = sum(counts)
    if total == 0:
        return None
    rank = max(1, math.ceil(q * total))
    cum = 0
    for bound, count in zip(bounds, counts):
        cum += count
        if cum >= rank:
            return float(bound)
    return None


@dataclass(frozen=True)
class GatewayStats:
    """Fleet-level snapshot aggregated from the workers and the writer.

    Field names are pinned one-to-one to the keys of :meth:`as_dict`
    (and to the glossary in ``docs/serving.md``) by
    ``tests/test_stats_schema.py``.

    Attributes
    ----------
    n_requests, n_ok, n_errors:
        Admitted ``POST /interpret`` outcomes at the gateway (``ok`` is
        the service-level verdict; a request that exhausted every
        worker counts as an error).  Shed requests are *not* counted
        here — they appear in ``n_shed`` only.
    n_workers:
        Fleet size as configured.
    workers_alive:
        Workers currently serving (a dead worker is excluded until the
        supervisor re-admits its replacement).
    uptime_s:
        Seconds since the gateway started serving.
    requests_per_s:
        ``n_requests / uptime_s`` (0.0 before the first request).
    writer_epoch:
        The writer's published index epoch — the fleet's source of
        truth for the shared L2 inventory.
    min_worker_epoch:
        The most-behind live worker's adopted epoch (0 with no live
        workers).  Workers refresh lazily, on their next L1+L2 miss.
    max_epoch_lag:
        ``writer_epoch - min_worker_epoch`` — how far the laziest
        reader trails the writer's publishes.
    harvested:
        Fresh certified regions appended to the shared L2 from worker
        responses.
    harvest_duplicates:
        Harvested regions skipped because their signature was already
        live (two workers solving the same region concurrently — the
        bytes are identical by Theorem 2, so dropping one is lossless).
    l2_records:
        Live records in the shared L2 store.
    hit_rate:
        Fleet-wide cache hit fraction: worker cache hits over worker
        requests (0.0 before any request).
    n_shed:
        Requests refused at the admission gate with a 429
        ``overloaded`` envelope (never dispatched to a worker).
    n_worker_lost:
        Mid-response worker deaths observed by the routing layer (each
        is retried on the surviving fleet; the counter tracks observed
        deaths, not failed requests).
    n_restarts:
        Workers respawned by the supervisor (crash recovery and
        rolling restarts both count).
    queue_depth:
        Admitted requests currently in flight behind the gateway.
    queue_depth_peak:
        High-water mark of ``queue_depth`` since startup; bounded by
        ``queue_capacity`` by construction.
    queue_capacity:
        The admission gate's capacity as configured.
    latency_ms_buckets:
        Upper bucket bounds (ms) of the admitted-request latency
        histogram (:data:`LATENCY_BUCKET_BOUNDS_MS`).
    latency_ms_counts:
        Per-bucket request counts; one longer than
        ``latency_ms_buckets`` — the last entry is the overflow bucket.
    latency_p50_ms, latency_p95_ms:
        Upper bound of the bucket containing the 50th/95th percentile
        admitted-request latency (``null`` before any traffic, or when
        the percentile falls in the overflow bucket).
    per_worker:
        One dict per worker slot: ``worker`` (slot), ``pid``, ``alive``,
        ``draining``, ``restarting``, ``in_flight``, ``restarts``,
        ``backoff_s``, and — for live workers — ``epoch`` and
        ``epoch_lag`` plus nested ``service``
        (:class:`~repro.serving.metrics.ServiceStats` ``as_dict``) and
        ``tier`` (:meth:`~repro.serving.store.L2ReaderCache.stats`)
        dicts, each documented under its own glossary.
    """

    n_requests: int
    n_ok: int
    n_errors: int
    n_workers: int
    workers_alive: int
    uptime_s: float
    requests_per_s: float
    writer_epoch: int
    min_worker_epoch: int
    max_epoch_lag: int
    harvested: int
    harvest_duplicates: int
    l2_records: int
    hit_rate: float
    n_shed: int
    n_worker_lost: int
    n_restarts: int
    queue_depth: int
    queue_depth_peak: int
    queue_capacity: int
    latency_ms_buckets: list
    latency_ms_counts: list
    latency_p50_ms: float | None
    latency_p95_ms: float | None
    per_worker: list

    def as_dict(self) -> dict:
        """JSON-safe rendering; key set pinned to the field names by
        ``tests/test_stats_schema.py``."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def as_text(self) -> str:
        """Aligned key/value rendering for the CLI."""
        p50 = "n/a" if self.latency_p50_ms is None \
            else f"{self.latency_p50_ms:g}ms"
        p95 = "n/a" if self.latency_p95_ms is None \
            else f"{self.latency_p95_ms:g}ms"
        rows = [
            ("requests", f"{self.n_requests}"),
            ("ok / errors", f"{self.n_ok} / {self.n_errors}"),
            ("shed (429)", f"{self.n_shed}"),
            ("workers", f"{self.workers_alive}/{self.n_workers} alive"),
            ("worker lost / restarts",
             f"{self.n_worker_lost} / {self.n_restarts}"),
            ("admission queue",
             f"{self.queue_depth}/{self.queue_capacity} "
             f"(peak {self.queue_depth_peak})"),
            ("latency p50 / p95", f"{p50} / {p95}"),
            ("uptime", f"{self.uptime_s:.1f}s"),
            ("requests/s", f"{self.requests_per_s:.1f}"),
            ("writer epoch", f"{self.writer_epoch}"),
            ("worker epoch lag", f"{self.max_epoch_lag}"),
            ("harvested regions", f"{self.harvested} "
                                  f"(+{self.harvest_duplicates} dup)"),
            ("L2 records", f"{self.l2_records}"),
            ("fleet hit rate", f"{100.0 * self.hit_rate:.1f}%"),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


class _WorkerHandle:
    """One worker slot: its process, socket streams, and serialization
    lock (the JSON-lines protocol is strictly request/reply per
    connection, so calls to one worker are serialized; calls to
    different workers interleave freely on the event loop).

    The slot outlives any one process: the supervisor replaces
    ``proc``/``port``/``pid`` on respawn but keeps the handle (and its
    lock — waiters queued across a respawn serialize against the fresh
    connection, never interleave on it).
    """

    def __init__(self, slot: int, proc: subprocess.Popen, port: int,
                 pid: int, stderr_path: Path):
        self.slot = slot
        self.proc = proc
        self.port = port
        self.pid = pid
        self.stderr_path = stderr_path
        self.alive = True
        self.draining = False      # excluded from routing while True
        self.restarting = False    # a respawn task owns this slot
        self.in_flight = 0         # calls currently inside call()
        self.restarts = 0          # times this slot was respawned
        self.backoff_s = 0.0       # current restart-storm backoff
        self.respawned_at: float | None = None  # loop-clock spawn time
        # Safe to construct off-loop on 3.10+: the lock binds its loop
        # at first acquisition, which always happens on the loop thread.
        self.lock = asyncio.Lock()
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )

    async def call(self, payload: dict, timeout: float) -> dict:
        """One JSON-lines round trip.

        Raises plain :class:`ConnectionError` when the handle has no
        connection (nothing was dispatched), and
        :class:`WorkerLostError` for any failure after the request was
        handed to the transport — EOF, reset, wedge past ``timeout``,
        or a garbled reply line all mean a dispatched request died with
        its worker.
        """
        if self.writer is None:
            raise ConnectionError(f"worker {self.slot} is not connected")
        async with self.lock:
            if self.writer is None:
                raise ConnectionError(
                    f"worker {self.slot} is not connected"
                )
            try:
                self.writer.write(json.dumps(payload).encode() + b"\n")
                await self.writer.drain()
                line = await asyncio.wait_for(
                    self.reader.readline(), timeout=timeout
                )
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                raise WorkerLostError(
                    f"worker {self.slot} (pid {self.pid}) was lost "
                    f"mid-response: {type(exc).__name__}: {exc}"
                ) from exc
        if not line:
            raise WorkerLostError(
                f"worker {self.slot} (pid {self.pid}) closed the stream "
                f"mid-response"
            )
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise WorkerLostError(
                f"worker {self.slot} (pid {self.pid}) sent a garbled "
                f"reply: {exc}"
            ) from exc

    async def aclose(self) -> None:
        if self.writer is not None:
            self.writer.close()
            with contextlib.suppress(Exception):
                await self.writer.wait_closed()
            self.writer = None
            self.reader = None


def _read_ready_line(proc: subprocess.Popen, timeout: float,
                     stderr_path: Path) -> dict:
    """Block (with a deadline) on a worker's one-line ready handshake."""
    fd = proc.stdout.fileno()
    os.set_blocking(fd, False)
    deadline = time.monotonic() + timeout
    buf = b""
    while b"\n" not in buf:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            proc.kill()
            raise TimeoutError(
                f"worker (pid {proc.pid}) did not become ready within "
                f"{timeout:.0f}s; stderr: {_tail(stderr_path)}"
            )
        readable, _, _ = select.select([fd], [], [], min(remaining, 0.25))
        if not readable:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"worker exited with {proc.returncode} before "
                    f"becoming ready; stderr: {_tail(stderr_path)}"
                )
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            raise RuntimeError(
                f"worker (pid {proc.pid}) closed stdout before the "
                f"ready line; stderr: {_tail(stderr_path)}"
            )
        buf += chunk
    line, _, _ = buf.partition(b"\n")
    return json.loads(line)


def _tail(path: Path, limit: int = 2000) -> str:
    try:
        return path.read_text(errors="replace")[-limit:]
    except OSError:
        return "<unavailable>"


class Gateway:
    """The fleet front end (see the module docstring for the design).

    Parameters
    ----------
    n_workers:
        Worker processes to spawn.
    l2_dir:
        The shared L2 segment directory.  Opened here with the
        exclusive writer lock; every worker opens it read-only.
    dataset, seed, train_size, epochs, hidden:
        The deterministic demo-model recipe, forwarded verbatim to
        every worker (see
        :func:`~repro.serving.worker.train_worker_model`).  A respawned
        worker gets the identical recipe, hence identical weights —
        that is what makes supervision invisible in response bytes.
    host, port:
        HTTP bind address (port 0 = ephemeral; read ``self.port`` after
        :meth:`start`).
    max_entries, region_index, index_bits:
        Worker-side tier knobs, forwarded to each worker's
        :class:`~repro.serving.store.L2ReaderCache` (``region_index``
        and ``index_bits`` also configure the writer store so its
        published index serves both).
    fsync:
        Writer-side durability of harvested records.
    request_timeout_s:
        Per-request ceiling on one worker round trip; a worker that
        exceeds it is declared dead and the request retried elsewhere.
        Also the ceiling on how long routing waits for a respawning
        fleet before giving up with a 503.
    startup_timeout_s:
        Ceiling on each worker's train-and-listen handshake (initial
        spawn and supervisor respawn alike).
    supervise:
        Respawn dead workers automatically (default).  Off, a dead
        worker is only failed over — the PR 8 behavior, kept for tests
        that pin it.
    restart_backoff_s, restart_backoff_cap_s, restart_backoff_reset_s:
        Restart-storm control: a death within ``restart_backoff_reset_s``
        of the slot's last respawn doubles the slot's backoff from
        ``restart_backoff_s`` up to ``restart_backoff_cap_s``; a death
        after a quiet period respawns immediately and resets the
        backoff.
    supervisor_poll_s:
        The supervisor's death-detection poll interval (routing also
        reports deaths in-band, so polling only bounds how long an
        *idle* fleet can sit with a dead worker).
    queue_capacity:
        Admission gate capacity: admitted ``POST /interpret`` requests
        allowed in flight at once; beyond it requests are shed with a
        429 ``overloaded`` envelope and a ``Retry-After`` header.
    drain_deadline_s:
        Rolling restart drain ceiling per worker: how long to wait for
        a draining worker's in-flight calls before restarting it anyway
        (any still-in-flight call then fails over and re-solves
        byte-identically elsewhere).
    retry_after_s:
        The value advertised in shed responses' ``Retry-After`` header.

    Raises
    ------
    ValidationError
        For a non-positive worker count or queue capacity, a
        non-positive drain deadline, or when another process holds the
        directory's writer lock.
    """

    def __init__(
        self,
        *,
        n_workers: int = 2,
        l2_dir,
        dataset: str = "credit-scoring",
        seed: int = 0,
        train_size: int = 800,
        epochs: int = 120,
        hidden: tuple[int, ...] = (32, 16),
        host: str = "127.0.0.1",
        port: int = 0,
        max_entries: int = 512,
        region_index: bool = False,
        index_bits: int | None = None,
        fsync: bool = True,
        request_timeout_s: float = 120.0,
        startup_timeout_s: float = 300.0,
        supervise: bool = True,
        restart_backoff_s: float = 0.5,
        restart_backoff_cap_s: float = 8.0,
        restart_backoff_reset_s: float = 30.0,
        supervisor_poll_s: float = 0.25,
        queue_capacity: int = 64,
        drain_deadline_s: float = 30.0,
        retry_after_s: int = 1,
    ):
        if n_workers < 1:
            raise ValidationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        if queue_capacity < 1:
            raise ValidationError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if drain_deadline_s <= 0:
            raise ValidationError(
                f"drain_deadline_s must be > 0, got {drain_deadline_s}"
            )
        if restart_backoff_s < 0 or restart_backoff_cap_s < restart_backoff_s:
            raise ValidationError(
                "restart backoff must satisfy "
                "0 <= restart_backoff_s <= restart_backoff_cap_s, got "
                f"{restart_backoff_s} / {restart_backoff_cap_s}"
            )
        self.n_workers = int(n_workers)
        self.l2_dir = Path(l2_dir)
        self.dataset = str(dataset)
        self.seed = int(seed)
        self.train_size = int(train_size)
        self.epochs = int(epochs)
        self.hidden = tuple(int(h) for h in hidden)
        self.host = host
        self.port = int(port)
        self.max_entries = int(max_entries)
        self.region_index = bool(region_index)
        self.index_bits = index_bits
        self.fsync = bool(fsync)
        self.request_timeout_s = float(request_timeout_s)
        self.startup_timeout_s = float(startup_timeout_s)
        self.supervise = bool(supervise)
        self.restart_backoff_s = float(restart_backoff_s)
        self.restart_backoff_cap_s = float(restart_backoff_cap_s)
        self.restart_backoff_reset_s = float(restart_backoff_reset_s)
        self.supervisor_poll_s = float(supervisor_poll_s)
        self.queue_capacity = int(queue_capacity)
        self.drain_deadline_s = float(drain_deadline_s)
        self.retry_after_s = int(retry_after_s)

        self._workers: list[_WorkerHandle] = []
        self._rr = 0
        self._started_at: float | None = None

        # Admission / supervision shared state.  The lock is taken from
        # the loop thread (dispatch, stats), the writer of _stopping
        # (stop(), any thread), and executor threads registering
        # spawned processes — hold it only for plain mutations, never
        # across an await.
        self._admission_lock = threading.Lock()
        self._n_requests = 0        # guarded-by: _admission_lock
        self._n_ok = 0              # guarded-by: _admission_lock
        self._n_errors = 0          # guarded-by: _admission_lock
        self._n_shed = 0            # guarded-by: _admission_lock
        self._n_worker_lost = 0     # guarded-by: _admission_lock
        self._n_restarts = 0        # guarded-by: _admission_lock
        self._queue_depth = 0       # guarded-by: _admission_lock
        self._queue_depth_peak = 0  # guarded-by: _admission_lock
        self._stopping = False      # guarded-by: _admission_lock
        # Every process ever spawned (initial fleet + respawns), so
        # stop() can reap strays even when a respawn raced teardown.
        self._procs: list[subprocess.Popen] = []  # guarded-by: _admission_lock
        self._latency_counts = [
            0 for _ in range(len(LATENCY_BUCKET_BOUNDS_MS) + 1)
        ]                           # guarded-by: _admission_lock
        # Serializes rolling restarts; created off-loop like the worker
        # handle locks (binds its loop at first acquisition).
        self._restart_gate = asyncio.Lock()

        self._store: SegmentStore | None = None  # guarded-by: _writer_lock
        self._writer_lock = threading.Lock()
        self._harvest_queue: queue.Queue = queue.Queue()
        self._harvested = 0           # guarded-by: _writer_lock
        self._harvest_duplicates = 0  # guarded-by: _writer_lock
        self._writer_thread: threading.Thread | None = None

        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Acquire the writer lock, spawn and await the fleet, bind the
        HTTP server.  Blocks until everything serves (or raises after
        cleaning up whatever partially started)."""
        try:
            with self._admission_lock:
                self._stopping = False
            with self._writer_lock:
                self._store = SegmentStore(
                    self.l2_dir,
                    exclusive=True,
                    fsync=self.fsync,
                    region_index=self.region_index,
                    **(
                        {"index_bits": self.index_bits}
                        if self.index_bits is not None else {}
                    ),
                )
            self._spawn_workers()
            self._writer_thread = threading.Thread(
                target=self._writer_loop, name="l2-writer", daemon=True
            )
            self._writer_thread.start()
            self._start_loop()
            self._started_at = time.monotonic()
        except BaseException:
            self.stop()
            raise

    def _worker_argv(self) -> list[str]:
        argv = [
            sys.executable, "-m", "repro.serving.worker",
            "--dataset", self.dataset,
            "--seed", str(self.seed),
            "--train-size", str(self.train_size),
            "--epochs", str(self.epochs),
            "--hidden", ",".join(str(h) for h in self.hidden),
            "--l2-dir", str(self.l2_dir),
            "--max-entries", str(self.max_entries),
        ]
        if self.region_index:
            argv.append("--region-index")
        if self.index_bits is not None:
            argv += ["--index-bits", str(self.index_bits)]
        return argv

    def _worker_env(self) -> dict:
        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    def _popen_worker(self, slot: int) -> tuple[subprocess.Popen, Path]:
        """Spawn one worker process (no handshake) and register it for
        teardown.  Called from the starting thread and from supervisor
        executor threads alike."""
        with self._admission_lock:
            if self._stopping:
                raise RuntimeError("gateway is stopping")
        stderr_path = self.l2_dir / f"worker-{slot}.stderr"
        # The child holds its own dup of the descriptor; ours closes.
        with open(stderr_path, "ab") as stderr:
            proc = subprocess.Popen(
                self._worker_argv(),
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=self._worker_env(),
            )
        with self._admission_lock:
            self._procs.append(proc)
            stopping = self._stopping
        if stopping:
            # stop() may already have swept the registry; reap here so
            # the raced spawn can never outlive the gateway.
            self._reap_proc(proc)
            raise RuntimeError("gateway is stopping")
        return proc, stderr_path

    def _spawn_workers(self) -> None:
        procs = [
            self._popen_worker(slot) for slot in range(self.n_workers)
        ]
        # All workers train concurrently; collect the handshakes after.
        for slot, (proc, stderr_path) in enumerate(procs):
            ready = _read_ready_line(
                proc, self.startup_timeout_s, stderr_path
            )
            self._workers.append(_WorkerHandle(
                slot, proc, int(ready["port"]), int(ready["pid"]),
                stderr_path,
            ))

    def _popen_and_handshake(
        self, slot: int
    ) -> tuple[subprocess.Popen, int, int]:
        """Blocking spawn + ready handshake for one slot (runs on an
        executor thread during respawns)."""
        proc, stderr_path = self._popen_worker(slot)
        ready = _read_ready_line(proc, self.startup_timeout_s, stderr_path)
        return proc, int(ready["port"]), int(ready["pid"])

    @staticmethod
    def _reap_proc(proc: subprocess.Popen) -> None:
        """Blocking terminate-then-kill of one worker process."""
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()

    def _start_loop(self) -> None:
        started = threading.Event()
        failure: list[BaseException] = []

        async def _bring_up():
            for handle in self._workers:
                await handle.connect()
            if self.supervise:
                asyncio.ensure_future(self._supervisor_loop())
            self._server = await asyncio.start_server(
                self._handle_http, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]

        def _run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(_bring_up())
            except BaseException as exc:  # boundary: captured for start() to re-raise; the loop thread must not die silently
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._loop_thread = threading.Thread(
            target=_run, name="gateway-loop", daemon=True
        )
        self._loop_thread.start()
        started.wait()
        if failure:
            raise failure[0]

    def stop(self) -> None:
        """Tear everything down (idempotent): HTTP server, supervisor,
        fleet, writer thread, writer store."""
        with self._admission_lock:
            self._stopping = True
        if self._loop is not None and self._loop.is_running():
            async def _bring_down():
                if self._server is not None:
                    self._server.close()
                    with contextlib.suppress(Exception):
                        await self._server.wait_closed()
                for handle in self._workers:
                    if handle.alive and handle.writer is not None:
                        with contextlib.suppress(Exception):
                            await asyncio.wait_for(
                                handle.call({"op": "shutdown"}, 5.0),
                                timeout=5.0,
                            )
                    await handle.aclose()
                # Keep-alive connection handlers and supervisor tasks
                # outlive server.close(); cancel them so the loop shuts
                # down without destroying pending tasks.
                pending = [
                    t for t in asyncio.all_tasks()
                    if t is not asyncio.current_task()
                ]
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)

            with contextlib.suppress(Exception):
                asyncio.run_coroutine_threadsafe(
                    _bring_down(), self._loop
                ).result(timeout=30)
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=30)
            self._loop_thread = None
            self._loop = None
            self._server = None
        with self._admission_lock:
            procs = self._procs
            self._procs = []
        for proc in procs:
            self._reap_proc(proc)
        self._workers = []
        if self._writer_thread is not None:
            self._harvest_queue.put(None)
            self._writer_thread.join(timeout=30)
            self._writer_thread = None
        with self._writer_lock:
            if self._store is not None:
                self._store.close()
                self._store = None

    def __enter__(self) -> "Gateway":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # The single writer
    # ------------------------------------------------------------------ #
    def _writer_loop(self) -> None:
        """Drain harvested regions into the store; one atomic index
        publish (epoch bump) per drained batch, not per record."""
        while True:
            item = self._harvest_queue.get()
            if item is None:
                return
            batch = [item]
            while True:
                try:
                    extra = self._harvest_queue.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    self._harvest_queue.put(None)  # re-arm the sentinel
                    break
                batch.append(extra)
            appended = False
            with self._writer_lock:
                if self._store is None:
                    return
                for signature, payload in batch:
                    record = _unpack_payload(payload)
                    if self._store.append(int(signature), *record):
                        self._harvested += 1
                        appended = True
                    else:
                        self._harvest_duplicates += 1
                if appended:
                    self._store.persist_index()

    # ------------------------------------------------------------------ #
    # Supervision (runs on the loop thread)
    # ------------------------------------------------------------------ #
    async def _supervisor_loop(self) -> None:
        """Poll the fleet for silent deaths.  Routing reports deaths
        in-band the moment a call fails; this loop exists for fleets
        that are idle when a worker dies."""
        while True:
            await asyncio.sleep(self.supervisor_poll_s)
            for handle in self._workers:
                if handle.alive and handle.proc.poll() is not None:
                    await self._mark_dead(handle)

    async def _mark_dead(self, handle: _WorkerHandle) -> None:
        """Take one worker out of rotation and (when supervised) hand
        its slot to a respawn task.  Idempotent per death."""
        if not handle.alive:
            return
        handle.alive = False
        await handle.aclose()
        self._schedule_respawn(handle)

    def _schedule_respawn(self, handle: _WorkerHandle) -> None:
        with self._admission_lock:
            stopping = self._stopping
        if not self.supervise or stopping or handle.restarting:
            return
        handle.restarting = True
        self._loop.create_task(self._respawn(handle))

    async def _respawn(
        self, handle: _WorkerHandle, *, deliberate: bool = False
    ) -> bool:
        """Bring one dead (or deliberately stopped) worker slot back:
        reap the old process, spawn a replacement with the identical
        deterministic recipe, and re-admit it to rotation only after a
        ``healthz`` handshake answers over the fleet protocol.

        ``deliberate`` (rolling restarts) skips backoff accounting —
        backoff exists to dampen crash storms, not planned restarts.
        Returns True once the slot serves again, False when the
        gateway stopped first.  The caller must have set
        ``handle.restarting`` (cleared here on every exit path).
        """
        try:
            delay = 0.0
            if not deliberate:
                now = self._loop.time()
                if (handle.respawned_at is not None
                        and now - handle.respawned_at
                        < self.restart_backoff_reset_s):
                    handle.backoff_s = min(
                        self.restart_backoff_cap_s,
                        max(self.restart_backoff_s, 2.0 * handle.backoff_s),
                    )
                else:
                    handle.backoff_s = 0.0
                delay = handle.backoff_s
            while True:
                with self._admission_lock:
                    if self._stopping:
                        return False
                if delay > 0:
                    await asyncio.sleep(delay)
                try:
                    await self._loop.run_in_executor(
                        None, self._reap_proc, handle.proc
                    )
                    proc, port, pid = await self._loop.run_in_executor(
                        None, self._popen_and_handshake, handle.slot
                    )
                    handle.proc, handle.port, handle.pid = proc, port, pid
                    await handle.connect()
                    reply = await handle.call({"op": "healthz"}, 30.0)
                    if not reply.get("ok"):
                        raise ConnectionError(
                            f"worker {handle.slot} failed the "
                            f"re-admission handshake: {reply}"
                        )
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # boundary: a failed respawn attempt escalates backoff and retries; it must not kill the supervisor task
                    print(
                        f"gateway: respawn of worker {handle.slot} failed "
                        f"({type(exc).__name__}: {exc}); backing off",
                        file=sys.stderr,
                    )
                    await handle.aclose()
                    delay = min(
                        self.restart_backoff_cap_s,
                        max(self.restart_backoff_s, 2.0 * delay),
                    )
                    handle.backoff_s = delay
                    continue
                break
            handle.respawned_at = self._loop.time()
            handle.restarts += 1
            with self._admission_lock:
                self._n_restarts += 1
            handle.alive = True
            return True
        finally:
            handle.restarting = False

    async def _rolling_restart(self) -> dict:
        """Drain and respawn live workers one at a time (serialized
        fleet-wide by ``_restart_gate``); returns a summary dict."""
        async with self._restart_gate:
            started = self._loop.time()
            restarted: list[int] = []
            drained_clean: list[int] = []
            skipped: list[int] = []
            for handle in list(self._workers):
                if not handle.alive or handle.restarting:
                    # A dead slot is the supervisor's problem; skipping
                    # it keeps the rolling pass bounded.
                    skipped.append(handle.slot)
                    continue
                handle.draining = True
                try:
                    deadline = self._loop.time() + self.drain_deadline_s
                    while (handle.in_flight > 0
                           and self._loop.time() < deadline):
                        await asyncio.sleep(0.02)
                    if handle.in_flight == 0:
                        drained_clean.append(handle.slot)
                    handle.restarting = True  # claim before the supervisor
                    handle.alive = False
                    with contextlib.suppress(Exception):
                        await asyncio.wait_for(
                            handle.call({"op": "shutdown"}, 5.0),
                            timeout=5.0,
                        )
                    await handle.aclose()
                    ok = await self._respawn(handle, deliberate=True)
                    if not ok:
                        break
                    restarted.append(handle.slot)
                finally:
                    handle.draining = False
            return {
                "ok": True,
                "restarted": restarted,
                "drained_clean": drained_clean,
                "skipped": skipped,
                "duration_s": self._loop.time() - started,
            }

    def rolling_restart(self) -> dict:
        """Thread-safe rolling restart for in-process callers (the
        CLI's ``--rolling-restart`` path); blocks until the pass
        completes and returns its summary."""
        if self._loop is None or not self._loop.is_running():
            raise ValidationError("gateway is not running")
        budget = (
            self.n_workers * (self.startup_timeout_s
                              + self.drain_deadline_s) + 60.0
        )
        return asyncio.run_coroutine_threadsafe(
            self._rolling_restart(), self._loop
        ).result(timeout=budget)

    def pending_task_count(self) -> int:
        """Number of tasks live on the event loop (test hook: overload
        must not leak asyncio tasks once load drops)."""
        if self._loop is None or not self._loop.is_running():
            raise ValidationError("gateway is not running")

        async def _count() -> int:
            return len([
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
            ])

        return asyncio.run_coroutine_threadsafe(
            _count(), self._loop
        ).result(timeout=30)

    # ------------------------------------------------------------------ #
    # HTTP front end (runs on the loop thread)
    # ------------------------------------------------------------------ #
    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                try:
                    status, payload, extra_headers = await self._dispatch(
                        method, path, body
                    )
                except Exception as exc:  # boundary: HTTP 500 envelope — a handler bug must not kill the connection loop
                    status, payload, extra_headers = 500, {
                        "ok": False,
                        "error": {
                            "code": "internal_error",
                            "message": f"{type(exc).__name__}: {exc}",
                            "retryable": True,
                        },
                    }, None
                data = json.dumps(payload).encode()
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: "
                    f"{'keep-alive' if keep_alive else 'close'}\r\n"
                )
                for key, value in (extra_headers or {}).items():
                    head += f"{key}: {value}\r\n"
                writer.write(head.encode() + b"\r\n" + data)
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError, ConnectionError, ValueError,
            asyncio.LimitOverrunError,
        ):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels still-open keep-alive handlers; for a
            # connection handler that is a normal close, not an error
            # (re-raising would trip the stream protocol's done-callback).
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request (request line, headers, body)."""
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            key, _, value = header.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        if length > _MAX_BODY_BYTES:
            raise ValueError("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict, dict | None]:
        path = path.split("?", 1)[0]
        if path == "/interpret":
            if method != "POST":
                return 405, _error_body(
                    "method_not_allowed", f"{method} /interpret"
                ), None
            return await self._dispatch_interpret(body)
        if path == "/stats":
            if method != "GET":
                return 405, _error_body(
                    "method_not_allowed", f"{method} /stats"
                ), None
            stats = await self._collect_stats()
            return 200, stats.as_dict(), None
        if path == "/admin/restart":
            if method != "POST":
                return 405, _error_body(
                    "method_not_allowed", f"{method} /admin/restart"
                ), None
            summary = await self._rolling_restart()
            return 200, summary, None
        if path == "/healthz":
            alive = sum(1 for w in self._workers if w.alive)
            status = 200 if alive else 503
            return status, {"ok": bool(alive), "workers_alive": alive}, None
        return 404, _error_body("not_found", path), None

    async def _dispatch_interpret(
        self, body: bytes
    ) -> tuple[int, dict, dict | None]:
        try:
            request = json.loads(body)
            if not isinstance(request, dict) or "x0" not in request:
                raise ValueError("body must be a JSON object with 'x0'")
        except (json.JSONDecodeError, ValueError, UnicodeDecodeError) as exc:
            return 400, _error_body("invalid_request", str(exc)), None
        start_s = time.perf_counter()
        with self._admission_lock:
            shed = self._queue_depth >= self.queue_capacity
            if shed:
                self._n_shed += 1
            else:
                self._queue_depth += 1
                if self._queue_depth > self._queue_depth_peak:
                    self._queue_depth_peak = self._queue_depth
        if shed:
            return 429, _error_body(
                "overloaded",
                f"admission queue at capacity ({self.queue_capacity}); "
                f"retry after {self.retry_after_s}s",
                retryable=True,
            ), {"Retry-After": str(self.retry_after_s)}
        try:
            with self._admission_lock:
                self._n_requests += 1
            call = {
                "op": "interpret",
                "x0": request["x0"],
                "target_class": request.get("target_class"),
            }
            reply, slot, failure = await self._route(call)
            if reply is None:
                with self._admission_lock:
                    self._n_errors += 1
                message = (
                    "a worker died mid-request and no peer could take over"
                    if failure == "worker_lost"
                    else "every worker in the fleet is gone"
                )
                return 503, _error_body(
                    failure, message, retryable=True,
                ), None
            region = reply.pop("region", None)
            if region is not None:
                import base64

                self._harvest_queue.put((
                    region["signature"],
                    base64.b64decode(region["payload_b64"]),
                ))
            with self._admission_lock:
                if reply.get("ok"):
                    self._n_ok += 1
                else:
                    self._n_errors += 1
            reply["worker"] = slot
            return 200, reply, None
        finally:
            elapsed_ms = (time.perf_counter() - start_s) * 1e3
            bucket = bisect.bisect_left(
                LATENCY_BUCKET_BOUNDS_MS, elapsed_ms
            )
            with self._admission_lock:
                self._queue_depth -= 1
                self._latency_counts[bucket] += 1

    async def _route(
        self, call: dict
    ) -> tuple[dict | None, int, str | None]:
        """Round-robin across routable workers (alive and not
        draining), failing over on a dead or wedged one.

        A failure after dispatch (:class:`WorkerLostError`) and a
        failure to dispatch (plain :class:`ConnectionError` etc.) both
        take the worker out of rotation and retry — the answer is a
        pure function of ``(seed, x0)``, so retries are byte-safe —
        but they are counted and surfaced distinctly.  When nothing is
        routable but a slot is draining or respawning, routing waits
        (bounded by ``request_timeout_s``) instead of failing, which
        is what makes rolling restarts and supervised respawns
        invisible to clients.  Returns ``(reply, slot, None)`` or
        ``(None, -1, failure_code)``.
        """
        deadline = self._loop.time() + self.request_timeout_s
        lost_mid_response = False
        while True:
            routable = [
                w for w in self._workers if w.alive and not w.draining
            ]
            if routable:
                handle = routable[self._rr % len(routable)]
                self._rr += 1
                handle.in_flight += 1
                try:
                    reply = await handle.call(call, self.request_timeout_s)
                    return reply, handle.slot, None
                except WorkerLostError:
                    lost_mid_response = True
                    with self._admission_lock:
                        self._n_worker_lost += 1
                    await self._mark_dead(handle)
                except (ConnectionError, OSError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError, json.JSONDecodeError):
                    await self._mark_dead(handle)
                finally:
                    handle.in_flight -= 1
                continue
            prospect = any(
                w.alive or w.draining or w.restarting
                for w in self._workers
            )
            if not prospect or self._loop.time() >= deadline:
                return None, -1, (
                    "worker_lost" if lost_mid_response else "no_workers"
                )
            await asyncio.sleep(0.05)

    # ------------------------------------------------------------------ #
    # Stats
    # ------------------------------------------------------------------ #
    async def _collect_stats(self) -> GatewayStats:
        per_worker: list[dict] = []
        for handle in self._workers:
            row: dict = {
                "worker": handle.slot,
                "pid": handle.pid,
                "alive": handle.alive,
                "draining": handle.draining,
                "restarting": handle.restarting,
                "in_flight": handle.in_flight,
                "restarts": handle.restarts,
                "backoff_s": handle.backoff_s,
            }
            if handle.alive:
                try:
                    reply = await handle.call({"op": "stats"}, 30.0)
                    row["epoch"] = int(reply["epoch"])
                    row["service"] = reply["service"]
                    row["tier"] = reply["tier"]
                except (ConnectionError, OSError, asyncio.TimeoutError,
                        KeyError, json.JSONDecodeError):
                    await self._mark_dead(handle)
                    row["alive"] = False
            per_worker.append(row)
        live = [row for row in per_worker if row["alive"]]
        with self._writer_lock:
            writer_epoch = self._store.epoch if self._store else 0
            l2_records = len(self._store) if self._store else 0
            harvested = self._harvested
            duplicates = self._harvest_duplicates
        for row in per_worker:
            if "epoch" in row:
                row["epoch_lag"] = max(0, writer_epoch - row["epoch"])
        min_epoch = min((row["epoch"] for row in live), default=0)
        fleet_requests = sum(
            row["service"]["n_requests"] for row in live
        )
        fleet_hits = sum(row["service"]["cache_hits"] for row in live)
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        with self._admission_lock:
            n_requests = self._n_requests
            n_ok = self._n_ok
            n_errors = self._n_errors
            n_shed = self._n_shed
            n_worker_lost = self._n_worker_lost
            n_restarts = self._n_restarts
            queue_depth = self._queue_depth
            queue_depth_peak = self._queue_depth_peak
            latency_counts = list(self._latency_counts)
        return GatewayStats(
            n_requests=n_requests,
            n_ok=n_ok,
            n_errors=n_errors,
            n_workers=self.n_workers,
            workers_alive=len(live),
            uptime_s=float(uptime),
            requests_per_s=(
                n_requests / uptime if uptime > 0 else 0.0
            ),
            writer_epoch=writer_epoch,
            min_worker_epoch=min_epoch,
            max_epoch_lag=max(0, writer_epoch - min_epoch),
            harvested=harvested,
            harvest_duplicates=duplicates,
            l2_records=l2_records,
            hit_rate=(
                fleet_hits / fleet_requests if fleet_requests else 0.0
            ),
            n_shed=n_shed,
            n_worker_lost=n_worker_lost,
            n_restarts=n_restarts,
            queue_depth=queue_depth,
            queue_depth_peak=queue_depth_peak,
            queue_capacity=self.queue_capacity,
            latency_ms_buckets=list(LATENCY_BUCKET_BOUNDS_MS),
            latency_ms_counts=latency_counts,
            latency_p50_ms=_histogram_quantile(
                LATENCY_BUCKET_BOUNDS_MS, latency_counts, 0.50
            ),
            latency_p95_ms=_histogram_quantile(
                LATENCY_BUCKET_BOUNDS_MS, latency_counts, 0.95
            ),
            per_worker=per_worker,
        )

    def stats(self) -> GatewayStats:
        """Thread-safe snapshot for in-process callers (the CLI)."""
        if self._loop is None or not self._loop.is_running():
            raise ValidationError("gateway is not running")
        return asyncio.run_coroutine_threadsafe(
            self._collect_stats(), self._loop
        ).result(timeout=60)

    # ------------------------------------------------------------------ #
    # Test hooks
    # ------------------------------------------------------------------ #
    def kill_worker(self, slot: int) -> int:
        """SIGKILL one worker process (crash-test hook); returns its
        pid.  The gateway discovers the death in-band on the next
        request routed to it, or via the supervisor's poll."""
        handle = self._workers[slot]
        handle.proc.kill()
        handle.proc.wait(timeout=30)
        return handle.pid

    def crash_worker(self, slot: int) -> int:
        """Send one worker the protocol-level ``crash`` op (crash-test
        hook); returns its pid.  The worker calls ``os._exit`` without
        replying, so the dispatching call dies exactly like a request
        whose worker was SIGKILLed mid-response.  The death is
        swallowed here — the gateway's accounting first observes it on
        the next routed request or supervisor poll, same as
        :meth:`kill_worker`."""
        handle = self._workers[slot]
        pid, proc = handle.pid, handle.proc

        async def _crash() -> None:
            try:
                await handle.call({"op": "crash"}, 30.0)
            except WorkerLostError:
                pass

        asyncio.run_coroutine_threadsafe(
            _crash(), self._loop
        ).result(timeout=60)
        proc.wait(timeout=30)  # the supervisor may swap handle.proc
        return pid

    def worker_pids(self) -> list[int]:
        """Current pid of every slot (test hook: a rolling restart must
        replace every process)."""
        return [handle.pid for handle in self._workers]


def _error_body(code: str, message: str, *, retryable: bool = False) -> dict:
    return {
        "ok": False,
        "error": {
            "code": code, "message": message, "retryable": retryable,
        },
    }


class GatewayClient:
    """Minimal blocking JSON client over one persistent HTTP connection
    (stdlib ``http.client``) — what the CLI, benchmarks, and tests use
    to talk to a :class:`Gateway`.  Not thread-safe; give each thread
    its own client.  ``last_headers`` holds the response headers of the
    most recent request (lower-cased keys), so callers can observe
    ``Retry-After`` on shed responses.  Close it with :meth:`close`, or
    use it as a context manager.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 120.0):
        import http.client

        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.last_headers: dict[str, str] = {}
        self._http = http.client
        self._conn = http.client.HTTPConnection(
            host, self.port, timeout=self.timeout
        )

    def request(self, method: str, path: str,
                payload: dict | None = None) -> tuple[int, dict]:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (ConnectionError, self._http.HTTPException, OSError):
            # One reconnect: the server may have closed an idle
            # keep-alive connection under us.
            self._conn.close()
            self._conn = self._http.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        self.last_headers = {
            key.lower(): value for key, value in response.getheaders()
        }
        return response.status, json.loads(data) if data else {}

    def interpret(self, x0, target_class: int | None = None) -> dict:
        """POST one instance; returns the response body (its ``ok``
        field is the service-level verdict)."""
        x0_list = x0.tolist() if hasattr(x0, "tolist") else list(x0)
        _status, body = self.request(
            "POST", "/interpret",
            {"x0": x0_list, "target_class": target_class},
        )
        return body

    def stats(self) -> dict:
        _status, body = self.request("GET", "/stats")
        return body

    def healthz(self) -> tuple[int, dict]:
        return self.request("GET", "/healthz")

    def rolling_restart(self) -> tuple[int, dict]:
        """POST /admin/restart; blocks until the rolling pass finishes
        and returns ``(status, summary)``."""
        return self.request("POST", "/admin/restart")

    def close(self) -> None:
        """Close the connection (a later request reconnects)."""
        self._conn.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay_workload(
    host: str,
    port: int,
    X,
    *,
    targets=None,
    concurrency: int = 4,
    timeout: float = 120.0,
) -> tuple[list[dict], float]:
    """Replay instances against a gateway from ``concurrency`` client
    threads; returns ``(responses in request order, elapsed seconds)``.

    The thread fan-out is what makes multi-process scaling observable
    from one test process: a single blocking client would serialize the
    fleet behind its own round trips.
    """
    n = len(X)
    results: list[dict | None] = [None] * n
    counter = iter(range(n))
    counter_lock = threading.Lock()

    def _drain():
        client = GatewayClient(host, port, timeout=timeout)
        try:
            while True:
                with counter_lock:
                    try:
                        i = next(counter)
                    except StopIteration:
                        return
                target = None if targets is None else targets[i]
                results[i] = client.interpret(X[i], target)
        finally:
            client.close()

    threads = [
        threading.Thread(target=_drain, name=f"replay-{t}")
        for t in range(max(1, int(concurrency)))
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return [r if r is not None else _error_body("no_response", "")
            for r in results], elapsed
