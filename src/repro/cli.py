"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run [ids...]``
    Regenerate paper artifacts (``table1 fig2 ... fig7`` or ``all``) at a
    chosen scale and print the rendered report.
``interpret``
    Train a demo model, hide it behind an API, interpret one instance and
    verify the interpretation — the quickstart as a one-liner.
``list``
    Show available experiment ids, dataset names and scale presets.
``check``
    Run the fast reproduction self-check scorecard.
``serve``
    Run the interpretation service over a demo model: replay a skewed
    request workload (Zipf, drifting-Zipf, multi-tenant or churn)
    through the region cache + micro-batching loop — optionally bounded
    (``--max-entries``, ``--eviction``), disk-tiered and restartable
    (``--l2-dir``/``--l2-max-bytes``/``--compact-ratio``: a rerun over
    the same directory resumes its regions) and scan-indexed
    (``--region-index``/``--index-bits``) — and print the stats endpoint.

See ``docs/serving.md`` for the operator guide to ``serve``; the
benchmark scripts live in ``benchmarks/`` (``docs/benchmarks.md``).

Examples
--------
::

    python -m repro list
    python -m repro run table1 fig7 --scale test
    python -m repro run all --scale bench --output report.txt
    python -m repro interpret --dataset credit-scoring --seed 3
    python -m repro serve --dataset credit-scoring --requests 200
    python -m repro serve --l2-dir regions.l2 --max-entries 8 \
        --workload drifting
    python -m repro serve --broker --latency-ms 5 \
        --failure-rate 0.05 --retries 4
    python -m repro serve --l2-dir regions.l2 --max-entries 64 \
        --l2-max-bytes 1048576
    python -m repro serve --region-index --index-bits 16 --requests 400
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.api import PredictionAPI
from repro.core import OpenAPIInterpreter, verify_interpretation
from repro.data import available_datasets
from repro.eval.runner import EXPERIMENT_IDS, resolve_config, run_experiments

__all__ = ["main", "build_parser"]

#: Defaults of the broker-tuning flags, shared between the parser and
#: the serve-flag validation (a non-default value without ``--broker``
#: is rejected rather than silently ignored).
_BROKER_FLAG_DEFAULTS = {
    "retries": 3,
    "broker_window_ms": 2.0,
    "broker_max_rows": 4096,
}

#: Defaults of the tiered-store tuning flags, shared between the parser
#: and the serve-flag validation for the same reason.
_L2_FLAG_DEFAULTS = {
    "compact_ratio": 0.5,
}

#: Defaults of the multi-process gateway flags, shared between the
#: parser and the serve-flag validation for the same reason.
_GATEWAY_FLAG_DEFAULTS = {
    "gateway_workers": 2,
    "port": 0,
    "queue_capacity": 64,
    "drain_deadline_s": 30.0,
    "no_supervise": False,
    "rolling_restart": False,
}

#: Defaults of the region-index tuning flags, shared between the parser
#: and the serve-flag validation for the same reason.  Values mirror
#: ``repro.serving.index.DEFAULT_INDEX_BITS`` / ``MAX_INDEX_BITS``
#: (pinned by a test; kept literal so the parser stays import-light).
_INDEX_FLAG_DEFAULTS = {
    "index_bits": 16,
}
_MAX_INDEX_BITS = 64

#: Default micro-batch cap of ``serve``, shared with the serve-flag
#: validation (``--gateway`` workers keep their service default).
_BATCH_SIZE_DEFAULT = 32


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OpenAPI reproduction: exact interpretation of PLMs "
        "hidden behind APIs (ICDE 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="regenerate paper tables/figures")
    run.add_argument(
        "ids", nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENT_IDS)}) or 'all'",
    )
    run.add_argument(
        "--scale", default="bench", choices=("test", "bench", "paper"),
        help="experiment scale preset (default: bench)",
    )
    run.add_argument(
        "--output", default=None,
        help="also write the report to this file",
    )

    interpret = sub.add_parser(
        "interpret", help="train a demo model and interpret one prediction"
    )
    interpret.add_argument(
        "--dataset", default="credit-scoring",
        help=f"dataset name (one of: {', '.join(available_datasets())})",
    )
    interpret.add_argument("--seed", type=int, default=0)
    interpret.add_argument(
        "--instance", type=int, default=0,
        help="index of the test instance to interpret",
    )

    sub.add_parser("list", help="show experiment ids, datasets and scales")

    check = sub.add_parser(
        "check", help="run the fast reproduction self-check scorecard"
    )
    check.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="run the interpretation service over a demo model and "
        "replay a skewed workload",
    )
    serve.add_argument(
        "--dataset", default="credit-scoring",
        help=f"dataset name (one of: {', '.join(available_datasets())})",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--requests", type=int, default=200,
        help="number of workload requests to replay (default: 200)",
    )
    serve.add_argument(
        "--clusters", type=int, default=12,
        help="distinct anchor instances in the workload (default: 12)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=_BATCH_SIZE_DEFAULT,
        help=f"micro-batch cap (default: {_BATCH_SIZE_DEFAULT})",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the region-reuse cache (fresh solve per request)",
    )
    serve.add_argument(
        "--workload", default="zipf",
        choices=("zipf", "drifting", "tenant", "churn"),
        help="request-stream shape (default: zipf; see docs/serving.md)",
    )
    serve.add_argument(
        "--gateway", action="store_true",
        help="serve over the multi-process gateway: an asyncio HTTP/JSON "
        "front end routing requests across a fleet of worker processes, "
        "each a full interpretation service over a shared read-only view "
        "of the --l2-dir disk tier (requires --l2-dir; see "
        "docs/serving.md)",
    )
    serve.add_argument(
        "--gateway-workers", type=int,
        default=_GATEWAY_FLAG_DEFAULTS["gateway_workers"],
        help="worker processes in the gateway fleet (requires --gateway; "
        "default: 2)",
    )
    serve.add_argument(
        "--port", type=int, default=_GATEWAY_FLAG_DEFAULTS["port"],
        help="gateway TCP port (requires --gateway; default: 0 = "
        "ephemeral, the bound port is printed on startup)",
    )
    serve.add_argument(
        "--queue-capacity", type=int,
        default=_GATEWAY_FLAG_DEFAULTS["queue_capacity"],
        help="gateway admission capacity: in-flight requests allowed "
        "before further ones are shed with a 429 overloaded envelope "
        "(requires --gateway; default: 64)",
    )
    serve.add_argument(
        "--drain-deadline-s", type=float,
        default=_GATEWAY_FLAG_DEFAULTS["drain_deadline_s"],
        help="per-worker drain ceiling during a rolling restart, in "
        "seconds (requires --gateway; default: 30)",
    )
    serve.add_argument(
        "--no-supervise", action="store_true",
        help="disable the worker supervisor: a dead worker is failed "
        "over but never respawned (requires --gateway)",
    )
    serve.add_argument(
        "--rolling-restart", action="store_true",
        help="exercise the drain protocol: issue a rolling restart "
        "midway through the replay and report the zero-loss outcome "
        "(requires --gateway)",
    )
    serve.add_argument(
        "--max-entries", type=int, default=512,
        help="resident-entry bound of the region cache (default: 512)",
    )
    serve.add_argument(
        "--eviction", default="lru", choices=("lru", "ttl"),
        help="cache eviction policy (default: lru)",
    )
    serve.add_argument(
        "--ttl-s", type=float, default=None,
        help="entry lifetime in seconds (required with --eviction ttl)",
    )
    serve.add_argument(
        "--region-index", action="store_true",
        help="prune membership scans with the hyperplane-sign region "
        "index: shortlist candidates before the exact matmul, falling "
        "back to the full scan on a shortlist miss (identical answers; "
        "see docs/serving.md)",
    )
    serve.add_argument(
        "--index-bits", type=int,
        default=_INDEX_FLAG_DEFAULTS["index_bits"],
        help="sign bits (hyperplanes) of the region index (requires "
        "--region-index; default: 16)",
    )
    serve.add_argument(
        "--l2-dir", default=None, metavar="DIR",
        help="persist regions in a tiered store: this directory holds "
        "the memory-mapped disk tier (L2); L1 evictions demote to it "
        "and L1 misses promote from it (see docs/serving.md)",
    )
    serve.add_argument(
        "--l2-max-bytes", type=int, default=None,
        help="live-byte budget of the disk tier (requires --l2-dir; "
        "default: unbounded)",
    )
    serve.add_argument(
        "--compact-ratio", type=float,
        default=_L2_FLAG_DEFAULTS["compact_ratio"],
        help="dead-byte ratio that triggers L2 segment compaction "
        "(requires --l2-dir; default: 0.5)",
    )
    serve.add_argument(
        "--broker", action="store_true",
        help="route queries through the coalescing QueryBroker "
        "(retries, backoff and a simulated transport; fused round "
        "trips when several callers share it)",
    )
    serve.add_argument(
        "--broker-window-ms", type=float,
        default=_BROKER_FLAG_DEFAULTS["broker_window_ms"],
        help="broker coalescing window in milliseconds (default: 2.0)",
    )
    serve.add_argument(
        "--broker-max-rows", type=int,
        default=_BROKER_FLAG_DEFAULTS["broker_max_rows"],
        help="row cap per fused broker round trip (default: 4096)",
    )
    serve.add_argument(
        "--latency-ms", type=float, default=0.0,
        help="simulated transport latency per round trip (requires "
        "--broker; default: 0, clean transport)",
    )
    serve.add_argument(
        "--failure-rate", type=float, default=0.0,
        help="simulated transient-failure probability per round trip "
        "(requires --broker; default: 0)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None, metavar="TRIPS_PER_S",
        help="simulated 429 token-bucket rate limit in round trips/s "
        "(requires --broker; default: none)",
    )
    serve.add_argument(
        "--retries", type=int, default=_BROKER_FLAG_DEFAULTS["retries"],
        help="broker retry budget for rate-limited/transient failures "
        "(requires --broker; default: 3)",
    )

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.exceptions import ValidationError

    try:
        report = run_experiments(args.ids, scale=args.scale)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.as_text()
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"\nreport written to {args.output}")
    return 0


def _cmd_interpret(args: argparse.Namespace) -> int:
    data, test, model = _train_demo_model(args.dataset, args.seed)
    api = PredictionAPI(model)
    print(f"dataset: {data.name} (d={data.n_features}, C={data.n_classes})")
    print(f"demo PLNN trained: test accuracy "
          f"{model.accuracy(test.X, test.y):.3f}")

    if not 0 <= args.instance < test.n_samples:
        print(f"error: --instance must be in [0, {test.n_samples})",
              file=sys.stderr)
        return 2
    x0 = test.X[args.instance]
    interpretation = OpenAPIInterpreter(seed=args.seed).interpret(api, x0)
    c = interpretation.target_class
    print(f"\ninstance #{args.instance}: predicted "
          f"'{data.class_name(c)}' "
          f"(p = {api.predict_proba(x0)[c]:.4f})")
    print(f"OpenAPI: certified={interpretation.all_certified}, "
          f"{interpretation.iterations} iteration(s), "
          f"{interpretation.n_queries} queries")

    values = interpretation.decision_features
    order = np.argsort(-np.abs(values))[:5]
    print("top decision features:")
    for i in order:
        print(f"  feature[{i}]  {values[i]:+.4f}")

    verification = verify_interpretation(api, interpretation, seed=args.seed)
    print(f"\n{verification}")
    return 0 if verification.passed else 1


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiment ids:", ", ".join(EXPERIMENT_IDS), "(or 'all')")
    print("datasets:      ", ", ".join(available_datasets()))
    for scale in ("test", "bench", "paper"):
        cfg = resolve_config(scale)
        print(f"scale {scale:<6}: d={cfg.n_features}, "
              f"{cfg.n_train} train / {cfg.n_test} test, "
              f"{cfg.n_interpret} interpreted instances")
    return 0


def _train_demo_model(dataset: str, seed: int, *, epochs: int = 120):
    """Train the quickstart PLNN over a named dataset (shared by the
    interactive and serving commands).

    Delegates to :func:`repro.serving.worker.train_worker_model` — the
    same deterministic recipe every gateway worker process runs — so
    the model the CLI serves in-process is bitwise the model the
    multi-process fleet serves.
    """
    from repro.serving.worker import train_worker_model

    return train_worker_model(dataset, seed, epochs=epochs)


_WORKLOADS = {
    "zipf": "zipf_clustered_workload",
    "drifting": "drifting_zipf_workload",
    "tenant": "multi_tenant_workload",
    "churn": "churn_workload",
}


def _validate_serve_flags(args: argparse.Namespace) -> str | None:
    """Reject invalid or contradictory ``serve`` flag combinations.

    Silently ignoring a flag the operator passed (``--ttl-s`` under LRU
    eviction, transport-simulation knobs without ``--broker``) hides
    misconfiguration; every such combination exits with a clear message
    instead.  Returns the error text, or ``None`` when the flags are
    coherent.
    """
    if args.requests < 1 or args.clusters < 1 or args.batch_size < 1:
        return "--requests, --clusters and --batch-size must be >= 1"
    if args.max_entries < 1:
        return "--max-entries must be >= 1"
    if args.gateway_workers < 1:
        return f"--gateway-workers must be >= 1, got {args.gateway_workers}"
    if not 0 <= args.port <= 65535:
        return f"--port must be in [0, 65535], got {args.port}"
    if args.queue_capacity < 1:
        return f"--queue-capacity must be >= 1, got {args.queue_capacity}"
    if args.drain_deadline_s <= 0:
        return f"--drain-deadline-s must be > 0, got {args.drain_deadline_s}"
    if args.no_supervise and args.rolling_restart:
        return ("--rolling-restart drains and respawns workers through "
                "the supervisor; --no-supervise contradicts it (drop "
                "one)")
    if not args.gateway:
        gateway_flags = []
        for attr, default in _GATEWAY_FLAG_DEFAULTS.items():
            if getattr(args, attr) != default:
                gateway_flags.append(f"--{attr.replace('_', '-')}")
        if gateway_flags:
            return (f"{'/'.join(gateway_flags)} configure the "
                    "multi-process gateway and require --gateway "
                    "(without it they would be silently ignored)")
    else:
        if not args.l2_dir:
            return ("--gateway serves a worker-process fleet over one "
                    "shared disk tier and requires --l2-dir DIR (the "
                    "gateway's single writer owns that directory)")
        if args.no_cache:
            return ("--gateway workers serve from the shared region "
                    "tier; --no-cache contradicts it (drop --no-cache)")
        if args.broker:
            return ("--broker coalesces queries inside one process; "
                    "with --gateway the queries run in worker processes "
                    "(drop --broker)")
        if args.eviction == "ttl":
            return ("--eviction ttl configures the in-process cache; "
                    "--gateway workers run an LRU L1 over the shared L2 "
                    "(drop --eviction)")
        if args.batch_size != _BATCH_SIZE_DEFAULT:
            return ("--batch-size caps the in-process micro-batch; "
                    "--gateway workers run their own service and never "
                    "receive it (drop --batch-size)")
        if args.l2_max_bytes is not None:
            return ("--l2-max-bytes bounds the in-process tiered store; "
                    "the gateway's writer appends without an online "
                    "byte budget (drop --l2-max-bytes)")
        if args.compact_ratio != _L2_FLAG_DEFAULTS["compact_ratio"]:
            return ("--compact-ratio tunes in-process compaction; the "
                    "gateway's writer never compacts while readers hold "
                    "the segments (drop --compact-ratio)")
    if args.ttl_s is not None and args.eviction != "ttl":
        return (f"--ttl-s only applies to --eviction ttl; with --eviction "
                f"{args.eviction} it would be silently ignored (drop "
                f"--ttl-s or pass --eviction ttl)")
    if args.eviction == "ttl" and args.ttl_s is None:
        return "--eviction ttl requires --ttl-s (entry lifetime in seconds)"
    if args.ttl_s is not None and args.ttl_s <= 0:
        return f"--ttl-s must be > 0, got {args.ttl_s}"
    if args.no_cache and args.l2_dir:
        return ("--l2-dir selects the tiered region store and requires "
                "the cache enabled (drop --no-cache)")
    if args.no_cache and args.region_index:
        return ("--region-index accelerates the region cache and "
                "requires the cache enabled (drop --no-cache)")
    if not 1 <= args.index_bits <= _MAX_INDEX_BITS:
        return (f"--index-bits must be in [1, {_MAX_INDEX_BITS}], "
                f"got {args.index_bits}")
    if (not args.region_index
            and args.index_bits != _INDEX_FLAG_DEFAULTS["index_bits"]):
        return ("--index-bits configures the region index and requires "
                "--region-index (without it it would be silently "
                "ignored)")
    if args.l2_max_bytes is not None and args.l2_max_bytes < 1:
        return f"--l2-max-bytes must be >= 1, got {args.l2_max_bytes}"
    if not 0.0 < args.compact_ratio < 1.0:
        return f"--compact-ratio must be in (0, 1), got {args.compact_ratio}"
    if not args.l2_dir:
        l2_flags = []
        if args.l2_max_bytes is not None:
            l2_flags.append("--l2-max-bytes")
        if args.compact_ratio != _L2_FLAG_DEFAULTS["compact_ratio"]:
            l2_flags.append("--compact-ratio")
        if l2_flags:
            return (f"{'/'.join(l2_flags)} configure the disk tier and "
                    "require --l2-dir (without it they would be silently "
                    "ignored)")
    # Range checks come first so a mistyped value surfaces the real
    # problem even when --broker is also missing.
    if args.latency_ms < 0:
        return f"--latency-ms must be >= 0, got {args.latency_ms}"
    if not 0.0 <= args.failure_rate < 1.0:
        return f"--failure-rate must be in [0, 1), got {args.failure_rate}"
    if args.rate_limit is not None and args.rate_limit <= 0:
        return f"--rate-limit must be > 0, got {args.rate_limit}"
    if args.retries < 0:
        return f"--retries must be >= 0, got {args.retries}"
    if args.broker_window_ms < 0 or args.broker_max_rows < 1:
        return "--broker-window-ms must be >= 0 and --broker-max-rows >= 1"
    if not args.broker:
        transport_flags = []
        if args.latency_ms:
            transport_flags.append("--latency-ms")
        if args.failure_rate:
            transport_flags.append("--failure-rate")
        if args.rate_limit is not None:
            transport_flags.append("--rate-limit")
        for attr, default in _BROKER_FLAG_DEFAULTS.items():
            if getattr(args, attr) != default:
                transport_flags.append(f"--{attr.replace('_', '-')}")
        if transport_flags:
            return (f"{'/'.join(transport_flags)} configure the brokered "
                    "transport and require --broker (without it they "
                    "would be silently ignored)")
    return None


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import serving
    from repro.exceptions import ValidationError
    from repro.serving import (
        InterpretationService,
        RegionCache,
        TieredRegionStore,
    )

    error = _validate_serve_flags(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.gateway:
        return _cmd_serve_gateway(args)
    try:
        data, test, model = _train_demo_model(args.dataset, args.seed)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    api = PredictionAPI(model)
    anchors = test.X[: min(args.clusters, test.n_samples)]
    workload_fn = getattr(serving, _WORKLOADS[args.workload])
    requests = workload_fn(anchors, args.requests, seed=args.seed)
    tier = f"tiered (L2: {args.l2_dir})" if args.l2_dir else "monolithic"
    if args.region_index:
        tier += f", indexed ({args.index_bits}-bit sign index)"
    broker = None
    if args.broker:
        from repro.api import (
            DirectTransport,
            QueryBroker,
            RetryPolicy,
            SimulatedTransport,
        )

        simulated = (
            args.latency_ms > 0
            or args.failure_rate > 0
            or args.rate_limit is not None
        )
        transport = (
            SimulatedTransport(
                api,
                latency_s=args.latency_ms / 1e3,
                failure_prob=args.failure_rate,
                rate_per_s=args.rate_limit,
                seed=args.seed,
            )
            if simulated
            else DirectTransport(api)
        )
        broker = QueryBroker(
            transport,
            window_s=args.broker_window_ms / 1e3,
            max_rows=args.broker_max_rows,
            retry=RetryPolicy(max_retries=args.retries),
        )
        wire = "simulated" if simulated else "clean"
        tier += f", brokered ({wire} transport)"
    print(f"dataset: {data.name} (d={data.n_features}, C={data.n_classes})")
    print(f"serving {args.requests} {args.workload} requests over "
          f"{anchors.shape[0]} anchor instances "
          f"(region cache {'off' if args.no_cache else 'on'}, {tier}, "
          f"{args.eviction} eviction <= {args.max_entries} entries, "
          f"micro-batch <= {args.batch_size})\n")

    cache_kwargs = dict(
        max_entries=args.max_entries,
        eviction=args.eviction,
        ttl_s=args.ttl_s,
        region_index=args.region_index,
        index_bits=args.index_bits,
    )
    # The tiered store is closed (draining L1 to disk) however the run
    # ends, so regions solved before an error are not lost.
    store = None
    try:
        try:
            cache = None
            if args.l2_dir:
                cache = store = TieredRegionStore(
                    args.l2_dir,
                    l2_max_bytes=args.l2_max_bytes,
                    compact_ratio=args.compact_ratio,
                    **cache_kwargs,
                )
            elif not args.no_cache:
                cache = RegionCache(**cache_kwargs)
            service = InterpretationService(
                api,
                cache=cache,
                enable_cache=not args.no_cache,
                max_batch_size=args.batch_size,
                broker=broker,
                seed=args.seed,
            )
        except (ValidationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        with service:
            responses = service.interpret_many(requests)
        errors = [r for r in responses if not r.ok]
        print(f"{len(responses) - len(errors)} interpretations served, "
              f"{len(errors)} errors")
        print("\n--- stats endpoint ---")
        print(service.stats().as_text())
        if broker is not None:
            broker_stats = broker.stats().as_dict()
            print("\n--- query broker ---")
            width = max(len(k) for k in broker_stats)
            for key, value in broker_stats.items():
                rendered = (
                    f"{value:.2f}" if isinstance(value, float) else value
                )
                print(f"{key:<{width}}  {rendered}")
        if service.cache is not None:
            cache_stats = service.cache.stats().as_dict()
            print("\n--- region cache ---")
            width = max(len(k) for k in cache_stats)
            for key, value in cache_stats.items():
                print(f"{key:<{width}}  {value}")
    finally:
        if store is not None:
            drained = store.close()
            print(f"\nL2 tier persisted to {args.l2_dir} "
                  f"({drained} L1 entries drained to disk at shutdown)")
    return 0 if not errors else 1


def _cmd_serve_gateway(args: argparse.Namespace) -> int:
    """The ``serve --gateway`` path: spawn the worker fleet, replay the
    workload over HTTP, report the aggregated fleet stats."""
    from repro import serving
    from repro.exceptions import ValidationError
    from repro.serving.gateway import Gateway, replay_workload
    from repro.serving.worker import train_worker_model

    try:
        data, test, _model = train_worker_model(args.dataset, args.seed)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    anchors = test.X[: min(args.clusters, test.n_samples)]
    workload_fn = getattr(serving, _WORKLOADS[args.workload])
    requests = workload_fn(anchors, args.requests, seed=args.seed)
    print(f"dataset: {data.name} (d={data.n_features}, "
          f"C={data.n_classes})")
    print(f"starting gateway fleet: {args.gateway_workers} worker "
          f"process(es) over shared L2 at {args.l2_dir} "
          f"(each trains the demo PLNN independently and "
          f"deterministically)")
    try:
        gateway = Gateway(
            n_workers=args.gateway_workers,
            l2_dir=args.l2_dir,
            dataset=args.dataset,
            seed=args.seed,
            port=args.port,
            max_entries=args.max_entries,
            region_index=args.region_index,
            index_bits=args.index_bits if args.region_index else None,
            supervise=not args.no_supervise,
            queue_capacity=args.queue_capacity,
            drain_deadline_s=args.drain_deadline_s,
        )
        gateway.start()
    except (ValidationError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(f"gateway listening on http://{gateway.host}:{gateway.port}")
        print(f"replaying {args.requests} {args.workload} requests over "
              f"{anchors.shape[0]} anchor instances\n")
        if args.rolling_restart:
            half = max(1, len(requests) // 2)
            first, elapsed_first = replay_workload(
                gateway.host, gateway.port, requests[:half],
            )
            print(f"issuing a rolling restart after {half} request(s)...")
            summary = gateway.rolling_restart()
            print(f"rolling restart: worker slot(s) "
                  f"{summary['restarted']} replaced in "
                  f"{summary['duration_s']:.2f}s "
                  f"({len(summary['drained_clean'])} drained clean)")
            second, elapsed_second = replay_workload(
                gateway.host, gateway.port, requests[half:],
            )
            responses = first + second
            elapsed = elapsed_first + elapsed_second
        else:
            responses, elapsed = replay_workload(
                gateway.host, gateway.port, requests,
            )
        errors = [r for r in responses if not r.get("ok")]
        print(f"{len(responses) - len(errors)} interpretations served, "
              f"{len(errors)} errors in {elapsed:.2f}s")
        print("\n--- gateway stats ---")
        print(gateway.stats().as_text())
    finally:
        gateway.stop()
    return 0 if not errors else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.eval.check import run_reproduction_check

    items = run_reproduction_check(seed=args.seed)
    for item in items:
        print(item)
    failed = [item for item in items if not item.passed]
    print(f"\n{len(items) - len(failed)}/{len(items)} checks passed")
    return 0 if not failed else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "interpret": _cmd_interpret,
        "list": _cmd_list,
        "check": _cmd_check,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
