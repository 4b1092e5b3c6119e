"""One worker process of the multi-process serving fleet.

Runnable as ``python -m repro.serving.worker`` (the gateway spawns it
with :data:`sys.executable`), a worker is a full single-process serving
stack — deterministic demo-model training, a
:class:`~repro.api.service.PredictionAPI`, and an
:class:`~repro.serving.service.InterpretationService` — whose region
tier is an :class:`~repro.serving.store.L2ReaderCache`: a private RAM
L1 over the fleet's *shared*, read-only L2 segment directory.  Workers
never write that directory; fresh certified solves are returned to the
gateway alongside the response (as the exact packed record bytes,
base64-framed), and the gateway's single writer appends and publishes
them for every worker to adopt on the next epoch refresh.

The wire protocol is deliberately minimal — one JSON object per line
over a local TCP socket (the gateway speaks HTTP to the world and this
framing to the fleet):

* ``{"op": "interpret", "x0": [...], "target_class": int | null}``
* ``{"op": "stats"}`` — service + tier meters, pid, epoch
* ``{"op": "ping"}``
* ``{"op": "healthz"}`` — the supervisor's re-admission handshake:
  proves the worker is not just accepting connections but serving its
  tier (pid + adopted epoch), before it re-enters rotation
* ``{"op": "shutdown"}`` — acknowledge, then exit cleanly
* ``{"op": "crash"}`` — test hook: die instantly (``os._exit``)
  *without* replying, the deterministic stand-in for a SIGKILL
  arriving mid-response

Every numeric field round-trips through JSON's shortest-repr float
serialization, which is exact for float64 — so a worker's response
payload is bitwise-comparable against a single-process
:class:`InterpretationService` on the same model (the gateway test
suite's identity property).

On startup the worker prints one ready line
(``{"ready": true, "port": ..., "pid": ...}``) to stdout; the gateway
blocks on it before routing.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import socket
import sys

import numpy as np

from repro.api import PredictionAPI
from repro.core.backend import as_float64
from repro.exceptions import ValidationError
from repro.serving.service import InterpretationService
from repro.serving.store import L2ReaderCache, _pack_payload, region_signature

__all__ = [
    "train_worker_model",
    "distinct_region_anchors",
    "interpretation_payload",
    "region_record",
    "main",
]

_DEFAULT_HIDDEN = (32, 16)


def train_worker_model(
    dataset: str,
    seed: int,
    *,
    train_size: int = 800,
    epochs: int = 120,
    hidden: tuple[int, ...] = _DEFAULT_HIDDEN,
):
    """Deterministically train the demo PLNN every process agrees on.

    The same ``(dataset, seed, train_size, epochs, hidden)`` tuple
    produces bitwise-identical weights in any process — training is
    seeded end to end — which is what lets N worker processes (and the
    test harness's in-process reference service) answer interpretation
    requests identically without ever exchanging model state.

    Returns ``(data, test_split, model)`` exactly like the CLI's
    quickstart trainer (which delegates here).
    """
    from repro.data import load_dataset, train_test_split
    from repro.models import ReLUNetwork, TrainingConfig, train_network

    data = load_dataset(dataset, train_size, seed=seed)
    train, test = train_test_split(data, test_fraction=0.25, seed=seed)
    model = ReLUNetwork(
        [data.n_features, *hidden, data.n_classes], seed=seed
    )
    train_network(
        model, train.X, train.y,
        TrainingConfig(epochs=epochs, learning_rate=3e-3, seed=seed),
    )
    return data, test, model


def distinct_region_anchors(
    api: PredictionAPI,
    candidates: np.ndarray,
    *,
    seed: int = 0,
    limit: int | None = None,
) -> np.ndarray:
    """Filter ``candidates`` down to region-unambiguous anchors.

    The fleet's bitwise-identity property compares responses across
    serving paths (fresh solve, L1 hit, shared-L2 promotion) that may
    resolve a request against *different* cached entries.  That is only
    observable when an anchor's instance also passes another anchor's
    membership check — two anchors in (or numerically straddling) the
    same activation region, where one path may serve the neighbour's
    canonical payload.  This helper certifies each candidate once (the
    canonical per-instance-seeded solo solve) and drops any whose
    instance is claimed by some *other* candidate's region, so every
    kept anchor has exactly one servable answer no matter which tier or
    process answers.  Identity harnesses and the gateway benchmark
    build their workloads from these.
    """
    from repro.core.batch import BatchOpenAPIInterpreter
    from repro.serving.cache import RegionCache

    candidates = np.asarray(candidates, dtype=np.float64)
    interpreter = BatchOpenAPIInterpreter(seed=seed, per_instance_seed=True)
    solved = []
    for x0 in candidates:
        result = interpreter.interpret_batch(
            api, x0[None, :]
        ).interpretations[0]
        if result is not None and result.all_certified:
            solved.append((x0, result))
    kept = []
    for j, (x0, own) in enumerate(solved):
        others = RegionCache(max_entries=max(1, len(solved)))
        for i, (_, interp) in enumerate(solved):
            if i != j:
                others.insert(interp)
        y0 = api.predict_proba(x0)
        if others.lookup(x0, y0, own.target_class) is None:
            kept.append(x0)
            if limit is not None and len(kept) >= limit:
                break
    if not kept:
        raise ValidationError(
            "no region-unambiguous anchors among the candidates (every "
            "certified candidate lands in another candidate's region); "
            "provide more spread-out instances"
        )
    return np.stack(kept)


def interpretation_payload(interpretation) -> dict:
    """The deterministic JSON rendering of one interpretation.

    Contains exactly the fields Theorem 2 makes canonical per region —
    weights, intercepts, decision features, edge, certification — so
    two processes solving (or cache-serving) the same region produce
    *equal* payloads, however the region reached them.  Accounting
    fields (``n_queries``, cache placement) are deliberately excluded:
    they describe the serving path, not the answer.
    """
    pairs = tuple(sorted(interpretation.pair_estimates))
    estimates = interpretation.pair_estimates
    return {
        "target_class": int(interpretation.target_class),
        "pairs": [list(p) for p in pairs],
        "weights": [estimates[p].weights.tolist() for p in pairs],
        "intercepts": [float(estimates[p].intercept) for p in pairs],
        "decision_features": interpretation.decision_features.tolist(),
        "final_edge": float(interpretation.final_edge),
        "certified": bool(interpretation.all_certified),
    }


def region_record(interpretation) -> tuple[int, bytes]:
    """``(signature, packed record bytes)`` of a certified solve — the
    harvest format the gateway's writer appends to the shared L2."""
    pairs = tuple(sorted(interpretation.pair_estimates))
    estimates = interpretation.pair_estimates
    W = np.stack([estimates[p].weights for p in pairs])
    b = np.asarray(
        [estimates[p].intercept for p in pairs], dtype=np.float64
    )
    signature = region_signature(interpretation.target_class, pairs, W, b)
    payload = _pack_payload(
        interpretation.target_class,
        pairs,
        W,
        b,
        as_float64(interpretation.x0),
        as_float64(interpretation.decision_features),
        float(interpretation.final_edge),
    )
    return signature, payload


def _handle_interpret(service: InterpretationService, request: dict) -> dict:
    try:
        x0 = np.asarray(request["x0"], dtype=np.float64)
        target = request.get("target_class")
        response = service.interpret(
            x0, None if target is None else int(target)
        )
    except (ValidationError, KeyError, TypeError, ValueError) as exc:
        return {
            "ok": False,
            "served_from_cache": False,
            "error": {
                "code": "invalid_request",
                "message": str(exc),
                "retryable": False,
            },
        }
    out = {
        "ok": response.ok,
        "served_from_cache": bool(response.served_from_cache),
        "n_queries": int(response.n_queries),
    }
    if response.ok:
        interp = response.interpretation
        out["result"] = interpretation_payload(interp)
        if not response.served_from_cache and interp.all_certified:
            # A fresh certified solve: ship the exact record bytes so
            # the gateway's writer can persist them for the fleet.
            signature, payload = region_record(interp)
            out["region"] = {
                "signature": signature,
                "payload_b64": base64.b64encode(payload).decode("ascii"),
            }
    else:
        out["error"] = {
            "code": response.error.code,
            "message": response.error.message,
            "retryable": bool(response.error.retryable),
        }
    return out


def _handle_stats(
    service: InterpretationService, tier: L2ReaderCache
) -> dict:
    return {
        "ok": True,
        "pid": os.getpid(),
        "epoch": tier.epoch,
        "service": service.stats().as_dict(),
        "tier": tier.stats(),
    }


def _serve_connection(conn: socket.socket, service, tier) -> bool:
    """Drain one gateway connection; returns False on a shutdown op."""
    with conn, conn.makefile("rwb") as stream:
        while True:
            line = stream.readline()
            if not line:
                return True  # peer closed; await the next connection
            try:
                request = json.loads(line)
                op = request.get("op")
                if op == "interpret":
                    reply = _handle_interpret(service, request)
                elif op == "stats":
                    reply = _handle_stats(service, tier)
                elif op == "ping":
                    reply = {"ok": True, "pid": os.getpid()}
                elif op == "healthz":
                    reply = {
                        "ok": True,
                        "pid": os.getpid(),
                        "epoch": tier.epoch,
                    }
                elif op == "crash":
                    # Chaos hook: a crash the gateway cannot see coming
                    # — the request was dispatched, no reply will ever
                    # arrive.  os._exit skips atexit/finally so the
                    # socket dies exactly like a SIGKILL would.
                    os._exit(17)
                elif op == "shutdown":
                    stream.write(json.dumps({"ok": True}).encode() + b"\n")
                    stream.flush()
                    return False
                else:
                    reply = {
                        "ok": False,
                        "error": {
                            "code": "invalid_request",
                            "message": f"unknown op {op!r}",
                            "retryable": False,
                        },
                    }
            except Exception as exc:  # boundary: one bad request must not kill the worker loop; the failure returns as an internal_error envelope
                reply = {
                    "ok": False,
                    "error": {
                        "code": "internal_error",
                        "message": f"{type(exc).__name__}: {exc}",
                        "retryable": True,
                    },
                }
            if "id" in request:
                reply["id"] = request["id"]
            stream.write(json.dumps(reply).encode() + b"\n")
            stream.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="one interpretation worker of the gateway fleet",
    )
    parser.add_argument("--dataset", default="credit-scoring")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train-size", type=int, default=800)
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument(
        "--hidden", default="32,16",
        help="comma-separated hidden layer sizes",
    )
    parser.add_argument(
        "--l2-dir", required=True,
        help="shared L2 segment directory (opened read-only)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = ephemeral; the bound port is announced on "
             "the ready line)",
    )
    parser.add_argument("--max-entries", type=int, default=512)
    parser.add_argument("--region-index", action="store_true")
    parser.add_argument("--index-bits", type=int, default=None)
    parser.add_argument("--backend", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    hidden = tuple(
        int(h) for h in str(args.hidden).split(",") if h.strip()
    )
    _data, _test, model = train_worker_model(
        args.dataset,
        args.seed,
        train_size=args.train_size,
        epochs=args.epochs,
        hidden=hidden,
    )
    api = PredictionAPI(model)
    tier_kwargs: dict = {
        "max_entries": args.max_entries,
        "region_index": args.region_index,
        "backend": args.backend,
    }
    if args.index_bits is not None:
        tier_kwargs["index_bits"] = args.index_bits
    tier = L2ReaderCache(args.l2_dir, **tier_kwargs)
    # per_instance_seed makes every drawn sample a pure function of
    # (seed, x0), whichever worker lands the request.  A lone request
    # is solved alone (k = 1), so its certified answer is bitwise that
    # of a single-process service; a request sharing a micro-batch with
    # others gets the same samples, but the model's stacked
    # predict_proba rounds by row count, so its answer may differ in
    # the last bits.
    service = InterpretationService(
        api, cache=tier, seed=args.seed, backend=args.backend,
        per_instance_seed=True,
    )
    server = socket.create_server((args.host, args.port))
    print(
        json.dumps({
            "ready": True,
            "port": server.getsockname()[1],
            "pid": os.getpid(),
            "backend": service.backend.name,
        }),
        flush=True,
    )
    try:
        while True:
            conn, _addr = server.accept()
            if not _serve_connection(conn, service, tier):
                return 0
    finally:
        server.close()
        tier.close()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
