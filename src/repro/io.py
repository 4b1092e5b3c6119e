"""Serialization: save/load models and interpretations without pickle.

A library meant to sit next to a deployed service needs durable artifacts:
models must survive process restarts, and interpretations — which the
verification module turns into auditable claims — must be storable and
re-checkable later.  Everything here uses ``numpy.savez_compressed`` with a
JSON header, no pickle, so the files are safe to exchange (loading
untrusted pickles executes code; loading untrusted npz does not).

Supported models: :class:`SoftmaxRegression`, :class:`ReLUNetwork`,
:class:`MaxOutNetwork`, :class:`LogisticModelTree`.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core.types import CoreParameterEstimate, Interpretation
from repro.exceptions import ValidationError
from repro.models import (
    LogisticModelTree,
    MaxOutNetwork,
    PiecewiseLinearModel,
    ReLUNetwork,
    SoftmaxRegression,
)
from repro.models.lmt import LMTNode

__all__ = [
    "save_model",
    "load_model",
    "save_interpretation",
    "load_interpretation",
]


_FORMAT_VERSION = 1


def _savez(path: str | os.PathLike, header: dict, arrays: dict[str, np.ndarray]) -> None:
    header = {"format_version": _FORMAT_VERSION, **header}
    np.savez_compressed(path, __header__=json.dumps(header), **arrays)


def _loadz(path: str | os.PathLike) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        with np.load(path, allow_pickle=False) as payload:
            if "__header__" not in payload:
                raise ValidationError(f"{path}: not a repro artifact (no header)")
            header = json.loads(str(payload["__header__"]))
            arrays = {k: payload[k] for k in payload.files if k != "__header__"}
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if header.get("format_version") != _FORMAT_VERSION:
        raise ValidationError(
            f"{path}: unsupported format version {header.get('format_version')}"
        )
    return header, arrays


# --------------------------------------------------------------------- #
# Models
# --------------------------------------------------------------------- #
def _flatten_lmt(model: LogisticModelTree) -> tuple[dict, dict[str, np.ndarray]]:
    """Encode the tree as flat node records plus per-leaf parameter arrays."""
    nodes: list[dict] = []
    arrays: dict[str, np.ndarray] = {}

    def visit(node: LMTNode) -> int:
        index = len(nodes)
        record: dict = {
            "depth": node.depth,
            "n_samples": node.n_samples,
            "leaf_id": node.leaf_id,
        }
        nodes.append(record)
        if node.is_leaf:
            assert node.classifier is not None
            record["kind"] = "leaf"
            arrays[f"leaf_{node.leaf_id}_W"] = node.classifier.weights
            arrays[f"leaf_{node.leaf_id}_b"] = node.classifier.bias
        else:
            record["kind"] = "split"
            record["feature"] = int(node.feature)
            record["threshold"] = float(node.threshold)
            assert node.left is not None and node.right is not None
            record["left"] = visit(node.left)
            record["right"] = visit(node.right)
        return index

    visit(model._require_fitted())
    header = {
        "nodes": nodes,
        "n_features": model.n_features,
        "n_classes": model.n_classes,
    }
    return header, arrays


def _rebuild_lmt(header: dict, arrays: dict[str, np.ndarray]) -> LogisticModelTree:
    model = LogisticModelTree()
    model.n_features = int(header["n_features"])
    model.n_classes = int(header["n_classes"])
    nodes = header["nodes"]
    leaves: list[LMTNode] = []

    def build(index: int) -> LMTNode:
        record = nodes[index]
        node = LMTNode(
            depth=int(record["depth"]),
            n_samples=int(record["n_samples"]),
            leaf_id=int(record["leaf_id"]),
        )
        if record["kind"] == "leaf":
            clf = SoftmaxRegression().set_parameters(
                arrays[f"leaf_{record['leaf_id']}_W"],
                arrays[f"leaf_{record['leaf_id']}_b"],
            )
            node.classifier = clf
            leaves.append(node)
        else:
            node.feature = int(record["feature"])
            node.threshold = float(record["threshold"])
            node.left = build(int(record["left"]))
            node.right = build(int(record["right"]))
        return node

    model._root = build(0)
    model._leaves = sorted(leaves, key=lambda leaf: leaf.leaf_id)
    return model


def save_model(model: PiecewiseLinearModel, path: str | os.PathLike) -> None:
    """Serialize a fitted model to an ``.npz`` file (pickle-free).

    The file records the model kind, architecture and all parameters;
    :func:`load_model` reconstructs an equivalent model whose predictions
    match bit-for-bit.
    """
    if isinstance(model, SoftmaxRegression):
        _savez(path, {"kind": "softmax_regression"},
               {"W": model.weights, "b": model.bias})
    elif isinstance(model, ReLUNetwork):
        arrays = {}
        for i, (W, b) in enumerate(zip(model.weights, model.biases)):
            arrays[f"W{i}"] = W
            arrays[f"b{i}"] = b
        _savez(path, {"kind": "relu_network",
                      "layer_sizes": list(model.layer_sizes)}, arrays)
    elif isinstance(model, MaxOutNetwork):
        arrays = {"out_W": model.out_weight, "out_b": model.out_bias}
        for i, (W, b) in enumerate(zip(model.hidden_weights, model.hidden_biases)):
            arrays[f"hW{i}"] = W
            arrays[f"hb{i}"] = b
        _savez(path, {"kind": "maxout_network",
                      "layer_sizes": list(model.layer_sizes),
                      "pieces": model.pieces}, arrays)
    elif isinstance(model, LogisticModelTree):
        header, arrays = _flatten_lmt(model)
        _savez(path, {"kind": "logistic_model_tree", **header}, arrays)
    else:
        raise ValidationError(
            f"cannot serialize model type {type(model).__name__}"
        )


def load_model(path: str | os.PathLike) -> PiecewiseLinearModel:
    """Load a model saved by :func:`save_model`."""
    header, arrays = _loadz(path)
    kind = header.get("kind")
    if kind == "softmax_regression":
        return SoftmaxRegression().set_parameters(arrays["W"], arrays["b"])
    if kind == "relu_network":
        model = ReLUNetwork(header["layer_sizes"], seed=0)
        params = []
        for i in range(len(model.weights)):
            params.extend([arrays[f"W{i}"], arrays[f"b{i}"]])
        return model.set_parameters(params)
    if kind == "maxout_network":
        model = MaxOutNetwork(
            header["layer_sizes"], pieces=int(header["pieces"]), seed=0
        )
        params = []
        for i in range(len(model.hidden_weights)):
            params.extend([arrays[f"hW{i}"], arrays[f"hb{i}"]])
        params.extend([arrays["out_W"], arrays["out_b"]])
        return model.set_parameters(params)
    if kind == "logistic_model_tree":
        return _rebuild_lmt(header, arrays)
    raise ValidationError(f"{path}: unknown model kind {kind!r}")


# --------------------------------------------------------------------- #
# Interpretations
# --------------------------------------------------------------------- #
def save_interpretation(interpretation: Interpretation, path: str | os.PathLike) -> None:
    """Serialize an interpretation (the auditable claim) to ``.npz``.

    Stores ``x0``, the decision features, every pair estimate and the
    run metadata, so the claim can be re-verified against the API later
    with :func:`repro.core.verify_interpretation`.
    """
    pairs = sorted(interpretation.pair_estimates)
    arrays: dict[str, np.ndarray] = {
        "x0": interpretation.x0,
        "decision_features": interpretation.decision_features,
    }
    if pairs:
        arrays["pair_index"] = np.asarray(pairs, dtype=np.int64)
        arrays["pair_weights"] = np.vstack(
            [interpretation.pair_estimates[p].weights for p in pairs]
        )
        arrays["pair_intercepts"] = np.asarray(
            [interpretation.pair_estimates[p].intercept for p in pairs]
        )
        arrays["pair_residuals"] = np.asarray(
            [interpretation.pair_estimates[p].residual for p in pairs]
        )
        arrays["pair_certified"] = np.asarray(
            [interpretation.pair_estimates[p].certified for p in pairs],
            dtype=bool,
        )
    if interpretation.samples is not None:
        arrays["samples"] = interpretation.samples
    header = {
        "kind": "interpretation",
        "target_class": interpretation.target_class,
        "method": interpretation.method,
        "iterations": interpretation.iterations,
        "final_edge": interpretation.final_edge,
        "n_queries": interpretation.n_queries,
    }
    _savez(path, header, arrays)


def load_interpretation(path: str | os.PathLike) -> Interpretation:
    """Load an interpretation saved by :func:`save_interpretation`."""
    header, arrays = _loadz(path)
    if header.get("kind") != "interpretation":
        raise ValidationError(f"{path}: not an interpretation artifact")
    pair_estimates: dict[tuple[int, int], CoreParameterEstimate] = {}
    if "pair_index" in arrays:
        for row, pair in enumerate(arrays["pair_index"]):
            c, c_prime = int(pair[0]), int(pair[1])
            pair_estimates[(c, c_prime)] = CoreParameterEstimate(
                c=c,
                c_prime=c_prime,
                weights=arrays["pair_weights"][row],
                intercept=float(arrays["pair_intercepts"][row]),
                residual=float(arrays["pair_residuals"][row]),
                certified=bool(arrays["pair_certified"][row]),
            )
    return Interpretation(
        x0=arrays["x0"],
        target_class=int(header["target_class"]),
        decision_features=arrays["decision_features"],
        pair_estimates=pair_estimates,
        method=str(header["method"]),
        iterations=int(header["iterations"]),
        final_edge=float(header["final_edge"]),
        n_queries=int(header["n_queries"]),
        samples=arrays.get("samples"),
    )
