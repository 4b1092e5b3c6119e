"""Pluggable array backend: one seam for every hot ndarray kernel.

The stack's hot paths are exactly accelerator-shaped — the batched
``(k, d+1, d+1)`` normal-equations solves of :mod:`repro.core.engine`,
the one-matmul membership scans of :mod:`repro.serving.cache` and
:mod:`repro.serving.store`, and the hyperplane-bank projections of
:mod:`repro.serving.index` — but they are a tiny, fixed set of
operations.  This module names that set once: an :class:`ArrayBackend`
exposes the array namespace (``xp``) plus explicit adapters for the
handful of non-portable calls (``solve``, ``eigvalsh``, ``lstsq``,
``einsum``, ``argpartition``, sign-bit packing, ``asarray``/``to_host``
transfer), and every hot layer routes its device math through one
backend instance instead of hard-coding numpy.

Backends
--------
:class:`NumpyBackend`
    The default and the correctness anchor: every adapter is the very
    numpy call the pre-seam code issued, so the numpy path is *bitwise
    identical* to the un-refactored implementation (pinned by
    ``tests/test_backend_conformance.py``).
:class:`CupyBackend` / :class:`TorchBackend`
    Optional accelerated backends.  When the library is not importable
    the request degrades to :class:`NumpyBackend` with a single
    :class:`RuntimeWarning` per process (the h2o4gpu fallback pattern) —
    callers keep working, and the *effective* backend name surfaces in
    :meth:`repro.serving.metrics.ServiceStats.as_dict`.
:class:`StubBackend`
    A host-memory backend whose arrays are tagged with a marker ndarray
    subclass.  Adapters refuse untagged inputs, so any code path that
    slips a host array into device math (or reads a device array
    without ``to_host``) fails loudly.  CI runs the conformance suite
    against it to exercise the whole adapter seam without GPU hardware.

Correctness contract
--------------------
Accelerated backends are *not* trusted to be bitwise: they are gated on
engine-vs-reference weight agreement and on identical consistency
certificate verdicts — the paper's certificate is a free cross-backend
exactness oracle (a wrong solve fails its own overdetermined residual
check).  The conformance suite in ``tests/test_backend_conformance.py``
pins both gates for every importable backend; any future backend must
pass it.

The host/device boundary is deliberate: mmap'd L2 segments, CRC
framing, the index JSON, eviction bookkeeping and result
materialization all stay host-side; only contiguous gathered stacks
cross to the device (see ``docs/architecture.md``).
"""

from __future__ import annotations

import os
import threading
import warnings

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "CupyBackend",
    "TorchBackend",
    "StubBackend",
    "BACKEND_NAMES",
    "BACKEND_ENV_VAR",
    "as_float64",
    "available_backends",
    "backend_available",
    "pack_sign_bits",
    "resolve_backend",
    "reset_backend_state",
]

#: The backend names the CLI (and ``resolve_backend``) accepts.  The
#: stub backend resolves too but is a test/CI vehicle, not an operator
#: choice, so it is not listed here.
BACKEND_NAMES: tuple[str, ...] = ("numpy", "cupy", "torch")

#: Environment variable naming the process-wide default backend.  CI
#: jobs force ``REPRO_BACKEND=numpy`` to pin the whole tier-1 suite to
#: the reference backend explicitly.
BACKEND_ENV_VAR: str = "REPRO_BACKEND"


def as_float64(a) -> np.ndarray:
    """The seam-level input coercion every entry point shares.

    One definition of "arrays are contiguous-enough float64 on entry"
    instead of ``np.asarray(..., dtype=np.float64)`` scattered through
    the engine, cache and store: float32 (or list) inputs upcast
    losslessly, float64 inputs pass through without copying, so results
    are identical whichever entry point coerced first (pinned by the
    float32-upcast property test in ``tests/test_backend.py``).
    """
    return np.asarray(a, dtype=np.float64)


def pack_sign_bits(signs: np.ndarray) -> np.ndarray:
    """Pack sign booleans along the last axis into ``uint64`` codes.

    ``signs`` is ``(..., bits)`` boolean with ``bits <= 64``; bit ``i``
    of the code is sign ``i`` — the packing every backend shares, run
    host-side (the projection that produced the signs is the device
    part).
    """
    bits = signs.shape[-1]
    weights = np.uint64(1) << np.arange(bits, dtype=np.uint64)
    return signs.astype(np.uint64) @ weights


class ArrayBackend:
    """The adapter seam between the hot layers and an array library.

    Subclasses provide the transfer pair (:meth:`asarray` /
    :meth:`to_host`) and the non-portable adapters; the composed kernels
    (:meth:`affine_claims`, :meth:`membership_scan`, :meth:`nearest_k`,
    :meth:`sign_code`/:meth:`sign_codes`) have generic implementations
    written against the numpy array API that cupy satisfies verbatim —
    torch overrides the few whose method spellings differ.

    Device arrays are opaque to callers: anything returned by
    :meth:`asarray` or an adapter may only be fed back into this
    backend's methods or converted with :meth:`to_host`.
    """

    #: Effective backend name (what actually runs; surfaces in stats).
    name: str = "abstract"

    #: Exception raised by this backend's ``solve`` on singular input.
    linalg_error: type[BaseException] = np.linalg.LinAlgError

    # ------------------------------------------------------------------ #
    # Transfer
    # ------------------------------------------------------------------ #
    @property
    def xp(self):
        """The backend's array namespace (numpy / cupy / torch)."""
        raise NotImplementedError

    def asarray(self, host):
        """Move a host array to the device (no-copy where possible)."""
        raise NotImplementedError

    def to_host(self, array) -> np.ndarray:
        """Materialize a device array as a host ``np.ndarray``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Non-portable adapters (signatures differ across numpy/cupy/torch)
    # ------------------------------------------------------------------ #
    def matmul(self, a, b):
        return self.xp.matmul(a, b)

    def bT(self, a):
        """Batched transpose: swap the last two axes (a view)."""
        return self.xp.swapaxes(a, -1, -2)

    def einsum(self, spec: str, *operands):
        return self.xp.einsum(spec, *operands)

    def solve(self, a, b):
        """Batched ``a @ x = b`` solve (raises :attr:`linalg_error`)."""
        raise NotImplementedError

    def eigvalsh(self, a):
        """Batched symmetric eigenvalues, ascending per block."""
        raise NotImplementedError

    def lstsq(self, a, b):
        """Rank-revealing least squares for one degenerate block.

        Returns ``(solution, rank, singular_values)`` with ``rank`` a
        host int and ``singular_values`` a host float64 array —
        matching ``np.linalg.lstsq(..., rcond=None)`` semantics.
        """
        raise NotImplementedError

    def take(self, a, idx):
        """Gather rows of a batched device array by host int indices."""
        raise NotImplementedError

    def argpartition(self, a, kth):
        """Indices such that the first ``kth + 1`` are the smallest
        ``kth + 1`` values, in unspecified order (numpy semantics; torch
        substitutes a full sort, which satisfies the same contract)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Composed kernels (the hot loops of cache / store / index)
    # ------------------------------------------------------------------ #
    def affine_claims(self, W, b, x0):
        """Every member's per-pair affine claim at ``x0`` — one matmul.

        ``W`` is ``(m, P, d)``, ``b`` is ``(m, P)``, ``x0`` is ``(d,)``
        (all device); returns the ``(m, P)`` device claims.
        """
        m, P, d = W.shape
        return self.matmul(W.reshape(m * P, d), x0).reshape(m, P) + b

    def membership_scan(self, W, b, X0, x0, actual):
        """The exact membership kernel shared by both serving tiers.

        Device inputs: stacks ``W (m, P, d)``, ``b (m, P)``, anchors
        ``X0 (m, d)``, query ``x0 (d,)`` and the probe's actual log-odds
        ``actual (P,)``.  Returns host ``(errors (m,), dists (m,))`` —
        the max absolute per-pair claim error and the squared anchor
        distance per candidate.  The pass/argmin decision stays with the
        caller on the host.
        """
        errors = abs(self.affine_claims(W, b, x0) - actual).max(axis=1)
        dists = ((X0 - x0) ** 2).sum(axis=1)
        return self.to_host(errors), self.to_host(dists)

    def nearest_k(self, anchors, x, k: int) -> np.ndarray:
        """Host indices of the ``k`` nearest anchors to ``x`` (squared
        distance, unordered) — the shortlist ranking kernel."""
        dists = ((anchors - x) ** 2).sum(axis=1)
        return self.to_host(self.argpartition(dists, k - 1)[:k])

    def sign_code(self, bank, x) -> int:
        """The packed sign-bit bucket code of one instance (``bank`` is
        the device ``(bits, d)`` hyperplane bank)."""
        signs = self.to_host(self.matmul(bank, x) >= 0.0)
        return int(pack_sign_bits(signs))

    def sign_codes(self, X, bank) -> np.ndarray:
        """Vectorized :meth:`sign_code` over ``(n, d)`` device rows —
        host ``(n,)`` uint64 codes."""
        signs = self.to_host(self.matmul(X, self.bT2(bank)) >= 0.0)
        return pack_sign_bits(signs)

    def bT2(self, a):
        """2-D transpose (a view)."""
        return self.xp.swapaxes(a, 0, 1)


class NumpyBackend(ArrayBackend):
    """The default backend: adapters *are* the pre-seam numpy calls.

    ``asarray``/``to_host`` are identity (host memory is device memory),
    so routing through this backend executes the exact operation
    sequence the un-refactored code did — bitwise identical results by
    construction, pinned by the paired equivalence tests.
    """

    name = "numpy"
    linalg_error = np.linalg.LinAlgError

    @property
    def xp(self):
        return np

    def asarray(self, host):
        return np.asarray(host)

    def to_host(self, array) -> np.ndarray:
        return np.asarray(array)

    def solve(self, a, b):
        return np.linalg.solve(a, b)

    def eigvalsh(self, a):
        return np.linalg.eigvalsh(a)

    def lstsq(self, a, b):
        solution, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
        return solution, int(rank), np.asarray(sv, dtype=np.float64)

    def take(self, a, idx):
        return a[idx]

    def argpartition(self, a, kth):
        return np.argpartition(a, kth)


class _StubArray(np.ndarray):
    """Marker subclass standing in for device-resident memory.

    Arithmetic, slicing and reductions propagate the subclass (numpy
    view semantics), so stub arrays flow through the composed kernels
    exactly like real device arrays flow through cupy's.
    """


class StubBackend(ArrayBackend):
    """Seam-enforcing host backend for CI conformance runs.

    Numerically identical to :class:`NumpyBackend` (every adapter
    computes with the same numpy call), but device arrays are
    :class:`_StubArray`-tagged and every adapter *requires* the tag: a
    host array reaching device math, or a device array consumed without
    :meth:`to_host`, raises :class:`~repro.exceptions.ValidationError`.
    This is the discipline a real accelerator backend needs (where the
    same mistake is a device-pointer crash), checked on plain CPUs.
    """

    name = "stub"
    linalg_error = np.linalg.LinAlgError

    @property
    def xp(self):
        return np

    def _unwrap(self, array) -> np.ndarray:
        if not isinstance(array, _StubArray):
            raise ValidationError(
                "stub backend received an untagged host array — the "
                "caller bypassed ArrayBackend.asarray on the device seam"
            )
        return array.view(np.ndarray)

    def _wrap(self, array) -> _StubArray:
        return np.asarray(array).view(_StubArray)

    def asarray(self, host):
        return self._wrap(np.asarray(host))

    def to_host(self, array) -> np.ndarray:
        return np.asarray(self._unwrap(array))

    def matmul(self, a, b):
        return self._wrap(np.matmul(self._unwrap(a), self._unwrap(b)))

    def bT(self, a):
        return self._wrap(np.swapaxes(self._unwrap(a), -1, -2))

    def bT2(self, a):
        return self._wrap(np.swapaxes(self._unwrap(a), 0, 1))

    def einsum(self, spec: str, *operands):
        return self._wrap(
            np.einsum(spec, *(self._unwrap(op) for op in operands))
        )

    def solve(self, a, b):
        return self._wrap(np.linalg.solve(self._unwrap(a), self._unwrap(b)))

    def eigvalsh(self, a):
        return self._wrap(np.linalg.eigvalsh(self._unwrap(a)))

    def lstsq(self, a, b):
        solution, _, rank, sv = np.linalg.lstsq(
            self._unwrap(a), self._unwrap(b), rcond=None
        )
        return self._wrap(solution), int(rank), np.asarray(sv, dtype=np.float64)

    def take(self, a, idx):
        return self._wrap(self._unwrap(a)[idx])

    def argpartition(self, a, kth):
        return self._wrap(np.argpartition(self._unwrap(a), kth))


class CupyBackend(ArrayBackend):
    """CUDA backend over cupy (drop-in numpy API on device arrays).

    Constructed only when ``cupy`` imports; :func:`resolve_backend`
    degrades the request to numpy (with one warning) otherwise.  The
    composed kernels inherit the generic implementations — cupy arrays
    satisfy the same method surface numpy's do.
    """

    name = "cupy"

    def __init__(self):
        import cupy

        self._cp = cupy
        self.linalg_error = np.linalg.LinAlgError

    @property
    def xp(self):
        return self._cp

    def asarray(self, host):
        return self._cp.asarray(host)

    def to_host(self, array) -> np.ndarray:
        return self._cp.asnumpy(array)

    def solve(self, a, b):
        return self._cp.linalg.solve(a, b)

    def eigvalsh(self, a):
        return self._cp.linalg.eigvalsh(a)

    def lstsq(self, a, b):
        solution, _, rank, sv = self._cp.linalg.lstsq(a, b, rcond=None)
        return solution, int(rank), self._cp.asnumpy(sv).astype(np.float64)

    def take(self, a, idx):
        return a[self._cp.asarray(idx)]

    def argpartition(self, a, kth):
        return self._cp.argpartition(a, kth)


class TorchBackend(ArrayBackend):
    """Torch backend (CUDA when available, else torch-CPU).

    Constructed only when ``torch`` imports; :func:`resolve_backend`
    degrades the request to numpy (with one warning) otherwise.
    Overrides the composed kernels whose numpy method spellings
    (``max(axis=)``, ``transpose(0, 2, 1)``) mean something else in
    torch, and routes degenerate ``lstsq`` blocks through the CPU
    ``gelsd`` driver — the only torch driver that reports rank and
    singular values for rank-deficient systems.
    """

    name = "torch"

    def __init__(self):
        import torch

        self._torch = torch
        self._device = "cuda" if torch.cuda.is_available() else "cpu"
        self.linalg_error = getattr(
            torch.linalg, "LinAlgError", RuntimeError
        )

    @property
    def xp(self):
        return self._torch

    def asarray(self, host):
        return self._torch.as_tensor(
            np.ascontiguousarray(host), device=self._device
        )

    def to_host(self, array) -> np.ndarray:
        return array.detach().cpu().numpy()

    def matmul(self, a, b):
        return self._torch.matmul(a, b)

    def bT(self, a):
        return a.transpose(-1, -2)

    def bT2(self, a):
        return a.transpose(0, 1)

    def einsum(self, spec: str, *operands):
        return self._torch.einsum(spec, *operands)

    def solve(self, a, b):
        return self._torch.linalg.solve(a, b)

    def eigvalsh(self, a):
        return self._torch.linalg.eigvalsh(a)

    def lstsq(self, a, b):
        result = self._torch.linalg.lstsq(
            a.cpu(), b.cpu(), driver="gelsd"
        )
        sv = result.singular_values.numpy().astype(np.float64)
        return result.solution, int(result.rank), sv

    def take(self, a, idx):
        return a[self._torch.as_tensor(np.asarray(idx), device=a.device)]

    def argpartition(self, a, kth):
        return self._torch.argsort(a)

    def membership_scan(self, W, b, X0, x0, actual):
        errors = (self.affine_claims(W, b, x0) - actual).abs().amax(dim=1)
        dists = ((X0 - x0) ** 2).sum(dim=1)
        return self.to_host(errors), self.to_host(dists)

    def nearest_k(self, anchors, x, k: int) -> np.ndarray:
        dists = ((anchors - x) ** 2).sum(dim=1)
        return self.to_host(self._torch.topk(dists, k, largest=False).indices)


# --------------------------------------------------------------------- #
# Resolution and fallback
# --------------------------------------------------------------------- #
_FACTORIES = {
    "numpy": NumpyBackend,
    "stub": StubBackend,
    "cupy": CupyBackend,
    "torch": TorchBackend,
}

#: Optional backends that degrade to numpy when their library is absent
#: (requesting "stub" or "numpy" never falls back — both always work).
_OPTIONAL = ("cupy", "torch")

_lock = threading.Lock()
_instances: dict[str, ArrayBackend] = {}  # guarded-by: _lock
_warned: set[str] = set()                 # guarded-by: _lock
#: Pid that populated ``_instances``.  A forked child inherits the
#: parent's singletons — for device-holding backends (torch/cupy) those
#: wrap CUDA contexts that are invalid across ``fork``, so resolution
#: discards inherited state when it notices the pid changed.
_owner_pid = os.getpid()  # guarded-by: _lock


def backend_available(name: str) -> bool:
    """Whether ``name`` would resolve without a numpy fallback."""
    if name in ("numpy", "stub"):
        return True
    if name not in _FACTORIES:
        return False
    import importlib.util

    return importlib.util.find_spec(name) is not None


def available_backends() -> list[str]:
    """Every backend name that resolves to itself on this host (always
    includes ``numpy`` and ``stub``)."""
    return [
        name for name in ("numpy", "stub", *_OPTIONAL)
        if backend_available(name)
    ]


def resolve_backend(backend: "str | ArrayBackend | None" = None) -> ArrayBackend:
    """The :class:`ArrayBackend` for a name / instance / ``None``.

    ``None`` reads :data:`BACKEND_ENV_VAR` (default ``"numpy"``) — the
    hook CI uses to force the reference backend process-wide.  Instances
    pass through untouched; names resolve to process-wide singletons.
    Requesting an optional backend whose library is missing warns
    *once* per process and returns the numpy backend, so the caller
    keeps serving (the effective name is the returned instance's
    ``name``).

    Raises
    ------
    ValidationError
        For a name outside :data:`BACKEND_NAMES` (plus ``"stub"``).
    """
    if isinstance(backend, ArrayBackend):
        return backend
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR, "numpy")
    name = str(backend).strip().lower()
    if name not in _FACTORIES:
        raise ValidationError(
            f"unknown array backend {backend!r}; choose from "
            f"{(*BACKEND_NAMES, 'stub')}"
        )
    with _lock:
        _discard_foreign_state()
        instance = _instances.get(name)
        if instance is None:
            if name in _OPTIONAL and not backend_available(name):
                if name not in _warned:
                    _warned.add(name)
                    warnings.warn(
                        f"array backend {name!r} requested but {name} is "
                        "not importable; falling back to numpy (install "
                        "it via `pip install .[gpu]`)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                instance = _instances.get("numpy")
                if instance is None:
                    instance = NumpyBackend()
                    _instances["numpy"] = instance
            else:
                instance = _FACTORIES[name]()
            _instances[name] = instance
        return instance


def _discard_foreign_state() -> None:  # requires-lock: _lock
    """Drop singletons inherited from another process (call under
    ``_lock``).  After ``fork`` the child's ``_instances`` still holds
    the parent's objects; re-resolving them fresh makes worker processes
    honor their own :data:`BACKEND_ENV_VAR` and rebuild any
    device-holding backend instead of reusing a context that does not
    survive the fork."""
    global _owner_pid
    pid = os.getpid()
    if pid != _owner_pid:
        _instances.clear()
        _warned.clear()
        _owner_pid = pid


def reset_backend_state() -> None:
    """Forget cached backend singletons and fallback warnings (tests
    use this to re-observe the warn-once behavior)."""
    global _owner_pid
    with _lock:
        _instances.clear()
        _warned.clear()
        _owner_pid = os.getpid()
