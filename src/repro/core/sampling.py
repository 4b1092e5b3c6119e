"""Perturbation designs of Algorithm 1 (Section IV-B).

The paper defines the neighbourhood of ``x`` as the hypercube
``{p | for all i, |p_i - x_i| <= r}`` with ``x`` at the center — note this
makes ``r`` the *half*-width even though the paper calls it the "edge
length"; we follow the paper's naming (``edge``) and its geometry (each
coordinate is perturbed by at most ``edge``).

Lemma 1 rests on the samples being independently and *uniformly* drawn from
this hypercube: that is what makes the coefficient matrix full-rank with
probability 1, and what gives region-crossing samples probability 0 of
satisfying a foreign region's linear identity (Theorems 1-2).
:func:`sample_hypercube` is that design; the naive method, the baselines,
:func:`~repro.core.verification.verify_interpretation` and interpreters
built with a ``clip_box`` use it.

The serving design of both Algorithm-1 interpreters is a fixed shape under a
random rotation instead: the ``d + 1`` vertices of a regular simplex
centred on ``x0`` with circumradius ``edge`` (so every sample still lies
in the paper's hypercube), turned by one uniformly (Haar) random
orthogonal matrix per solve (:func:`simplex_directions`).  The shape is
what makes every sample equally visible to the certificate: each has
leverage ``1 - 1 / ((d + 1)(d + 2))`` in the ``(d + 2) × (d + 1)``
design, and the least-squares residual has a closed form
(:func:`repro.core.rounds.screen_simplex_rounds`).  Theorem 2's
probability-1 argument rests on the rotation: the shape is fixed,
but its orientation is continuous and uniform, so a region boundary
passes through a vertex, or a crossing sample happens to satisfy the
foreign region's identity, with probability 0 — the same measure-zero
events the uniform hypercube excludes.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_vector

__all__ = [
    "sample_hypercube",
    "instance_generator",
    "HypercubeSampler",
    "random_rotation",
    "regular_simplex",
    "simplex_directions",
]


def instance_generator(seed: int | None, x0: np.ndarray) -> np.random.Generator:
    """A generator derived purely from ``(seed, x0 bytes)``.

    A shared, advancing RNG makes solve outputs depend on *solve order*:
    the samples an instance sees are whatever the stream happens to hold
    when its turn comes, so two services given the same requests in a
    different order (or split across processes) disagree at the ULP
    level — even on certified solves.  Hashing the instance itself into
    the seed removes the ordering from the equation: any process, any
    batch composition, any request interleaving draws the *same* sample
    sequence for the same ``(seed, x0)``, which is what makes fleet
    responses bitwise-reproducible against a single-process run.

    The digest is computed over the little-endian float64 bytes of
    ``x0`` (keyed by the integer ``seed``), so it is stable across
    platforms, processes and sessions.
    """
    x0 = np.ascontiguousarray(np.asarray(x0, dtype="<f8"))
    digest = hashlib.blake2b(
        x0.tobytes(),
        digest_size=16,
        key=str(0 if seed is None else int(seed)).encode("ascii"),
    ).digest()
    words = [
        int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
    ]
    return np.random.default_rng(np.random.SeedSequence(words))


@functools.lru_cache(maxsize=None)
def regular_simplex(d: int) -> np.ndarray:
    """The ``(d + 1, d)`` vertices of a regular simplex in ``R^d``.

    Centroid at the origin, every vertex at distance 1 from it.  Built
    from ``e_1, ..., e_d`` and ``a·(1, ..., 1)`` with
    ``a = (1 - sqrt(d + 1)) / d`` (all pairwise distances ``sqrt 2``),
    then centred and scaled to unit circumradius.  Read-only and cached:
    the orientation is irrelevant, :func:`simplex_directions` rotates it.
    """
    vertices = np.vstack([
        np.eye(d), np.full((1, d), (1.0 - np.sqrt(d + 1.0)) / d)
    ])
    vertices -= vertices.mean(axis=0)
    vertices /= np.linalg.norm(vertices, axis=1, keepdims=True)
    vertices.flags.writeable = False
    return vertices


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    """A Haar-distributed ``(d, d)`` orthogonal matrix.

    QR of a standard Gaussian matrix, with each column of ``Q`` multiplied
    by the sign of the matching diagonal entry of ``R`` — without that
    fix ``Q`` inherits the QR routine's sign convention and is not
    uniformly distributed.
    """
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def simplex_directions(rng: np.random.Generator, d: int) -> np.ndarray:
    """The ``(d + 1, d)`` unit directions of one solve's simplex design.

    The regular simplex under one random rotation drawn from ``rng``.
    Round ``t`` of Algorithm 1 queries ``x0 + edge_t * directions``:
    vertices at distance ``edge_t`` from ``x0`` (inside the hypercube
    ``|p_i - x0_i| <= edge_t``), centroid ``x0``.  Drawn from
    :func:`instance_generator` the design is a pure function of
    ``(seed, x0)``.
    """
    return regular_simplex(d) @ random_rotation(rng, d).T


def sample_hypercube(
    center: np.ndarray,
    edge: float,
    n_samples: int,
    rng: np.random.Generator,
    *,
    clip_box: tuple[float, float] | None = None,
) -> np.ndarray:
    """Draw ``n_samples`` i.i.d. uniform points from the hypercube.

    Parameters
    ----------
    center:
        Hypercube center (the instance being interpreted).
    edge:
        Maximum per-coordinate perturbation (paper's ``r``).
    clip_box:
        Optional ``(lo, hi)`` feature range to clip into.  **Off by
        default**: clipping concentrates mass on the box faces, which
        violates Lemma 1's continuous-distribution assumption; it exists
        for ablations on domain-constrained APIs that reject out-of-range
        inputs.

    Returns
    -------
    ``(n_samples, d)`` array of perturbed instances.
    """
    center = check_vector(center, name="center")
    check_positive(edge, name="edge")
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    d = center.shape[0]
    offsets = rng.uniform(-edge, edge, size=(n_samples, d))
    points = center[None, :] + offsets
    if clip_box is not None:
        lo, hi = clip_box
        if not hi > lo:
            raise ValidationError(f"clip_box must satisfy hi > lo, got {clip_box}")
        points = np.clip(points, lo, hi)
    return points


class HypercubeSampler:
    """Stateful sampler holding the RNG and geometry defaults.

    A small convenience wrapper so interpreters can be configured once and
    re-draw fresh sample sets each shrink iteration without re-plumbing RNG
    state.
    """

    def __init__(self, seed: SeedLike = None, *, clip_box: tuple[float, float] | None = None):
        self._rng = as_generator(seed)
        self.clip_box = clip_box

    @property
    def rng(self) -> np.random.Generator:
        """The underlying generator (shared, advancing state)."""
        return self._rng

    def draw(self, center: np.ndarray, edge: float, n_samples: int) -> np.ndarray:
        """Sample ``n_samples`` points around ``center``; see module docs."""
        return sample_hypercube(
            center, edge, n_samples, self._rng, clip_box=self.clip_box
        )

    def draw_axis_pairs(self, center: np.ndarray, h: float) -> np.ndarray:
        """ZOO-style deterministic perturbations: ``x ± h e_i`` per axis.

        Returns a ``(2d, d)`` array ordered ``[+e_0, -e_0, +e_1, -e_1, ...]``.
        Not uniform sampling — provided here because the sample-quality
        metrics (RD/WD) evaluate these perturbation sets too.

        Raises
        ------
        ValidationError
            For an invalid ``clip_box``, or when clipping collapses an
            axis pair: with ``clip_box`` set, ``x + h·e_i`` and
            ``x − h·e_i`` can land on the *same* box face (the center
            sits outside, or more than ``h`` past, the box along axis
            ``i``), silently producing duplicate rows — a degenerate
            perturbation set whose finite differences on that axis are
            0/0.  The error names every offending axis instead.
        """
        center = check_vector(center, name="center")
        check_positive(h, name="h")
        d = center.shape[0]
        points = np.repeat(center[None, :], 2 * d, axis=0)
        for i in range(d):
            points[2 * i, i] += h
            points[2 * i + 1, i] -= h
        if self.clip_box is not None:
            lo, hi = self.clip_box
            if not hi > lo:
                raise ValidationError(
                    f"clip_box must satisfy hi > lo, got {self.clip_box}"
                )
            points = np.clip(points, lo, hi)
            plus = points[0::2]  # row 2i  = clip(x + h e_i)
            minus = points[1::2]  # row 2i+1 = clip(x - h e_i)
            collapsed = np.flatnonzero(
                plus[np.arange(d), np.arange(d)]
                == minus[np.arange(d), np.arange(d)]
            )
            if collapsed.size:
                axes = ", ".join(str(int(i)) for i in collapsed)
                raise ValidationError(
                    f"clip_box {self.clip_box} collapses the ±h "
                    f"perturbation onto one box face for axis(es) "
                    f"[{axes}] (center is out of, or more than h past, "
                    f"the box along them) — the axis-pair rows would be "
                    f"duplicates; shrink h or widen the box"
                )
        return points
