"""Dimension clustering for anchor priors and the per-scale anchor split.

Priors are chosen by running Lloyd's algorithm over ground-truth box sizes
with d(a, b) = 1 - IOU of co-centered boxes, so that the objective directly
reflects box overlap instead of absolute pixel error; plain euclidean distance
is available for comparison.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import _positive_count
from .yolo import AnchorPrior


class InsufficientSamplesError(ValueError):
    """Fewer distinct samples than requested clusters."""


class NotDivisibleError(ValueError):
    """The prior count does not split evenly across the requested scales."""


def _size_ok(width, height):
    """The size rule, on two numbers or elementwise on two arrays: both sides positive and finite."""
    return (0.0 < width) & (width < math.inf) & (0.0 < height) & (height < math.inf)


def _require_size(width, height) -> None:
    if not _size_ok(width, height):
        raise ValueError(f"sample size must be positive and finite, got {width!r} x {height!r}")


@dataclass(frozen=True)
class DimensionSample:
    """One ground-truth box size (width, height), any consistent unit."""

    width: float
    height: float

    def __post_init__(self) -> None:
        _require_size(self.width, self.height)


class DimensionSamples(Sequence[DimensionSample]):
    """Box sizes held as one read-only (n, 2) float64 array of (width, height) rows.

    Every row obeys DimensionSample's size rule, checked on the whole array at
    once; the first bad row raises DimensionSample's ValueError.  As a
    sequence it builds a DimensionSample per row on demand.
    """

    __slots__ = ("_sizes",)

    def __init__(self, sizes) -> None:
        array = np.array(sizes, dtype=np.float64)
        if array.ndim != 2 or array.shape[1] != 2:
            raise ValueError(f"sizes must have shape (n, 2), got {array.shape}")
        bad = np.flatnonzero(~_size_ok(array[:, 0], array[:, 1]))
        if bad.size:
            _require_size(*array[bad[0]].tolist())
        array.flags.writeable = False
        self._sizes = array

    @property
    def sizes(self) -> np.ndarray:
        """The (n, 2) array itself; it cannot be written to."""
        return self._sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def __getitem__(self, index: int) -> DimensionSample:
        return DimensionSample(*self._sizes[operator.index(index)].tolist())

    def __iter__(self) -> Iterator[DimensionSample]:
        for width, height in self._sizes.tolist():
            yield DimensionSample(width, height)


@dataclass(frozen=True)
class ClusteringResult:
    """Final centroids with the assignment and the mean-distance objective.

    objective_history holds one value per accepted Lloyd iteration and is
    non-increasing; objective equals its last entry.
    """

    centroids: tuple[AnchorPrior, ...]
    assignments: tuple[int, ...]
    objective: float
    objective_history: tuple[float, ...]


def _distances(dims: np.ndarray, centroids: np.ndarray, mode: str) -> np.ndarray:
    """Pairwise distance matrix, shape (num_samples, num_centroids)."""
    # Columns against rows: (n, 1) op (k,) broadcasts to (n, k).
    w, h = dims[:, 0:1], dims[:, 1:2]
    cw, ch = centroids[:, 0], centroids[:, 1]
    if mode == "euclidean":
        dw, dh = w - cw, h - ch
        return np.sqrt(dw * dw + dh * dh)
    # Overlap of two boxes that share a center is min(w)*min(h).
    inter = np.minimum(w, cw) * np.minimum(h, ch)
    union = w * h + cw * ch - inter
    return 1.0 - inter / union


def _plusplus_init(dims: np.ndarray, k: int, rng: np.random.Generator, mode: str) -> np.ndarray:
    """Seeded k-means++ initialization: spread starting centroids by squared distance."""
    n = dims.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _distances(dims, dims[chosen[-1]][None, :], mode)[:, 0] ** 2
    while len(chosen) < k:
        total = d2.sum()
        # k <= number of distinct samples guarantees some positive weight remains.
        probs = d2 / total
        chosen.append(int(rng.choice(n, p=probs)))
        new_d2 = _distances(dims, dims[chosen[-1]][None, :], mode)[:, 0] ** 2
        d2 = np.minimum(d2, new_d2)
    return dims[chosen].copy()


def _update_centroids(
    dims: np.ndarray, assignments: np.ndarray, centroids: np.ndarray, mode: str
) -> np.ndarray:
    """Componentwise means per cluster; empty clusters re-seed from the farthest sample."""
    k = centroids.shape[0]
    new = np.empty_like(centroids)
    empties = []
    for c in range(k):
        members = dims[assignments == c]
        if len(members) == 0:
            empties.append(c)
        else:
            new[c] = members.mean(axis=0)
    if empties:
        dist = _distances(dims, new, mode)
        own = dist[np.arange(len(dims)), assignments]
        for c in empties:
            farthest = int(np.argmax(own))
            new[c] = dims[farthest]
            own[farthest] = -1.0  # a sample seeds at most one empty cluster
    return new


def _count_distinct(dims: np.ndarray, stop_at: int) -> int:
    """Distinct rows of dims, exact when below stop_at; counting ends at the first block of rows that reaches it."""
    seen: set[tuple[float, float]] = set()
    step = 4096
    for start in range(0, len(dims), step):
        seen.update(map(tuple, dims[start:start + step].tolist()))
        if len(seen) >= stop_at:
            break
    return len(seen)


def kmeans_anchors(
    samples: Sequence[DimensionSample],
    k: int,
    max_iters: int = 100,
    seed: int = 0,
    distance: str = "iou",
) -> ClusteringResult:
    """Cluster box sizes into k anchor priors with Lloyd's algorithm.

    Starts from a seeded k-means++ draw and alternates nearest-centroid
    assignment with componentwise-mean updates until assignments stop
    changing, an update stops improving the objective, or max_iters passes.
    The mean update is not guaranteed to lower the overlap-based objective,
    so a non-improving update is rolled back and the run stops there; the
    reported objective history is therefore strictly non-increasing.

    samples is a DimensionSamples, or any sequence of DimensionSample, which
    is turned into one first.  Deterministic for a fixed seed.  Raises
    InsufficientSamplesError when k exceeds the number of distinct samples.
    """
    if distance not in ("iou", "euclidean"):
        raise ValueError(f"distance must be 'iou' or 'euclidean', got {distance!r}")
    k = _positive_count("k", k)
    max_iters = _positive_count("max_iters", max_iters)
    if not isinstance(samples, DimensionSamples):
        samples = DimensionSamples(np.array([(s.width, s.height) for s in samples], dtype=np.float64).reshape(-1, 2))
    dims = samples.sizes
    distinct = _count_distinct(dims, stop_at=k)
    if k > distinct:
        raise InsufficientSamplesError(f"{k} clusters requested but only {distinct} distinct samples given")
    rng = np.random.default_rng(seed)
    centroids = _plusplus_init(dims, k, rng, distance)

    dist = _distances(dims, centroids, distance)
    assignments = dist.argmin(axis=1)
    history = [float(dist[np.arange(len(dims)), assignments].mean())]

    for _ in range(max_iters):
        new_centroids = _update_centroids(dims, assignments, centroids, distance)
        new_dist = _distances(dims, new_centroids, distance)
        new_assignments = new_dist.argmin(axis=1)
        new_objective = float(new_dist[np.arange(len(dims)), new_assignments].mean())
        if new_objective > history[-1]:
            break
        moved = not np.array_equal(new_assignments, assignments)
        centroids = new_centroids
        assignments = new_assignments
        history.append(new_objective)
        if not moved:
            break

    return ClusteringResult(
        centroids=tuple(AnchorPrior(w, h) for w, h in centroids.tolist()),
        assignments=tuple(assignments.tolist()),
        objective=history[-1],
        objective_history=tuple(history),
    )


def split_scales(priors: Sequence[AnchorPrior], num_scales: int) -> list[tuple[AnchorPrior, ...]]:
    """Partition priors into equal consecutive area-sorted groups, one per scale.

    Priors are sorted by ascending area (ties by width) and cut into
    num_scales consecutive blocks.  Group 0 holds the smallest priors and
    belongs on the finest grid (the one with the largest cell count); the last
    group belongs on the coarsest.  Raises NotDivisibleError when the prior
    count is not a multiple of num_scales.
    """
    num_scales = _positive_count("num_scales", num_scales)
    if len(priors) % num_scales != 0:
        raise NotDivisibleError(f"{len(priors)} priors do not split into {num_scales} equal groups")
    ordered = sorted(priors, key=lambda p: (p.area, p.width))
    group_size = len(priors) // num_scales
    return [tuple(ordered[i * group_size : (i + 1) * group_size]) for i in range(num_scales)]
