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

from .geometry import _non_negative_count, _positive_count
from .yolo import AnchorPrior


class InsufficientSamplesError(ValueError):
    """Fewer distinct samples than requested clusters."""


class NotDivisibleError(ValueError):
    """The prior count does not split evenly across the requested scales."""


def _sides_ok(width, height):
    """Both sides positive and finite, on two numbers or elementwise on two arrays."""
    return (0.0 < width) & (width < math.inf) & (0.0 < height) & (height < math.inf)


def _size_ok(width, height):
    """The size rule, on two numbers or elementwise on two arrays: sides positive and finite, area in (0, inf).

    The area term is Box's: a size whose area leaves the float range can lie
    at NaN IOU distance, as 1e200 x 1e200 does from itself.  Run it on arrays
    under np.errstate(all="ignore").
    """
    area = width * height
    return _sides_ok(width, height) & (0.0 < area) & (area < math.inf)


def _require_size(width, height) -> None:
    if not _sides_ok(width, height):
        raise ValueError(f"sample size must be positive and finite, got {width!r} x {height!r}")
    try:
        if _size_ok(float(width), float(height)):  # the sides as k-means holds them
            return
    except OverflowError:  # an int side beyond the float range, which no float holds
        pass
    raise ValueError(f"sample area must be positive and finite, got {width!r} x {height!r}")


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
        with np.errstate(all="ignore"):
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


def _columns(dims: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, 2) sizes as contiguous width, height and area columns."""
    width, height = np.ascontiguousarray(dims.T)
    return width, height, width * height


def _distance_row(
    columns, width: float, height: float, mode: str, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """One centroid's distance to every sample of _columns, written into out; scratch is a second buffer as long.

    The float operations and their order are those of the pairwise formulas,
    so each entry has the same bits.  A centroid's area can leave the float
    range, and it reads as it would in Python floats, with no warning.
    """
    w, h, area = columns
    with np.errstate(all="ignore"):
        if mode == "euclidean":
            np.subtract(w, width, out=out)
            np.multiply(out, out, out=out)
            np.subtract(h, height, out=scratch)
            np.multiply(scratch, scratch, out=scratch)
            np.add(out, scratch, out=out)
            return np.sqrt(out, out=out)
        # Overlap of two boxes that share a center is min(w)*min(h).
        np.minimum(w, width, out=out)
        np.minimum(h, height, out=scratch)
        np.multiply(out, scratch, out=out)
        np.add(area, width * height, out=scratch)
        np.subtract(scratch, out, out=scratch)
        np.divide(out, scratch, out=out)
        return np.subtract(1.0, out, out=out)


def _distances(dims: np.ndarray, centroids: np.ndarray, mode: str) -> np.ndarray:
    """Pairwise distance matrix, shape (num_samples, num_centroids): the transpose of one row per centroid."""
    columns = _columns(dims)
    rows = np.empty((len(centroids), len(dims)))
    scratch = np.empty(len(dims))
    for row, (width, height) in zip(rows, centroids.tolist()):
        _distance_row(columns, width, height, mode, row, scratch)
    return rows.T


def _nearest(columns, centroids: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's nearest centroid and its distance: argmin over _distances and the entries it picks, bit for bit.

    A running minimum over one distance row per centroid, so no (n, k)
    matrix is held.  A later centroid takes a sample only when strictly
    nearer, so ties go to the first, as with argmin; no distance is -0.0, so
    a tie's minimum has the first centroid's bits too.  argmin also takes a
    sample's first NaN, which no comparison picks; np.minimum carries the NaN
    into the minimum, and those samples are given argmin's answer after.
    """
    n = len(columns[0])
    nearest, taken = np.zeros(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    best, row, scratch = np.empty(n), np.empty(n), np.empty(n)
    closer = np.empty(n, dtype=bool)
    for c, (width, height) in enumerate(centroids.tolist()):
        if c == 0:
            _distance_row(columns, width, height, mode, best, scratch)
            continue
        _distance_row(columns, width, height, mode, row, scratch)
        np.less(row, best, out=closer)
        # Every index taken so far is below c, so the maximum sets c exactly where closer holds
        # (a masked store reads the mask branch by branch and costs several times as much).
        np.multiply(closer, c, out=taken)
        np.maximum(nearest, taken, out=nearest)
        np.minimum(row, best, out=best)
    unset = np.flatnonzero(np.isnan(best))
    if unset.size:
        dist = _distances(np.column_stack((columns[0][unset], columns[1][unset])), centroids, mode)
        nearest[unset] = dist.argmin(axis=1)
        best[unset] = dist[np.arange(len(unset)), nearest[unset]]
    return nearest, best


def _plusplus_init(dims: np.ndarray, columns, k: int, rng: np.random.Generator, mode: str) -> np.ndarray:
    """Seeded k-means++ initialization: spread starting centroids by squared distance.

    columns are _columns(dims).  Every row goes into one of three buffers made
    once: a fresh array per chosen centroid costs more in page faults than
    its arithmetic.  The running minimum is kept over the distances and
    squared per draw, into the scratch buffer: squaring keeps the order of
    non-negative floats, so the weights are the minimum of the squares bit
    for bit.
    """
    n = dims.shape[0]
    d, new_d, scratch = np.empty(n), np.empty(n), np.empty(n)
    chosen = [int(rng.integers(n))]
    _distance_row(columns, *dims[chosen[-1]].tolist(), mode, d, scratch)
    while len(chosen) < k:
        with np.errstate(over="ignore", invalid="ignore"):
            weights = np.square(d, out=scratch)
            total = weights.sum()
            if not total < math.inf:
                # Squares past the float range: draw by (d / d.max())**2, the same weights scaled down.  Where
                # a distance is itself infinite (inf / inf is NaN), the infinite distances share the draw equally.
                weights = np.square(np.where(d == math.inf, 1.0, d / d.max()))
                total = weights.sum()
        if not total:
            # Distinct sizes can still lie at distance 0.0, as 1 x 1 and 1 x 1.0000000000000002 do under IOU;
            # once every weight is 0, any size not chosen yet may come next (k <= the distinct count leaves one).
            weights = ~(dims[:, None] == dims[chosen]).all(axis=2).any(axis=1)
            total = weights.sum()
        chosen.append(int(rng.choice(n, p=weights / total)))
        _distance_row(columns, *dims[chosen[-1]].tolist(), mode, new_d, scratch)
        np.minimum(d, new_d, out=d)
    return dims[chosen].copy()


def _update_centroids(
    dims: np.ndarray, assignments: np.ndarray, centroids: np.ndarray, mode: str
) -> np.ndarray:
    """Componentwise means per cluster; empty clusters re-seed from the farthest sample.

    np.bincount adds each cluster's members in sample order, the order in
    which dims[assignments == c].mean(axis=0) adds them, and the sums are
    divided by the member counts as .mean divides, so the means are the same
    floats.
    """
    k = centroids.shape[0]
    counts = np.bincount(assignments, minlength=k)
    filled = counts > 0
    new = centroids.copy()  # an empty cluster keeps its old row until re-seeded, so _distances reads no unset memory
    for column in range(2):
        sums = np.bincount(assignments, weights=dims[:, column], minlength=k)
        new[filled, column] = sums[filled] / counts[filled]
    empties = np.flatnonzero(~filled).tolist()
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
    is turned into one first.  Deterministic for a fixed seed, which must be a
    non-negative whole number.  Raises InsufficientSamplesError when k exceeds
    the number of distinct samples.
    """
    if distance not in ("iou", "euclidean"):
        raise ValueError(f"distance must be 'iou' or 'euclidean', got {distance!r}")
    k = _positive_count("k", k)
    max_iters = _positive_count("max_iters", max_iters)
    seed = _non_negative_count("seed", seed)
    if not isinstance(samples, DimensionSamples):
        samples = DimensionSamples(np.array([(s.width, s.height) for s in samples], dtype=np.float64).reshape(-1, 2))
    dims = samples.sizes
    distinct = _count_distinct(dims, stop_at=k)
    if k > distinct:
        raise InsufficientSamplesError(f"{k} clusters requested but only {distinct} distinct samples given")
    rng = np.random.default_rng(seed)
    columns = _columns(dims)
    centroids = _plusplus_init(dims, columns, k, rng, distance)

    assignments, nearest = _nearest(columns, centroids, distance)
    history = [float(nearest.mean())]

    for _ in range(max_iters):
        new_centroids = _update_centroids(dims, assignments, centroids, distance)
        new_assignments, new_nearest = _nearest(columns, new_centroids, distance)
        new_objective = float(new_nearest.mean())
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
