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
    columns, width, height, mode: str, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Distances from the samples of _columns to one centroid, or each to its own, written into out.

    width and height are one centroid's sides, or one pair per sample: numpy
    broadcasts either through the same float operations.  scratch is a second
    buffer as long as out.  The operations and their order are those of the
    pairwise formulas, so each entry has the same bits, except where a
    euclidean square passes the float range: that entry is the np.hypot of
    the two differences, finite unless the distance itself is not.  A
    centroid's area can leave the float range, and it reads as it would in
    Python floats, with no warning.  No entry is NaN while every sample obeys
    the size rule and every centroid is a sample or a mean of samples.
    """
    w, h, area = columns
    with np.errstate(all="ignore"):
        if mode == "euclidean":
            np.subtract(w, width, out=out)
            np.multiply(out, out, out=out)
            np.subtract(h, height, out=scratch)
            np.multiply(scratch, scratch, out=scratch)
            np.add(out, scratch, out=out)
            if np.sqrt(out, out=out).max() == math.inf:  # a square past the float range: the hypot of the differences
                np.hypot(w - width, h - height, out=out, where=out == math.inf)
            return out
        # Overlap of two boxes that share a center is min(w)*min(h).
        np.minimum(w, width, out=out)
        np.minimum(h, height, out=scratch)
        np.multiply(out, scratch, out=out)
        np.add(area, width * height, out=scratch)
        np.subtract(scratch, out, out=scratch)
        np.divide(out, scratch, out=out)
        return np.subtract(1.0, out, out=out)


class _RunningNearest:
    """Each sample's nearest centroid so far and its distance, one centroid's distance row folded in at a time.

    After rows 0 to c, the index kept and best are the argmin over those
    (n, c + 1) distances and its entries, bit for bit, with no (n, k) matrix
    held.  A later centroid takes a sample only when strictly nearer, so ties
    go to the first, as with argmin; no distance is -0.0, so a tie's minimum
    has the first centroid's bits too.  No distance is NaN (see
    _distance_row), so every comparison is one argmin would make.  The index
    is held in the smallest type that counts to k - 1, and result widens it
    to intp once.  scratch is free between folds.
    """

    __slots__ = ("_columns", "_mode", "_folded", "_argmin", "best", "scratch", "_row", "_taken", "_closer")

    def __init__(self, columns, k: int, mode: str) -> None:
        n = len(columns[0])
        index = np.min_scalar_type(k - 1)
        self._columns, self._mode, self._folded = columns, mode, 0
        self._argmin, self._taken = np.zeros(n, dtype=index), np.empty(n, dtype=index)
        self.best, self.scratch, self._row = np.empty(n), np.empty(n), np.empty(n)
        self._closer = np.empty(n, dtype=bool)

    def fold(self, width: float, height: float) -> None:
        """Fold in the next centroid's distance row."""
        c = self._folded
        self._folded += 1
        if c == 0:
            _distance_row(self._columns, width, height, self._mode, self.best, self.scratch)
            return
        row = _distance_row(self._columns, width, height, self._mode, self._row, self.scratch)
        np.less(row, self.best, out=self._closer)
        # Every index taken so far is below c, so the maximum sets c exactly where closer holds
        # (a masked store reads the mask branch by branch and costs several times as much).
        np.multiply(self._closer, self._argmin.dtype.type(c), out=self._taken)
        np.maximum(self._argmin, self._taken, out=self._argmin)
        np.minimum(row, self.best, out=self.best)

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        return self._argmin.astype(np.intp), self.best


def _nearest(columns, centroids: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's nearest centroid and its distance: argmin over all (n, k) distances and its entries, bit for bit."""
    running = _RunningNearest(columns, len(centroids), mode)
    for width, height in centroids.tolist():
        running.fold(width, height)
    return running.result()


def _plusplus_init(
    dims: np.ndarray, columns, k: int, rng: np.random.Generator, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded k-means++ initialization: spread starting centroids by squared distance.

    Returns the centroids with the first assignment, _nearest(columns,
    centroids, mode) bit for bit: the running minimum that weights each draw
    folds in the same rows, in the same order, and keeps its argmin too.
    columns are _columns(dims).  Every row goes into buffers made once: a
    fresh array per chosen centroid costs more in page faults than its
    arithmetic.  The minimum is kept over the distances and squared per draw,
    into the scratch buffer: squaring keeps the order of non-negative floats,
    so the weights are the minimum of the squares bit for bit.
    """
    n = dims.shape[0]
    running = _RunningNearest(columns, k, mode)
    d, scratch = running.best, running.scratch
    chosen = [int(rng.integers(n))]
    running.fold(*dims[chosen[-1]].tolist())
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
        # rng.choice(n, p=weights / total) draws by this inverse CDF after checking the weights, which are
        # non-negative with a positive finite total by construction.
        cdf = np.divide(weights, total, out=scratch)
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        chosen.append(int(cdf.searchsorted(rng.random(), side="right")))
        running.fold(*dims[chosen[-1]].tolist())
    return (dims[chosen].copy(), *running.result())


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
    new = centroids.copy()  # an empty cluster keeps its old row until re-seeded, so no unset memory is read
    for column in range(2):
        sums = np.bincount(assignments, weights=dims[:, column], minlength=k)
        new[filled, column] = sums[filled] / counts[filled]
    empties = np.flatnonzero(~filled).tolist()
    if empties:
        # each sample's distance to its own cluster, in one pass over n-length columns
        own = _distance_row(_columns(dims), *new[assignments].T, mode, np.empty(len(dims)), np.empty(len(dims)))
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


def _mean_distance(distances: np.ndarray) -> float:
    """The mean, or, where its sum of finite distances passes the float range, the sum of each over the count."""
    with np.errstate(over="ignore"):
        mean = distances.mean()
        return float(mean if mean < math.inf else (distances / len(distances)).sum())


def _objective(columns, centroids: np.ndarray, assignments: np.ndarray, distances: np.ndarray) -> float:
    """The mean distance of each sample to its centroid, finite wherever the true mean is.

    That is _mean_distance, unless a euclidean distance passes the float range
    itself: then each sample's distance over the count is taken from its
    differences, np.hypot(dw / n, dh / n), before summing.  The difference of
    two positive sides never overflows.
    """
    mean = _mean_distance(distances)
    if mean < math.inf:
        return mean
    n = len(distances)
    width, height = centroids[assignments].T
    with np.errstate(over="ignore"):
        return float(np.hypot((columns[0] - width) / n, (columns[1] - height) / n).sum())


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
    reported objective history is therefore strictly non-increasing.  An
    update whose mean passes the float range, which no prior can hold, is
    rolled back the same way, so every centroid obeys the sample size rule.

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
    centroids, assignments, nearest = _plusplus_init(dims, columns, k, rng, distance)
    history = [_objective(columns, centroids, assignments, nearest)]

    for _ in range(max_iters):
        new_centroids = _update_centroids(dims, assignments, centroids, distance)
        with np.errstate(all="ignore"):
            if not _size_ok(new_centroids[:, 0], new_centroids[:, 1]).all():
                break  # a mean past the float range: no prior holds it
        new_assignments, new_nearest = _nearest(columns, new_centroids, distance)
        new_objective = _objective(columns, new_centroids, new_assignments, new_nearest)
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
