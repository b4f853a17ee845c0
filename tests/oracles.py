"""Independent reference implementations used to cross-check the library.

Everything here works on plain tuples and exact rational arithmetic.  Box
coordinates are kept integral and scores are multiples of 1/128 so float
IOU values and sweep orders are reproduced bit-for-bit by any correctly
rounded implementation, which lets the comparisons demand 1e-12 agreement.

oracle_nms is the exception: the scalar greedy suppression loop over the
library's ScoredBox objects, with corner_iou, so that nms can be required to
return the very same objects in the same order.  Likewise
oracle_average_precision is the per-curve float AP loop, so that the array
AP can be required to give the same floats bit for bit, and
oracle_load_dimension_samples is the per-line box-size loader and
oracle_distances the (n, k, 2) k-means distance formulas, so that the array
versions can be required to give the same arrays and messages bit for bit.
oracle_nearest is argmin over that matrix with the entries it picks, and
oracle_update_centroids the per-cluster mask-and-mean loop, so that the
k-means step's running minimum and in-order sums can be required to give
the same assignments, distances and centroids bit for bit.
oracle_assign_yolo_from_ious and oracle_assign_dual_threshold_from_ious are
the hand-written claim loop and first-maximum scan of the two prior
assignment rules, so that the library's versions can be required to give
the same labels on any matrix, NaN and infinities included.
oracle_greedy is the nested-loop greedy match over an IOU matrix's rows, so
that geometry's ranked-pair scan can be required to give the same columns on
any matrix.
oracle_sweep_aps is the full-sweep AP route, a point per ranked detection
(hit or miss) fed to the library's _ap_rows, so that the engine's AP over
hits alone can be required to give the same floats bit for bit.
compensated_sum is not an oracle but a stand-in: Python 3.12's sum() of
floats, for running the library as a newer interpreter would.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from detkit import (
    IGNORED,
    NEGATIVE,
    AssignmentLabel,
    Box,
    DetectionResultSet,
    DimensionSample,
    GroundTruth,
    GroundTruthSet,
    ImageInfo,
    ParseError,
    PRCurve,
    ScoredBox,
)
from detkit.dataio import _read_text
from detkit.metrics import _ap_rows

Corners = tuple[float, float, float, float]


@dataclass(frozen=True)
class Scenario:
    """A detection benchmark as plain data: ids, truths, scored boxes."""

    images: tuple[int, ...]
    classes: tuple[int, ...]
    gts: tuple[tuple[int, int, Corners], ...]          # (image, class, corners)
    dets: tuple[tuple[int, int, float, Corners], ...]  # (image, class, score, corners)


def random_scenario(seed: int, max_images: int = 3, max_classes: int = 3,
                    max_gts: int = 6, max_dets: int = 10) -> Scenario:
    rng = random.Random(seed)
    images = tuple(range(1, rng.randint(1, max_images) + 1))
    classes = tuple(range(1, rng.randint(1, max_classes) + 1))

    def random_corners() -> Corners:
        left = rng.randrange(0, 90)
        top = rng.randrange(0, 90)
        return (left, top, left + rng.randrange(4, 30), top + rng.randrange(4, 30))

    gts = []
    for _ in range(rng.randint(0, max_gts)):
        gts.append((rng.choice(images), rng.choice(classes), random_corners()))

    num_dets = rng.randint(0, max_dets)
    score_pool = rng.sample(range(1, 129), num_dets)  # distinct, exact in binary
    dets = []
    for j in range(num_dets):
        if gts and rng.random() < 0.7:
            img, cls, (left, top, right, bottom) = rng.choice(gts)
            dx, dy = rng.randint(-4, 4), rng.randint(-4, 4)
            corners = (left + dx, top + dy, right + dx, bottom + dy)
            if rng.random() < 0.15:
                cls = rng.choice(classes)
        else:
            img, cls, corners = rng.choice(images), rng.choice(classes), random_corners()
        dets.append((img, cls, score_pool[j] / 128.0, corners))
    return Scenario(images, classes, tuple(gts), tuple(dets))


def to_library(scenario: Scenario) -> tuple[DetectionResultSet, GroundTruthSet]:
    truths = GroundTruthSet(
        images=[ImageInfo(i, 100, 100) for i in scenario.images],
        categories={c: f"class{c}" for c in scenario.classes},
        ground_truths=[
            GroundTruth(img, cls, Box.from_corners(*corners))
            for img, cls, corners in scenario.gts
        ],
    )
    results = DetectionResultSet(
        (img, ScoredBox(box=Box.from_corners(*corners), score=score, class_id=cls))
        for img, cls, score, corners in scenario.dets
    )
    return results, truths


def corner_iou(a: Corners, b: Corners) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    if union == math.inf:  # halving every term is exact at this size, and the halved sum cannot overflow
        inter /= 2.0
        union = area_a / 2.0 + area_b / 2.0 - inter
    return inter / union


def compensated_sum(values, start=0):
    """sum() of floats as Python 3.12 and later compute it, with Neumaier compensation.

    It equals the CPython 3.12.1 and 3.13.0 builtins on 30,264 float lists:
    every list that evaluate() averaged on the coco-sparse benchmark inputs
    of seeds 0-199 and on random_scenario seeds 0-999, and the 40 term lists
    of the many-class prior_loss test.  Plain left-to-right addition rounds
    5,328 of them differently.
    """
    total = float(start)
    compensation = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def oracle_nms(detections: Sequence[ScoredBox], iou_threshold: float) -> list[ScoredBox]:
    """Scalar greedy per-class suppression: visit by score desc then input
    position, keep a box iff its IOU with every kept box of its class is <= the threshold."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    kept: list[ScoredBox] = []
    for i in order:
        candidate = detections[i]
        if all(
            corner_iou(candidate.box.corners(), other.box.corners()) <= iou_threshold
            for other in kept
            if other.class_id == candidate.class_id
        ):
            kept.append(candidate)
    return kept


def oracle_envelope(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Per point, the maximum precision at any recall >= that point's recall."""
    env: list[tuple[float, float]] = []
    best = 0.0
    for recall, precision in reversed(points):
        best = max(best, precision)
        env.append((recall, best))
    env.reverse()
    return env


def oracle_average_precision(curve: PRCurve, interpolation: str = "continuous") -> float:
    """Float AP of one curve, point by point: the exact area under the envelope,
    or its mean at recall samples 0.00, 0.01, ..., 1.00 (0 past the last point)."""
    env = oracle_envelope(curve.points)
    if interpolation == "continuous":
        total = 0.0
        prev_recall = 0.0
        for recall, precision in env:
            if recall > prev_recall:
                total += (recall - prev_recall) * precision
                prev_recall = recall
        return total
    samples = [i / 100.0 for i in range(101)]
    total = 0.0
    position = 0
    for sample in samples:
        while position < len(env) and env[position][0] < sample:
            position += 1
        if position < len(env):
            total += env[position][1]
    return total / len(samples)


def oracle_load_dimension_samples(path: str | Path) -> np.ndarray:
    """Per-line box-size loader: split each line; skip it when empty or when its
    first token starts with '#'; otherwise it must hold exactly two tokens that
    float() reads into a valid DimensionSample.  Returns the (n, 2) array."""
    samples: list[DimensionSample] = []
    for line_number, raw in enumerate(_read_text(path).splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ParseError(f"{path}: line {line_number}: expected 'width height', got {raw!r}")
        try:
            samples.append(DimensionSample(float(parts[0]), float(parts[1])))
        except ValueError as err:
            raise ParseError(f"{path}: line {line_number}: {err}") from err
    return np.array([[s.width, s.height] for s in samples], dtype=float).reshape(-1, 2)


def oracle_distances(dims: np.ndarray, centroids: np.ndarray, mode: str) -> np.ndarray:
    """k-means distances through (n, k, 2) temporaries: 1 - IOU of co-centered boxes, or euclidean."""
    if mode == "euclidean":
        diff = dims[:, None, :] - centroids[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))
    inter = np.minimum(dims[:, None, :], centroids[None, :, :]).prod(axis=-1)
    union = dims.prod(axis=-1)[:, None] + centroids.prod(axis=-1)[None, :] - inter
    return 1.0 - inter / union


def oracle_nearest(dims: np.ndarray, centroids: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's nearest centroid, argmin over the (n, k) distances (the first minimum, or the first NaN),
    and its distance."""
    dist = oracle_distances(dims, centroids, mode)
    nearest = dist.argmin(axis=1)
    return nearest, dist[np.arange(len(dims)), nearest]


def oracle_update_centroids(
    dims: np.ndarray, assignments: np.ndarray, centroids: np.ndarray, mode: str
) -> np.ndarray:
    """Each cluster's members by a boolean mask and their .mean(axis=0); an empty cluster re-seeds
    from the sample farthest from its own centroid, each sample seeding at most one."""
    k = centroids.shape[0]
    new = centroids.copy()
    empties = []
    for c in range(k):
        members = dims[assignments == c]
        if len(members) == 0:
            empties.append(c)
        else:
            new[c] = members.mean(axis=0)
    if empties:
        own = oracle_distances(dims, new, mode)[np.arange(len(dims)), assignments]
        for c in empties:
            farthest = int(np.argmax(own))
            new[c] = dims[farthest]
            own[farthest] = -1.0
    return new


def oracle_assign_yolo_from_ious(
    ious: Sequence[Sequence[float]], num_ground_truths: int, ignore_threshold: float = 0.5
) -> list[AssignmentLabel]:
    """Each truth in index order claims the unclaimed prior of strictly greatest
    IOU above -1 (first prior on ties); the first truth that finds none ends the
    claims.  Unclaimed priors above ignore_threshold against any truth are ignored."""
    num_priors = len(ious)
    positives: dict[int, int] = {}
    for g in range(num_ground_truths):
        best_prior = None
        best_value = -1.0
        for i in range(num_priors):
            if i in positives:
                continue
            if ious[i][g] > best_value:
                best_value = ious[i][g]
                best_prior = i
        if best_prior is None:
            break
        positives[best_prior] = g
    labels: list[AssignmentLabel] = []
    for i in range(num_priors):
        if i in positives:
            labels.append(AssignmentLabel.positive(positives[i]))
        elif any(ious[i][g] > ignore_threshold for g in range(num_ground_truths)):
            labels.append(IGNORED)
        else:
            labels.append(NEGATIVE)
    return labels


def oracle_greedy(rows: Sequence[Sequence[float]], iou_threshold: float) -> list[int | None]:
    """The greedy matching rule: each row in turn claims a column.

    Row i takes the still-free column of highest IOU, provided that IOU
    reaches iou_threshold and exceeds -1 (NaN never does); the strict
    comparison sends IOU ties to the lower column.  Returns each row's
    column, or None.
    """
    taken: set[int] = set()
    out: list[int | None] = []
    for row in rows:
        best = None
        best_value = -1.0
        for g, value in enumerate(row):
            if value >= iou_threshold and value > best_value and g not in taken:
                best_value = value
                best = g
        out.append(best)
        if best is not None:
            taken.add(best)
    return out


def oracle_sweep_aps(
    index: np.ndarray, key_of: np.ndarray, counts: np.ndarray, matches: Sequence[np.ndarray], interpolation: str
) -> tuple[list[int], list[list[float]]]:
    """The keys that hold a truth, ascending, and per match map their APs over every point of each key's sweep.

    Arguments as for metrics._Evaluation._aps.  A detection whose key holds no
    truth is dropped; every other one is a point: recall tp / counts[key] and
    precision tp / (tp + fp), with the key's sweeps laid end to end.
    """
    lengths = np.bincount(key_of[index], minlength=len(counts))
    index = index[np.repeat(counts > 0, lengths)]
    keys = np.flatnonzero(counts)
    lengths = lengths[keys]
    before = np.repeat(np.cumsum(lengths) - lengths, lengths)  # sweep positions ahead of each key's first
    num_gt = np.repeat(counts[keys], lengths)
    ranked = np.arange(len(index)) - before + 1  # tp + fp
    out = []
    for matched in matches:
        hits = np.cumsum(matched[index] >= 0)
        tp = hits - np.concatenate(([0], hits))[before]
        out.append(_ap_rows(tp / num_gt, tp / ranked, lengths, interpolation).tolist())
    return keys.tolist(), out


def oracle_assign_dual_threshold_from_ious(
    ious: Sequence[Sequence[float]],
    num_ground_truths: int,
    pos_threshold: float = 0.7,
    neg_threshold: float = 0.3,
) -> list[AssignmentLabel]:
    """Per prior, scan its first num_ground_truths IOUs for the first maximum
    (replaced only by a strictly greater value) and label it by that value."""
    labels: list[AssignmentLabel] = []
    for i in range(len(ious)):
        if num_ground_truths == 0:
            labels.append(NEGATIVE)
            continue
        best_gt = 0
        best_value = ious[i][0]
        for g in range(1, num_ground_truths):
            if ious[i][g] > best_value:
                best_value = ious[i][g]
                best_gt = g
        if best_value >= pos_threshold:
            labels.append(AssignmentLabel.positive(best_gt))
        elif best_value >= neg_threshold:
            labels.append(IGNORED)
        else:
            labels.append(NEGATIVE)
    return labels


def oracle_tp_flags(scenario: Scenario, iou_threshold: float) -> dict[int, bool]:
    """Greedy per-(image, class) matching; maps det position -> matched."""
    flags: dict[int, bool] = {}
    for img in scenario.images:
        for cls in scenario.classes:
            truths = [g for g in scenario.gts if g[0] == img and g[1] == cls]
            cands = [(j, d) for j, d in enumerate(scenario.dets) if d[0] == img and d[1] == cls]
            cands.sort(key=lambda e: (-e[1][2], e[0]))
            used = [False] * len(truths)
            for j, det in cands:
                best = None
                best_value = -1.0
                for g, gt in enumerate(truths):
                    if used[g]:
                        continue
                    value = corner_iou(det[3], gt[2])
                    if value >= iou_threshold and value > best_value:
                        best_value = value
                        best = g
                flags[j] = best is not None
                if best is not None:
                    used[best] = True
    return flags


def exact_continuous_ap(ordered_flags: list[bool], num_gt: int) -> Fraction:
    """Area under the precision envelope, in exact rational arithmetic."""
    points: list[tuple[Fraction, Fraction]] = []
    tp = fp = 0
    for hit in ordered_flags:
        if hit:
            tp += 1
        else:
            fp += 1
        points.append((Fraction(tp, num_gt), Fraction(tp, tp + fp)))
    area = Fraction(0)
    prev = Fraction(0)
    for i, (recall, _) in enumerate(points):
        if recall > prev:
            area += (recall - prev) * max(p for _, p in points[i:])
            prev = recall
    return area


def exact_101point_ap(ordered_flags: list[bool], num_gt: int) -> Fraction:
    points: list[tuple[Fraction, Fraction]] = []
    tp = fp = 0
    for hit in ordered_flags:
        if hit:
            tp += 1
        else:
            fp += 1
        points.append((Fraction(tp, num_gt), Fraction(tp, tp + fp)))
    total = Fraction(0)
    for s in range(101):
        sample = Fraction(s, 100)
        total += max((p for r, p in points if r >= sample), default=Fraction(0))
    return total / 101


def _class_sweep(scenario: Scenario, cls: int) -> list[int]:
    cands = [(j, d) for j, d in enumerate(scenario.dets) if d[1] == cls]
    cands.sort(key=lambda e: (-e[1][2], e[0]))
    return [j for j, _ in cands]


def oracle_class_ap(scenario: Scenario, cls: int, iou_threshold: float,
                    interpolation: str = "continuous") -> Fraction:
    num_gt = sum(1 for g in scenario.gts if g[1] == cls)
    assert num_gt > 0
    flags = oracle_tp_flags(scenario, iou_threshold)
    ordered = [flags[j] for j in _class_sweep(scenario, cls)]
    if interpolation == "continuous":
        return exact_continuous_ap(ordered, num_gt)
    return exact_101point_ap(ordered, num_gt)


def oracle_classes_with_truth(scenario: Scenario) -> list[int]:
    return sorted({g[1] for g in scenario.gts})


def oracle_map_voc(scenario: Scenario) -> Fraction | None:
    classes = oracle_classes_with_truth(scenario)
    if not classes:
        return None
    aps = [oracle_class_ap(scenario, c, 0.5, "continuous") for c in classes]
    return sum(aps) / len(aps)


def oracle_global_ap(scenario: Scenario, iou_threshold: float = 0.5) -> Fraction | None:
    num_gt = len(scenario.gts)
    if num_gt == 0:
        return None
    flags = oracle_tp_flags(scenario, iou_threshold)
    order = sorted(range(len(scenario.dets)), key=lambda j: (-scenario.dets[j][2], j))
    return exact_continuous_ap([flags[j] for j in order], num_gt)


def oracle_per_image_ap(scenario: Scenario, iou_threshold: float = 0.5) -> Fraction | None:
    flags = oracle_tp_flags(scenario, iou_threshold)
    values: list[Fraction] = []
    for img in sorted(scenario.images):
        num_gt = sum(1 for g in scenario.gts if g[0] == img)
        if num_gt == 0:
            continue
        order = sorted(
            (j for j, d in enumerate(scenario.dets) if d[0] == img),
            key=lambda j: (-scenario.dets[j][2], j),
        )
        values.append(exact_continuous_ap([flags[j] for j in order], num_gt))
    if not values:
        return None
    return sum(values) / len(values)


COCO_THRESHOLDS = tuple(t / 100 for t in range(50, 100, 5))


def oracle_band(corners: Corners) -> str:
    """Size band of a truth box by its area: small < 32^2 <= medium < 96^2 <= large."""
    area = (corners[2] - corners[0]) * (corners[3] - corners[1])
    if area < 32 * 32:
        return "small"
    if area < 96 * 96:
        return "medium"
    return "large"


def oracle_matches(scenario: Scenario, iou_threshold: float) -> dict[int, int | None]:
    """Greedy per-(image, class) matching; maps det position -> matched truth position."""
    matches: dict[int, int | None] = {}
    for img in scenario.images:
        for cls in scenario.classes:
            truths = [g for g, gt in enumerate(scenario.gts) if gt[0] == img and gt[1] == cls]
            cands = [j for j, d in enumerate(scenario.dets) if d[0] == img and d[1] == cls]
            cands.sort(key=lambda j: (-scenario.dets[j][2], j))
            free = list(truths)
            for j in cands:
                best = None
                best_value = -1.0
                for g in free:  # ascending truth position, so IOU ties go to the first
                    value = corner_iou(scenario.dets[j][3], scenario.gts[g][2])
                    if value >= iou_threshold and value > best_value:
                        best_value = value
                        best = g
                matches[j] = best
                if best is not None:
                    free.remove(best)
    return matches


def oracle_coco_ap(scenario: Scenario) -> Fraction | None:
    """Mean over the ten COCO thresholds of the class-mean 101-point AP."""
    classes = oracle_classes_with_truth(scenario)
    if not classes:
        return None
    per_threshold = [
        sum(oracle_class_ap(scenario, c, t, "101-point") for c in classes) / len(classes)
        for t in COCO_THRESHOLDS
    ]
    return sum(per_threshold) / len(per_threshold)


def oracle_ap_by_area(scenario: Scenario, band: str) -> Fraction | None:
    """COCO AP over one band's truths.

    A detection matched at IOU 0.5 against the full truth set belongs to its
    truth's band; the other bands drop it from both ranking and matching.
    """
    band_gts = tuple(gt for gt in scenario.gts if oracle_band(gt[2]) == band)
    if not band_gts:
        return None
    owners = oracle_matches(scenario, 0.5)
    kept = tuple(
        det for j, det in enumerate(scenario.dets)
        if owners[j] is None or oracle_band(scenario.gts[owners[j]][2]) == band
    )
    return oracle_coco_ap(Scenario(scenario.images, scenario.classes, band_gts, kept))
