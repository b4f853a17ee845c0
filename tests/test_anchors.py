"""Anchor clustering and scale splitting."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detkit import (
    AnchorPrior,
    DimensionSample,
    InsufficientSamplesError,
    NotDivisibleError,
    kmeans_anchors,
    split_scales,
)

sample_dims = st.builds(
    DimensionSample,
    width=st.floats(min_value=1.0, max_value=400.0, allow_nan=False),
    height=st.floats(min_value=1.0, max_value=400.0, allow_nan=False),
)


def _jittered_cluster(rng, cx, cy, n, spread):
    return [
        DimensionSample(
            width=float(cx * (1.0 + rng.uniform(-spread, spread))),
            height=float(cy * (1.0 + rng.uniform(-spread, spread))),
        )
        for _ in range(n)
    ]


class TestDimensionSample:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            DimensionSample(width=0.0, height=5.0)
        with pytest.raises(ValueError):
            DimensionSample(width=5.0, height=-1.0)

    @pytest.mark.parametrize("width,height", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_rejects_non_finite(self, width, height):
        with pytest.raises(ValueError, match="finite"):
            DimensionSample(width=width, height=height)


class TestKmeansAnchors:
    def test_k_equals_distinct_samples(self):
        samples = [
            DimensionSample(10.0, 20.0),
            DimensionSample(50.0, 60.0),
            DimensionSample(200.0, 100.0),
        ]
        result = kmeans_anchors(samples, k=3, seed=0)
        got = {(c.width, c.height) for c in result.centroids}
        assert got == {(10.0, 20.0), (50.0, 60.0), (200.0, 100.0)}
        assert result.objective == 0.0

    def test_insufficient_distinct_samples(self):
        samples = [
            DimensionSample(10.0, 20.0),
            DimensionSample(10.0, 20.0),
            DimensionSample(50.0, 60.0),
        ]
        with pytest.raises(InsufficientSamplesError):
            kmeans_anchors(samples, k=3)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(7)
        samples = _jittered_cluster(rng, 30, 40, 40, 0.5) + _jittered_cluster(rng, 200, 150, 40, 0.5)
        first = kmeans_anchors(samples, k=3, seed=11)
        second = kmeans_anchors(samples, k=3, seed=11)
        assert first == second

    def test_single_cluster_centroid_is_componentwise_mean(self):
        rng = np.random.default_rng(3)
        samples = _jittered_cluster(rng, 100, 80, 50, 0.05)
        result = kmeans_anchors(samples, k=1, seed=0)
        (centroid,) = result.centroids
        widths = [s.width for s in samples]
        heights = [s.height for s in samples]
        assert centroid.width == pytest.approx(sum(widths) / len(widths), rel=1e-12)
        assert centroid.height == pytest.approx(sum(heights) / len(heights), rel=1e-12)

    def test_objective_history_non_increasing(self):
        rng = np.random.default_rng(5)
        samples = (
            _jittered_cluster(rng, 20, 30, 30, 0.4)
            + _jittered_cluster(rng, 120, 90, 30, 0.4)
            + _jittered_cluster(rng, 300, 250, 30, 0.4)
        )
        for seed in range(10):
            result = kmeans_anchors(samples, k=4, seed=seed)
            hist = result.objective_history
            assert hist[-1] == result.objective
            assert all(later <= earlier for earlier, later in zip(hist, hist[1:]))

    def test_assignments_point_at_nearest_centroid(self):
        rng = np.random.default_rng(9)
        samples = _jittered_cluster(rng, 50, 50, 25, 0.6) + _jittered_cluster(rng, 250, 200, 25, 0.6)
        result = kmeans_anchors(samples, k=3, seed=2)
        assert len(result.assignments) == len(samples)
        assert set(result.assignments) <= set(range(3))

    def test_two_well_separated_clusters_recovered(self):
        rng = np.random.default_rng(1)
        samples = _jittered_cluster(rng, 20, 25, 60, 0.05) + _jittered_cluster(rng, 300, 280, 60, 0.05)
        result = kmeans_anchors(samples, k=2, seed=0)
        sizes = sorted((c.width, c.height) for c in result.centroids)
        assert sizes[0][0] == pytest.approx(20.0, rel=0.1)
        assert sizes[0][1] == pytest.approx(25.0, rel=0.1)
        assert sizes[1][0] == pytest.approx(300.0, rel=0.1)
        assert sizes[1][1] == pytest.approx(280.0, rel=0.1)

    def test_euclidean_mode_runs(self):
        rng = np.random.default_rng(4)
        samples = _jittered_cluster(rng, 40, 40, 30, 0.5) + _jittered_cluster(rng, 200, 180, 30, 0.5)
        result = kmeans_anchors(samples, k=2, seed=0, distance="euclidean")
        assert len(result.centroids) == 2
        assert all(c.width > 0 and c.height > 0 for c in result.centroids)

    def test_objective_is_mean_distance_of_final_assignment(self):
        rng = np.random.default_rng(8)
        samples = _jittered_cluster(rng, 60, 70, 40, 0.5)
        result = kmeans_anchors(samples, k=2, seed=0)

        def overlap_distance(s, c):
            inter = min(s.width, c.width) * min(s.height, c.height)
            union = s.width * s.height + c.width * c.height - inter
            return 1.0 - inter / union

        expected = sum(
            overlap_distance(s, result.centroids[a]) for s, a in zip(samples, result.assignments)
        ) / len(samples)
        assert result.objective == pytest.approx(expected, rel=1e-9)

    def test_validation(self):
        samples = [DimensionSample(10.0, 10.0), DimensionSample(20.0, 30.0)]
        with pytest.raises(ValueError):
            kmeans_anchors(samples, k=0)
        with pytest.raises(ValueError):
            kmeans_anchors(samples, k=1, max_iters=0)
        with pytest.raises(ValueError):
            kmeans_anchors(samples, k=1, distance="cosine")
        with pytest.raises(InsufficientSamplesError):
            kmeans_anchors([], k=1)

    @given(st.lists(sample_dims, min_size=6, max_size=20), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_history_never_increases(self, samples, seed):
        distinct = {(s.width, s.height) for s in samples}
        k = min(3, len(distinct))
        result = kmeans_anchors(samples, k=k, seed=seed)
        hist = result.objective_history
        assert all(later <= earlier for earlier, later in zip(hist, hist[1:]))
        assert len(result.centroids) == k


class TestSplitScales:
    def test_three_scale_reference_split(self):
        priors = [
            AnchorPrior(10, 13), AnchorPrior(16, 30), AnchorPrior(33, 23),
            AnchorPrior(30, 61), AnchorPrior(62, 45), AnchorPrior(59, 119),
            AnchorPrior(116, 90), AnchorPrior(156, 198), AnchorPrior(373, 326),
        ]
        groups = split_scales(priors, num_scales=3)
        assert groups[0] == (AnchorPrior(10, 13), AnchorPrior(16, 30), AnchorPrior(33, 23))
        assert groups[1] == (AnchorPrior(30, 61), AnchorPrior(62, 45), AnchorPrior(59, 119))
        assert groups[2] == (AnchorPrior(116, 90), AnchorPrior(156, 198), AnchorPrior(373, 326))

    def test_not_divisible(self):
        priors = [AnchorPrior(10, 10), AnchorPrior(20, 20), AnchorPrior(30, 30)]
        with pytest.raises(NotDivisibleError):
            split_scales(priors, num_scales=2)

    def test_single_scale_keeps_everything(self):
        priors = [AnchorPrior(50, 50), AnchorPrior(10, 10)]
        groups = split_scales(priors, num_scales=1)
        assert groups == [(AnchorPrior(10, 10), AnchorPrior(50, 50))]

    def test_group_zero_is_smallest(self):
        priors = [AnchorPrior(100, 100), AnchorPrior(1, 1), AnchorPrior(10, 10), AnchorPrior(50, 50)]
        groups = split_scales(priors, num_scales=2)
        assert groups[0] == (AnchorPrior(1, 1), AnchorPrior(10, 10))

    def test_area_tie_breaks_by_width(self):
        # same area 100: 5x20 sorts before 10x10 sorts before 20x5
        priors = [AnchorPrior(20, 5), AnchorPrior(5, 20), AnchorPrior(10, 10)]
        groups = split_scales(priors, num_scales=3)
        assert groups == [
            (AnchorPrior(5, 20),),
            (AnchorPrior(10, 10),),
            (AnchorPrior(20, 5),),
        ]

    def test_rejects_bad_scale_count(self):
        with pytest.raises(ValueError):
            split_scales([AnchorPrior(1, 1)], num_scales=0)

    @given(
        st.lists(
            st.builds(
                AnchorPrior,
                width=st.floats(1.0, 400.0, allow_nan=False),
                height=st.floats(1.0, 400.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=60)
    def test_partition_properties(self, priors, num_scales):
        if len(priors) % num_scales != 0:
            with pytest.raises(NotDivisibleError):
                split_scales(priors, num_scales)
            return
        groups = split_scales(priors, num_scales)
        assert len(groups) == num_scales
        assert all(len(g) == len(priors) // num_scales for g in groups)
        flattened = [p for g in groups for p in g]
        assert flattened == sorted(priors, key=lambda p: (p.area, p.width))
