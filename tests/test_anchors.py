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
    DimensionSamples,
    InsufficientSamplesError,
    NotDivisibleError,
    anchors,
    kmeans_anchors,
    split_scales,
)
from oracles import oracle_distances

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


def _benchmark_like_sizes(seed, n):
    """Log-normal sizes rounded to two decimals, so that rows and distances tie."""
    rng = np.random.default_rng(seed)
    widths = np.exp(rng.normal(math.log(50.0), 0.9, n))
    heights = widths * np.exp(rng.normal(0.0, 0.45, n))
    return np.maximum(np.round(np.stack([widths, heights], axis=1), 2), 1.0)


class TestDimensionSamples:
    def test_sequence_of_samples_built_on_demand(self):
        samples = DimensionSamples([[10.0, 13.0], [16, 30], [33.5, 23.25]])
        assert len(samples) == 3
        assert samples[0] == DimensionSample(10.0, 13.0)
        assert samples[-1] == DimensionSample(33.5, 23.25)
        assert list(samples) == [DimensionSample(10.0, 13.0), DimensionSample(16.0, 30.0), DimensionSample(33.5, 23.25)]
        assert type(samples[1].width) is float
        with pytest.raises(IndexError):
            samples[3]
        with pytest.raises(IndexError):
            samples[-4]

    def test_holds_a_read_only_copy(self):
        sizes = np.array([[10.0, 13.0], [16.0, 30.0]])
        samples = DimensionSamples(sizes)
        sizes[0, 0] = 99.0
        assert samples.sizes.dtype == np.float64 and samples.sizes.shape == (2, 2)
        assert samples.sizes[0, 0] == 10.0
        with pytest.raises(ValueError):
            samples.sizes[0, 0] = 1.0

    def test_empty(self):
        samples = DimensionSamples(np.empty((0, 2)))
        assert len(samples) == 0 and list(samples) == []

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 1), (1, 2, 2)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="shape"):
            DimensionSamples(np.ones(shape))

    @pytest.mark.parametrize("width,height", [
        (0.0, 5.0), (5.0, -1.0), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (-0.0, 2.0), (2.0, -math.inf),
    ])
    def test_first_bad_row_raises_the_samples_message(self, width, height):
        with pytest.raises(ValueError) as one:
            DimensionSample(width, height)
        with pytest.raises(ValueError) as many:
            DimensionSamples([[1.0, 2.0], [width, height], [0.0, 0.0]])
        assert str(many.value) == str(one.value)
        assert str(one.value) == f"sample size must be positive and finite, got {width!r} x {height!r}"


class TestDistancesMatchPairwiseFormulas:
    """The (n, k) distance matrices are bit-identical to the (n, k, 2) formulas."""

    @pytest.mark.parametrize("mode", ["iou", "euclidean"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical(self, mode, seed):
        rng = np.random.default_rng(seed)
        dims = np.concatenate([_benchmark_like_sizes(seed, 500), rng.uniform(1e-3, 1e3, (500, 2))])
        for k in (1, 3, 9):
            centroids = dims[rng.choice(len(dims), k, replace=False)] * rng.uniform(0.5, 2.0, (k, 2))
            got = anchors._distances(dims, centroids, mode)
            want = oracle_distances(dims, centroids, mode)
            assert got.shape == want.shape == (len(dims), k)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["iou", "euclidean"])
    def test_same_clustering_as_pairwise_formulas(self, mode, monkeypatch):
        dims = _benchmark_like_sizes(21, 3000)
        got = [kmeans_anchors(DimensionSamples(dims), k, max_iters=8, seed=seed, distance=mode)
               for k in (1, 2, 5, 9) for seed in range(3)]
        monkeypatch.setattr(anchors, "_distances", oracle_distances)
        want = [kmeans_anchors(DimensionSamples(dims), k, max_iters=8, seed=seed, distance=mode)
                for k in (1, 2, 5, 9) for seed in range(3)]
        assert got == want


class TestKmeansAnchors:
    def test_list_and_array_backed_samples_cluster_alike(self):
        dims = _benchmark_like_sizes(4, 400)
        as_list = [DimensionSample(w, h) for w, h in dims.tolist()]
        for mode in ("iou", "euclidean"):
            assert kmeans_anchors(as_list, 4, seed=3, distance=mode) == kmeans_anchors(
                DimensionSamples(dims), 4, seed=3, distance=mode
            )

    def test_result_holds_plain_python_numbers(self):
        result = kmeans_anchors(DimensionSamples(_benchmark_like_sizes(5, 200)), 3, seed=0)
        assert all(type(c.width) is float and type(c.height) is float for c in result.centroids)
        assert all(type(a) is int for a in result.assignments)

    @pytest.mark.parametrize("copies", [1000, 5000])
    def test_distinct_count_sees_duplicates_placed_late(self, copies):
        k = 5
        dims = np.array([[10.0, 10.0]] * copies + [[10.0, 10.0], [20.0, 20.0], [30.0, 30.0], [40.0, 40.0]])
        with pytest.raises(InsufficientSamplesError) as err:
            kmeans_anchors(DimensionSamples(dims), k)
        assert str(err.value) == f"{k} clusters requested but only {k - 1} distinct samples given"
        enough = np.concatenate([dims, [[50.0, 50.0]]])
        assert len(kmeans_anchors(DimensionSamples(enough), k).centroids) == k

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


class TestCountArguments:
    samples = [DimensionSample(10.0, 10.0), DimensionSample(20.0, 30.0), DimensionSample(40.0, 25.0)]
    priors = [AnchorPrior(10, 13), AnchorPrior(16, 30), AnchorPrior(33, 23)]

    @pytest.mark.parametrize("k", [2.5, math.nan, math.inf])
    def test_k_must_be_whole(self, k):
        with pytest.raises(ValueError, match=rf"^k must be a whole number, got {k!r}$"):
            kmeans_anchors(self.samples, k)

    @pytest.mark.parametrize("max_iters", [2.5, math.nan, math.inf])
    def test_max_iters_must_be_whole(self, max_iters):
        with pytest.raises(ValueError, match=rf"^max_iters must be a whole number, got {max_iters!r}$"):
            kmeans_anchors(self.samples, 2, max_iters=max_iters)

    @pytest.mark.parametrize("num_scales", [1.5, math.nan, math.inf])
    def test_num_scales_must_be_whole(self, num_scales):
        with pytest.raises(ValueError, match=rf"^num_scales must be a whole number, got {num_scales!r}$"):
            split_scales(self.priors, num_scales)

    def test_positive_messages_unchanged(self):
        with pytest.raises(ValueError, match=r"^k must be positive, got 0$"):
            kmeans_anchors(self.samples, 0)
        with pytest.raises(ValueError, match=r"^max_iters must be positive, got -1\.5$"):
            kmeans_anchors(self.samples, 2, max_iters=-1.5)
        with pytest.raises(ValueError, match=r"^num_scales must be positive, got 0$"):
            split_scales(self.priors, 0)

    def test_whole_valued_floats_count_as_ints(self):
        assert kmeans_anchors(self.samples, 2.0, max_iters=3.0) == kmeans_anchors(self.samples, 2, max_iters=3)
        assert split_scales(self.priors, 3.0) == split_scales(self.priors, 3)


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
