"""Hypothesis property tests for the quality metrics."""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.distance.weighted import SegmentDistance
from repro.model.cluster import NOISE, Cluster, clusters_from_labels
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.quality.external import (
    adjusted_rand_index,
    clustering_f1,
    noise_rate,
    purity,
)
from repro.quality.qmeasure import cluster_sse, noise_penalty, quality_measure

coordinate = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def labelled_data(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    labels = draw(
        st.lists(
            st.integers(min_value=-1, max_value=4), min_size=n, max_size=n
        )
    )
    truth = draw(
        st.lists(
            st.integers(min_value=0, max_value=3), min_size=n, max_size=n
        )
    )
    return np.asarray(labels), np.asarray(truth)


class TestExternalMetricProperties:
    @given(labelled_data())
    @settings(max_examples=150)
    def test_purity_bounded(self, data):
        labels, truth = data
        assert 0.0 <= purity(labels, truth) <= 1.0

    @given(labelled_data())
    @settings(max_examples=150)
    def test_ari_bounded_above_by_one(self, data):
        labels, truth = data
        assert adjusted_rand_index(labels, truth) <= 1.0 + 1e-12

    @given(labelled_data())
    @settings(max_examples=100)
    def test_ari_permutation_invariant(self, data):
        labels, truth = data
        # Relabel clusters 0..4 -> 10..14: ARI must not change.
        relabelled = np.where(labels >= 0, labels + 10, labels)
        assert adjusted_rand_index(labels, truth) == pytest.approx(
            adjusted_rand_index(relabelled, truth)
        )

    @given(labelled_data())
    @settings(max_examples=100)
    def test_self_agreement_is_perfect(self, data):
        _, truth = data
        assert adjusted_rand_index(truth, truth) == pytest.approx(1.0)
        assert purity(truth, truth) == 1.0
        precision, recall, f1 = clustering_f1(truth, truth)
        assert (precision, recall, f1) == (1.0, 1.0, 1.0)

    @given(labelled_data())
    @settings(max_examples=100)
    def test_f1_components_bounded(self, data):
        labels, truth = data
        precision, recall, f1 = clustering_f1(labels, truth)
        for value in (precision, recall, f1):
            assert 0.0 <= value <= 1.0

    @given(labelled_data())
    @settings(max_examples=100)
    def test_noise_rate_bounded(self, data):
        labels, _ = data
        assert 0.0 <= noise_rate(labels) <= 1.0


def band_store(offsets):
    return SegmentSet.from_segments(
        [
            Segment([0.0, float(y)], [10.0, float(y)], traj_id=k, seg_id=k)
            for k, y in enumerate(offsets)
        ]
    )


class TestQMeasureProperties:
    @given(
        st.lists(
            st.floats(min_value=-20.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
            min_size=2, max_size=10,
        ),
        st.floats(min_value=1.5, max_value=5.0),
    )
    @settings(max_examples=80)
    def test_scaling_offsets_increases_sse(self, offsets, factor):
        """Spreading a cluster's members apart cannot decrease its SSE
        (all pairwise distances scale up)."""
        tight = band_store(offsets)
        spread = band_store([y * factor for y in offsets])
        members = list(range(len(offsets)))
        sse_tight = cluster_sse(Cluster(0, members, tight))
        sse_spread = cluster_sse(Cluster(0, members, spread))
        assert sse_spread >= sse_tight - 1e-9

    @given(
        st.lists(
            st.floats(min_value=-20.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
            min_size=3, max_size=10,
        )
    )
    @settings(max_examples=80)
    def test_noise_penalty_non_negative(self, offsets):
        store = band_store(offsets)
        labels = np.full(len(offsets), NOISE)
        assert noise_penalty(store, labels) >= 0.0

    @given(
        st.lists(
            st.floats(min_value=-20.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
            min_size=3, max_size=8,
        )
    )
    @settings(max_examples=60)
    def test_penalty_zero_when_nothing_is_noise(self, offsets):
        store = band_store(offsets)
        labels = np.zeros(len(offsets), dtype=np.int64)
        assert noise_penalty(store, labels) == 0.0


# -- QMeasure on the pair kernel -------------------------------------------

#: Lattice coordinates make equal-length ties, shared endpoints and
#: degenerate segments likely; free floats cover generic geometry.
mixed_coordinate = st.one_of(
    st.integers(min_value=-8, max_value=8).map(lambda v: v / 2.0),
    coordinate,
)


@st.composite
def clustering_outcome(draw):
    """A segment store, a label array and a distance: labels are all
    noise, all singletons, noise-free or mixed; weights include zeros."""
    n = draw(st.integers(min_value=1, max_value=24))
    segments = []
    for i in range(n):
        start = [draw(mixed_coordinate), draw(mixed_coordinate)]
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            end = start  # degenerate point segment
        else:
            end = [draw(mixed_coordinate), draw(mixed_coordinate)]
        segments.append(Segment(start, end, traj_id=i % 3, seg_id=i))
    store = SegmentSet.from_segments(segments)
    kind = draw(st.sampled_from(["noise", "singletons", "no-noise", "mixed"]))
    if kind == "noise":
        labels = np.full(n, NOISE)
    elif kind == "singletons":
        labels = np.arange(n)
    else:
        low = 0 if kind == "no-noise" else NOISE
        labels = np.asarray(draw(st.lists(
            st.integers(min_value=low, max_value=3), min_size=n, max_size=n
        )))
    weight = st.sampled_from([0.0, 0.5, 1.0, 2.5])
    weights = draw(st.tuples(weight, weight, weight).filter(any))
    distance = SegmentDistance(*weights, directed=draw(st.booleans()))
    return store, labels, distance


def scalar_qmeasure(store, labels, distance):
    """Formula 11 literally: ``(1 / 2m) * sum_x sum_y dist(x, y)^2`` per
    cluster and for the noise set, by the scalar distance on stored
    segments."""

    def half_mean_square(members):
        total = sum(
            distance(store.segment(int(x)), store.segment(int(y))) ** 2
            for x in members for y in members
        )
        return total / (2.0 * len(members)) if len(members) else 0.0

    clusters = clusters_from_labels(labels, store)
    sse = sum(half_mean_square(c.member_indices) for c in clusters)
    return sse, half_mean_square(np.nonzero(labels == NOISE)[0])


def _qmeasure_under(store, labels, distance, backend, threads, block):
    with kernels.use_backend(backend), mock.patch.dict(
        os.environ, {"REPRO_KERNEL_THREADS": threads}
    ), mock.patch.object(kernels, "DEFAULT_PAIR_BLOCK", block):
        return quality_measure(
            clusters_from_labels(labels, store), store, labels, distance
        )


class TestQMeasurePairKernel:
    @given(clustering_outcome())
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_double_loop(self, outcome):
        store, labels, distance = outcome
        breakdown = quality_measure(
            clusters_from_labels(labels, store), store, labels, distance
        )
        sse, penalty = scalar_qmeasure(store, labels, distance)
        # 1e-9 relative; the absolute floor only absorbs ulp-level
        # residue of pairs whose true distance is 0.
        assert breakdown.total_sse == pytest.approx(sse, rel=1e-9, abs=1e-12)
        assert breakdown.noise_penalty == pytest.approx(
            penalty, rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("threads", ["0", "2"])
    @given(outcome=clustering_outcome(),
           block=st.sampled_from([1, 3, kernels.DEFAULT_PAIR_BLOCK]))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_across_backends_and_threads(
        self, pair_backend, threads, outcome, block
    ):
        """Small blocks split every group over several kernel calls and
        threads: the partial sums still add up in one fixed order."""
        store, labels, distance = outcome
        reference = _qmeasure_under(store, labels, distance, "numpy", "0",
                                    block)
        result = _qmeasure_under(store, labels, distance, pair_backend,
                                 threads, block)
        assert result.total_sse == reference.total_sse
        assert result.noise_penalty == reference.noise_penalty

    @given(clustering_outcome(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_cluster_sse_ignores_member_order(self, outcome, random):
        store, _, distance = outcome
        members = list(range(len(store)))
        shuffled = list(members)
        random.shuffle(shuffled)
        assert cluster_sse(Cluster(0, shuffled, store), distance) == (
            cluster_sse(Cluster(0, members, store), distance)
        )
