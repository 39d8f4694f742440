"""Unit tests for incremental DBSCAN label maintenance.

The property tests in ``tests/property/test_stream_equivalence.py``
drive random operation sequences; here the named mechanisms — core
promotion/demotion, merge, split, Step-3 filtering, representative
caching — are each exercised on hand-built geometry.
"""

import numpy as np
import pytest

from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.exceptions import ClusteringError
from repro.stream.checkpoint import decode_clusterer, encode_clusterer
from repro.stream.online_dbscan import OnlineDBSCAN


def parallel_segment(y, traj_id, x0=0.0, x1=10.0):
    return (np.array([x0, y]), np.array([x1, y]), traj_id)


def batch_labels(clusterer):
    segments, _ = clusterer.store.compact()
    _, labels = LineSegmentDBSCAN(
        eps=clusterer.eps,
        min_lns=clusterer.min_lns,
        distance=clusterer.distance,
        cardinality_threshold=clusterer.cardinality_threshold,
        use_weights=clusterer.use_weights,
    ).fit(segments)
    return labels


def assert_matches_batch(clusterer):
    _, labels = clusterer.labels()
    assert np.array_equal(labels, batch_labels(clusterer))


class TestPromotionAndDemotion:
    def test_inserts_promote_to_core(self):
        clusterer = OnlineDBSCAN(eps=2.0, min_lns=3)
        slots = []
        for k in range(3):
            start, end, traj = parallel_segment(0.3 * k, k)
            slots.append(clusterer.insert(start, end, traj))
            assert_matches_batch(clusterer)
        assert all(clusterer.is_core(slot) for slot in slots)

    def test_eviction_demotes_and_labels_follow(self):
        clusterer = OnlineDBSCAN(eps=2.0, min_lns=3)
        slots = [
            clusterer.insert(*parallel_segment(0.3 * k, k)) for k in range(3)
        ]
        clusterer.evict(slots[0])
        assert not any(clusterer.is_core(slot) for slot in slots[1:])
        assert_matches_batch(clusterer)

    def test_noise_absorbed_as_border(self):
        # The band sits at y = 0.0/0.3/0.6; y = 2.4 is within eps only
        # of the nearest band member, so the lone segment stays
        # non-core (cardinality 2 < 3) but borders the cluster.
        clusterer = OnlineDBSCAN(eps=2.0, min_lns=3)
        lone = clusterer.insert(*parallel_segment(2.4, 9))
        _, labels = clusterer.labels()
        assert labels.tolist() == [-1]
        for k in range(3):
            clusterer.insert(*parallel_segment(0.3 * k, k))
        assert not clusterer.is_core(lone)
        _, labels = clusterer.labels()
        assert labels[0] == 0  # border of the new cluster
        assert_matches_batch(clusterer)


class TestMergeAndSplit:
    def build_two_bands(self, clusterer):
        """Two 3-segment bands too far apart to touch."""
        left = [
            clusterer.insert(*parallel_segment(0.3 * k, k)) for k in range(3)
        ]
        right = [
            clusterer.insert(*parallel_segment(20.0 + 0.3 * k, 10 + k))
            for k in range(3)
        ]
        return left, right

    def test_bridge_merges_clusters(self):
        clusterer = OnlineDBSCAN(eps=12.0, min_lns=3)
        self.build_two_bands(clusterer)
        _, labels = clusterer.labels()
        assert labels.max() == 1  # two clusters
        bridge = clusterer.insert(*parallel_segment(10.0, 99))
        assert clusterer.is_core(bridge)
        _, labels = clusterer.labels()
        assert labels.max() == 0  # merged via union
        assert_matches_batch(clusterer)

    def test_evicting_bridge_core_splits_cluster(self):
        """The ISSUE's named edge case: evict a core whose removal
        disconnects the component."""
        clusterer = OnlineDBSCAN(eps=12.0, min_lns=3)
        self.build_two_bands(clusterer)
        bridge = clusterer.insert(*parallel_segment(10.0, 99))
        _, labels = clusterer.labels()
        assert labels.max() == 0
        clusterer.evict(bridge)
        _, labels = clusterer.labels()
        assert labels.max() == 1  # split back into two clusters
        assert_matches_batch(clusterer)

    def test_repromotion_after_demotion_keeps_components_sound(self):
        """Regression: a demoted slot that later re-promotes must mint
        a fresh component token — reusing its slot id as the token
        corrupted any surviving component that still carried it."""
        clusterer = OnlineDBSCAN(eps=2.0, min_lns=3)
        band = [
            clusterer.insert(*parallel_segment(0.3 * k, k)) for k in range(3)
        ]
        helper = clusterer.insert(*parallel_segment(0.9, 3))
        assert clusterer.is_core(band[0])
        # Demote everything by shrinking the band below MinLns.
        clusterer.evict(band[1])
        clusterer.evict(band[2])
        assert not clusterer.is_core(band[0])
        # Re-promote band[0] with fresh neighbors; the old component
        # of the far cluster must stay intact.
        far = [
            clusterer.insert(*parallel_segment(50.0 + 0.3 * k, 10 + k))
            for k in range(3)
        ]
        for k in range(2):
            clusterer.insert(*parallel_segment(-0.3 * (k + 1), 20 + k))
        assert clusterer.is_core(band[0])
        assert all(clusterer.is_core(slot) for slot in far)
        assert_matches_batch(clusterer)

    def test_contested_border_goes_to_earliest_formed_cluster(self):
        clusterer = OnlineDBSCAN(eps=4.0, min_lns=3)
        for k in range(3):
            clusterer.insert(*parallel_segment(0.3 * k, k))
        for k in range(3):
            clusterer.insert(*parallel_segment(6.0 - 0.3 * k, 10 + k))
        # Non-core segment within eps of cores from both clusters.
        clusterer.insert(*parallel_segment(3.2, 50))
        assert_matches_batch(clusterer)

    def test_border_in_later_seed_neighborhood_is_overwritten(self):
        """Regression (found by bench_streaming): Figure 12 line 07
        assigns the whole *seed* neighborhood unconditionally, so a
        border first claimed by an earlier cluster is re-labeled when
        it also lies in a later cluster's seed neighborhood."""
        # All offsets are binary-exact quarters so the eps boundary
        # comparisons are exact.
        clusterer = OnlineDBSCAN(eps=2.0, min_lns=4)
        # Cluster A: four cores at y = 0.0 .. 0.75; seed is y = 0.0.
        for k in range(4):
            clusterer.insert(*parallel_segment(0.25 * k, k))
        # Cluster B: seed at y = 4.75 (inserted first), cores to 5.5.
        for k in range(4):
            clusterer.insert(*parallel_segment(4.75 + 0.25 * k, 10 + k))
        # Border at y = 2.75: within eps of A's non-seed core
        # (y = 0.75, distance exactly 2.0) and of B's *seed*
        # (y = 4.75, distance exactly 2.0); cardinality 3 < 4 keeps it
        # non-core.  Batch labels it B.
        border = clusterer.insert(*parallel_segment(2.75, 50))
        assert not clusterer.is_core(border)
        _, labels = clusterer.labels()
        assert labels[-1] == labels[4]  # border joins B, not A
        assert_matches_batch(clusterer)


class TestFigure12Details:
    def test_trajectory_cardinality_filter(self):
        """A dense band from one trajectory is filtered by Step 3."""
        clusterer = OnlineDBSCAN(eps=2.0, min_lns=3, cardinality_threshold=3)
        for k in range(4):
            clusterer.insert(*parallel_segment(0.2 * k, 7))  # one trajectory
        _, labels = clusterer.labels()
        assert labels.max() == -1  # |PTR| = 1 < 3 -> removed
        assert_matches_batch(clusterer)

    def test_weighted_cardinality(self):
        # cardinality_threshold stays at 2 (|PTR| counts trajectories,
        # not weights) while the weighted |N_eps| reaches MinLns = 4.
        clusterer = OnlineDBSCAN(
            eps=2.0, min_lns=4.0, use_weights=True, cardinality_threshold=2
        )
        for k in range(2):
            start, end, traj = parallel_segment(0.3 * k, k)
            clusterer.insert(start, end, traj, weight=2.0)
        assert_matches_batch(clusterer)
        _, labels = clusterer.labels()
        assert labels.max() == 0  # 2 segments x weight 2 reach MinLns 4

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, weight):
        clusterer = OnlineDBSCAN(eps=5.0, min_lns=2, use_weights=True)
        starts = np.array([[0.0, 0.0], [0.0, 1.0]])
        ends = np.array([[10.0, 0.0], [10.0, 1.0]])
        with pytest.raises(ClusteringError, match="weight"):
            clusterer.insert_batch(
                starts, ends, np.array([0, 1]), weights=np.array([weight, 1.0])
            )

    def test_eps_zero_duplicates(self):
        clusterer = OnlineDBSCAN(eps=0.0, min_lns=2)
        for traj in range(3):
            clusterer.insert(
                np.array([1.0, 1.0]), np.array([2.0, 2.0]), traj
            )
        assert_matches_batch(clusterer)
        clusterer.evict(1)
        assert_matches_batch(clusterer)


def unit_segment(x, y, traj_id):
    """``[x, y] -> [x + 1, y]``.  At ε = 1 two of them on one lane are
    ε-neighbors up to two units apart (sharing an endpoint puts their
    parallel distance at 0), and on lanes half a unit apart up to one
    unit apart."""
    return np.array([x, y]), np.array([x + 1.0, y]), traj_id


def assert_batch_and_restore_agree(clusterer):
    """Labels equal a batch refit, and a checkpoint restore answers the
    same labels and the same stable tokens."""
    arrays, next_token = encode_clusterer(clusterer)
    restored = OnlineDBSCAN(
        eps=clusterer.eps, min_lns=clusterer.min_lns,
        distance=clusterer.distance,
        cardinality_threshold=clusterer.cardinality_threshold,
        use_weights=clusterer.use_weights,
    )
    decode_clusterer(restored, arrays, next_token)
    _, labels = clusterer.labels()
    assert labels.tolist() == batch_labels(clusterer).tolist()
    assert restored.labels()[1].tolist() == labels.tolist()
    assert restored.snapshot_view().dense_map() == (
        clusterer.snapshot_view().dense_map()
    )
    assert restored.export_tokens()[0].tolist() == (
        clusterer.export_tokens()[0].tolist()
    )


def token_pairs(clusterer):
    """``[token, seed]`` of every component, by token."""
    return clusterer.export_tokens()[0].tolist()


class TestLocalRepair:
    """A removal keeps the component's token unless searches from the
    removed cores' neighbours find a split; a split reclusters and
    mints the parts' tokens in ascending seed order; a formation-key
    move re-derives the borders that watch two components."""

    def test_fifo_chain_evicting_the_seed_every_time(self):
        """A window over a chain appended at its right end: every
        eviction removes the oldest core, the component's seed."""
        clusterer = OnlineDBSCAN(eps=1.0, min_lns=3)
        live = [clusterer.insert(*unit_segment(x, 0.0, x)) for x in range(6)]
        clusterer.flush_diff()
        [[token, _]] = token_pairs(clusterer)
        for x in range(6, 16):
            live.append(clusterer.insert(*unit_segment(x, 0.0, x)))
            assert token_pairs(clusterer) == [[token, live[0]]]
            clusterer.evict(live.pop(0))
            diff = clusterer.flush_diff()
            assert (diff.merges, diff.splits, diff.retired) == ((), (), ())
            assert token_pairs(clusterer) == [[token, live[0]]]
            assert diff.minima == {token: live[0]}
            assert_batch_and_restore_agree(clusterer)

    def test_evicting_the_bridging_core_splits_the_component(self):
        """Two chains joined by one core: evicting it splits the
        component, and the parts' tokens are minted in ascending seed
        order after every token the session minted before (the tokens
        reclustering the whole component minted)."""
        clusterer = OnlineDBSCAN(eps=1.0, min_lns=3)
        for x in (0, 1, 2, 3, 4, 8, 9, 10, 11, 12):
            clusterer.insert(*unit_segment(x, 0.0, x))
        bridge = clusterer.insert(*unit_segment(6, 0.0, 6))
        clusterer.flush_diff()
        [[joined, _]] = token_pairs(clusterer)
        clusterer.evict(bridge)
        diff = clusterer.flush_diff()
        assert diff.splits == ((joined, (11, 12)),)
        assert token_pairs(clusterer) == [[11, 0], [12, 5]]
        assert_batch_and_restore_agree(clusterer)

    def test_two_adjacent_cores_evicted_in_one_update_keep_the_band(self):
        """Two lanes: evicting two neighboring cores of one lane leaves
        the other lane holding the band together."""
        clusterer = OnlineDBSCAN(eps=1.0, min_lns=3)
        slots = {
            (x, y): clusterer.insert(*unit_segment(x, y, x))
            for y in (0.0, 0.5) for x in range(8)
        }
        clusterer.flush_diff()
        [[token, _]] = token_pairs(clusterer)
        clusterer.evict(slots[3, 0.0])
        clusterer.evict(slots[4, 0.0])
        diff = clusterer.flush_diff()
        assert (diff.merges, diff.splits, diff.retired) == ((), (), ())
        assert token_pairs(clusterer) == [[token, slots[0, 0.0]]]
        assert_batch_and_restore_agree(clusterer)

    def test_two_adjacent_cores_evicted_in_one_update_split_a_chain(self):
        """One lane: the chain splits, with tokens minted as reclustering
        the whole component minted them."""
        clusterer = OnlineDBSCAN(eps=1.0, min_lns=3)
        slots = [clusterer.insert(*unit_segment(x, 0.0, x)) for x in range(10)]
        clusterer.flush_diff()
        [[token, _]] = token_pairs(clusterer)
        clusterer.evict(slots[4])
        clusterer.evict(slots[5])
        diff = clusterer.flush_diff()
        assert diff.splits == ((token, (10, 11)),)
        assert token_pairs(clusterer) == [[10, 0], [11, 6]]
        assert_batch_and_restore_agree(clusterer)

    def test_demotion_moves_a_key_and_a_contested_border_follows(self):
        """Evicting border 5 demotes cores 1 and 7 (no core is
        evicted): their component keeps its token and its seed moves
        from 1 to 4.  Border 2 is adjacent to cores 0 and 4 of the two
        components and to no removed slot; once 4 is a seed, the later
        seed claims it (Figure 12 line 07).  Only the contested index
        re-derives border 2."""
        clusterer = OnlineDBSCAN(eps=1.0, min_lns=4, cardinality_threshold=1)
        for traj_id, (x, y) in enumerate([
            (2, 0.5), (7, 0.0), (3, 0.0), (0, 0.5), (5, 0.0), (7, 0.5),
            (1, 0.5), (7, 0.0),
        ]):
            clusterer.insert(*unit_segment(x, y, traj_id))
        clusterer.flush_diff()
        assert sorted(clusterer.graph.adjacent(2)) == [0, 4]
        assert token_pairs(clusterer) == [[0, 0], [1, 1]]
        assert clusterer.snapshot_view().dense_map()[2] == 0
        clusterer.evict(5)
        diff = clusterer.flush_diff()
        assert not clusterer.is_core(1) and not clusterer.is_core(7)
        assert token_pairs(clusterer) == [[0, 0], [1, 4]]
        assert diff.changed == {2: (0, 1), 5: (1, None)}
        assert diff.minima == {0: 0, 1: 4}
        assert_batch_and_restore_agree(clusterer)

    def test_weighted_window(self):
        """Weighted segments at random lane positions under a window of
        12: cores come and go, and components split and merge."""
        rng = np.random.default_rng(1)
        clusterer = OnlineDBSCAN(eps=1.0, min_lns=3.0, use_weights=True)
        live, events = [], {"splits": 0, "merges": 0}
        for step in range(60):
            x = float(rng.integers(0, 12))
            y = float(rng.choice([0.0, 0.5]))
            weight = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
            start, end, traj_id = unit_segment(x, y, step % 4)
            live.append(clusterer.insert(start, end, traj_id, weight=weight))
            if len(live) > 12:
                clusterer.evict(live.pop(0))
            diff = clusterer.flush_diff()
            events["splits"] += len(diff.splits)
            events["merges"] += len(diff.merges)
            assert_batch_and_restore_agree(clusterer)
        assert events == {"splits": 4, "merges": 5}
        assert token_pairs(clusterer) == [[72, 50], [73, 48]]
        assert clusterer.export_tokens()[1] == 76



def rounding_band(seed, tiny, last_y=None):
    """Eight unit segments ``[0, y] -> [1, y]``, all within ε = 1.6 of
    each other, whose weights leave out one of about 1e-17: MinLns is
    the ``np.sum`` of the other seven, and the ``np.sum`` of all eight
    (8 lanes, pairwise) rounds below it."""
    rng = np.random.default_rng(seed)
    y = np.append(0.0, rng.uniform(-0.5, -0.1, 7))
    weights = rng.uniform(0.5, 2.0, 8)
    if last_y is not None:
        y[7] = last_y
    weights[tiny] = 1e-17
    min_lns = float(np.sum(np.delete(weights, tiny)))
    assert np.sum(weights) < min_lns
    starts = np.stack([np.zeros(8), y], axis=1)
    ends = np.stack([np.ones(8), y], axis=1)
    return starts, ends, weights, min_lns


class TestWeightedCoreRetest:
    """A weighted row sum can round down when its row grows and up when
    it shrinks, so the core flag is re-tested both ways on every
    cardinality change — and the checkpoint restore, which re-tests
    every slot, agrees with the session it saved."""

    @staticmethod
    def fed(starts, ends, weights, min_lns, mode):
        clusterer = OnlineDBSCAN(
            eps=1.6, min_lns=min_lns, cardinality_threshold=1,
            use_weights=True,
        )
        if mode == "insert":
            for k in range(8):
                clusterer.insert(starts[k], ends[k], k, weight=weights[k])
        else:
            clusterer.insert_batch(starts, ends, np.arange(8), weights)
        return clusterer

    @staticmethod
    def assert_stream_restore_and_batch_agree(clusterer):
        arrays, next_token = encode_clusterer(clusterer)
        restored = OnlineDBSCAN(
            eps=clusterer.eps, min_lns=clusterer.min_lns,
            cardinality_threshold=1, use_weights=True,
        )
        decode_clusterer(restored, arrays, next_token)
        _, labels = clusterer.labels()
        expected = batch_labels(clusterer)
        assert labels.tolist() == expected.tolist()
        assert restored.labels()[1].tolist() == expected.tolist()

    @pytest.mark.parametrize("mode", ["insert", "insert_batch"])
    def test_core_whose_sum_rounds_down_on_insert_is_demoted(self, mode):
        # Segment 7 lies 1.55 above the band: only segment 0 reaches it.
        starts, ends, weights, min_lns = rounding_band(9, 7, last_y=1.55)
        clusterer = self.fed(starts, ends, weights, min_lns, mode)
        assert not clusterer.is_core(0)
        assert batch_labels(clusterer)[7] == -1
        self.assert_stream_restore_and_batch_agree(clusterer)

    @pytest.mark.parametrize("mode", ["insert", "insert_batch"])
    def test_non_core_whose_sum_rounds_up_on_evict_is_promoted(self, mode):
        starts, ends, weights, min_lns = rounding_band(0, 1)
        clusterer = self.fed(starts, ends, weights, min_lns, mode)
        clusterer.evict(1)
        assert clusterer.is_core(0)
        assert batch_labels(clusterer).max() == 0
        self.assert_stream_restore_and_batch_agree(clusterer)


class TestRepresentatives:
    def test_lazy_refresh_reuses_unchanged_clusters(self):
        clusterer = OnlineDBSCAN(eps=2.0, min_lns=3)
        for k in range(4):
            clusterer.insert(*parallel_segment(0.2 * k, k))
        first = clusterer.representatives()
        assert len(first) == 1 and len(first[0].representative) >= 2
        cached = first[0].representative
        # Far-away insert leaves the cluster untouched: cache hit.
        clusterer.insert(*parallel_segment(500.0, 99))
        second = clusterer.representatives()
        assert second[0].representative is cached
        # Touching the cluster invalidates it.
        clusterer.insert(*parallel_segment(0.8, 50))
        third = clusterer.representatives()
        assert third[0].representative is not cached
