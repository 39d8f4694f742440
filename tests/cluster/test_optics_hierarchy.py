"""Tests for the OPTICS hierarchy extraction (Section 7.1 item 2)."""

import numpy as np
import pytest

from repro.cluster.optics import LineSegmentOPTICS
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet


@pytest.fixture
def nested_bands():
    """Two tight sub-bands 3 units apart, both far from a third band —
    a two-level density hierarchy."""
    segments = []
    seg_id = 0
    for base, traj_base in ((0.0, 0), (3.0, 10), (300.0, 20)):
        for k in range(4):
            segments.append(
                Segment([0.0, base + 0.3 * k], [10.0, base + 0.3 * k],
                        traj_id=traj_base + k, seg_id=seg_id)
            )
            seg_id += 1
    return SegmentSet.from_segments(segments)


class TestExtractHierarchy:
    def test_shape(self, nested_bands):
        result = LineSegmentOPTICS(eps=10.0, min_lns=3).fit(nested_bands)
        levels = result.extract_hierarchy([1.0, 5.0])
        assert levels.shape == (2, len(nested_bands))

    def test_fine_level_splits_coarse_level_merges(self, nested_bands):
        result = LineSegmentOPTICS(eps=10.0, min_lns=3).fit(nested_bands)
        fine, coarse = result.extract_hierarchy([1.2, 6.0])
        n_fine = len(set(fine[fine >= 0].tolist()))
        n_coarse = len(set(coarse[coarse >= 0].tolist()))
        # Tight threshold separates the two sub-bands; loose threshold
        # merges them (the far band always stays separate).
        assert n_fine >= 3
        assert n_coarse == 2

    def test_rows_match_individual_extractions(self, nested_bands):
        result = LineSegmentOPTICS(eps=10.0, min_lns=3).fit(nested_bands)
        levels = result.extract_hierarchy([2.0, 4.0])
        assert np.array_equal(levels[0], result.extract_dbscan(2.0))
        assert np.array_equal(levels[1], result.extract_dbscan(4.0))

    def test_coarse_level_never_loses_clustered_mass(self, nested_bands):
        result = LineSegmentOPTICS(eps=10.0, min_lns=3).fit(nested_bands)
        fine, coarse = result.extract_hierarchy([1.2, 6.0])
        # Everything clustered at the fine level stays clustered at the
        # coarse level.
        assert np.all(coarse[fine >= 0] >= 0)
