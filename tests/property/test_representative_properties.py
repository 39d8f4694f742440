"""Hypothesis property tests for representative-trajectory generation."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import kernels
from repro.exceptions import ClusteringError
from repro.model.cluster import Cluster
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.representative import sweep
from repro.representative.direction import major_axis
from repro.representative.sweep import (
    RepresentativeConfig,
    _householder_frame,
    generate_representative,
)

offset = st.floats(min_value=-20.0, max_value=20.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def eastbound_cluster(draw):
    """Clusters of roughly-eastbound segments (so MinLns=3 positions
    exist and the sweep axis is well defined)."""
    n = draw(st.integers(min_value=3, max_value=12))
    segments = []
    for i in range(n):
        x0 = draw(st.floats(min_value=-10.0, max_value=10.0))
        y0 = draw(offset)
        length = draw(st.floats(min_value=5.0, max_value=30.0))
        slope = draw(st.floats(min_value=-0.3, max_value=0.3))
        segments.append(
            Segment([x0, y0], [x0 + length, y0 + slope * length],
                    seg_id=i, traj_id=i)
        )
    store = SegmentSet.from_segments(segments)
    return Cluster(0, list(range(n)), store)


class TestRepresentativeProperties:
    @given(eastbound_cluster())
    @settings(max_examples=80, deadline=None)
    def test_points_advance_monotonically_along_major_axis(self, cluster):
        rep = generate_representative(cluster, RepresentativeConfig(min_lns=3))
        assume(rep.shape[0] >= 2)
        axis = major_axis(cluster.member_set())
        axis = axis / np.linalg.norm(axis)
        projections = rep @ axis
        assert np.all(np.diff(projections) > 0)

    @given(eastbound_cluster())
    @settings(max_examples=80, deadline=None)
    def test_representative_stays_inside_bounding_box(self, cluster):
        rep = generate_representative(cluster, RepresentativeConfig(min_lns=3))
        assume(rep.shape[0] >= 1)
        box = cluster.member_set().bounding_box()
        pad = 1e-6 + 1e-9 * float(np.max(np.abs(box.hi - box.lo)))
        for point in rep:
            assert np.all(point >= box.lo - pad)
            assert np.all(point <= box.hi + pad)

    @given(eastbound_cluster(), st.floats(min_value=0.5, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_gamma_spacing_respected(self, cluster, gamma):
        rep = generate_representative(
            cluster, RepresentativeConfig(min_lns=3, gamma=gamma)
        )
        assume(rep.shape[0] >= 2)
        axis = major_axis(cluster.member_set())
        axis = axis / np.linalg.norm(axis)
        projections = rep @ axis
        assert np.all(np.diff(projections) >= gamma - 1e-6)

    @given(eastbound_cluster())
    @settings(max_examples=40, deadline=None)
    def test_larger_min_lns_never_adds_points(self, cluster):
        small = generate_representative(cluster, RepresentativeConfig(min_lns=3))
        large = generate_representative(cluster, RepresentativeConfig(min_lns=6))
        assert large.shape[0] <= small.shape[0]


def paper_loop_representative(cluster, config):
    """Figure 15 as the paper writes it, the bitwise reference for the
    sorted crossing ranges: every member is tested at every sweep
    position, and the crossing members' interpolated points are
    averaged with ``mean(axis=0)``."""
    members = cluster.member_set()
    frame = _householder_frame(major_axis(members))
    starts = members.starts @ frame.T
    ends = members.ends @ frame.T
    x_low = np.minimum(starts[:, 0], ends[:, 0])
    x_high = np.maximum(starts[:, 0], ends[:, 0])
    sweep_positions = np.sort(np.concatenate([starts[:, 0], ends[:, 0]]))
    span = float(sweep_positions[-1] - sweep_positions[0])
    min_gap = max(1e-12, 1e-9 * span)
    representative = []
    last_inserted_x = None
    for x in sweep_positions:
        crossing = np.nonzero((x_low <= x) & (x <= x_high))[0]
        if crossing.size < config.min_lns:
            continue
        if last_inserted_x is not None:
            diff = x - last_inserted_x
            if diff < config.gamma or diff < min_gap:
                continue
        s, e = starts[crossing], ends[crossing]
        seg_span = e[:, 0] - s[:, 0]
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(
                seg_span != 0.0,
                (x - s[:, 0]) / np.where(seg_span != 0, seg_span, 1.0),
                0.5,
            )
        t = np.clip(t, 0.0, 1.0)
        average = (s + t[:, None] * (e - s)).mean(axis=0)
        average[0] = x
        representative.append(frame.T @ average)
        last_inserted_x = float(x)
    if not representative:
        return np.empty((0, members.dim), dtype=np.float64)
    return np.vstack(representative)


# Lattice values (exact ties, shared endpoints, signed zeros) mixed with
# free floats (rounding that a different summation order would show).
sweep_coordinate = st.one_of(
    st.integers(min_value=-24, max_value=24).map(lambda v: v / 4.0),
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-50.0, max_value=50.0,
              allow_nan=False, allow_infinity=False),
)


@st.composite
def sweep_case(draw):
    """A cluster and a Figure-15 config over the cases the sweep
    branches on.  In *aligned* clusters every member runs along +x or
    comes with its exact reverse, so the average direction is exactly
    +x, the frame is the identity and a member with no x extent has
    exactly zero X' extent (the midpoint branch)."""
    d = draw(st.sampled_from([2, 3, 4]))
    aligned = draw(st.booleans())
    n_target = draw(st.integers(min_value=1, max_value=30))

    def point():
        return [draw(sweep_coordinate) for _ in range(d)]

    segments = []
    while len(segments) < n_target:
        start = point()
        if segments and draw(st.integers(0, 4)) == 0:
            # Duplicate endpoints: reuse a member's start or end.
            source = draw(st.sampled_from(segments))
            start = list(draw(st.sampled_from(source)))
        if aligned:
            if draw(st.booleans()):
                length = draw(st.integers(min_value=0, max_value=40)) / 4.0
                segments.append((start, [start[0] + length, *start[1:]]))
            else:
                offset = [0.0, *point()[1:]]
                other = point()
                segments.append(
                    (start, [a + b for a, b in zip(start, offset)])
                )
                segments.append(
                    (other, [a - b for a, b in zip(other, offset)])
                )
        else:
            drift = [draw(st.floats(min_value=2.0, max_value=20.0)),
                     *[0.0] * (d - 1)]
            end = [a + b + c for a, b, c in zip(start, drift, point())]
            segments.append((start, end))
    store = SegmentSet.from_segments(
        [Segment(a, b, seg_id=i, traj_id=i) for i, (a, b) in enumerate(segments)]
    )
    cluster = Cluster(0, list(range(len(segments))), store)
    # Fractional MinLns, and sometimes more than the cluster can reach.
    min_lns = draw(st.integers(min_value=2, max_value=len(segments) + 4)) / 2.0
    gamma = draw(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.5]))
    return cluster, RepresentativeConfig(min_lns=min_lns, gamma=gamma)


def _outcome(cluster, config, generate):
    try:
        return generate(cluster, config)
    except ClusteringError as error:  # every endpoint coincides: no axis
        return str(error)


def assert_bitwise_equal(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _kernel_backends():
    """numpy plus every compiled backend; unavailable ones skip,
    visibly."""
    statuses = kernels.available_backends()
    return ["numpy"] + [
        pytest.param(name, marks=pytest.mark.skipif(
            not statuses[name].startswith("ok"),
            reason=f"{name}: {statuses[name]}",
        ))
        for name in ("cext",)
    ]


class TestMatchesThePaperLoop:
    """The sorted crossing ranges and the crossing-sum kernel return the
    paper loop's representative bit for bit."""

    @pytest.mark.parametrize("backend", _kernel_backends())
    @given(sweep_case())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_the_paper_loop(self, backend, case):
        cluster, config = case
        want = _outcome(cluster, config, paper_loop_representative)
        with kernels.use_backend(backend):
            got = _outcome(cluster, config, generate_representative)
        assert_bitwise_equal(got, want)

    @given(sweep_case(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_numpy_row_blocks(self, case, pair_block):
        """Row blocks far smaller than a cluster's pairs still add each
        row's terms in ascending member order."""
        cluster, config = case
        want = _outcome(cluster, config, paper_loop_representative)
        blocked = functools.partial(
            sweep._crossing_sums_numpy, pair_block=pair_block
        )
        with kernels.use_backend("numpy"), mock.patch.object(
            sweep, "_crossing_sums_numpy", blocked
        ):
            got = _outcome(cluster, config, generate_representative)
        assert_bitwise_equal(got, want)
