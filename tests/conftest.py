"""Shared fixtures: small deterministic datasets and segment stores."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import generate_corridor_set
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.model.trajectory import Trajectory


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def straight_trajectory():
    """20 points on a straight line with microscopic jitter."""
    x = np.linspace(0.0, 100.0, 20)
    y = 0.001 * np.sin(x)
    return Trajectory(np.column_stack([x, y]), traj_id=0)


@pytest.fixture
def l_shaped_trajectory():
    """A right-angle turn at (50, 0)."""
    leg1 = np.column_stack([np.linspace(0, 50, 10), np.zeros(10)])
    leg2 = np.column_stack([np.full(10, 50.0), np.linspace(5, 50, 10)])
    return Trajectory(np.vstack([leg1, leg2]), traj_id=1)


@pytest.fixture
def random_segments(rng):
    """40 random segments spread over a 100x100 box, 5 trajectories."""
    segments = [
        Segment(
            rng.uniform(0, 100, 2), rng.uniform(0, 100, 2),
            traj_id=int(i % 5), seg_id=i,
        )
        for i in range(40)
    ]
    return SegmentSet.from_segments(segments)


@pytest.fixture
def parallel_band_segments():
    """Three bundles of parallel unit segments: a tight band of 6 that
    should cluster, plus 2 isolated outliers."""
    segments = []
    seg_id = 0
    for k in range(6):  # tight band, one per trajectory
        y = k * 0.5
        segments.append(
            Segment([0.0, y], [10.0, y], traj_id=k, seg_id=seg_id)
        )
        seg_id += 1
    segments.append(Segment([50.0, 50.0], [60.0, 50.0], traj_id=90, seg_id=seg_id))
    seg_id += 1
    segments.append(Segment([80.0, -40.0], [90.0, -40.0], traj_id=91, seg_id=seg_id))
    return SegmentSet.from_segments(segments)


@pytest.fixture
def corridor_trajectories():
    """Ten Figure-1 style trajectories sharing one corridor."""
    return generate_corridor_set(n_trajectories=10, seed=5)


@pytest.fixture(scope="session", params=["numpy", "cext"])
def pair_backend(request):
    """Each kernel backend name in turn; ``cext`` skips, naming why,
    on a host where it is unavailable."""
    from repro import kernels

    status = kernels.available_backends()[request.param]
    if not status.startswith("ok"):
        pytest.skip(f"{request.param}: {status}")
    return request.param
