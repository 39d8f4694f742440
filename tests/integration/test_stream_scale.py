"""A windowed stream with large components: every label diff and the
final labels of 8,000 appends are pinned.

The shape is the stream-window benchmark's: hurricane corpora of 570
storms at ε = 6, MinLns = 7 under a window of 4,000 segments.  The
first half of every track of the first corpus is bulk-loaded; the rest
of it, then three more corpora, are appended four points at a time,
round-robin across tracks.  Components here hold about two thousand
cores, so the label repair's local "no split" proof and its split
fallback both run thousands of times — unlike the small digest fixture
of ``tests/stream/test_label_diff_digest.py``.  The replay takes about
10 s, so the test is marked ``slow``.
"""

import hashlib

import numpy as np
import pytest

from repro import StreamConfig, StreamingTRACLUS, Trajectory
from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.datasets.hurricane import generate_hurricane_tracks

EPS, MIN_LNS, WINDOW, CHUNK = 6.0, 7.0, 4000, 4

#: SHA-256 over every diff of the 8,000 appends (all fields but
#: ``touched``, which counts work) and the final labels.
DIGEST = "abf9fafc27ff6bd2950f7bf400af3808d1af347a5560b074fcd43917db67dcb9"


def round_robin(tracks):
    """``(traj_id, points)`` chunks: CHUNK points of every track in
    turn, until all are fed."""
    for offset in range(0, max(len(points) for _, points in tracks), CHUNK):
        for traj_id, points in tracks:
            if offset < len(points):
                yield traj_id, points[offset:offset + CHUNK]


def stream_and_feed():
    corpora = [generate_hurricane_tracks(570, seed=seed) for seed in range(4)]
    stream = StreamingTRACLUS(
        StreamConfig(eps=EPS, min_lns=MIN_LNS, max_segments=WINDOW)
    )
    halves = [len(track) // 2 for track in corpora[0]]
    stream.bulk_load([
        Trajectory(track.points[:half], traj_id=track.traj_id)
        for track, half in zip(corpora[0], halves)
    ])
    feed = list(round_robin([
        (track.traj_id, track.points[half:])
        for track, half in zip(corpora[0], halves)
    ]))
    feed.extend(round_robin([
        (block * 1_000_000 + track.traj_id, track.points)
        for block in range(1, 4) for track in corpora[block]
    ]))
    return stream, feed


def encode(diff):
    return repr((
        sorted(diff.changed.items()), diff.merges, diff.splits, diff.shown,
        diff.hidden, sorted(diff.minima.items()), diff.retired,
    )).encode()


@pytest.mark.slow
def test_windowed_stream_with_large_components():
    stream, feed = stream_and_feed()
    digest = hashlib.sha256()
    splits = 0
    for traj_id, points in feed[:8000]:
        diff = stream.append(traj_id, points).diff
        digest.update(encode(diff))
        splits += len(diff.splits)
    slots, labels = stream.labels()
    digest.update(slots.tobytes())
    digest.update(labels.tobytes())
    survivors, survivor_slots = stream.clusterer.store.compact()
    _, refit = LineSegmentDBSCAN(eps=EPS, min_lns=MIN_LNS).fit(survivors)
    assert np.array_equal(slots, survivor_slots)
    assert np.array_equal(labels, refit)
    assert splits >= 100
    assert digest.hexdigest() == DIGEST
