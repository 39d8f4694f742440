"""A golden digest of the label diffs a restored stream emits.

The committed ``stream.npz`` fixture (ε = 2, MinLns = 3, a window of 90
segments) is restored and fed a fixed, RNG-free sequence of appends.
Every :class:`~repro.stream.view.LabelDiff` field, ``touched``
included, and the final labels are hashed; the digest pins the stable
cluster ids, the merge/split/visibility events and the per-update work,
not just the labels a batch refit would give.
"""

import hashlib
import os

from repro import kernels
from repro.stream.checkpoint import load_checkpoint

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "fixtures",
    "checkpoints", "stream.npz",
)

#: SHA-256 over every diff of :func:`feed` and the final labels.
DIGEST = "96230ef3ecb88ad60225a5b9a839786574b77e97b0c68eab3fadddecbf5284b3"

EVENTS = ("merges", "splits", "shown", "hidden", "retired")


def feed():
    """Six tracks (ids 10-15) in two bands of three lanes, one point
    per track per round for 50 rounds (300 appends).  Every track
    zigzags by a quarter unit so each append commits a segment.  The
    gap between the bands closes for rounds 10-13 of every 20, so the
    bands' clusters merge, and split again once the window has evicted
    the bridging segments.  All coordinates are exact binary
    fractions."""
    for rnd in range(50):
        gap = 0.75 if rnd % 20 in (10, 11, 12, 13) else 4.0
        zig = 0.25 if rnd % 2 else 0.0
        for track in range(6):
            band, lane = divmod(track, 3)
            y = 0.5 * lane + band * (1.0 + gap) + zig
            yield 10 + track, [[60.0 + rnd, y]]


def encode(diff):
    """A canonical byte string of every field (dicts in key order)."""
    return repr((
        sorted(diff.changed.items()),
        diff.merges,
        diff.splits,
        diff.shown,
        diff.hidden,
        sorted(diff.minima.items()),
        diff.retired,
        diff.touched,
    )).encode()


def test_restored_stream_diffs_match_the_golden_digest(pair_backend):
    digest = hashlib.sha256()
    seen = dict.fromkeys(EVENTS, 0)
    with kernels.use_backend(pair_backend):
        pipeline = load_checkpoint(FIXTURE)
        for traj_id, points in feed():
            diff = pipeline.append(traj_id, points).diff
            digest.update(encode(diff))
            for kind in EVENTS:
                seen[kind] += len(getattr(diff, kind))
    slots, labels = pipeline.labels()
    digest.update(slots.tobytes())
    digest.update(labels.tobytes())
    assert all(seen.values()), seen
    assert digest.hexdigest() == DIGEST
