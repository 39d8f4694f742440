"""A golden digest of the label diffs a restored stream emits.

The committed ``stream.npz`` fixture (ε = 2, MinLns = 3, a window of 90
segments) is restored and fed a fixed, RNG-free sequence of appends.
Two values are pinned apart: a digest of every
:class:`~repro.stream.view.LabelDiff` field but ``touched``, plus the
final labels, pins the semantics (the stable cluster ids, the
merge/split/visibility events, not just the labels a batch refit would
give); the per-diff ``touched`` sequence pins the work.  A change that
re-derives fewer slots for the same diffs moves only the second.
"""

import hashlib
import os

from repro import kernels
from repro.stream.checkpoint import load_checkpoint

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "fixtures",
    "checkpoints", "stream.npz",
)

#: SHA-256 over every diff of :func:`feed` (all fields but ``touched``)
#: and the final labels.
DIGEST = "c1786fbbc48341961736f4bd5dc7327ccc85f92df7f0b6cbf1dc618af3e724f8"

#: SHA-256 over the ``repr`` of the per-diff ``touched`` list, and its
#: sum.
TOUCHED_DIGEST = (
    "c76a0d717d23dbc7546f927b3e66188de71070b557f5415bd8fce9a15a57f67a"
)
TOUCHED_TOTAL = 5544

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
    """A canonical byte string of every field but ``touched`` (dicts in
    key order)."""
    return repr((
        sorted(diff.changed.items()),
        diff.merges,
        diff.splits,
        diff.shown,
        diff.hidden,
        sorted(diff.minima.items()),
        diff.retired,
    )).encode()


def test_restored_stream_diffs_match_the_golden_digest(pair_backend):
    digest = hashlib.sha256()
    touched = []
    seen = dict.fromkeys(EVENTS, 0)
    with kernels.use_backend(pair_backend):
        pipeline = load_checkpoint(FIXTURE)
        for traj_id, points in feed():
            diff = pipeline.append(traj_id, points).diff
            digest.update(encode(diff))
            touched.append(diff.touched)
            for kind in EVENTS:
                seen[kind] += len(getattr(diff, kind))
    slots, labels = pipeline.labels()
    digest.update(slots.tobytes())
    digest.update(labels.tobytes())
    assert all(seen.values()), seen
    assert digest.hexdigest() == DIGEST
    assert sum(touched) == TOUCHED_TOTAL
    assert hashlib.sha256(repr(touched).encode()).hexdigest() == (
        TOUCHED_DIGEST
    )
