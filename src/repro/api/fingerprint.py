"""Content fingerprints for Workspace artifact keys.

An artifact key is a BLAKE2b digest over (a) the bytes of the corpus
the workspace is bound to and (b) exactly the configuration fields
that can change the artifact's value — nothing else.  Two
consequences the cache tests pin:

* changing any result-affecting knob (a distance weight, the
  suppression constant, ``use_weights``, a grid value) changes the key,
  so a stale artifact can never be served;
* nothing result-neutral enters a key.  The hot-kernel backend is not
  a configuration field at all: the host picks it, and its compiled
  kernels are parity-gated bitwise against numpy, so a numpy host and
  a compiled host share one cache directory.

Digests are hex strings; arrays contribute dtype, shape, and raw bytes
(so ``float64`` values with different spellings but equal bits share a
key, and equal values with different dtypes do not collide).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

from repro.model.segmentset import SegmentSet
from repro.model.trajectory import Trajectory

#: Digest size (bytes) — 16 gives 128-bit keys, far beyond collision
#: risk for a cache directory while keeping filenames short.
_DIGEST_SIZE = 16


def _update_array(digest, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())


def _update_scalar(digest, value) -> None:
    if isinstance(value, float):
        # Hash the exact bits: 30.0 and 30.0000000000000004 must differ.
        digest.update(np.float64(value).tobytes())
    else:
        digest.update(repr(value).encode())


def corpus_fingerprint(trajectories: Sequence[Trajectory]) -> str:
    """Fingerprint of a trajectory corpus: ids, weights, timestamps,
    and every point's exact bytes, in corpus order."""
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    digest.update(b"corpus/trajectories")
    for trajectory in trajectories:
        _update_scalar(digest, trajectory.traj_id)
        _update_scalar(digest, trajectory.weight)
        if trajectory.times is not None:
            _update_array(digest, trajectory.times)
        else:
            digest.update(b"untimed")
        _update_array(digest, trajectory.points)
    return digest.hexdigest()


def segments_fingerprint(segments: SegmentSet) -> str:
    """Fingerprint of an already-partitioned segment set (the
    segment-bound workspace flavor used by the figure benchmarks)."""
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    digest.update(b"corpus/segments")
    _update_array(digest, segments.starts)
    _update_array(digest, segments.ends)
    _update_array(digest, segments.traj_ids)
    _update_array(digest, segments.weights)
    return digest.hexdigest()


def artifact_key(parts: Iterable) -> str:
    """Combine heterogeneous key parts (strings, numbers, arrays,
    ``None``) into one hex key."""
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    for part in parts:
        # One tag byte per value class so e.g. None, the string
        # "none", and a scalar can never collide.
        if part is None:
            digest.update(b"|N")
        elif isinstance(part, np.ndarray):
            digest.update(b"|A")
            _update_array(digest, part)
        elif isinstance(part, str):
            digest.update(b"|S")
            digest.update(part.encode())
        else:
            digest.update(b"|V")
            _update_scalar(digest, part)
    return digest.hexdigest()
