"""Exact npz (de)serialization of Workspace artifacts.

One artifact == one ``.npz`` file: a flat dict of NumPy arrays plus a
JSON metadata record (stored as a uint8 byte array under
``__meta__``).  ``numpy`` round-trips raw array bytes, so every dtype —
int64 labels and counts, float64 distances and coordinates — is
restored **bitwise**; the round-trip tests in
``tests/api/test_cache.py`` pin exactly that.

Writes go through :func:`write_npz` — a temp file + :func:`os.replace`
— so a crashed or interrupted run can never leave a half-written
artifact behind: readers see either the previous version or the new
one.  Stream and shard-merger checkpoints are written the same way.

Ragged lists (per-trajectory characteristic points, per-cluster
representative polylines) are packed as ``(flat, offsets)`` pairs by
:func:`pack_ragged` / :func:`unpack_ragged`.
"""

from __future__ import annotations

import json
import os
import uuid
import zipfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ReproError

#: Metadata key inside the npz payload (reserved; artifacts cannot use it).
META_KEY = "__meta__"

#: What reading a damaged artifact raises: ``EOFError`` for an empty
#: file, ``zipfile.BadZipFile`` for a truncated one, ``ValueError`` for
#: a damaged member or meta record.
DAMAGED_NPZ_ERRORS = (EOFError, ValueError, zipfile.BadZipFile)


def pack_ragged(
    rows: Sequence[Sequence[float]], dtype=np.int64
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack a list of variable-length rows into ``(flat, offsets)``;
    row *i* is ``flat[offsets[i]:offsets[i + 1]]``."""
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    if offsets[-1] == 0:
        return np.empty(0, dtype=dtype), offsets
    flat = np.concatenate([np.asarray(row, dtype=dtype) for row in rows if len(row)])
    return flat, offsets


def unpack_ragged(flat: np.ndarray, offsets: np.ndarray) -> List[np.ndarray]:
    """Invert :func:`pack_ragged`."""
    return [
        flat[offsets[i]:offsets[i + 1]] for i in range(offsets.size - 1)
    ]


def write_npz(path: str, arrays: Dict[str, np.ndarray], compressed: bool = False) -> str:
    """Write *arrays* as one ``.npz`` file, atomically (temp file +
    rename): an interrupted write leaves the previous file intact and
    no temp file behind.  Like ``np.savez`` on a path, ``.npz`` is
    appended when *path* lacks it; returns the path written."""
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    # The temp name must be unique per *call*, not per process: two
    # threads of one serving process writing the same artifact would
    # otherwise share a temp path (one clobbers the other's bytes, and
    # an unconditional cleanup can unlink a peer's in-flight temp).
    # Created like any new file (not mkstemp's 0600), so the result has
    # the permissions ``np.savez`` on the path would give it.
    tmp = f"{os.path.abspath(path)}.tmp.{uuid.uuid4().hex}"
    handle = open(tmp, "xb")
    try:
        with handle:
            (np.savez_compressed if compressed else np.savez)(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - already gone
            pass
        raise
    return path


def save_artifact(
    path: str, arrays: Dict[str, np.ndarray], meta: Optional[dict] = None
) -> None:
    """Write one artifact atomically (:func:`write_npz`)."""
    if META_KEY in arrays:
        raise ReproError(f"array name {META_KEY!r} is reserved for metadata")
    payload = dict(arrays)
    payload[META_KEY] = np.frombuffer(
        json.dumps(meta or {}, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    write_npz(path, payload)


def load_artifact(path: str) -> Tuple[Dict[str, np.ndarray], dict]:
    """Read one artifact back as ``(arrays, meta)``."""
    # The file is opened here, not by ``np.load``: numpy leaves a file
    # it opened itself open when the zip read of a damaged one raises.
    with open(path, "rb") as handle, np.load(handle) as archive:
        arrays = {
            name: archive[name] for name in archive.files if name != META_KEY
        }
        meta = (
            json.loads(archive[META_KEY].tobytes().decode("utf-8"))
            if META_KEY in archive.files
            else {}
        )
    return arrays, meta


def load_artifact_meta(path: str) -> dict:
    """Read only the metadata record of an artifact.

    ``np.load`` decompresses zip members lazily, so this touches just
    the small ``__meta__`` byte array — the inspector can index a cache
    directory full of multi-MB graphs without materialising any of
    them."""
    with open(path, "rb") as handle, np.load(handle) as archive:
        if META_KEY not in archive.files:
            return {}
        return json.loads(archive[META_KEY].tobytes().decode("utf-8"))
