"""First-class label diffs and the incremental label view they fold into.

``StreamingTRACLUS`` used to rebuild the full O(live) label array on
every append just to report what changed.  :class:`LabelDiff` is the
replacement: an O(delta) description of one update in terms of *stable
cluster ids* — the core-component tokens of
:class:`~repro.stream.online_dbscan.OnlineDBSCAN`, which survive appends,
window evictions, and slot compaction (a merge keeps the survivor's
token, a repair that does not split keeps the original token).

Stable ids deliberately differ from the dense batch labels
(``labels()``): dense ids are formation-order *ranks* after the Step-3
filter, so a single merge or visibility flip renumbers every later
cluster — any diff expressed in dense ids is O(live) in the worst
case.  A :class:`LabelView` folds diffs back into a full slot map and
derives the dense batch-identical array on demand: visible tokens are
ranked by their formation key (the component's smallest core slot) and
renumbered densely, which is exactly the order
:func:`~repro.cluster.labeling.figure12_labels` produces.  The property
suite pins the round trip bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ClusteringError
from repro.model.cluster import NOISE


@dataclass(frozen=True)
class LabelDiff:
    """What one update did to the stable-id label view.

    ``changed`` maps slot -> (old, new) stable visible labels, where
    ``None`` means "not in the window" on that side and ``-1`` is
    noise (which includes membership in a cluster currently dropped by
    the Step-3 filter).  Every slot whose visible label moved has an
    entry — including the members of clusters that merged, split, or
    flipped visibility — so folding ``changed`` alone reproduces the
    full view; the event fields below are cluster-level metadata for
    consumers that track cluster identities.

    ``minima`` carries the formation key (smallest core slot) for
    every visible cluster the update touched; a view needs those to
    rank visible clusters into dense batch labels.  ``retired`` lists
    tokens that no longer exist (absorbed by a merge, replaced by a
    split, or emptied) so views can drop their bookkeeping.

    ``touched`` counts the slots whose assignment was re-derived — the
    actual per-update label work, which the benchmarks pin as O(delta)
    rather than O(live).
    """

    changed: Dict[int, Tuple[Optional[int], Optional[int]]]
    merges: Tuple[Tuple[int, int], ...] = ()
    splits: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    shown: Tuple[int, ...] = ()
    hidden: Tuple[int, ...] = ()
    minima: Dict[int, int] = field(default_factory=dict)
    retired: Tuple[int, ...] = ()
    touched: int = 0

    def __bool__(self) -> bool:
        return bool(self.changed)


class LabelView:
    """A slot -> stable-label map maintained by folding diffs.

    The view is what a served consumer keeps: apply every
    :class:`LabelDiff` in order (and :meth:`remap` when the producer
    compacts its slot store) and :meth:`dense_labels` answers the
    batch question — bitwise identical to
    :meth:`OnlineDBSCAN.labels <repro.stream.online_dbscan.OnlineDBSCAN.labels>`
    on the producer — without the producer ever materializing it.
    """

    __slots__ = ("_labels", "_minima", "_counts", "version")

    def __init__(self):
        self._labels: Dict[int, int] = {}
        self._minima: Dict[int, int] = {}
        self._counts: Dict[int, int] = {}
        self.version = 0

    # -- folding -----------------------------------------------------------
    def apply(self, diff: LabelDiff) -> None:
        """Fold one diff (minima first: ``changed`` may introduce
        clusters whose rank key arrives in the same diff)."""
        self._minima.update(diff.minima)
        for slot, (_, new) in diff.changed.items():
            old = self._labels.pop(slot, None)
            if old is not None and old >= 0:
                remaining = self._counts[old] - 1
                if remaining:
                    self._counts[old] = remaining
                else:
                    del self._counts[old]
            if new is None:
                continue
            self._labels[slot] = new
            if new >= 0:
                self._counts[new] = self._counts.get(new, 0) + 1
        for token in diff.retired:
            self._minima.pop(token, None)
        self.version += 1

    def remap(self, mapping: Dict[int, int]) -> None:
        """Follow a producer-side slot compaction (old -> new ids).
        Formation keys are slot ids too, so they are renamed as well;
        the map is monotone, so ranks are unchanged."""
        self._labels = {
            mapping[slot]: label for slot, label in self._labels.items()
        }
        self._minima = {
            token: mapping[slot] for token, slot in self._minima.items()
        }
        self.version += 1

    # -- queries -----------------------------------------------------------
    @property
    def n_live(self) -> int:
        return len(self._labels)

    @property
    def n_clusters(self) -> int:
        """Visible clusters (the dense label space size)."""
        return len(self._counts)

    def dense_rank(self) -> Dict[int, int]:
        """Stable token -> dense formation-order rank for the visible
        clusters."""
        try:
            ordered = sorted(self._counts, key=self._minima.__getitem__)
        except KeyError as missing:  # pragma: no cover - producer bug
            raise ClusteringError(
                f"label view has no formation key for cluster {missing}; "
                f"was a diff applied out of order?"
            )
        return {token: rank for rank, token in enumerate(ordered)}

    def dense_labels(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(slots, labels)`` — live slots ascending with dense batch
        labels, exactly what the producer's ``labels()`` returns."""
        slots = np.fromiter(
            sorted(self._labels), dtype=np.int64, count=len(self._labels)
        )
        rank = self.dense_rank()
        labels = np.fromiter(
            (
                rank.get(self._labels[int(slot)], NOISE)
                for slot in slots
            ),
            dtype=np.int64,
            count=slots.size,
        )
        return slots, labels

    def dense_map(self) -> Dict[int, int]:
        """Slot -> dense label over the live set (``-1`` noise)."""
        rank = self.dense_rank()
        return {
            slot: rank.get(label, NOISE)
            for slot, label in self._labels.items()
        }

    def __repr__(self) -> str:
        return (
            f"LabelView(n_live={self.n_live}, "
            f"n_clusters={self.n_clusters}, version={self.version})"
        )
