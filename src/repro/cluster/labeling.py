"""Figure-12 labels as a pure function of the core graph.

The batch scan of :class:`~repro.cluster.dbscan.LineSegmentDBSCAN` is
deterministic in a way that can be *unwound* (the full argument lives in
the :mod:`repro.stream.online_dbscan` docstring):

* a segment is **core** iff its ε-cardinality reaches MinLns;
* the clusters' core sets are the connected **components of the core
  subgraph**, and clusters form in ascending order of their smallest
  core id (their *seed*);
* a **border** (non-core with core neighbors) goes to the
  earliest-formed adjacent component, *unless* it lies in the
  ε-neighborhood of a later-formed cluster's seed — Figure 12 line 07
  assigns the whole seed neighborhood unconditionally, so the last
  adjacent seed wins;
* Step 3 drops clusters whose trajectory cardinality ``|PTR(C)|`` falls
  below a threshold and renumbers survivors densely in formation order.

:func:`figure12_labels` evaluates those rules over arrays, and
:func:`apply_cardinality_filter` is its Step 3.  Two consumers share
them, and each keeps the core set and its components itself: the sweep
engine of :mod:`repro.sweep.engine`, where ε grows over a fixed segment
set, derives every ε step through them, and
:class:`~repro.stream.online_dbscan.OnlineDBSCAN`, where segments arrive
and leave over time, derives its full label array through them (its
per-update diffs apply the same rules to one slot at a time).

Ids are positions ``0 .. n-1``; their numeric order is the batch scan's
positional order (slot order in the stream).
"""

from __future__ import annotations

import numpy as np

from repro.model.cluster import NOISE


def figure12_labels(
    core: np.ndarray,
    parent: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    traj_ids: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """Figure-12 labels of ``traj_ids.size`` segments, Step 3 applied:
    >= 0 cluster ids in formation order, -1 noise.

    ``core`` is the core mask.  ``parent[x]`` is the root of core ``x``:
    the smallest core id of its component, the Figure-12 seed (entries
    of non-cores are not read).  ``edge_u[i] -- edge_v[i]`` are ε-edges,
    read in both directions; only the edges between a core and a
    non-core decide a label, so a caller may pass just those.
    """
    n = traj_ids.size
    labels = np.full(n, NOISE, dtype=np.int64)
    is_root = core & (parent == np.arange(n))
    n_components = int(np.count_nonzero(is_root))
    if n_components == 0:
        return labels
    rank_of = np.cumsum(is_root) - 1  # indexed by root id
    labels[core] = rank_of[parent[core]]
    # Borders, over both directions of the edges: the earliest adjacent
    # component claims the segment unless a later-formed cluster's seed
    # has it in its neighborhood (Figure 12 line 07 overwrites
    # unconditionally — the last adjacent seed wins).
    first_claim = np.full(n, n_components, dtype=np.int64)
    last_seed = np.full(n, -1, dtype=np.int64)
    for node, mate in ((edge_u, edge_v), (edge_v, edge_u)):
        border = core[mate] & ~core[node]
        b_node = node[border]
        b_mate = mate[border]
        b_root = parent[b_mate]
        b_rank = rank_of[b_root]
        np.minimum.at(first_claim, b_node, b_rank)
        seed = b_mate == b_root
        np.maximum.at(last_seed, b_node[seed], b_rank[seed])
    borders = np.flatnonzero(first_claim < n_components)
    labels[borders] = np.where(
        last_seed[borders] >= 0, last_seed[borders], first_claim[borders]
    )
    return apply_cardinality_filter(labels, traj_ids, n_components, threshold)


def apply_cardinality_filter(
    labels: np.ndarray,
    traj_ids: np.ndarray,
    n_clusters: int,
    threshold: float,
) -> np.ndarray:
    """Figure 12 Step 3 in place: drop clusters with ``|PTR(C)| <
    threshold`` and renumber survivors densely in formation order.
    ``traj_ids`` is aligned with *labels*; the (possibly rewritten)
    label array is returned for convenience."""
    if n_clusters == 0:
        return labels
    clustered = labels >= 0
    pairs = np.unique(
        np.stack([labels[clustered], traj_ids[clustered]]), axis=1
    )
    ptr = np.bincount(pairs[0], minlength=n_clusters)
    keep = ptr >= threshold
    dense = np.cumsum(keep) - 1
    labels[clustered] = np.where(
        keep[labels[clustered]], dense[labels[clustered]], NOISE
    )
    return labels
