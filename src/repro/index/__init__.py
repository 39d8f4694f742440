"""Spatial index substrate (Lemma 3, reference [10]).

The paper reduces the grouping phase to O(n log n) by answering
ε-neighborhood queries through a spatial index such as the R-tree.
Lemma 3 needs only *an* index, so the repo keeps one kind: uniform
cells over segment bounding boxes.  :class:`~repro.index.grid.SegmentGrid`
is the dynamic form, a sparse hash grid whose one windowed query serves
the streaming graph (:mod:`repro.stream.dynamic_graph`) as its store
grows and shrinks.  The batched neighbor-graph join
(:mod:`repro.cluster.neighbor_graph`) applies the same cell rules to a
fixed set as one vectorized sorted-key join and does not use the grid.
"""

from repro.index.grid import SegmentGrid

__all__ = ["SegmentGrid"]
