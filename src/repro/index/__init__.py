"""Spatial index substrate (Lemma 3, reference [10]).

The paper reduces the grouping phase to O(n log n) by answering
ε-neighborhood queries through a spatial index such as the R-tree.
Lemma 3 needs only *an* index, so the repo keeps one kind: uniform
cells.  :class:`~repro.index.grid.SegmentGrid` registers segment
bounding boxes in a sparse hash grid whose one windowed query serves
the streaming graph (:mod:`repro.stream.dynamic_graph`) as its store
grows and shrinks.  The batched neighbor-graph join
(:mod:`repro.cluster.neighbor_graph`) registers each segment's two
endpoints instead, one cell each, as one vectorized sorted-key join
over a fixed set, and does not use the grid.
"""

from repro.index.grid import SegmentGrid

__all__ = ["SegmentGrid"]
