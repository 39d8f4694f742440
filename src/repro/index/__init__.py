"""Spatial index substrate (Lemma 3, reference [10]).

The paper reduces the grouping phase to O(n log n) by answering
ε-neighborhood queries through a spatial index such as the R-tree.
Lemma 3 needs only *an* index, so the repo keeps one:
:class:`~repro.index.grid.SegmentGrid`, a sparse uniform hash grid over
segment bounding boxes.  The batched neighbor-graph join
(:mod:`repro.cluster.neighbor_graph`) and the streaming graph
(:mod:`repro.stream.dynamic_graph`) both draw their candidates from it.
"""

from repro.index.grid import SegmentGrid

__all__ = ["SegmentGrid"]
