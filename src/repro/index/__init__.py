"""Spatial index substrate (Lemma 3, reference [10]).

The paper reduces the grouping phase to O(n log n) by answering
ε-neighborhood queries through a spatial index such as the R-tree.
Lemma 3 needs only *an* index, so the repo keeps one kind: uniform
cells over segment endpoints, with one candidate rule — a pair is a
candidate when one of its four endpoint pairs lies within
:func:`~repro.cluster.neighbor_graph.candidate_radius`.
:class:`~repro.index.grid.SegmentGrid` is the dynamic form: it
registers each segment's two endpoints in a sparse hash grid as the
streaming graph's store grows and shrinks
(:mod:`repro.stream.dynamic_graph`).  The batched neighbor-graph join
(:mod:`repro.cluster.neighbor_graph`) applies the same rule and the
same :func:`~repro.cluster.neighbor_graph.endpoint_pairs` test to a
fixed set in one vectorized sorted-key pass, without the grid.
"""

from repro.index.grid import SegmentGrid

__all__ = ["SegmentGrid"]
