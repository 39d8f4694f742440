"""The TRACLUS line-segment distance function (Section 2.3).

Three components, adapted from line-segment Hausdorff similarity in
pattern recognition [Chen et al. 2003]:

* **perpendicular distance** ``d_perp`` — Lehmer mean of order 2 of the
  two perpendicular offsets (Definition 1);
* **parallel distance** ``d_par`` — MIN of the two parallel overhangs
  (Definition 2, MIN for robustness to broken segments);
* **angle distance** ``d_theta`` — ``||Lj|| * sin(theta)`` for
  ``theta < 90``, ``||Lj||`` otherwise (Definition 3; the undirected
  variant always uses ``||Lj|| * sin(theta)``).

The weighted sum ``dist = w_perp*d_perp + w_par*d_par + w_theta*d_theta``
is symmetric (Lemma 2) because the longer segment always plays the role
of ``Li``; it is *not* a metric (no triangle inequality), which is why
the index substrate offers constant-shift embedding
(:mod:`repro.extensions.embedding`).

Two implementations are provided and property-tested against each other:

* :mod:`repro.distance.components` — scalar, paper-literal;
* :mod:`repro.distance.vectorized` — the many-pairs kernel behind the
  ε-graph, QMeasure and :meth:`SegmentDistance.pairs` (compiled when a
  kernel backend is active).
"""

from repro.distance.components import (
    ComponentDistances,
    angle_distance,
    component_distances,
    lehmer_mean_order2,
    parallel_distance,
    perpendicular_distance,
)
from repro.distance.weighted import SegmentDistance
from repro.distance.matrix import pairwise_distance_matrix

__all__ = [
    "ComponentDistances",
    "angle_distance",
    "component_distances",
    "lehmer_mean_order2",
    "parallel_distance",
    "perpendicular_distance",
    "SegmentDistance",
    "pairwise_distance_matrix",
]
