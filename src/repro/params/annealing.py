"""Simulated annealing for ε selection (Section 4.4, reference [14]).

The paper: "This optimal ε can be efficiently obtained by a simulated
annealing technique."  The annealer below is a small generic SA engine
(geometric cooling, Gaussian proposals, Metropolis acceptance) applied
to the entropy objective.  Objective evaluations are memoised on a
quantised ε grid because each one costs a full neighborhood-count pass
over the candidate pairs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.cluster.neighbor_graph import neighborhood_size_counts
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ParameterSearchError
from repro.model.segmentset import SegmentSet
from repro.params.entropy import neighborhood_entropy


class SimulatedAnnealer:
    """Minimise a 1-D objective over a closed interval.

    Parameters
    ----------
    objective:
        Callable ``f(x) -> float`` to minimise.
    bounds:
        ``(lo, hi)`` search interval.
    initial_temperature, cooling, steps:
        Metropolis temperature schedule: ``T_k = T0 * cooling**k`` over
        *steps* iterations.
    step_scale:
        Proposal standard deviation as a fraction of the interval width.
    rng:
        NumPy random generator (seeded for reproducibility by default).
    """

    def __init__(
        self,
        objective: Callable[[float], float],
        bounds: Tuple[float, float],
        initial_temperature: float = 1.0,
        cooling: float = 0.95,
        steps: int = 120,
        step_scale: float = 0.15,
        rng: Optional[np.random.Generator] = None,
    ):
        lo, hi = float(bounds[0]), float(bounds[1])
        if not lo < hi:
            raise ParameterSearchError(f"invalid bounds: ({lo}, {hi})")
        if not 0 < cooling < 1:
            raise ParameterSearchError(f"cooling must be in (0, 1), got {cooling}")
        if steps < 1:
            raise ParameterSearchError(f"steps must be >= 1, got {steps}")
        self.objective = objective
        self.lo, self.hi = lo, hi
        self.initial_temperature = float(initial_temperature)
        self.cooling = float(cooling)
        self.steps = int(steps)
        self.step_scale = float(step_scale)
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def run(self, x0: Optional[float] = None) -> Tuple[float, float]:
        """Anneal; returns ``(best_x, best_value)``."""
        width = self.hi - self.lo
        x = float(x0) if x0 is not None else (self.lo + self.hi) / 2.0
        x = min(max(x, self.lo), self.hi)
        value = self.objective(x)
        best_x, best_value = x, value
        temperature = self.initial_temperature
        for _ in range(self.steps):
            proposal = x + self.rng.normal(0.0, self.step_scale * width)
            proposal = min(max(proposal, self.lo), self.hi)
            proposal_value = self.objective(proposal)
            delta = proposal_value - value
            if delta <= 0 or self.rng.random() < math.exp(
                -delta / max(temperature, 1e-12)
            ):
                x, value = proposal, proposal_value
                if value < best_value:
                    best_x, best_value = x, value
            temperature *= self.cooling
        return best_x, best_value


def anneal_epsilon(
    segments: SegmentSet,
    eps_bounds: Tuple[float, float],
    distance: Optional[SegmentDistance] = None,
    quantum: float = 1.0,
    steps: int = 120,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float, float]:
    """Find the entropy-minimising ε by simulated annealing.

    ε proposals are quantised to *quantum* (the paper sweeps integer ε)
    and each quantised value's entropy is computed at most once, by one
    blocked candidate-pair pass
    (:func:`repro.cluster.neighbor_graph.neighborhood_size_counts`).

    Returns ``(eps, entropy, avg_neighborhood_size)`` at the optimum.
    """
    if distance is None:
        distance = SegmentDistance()
    if len(segments) == 0:
        raise ParameterSearchError("cannot select parameters for zero segments")
    if quantum <= 0:
        raise ParameterSearchError(f"quantum must be positive, got {quantum}")

    cache: Dict[float, Tuple[float, float]] = {}

    def evaluate(eps: float) -> float:
        q = round(eps / quantum) * quantum
        if q not in cache:
            sizes = neighborhood_size_counts(segments, [q], distance)[0]
            cache[q] = (neighborhood_entropy(sizes), float(sizes.mean()))
        return cache[q][0]

    annealer = SimulatedAnnealer(
        evaluate, eps_bounds, steps=steps, rng=rng
    )
    best_eps, best_entropy = annealer.run()
    best_q = round(best_eps / quantum) * quantum
    entropy, avg_size = cache[best_q]
    return best_q, entropy, avg_size
