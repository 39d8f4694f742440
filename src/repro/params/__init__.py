"""Parameter-value selection heuristics (Section 4.4).

ε is chosen by minimising the entropy of the neighborhood-size
distribution (Formula 10) — uniform ``|N_eps|`` (everything is a
neighbor, or nothing is) maximises entropy, while a good clustering
skews it.  The optimum may be located by exhaustive grid search or by
the paper's simulated annealing.  MinLns is then the average
``|N_eps|`` at the chosen ε plus 1-3.
"""

from repro.params.entropy import (
    neighborhood_entropy,
    neighborhood_size_curve,
    entropy_from_counts,
)
from repro.params.annealing import SimulatedAnnealer, anneal_epsilon
from repro.params.heuristic import ParameterEstimate, recommend_parameters

__all__ = [
    "neighborhood_entropy",
    "neighborhood_size_curve",
    "entropy_from_counts",
    "SimulatedAnnealer",
    "anneal_epsilon",
    "ParameterEstimate",
    "recommend_parameters",
]
