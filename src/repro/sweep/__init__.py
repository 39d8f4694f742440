"""Amortised (ε, MinLns) parameter sweeps.

One phase-1 pass, one ε_max neighbor graph, every grid point derived
incrementally — see :mod:`repro.sweep.engine`.
"""

from repro.sweep.engine import SweepEngine, SweepResult

__all__ = ["SweepEngine", "SweepResult"]
