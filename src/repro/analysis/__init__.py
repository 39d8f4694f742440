"""Reusable experiment harnesses.

The paper's evaluation workflow — sweep ε for the entropy curve, scan a
(ε, MinLns) grid with QMeasure, compare parameter settings — applies to
any trajectory dataset, not just the paper's.  This subpackage packages
those workflows behind one-call functions so downstream users can run
the Section 4.4/5.x analysis on their own data.  The `benchmarks/`
harness does not import it: its figure scripts print the
paper-vs-measured tables from the Workspace, ``traclus`` and the
partition engines directly.
"""

from repro.analysis.experiments import (
    EntropyCurveResult,
    ParameterSweepRow,
    QMeasureGridResult,
    qmeasure_grid,
    entropy_curve_experiment,
    parameter_sweep,
)

__all__ = [
    "EntropyCurveResult",
    "ParameterSweepRow",
    "QMeasureGridResult",
    "qmeasure_grid",
    "entropy_curve_experiment",
    "parameter_sweep",
]
