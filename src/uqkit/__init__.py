"""uqkit: numerical toolkit for model comparison and uncertainty quantification.

Modules cover empirical-distribution primitives, the almost-stochastic-order
significance test and its classical baselines, Monte Carlo error-rate harnesses,
split and nearest-neighbor-weighted conformal prediction, a binary vector
datastore with exact and inverted-file search, calibration/discrimination
metrics, closed-form Dirichlet quantities, and a synthetic sequence model for
desk-scale conformal experiments.
"""

__version__ = "0.1.0"
