"""Supervised contrastive representation learning over a fixed labeled pool.

Tuple sampling regimes, U/V-statistic risk estimators with their
Monte Carlo variants, generalization-bound calculators with explicit
constants, norm-constrained models trained by projected SGD, and the
experiment protocols tying them together.
"""

__version__ = "0.1.0"
