"""Supervised contrastive representation learning over a fixed labeled pool.

Tuple sampling regimes, U/V-statistic risk estimators with their
Monte Carlo variants, generalization-bound calculators with explicit
constants, norm-constrained models trained by projected SGD, and the
experiment protocols tying them together.
"""

__version__ = "0.1.0"

from .dataset import GaussianSpec, LabeledDataset, generate_gaussian, load_idx
from .errors import (ConfigError, FormatError, NumericError,
                     PreconditionError, SizeError, UscrlError)
from .loss import LossSpec, default_clip, loss_grad, loss_value
from .model import (LinearModel, MlpModel, load_checkpoint, make_linear,
                    make_mlp, mean_classifier, project, save_checkpoint,
                    spectral_norm)
from .risk import (Exact, MonteCarlo, RiskEstimate, decoupled_block_estimate,
                   population_risk_mc, subsampled_risk, ustat_conditional,
                   ustat_overall, vstat_overall)
from .bounds import (BoundInputs, BoundReport, chernoff_lambda, effective_n,
                     evaluate_theorem)
from .trainer import (TrainConfig, TrainReport, compare_regimes,
                      sample_complexity_search, train)
from .tuples import (Tuple, TupleSet, count_all_tuples, disjoint_tuples,
                     enumerate_all_tuples, greedy_iid_tuples, regime_tuples,
                     subsample_tuples, tuple_mass)
