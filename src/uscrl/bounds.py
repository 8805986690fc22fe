"""Generalization-bound calculators with explicit constants.

The six bound statements are two sampling schemes (all tuples, or M
sub-sampled tuples) crossed with three complexity sources (per-class
K_{F,c}, the norm-capped linear class, the spectrally-capped network
class). One term builder, ``evaluate_theorem``, takes plain numbers and
returns a structured report with named additive terms, so every constant
in the statements is visible and testable. The effective sample size

    N_tilde = N * min(rho_min / 2, (1 - rho_max) / k)

controls every rate; the class-count term switches from the rho_min
branch to the k branch exactly at k = 2(|C| - 1) under uniform priors.
A report is flagged vacuous when its total meets or exceeds the loss
bound M, since the excess risk of an M-clipped loss can never be larger.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PreconditionError

SQRT2 = math.sqrt(2.0)

# Constant inventory per bound statement. "log_mult" is the factor in
# front of |C| (or 1 for the tuple-count confidence term) inside the log.
THEOREM_CONSTANTS = {
    "basic": {
        "complexity_coef": 8.0, "conf_coef": 44.0, "conf_log_mult": 8.0,
        "lambda_mult": 8.0,
    },
    "subsampled": {
        "rad_coef": 4.0, "complexity_coef": 8.0,
        "mc_coef": 6.0, "mc_log_mult": 8.0,
        "conf_coef": 44.0, "conf_log_mult": 16.0, "lambda_mult": 16.0,
    },
    "basic_linear": {
        "small_coef": 32.0, "complexity_coef": 3072.0 * SQRT2,
        "phi_inner_a": 44.0, "phi_inner_b": 7.0,
        "conf_coef": 44.0, "conf_log_mult": 8.0, "lambda_mult": 8.0,
    },
    "basic_nn": {
        "small_coef": 32.0, "complexity_coef": 192.0, "log_inner": 12.0,
        "conf_coef": 44.0, "conf_log_mult": 8.0, "lambda_mult": 8.0,
    },
    "subsampled_linear": {
        "mc_small_coef": 4.0, "small_coef": 32.0,
        "complexity_coef": 3072.0 * SQRT2,
        "mc_coef": 6.0, "mc_log_mult": 8.0,
        "conf_coef": 44.0, "conf_log_mult": 16.0, "lambda_mult": 16.0,
    },
    "subsampled_nn": {
        "mc_small_coef": 4.0, "small_coef": 32.0,
        "complexity_coef": 24.0,
        "mc_coef": 6.0, "mc_log_mult": 8.0,
        "conf_coef": 44.0, "conf_log_mult": 16.0, "lambda_mult": 16.0,
    },
    "chernoff": {"factor": 3.0},
}

THEOREM_IDS = tuple(t for t in THEOREM_CONSTANTS if t != "chernoff")

# per-layer lists of the network family: spectral caps s_l, activation
# Lipschitz constants xi_l, widths d_1..d_L (input layer excluded)
_LAYER_LISTS = ("caps", "xis", "widths")


@dataclass(frozen=True)
class BoundInputs:
    """Shared statistics feeding every bound calculator.

    ``rho`` holds the class priors (or empirical frequencies); ``class_k``
    is the per-class complexity constant K_{F,c} for the generic theorems
    (scalar broadcasts); ``m_tuples`` is the sub-sampled tuple count for
    the sub-sampled variants; ``family_params`` carries the model-class
    parameters used by the linear and neural-network instantiations.
    """

    n: int
    rho: np.ndarray
    k: int
    delta: float
    loss_bound: float
    class_k: np.ndarray | float | None = None
    m_tuples: int | None = None
    family_params: dict = field(default_factory=dict)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        if rho.ndim != 1 or rho.shape[0] < 1:
            raise ConfigError("rho must be a 1-d array of class priors")
        if np.any(rho <= 0):
            raise ConfigError("class priors must be strictly positive")
        if abs(rho.sum() - 1.0) > 1e-9:
            raise ConfigError(f"class priors sum to {rho.sum()}, expected 1")
        object.__setattr__(self, "rho", rho)
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.loss_bound <= 0 or not math.isfinite(self.loss_bound):
            raise ConfigError("loss_bound must be positive and finite")
        if self.m_tuples is not None and self.m_tuples < 1:
            raise ConfigError("m_tuples must be >= 1")

    @property
    def num_classes(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class BoundReport:
    theorem: str
    n_tilde: float
    lam: float
    terms: tuple
    total: float
    flags: dict

    def to_json(self) -> dict:
        return {"theorem": self.theorem, "n_tilde": self.n_tilde,
                "lambda": self.lam, "terms": dict(self.terms),
                "total": self.total, "flags": dict(self.flags)}


def effective_n(n: int, rho, k: int) -> float:
    """N_tilde = N min(rho_min/2, (1-rho_max)/k); needs at least 2 classes
    and a positive result, which priors that round it to 0 in double
    precision, or a rho_max above 1 within their sum tolerance, do not give."""
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape[0] < 2:
        raise PreconditionError(
            "effective sample size requires at least 2 classes")
    if np.any(rho <= 0):
        raise ConfigError("class priors must be strictly positive")
    if k < 1:
        raise ConfigError("k must be >= 1")
    nt = float(n * min(rho.min() / 2.0, (1.0 - rho.max()) / k))
    if not nt > 0:
        raise PreconditionError(
            f"effective sample size is {nt} for n={n}, k={k}, rho_min="
            f"{float(rho.min())!r} and rho_max={float(rho.max())!r}")
    return nt


def chernoff_lambda(n: int, rho_min: float, num_classes: int, delta: float,
                    multiplier: float = 2.0) -> float:
    """Lambda = sqrt(3 ln(mult |C| / delta) / (N rho_min)).

    The class-count multiplier inside the log is a parameter because
    different bound statements budget their failure probability over the
    classes differently (2|C|, 4|C|, 8|C|, 16|C|).
    """

    if rho_min <= 0:
        raise ConfigError("rho_min must be positive")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    if n < 1 or num_classes < 1:
        raise ConfigError("n and num_classes must be >= 1")
    factor = THEOREM_CONSTANTS["chernoff"]["factor"]
    return math.sqrt(factor * math.log(multiplier * num_classes / delta)
                     / (n * rho_min))


def _class_k_vector(inputs: BoundInputs) -> np.ndarray:
    if inputs.class_k is None:
        raise ConfigError("class_k is required for this theorem")
    ck = np.asarray(inputs.class_k, dtype=np.float64)
    if ck.ndim == 0:
        ck = np.full(inputs.num_classes, float(ck))
    if ck.shape != (inputs.num_classes,):
        raise ConfigError("class_k must be scalar or one value per class")
    if np.any(ck < 0):
        raise ConfigError("class_k values must be nonnegative")
    return ck


def _positive(name: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not 0 < v <= sys.float_info.max:
        raise ConfigError(f"family_params[{name!r}] must be a positive "
                          f"finite number, got {v!r}")
    return float(v)


def _require(params: dict, names) -> list:
    """The named family_params as positive finite floats; caps, xis and
    widths as nonempty lists of them, one entry per layer."""
    missing = [x for x in names if x not in params]
    if missing:
        raise ConfigError(f"family_params missing {missing}")
    vals = []
    for name in names:
        v = params[name]
        per_layer = name in _LAYER_LISTS
        if per_layer and (not isinstance(v, list) or not v):
            raise ConfigError(f"family_params[{name!r}] must be a nonempty "
                              f"list, one entry per layer")
        vals.append([_positive(name, x) for x in v] if per_layer
                    else _positive(name, v))
    if len({len(v) for v in vals if isinstance(v, list)}) > 1:
        raise ConfigError(f"family_params {list(_LAYER_LISTS)} need one "
                          f"entry per layer each")
    return vals


def linear_phi(n: int, k: int, d: float, loss_bound: float, eta: float,
               s: float, a: float, b: float) -> float:
    """Logarithmic factor of the linear-class complexity term."""
    inner_a = THEOREM_CONSTANTS["basic_linear"]["phi_inner_a"]
    inner_b = THEOREM_CONSTANTS["basic_linear"]["phi_inner_b"]
    return (math.log((inner_a * n * eta * s * a * b * b + inner_b)
                     * n * (k + 2) * d)
            * math.log(n * loss_bound))


def nn_log_factor(n: int, eta: float, b: float, caps, xis) -> float:
    """ln(12 eta N L b^2 prod xi_l^2 s_l^2 + 1) for a capped network.

    The product runs in Python floats, as linear_phi's does: a product past
    the double range is an infinity, with no numpy overflow warning."""
    gain = math.prod(xi * xi * s * s for xi, s in zip(xis, caps, strict=True))
    inner = THEOREM_CONSTANTS["basic_nn"]["log_inner"]
    return math.log(inner * eta * n * len(caps) * b * b * gain + 1.0)


def evaluate_theorem(theorem: str, inputs: BoundInputs,
                     emp_rad: float | None = None) -> BoundReport:
    """Evaluate a bound statement by id, "<basic|subsampled>[_<linear|nn>]".

    The sampling scheme (all tuples, or M sub-sampled tuples) and the
    complexity source (per-class K_{F,c}, the linear class, the network
    class) each contribute terms, in this order: ``rademacher`` (generic
    sub-sampled) or ``mc_small`` (family sub-sampled), ``small`` (family),
    ``complexity``, ``mc`` (sub-sampled) and ``confidence``. ``emp_rad``,
    needed by "subsampled" only, is an empirical Rademacher complexity of
    the loss class on the sub-sampled tuples (any upper bound keeps
    validity).
    """
    if theorem not in THEOREM_IDS:
        raise ConfigError(
            f"unknown theorem {theorem!r}; expected one of {sorted(THEOREM_IDS)}")
    sampling, _, family = theorem.partition("_")
    sub = sampling == "subsampled"
    c = THEOREM_CONSTANTS[theorem]
    m, mt, params = inputs.loss_bound, inputs.m_tuples, inputs.family_params
    if theorem == "subsampled" and (emp_rad is None or emp_rad < 0):
        raise ConfigError("the sub-sampled bound needs an empirical "
                          "Rademacher complexity emp_rad >= 0")
    if sub and mt is None:
        raise ConfigError("m_tuples is required for the sub-sampled bound")
    if family == "linear":
        eta, s, a, b, d = _require(params, ["eta", "s", "a", "b", "d"])
        lead = c["complexity_coef"] * eta * s * a * b * b * linear_phi(
            inputs.n, inputs.k, d, m, eta, s, a, b)
    elif family == "nn":
        eta, b, caps, xis, widths = _require(
            params, ["eta", "b", "caps", "xis", "widths"])
        lead = c["complexity_coef"] * m * math.sqrt(
            sum(widths) * nn_log_factor(inputs.n, eta, b, caps, xis))
    nt = effective_n(inputs.n, inputs.rho, inputs.k)
    terms = []
    if family:
        rate = 1.0 / math.sqrt(nt)
        if sub:
            rate += 1.0 / math.sqrt(mt)
            terms.append(("mc_small", c["mc_small_coef"] / mt))
        terms.append(("small", c["small_coef"] / (inputs.n * math.sqrt(nt))))
        terms.append(("complexity", lead * rate))
    else:
        if sub:
            terms.append(("rademacher", c["rad_coef"] * emp_rad))
        terms.append(("complexity", (c["complexity_coef"] / math.sqrt(nt))
                      * float(inputs.rho @ _class_k_vector(inputs))))
    if sub:
        terms.append(("mc", c["mc_coef"] * m * math.sqrt(
            math.log(c["mc_log_mult"] / inputs.delta) / (2.0 * mt))))
    terms.append(("confidence", c["conf_coef"] * m * math.sqrt(
        math.log(c["conf_log_mult"] * inputs.num_classes / inputs.delta)
        / (2.0 * nt))))
    total = float(sum(v for _, v in terms))
    lam = chernoff_lambda(inputs.n, float(inputs.rho.min()),
                          inputs.num_classes, inputs.delta,
                          multiplier=c["lambda_mult"])
    flags = {"vacuous": total >= m, "lambda_ge_1": lam >= 1.0}
    return BoundReport(theorem=theorem, n_tilde=nt, lam=lam,
                       terms=tuple(terms), total=total, flags=flags)
