import math

import numpy as np
import pytest

from uscrl.bounds import (BoundInputs, THEOREM_IDS, chernoff_lambda,
                          effective_n, evaluate_theorem, linear_phi,
                          nn_log_factor)
from uscrl.errors import ConfigError, PreconditionError

# reference values computed independently with 50-digit arithmetic
CHERNOFF_M4 = 0.38702275602049496   # sqrt(3 ln(4*10/0.1) / 120)
CHERNOFF_M2 = 0.3639477080072093    # sqrt(3 ln(2*10/0.1) / 120)
BASIC_CONF = 11.376031076243203     # 44 * sqrt(ln(8*10/0.1) / 100)
SUB_MC = 0.44406215619023953        # 6 * sqrt(ln(8/0.1) / 800)
LINEAR_PHI = 210.1886903978695      # n=1000 k=2 d=16 M=4 eta=1 s=2 a=8 b=1.5
NN_LOGF = 11.954536049714745        # n=500 eta=1 b=1.2 caps=(2,1.5) xis=(1,1)
BASIC_TOTAL = 50.067915053866756    # n=1000 |C|=10 k=3 delta=0.05 M=4 K_c=2


def uniform_rho(c):
    return np.full(c, 1.0 / c)


def term_names(report):
    return [name for name, _ in report.terms]


def term(report, name):
    return dict(report.terms)[name]


class TestEffectiveN:
    def test_reference_value(self):
        assert effective_n(1000, uniform_rho(10), 3) == 50.0

    def test_branch_crossover_at_two_c_minus_one(self):
        # under uniform priors the two branches meet at k = 2(|C| - 1)
        n = 10_000
        for c in range(2, 13):
            k_star = 2 * (c - 1)
            rho = uniform_rho(c)
            at_star = effective_n(n, rho, k_star)
            assert at_star == pytest.approx(n / (2 * c), rel=1e-12)
            if k_star > 1:
                assert effective_n(n, rho, k_star - 1) == pytest.approx(
                    n / (2 * c), rel=1e-12)
            assert effective_n(n, rho, k_star + 1) < at_star

    def test_skewed_priors(self):
        rho = np.array([0.7, 0.2, 0.1])
        # rho_min/2 = 0.05, (1 - 0.7)/k
        assert effective_n(100, rho, 2) == pytest.approx(5.0)
        assert effective_n(100, rho, 10) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            effective_n(10, [1.0], 1)
        # positive priors whose N_tilde rounds to 0, or is negative for a
        # rho_max above 1 within the priors' sum tolerance
        for rho in ([1.0, 1e-10], [0.5, 0.5, 5e-324], [1 + 5e-10, 1e-10]):
            with pytest.raises(PreconditionError, match="sample size is "):
                effective_n(100, rho, 1)
        with pytest.raises(ConfigError):
            effective_n(10, [0.5, 0.5], 0)
        with pytest.raises(ConfigError):
            effective_n(10, [1.5, -0.5], 1)


class TestChernoffLambda:
    def test_reference_values(self):
        assert chernoff_lambda(1200, 0.1, 10, 0.1, multiplier=4.0) == \
            pytest.approx(CHERNOFF_M4, rel=1e-12)
        assert chernoff_lambda(1200, 0.1, 10, 0.1) == \
            pytest.approx(CHERNOFF_M2, rel=1e-12)

    def test_shrinks_with_n(self):
        vals = [chernoff_lambda(n, 0.1, 5, 0.05) for n in (100, 400, 1600)]
        assert vals[0] > vals[1] > vals[2]
        # exact 1/sqrt(n) scaling
        assert vals[0] / vals[1] == pytest.approx(2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            chernoff_lambda(100, 0.0, 5, 0.1)
        with pytest.raises(ConfigError):
            chernoff_lambda(100, 0.1, 5, 1.0)
        with pytest.raises(ConfigError):
            chernoff_lambda(0, 0.1, 5, 0.1)


class TestBoundInputs:
    def test_validation(self):
        good = dict(n=100, rho=uniform_rho(3), k=2, delta=0.1, loss_bound=4.0)
        BoundInputs(**good)
        with pytest.raises(ConfigError):
            BoundInputs(**{**good, "rho": [0.5, 0.6]})
        with pytest.raises(ConfigError):
            BoundInputs(**{**good, "rho": [1.2, -0.2]})
        with pytest.raises(ConfigError):
            BoundInputs(**{**good, "n": 0})
        with pytest.raises(ConfigError):
            BoundInputs(**{**good, "k": 0})
        with pytest.raises(ConfigError):
            BoundInputs(**{**good, "delta": 1.5})
        with pytest.raises(ConfigError):
            BoundInputs(**{**good, "loss_bound": math.inf})
        with pytest.raises(ConfigError):
            BoundInputs(**{**good, "m_tuples": 0})


class TestBasicBound:
    def test_reference_total(self):
        inputs = BoundInputs(n=1000, rho=uniform_rho(10), k=3, delta=0.05,
                             loss_bound=4.0, class_k=2.0)
        rep = evaluate_theorem("basic", inputs)
        assert rep.n_tilde == 50.0
        assert term_names(rep) == ["complexity", "confidence"]
        assert rep.total == pytest.approx(BASIC_TOTAL, rel=1e-12)
        assert rep.total == pytest.approx(sum(dict(rep.terms).values()))
        # 50 >= M = 4, so this parameter point certifies nothing
        assert rep.flags["vacuous"] is True
        assert rep.flags["lambda_ge_1"] is False

    def test_confidence_term_reference(self):
        # zero complexity constant isolates the confidence term
        inputs = BoundInputs(n=1000, rho=uniform_rho(10), k=2, delta=0.1,
                             loss_bound=1.0, class_k=0.0)
        rep = evaluate_theorem("basic", inputs)
        assert term(rep, "complexity") == 0.0
        assert term(rep, "confidence") == pytest.approx(BASIC_CONF, rel=1e-12)
        assert rep.lam == pytest.approx(
            chernoff_lambda(1000, 0.1, 10, 0.1, multiplier=8.0), rel=1e-15)

    def test_complexity_term_shape(self):
        # rho @ class_k weighting, 8 / sqrt(n_tilde) prefactor
        rho = np.array([0.5, 0.3, 0.2])
        ck = np.array([1.0, 2.0, 4.0])
        inputs = BoundInputs(n=900, rho=rho, k=1, delta=0.1, loss_bound=4.0,
                             class_k=ck)
        rep = evaluate_theorem("basic", inputs)
        nt = effective_n(900, rho, 1)
        assert term(rep, "complexity") == pytest.approx(
            8.0 / math.sqrt(nt) * float(rho @ ck), rel=1e-12)

    def test_nonvacuous_at_large_n(self):
        inputs = BoundInputs(n=100_000_000, rho=uniform_rho(5), k=2,
                             delta=0.05, loss_bound=4.0, class_k=1.0)
        rep = evaluate_theorem("basic", inputs)
        assert rep.total < 4.0
        assert rep.flags["vacuous"] is False

    def test_class_k_required_and_validated(self):
        inputs = BoundInputs(n=100, rho=uniform_rho(3), k=1, delta=0.1,
                             loss_bound=4.0)
        with pytest.raises(ConfigError):
            evaluate_theorem("basic", inputs)
        bad = BoundInputs(n=100, rho=uniform_rho(3), k=1, delta=0.1,
                          loss_bound=4.0, class_k=[-1.0, 1.0, 1.0])
        with pytest.raises(ConfigError):
            evaluate_theorem("basic", bad)
        wrong_len = BoundInputs(n=100, rho=uniform_rho(3), k=1, delta=0.1,
                                loss_bound=4.0, class_k=[1.0, 1.0])
        with pytest.raises(ConfigError):
            evaluate_theorem("basic", wrong_len)


class TestSubsampledBound:
    def make(self, **over):
        base = dict(n=1000, rho=uniform_rho(10), k=2, delta=0.1,
                    loss_bound=1.0, class_k=0.0, m_tuples=400)
        base.update(over)
        return BoundInputs(**base)

    def test_mc_term_reference(self):
        rep = evaluate_theorem("subsampled", self.make(), emp_rad=0.0)
        assert term_names(rep) == ["rademacher", "complexity", "mc",
                                   "confidence"]
        assert term(rep, "rademacher") == 0.0
        assert term(rep, "mc") == pytest.approx(SUB_MC, rel=1e-12)

    def test_rademacher_coefficient(self):
        rep = evaluate_theorem("subsampled", self.make(), emp_rad=0.25)
        assert term(rep, "rademacher") == pytest.approx(1.0, rel=1e-15)

    def test_confidence_uses_sixteen_fold_budget(self):
        rep = evaluate_theorem("subsampled", self.make(), emp_rad=0.0)
        want = 44.0 * math.sqrt(math.log(16 * 10 / 0.1) / (2.0 * 50.0))
        assert term(rep, "confidence") == pytest.approx(want, rel=1e-12)
        assert rep.lam == pytest.approx(
            chernoff_lambda(1000, 0.1, 10, 0.1, multiplier=16.0), rel=1e-15)

    def test_requires_m_tuples_and_valid_rad(self):
        no_m = BoundInputs(n=1000, rho=uniform_rho(10), k=2, delta=0.1,
                           loss_bound=1.0, class_k=0.0)
        with pytest.raises(ConfigError):
            evaluate_theorem("subsampled", no_m, emp_rad=0.1)
        with pytest.raises(ConfigError):
            evaluate_theorem("subsampled", self.make(), emp_rad=-0.1)


class TestLinearFamily:
    PARAMS = {"eta": 1.0, "s": 2.0, "a": 8.0, "b": 1.5, "d": 16}

    def test_phi_reference(self):
        assert linear_phi(1000, 2, 16, 4.0, 1.0, 2.0, 8.0, 1.5) == \
            pytest.approx(LINEAR_PHI, rel=1e-12)

    def test_basic_linear_terms(self):
        inputs = BoundInputs(n=1000, rho=uniform_rho(10), k=2, delta=0.1,
                             loss_bound=4.0, family_params=self.PARAMS)
        rep = evaluate_theorem("basic_linear", inputs)
        assert term_names(rep) == ["small", "complexity", "confidence"]
        nt = 50.0
        assert rep.n_tilde == nt
        assert term(rep, "small") == pytest.approx(
            32.0 / (1000 * math.sqrt(nt)), rel=1e-15)
        want = 3072.0 * math.sqrt(2.0) * 1.0 * 2.0 * 8.0 * 1.5**2 \
            * LINEAR_PHI / math.sqrt(nt)
        assert term(rep, "complexity") == pytest.approx(want, rel=1e-12)

    def test_subsampled_linear_terms(self):
        inputs = BoundInputs(n=1000, rho=uniform_rho(10), k=2, delta=0.1,
                             loss_bound=4.0, m_tuples=2500,
                             family_params=self.PARAMS)
        rep = evaluate_theorem("subsampled_linear", inputs)
        assert term_names(rep) == ["mc_small", "small", "complexity", "mc",
                                   "confidence"]
        assert term(rep, "mc_small") == pytest.approx(4.0 / 2500, rel=1e-15)
        want = 3072.0 * math.sqrt(2.0) * 2.0 * 8.0 * 2.25 * LINEAR_PHI \
            * (1.0 / 50.0 + 1.0 / math.sqrt(50.0))
        assert term(rep, "complexity") == pytest.approx(want, rel=1e-12)

    def test_missing_and_bad_params(self):
        inputs = BoundInputs(n=100, rho=uniform_rho(3), k=1, delta=0.1,
                             loss_bound=4.0, family_params={"eta": 1.0})
        with pytest.raises(ConfigError, match="missing"):
            evaluate_theorem("basic_linear", inputs)
        bad = BoundInputs(n=100, rho=uniform_rho(3), k=1, delta=0.1,
                          loss_bound=4.0,
                          family_params={**self.PARAMS, "s": -1.0})
        with pytest.raises(ConfigError):
            evaluate_theorem("basic_linear", bad)
        no_m = BoundInputs(n=100, rho=uniform_rho(3), k=1, delta=0.1,
                           loss_bound=4.0, family_params=self.PARAMS)
        with pytest.raises(ConfigError):
            evaluate_theorem("subsampled_linear", no_m)


class TestNNFamily:
    PARAMS = {"eta": 1.0, "b": 1.2, "caps": [2.0, 1.5], "xis": [1.0, 1.0],
              "widths": [16, 14]}

    def test_log_factor_reference(self):
        assert nn_log_factor(500, 1.0, 1.2, (2.0, 1.5), (1.0, 1.0)) == \
            pytest.approx(NN_LOGF, rel=1e-12)

    def test_basic_nn_terms(self):
        inputs = BoundInputs(n=500, rho=uniform_rho(5), k=2, delta=0.1,
                             loss_bound=4.0, family_params=self.PARAMS)
        rep = evaluate_theorem("basic_nn", inputs)
        assert term_names(rep) == ["small", "complexity", "confidence"]
        nt = 50.0
        assert rep.n_tilde == nt
        want = 192.0 * 4.0 * math.sqrt(30.0 / nt * NN_LOGF)
        assert term(rep, "complexity") == pytest.approx(want, rel=1e-12)

    def test_subsampled_nn_terms(self):
        inputs = BoundInputs(n=500, rho=uniform_rho(5), k=2, delta=0.1,
                             loss_bound=4.0, m_tuples=900,
                             family_params=self.PARAMS)
        rep = evaluate_theorem("subsampled_nn", inputs)
        assert term_names(rep) == ["mc_small", "small", "complexity", "mc",
                                   "confidence"]
        assert term(rep, "mc_small") == pytest.approx(4.0 / 900, rel=1e-15)
        want = 24.0 * 4.0 * math.sqrt(30.0 * NN_LOGF) \
            * (1.0 / math.sqrt(50.0) + 1.0 / 30.0)
        assert term(rep, "complexity") == pytest.approx(want, rel=1e-12)

    def test_neuron_count_excludes_input_layer(self):
        # widths lists hidden and output widths only; total W drives the
        # complexity term through sqrt(W)
        small = BoundInputs(n=500, rho=uniform_rho(5), k=2, delta=0.1,
                            loss_bound=4.0,
                            family_params={**self.PARAMS, "widths": [8, 8]})
        big = BoundInputs(n=500, rho=uniform_rho(5), k=2, delta=0.1,
                          loss_bound=4.0,
                          family_params={**self.PARAMS, "widths": [16, 48]})
        t_small = term(evaluate_theorem("basic_nn", small), "complexity")
        t_big = term(evaluate_theorem("basic_nn", big), "complexity")
        assert t_big == pytest.approx(t_small * 2.0, rel=1e-12)


def make_inputs(theorem, n=1000, delta=0.1, loss_bound=4.0, m_tuples=2000,
                k=2, c=5):
    kw = dict(n=n, rho=uniform_rho(c), k=k, delta=delta,
              loss_bound=loss_bound)
    if theorem in ("basic", "subsampled"):
        kw["class_k"] = 2.0
    if theorem.startswith("subsampled"):
        kw["m_tuples"] = m_tuples
    if theorem.endswith("linear"):
        kw["family_params"] = TestLinearFamily.PARAMS
    if theorem.endswith("nn"):
        kw["family_params"] = TestNNFamily.PARAMS
    return BoundInputs(**kw)


def run(theorem, inputs):
    if theorem == "subsampled":
        return evaluate_theorem(theorem, inputs, emp_rad=0.1)
    return evaluate_theorem(theorem, inputs)


class TestDispatchAndReport:
    def test_unknown_theorem(self):
        inputs = make_inputs("basic")
        with pytest.raises(ConfigError, match="unknown theorem"):
            evaluate_theorem("tight", inputs)

    def test_subsampled_needs_emp_rad(self):
        with pytest.raises(ConfigError, match="emp_rad"):
            evaluate_theorem("subsampled", make_inputs("subsampled"))

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_report_json(self, theorem):
        rep = run(theorem, make_inputs(theorem))
        got = rep.to_json()
        assert set(got) == {"theorem", "n_tilde", "lambda", "terms", "total",
                            "flags"}
        assert got["theorem"] == theorem
        assert got["lambda"] == rep.lam
        assert set(got["flags"]) == {"vacuous", "lambda_ge_1"}
        assert got["total"] == pytest.approx(sum(got["terms"].values()))
        assert all(v >= 0 for v in got["terms"].values())


class TestMonotonicity:
    # the advertised directions: total shrinks with more data, grows with
    # a larger loss bound, grows as delta tightens, shrinks with more
    # sub-sampled tuples

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_nonincreasing_in_n(self, theorem):
        totals = [run(theorem, make_inputs(theorem, n=n)).total
                  for n in (500, 1000, 2000, 4000, 8000)]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
        assert totals[-1] < totals[0]

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_nondecreasing_in_loss_bound(self, theorem):
        totals = [run(theorem, make_inputs(theorem, loss_bound=m)).total
                  for m in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_nondecreasing_as_delta_tightens(self, theorem):
        totals = [run(theorem, make_inputs(theorem, delta=d)).total
                  for d in (0.2, 0.1, 0.05, 0.01, 0.001)]
        assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("theorem",
                             [t for t in THEOREM_IDS
                              if t.startswith("subsampled")])
    def test_nonincreasing_in_m_tuples(self, theorem):
        totals = [run(theorem, make_inputs(theorem, m_tuples=m)).total
                  for m in (500, 1000, 4000, 16000)]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
