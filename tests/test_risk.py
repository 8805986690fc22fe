import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from itertools import permutations

from uscrl.dataset import GaussianSpec
from uscrl.errors import ConfigError, PreconditionError, SizeError
from uscrl.loss import LossSpec, default_clip
from uscrl.model import LinearModel
from uscrl.risk import (_CHUNK, Exact, MonteCarlo, RiskEstimate,
                        _class_chunks, decoupled_block_estimate,
                        population_risk_mc, subsampled_risk, ustat_conditional,
                        ustat_overall, vstat_overall)
from uscrl.tuples import subsample_tuples

from conftest import make_pool, rand_linear, rand_mlp
from naive_ref import (naive_class_ustat, naive_mass_weighted_risk,
                       naive_mc_ustat, naive_mc_vstat, naive_overall_ustat,
                       naive_overall_vstat, naive_population_risk)

SPEC = LossSpec(clip=default_clip(2))


def _reps(model, ds):
    return model.forward(ds.x)


class TestExactUstat:
    @pytest.mark.parametrize("sizes,k", [([3, 3, 2], 1), ([4, 3, 5], 2)])
    def test_class_conditional_matches_naive(self, sizes, k):
        ds = make_pool(sizes, dim=4, seed=50)
        model = rand_linear(4, 3, seed=51)
        reps = _reps(model, ds)
        for c in range(len(sizes)):
            want, cnt = naive_class_ustat(
                reps, ds.class_indices(c).tolist(),
                ds.out_indices(c).tolist(), k, "logistic", SPEC.clip)
            est = ustat_conditional(model, ds, c, k, SPEC)
            assert est.estimator == "ustat_exact"
            assert est.n_terms == cnt
            assert est.value == pytest.approx(want, rel=1e-12)

    def test_overall_matches_naive(self):
        ds = make_pool([4, 3, 5], dim=4, seed=52)
        model = rand_linear(4, 3, seed=53)
        want = naive_overall_ustat(_reps(model, ds), ds.y.tolist(), 3, 2,
                                   "logistic", SPEC.clip)
        est = ustat_overall(model, ds, 2, SPEC)
        assert est.value == pytest.approx(want, rel=1e-12)

    def test_overall_equals_mass_weighted_enumeration(self):
        # the frequency-weighted U-statistic and the nu-mass-weighted sum
        # over the full enumeration are the same number
        ds = make_pool([3, 3, 2], dim=4, seed=54)
        model = rand_linear(4, 3, seed=55)
        want = naive_mass_weighted_risk(_reps(model, ds), ds.y.tolist(), 3, 1,
                                        "logistic", SPEC.clip)
        est = ustat_overall(model, ds, 1, SPEC)
        assert est.value == pytest.approx(want, rel=1e-13)

    def test_hinge_matches_naive(self):
        ds = make_pool([3, 4], dim=4, seed=56)
        spec = LossSpec(kind="hinge", clip=5.0, margin=1.0)
        model = rand_linear(4, 3, seed=57)
        want = naive_overall_ustat(_reps(model, ds), ds.y.tolist(), 2, 1,
                                   "hinge", 5.0)
        est = ustat_overall(model, ds, 1, spec)
        assert est.value == pytest.approx(want, rel=1e-12)

    def test_infeasible_class_is_defined_zero(self):
        ds = make_pool([1, 4], dim=3, seed=58)
        model = rand_linear(3, 2, seed=59)
        est = ustat_conditional(model, ds, 0, 1, SPEC)
        assert est.value == 0.0 and est.n_terms == 0

    def test_overall_skips_infeasible_classes(self):
        ds = make_pool([1, 3, 4], dim=3, seed=60)
        model = rand_linear(3, 2, seed=61)
        est = ustat_overall(model, ds, 1, SPEC)
        want = naive_overall_ustat(_reps(model, ds), ds.y.tolist(), 3, 1,
                                   "logistic", SPEC.clip)
        assert est.value == pytest.approx(want, rel=1e-12)

    def test_no_feasible_class_raises(self):
        ds = make_pool([1, 1], dim=3, seed=62)
        model = rand_linear(3, 2, seed=63)
        with pytest.raises(PreconditionError):
            ustat_overall(model, ds, 1, SPEC)

    def test_cap_enforced(self):
        ds = make_pool([8, 8], dim=3, seed=64)
        model = rand_linear(3, 2, seed=65)
        with pytest.raises(SizeError):
            ustat_overall(model, ds, 2, SPEC, mode=Exact(cap=100))

    def test_cap_refusal_of_a_count_too_long_to_print(self):
        ds = make_pool([15000, 15000], dim=1, seed=64)
        model = rand_linear(1, 2, seed=65)
        with pytest.raises(SizeError, match=r"exact class ustat: at least "
                                            r"2\^\d+ terms exceeds cap"):
            ustat_overall(model, ds, 7500, SPEC)

    def test_bad_class_rejected(self):
        ds = make_pool([3, 3], dim=3, seed=0)
        model = rand_linear(3, 2, seed=0)
        with pytest.raises(ConfigError):
            ustat_conditional(model, ds, 5, 1, SPEC)


class TestMonteCarloUstat:
    def test_within_four_standard_errors(self):
        ds = make_pool([6, 6, 6], dim=4, seed=66)
        model = rand_linear(4, 3, seed=67)
        exact = ustat_overall(model, ds, 2, SPEC)
        mc = ustat_overall(model, ds, 2, SPEC, mode=MonteCarlo(4000, seed=1))
        assert mc.estimator == "ustat_mc"
        assert mc.std_error is not None and mc.std_error > 0
        assert abs(mc.value - exact.value) < 4 * mc.std_error

    def test_seeded(self):
        ds = make_pool([5, 5], dim=3, seed=68)
        model = rand_linear(3, 2, seed=69)
        a = ustat_overall(model, ds, 1, SPEC, mode=MonteCarlo(500, seed=3))
        b = ustat_overall(model, ds, 1, SPEC, mode=MonteCarlo(500, seed=3))
        c = ustat_overall(model, ds, 1, SPEC, mode=MonteCarlo(500, seed=4))
        assert a.value == b.value
        assert a.value != c.value

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            MonteCarlo(0)


class TestMonteCarloStreams:
    # b > _CHUNK, so the U stream spans several draw chunks and the V
    # stream several loss chunks
    DRAWS = _CHUNK + 4465

    def test_ustat_per_class_seeds_match_oracle(self):
        ds = make_pool([5, 6, 4], dim=4, seed=120)
        model = rand_linear(4, 3, seed=121)
        est = ustat_overall(model, ds, 2, SPEC,
                            mode=MonteCarlo(self.DRAWS, seed=9))
        want = naive_mc_ustat(_reps(model, ds), ds.y.tolist(), 3, 2, SPEC,
                              self.DRAWS, 9, _CHUNK)
        assert (est.value, est.std_error) == want
        assert est.n_terms == 3 * self.DRAWS

    def test_ustat_value_is_pinned(self):
        # two draw chunks per class; class 3 has one sample and no term
        ds = make_pool([5, 6, 4, 1], dim=4, seed=130)
        est = ustat_overall(rand_linear(4, 3, seed=131), ds, 2, SPEC,
                            mode=MonteCarlo(70000, seed=5))
        assert (est.value, est.std_error, est.n_terms) == (
            1.0191089629877965, 0.0007767523957335688, 210000)

    def test_vstat_shared_stream_matches_oracle(self):
        ds = make_pool([5, 6, 4], dim=4, seed=122)
        model = rand_linear(4, 3, seed=123)
        est = vstat_overall(model, ds, 2, SPEC,
                            mode=MonteCarlo(self.DRAWS, seed=9))
        want = naive_mc_vstat(_reps(model, ds), ds.y.tolist(), 3, 2, SPEC,
                              self.DRAWS, 9, _CHUNK)
        assert (est.value, est.std_error) == want
        assert est.n_terms == 3 * self.DRAWS

    def test_vstat_peak_memory_stays_near_one_chunk(self):
        # 4 chunks of draws at k = 8: a (num_draws, k) negative array and
        # its gathered indices would take 32 MiB; the anchors and
        # positives of all draws (4 MiB each, drawn and gathered) and one
        # chunk's negatives must stay under that
        ds = make_pool([5, 6, 4], dim=4, seed=124)
        model = rand_linear(4, 3, seed=125)
        tracemalloc.start()
        try:
            vstat_overall(model, ds, 8, SPEC,
                          mode=MonteCarlo(4 * _CHUNK, seed=9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * (1 << 20), peak


class TestDecoupled:
    def test_identity_permutation_blocks(self):
        # identity permutations pick consecutive pairs and negative blocks
        ds = make_pool([4, 4], dim=3, seed=70)
        model = rand_linear(3, 2, seed=71)
        est = decoupled_block_estimate(model, ds, 0, 2, SPEC,
                                       np.arange(4), np.arange(4))
        assert est.estimator == "ustat_decoupled"
        assert est.n_terms == 2  # min(4//2, 4//2)

    def test_exhaustive_average_equals_exact_ustat(self):
        ds = make_pool([3, 3], dim=3, seed=72)
        model = rand_linear(3, 2, seed=73)
        exact = ustat_conditional(model, ds, 0, 1, SPEC).value
        vals = [decoupled_block_estimate(model, ds, 0, 1, SPEC, pi, pb).value
                for pi in permutations(range(3))
                for pb in permutations(range(3))]
        assert np.mean(vals) == pytest.approx(exact, rel=1e-12)

    def test_perm_validation(self):
        ds = make_pool([4, 4], dim=3, seed=74)
        model = rand_linear(3, 2, seed=75)
        with pytest.raises(ConfigError):
            decoupled_block_estimate(model, ds, 0, 1, SPEC, [0, 0, 1, 2],
                                     np.arange(4))
        with pytest.raises(ConfigError):
            decoupled_block_estimate(model, ds, 0, 1, SPEC, np.arange(4),
                                     [1, 2, 3])

    def test_infeasible_class(self):
        ds = make_pool([1, 4], dim=3, seed=76)
        model = rand_linear(3, 2, seed=77)
        est = decoupled_block_estimate(model, ds, 0, 1, SPEC, [0],
                                       np.arange(4))
        assert est.value == 0.0 and est.n_terms == 0


class TestSubsampledRisk:
    def test_mean_of_tuple_losses(self):
        from uscrl.loss import tuple_losses

        ds = make_pool([5, 5, 5], dim=4, seed=78)
        model = rand_linear(4, 3, seed=79)
        ts = subsample_tuples(ds, 2, 200, seed=80)
        est = subsampled_risk(model, ds, ts, SPEC)
        want = tuple_losses(model, ds, ts.anchors, ts.positives,
                            ts.negatives, SPEC)
        assert est.value == pytest.approx(float(want.mean()), rel=1e-13)
        assert est.n_terms == 200
        assert est.estimator == "subsampled"
        assert est.std_error == pytest.approx(
            float(want.std(ddof=1)) / math.sqrt(200), rel=1e-10)

    def test_requires_subsampled_regime(self):
        from uscrl.tuples import disjoint_tuples

        ds = make_pool([4, 4], dim=3, seed=81)
        model = rand_linear(3, 2, seed=82)
        ts = disjoint_tuples(ds, 1, None, seed=0)
        with pytest.raises(ConfigError):
            subsampled_risk(model, ds, ts, SPEC)


class TestVstat:
    @pytest.mark.parametrize("sizes,k", [([3, 3, 2], 1), ([3, 3, 2], 2)])
    def test_matches_naive(self, sizes, k):
        ds = make_pool(sizes, dim=4, seed=83)
        model = rand_linear(4, 3, seed=84)
        want = naive_overall_vstat(_reps(model, ds), ds.y.tolist(),
                                   len(sizes), k, "logistic", SPEC.clip)
        est = vstat_overall(model, ds, k, SPEC)
        assert est.estimator == "vstat_exact"
        assert est.value == pytest.approx(want, rel=1e-12)

    def test_feasible_where_ustat_is_not(self):
        # a single in-class sample admits V-statistic terms (i paired with
        # itself) but no U-statistic tuple
        ds = make_pool([1, 2], dim=3, seed=85)
        model = rand_linear(3, 2, seed=86)
        est = vstat_overall(model, ds, 1, SPEC)
        want = naive_overall_vstat(_reps(model, ds), ds.y.tolist(), 2, 1,
                                   "logistic", SPEC.clip)
        assert est.value == pytest.approx(want, rel=1e-12)
        assert est.value > 0

    def test_mc_variant_close_to_exact(self):
        ds = make_pool([5, 5], dim=3, seed=87)
        model = rand_linear(3, 2, seed=88)
        exact = vstat_overall(model, ds, 1, SPEC)
        mc = vstat_overall(model, ds, 1, SPEC, mode=MonteCarlo(4000, seed=5))
        assert mc.estimator == "vstat_mc"
        assert abs(mc.value - exact.value) < 4 * mc.std_error

    def test_gap_to_ustat_shrinks(self):
        # O(1/n) gap: quadrupling the pool shrinks |V - U| markedly
        model = rand_linear(3, 2, seed=89)
        gaps = []
        for n_per in (4, 16):
            ds = make_pool([n_per, n_per], dim=3, seed=90)
            u = ustat_overall(model, ds, 1, SPEC).value
            v = vstat_overall(model, ds, 1, SPEC).value
            gaps.append(abs(v - u))
        assert gaps[1] < gaps[0] / 2

    def test_empty_pool_raises(self):
        ds = make_pool([0, 0], dim=3)
        model = rand_linear(3, 2, seed=0)
        with pytest.raises(PreconditionError):
            vstat_overall(model, ds, 1, SPEC)

    def test_cap_enforced(self):
        ds = make_pool([10, 10], dim=3, seed=91)
        model = rand_linear(3, 2, seed=92)
        with pytest.raises(SizeError):
            vstat_overall(model, ds, 2, SPEC, mode=Exact(cap=50))

    def test_cap_boundary(self):
        # each class has 2^2 * 2^k terms: 32 at k = 3
        ds = make_pool([2, 2], dim=3, seed=93)
        model = rand_linear(3, 2, seed=94)
        assert vstat_overall(model, ds, 3, SPEC, mode=Exact(cap=32)).n_terms == 64
        with pytest.raises(SizeError, match="2\\^2 \\* 2\\^3 terms exceeds cap 31"):
            vstat_overall(model, ds, 3, SPEC, mode=Exact(cap=31))

    def test_large_k_refused_by_cap_without_the_full_power(self):
        # 10^k would have 65,537 digits, past the int-to-str limit
        ds = make_pool([10, 10], dim=3, seed=95)
        model = rand_linear(3, 2, seed=96)
        with pytest.raises(SizeError, match="10\\^2 \\* 10\\^65536 terms"):
            vstat_overall(model, ds, _CHUNK, SPEC)

    @pytest.mark.parametrize("mode", [Exact(), MonteCarlo(5, seed=1)])
    def test_k_above_loss_chunk_refused(self, mode):
        ds = make_pool([3, 3], dim=3, seed=97)
        model = rand_linear(3, 2, seed=98)
        for k in (_CHUNK + 1, 2**62):
            with pytest.raises(PreconditionError, match="loss chunk"):
                vstat_overall(model, ds, k, SPEC, mode=mode)

    def test_k_above_pool_size_is_a_valid_term(self):
        # negatives repeat, so k may exceed the pool size; one out-of-class
        # sample gives n_neg**k = 1 for every k
        ds = make_pool([1, 1], dim=3, seed=99)
        model = rand_linear(3, 2, seed=100)
        want = naive_overall_vstat(_reps(model, ds), ds.y.tolist(), 2, 20,
                                   "logistic", SPEC.clip)
        est = vstat_overall(model, ds, 20, SPEC)
        assert est.n_terms == 2
        assert est.value == pytest.approx(want, rel=1e-12)
        est = vstat_overall(model, make_pool([3, 3, 2], dim=3, seed=99), _CHUNK,
                            SPEC, mode=MonteCarlo(2, seed=1))
        assert est.n_terms == 6 and math.isfinite(est.value)

    @pytest.mark.parametrize("k", [63, 70, _CHUNK])
    def test_exact_k_past_the_ndarray_axis_limit(self, k):
        # k + 2 rank digits exceed numpy's 64 axes; the mixed-radix unpack
        # needs none
        ds = make_pool([1, 1], dim=3, seed=99)
        model = rand_linear(3, 2, seed=100)
        want = naive_overall_vstat(_reps(model, ds), ds.y.tolist(), 2, k,
                                   "logistic", SPEC.clip)
        est = vstat_overall(model, ds, k, SPEC)
        assert est.n_terms == 2
        assert est.value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_pos,n_neg,k", [(3, 2, 3), (2, 5, 1), (4, 3, 4)])
    def test_exact_ranks_unpack_as_unravel_index(self, n_pos, n_neg, k):
        pos_idx, neg_idx = np.arange(n_pos) * 10, np.arange(n_neg) * 10 + 1
        shape = (n_pos, n_pos) + (n_neg,) * k
        j1, j2, *digits = np.unravel_index(np.arange(math.prod(shape)), shape)
        (a, p, ng), = _class_chunks("vstat", Exact(), pos_idx, neg_idx, k, None)
        assert a.tobytes() == pos_idx[j1].tobytes()
        assert p.tobytes() == pos_idx[j2].tobytes()
        assert ng.tobytes() == neg_idx[np.stack(digits, axis=1)].tobytes()


class TestPopulationRisk:
    def test_draw_chunk_limit(self):
        # a draw of k + 2 rows of dim 2^11 fills the 2^21-double chunk at
        # k = 1022; one more negative is refused before any array is shaped
        spec_g = GaussianSpec.random(3, dim=2048, seed=0)
        zero = LinearModel(np.zeros((2, 2048)), max_col_sum=1.0,
                           max_spectral=1.0)
        est = population_risk_mc(zero, spec_g, 1022, LossSpec(), 2, seed=1)
        assert est.n_terms == 2
        assert est.value == pytest.approx(math.log(1023.0), rel=1e-12)
        for k in (1023, 2**62):
            with pytest.raises(PreconditionError, match="draw chunk"):
                population_risk_mc(zero, spec_g, k, LossSpec(), 2, seed=1)

    def test_zero_model_gives_log_one_plus_k(self):
        spec_g = GaussianSpec.random(3, dim=5, seed=0)
        zero = LinearModel(np.zeros((2, 5)), max_col_sum=1.0, max_spectral=1.0)
        for k in (1, 2, 4):
            est = population_risk_mc(zero, spec_g, k, LossSpec(), 500, seed=1)
            assert est.value == pytest.approx(math.log(1.0 + k), rel=1e-12)
            # every draw yields the identical loss, so the spread is pure
            # accumulation roundoff
            assert est.std_error < 1e-8

    def test_seeded(self):
        spec_g = GaussianSpec.random(3, dim=4, seed=2)
        model = rand_linear(4, 3, seed=3)
        a = population_risk_mc(model, spec_g, 2, SPEC, 1000, seed=7)
        b = population_risk_mc(model, spec_g, 2, SPEC, 1000, seed=7)
        c = population_risk_mc(model, spec_g, 2, SPEC, 1000, seed=8)
        assert a.value == b.value and a.value != c.value
        assert a.estimator == "population_mc" and a.n_terms == 1000

    def test_self_consistency_with_empirical_estimate(self):
        # the population risk and a U-statistic on a large pool from the
        # same mixture agree within Monte Carlo error
        from uscrl.dataset import generate_gaussian

        spec_g = GaussianSpec.random(3, dim=6, sigma=0.3, seed=4)
        model = rand_linear(6, 4, seed=5)
        pop = population_risk_mc(model, spec_g, 2, SPEC, 40000, seed=6)
        ds = generate_gaussian(spec_g, 600, seed=7)
        emp = ustat_overall(model, ds, 2, SPEC, mode=MonteCarlo(4000, seed=8))
        gap = abs(pop.value - emp.value)
        # pool-level fluctuation dominates both standard errors
        assert gap < 0.1

    def test_skewed_priors_affect_draws(self):
        spec_g = GaussianSpec.random(2, dim=3, seed=9, priors=[0.95, 0.05])
        model = rand_linear(3, 2, seed=10)
        est = population_risk_mc(model, spec_g, 1, SPEC, 2000, seed=11)
        assert math.isfinite(est.value)

    @staticmethod
    def _check_oracle(dim, k, family, num_draws, out_dim=8,
                      priors=(0.9, 0.05, 0.05)):
        # the 0.9 prior makes most negative classes collide and forces
        # rejection redraws
        spec_g = GaussianSpec.random(3, dim=dim, sigma=0.5, seed=13,
                                     priors=priors)
        model = (rand_linear(dim, out_dim, seed=14) if family == "linear"
                 else rand_mlp([dim, 16, out_dim], seed=15))
        for kind, clip in (("logistic", None), ("hinge", 2.0)):
            spec = LossSpec.for_k(k, kind, clip)
            got = population_risk_mc(model, spec_g, k, spec, num_draws, seed=16)
            assert got == naive_population_risk(model, spec_g, k, spec,
                                                 num_draws, seed=16)

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_oracle_past_the_rejection_rounds(self, k):
        # with a 0.99 prior a class-0 anchor's negative is still class 0
        # after 64 redraws with probability 0.99**64 = 0.53, so most of
        # them are drawn directly from the other two classes
        self._check_oracle(8, k, "linear", 3000, priors=(0.99, 0.005, 0.005))

    def test_direct_negative_draws_follow_the_law(self):
        # centers e0, e1 and -e0 with sigma 1e-9 and f the identity: a
        # tuple of anchor class a and negative class z scores
        # |c_a|^2 - c_a . c_z, 1 or 2 here, so the mean loss weighs each
        # (a, z) by rho(a) rho(z) / (1 - rho(a)). With a 0.998 prior, 88%
        # of the class-0 anchors' negatives come from the direct draw
        centers = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0]])
        rho = np.array([0.998, 0.001, 0.001])
        spec_g = GaussianSpec(centers=centers, sigma=1e-9, priors=rho)
        model = LinearModel(np.eye(3), max_col_sum=3.0, max_spectral=1.0)
        est = population_risk_mc(model, spec_g, 1, LossSpec(), 20000, seed=3)
        g = centers @ centers.T
        want = sum(rho[a] * rho[z] / (1 - rho[a])
                   * math.log1p(math.exp(g[a, z] - g[a, a]))
                   for a in range(3) for z in range(3) if z != a)
        assert abs(est.value - want) < 5 * est.std_error, (est, want)

    def test_prior_near_one_finishes(self):
        # rejection alone would redraw a class-0 anchor's negatives about
        # 1e9 times; in a subprocess with a timeout, a regression fails
        # instead of hanging the suite
        code = (
            "from uscrl.dataset import GaussianSpec\n"
            "from uscrl.loss import LossSpec\n"
            "from uscrl.model import make_mlp\n"
            "from uscrl.risk import population_risk_mc\n"
            "g = GaussianSpec.random(2, dim=4, seed=0,"
            " priors=[0.999999999, 1e-9])\n"
            "m = make_mlp([4, 3], 1.0, 0, ['identity'], 3.0)\n"
            "e = population_risk_mc(m, g, 2, LossSpec.for_k(2), 1000, 0)\n"
            "print(e.n_terms, e.value)\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        n_terms, value = proc.stdout.split()
        assert n_terms == "1000" and math.isfinite(float(value))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_matches_per_block_loop_oracle(self, k, family):
        # 128 dims make a chunk (1 << 21) // ((k + 2) * 128) draws, so this
        # runs three full chunks and a ragged fourth
        chunk = (1 << 21) // ((k + 2) * 128)
        self._check_oracle(128, k, family, 3 * chunk + 37)

    @pytest.mark.parametrize("dim,k", [(8, 2), (96, 3), (784, 9)])
    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_matches_oracle_in_one_and_several_pieces(self, dim, k, family):
        # a chunk is forwarded in even pieces of at most _PIECE rows. Full
        # chunks: dim 8 gives 64 pieces of 4,096 rows, dim 96 six uneven
        # pieces of 3,640 or 3,641 rows, dim 784 one piece of 2,673 rows.
        # The ragged fourth chunk: 22 uneven pieces, two uneven pieces and
        # one piece
        chunk = (1 << 21) // ((k + 2) * dim)
        self._check_oracle(dim, k, family, 3 * chunk + chunk // 3 + 37)

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_matches_oracle_with_representations_wider_than_inputs(
            self, family):
        # 16-dim representations of 4-dim inputs: the chunk's
        # representations outgrow its draw buffer. A full chunk of 131,072
        # draws (128 pieces of 4,096 rows) and a ragged one of 37 draws
        # (one piece of 148 rows)
        chunk = (1 << 21) // ((2 + 2) * 4)
        self._check_oracle(4, 2, family, chunk + 37, out_dim=16)

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_matches_oracle_in_one_chunk_shorter_than_a_piece(self, family):
        # 37 draws at dim 96, k 3: the only chunk is 185 rows, one piece
        # shorter than _PIECE, so the draw buffer is sized by num_draws
        self._check_oracle(96, 3, family, 37)

    def test_peak_memory_stays_near_one_chunk(self):
        # one chunk holds 2^21 input doubles (16 MiB), but its normals are
        # drawn one piece of at most _PIECE rows at a time: the piecewise
        # draws, forward pass and the chunk's scores must fit in 0.75 of a
        # chunk, which a chunk-sized draw buffer alone would fill
        spec_g = GaussianSpec.random(3, dim=96, seed=17)
        model = rand_mlp([96, 64, 8], seed=18)
        tracemalloc.start()
        try:
            population_risk_mc(model, spec_g, 3, SPEC, 20000, seed=19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 8 * (1 << 21), peak

    def test_peak_memory_linear_stays_near_one_chunk(self):
        # at dim 8 a chunk is 65,536 draws of 262,144 rows: the chunk's
        # (rows, 6) representations and row classes, not a piece's
        # temporaries, set the peak; a chunk-sized draw buffer on top of
        # them would pass 1.5 chunks
        spec_g = GaussianSpec.random(3, dim=8, seed=17)
        model = rand_linear(8, 6, seed=18)
        tracemalloc.start()
        try:
            population_risk_mc(model, spec_g, 2, SPEC, 100000, seed=19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * (1 << 21), peak

    def test_validation(self):
        one_class = GaussianSpec.random(1, dim=3, seed=0)
        model = rand_linear(3, 2, seed=0)
        with pytest.raises(PreconditionError):
            population_risk_mc(model, one_class, 1, SPEC, 10, seed=0)
        two = GaussianSpec.random(2, dim=3, seed=0)
        with pytest.raises(ConfigError):
            population_risk_mc(model, two, 1, SPEC, 0, seed=0)
        with pytest.raises(ConfigError):
            population_risk_mc(model, two, 0, SPEC, 10, seed=0)


class TestRiskEstimate:
    def test_to_json(self):
        # estimate.json is dataclasses.asdict of the estimate, keys sorted
        est = RiskEstimate(1.5, "ustat_exact", 10, std_error=0.1, seed=3)
        got = dataclasses.asdict(est)
        assert got == {"value": 1.5, "estimator": "ustat_exact",
                       "n_terms": 10, "std_error": 0.1, "seed": 3}
        assert json.dumps(got, sort_keys=True) == (
            '{"estimator": "ustat_exact", "n_terms": 10, "seed": 3, '
            '"std_error": 0.1, "value": 1.5}')
