"""End-to-end acceptance checks over the estimator, bound, and training stack.

Every test prints exactly one [PASS]/[FAIL] line with the measured margin
(run pytest with -s to see the lines for passing tests) and then asserts.
The checks are property-based: algebraic identities at tight tolerance,
convergence rates, oracle comparisons, and seed-frozen trend experiments
at desk scale.
"""

import math
from dataclasses import replace
from itertools import permutations

import numpy as np
from mpmath import mp

from uscrl.dataset import GaussianSpec, generate_gaussian
from uscrl.loss import LossSpec, default_clip, tuple_losses
from uscrl.model import LinearModel, project
from uscrl.risk import (Exact, MonteCarlo, decoupled_block_estimate,
                        population_risk_mc, subsampled_risk,
                        ustat_conditional, ustat_overall, vstat_overall)
from uscrl.bounds import BoundInputs, effective_n, evaluate_theorem
from uscrl.trainer import TrainConfig, compare_regimes, sample_complexity_search
from uscrl.tuples import (block_tuples, enumerate_all_tuples,
                          subsample_tuples, tuple_masses)
from uscrl.model import tuple_batch_backward

from conftest import make_pool, rand_linear, rand_mlp

mp.dps = 50


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# decoupled block estimates average back to the exact U-statistic
# (budget: under 30 s)

def test_decoupled_block_average_recovers_exact_ustat():
    worst = 0.0
    instances = 0
    seed = 1000
    for n_pos in (2, 3, 4):
        for n_neg in (2, 3, 4):
            for k in (1, 2):
                if n_neg < k:
                    continue
                seed += 1
                ds = make_pool([n_pos, n_neg], dim=4, seed=seed)
                model = rand_linear(4, 3, seed=seed + 7)
                spec = LossSpec(clip=default_clip(k))
                exact = ustat_conditional(model, ds, 0, k, spec).value
                vals = [
                    decoupled_block_estimate(model, ds, 0, k, spec,
                                             list(pi), list(pb)).value
                    for pi in permutations(range(n_pos))
                    for pb in permutations(range(n_neg))
                ]
                rel = abs(np.mean(vals) - exact) / abs(exact)
                worst = max(worst, rel)
                instances += 1
    _verdict("decoupled-block-average", worst < 1e-10,
             f"worst relative gap {worst:.2e} over {instances} instances "
             f"(tolerance 1e-10)")


# ---------------------------------------------------------------------------
# the U-statistic, the average of the block estimates over all permutation
# pairs, varies no more than one block estimate (Hoeffding 1963, section 5),
# and one block estimate is a mean of N_c i.i.d. tuple losses, so its
# variance is sigma_k^2 / N_c on both sides of the N_c branch crossover
# k = 2(|C| - 1) (budget: under 10 s)

def test_ustat_variance_at_most_block_variance():
    sizes, reps = [12, 12], 400
    model = rand_linear(4, 3, seed=7)
    ident = np.arange(sizes[0]), np.arange(sizes[1])
    worst_ratio, worst_scale, lines = 0.0, 0.0, []
    for k in (1, 2, 3):  # crossover at k = 2 for two balanced classes
        spec = LossSpec(clip=default_clip(k))
        n_c = min(sizes[0] // 2, sizes[1] // k)
        ustats, blocks, tuple_vars = [], [], []
        for r in range(reps):
            ds = make_pool(sizes, dim=4, seed=60000 + r)
            ustats.append(ustat_conditional(model, ds, 0, k, spec).value)
            blocks.append(decoupled_block_estimate(model, ds, 0, k, spec,
                                                   *ident).value)
            losses = tuple_losses(model, ds, *block_tuples(
                ds.class_indices(0), ds.out_indices(0), k, *ident), spec)
            tuple_vars.append(np.var(losses, ddof=1))
        var_u, var_b = np.var(ustats, ddof=1), np.var(blocks, ddof=1)
        scale = n_c * var_b / np.mean(tuple_vars)  # 1 if var_b = sigma^2/N_c
        worst_ratio = max(worst_ratio, var_u / var_b)
        worst_scale = max(worst_scale, abs(math.log(scale)))
        lines.append(f"k={k} N_c={n_c}: var U/var block {var_u / var_b:.3f}, "
                     f"N_c var block/sigma^2 {scale:.3f}")
    ok = worst_ratio <= 1.0 and worst_scale <= math.log(1.4)
    _verdict("ustat-variance-below-block", ok,
             f"worst var ratio {worst_ratio:.3f} (limit 1), worst 1/N_c "
             f"scaling factor {math.exp(worst_scale):.3f} (limit 1.4) over "
             f"{reps} pools; " + "; ".join(lines))


# ---------------------------------------------------------------------------
# the exact estimator equals the mass-weighted enumeration, and repeated
# sub-sampled estimates concentrate on it (budget: under 2 min)

def test_mass_weighted_enumeration_identity_and_subsample_mean():
    k = 2
    ds = make_pool([8, 7, 6], dim=5, seed=200)
    model = rand_linear(5, 4, seed=201)
    spec = LossSpec(clip=default_clip(k))

    exact = ustat_overall(model, ds, k, spec, mode=Exact()).value
    ts = enumerate_all_tuples(ds, k)
    losses = tuple_losses(model, ds, ts.anchors, ts.positives, ts.negatives,
                          spec)
    masses = tuple_masses(ds, k, ts.class_ids)
    weighted = float(losses @ masses)
    rel = abs(exact - weighted) / abs(weighted)

    reps = 2000
    vals = np.array([
        subsampled_risk(model, ds, subsample_tuples(ds, k, 50, seed=3000 + r),
                        spec).value
        for r in range(reps)
    ])
    se = vals.std(ddof=1) / math.sqrt(reps)
    z = abs(vals.mean() - exact) / se

    ok = rel < 1e-12 and z < 4.0
    _verdict("mass-weighted-identity", ok,
             f"enumeration gap {rel:.2e} (tol 1e-12) over {ts.m_count} "
             f"tuples; subsample mean off by {z:.2f} combined SEs (limit 4)")


# ---------------------------------------------------------------------------
# sub-sampling error decays like 1/sqrt(M) (budget: under 5 min)

def test_subsample_deviation_rate_is_inverse_sqrt_m():
    k = 2
    ds = make_pool([20, 20, 20], dim=6, seed=300)
    model = rand_linear(6, 4, seed=301)
    spec = LossSpec(clip=default_clip(k))
    exact = ustat_overall(model, ds, k, spec, mode=Exact()).value

    m_grid = [10, 100, 1000, 10000]
    reps = 200
    mean_dev = []
    for i, m in enumerate(m_grid):
        devs = [
            abs(subsampled_risk(model, ds,
                                subsample_tuples(ds, k, m,
                                                 seed=10000 + i * reps + r),
                                spec).value - exact)
            for r in range(reps)
        ]
        mean_dev.append(np.mean(devs))
    slope = np.polyfit(np.log10(m_grid), np.log10(mean_dev), 1)[0]
    ok = -0.65 <= slope <= -0.35
    _verdict("subsample-deviation-rate", ok,
             f"log-log slope {slope:.3f} over M={m_grid} "
             f"(expected -0.5 +/- 0.15)")


# ---------------------------------------------------------------------------
# bound calculators against a 50-digit arithmetic oracle, monotonicity in
# every driving quantity, and the effective-size branch crossover
# (budget: under 10 s)

SQ2 = mp.sqrt(2)


def _mp_nt(n, rho, k):
    return n * min(mp.mpf(min(rho)) / 2, (1 - mp.mpf(max(rho))) / k)


def _mp_lambda(n, rho, c, delta, mult):
    return mp.sqrt(3 * mp.log(mult * c / mp.mpf(delta))
                   / (n * mp.mpf(min(rho))))


def _mp_phi(n, k, d, m, eta, s, a, b):
    eta, s, a, b = map(mp.mpf, (eta, s, a, b))
    return (mp.log((44 * n * eta * s * a * b * b + 7) * n * (k + 2) * d)
            * mp.log(n * mp.mpf(m)))


def _mp_logf(n, eta, b, caps, xis):
    gain = mp.mpf(1)
    for cap, xi in zip(caps, xis):
        gain *= mp.mpf(xi) ** 2 * mp.mpf(cap) ** 2
    return mp.log(12 * mp.mpf(eta) * n * len(caps) * mp.mpf(b) ** 2 * gain + 1)


def _mp_report(theorem, n, rho, k, delta, m, class_k=None, m_tuples=None,
               fam=None, emp_rad=None):
    """Term dictionary recomputed from scratch at 50 significant digits."""
    nt = _mp_nt(n, rho, k)
    c = len(rho)
    delta = mp.mpf(delta)
    m = mp.mpf(m)
    conf8 = 44 * m * mp.sqrt(mp.log(8 * c / delta) / (2 * nt))
    conf16 = 44 * m * mp.sqrt(mp.log(16 * c / delta) / (2 * nt))
    terms = {}
    if theorem in ("basic", "subsampled"):
        rk = mp.fsum(mp.mpf(r) * mp.mpf(ck) for r, ck in zip(rho, class_k))
        terms["complexity"] = 8 / mp.sqrt(nt) * rk
    if theorem == "basic":
        terms["confidence"] = conf8
        lam_mult = 8
    elif theorem == "subsampled":
        terms["rademacher"] = 4 * mp.mpf(emp_rad)
        terms["mc"] = 6 * m * mp.sqrt(mp.log(8 / delta) / (2 * m_tuples))
        terms["confidence"] = conf16
        lam_mult = 16
    elif theorem in ("basic_linear", "subsampled_linear"):
        eta, s, a, b, d = (fam[x] for x in ("eta", "s", "a", "b", "d"))
        phi = _mp_phi(n, k, d, m, eta, s, a, b)
        coef = 3072 * SQ2 * mp.mpf(eta) * mp.mpf(s) * mp.mpf(a) \
            * mp.mpf(b) ** 2 * phi
        terms["small"] = 32 / (n * mp.sqrt(nt))
        if theorem == "basic_linear":
            terms["complexity"] = coef / mp.sqrt(nt)
            terms["confidence"] = conf8
            lam_mult = 8
        else:
            terms["mc_small"] = mp.mpf(4) / m_tuples
            terms["complexity"] = coef * (1 / mp.sqrt(m_tuples)
                                          + 1 / mp.sqrt(nt))
            terms["mc"] = 6 * m * mp.sqrt(mp.log(8 / delta) / (2 * m_tuples))
            terms["confidence"] = conf16
            lam_mult = 16
    else:
        eta, b = fam["eta"], fam["b"]
        caps, xis, widths = fam["caps"], fam["xis"], fam["widths"]
        w = int(np.sum(widths))
        logf = _mp_logf(n, eta, b, caps, xis)
        terms["small"] = 32 / (n * mp.sqrt(nt))
        if theorem == "basic_nn":
            terms["complexity"] = 192 * m * mp.sqrt(w / nt * logf)
            terms["confidence"] = conf8
            lam_mult = 8
        else:
            terms["mc_small"] = mp.mpf(4) / m_tuples
            terms["complexity"] = 24 * m * mp.sqrt(w * logf) \
                * (1 / mp.sqrt(nt) + 1 / mp.sqrt(m_tuples))
            terms["mc"] = 6 * m * mp.sqrt(mp.log(8 / delta) / (2 * m_tuples))
            terms["confidence"] = conf16
            lam_mult = 16
    return {"n_tilde": nt, "lambda": _mp_lambda(n, rho, c, delta, lam_mult),
            "terms": terms, "total": mp.fsum(terms.values())}


_THEOREMS = ("basic", "subsampled", "basic_linear", "basic_nn",
             "subsampled_linear", "subsampled_nn")


def _random_case(theorem, rng):
    c = int(rng.integers(2, 17))
    rho = rng.dirichlet(np.full(c, 2.0))
    rho = rho / rho.sum()
    case = {
        "n": int(rng.integers(40, 10 ** 6)),
        "rho": rho,
        "k": int(rng.integers(1, 31)),
        "delta": float(rng.uniform(1e-4, 0.5)),
        "m": float(rng.uniform(0.5, 16.0)),
        "class_k": rng.uniform(0.05, 8.0, size=c),
        "m_tuples": int(rng.integers(16, 10 ** 6)),
        "emp_rad": float(rng.uniform(0.0, 2.0)),
    }
    if "linear" in theorem:
        case["fam"] = {"eta": float(rng.uniform(0.5, 4.0)),
                       "s": float(rng.uniform(0.5, 4.0)),
                       "a": float(rng.uniform(1.0, 16.0)),
                       "b": float(rng.uniform(0.5, 3.0)),
                       "d": int(rng.integers(4, 257))}
    elif "nn" in theorem:
        depth = int(rng.integers(1, 4))
        case["fam"] = {"eta": float(rng.uniform(0.5, 4.0)),
                       "b": float(rng.uniform(0.5, 3.0)),
                       "caps": rng.uniform(0.8, 2.5, size=depth).tolist(),
                       "xis": rng.uniform(0.5, 1.0, size=depth).tolist(),
                       "widths": rng.integers(2, 65, size=depth).tolist()}
    return case


def _run_theorem(theorem, case):
    inputs = BoundInputs(
        n=case["n"], rho=case["rho"], k=case["k"], delta=case["delta"],
        loss_bound=case["m"],
        class_k=case["class_k"] if theorem in ("basic", "subsampled") else None,
        m_tuples=case["m_tuples"] if "subsampled" in theorem else None,
        family_params=case.get("fam", {}))
    emp = case["emp_rad"] if theorem == "subsampled" else None
    return evaluate_theorem(theorem, inputs, emp_rad=emp)


def _oracle_theorem(theorem, case):
    return _mp_report(
        theorem, case["n"], case["rho"], case["k"], case["delta"], case["m"],
        class_k=case["class_k"], m_tuples=case["m_tuples"],
        fam=case.get("fam"), emp_rad=case["emp_rad"])


def _rel(a, b):
    return abs(a - float(b)) / max(abs(float(b)), 1e-300)


def test_bound_reports_match_high_precision_oracle():
    rng = np.random.default_rng(505)
    worst = 0.0
    checked = 0
    for theorem in _THEOREMS:
        for _ in range(50):
            case = _random_case(theorem, rng)
            report = _run_theorem(theorem, case)
            oracle = _oracle_theorem(theorem, case)
            got_terms = dict(report.terms)
            assert set(got_terms) == set(oracle["terms"])
            for name, val in oracle["terms"].items():
                worst = max(worst, _rel(got_terms[name], val))
            worst = max(worst, _rel(report.n_tilde, oracle["n_tilde"]),
                        _rel(report.lam, oracle["lambda"]),
                        _rel(report.total, oracle["total"]))
            checked += 1

    # monotone responses: each driving quantity moved alone, 5-point grids
    mono_ok = True
    base_rng = np.random.default_rng(606)
    for theorem in _THEOREMS:
        case = _random_case(theorem, base_rng)
        case["k"] = 2
        case["class_k"] = np.full(len(case["rho"]), 1.5)
        c = len(case["rho"])

        def total_of(case_mod):
            return _run_theorem(theorem, case_mod).total

        def grid(axis_cases):
            return [total_of(cm) for cm in axis_cases]

        slack = 1e-12

        def non_increasing(vals):
            return all(b <= a * (1 + slack) + slack
                       for a, b in zip(vals, vals[1:]))

        def non_decreasing(vals):
            return all(b >= a * (1 - slack) - slack
                       for a, b in zip(vals, vals[1:]))

        ns = [200, 800, 3200, 12800, 51200]
        mono_ok &= non_increasing(grid([{**case, "n": n} for n in ns]))

        uniform = np.full(c, 1.0 / c)
        mixes = []
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            r = (1 - t) * case["rho"] + t * uniform
            mixes.append({**case, "rho": r / r.sum()})
        mixes.sort(key=lambda cm: effective_n(case["n"], cm["rho"], case["k"]))
        mono_ok &= non_increasing(grid(mixes))

        deltas = [0.01, 0.05, 0.1, 0.2, 0.4]
        mono_ok &= non_increasing(grid([{**case, "delta": d}
                                        for d in deltas]))

        bounds_m = [0.5, 1.0, 2.0, 4.0, 8.0]
        mono_ok &= non_decreasing(grid([{**case, "m": m} for m in bounds_m]))

        ks = [1, c - 1, 2 * (c - 1), 3 * (c - 1), 5 * (c - 1)]
        mono_ok &= non_decreasing(grid([{**case, "k": k} for k in ks]))

        if "nn" in theorem:
            widths0 = case["fam"]["widths"]
            scaled = [{**case, "fam": {**case["fam"],
                                       "widths": [w * f for w in widths0]}}
                      for f in (1, 2, 4, 8, 16)]
            mono_ok &= non_decreasing(grid(scaled))

    # the effective-size branch switches exactly at k = 2(|C| - 1)
    cross_ok = True
    n = 9240
    for c in range(2, 13):
        rho = np.full(c, 1.0 / c)
        k_star = 2 * (c - 1)
        plateau = n / (2.0 * c)
        at = effective_n(n, rho, k_star)
        before = effective_n(n, rho, max(1, k_star - 1))
        after = effective_n(n, rho, k_star + 1)
        cross_ok &= abs(at - plateau) <= 1e-12 * plateau
        cross_ok &= abs(before - plateau) <= 1e-12 * plateau
        cross_ok &= after < at * (1 - 1e-9)

    ok = worst < 1e-9 and mono_ok and cross_ok
    _verdict("bound-calculator-oracle", ok,
             f"worst term error {worst:.2e} over {checked} random cases "
             f"(tol 1e-9); monotonicity {'ok' if mono_ok else 'VIOLATED'}; "
             f"branch crossover {'ok' if cross_ok else 'WRONG'}")


# ---------------------------------------------------------------------------
# gradient kernel against finite differences, projection against dense SVD
# (budget: under 30 s)

def test_gradients_and_projection_match_reference():
    worst_fd = 0.0
    for family, model_seed in (("linear", 400), ("mlp", 401)):
        ds = make_pool([6, 6, 5], dim=6, seed=410 + model_seed % 2)
        if family == "linear":
            model = rand_linear(6, 4, seed=model_seed)
        else:
            model = rand_mlp([6, 8, 4], seed=model_seed)
        ts = subsample_tuples(ds, 2, 14, seed=model_seed + 1)
        spec = LossSpec(clip=50.0)
        grads, _ = tuple_batch_backward(model, ds, ts.anchors, ts.positives,
                                        ts.negatives, spec)

        def batch_loss():
            return float(tuple_losses(model, ds, ts.anchors, ts.positives,
                                      ts.negatives, spec).mean())

        probe_rng = np.random.default_rng(42)
        h = 1e-6
        for layer, w in enumerate(model.weights):
            flat = w.ravel()
            for idx in probe_rng.choice(flat.size,
                                        size=min(40, flat.size),
                                        replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                up = batch_loss()
                flat[idx] = orig - h
                down = batch_loss()
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                g = grads[layer].ravel()[idx]
                worst_fd = max(worst_fd,
                               abs(g - fd) / max(abs(g), abs(fd), 1e-6))

    worst_proj = 0.0
    lin = rand_linear(6, 4, seed=420, max_col_sum=1e9, max_spectral=1.25)
    lin.weights[0] *= 5.0
    project(lin)
    sv = np.linalg.svd(lin.weights[0], compute_uv=False)[0]
    worst_proj = max(worst_proj, abs(sv - 1.25))
    net = rand_mlp([5, 7, 3], seed=421, cap=0.9)
    for w in net.weights:
        w *= 8.0
    project(net)
    for w in net.weights:
        sv = np.linalg.svd(w, compute_uv=False)[0]
        worst_proj = max(worst_proj, abs(sv - 0.9))

    ok = worst_fd < 1e-4 and worst_proj < 1e-6
    _verdict("model-numerics", ok,
             f"worst finite-difference error {worst_fd:.2e} (tol 1e-4); "
             f"worst post-projection cap gap {worst_proj:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# the with-replacement estimator's bias over the without-replacement one
# shrinks like 1/N (budget: under 2 min)

def test_vstat_over_ustat_gap_decays_with_pool_size():
    k = 1
    dim = 5
    rng = np.random.default_rng(900)
    centers = 3.0 * rng.standard_normal((3, dim))
    blocks = [centers[c] + 0.8 * rng.standard_normal((32, dim))
              for c in range(3)]
    model = rand_linear(dim, 4, seed=901)
    spec = LossSpec(clip=default_clip(k))

    gaps = []
    for per_class in (8, 16, 32):
        x = np.concatenate([b[:per_class] for b in blocks])
        y = np.repeat(np.arange(3), per_class)
        from uscrl.dataset import LabeledDataset
        ds = LabeledDataset(x=x, y=y, num_classes=3)
        u = ustat_overall(model, ds, k, spec, mode=Exact()).value
        v = vstat_overall(model, ds, k, spec, mode=Exact()).value
        gaps.append(abs(v - u))
    r1 = gaps[0] / gaps[1]
    r2 = gaps[1] / gaps[2]
    ok = r1 >= 1.6 and r2 >= 1.6
    _verdict("vstat-gap-decay", ok,
             f"|V-U| {gaps[0]:.2e} -> {gaps[1]:.2e} -> {gaps[2]:.2e} on "
             f"nested pools; shrink factors {r1:.2f}, {r2:.2f} (need 1.6)")


# ---------------------------------------------------------------------------
# the estimator's bias against the population risk dies off as the pool
# grows; its only source is the chance that a class draws fewer than two
# samples and loses its feasibility indicator, so the setup plants a rare
# class sitting almost on top of a majority class (high conditional risk,
# prior 0.03) to make that term visible at n=30 (budget: under 5 min)

def test_estimator_bias_shrinks_with_pool_size():
    k = 2
    spec = LossSpec(clip=default_clip(k))
    centers = np.zeros((3, 6))
    centers[1, 0] = 0.5
    centers[2, 1] = 4.0
    gspec = GaussianSpec(centers=centers, sigma=0.5,
                         priors=[0.485, 0.03, 0.485])
    a = np.random.default_rng(6).standard_normal((4, 6)) * 0.4
    model = LinearModel(a, max_col_sum=50.0, max_spectral=10.0)
    pop = population_risk_mc(model, gspec, k, spec, num_draws=400000,
                             seed=7).value

    biases, sigmas = [], []
    for i, n in enumerate((30, 100, 300)):
        vals = []
        for d in range(500):
            ds = generate_gaussian(gspec, n, seed=2100000 + i * 1000 + d)
            mode = Exact() if n == 30 else MonteCarlo(4000, seed=d)
            vals.append(ustat_overall(model, ds, k, spec, mode=mode).value)
        arr = np.asarray(vals)
        biases.append(abs(float(arr.mean()) - pop))
        sigmas.append(float(arr.std(ddof=1)) / math.sqrt(arr.size))

    decreasing = biases[0] > biases[1] > biases[2]
    z_final = biases[2] / sigmas[2]
    _verdict("estimator-bias-decay", decreasing and z_final < 4.0,
             f"|bias| {biases[0]:.4f} -> {biases[1]:.4f} -> {biases[2]:.4f} "
             f"over pools 30/100/300 (500 draws each), final z {z_final:.2f} "
             f"(needs decreasing and z < 4)")


# ---------------------------------------------------------------------------
# training on overlapping sub-sampled tuples matches or beats the same
# budget of fully disjoint tuples seed by seed, and on a pool small enough
# to enumerate it lands near the full-enumeration risk
# (budget: under 15 min)

def test_subsampled_regime_beats_disjoint_and_tracks_enumeration():
    k, n_dis = 2, 100
    gspec = GaussianSpec.random(5, dim=12, sigma=0.15, seed=40)
    pool = generate_gaussian(gspec, 420, seed=41)
    cfg = TrainConfig(family="linear", out_dim=8, k=k, epochs=40,
                      batch_size=128, lr=0.3, eval_draws=4000, seed=0)
    rows = [r for s in range(5) for r in compare_regimes(
        pool, n_dis, [1000, 10000], replace(cfg, seed=s), eval_spec=gspec)]
    by = {}
    for r in rows:
        by.setdefault((r["regime"], r["m_count"]), {})[r["seed"]] = \
            r["final_risk"]
    wins = {m: sum(by[("subsampled", m)][s] <= by[("iid_disjoint", n_dis)][s]
                   for s in range(5))
            for m in (1000, 10000)}

    gs2 = GaussianSpec.random(3, dim=8, sigma=0.8, seed=42)
    pool2 = generate_gaussian(gs2, 42, seed=43)
    cfg2 = TrainConfig(family="linear", out_dim=6, k=k, epochs=40,
                       batch_size=256, lr=0.3, eval_draws=4000, seed=0)
    rows2 = [r for s in range(3) for r in compare_regimes(
        pool2, 10, [10000], replace(cfg2, seed=s), eval_spec=gs2)]
    agg = {}
    for r in rows2:
        agg.setdefault(r["regime"], []).append(r["final_risk"])
    sub = float(np.mean(agg["subsampled"]))
    full = float(np.mean(agg["all_tuples"]))
    rel = abs(sub - full) / full

    ok = wins[1000] >= 4 and wins[10000] >= 4 and rel <= 0.10
    _verdict("subsampled-vs-disjoint", ok,
             f"sub <= disjoint in {wins[1000]}/5 seeds at M=1000 and "
             f"{wins[10000]}/5 at M=10000 (need >= 4); small-pool sub risk "
             f"{sub:.4f} vs enumeration {full:.4f} (rel {rel:.3f}, "
             f"tol 0.10)")


# ---------------------------------------------------------------------------
# the pool size needed to train within eps of a strong reference grows with
# tuple arity and with the number of classes; centers sit on a scaled
# simplex so every pairwise separation is equal and the swept parameter is
# the only thing that changes (budget: under 60 min, runs in about 4)

def test_sample_complexity_grows_with_k_and_classes():
    def equiseparated(nc: int, scale: float) -> GaussianSpec:
        centers = np.zeros((nc, 96))
        centers[:, :nc] = scale * (np.eye(nc) - 1.0 / nc)
        return GaussianSpec(centers=centers, sigma=1.0,
                            priors=[1.0 / nc] * nc)

    cfg = TrainConfig(family="linear", out_dim=8, epochs=50, batch_size=256,
                      lr=0.15, spectral_cap=16.0, eval_draws=4000, seed=0)

    def crossings(cases):
        out = []
        for gspec, k in cases:
            res = sample_complexity_search(gspec, k, 0.5, 50, 4000, [0, 1, 2],
                                           cfg, search_tol=50, ref_mult=4,
                                           m_cap=10000)
            assert res["mean_n_eps"] is not None
            out.append(res["mean_n_eps"])
        return np.asarray(out)

    # separation per sweep puts the eps crossing inside the N range: the
    # k sweep needs enough overlap that extra negatives matter while k=2
    # stays solvable at the bottom of the range
    k_means = crossings([(equiseparated(5, 3.6), k) for k in (2, 4, 8)])
    c_means = crossings([(equiseparated(nc, 2.0), 3) for nc in (3, 5, 9)])

    k_r = float(np.corrcoef([2, 4, 8], k_means)[0, 1])
    c_r = float(np.corrcoef([3, 5, 9], c_means)[0, 1])
    ok = (bool(np.all(np.diff(k_means) >= 0)) and k_r >= 0.9
          and bool(np.all(np.diff(c_means) >= 0)) and c_r >= 0.9)
    _verdict("sample-complexity-trends", ok,
             f"mean N_eps over k=2/4/8: {np.round(k_means, 1).tolist()} "
             f"(pearson {k_r:.3f}); over 3/5/9 classes: "
             f"{np.round(c_means, 1).tolist()} (pearson {c_r:.3f}); "
             f"needs both nondecreasing with pearson >= 0.9")
