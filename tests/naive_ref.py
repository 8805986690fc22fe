"""Slow, loop-based reference implementations used as test oracles.

Everything here is written directly from the defining formulas with plain
Python loops, itertools and math, independent of the package's vectorized
code paths. Tests compare the fast implementations against these.
"""

import math
from itertools import combinations, product

import numpy as np


def naive_loss(kind, v, clip=math.inf, margin=1.0):
    v = [float(x) for x in v]
    if kind == "logistic":
        raw = math.log(1.0 + sum(math.exp(-x) for x in v))
    else:
        raw = max(0.0, margin - min(v))
    return min(raw, clip)


def naive_scores(reps, anchor, positive, negatives):
    ra = reps[anchor]
    return [float(np.dot(ra, reps[positive]) - np.dot(ra, reps[j]))
            for j in negatives]


def naive_class_ustat(reps, pos_idx, neg_idx, k, kind, clip, margin=1.0):
    """Plain triple loop over ordered pairs x negative k-subsets."""
    total = 0.0
    count = 0
    for i in pos_idx:
        for j in pos_idx:
            if i == j:
                continue
            for negs in combinations(list(neg_idx), k):
                v = naive_scores(reps, i, j, negs)
                total += naive_loss(kind, v, clip, margin)
                count += 1
    if count == 0:
        return 0.0, 0
    return total / count, count


def naive_overall_ustat(reps, y, num_classes, k, kind, clip, margin=1.0):
    n = len(y)
    total = 0.0
    for c in range(num_classes):
        pos = [i for i in range(n) if y[i] == c]
        neg = [i for i in range(n) if y[i] != c]
        val, cnt = naive_class_ustat(reps, pos, neg, k, kind, clip, margin)
        if cnt == 0:
            continue
        total += (len(pos) / n) * val
    return total


def naive_class_vstat(reps, pos_idx, neg_idx, k, kind, clip, margin=1.0):
    """With replacement: anchors may equal positives, negatives repeat."""
    total = 0.0
    count = 0
    for i in pos_idx:
        for j in pos_idx:
            for negs in product(list(neg_idx), repeat=k):
                v = naive_scores(reps, i, j, negs)
                total += naive_loss(kind, v, clip, margin)
                count += 1
    if count == 0:
        return 0.0, 0
    return total / count, count


def naive_overall_vstat(reps, y, num_classes, k, kind, clip, margin=1.0):
    n = len(y)
    total = 0.0
    for c in range(num_classes):
        pos = [i for i in range(n) if y[i] == c]
        neg = [i for i in range(n) if y[i] != c]
        val, cnt = naive_class_vstat(reps, pos, neg, k, kind, clip, margin)
        if cnt == 0:
            continue
        total += (len(pos) / n) * val
    return total


def naive_mass_weighted_risk(reps, y, num_classes, k, kind, clip, margin=1.0):
    """Sum of loss * tuple mass over the complete enumeration."""
    n = len(y)
    total = 0.0
    for c in range(num_classes):
        pos = [i for i in range(n) if y[i] == c]
        neg = [i for i in range(n) if y[i] != c]
        cnt = len(pos) * (len(pos) - 1) * math.comb(len(neg), k)
        if cnt == 0:
            continue
        mass = (len(pos) / n) / cnt
        for i in pos:
            for j in pos:
                if i == j:
                    continue
                for negs in combinations(neg, k):
                    v = naive_scores(reps, i, j, negs)
                    total += mass * naive_loss(kind, v, clip, margin)
    return total


def naive_enumeration(pos_idx, neg_idx, k):
    """(anchor, positive, negatives) triples: pairs slowest, subsets fastest."""
    out = []
    for i in pos_idx:
        for j in pos_idx:
            if i == j:
                continue
            for negs in combinations(list(neg_idx), k):
                out.append((i, j, tuple(negs)))
    return out


def naive_score_grad(kind, v, clip=math.inf, margin=1.0):
    """d loss / d v_i, written from the loss definitions; 0 when clipped.

    Hinge puts -1 on the first minimal score strictly inside (0, clip).
    """
    v = [float(x) for x in v]
    if kind == "logistic":
        denom = 1.0 + sum(math.exp(-x) for x in v)
        if math.log(denom) >= clip:
            return [0.0] * len(v)
        return [-math.exp(-x) / denom for x in v]
    raw = margin - min(v)
    g = [0.0] * len(v)
    if 0.0 < raw < clip:
        g[v.index(min(v))] = -1.0
    return g


def naive_batch_grad(a_mat, x, anchors, positives, negatives, kind, clip,
                     margin=1.0):
    """Gradient in A of the mean tuple loss for the linear map x -> A x.

    Per tuple, v_i = x_a^T A^T A d_i with d_i = x_p - x_i-, so
    dv_i/dA = A (x_a d_i^T + d_i x_a^T); the chain rule sums these with
    the score gradients, one tuple at a time.
    """
    a_mat = np.asarray(a_mat, dtype=np.float64)
    total = np.zeros_like(a_mat)
    for t in range(len(anchors)):
        xa = x[anchors[t]]
        ra = a_mat @ xa
        v, ds = [], []
        for j in negatives[t]:
            d = x[positives[t]] - x[j]
            v.append(float(ra @ (a_mat @ d)))
            ds.append(d)
        for gi, d in zip(naive_score_grad(kind, v, clip, margin), ds):
            if gi:
                total += gi * (a_mat @ (np.outer(xa, d) + np.outer(d, xa)))
    return total / len(anchors)


def trailing_loss_and_grad(kind, v, clip=math.inf, margin=1.0):
    """Clipped losses and score gradients of (batch, k) scores, row by row.

    The stable formulas with every reduction over the k scores of one
    row: logistic m = max(0, max_i -v_i), denominator
    exp(-m) + sum_i exp(-v_i - m), loss m + log(denominator), gradient
    -exp(-v_i - m) / denominator; hinge margin - min_i v_i with -1 on the
    first minimal score strictly inside (0, clip). Gradients are 0 on
    clipped rows.
    """
    v = np.asarray(v, dtype=np.float64)
    losses = np.empty(v.shape[0])
    grads = np.zeros_like(v)
    for t, row in enumerate(v):
        if kind == "logistic":
            neg = -row
            m = np.maximum(neg.max(), 0.0)
            e = np.exp(neg - m)
            denom = np.exp(-m) + e.sum()
            raw = m + np.log(denom)
            if raw < clip:
                grads[t] = -e / denom
            losses[t] = min(raw, clip)
        else:
            raw = margin - row.min()
            if 0.0 < raw < clip:
                grads[t, int(np.argmin(row))] = -1.0
            losses[t] = min(max(0.0, raw), clip)
    return losses, grads


def _std_error(s, sq, n):
    """sqrt(sample variance / n) from the running sum and sum of squares."""
    if n < 2:
        return 0.0
    return math.sqrt(max(0.0, (sq - s * s / n) / (n - 1)) / n)


def _chunk_sums(reps, spec, anchors, positives, negatives, chunk):
    """Loss sum and sum of squares, one np.sum per chunk of chunk terms."""
    from uscrl.loss import loss_value, scores_from_reps

    s = sq = 0.0
    for lo in range(0, anchors.shape[0], chunk):
        sl = slice(lo, lo + chunk)
        lv = loss_value(spec, scores_from_reps(reps, anchors[sl],
                                               positives[sl], negatives[sl]))
        s += float(lv.sum())
        sq += float((lv * lv).sum())
    return s, sq


def naive_mc_ustat(reps, y, num_classes, k, spec, num_draws, seed, chunk):
    """Monte Carlo U-statistic stream, class by class.

    Class c draws from its own generator,
    default_rng(SeedSequence((seed, c)).generate_state(1)[0]), chunk draws
    at a time: ordered pairs, then negative k-subsets. Returns the
    frequency-weighted value and standard error. The draws and losses go
    through the package's helpers, so this pins the seeding, the draw
    order and the summation order, bit for bit.
    """
    from uscrl.tuples import draw_ksubsets, draw_ordered_pairs

    n = len(y)
    total = var = 0.0
    for c in range(num_classes):
        pos = np.array([i for i in range(n) if y[i] == c], dtype=np.int64)
        neg = np.array([i for i in range(n) if y[i] != c], dtype=np.int64)
        if len(pos) < 2 or len(neg) < k:
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, c)).generate_state(1)[0])
        s = sq = 0.0
        for lo in range(0, num_draws, chunk):
            m = min(chunk, num_draws - lo)
            a, p = draw_ordered_pairs(rng, len(pos), m)
            sub = draw_ksubsets(rng, len(neg), k, m)
            cs, csq = _chunk_sums(reps, spec, pos[a], pos[p], neg[sub], chunk)
            s += cs
            sq += csq
        w = len(pos) / n
        total += w * (s / num_draws)
        var += (w * _std_error(s, sq, num_draws)) ** 2
    return total, math.sqrt(var)


def naive_mc_vstat(reps, y, num_classes, k, spec, num_draws, seed, chunk):
    """Monte Carlo V-statistic stream: one default_rng(seed) for all classes.

    Each class with an in-class and an out-of-class sample draws all its
    anchors, then all positives, then all (num_draws, k) negatives with
    replacement from the shared generator, and its losses are summed
    chunk terms at a time. Returns the weighted value and standard error.
    """
    rng = np.random.default_rng(seed)
    n = len(y)
    total = var = 0.0
    for c in range(num_classes):
        pos = np.array([i for i in range(n) if y[i] == c], dtype=np.int64)
        neg = np.array([i for i in range(n) if y[i] != c], dtype=np.int64)
        if len(pos) < 1 or len(neg) < 1:
            continue
        j1 = rng.integers(0, len(pos), size=num_draws)
        j2 = rng.integers(0, len(pos), size=num_draws)
        dig = rng.integers(0, len(neg), size=(num_draws, k))
        s, sq = _chunk_sums(reps, spec, pos[j1], pos[j2], neg[dig], chunk)
        w = len(pos) / n
        total += w * (s / num_draws)
        var += (w * _std_error(s, sq, num_draws)) ** 2
    return total, math.sqrt(var)


def naive_mean_classifier(reps, labels, num_classes, queries):
    """Class means from per-sample running sums, then for each query the
    first class with the largest dot product among the classes that have a
    sample. Returns (means as lists, predictions)."""
    d = len(reps[0])
    sums = [[0.0] * d for _ in range(num_classes)]
    counts = [0] * num_classes
    for row, c in zip(reps, labels):
        counts[int(c)] += 1
        for j in range(d):
            sums[int(c)][j] += float(row[j])
    means = [[s / max(counts[c], 1) for s in sums[c]]
             for c in range(num_classes)]
    preds = []
    for q in queries:
        best, best_score = None, -math.inf
        for c in range(num_classes):
            if counts[c] == 0:
                continue
            score = sum(float(q[j]) * means[c][j] for j in range(d))
            if best is None or score > best_score:
                best, best_score = c, score
        preds.append(best)
    return means, preds


def naive_forward(weights, activations, x):
    """Layer by layer, ReLU as a fresh copy; returns every layer input, the
    pre-activations and the output."""
    h = np.asarray(x, dtype=np.float64)
    inputs, preacts = [], []
    for w, kind in zip(weights, activations):
        inputs.append(h)
        z = h @ w.T
        preacts.append(z)
        h = np.maximum(z, 0.0) if kind == "relu" else z
    return inputs, preacts, h


def naive_preact_backprop(weights, activations, x, grad_out):
    """Weight gradients of sum(grad_out * output), each ReLU layer masked
    with its pre-activations z > 0."""
    inputs, preacts, _ = naive_forward(weights, activations, x)
    grads = [None] * len(weights)
    delta = grad_out
    for l in range(len(weights) - 1, -1, -1):
        if activations[l] == "relu":
            delta = delta * (preacts[l] > 0.0)
        grads[l] = delta.T @ inputs[l]
        if l > 0:
            delta = delta @ weights[l]
    return grads


def naive_population_risk(model, gspec, k, spec, num_draws, seed):
    """Monte Carlo population risk, chunk by chunk, with per-block arrays.

    A chunk holds max(1, 2^21 // ((k + 2) dim)) draws. Per chunk, from one
    default_rng(seed) stream: the classes from the priors, the (m, k)
    negative classes, at most 64 rounds of rejection redraws of every
    negative equal to its tuple's class, a draw of the negatives still
    equal to it from the priors without that class, anchor class by
    anchor class, then separate standard normal draws for the anchors,
    the positives and the (m, k) negatives, each center + sigma * z. The
    rows are concatenated and forwarded with ReLU as a copy, scored with a
    broadcast diff, and the losses summed per chunk. Returns the
    RiskEstimate the package should return, bit for bit.
    """
    from uscrl.loss import loss_value
    from uscrl.risk import RiskEstimate

    rng = np.random.default_rng(seed)
    priors = gspec.priors
    c, dim = gspec.num_classes, gspec.dim
    chunk = max(1, (1 << 21) // ((k + 2) * dim))
    s = sq = 0.0
    done = 0
    while done < num_draws:
        m = min(chunk, num_draws - done)
        cls = rng.choice(c, size=m, p=priors)
        negc = rng.choice(c, size=(m, k), p=priors)
        bad = negc == cls[:, None]
        for _ in range(64):
            if not bad.any():
                break
            negc[bad] = rng.choice(c, size=int(bad.sum()), p=priors)
            bad = negc == cls[:, None]
        for a in range(c):
            left = bad & (cls[:, None] == a)
            if left.any():
                q = priors.copy()
                q[a] = 0.0
                negc[left] = rng.choice(c, size=int(left.sum()), p=q / q.sum())
        xa = gspec.centers[cls] + gspec.sigma * rng.standard_normal((m, dim))
        xp = gspec.centers[cls] + gspec.sigma * rng.standard_normal((m, dim))
        xn = gspec.centers[negc] + gspec.sigma * rng.standard_normal((m, k, dim))
        reps = naive_forward(model.weights, model.activations, np.concatenate(
            [xa, xp, xn.reshape(m * k, dim)], axis=0))[2]
        ra, rp = reps[:m], reps[m:2 * m]
        v = np.einsum("bd,bkd->bk", ra,
                      rp[:, None, :] - reps[2 * m:].reshape(m, k, -1))
        lv = loss_value(spec, v)
        s += float(lv.sum())
        sq += float((lv * lv).sum())
        done += m
    return RiskEstimate(s / num_draws, "population_mc", num_draws,
                        std_error=_std_error(s, sq, num_draws), seed=seed)
