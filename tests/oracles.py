"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit loops, normal
equations, dense dummy matrices) and must stay decoupled from the library
code paths it checks. Tests compare library output against these.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

import numpy as np


def cluster_means_from_csv(path, cid_col, value_cols):
    """Aggregate per-cluster means straight off the CSV text, no numpy."""
    sums = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(int)
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            cid = row[cid_col]
            counts[cid] += 1
            for col in value_cols:
                sums[cid][col] += float(row[col])
    return {
        cid: {col: sums[cid][col] / counts[cid] for col in value_cols}
        for cid in counts
    }


def naive_suffstat_means(cluster_ids, term_values):
    """Double-loop within-cluster means of each term column.

    term_values: n x T array of per-unit basis-function values.
    Returns an n x T array where each row holds its cluster's means.
    """
    n, t = term_values.shape
    out = np.empty((n, t))
    for i in range(n):
        members = [j for j in range(n) if cluster_ids[j] == cluster_ids[i]]
        for k in range(t):
            out[i, k] = sum(term_values[j, k] for j in members) / len(members)
    return out


def normal_equations_wls(design, response, weights):
    """WLS by explicit normal equations on a (presumed full-rank) design."""
    w = np.asarray(weights, dtype=float)
    xtw = design.T * w
    beta = np.linalg.solve(xtw @ design, xtw @ response)
    return beta


def gradient_descent_logistic(design, labels, weights=None, ridge=0.0,
                              lr=None, iters=200_000, tol=1e-12):
    """Plain (slow) gradient ascent on the penalized Bernoulli log-likelihood."""
    n, p = design.shape
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    beta = np.zeros(p)
    if lr is None:
        # 1/L for L = largest-eigenvalue bound of the penalized Hessian:
        # the Bernoulli variance is at most 1/4, so L <= smax^2/4 + ridge.
        smax_sq = np.linalg.norm(design * np.sqrt(w)[:, None], 2) ** 2
        lr = 1.0 / (smax_sq / 4.0 + ridge + 1e-12)
    for _ in range(iters):
        eta = design @ beta
        prob = 1.0 / (1.0 + np.exp(-eta))
        grad = design.T @ (w * (labels - prob)) - ridge * beta
        beta_new = beta + lr * grad
        if np.max(np.abs(beta_new - beta)) < tol:
            beta = beta_new
            break
        beta = beta_new
    return beta


def scalar_psi(y, w, mu1, mu0, e):
    """Re-derivation of the influence functional, written independently."""
    contrast = mu1 - mu0
    if w == 1:
        resid_term = (1.0 / e) * (y - mu1)
    else:
        resid_term = (-1.0 / (1.0 - e)) * (y - mu0)
    return contrast + resid_term


def dummy_ols_fe(y, w, x, cluster_ids):
    """Fixed-effects tau via explicit per-cluster dummy columns."""
    labels = sorted(set(cluster_ids))
    n = len(y)
    dummies = np.zeros((n, len(labels)))
    for i, cid in enumerate(cluster_ids):
        dummies[i, labels.index(cid)] = 1.0
    design = np.column_stack([w, x, dummies])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return beta[0]


def dummy_wls_fe(y, w, x, cluster_ids, weights):
    """Weighted fixed-effects tau via explicit dummies and sqrt-weight scaling."""
    labels = sorted(set(cluster_ids))
    n = len(y)
    dummies = np.zeros((n, len(labels)))
    for i, cid in enumerate(cluster_ids):
        dummies[i, labels.index(cid)] = 1.0
    design = np.column_stack([w, x, dummies])
    sw = np.sqrt(np.asarray(weights, dtype=float))
    beta, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    return beta[0]


def dummy_ols_twoway(y, w, x, unit_ids, time_ids):
    """Two-way FE tau with explicit unit and time dummies (one time level dropped)."""
    units = sorted(set(unit_ids))
    times = sorted(set(time_ids))
    n = len(y)
    ud = np.zeros((n, len(units)))
    td = np.zeros((n, len(times) - 1))
    for i in range(n):
        ud[i, units.index(unit_ids[i])] = 1.0
        t = times.index(time_ids[i])
        if t > 0:
            td[i, t - 1] = 1.0
    design = np.column_stack([w, x, ud, td])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return beta[0]


def straight_line_dr(y, w, mu1, mu0, e, a, cluster_ids):
    """Independent transcription of the point estimate and variance formulas.

    Returns (tau_hat, v_hat). Written as literal loops over units/clusters.
    """
    n = len(y)
    a_bar = sum(a) / n
    total = 0.0
    for i in range(n):
        if a[i]:
            total += scalar_psi(y[i], w[i], mu1[i], mu0[i], e[i])
    tau_hat = total / (n * a_bar)

    labels = sorted(set(cluster_ids))
    xi = []
    for cid in labels:
        members = [i for i in range(n) if cluster_ids[i] == cid]
        s = 0.0
        for i in members:
            if not a[i]:
                continue
            ipw = w[i] / e[i] - (1 - w[i]) / (1 - e[i])
            resid = y[i] - (mu1[i] if w[i] == 1 else mu0[i])
            s += ipw * resid
        xi.append(s / len(members))
    xi = np.asarray(xi)
    v_hat = (1.0 / a_bar**2) * np.mean((xi - xi.mean()) ** 2)
    return tau_hat, v_hat


def scan_weighted_quantile(values, weights, q):
    """Exhaustive scan for the smallest c with weighted step-CDF >= q."""
    order = np.argsort(values, kind="stable")
    values = np.asarray(values)[order]
    weights = np.asarray(weights, dtype=float)[order]
    total = weights.sum()
    for c in np.unique(values):
        mass = weights[values <= c].sum() / total
        if mass >= q:
            return float(c)
    return float(values[-1])


def naive_mixture_posterior(pi, pmfs, cluster_cells):
    """Direct-product posterior over components for one cluster.

    pi: length-p prior; pmfs: p x n_cells tables; cluster_cells: iterable of
    cell indices observed in the cluster. No log-space tricks on purpose.
    """
    p = len(pi)
    joint = np.empty(p)
    for k in range(p):
        prod = pi[k]
        for cell in cluster_cells:
            prod *= pmfs[k][cell]
        joint[k] = prod
    return joint / joint.sum()


def cluster_warnings(w, labels):
    """Per-cluster loop over the single-unit and all-one-arm advisories.

    Clusters are visited in order of first appearance of their label.
    Returns (warnings, ids of the all-one-arm clusters).
    """
    order, size, treated = [], {}, {}
    for wi, lab in zip(w, labels):
        if lab not in size:
            order.append(lab)
            size[lab] = 0
            treated[lab] = 0
        size[lab] += 1
        treated[lab] += int(wi)
    warnings, degenerate = [], []
    for cid, label in enumerate(order):
        n, t = size[label], treated[label]
        if n == 1:
            warnings.append(f"cluster {label!r} has a single unit")
        if t == 0 or t == n:
            degenerate.append(cid)
            arm = "treated" if t == n else "control"
            warnings.append(f"cluster {label!r} is all-{arm} ({n} units)")
    return warnings, degenerate


def loop_group_means(ids, values, n_groups, weights=None):
    """Per-group means by one pass over the rows, weighting each row by
    ``weights[i]`` (1 when None); a vector gives a vector back."""
    matrix = np.ndim(values) == 2
    m = np.shape(values)[1] if matrix else 1
    sums = [[0.0] * m for _ in range(n_groups)]
    totals = [0.0] * n_groups
    for i, g in enumerate(ids):
        wt = 1.0 if weights is None else float(weights[i])
        totals[g] += wt
        row = values[i] if matrix else [values[i]]
        for j in range(m):
            sums[g][j] += wt * float(row[j])
    out = np.array([[s / totals[g] for s in sums[g]]
                    for g in range(n_groups)]).reshape(n_groups, m)
    return out if matrix else out[:, 0]


def setdefault_ids(labels):
    """Row-by-row label interning: dense ids in order of first appearance
    and the number of distinct labels."""
    mapping = {}
    ids = [mapping.setdefault(lab, len(mapping)) for lab in labels]
    return ids, len(mapping)


def rowwise_write_csv(d, path, header):
    """Row-by-row CSV writer: the header, then per unit the outcome's
    repr, the arm, the cluster label and each covariate's repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        labels = d.cluster_labels
        for i in range(d.n):
            writer.writerow(
                [repr(float(d.y[i])), int(d.w[i]), labels[d.cluster_index[i]]]
                + [repr(float(v)) for v in d.x[i]]
            )


def rowwise_write_per_rep(rep, path):
    """Row-by-row per-rep CSV: the rep number, the repr of each estimate,
    standard error and truth, and ``covered`` as 0/1, empty when NaN."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "tau_hat", "se", "truth", "covered"])
        for r in range(rep.tau_hat.shape[0]):
            writer.writerow([
                r,
                repr(float(rep.tau_hat[r])),
                repr(float(rep.se[r])),
                repr(float(rep.truth[r])),
                int(rep.covered[r]) if not math.isnan(
                    float(rep.covered[r])) else "",
            ])


def rowwise_write_posterior(labels, post, path):
    """Row-by-row posterior CSV: per cluster its label, then the repr of
    each component's posterior probability."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster"]
                        + [f"post_{j}" for j in range(post.shape[1])])
        for label, row in zip(labels, post):
            writer.writerow([label] + [repr(float(v)) for v in row])


def dictreader_load_panel(path, unit="unit", time="time", outcome="y",
                          treatment="w", covariates=None):
    """Long-form panel read one ``csv.DictReader`` row at a time: the
    outcome, treatment and each covariate through ``float``, the labels
    as read, then ``make_panel``. For valid files only."""
    from clusterdr import make_panel

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if covariates is None:
            claimed = {unit, time, outcome, treatment}
            covariates = [h for h in reader.fieldnames if h not in claimed]
        ys, ws, units, times, xs = [], [], [], [], []
        for row in reader:
            ys.append(float(row[outcome]))
            ws.append(float(row[treatment]))
            xs.append([float(row[c]) for c in covariates])
            units.append(row[unit])
            times.append(row[time])
    x = np.asarray(xs, dtype=float)
    if x.size == 0:
        x = np.empty((len(ys), 0))
    return make_panel(np.asarray(ys), np.asarray(ws), x, units, times)


def multinomial_gradient(features, labels, coefficients):
    """Gradient of the multinomial negative log-likelihood with respect to
    the stacked (1 + q, m) coefficients, with dense one-hot labels.

    Features are centered and divided by their population standard
    deviation (1 for a constant column), an intercept column goes first,
    and the last label in first-appearance order is the reference class
    with linear predictor 0.
    """
    f = np.asarray(features, dtype=float)
    n, q = f.shape
    sd = f.std(axis=0)
    sd[sd == 0.0] = 1.0
    x = np.ones((n, 1 + q))
    x[:, 1:] = (f - f.mean(axis=0)) / sd
    order = []
    for lab in labels:
        if lab not in order:
            order.append(lab)
    onehot = np.zeros((n, len(order)))
    for i, lab in enumerate(labels):
        onehot[i, order.index(lab)] = 1.0
    eta = np.zeros((n, len(order)))
    eta[:, :-1] = x @ coefficients
    prob = np.exp(eta - eta.max(axis=1, keepdims=True))
    prob /= prob.sum(axis=1, keepdims=True)
    return x.T @ (prob - onehot)[:, :-1]


def perfold_fit_nuisances(d, s_bar, folds, cfg=None):
    """Cross-fitting with one fit per fold on copies of the training
    rows: least squares by a Householder QR of the training design, a
    cold-started logistic fit, and both outcome designs built at w = 1
    and w = 0 for the held-out rows. ``cfg`` is a ``NuisanceConfig``
    (the defaults when None).

    Returns (mu0, mu1, e, columns dropped per fold).
    """
    from clusterdr import NuisanceConfig
    from clusterdr.glm import logistic_fit, predict_proba, wls_fit

    cfg = cfg or NuisanceConfig()
    w = d.w.astype(float)
    sizes = np.unique(d.n_c)
    unit_size = d.n_c[d.cluster_index]
    size_cols = ([(unit_size == s).astype(float) for s in sizes[1:]]
                 if cfg.size_indicators else [])
    no_cols = np.empty((d.n, 0))
    s_out = s_bar if cfg.outcome_use_summaries else no_cols
    s_prop = s_bar if cfg.propensity_use_summaries else no_cols

    def outcome(arm, rows):
        x, s = d.x[rows], s_out[rows]
        parts = [np.ones(len(arm)), arm, x, s]
        if cfg.outcome_interactions:
            parts += [x * arm[:, None], s * arm[:, None]]
        return np.column_stack(parts + [c[rows] for c in size_cols])

    design_e = np.column_stack([np.ones(d.n), d.x, s_prop] + size_cols)
    fold_of_unit = folds.fold_of_cluster[d.cluster_index]
    mu0, mu1, e = np.empty(d.n), np.empty(d.n), np.empty(d.n)
    dropped = []
    for fold in range(folds.L):
        test = fold_of_unit == fold
        train = ~test
        ofit = wls_fit(outcome(w[train], train), d.y[train])
        dropped.append(ofit.columns_dropped)
        n_test = int(test.sum())
        mu1[test] = outcome(np.ones(n_test), test) @ ofit.coefficients
        mu0[test] = outcome(np.zeros(n_test), test) @ ofit.coefficients
        pfit = logistic_fit(design_e[train], w[train], ridge=cfg.ridge)
        e[test] = predict_proba(pfit, design_e[test])
    return mu0, mu1, e, dropped
