"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit loops, normal
equations, dense dummy matrices) and must stay decoupled from the library
code paths it checks. Tests compare library output against these.
"""

from __future__ import annotations

import csv
import json
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


def unit_suffstats(d, spec):
    """``build_suffstats`` as it was when it gave one row per unit: each
    term's cluster means broadcast back to the units, an (n, t) matrix."""
    s_bar = np.empty((d.n, len(spec)))
    for col, term in enumerate(spec.terms):
        s_bar[:, col] = d.cluster_means(term.unit_values(d))[d.cluster_index]
    return s_bar


def unit_posterior_summaries(d, posterior):
    """``augment_with_posterior`` as it was when it gave one row per
    unit: each unit's cluster row of the (c, p) posterior, less the last
    column when p > 1."""
    return posterior[d.cluster_index, : max(posterior.shape[1] - 1, 1)]


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


def axis0_unique_cells(x, w):
    """Distinct (x, w) rows by one ``np.unique(axis=0)`` over the stacked
    matrix: (cell tuples of float covariates and an int treatment, cell
    index per unit). A cell's zero keeps the sign of whichever row the
    sort puts first."""
    rows, unit_cell = np.unique(np.column_stack([x, w]), axis=0,
                                return_inverse=True)
    cells = [tuple(row[:-1]) + (int(row[-1]),) for row in rows.tolist()]
    return cells, unit_cell.reshape(-1)


def dumps_body(body):
    """The canonical body bytes as they are defined: one sorted-key,
    two-space ``json.dumps`` and a newline."""
    return (json.dumps(body, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode("utf-8")


def dumps_report(body, meta):
    """A report file's bytes: the whole payload through one sorted-key,
    two-space ``json.dumps``."""
    return (json.dumps({"body": body, "meta": meta}, sort_keys=True,
                       indent=2, allow_nan=False) + "\n").encode("utf-8")


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
    fold_of_unit = folds[d.cluster_index]
    mu0, mu1, e = np.empty(d.n), np.empty(d.n), np.empty(d.n)
    dropped = []
    for fold in range(folds.max() + 1):
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


def chunked_read_units(path, outcome, treatment, labels, covariates=None):
    """The unit reader as it was before the one-pass parse: ``csv.reader``
    in chunks of 512 rows, each chunk parsed column by column with
    ``float``, and on any bad cell a row-major scan that raises the
    first bad cell's error. Kept verbatim as the reference for every
    accepted spelling and every error text."""
    import itertools
    from operator import itemgetter

    from clusterdr import InputError

    def parse_float(text, row, column):
        try:
            return float(text)
        except (TypeError, ValueError):
            raise InputError(
                f"row {row}: column {column!r} value {text!r} is not numeric"
            ) from None

    def parse_columns(rows, take, n_labels, n_cov):
        m = len(rows)
        try:
            cols = list(zip(*map(take, rows)))
            y = np.fromiter(map(float, cols[0]), dtype=float, count=m)
            w = np.fromiter(map(float, cols[1]), dtype=float, count=m)
            x = np.empty((n_cov, m))
            for j, col in enumerate(cols[2 + n_labels:]):
                x[j] = np.fromiter(map(float, col), dtype=float, count=m)
        except (IndexError, ValueError):
            return None
        labs = cols[2:2 + n_labels]
        if (any("" in lab for lab in labs)
                or not np.all((w == 0.0) | (w == 1.0))
                or not np.all(np.isfinite(x))):
            return None
        return y, w, labs, x

    def raise_first_bad_cell(rows, first_row, pos):
        for row_num, row in enumerate(rows, start=first_row):
            cell = {col: row[i] if i < len(row) else None
                    for col, i in pos.items()}
            parse_float(cell[outcome], row_num, outcome)
            w_val = parse_float(cell[treatment], row_num, treatment)
            if w_val not in (0.0, 1.0):
                raise InputError(
                    f"row {row_num}: treatment must be 0 or 1, got {w_val}"
                )
            for role, col in labels.items():
                if cell[col] is None or cell[col] == "":
                    raise InputError(f"row {row_num}: empty {role} label")
            for col in covariates:
                text = cell[col]
                if text is None or text == "":
                    raise InputError(
                        f"row {row_num}: missing covariate {col!r}"
                    )
                val = parse_float(text, row_num, col)
                if math.isnan(val) or math.isinf(val):
                    raise InputError(
                        f"row {row_num}: covariate {col!r} is not finite"
                    )

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty file")
        roles = [outcome, treatment, *labels.values()]
        covariates = ([h for h in header if h not in roles]
                      if covariates is None else list(covariates))
        for col in roles + covariates:
            if col not in header:
                raise InputError(f"{path}: missing column {col!r}")

        pos = {name: i for i, name in enumerate(header)}
        take = itemgetter(*(pos[col] for col in roles + covariates))
        parts = []
        row_num = 2
        while True:
            chunk = list(itertools.islice(reader, 512))
            if not chunk:
                break
            rows = [row for row in chunk if row]
            if not rows:
                continue
            parsed = parse_columns(rows, take, len(labels), len(covariates))
            if parsed is None:
                raise_first_bad_cell(rows, row_num, pos)
            parts.append(parsed)
            row_num += len(rows)
    if not parts:
        raise InputError(f"{path}: no data rows")
    ys, ws, labs, xs = zip(*parts)
    x = np.ascontiguousarray(np.concatenate(xs, axis=1).T)
    return (np.concatenate(ys), np.concatenate(ws),
            [list(itertools.chain.from_iterable(col)) for col in zip(*labs)],
            x)


def _unblocked_rank_rule(a, b=None):
    """The QR rank rule on all rows at once: one unpivoted Householder QR
    of ``[a | b]``, dropping the first column j whose |R_jj| is at or
    below ``1e-9 * max(||a_j||, 1)``, its own column's norm, and
    refactoring, until none is; with fewer rows than columns, the columns
    past the rank go too. Returns (kept, dropped, R of the kept columns
    and ``b``)."""
    n, p = a.shape
    tol = 1e-9 * np.maximum(np.sqrt(np.einsum("ij,ij->j", a, a)), 1.0)
    kept, dropped = list(range(p)), []
    tail = np.empty((n, 0)) if b is None else b[:, None]
    while True:
        r = np.linalg.qr(np.column_stack([a[:, kept], tail]), mode="r")
        diag = np.abs(np.diagonal(r))[:len(kept)]
        small = np.flatnonzero(diag <= tol[kept][:diag.size])
        if not small.size:
            break
        dropped.append(kept.pop(int(small[0])))
    rank = diag.size
    dropped.extend(kept[rank:])
    return kept[:rank], tuple(dropped), r


def unblocked_wls_fit(design, response, weights=None):
    """Weighted least squares by one QR of the whole weighted system
    ``[A | b]``, with the library's rank rule. Returns (coefficients,
    dropped columns), a dropped column's coefficient being 0."""
    a = np.asarray(design, dtype=float)
    b = np.asarray(response, dtype=float)
    if weights is not None:
        root = np.sqrt(np.asarray(weights, dtype=float))
        a, b = a * root[:, None], b * root
    kept, dropped, r = _unblocked_rank_rule(a, b)
    rank = len(kept)
    coef = np.zeros(a.shape[1])
    if kept:
        coef[kept] = np.linalg.solve(r[:rank, :rank], r[:rank, -1])
    return coef, dropped


def stored_basis_logistic_fit(design, labels, tol=1e-8, max_iter=100,
                              ridge=0.0):
    """Cold-started damped Newton on the logistic log-likelihood in the
    orthogonal basis ``q = A_kept @ inv(S)``, ``S = R / sqrt(n)``, with
    q stored whole and every probability kept between steps; a run that
    separates without a ridge is redone with ridge 1e-6. Returns
    (coefficients, dropped columns, ridge)."""
    a = np.asarray(design, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, p = a.shape
    kept, dropped, r = _unblocked_rank_rule(a)
    k = len(kept)
    s = r[:k, :k] / math.sqrt(n)
    s_inv = np.linalg.inv(s)
    q = a[:, kept] @ s_inv

    def loglik(g, pen):
        eta = q @ g
        prob = 1.0 / (1.0 + np.exp(-eta))
        ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
        return prob, ll - 0.5 * g @ pen @ g

    def irls(ridge):
        pen = ridge * (s_inv.T @ s_inv)
        g = np.zeros(k)
        prob, ll = loglik(g, pen)
        for it in range(max_iter + 1):
            if (ridge == 0.0 and (prob.min(initial=1.0) <= 1e-10
                                  or prob.max(initial=0.0) >= 1 - 1e-10)):
                return g, True
            score = q.T @ (y - prob) - pen @ g
            if np.max(np.abs(score), initial=0.0) < tol or it == max_iter:
                return g, False
            h = (q * (prob * (1.0 - prob))[:, None]).T @ q + pen
            step = np.linalg.solve(h, score)
            scale = 1.0
            for _ in range(40):
                g_new = g + scale * step
                prob_new, ll_new = loglik(g_new, pen)
                if ll_new >= ll - 1e-12 * (1.0 + abs(ll)):
                    break
                scale *= 0.5
            g, prob, ll = g_new, prob_new, ll_new
        return g, False

    g, separated = irls(ridge)
    if separated:
        ridge = 1e-6
        g, _ = irls(ridge)
    coef = np.zeros(p)
    coef[kept] = s_inv @ g
    return coef, dropped, ridge


def copying_fit_nuisances(d, s_bar, fold_of_cluster, cfg=None):
    """Cross-fitting as it was before the nuisance stage kept one design
    buffer: every fold gets a new training design, new training row
    indices and labels, and its held-out rows' design whole; the
    outcome triangles are factored as in the library. ``s_bar`` is the
    (n, t) matrix of :func:`unit_suffstats`, and the size indicators
    are made per unit too. Input checks are left out. Returns (mu0,
    mu1, e, the LogisticFit of every fold). The outcome design is
    ``[w * base[:, :m] | base | y]``: its m treatment columns, w times
    the intercept and (with interactions) x and the summaries, then the
    prediction rows ``base``."""
    from clusterdr import NuisanceConfig
    from clusterdr.glm import (logistic_fit, predict_proba, row_blocks,
                               stacked_block_r, wls_fit)

    cfg = cfg or NuisanceConfig()
    L = int(fold_of_cluster.max()) + 1
    unit_size = d.n_c[d.cluster_index]
    size_cols = np.column_stack(
        [np.empty((d.n, 0))]
        + [(unit_size == s).astype(float) for s in np.unique(d.n_c)[1:]
           if cfg.size_indicators])

    def _base_rows(d, s_bar, use_summaries, size_cols, rows):
        parts = [np.ones((len(rows), 1)), d.x[rows]]
        if use_summaries:
            parts.append(s_bar[rows])
        return np.concatenate(parts + [size_cols[rows]], axis=1)

    def _outcome_rows(d, s_bar, cfg, size_cols, rows):
        w, x = d.w[rows], d.x[rows]
        s = s_bar[rows] if cfg.outcome_use_summaries else x[:, :0]
        treat = [w]
        if cfg.outcome_interactions:
            treat += [x * w[:, None], s * w[:, None]]
        return np.column_stack(treat + [np.ones(w.size), x, s,
                                        size_cols[rows], d.y[rows]])

    t = s_bar.shape[1] if cfg.outcome_use_summaries else 0
    m = 1 + d.k + t if cfg.outcome_interactions else 1
    p = m + 1 + d.k + t + size_cols.shape[1]
    fold_of_unit = fold_of_cluster[d.cluster_index]
    tests = [np.flatnonzero(fold_of_unit == fold) for fold in range(L)]
    tri = [stacked_block_r(_outcome_rows(d, s_bar, cfg, size_cols, test[rows])
                           for rows in row_blocks(test.size, p + 1))
           for test in tests]
    mu0, mu1, e = np.empty((3, d.n))
    fits = []
    start = None
    for fold, test in enumerate(tests):
        train = np.flatnonzero(fold_of_unit != fold)
        w_train = d.w[train]
        stack = np.vstack(tri[:fold] + tri[fold + 1:])
        coef = wls_fit(stack[:, :p], stack[:, p]).coefficients
        coef0 = coef[m:]
        coef1 = coef0.copy()
        coef1[:m] += coef[:m]
        rows = _base_rows(d, s_bar, cfg.outcome_use_summaries, size_cols,
                          test)
        mu0[test] = rows @ coef0
        mu1[test] = rows @ coef1
        if cfg.propensity_use_summaries != cfg.outcome_use_summaries:
            rows = _base_rows(d, s_bar, cfg.propensity_use_summaries,
                              size_cols, test)
        design = _base_rows(d, s_bar, cfg.propensity_use_summaries,
                            size_cols, train)
        pfit = logistic_fit(design, w_train, ridge=cfg.ridge, start=start)
        fits.append(pfit)
        start = None if pfit.separation_detected else pfit.coefficients
        e[test] = predict_proba(pfit, rows)
    return mu0, mu1, e, fits


def nrow_within_fit(d, omega=None):
    """The within-cluster fit as it was before it was blocked: the n-row
    matrix ``[y | w | x]`` loses its ``omega``-weighted cluster means in
    place, its rows are scaled by ``sqrt(omega)`` and ``wls_fit`` takes
    them. Returns the treatment coefficient."""
    from clusterdr.glm import wls_fit

    v = np.column_stack([d.y, d.w, d.x])
    means = d.cluster_means(v, omega)
    for j in range(v.shape[1]):
        v[:, j] -= means[d.cluster_index, j]
    if omega is not None:
        v *= np.sqrt(omega)[:, None]
    return float(wls_fit(v[:, 1:], v[:, 0]).coefficients[0])


def dense_twoway_mundlak_check(p):
    """The panel check as it was before it shared the cross-section
    fits: the n-row matrix ``[y | w | x]`` loses its unit and period
    means and gains its grand means, and ``wls_fit`` takes those rows;
    the Mundlak design ``[1 | w | x | unit and period means]`` is built
    with n rows too. Returns ``(tau_fe, tau_mundlak)``."""
    from clusterdr.dataset import group_means
    from clusterdr.exceptions import DegenerateDesignError
    from clusterdr.glm import wls_fit

    v = np.column_stack([p.y, p.w, p.x])
    unit = group_means(p.unit_index, v, p.n_units)[p.unit_index]
    time = group_means(p.time_index, v, p.n_periods)[p.time_index]
    v_t = v - unit - time + np.array([col.mean() for col in v.T])
    if float(v_t[:, 1] @ v_t[:, 1]) <= 1e-12 * max(1, p.n):
        raise DegenerateDesignError("no residual treatment variation")
    tau_fe = float(wls_fit(v_t[:, 1:], v_t[:, 0]).coefficients[0])
    # unit mean, then period mean, of w and of each covariate in turn
    means = np.stack([unit[:, 1:], time[:, 1:]], axis=2).reshape(p.n, -1)
    design = np.column_stack([np.ones(p.n), v[:, 1:], means])
    return tau_fe, float(wls_fit(design, p.y).coefficients[1])
