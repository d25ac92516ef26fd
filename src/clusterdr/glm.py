"""Weighted least squares, logistic regression, fold assignment, and a
group-penalized multinomial classifier used for statistic selection.

All fits are plain numpy. Least squares and logistic regression share
one rank rule, an unpivoted Householder QR of the design rows: columns
are examined left to right and one that adds nothing to the span of
those already kept is dropped, so of two duplicated columns the later
one goes. Both fits then run on the kept columns only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import intern_labels
from .exceptions import DegenerateDesignError, EstimationError, InputError

__all__ = [
    "WlsFit",
    "LogisticFit",
    "FoldAssignment",
    "GroupLassoResult",
    "wls_fit",
    "logistic_fit",
    "predict_proba",
    "cross_fit_folds",
    "multinomial_group_lasso",
]

_PROB_FLOOR = 1e-10


@dataclass(frozen=True)
class WlsFit:
    """Weighted least-squares result.

    ``coefficients`` has one entry per design column; dropped columns
    get an exact zero, so ``design @ coefficients`` gives the fitted
    values. ``rank`` counts the retained columns.
    """

    coefficients: np.ndarray
    rank: int
    columns_dropped: tuple


@dataclass(frozen=True)
class LogisticFit:
    """Logistic regression result from damped Newton iterations; each
    column in ``columns_dropped`` has an exact zero coefficient."""

    coefficients: np.ndarray
    converged: bool
    iterations: int
    max_abs_score: float
    separation_detected: bool
    ridge: float
    columns_dropped: tuple


@dataclass(frozen=True)
class FoldAssignment:
    """Cluster-level fold labels for cross-fitting."""

    fold_of_cluster: np.ndarray
    L: int
    seed: int


def _as_design(design) -> np.ndarray:
    design = np.asarray(design, dtype=float)
    if design.ndim == 1:
        design = design.reshape(-1, 1)
    if design.ndim != 2:
        raise InputError("design must be a matrix")
    if not np.all(np.isfinite(design)):
        raise InputError("design contains non-finite values")
    return design


def _rank_rule(a: np.ndarray, b=None):
    """Drop the columns of ``a`` that its rows do not identify.

    ``[a | b]`` (``a`` alone when ``b`` is None) gets one unpivoted
    Householder QR. Its diagonal entry |R_jj| is the norm of column j's
    residual against the columns before it, so the first column with
    |R_jj| at or below ``1e-9 * max(largest column norm, 1)`` is dropped
    and the kept columns are factored again; with fewer rows than
    columns, every column past the rank is dropped. Returns (kept,
    dropped, R of the kept columns and ``b``, max(largest column norm, 1)).
    """
    n, p = a.shape
    sq_norms = np.einsum("ij,ij->j", a, a)
    scale = max(math.sqrt(sq_norms.max(initial=0.0)), 1.0)
    tol = 1e-9 * scale
    kept = list(range(p))
    dropped: list = []
    tail = np.empty((n, 0)) if b is None else b[:, None]
    while True:
        # LAPACK factors column-major storage; building it so saves a copy.
        ab = np.empty((n, len(kept) + tail.shape[1]), order="F")
        ab[:, : len(kept)] = a[:, kept]
        ab[:, len(kept):] = tail
        r = np.linalg.qr(ab, mode="r")
        diag = np.abs(np.diagonal(r))[: len(kept)]
        small = np.flatnonzero(diag <= tol)
        if not small.size:
            break
        # Later columns were measured against this one's residual
        # direction, so only the first small pivot is final.
        dropped.append(kept.pop(int(small[0])))
    # With n rows, R has no pivot past column n - 1: those columns lie in
    # the span of the n kept before them.
    rank = diag.size
    dropped.extend(kept[rank:])
    return kept[:rank], tuple(dropped), r, scale


def wls_fit(design, response, weights=None) -> WlsFit:
    """Solve weighted least squares with deterministic rank handling.

    Weights are non-negative per-row multipliers on squared residuals;
    ``None`` means ordinary least squares. The weighted system
    ``[A | b]`` gets one QR, which drops the columns its rows do not
    identify (the rule shared with :func:`logistic_fit`, see
    ``_rank_rule``); the kept triangle then gives the coefficients. On
    the retained columns the weighted residuals are orthogonal to the
    design up to ``1e-8 * (1 + ||response||)``.

    Any system with the same normal equations gives the same fit, so a
    caller holding R factors of blocks of ``[A | b]``'s rows may pass
    their stack ``S`` as ``S[:, :p], S[:, p]`` instead of the rows: its
    column norms, and hence the rank rule, are those of ``A``
    (:func:`~clusterdr.estimators.fit_nuisances` does this per fold).
    """
    a = _as_design(design)
    b = np.asarray(response, dtype=float)
    n, p = a.shape
    if b.shape != (n,):
        raise InputError(f"response has shape {b.shape}, expected ({n},)")
    if not np.all(np.isfinite(b)):
        raise InputError("response contains non-finite values")
    if weights is not None:
        wt = np.asarray(weights, dtype=float)
        if wt.shape != (n,):
            raise InputError(f"weights have shape {wt.shape}, expected ({n},)")
        if not np.all(np.isfinite(wt)) or np.any(wt < 0):
            raise InputError("weights must be finite and non-negative")
        if not np.any(wt > 0):
            raise InputError("all weights are zero")
        root = np.sqrt(wt)
        a = a * root[:, None]
        b = b * root
    kept, dropped, r, _ = _rank_rule(a, b)
    rank = len(kept)
    coef = np.zeros(p)
    if kept:
        coef[kept] = np.linalg.solve(r[:rank, :rank], r[:rank, -1])
    return WlsFit(coefficients=coef, rank=rank, columns_dropped=dropped)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(eta))
    return np.where(eta >= 0.0, 1.0, z) / (1.0 + z)


def _prob_loglik(eta, y, beta, ridge):
    """Probabilities and penalized log-likelihood at ``eta`` from one
    ``exp(-|eta|)``."""
    z = np.exp(-np.abs(eta))
    prob = np.where(eta >= 0.0, 1.0, z) / (1.0 + z)
    # log(1 + exp(eta)) = max(eta, 0) + log1p(exp(-|eta|))
    terms = y * eta - np.maximum(eta, 0.0) - np.log1p(z)
    ll = float(terms.sum()) - 0.5 * ridge * float(beta @ beta)
    return prob, ll


def _irls(a, y, tol, max_iter, ridge, start):
    p = a.shape[1]
    beta = np.zeros(p) if start is None else start.copy()
    prob, ll = _prob_loglik(a @ beta, y, beta, ridge)
    separation = False
    # ``iterations`` counts the Newton steps taken before this check;
    # separation: a probability left the open interval (1e-10, 1 - 1e-10)
    for iterations in range(max_iter + 1):
        separation = (separation or prob.min(initial=1.0) <= _PROB_FLOOR
                      or prob.max(initial=0.0) >= 1.0 - _PROB_FLOOR)
        score = a.T @ (y - prob) - ridge * beta
        max_abs_score = float(np.max(np.abs(score))) if p else 0.0
        if max_abs_score < tol or iterations == max_iter:
            break
        d = prob * (1.0 - prob)
        h = (a * d[:, None]).T @ a
        if ridge > 0.0:
            h = h + ridge * np.eye(p)
        try:
            step = np.linalg.solve(h, score)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(h, score, rcond=None)
        # Damped update: halve until the penalized log-likelihood
        # does not decrease.
        scale = 1.0
        for _ in range(40):
            beta_new = beta + scale * step
            eta_new = a @ beta_new
            prob_new, ll_new = _prob_loglik(eta_new, y, beta_new, ridge)
            if ll_new >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            scale *= 0.5
        beta, prob, ll = beta_new, prob_new, ll_new
    return beta, max_abs_score < tol, iterations, max_abs_score, separation


def logistic_fit(
    design,
    labels,
    tol: float = 1e-8,
    max_iter: int = 100,
    ridge: float = 0.0,
    start=None,
) -> LogisticFit:
    """Fit a binary logistic regression by damped Newton steps.

    The design rows' R factor drops the columns they do not identify
    by the rule :func:`wls_fit` uses (see ``_rank_rule``): Newton runs
    on the kept columns only, and a dropped column's coefficient is an
    exact zero, listed in ``columns_dropped``. So no coefficient is
    left where ``start`` put it for want of data.

    Newton starts from ``start`` (one coefficient per design column,
    e.g. a fit on overlapping data; entries of dropped columns are
    ignored) or from zero when it is ``None`` or a pivot of the kept
    columns' R factor is at or below ``1e-6 * max(largest column norm,
    1)``; ``iterations`` counts the steps taken from there. Convergence
    means the largest absolute score entry falls below ``tol``. When
    ``ridge`` is zero and the fit runs into separation (a fitted
    probability leaving the open interval (1e-10, 1 - 1e-10), the start
    included), the fit restarts once from zero with ridge 1e-6; the
    result still reports ``separation_detected``.
    """
    a = _as_design(design)
    y = np.asarray(labels, dtype=float)
    n, p = a.shape
    if y.shape != (n,):
        raise InputError(f"labels have shape {y.shape}, expected ({n},)")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise InputError("labels must be 0 or 1")
    if ridge < 0:
        raise InputError("ridge must be >= 0")
    if max_iter < 0:
        raise InputError("max_iter must be >= 0")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (p,):
            raise InputError(f"start has shape {start.shape}, expected ({p},)")
        if not np.all(np.isfinite(start)):
            raise InputError("start contains non-finite values")

    # R factors of row blocks stack to the rows' R factor (TSQR), so the
    # rule needs no copy of the rows; blocks also factor faster.
    tri = [np.linalg.qr(a[i:i + 8192], mode="r")
           for i in range(0, max(n, 1), 8192)]
    kept, dropped, r, scale = _rank_rule(np.vstack(tri))
    if dropped:
        a = a[:, kept]
    if start is not None:
        start = start[kept]
        # Along a direction the rows barely identify, where the fit
        # stops depends on the start: held-out probabilities moved by
        # up to 0.03 between warm and cold starts at design condition
        # numbers near 5e8.
        if np.any(np.abs(np.diagonal(r)) <= 1e-6 * scale):
            start = None
    beta, converged, iters, max_score, separation = _irls(
        a, y, tol, max_iter, ridge, start
    )
    effective_ridge = ridge
    if separation and ridge == 0.0:
        effective_ridge = 1e-6
        beta, converged, iters, max_score, _ = _irls(
            a, y, tol, max_iter, effective_ridge, None
        )
        separation = True
    coef = np.zeros(p)
    coef[kept] = beta
    return LogisticFit(
        coefficients=coef,
        converged=converged,
        iterations=iters,
        max_abs_score=max_score,
        separation_detected=separation,
        ridge=effective_ridge,
        columns_dropped=dropped,
    )


def predict_proba(fit: LogisticFit, design) -> np.ndarray:
    """Predicted probabilities, clamped to [1e-10, 1 - 1e-10].

    Accepts a single row or a matrix. Requires a converged fit or a
    positive ridge, so downstream inverse weights stay finite and
    reproducible.
    """
    if not fit.converged and fit.ridge == 0.0:
        raise EstimationError(
            "refusing to predict from an unconverged unpenalized fit"
        )
    a = np.asarray(design, dtype=float)
    single = a.ndim == 1
    if single:
        a = a.reshape(1, -1)
    if a.shape[1] != fit.coefficients.shape[0]:
        raise InputError(
            f"design has {a.shape[1]} columns, fit expects "
            f"{fit.coefficients.shape[0]}"
        )
    prob = _sigmoid(a @ fit.coefficients)
    prob = np.clip(prob, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    return prob[0] if single else prob


def cross_fit_folds(c: int, L: int, seed: int) -> FoldAssignment:
    """Deal clusters into ``L`` folds after a seeded shuffle.

    Clusters are permuted by a generator seeded with ``seed`` and dealt
    round-robin, so fold sizes differ by at most one and the assignment
    is reproducible given (c, L, seed).
    """
    if L < 2:
        raise InputError(f"need at least 2 folds, got {L}")
    if L > c:
        raise InputError(f"cannot split {c} clusters into {L} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(c)
    fold_of_cluster = np.empty(c, dtype=np.int64)
    fold_of_cluster[perm] = np.arange(c) % L
    return FoldAssignment(fold_of_cluster=fold_of_cluster, L=L, seed=seed)


# ---------------------------------------------------------------------------
# Group-penalized multinomial classification for statistic selection.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathPoint:
    """Selection state at one penalty level.

    ``coefficients`` is the (1 + q, m) fit on the standardized
    candidates: row 0 holds the intercepts of the m non-reference
    clusters, row 1 + j candidate j's block. ``converged`` is False when the fit hit the iteration cap;
    ``iterations`` counts its steps (0 at or above ``lambda_max``).
    """

    lam: float
    selected: tuple
    coefficients: np.ndarray
    converged: bool
    iterations: int


@dataclass(frozen=True)
class GroupLassoResult:
    """Output of :func:`multinomial_group_lasso`.

    ``selected`` holds candidate indices with a nonzero coefficient
    block at the requested penalty (or the smallest grid penalty when
    only a grid was given). ``path`` records the selection at each grid
    point from largest penalty down. ``converged`` is True when every
    path point converged; ``iterations`` sums their steps.
    """

    selected: tuple
    lam: float
    path: tuple
    lambda_max: float
    converged: bool
    iterations: int


def _softmax(x: np.ndarray, coef: np.ndarray, prob: np.ndarray) -> None:
    """Write the non-reference class probabilities at ``coef`` into the
    (n, m) array ``prob``; the reference class has linear predictor 0."""
    np.matmul(x, coef, out=prob)
    top = np.maximum(prob.max(axis=1), 0.0)
    prob -= top[:, None]
    np.exp(prob, out=prob)
    prob /= (prob.sum(axis=1) + np.exp(-top))[:, None]


def _bregman(prob: np.ndarray, delta: np.ndarray) -> float:
    """``f(y + d) - f(y) - <grad f(y), d>`` for the multinomial loss f,
    from the probabilities at y and ``delta = x @ d`` (overwritten).

    Each row gives ``log1p(sum_k p_k expm1(delta_k)) - p . delta``, which
    stays accurate for tiny d, where a difference of two losses would
    be lost to rounding.
    """
    linear = float(np.vdot(prob, delta))
    np.expm1(delta, out=delta)
    delta *= prob
    return float(np.sum(np.log1p(delta.sum(axis=1)))) - linear


def _fista(x, coef, lam, xty, prob, delta, step, min_step, tol, max_iter):
    """Minimize the multinomial loss plus ``lam`` times the candidate
    block norms, warm-started at ``coef``, by FISTA with backtracking
    (Beck & Teboulle 2009).

    Each iteration takes one softmax at the extrapolated point, tries a
    step 1.25 times the last one, and halves it (not below
    ``min_step``, where the bound always holds) until the quadratic
    upper bound holds after the block soft-threshold. Momentum restarts
    when a step turns against the last move (O'Donoghue & Candes 2015).
    ``xty`` is ``x.T @ Y`` for the one-hot labels Y. Stops when no
    coefficient moves by ``tol``; returns (coef, step, converged, steps).
    """
    prev = coef
    theta = 1.0
    for it in range(1, max_iter + 1):
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        y = coef + ((theta - 1.0) / theta_next) * (coef - prev)
        theta = theta_next
        _softmax(x, y, prob)
        grad = x.T @ prob - xty
        step *= 1.25
        while True:
            z = y - step * grad
            norms = np.linalg.norm(z[1:], axis=1)
            shrink = np.zeros_like(norms)
            live = norms > step * lam
            shrink[live] = 1.0 - step * lam / norms[live]
            z[1:] *= shrink[:, None]
            d = z - y
            np.matmul(x, d, out=delta)
            if (step == min_step
                    or _bregman(prob, delta) <= np.vdot(d, d) / (2.0 * step)):
                break
            step = max(0.5 * step, min_step)
        if np.vdot(y - z, z - coef) > 0.0:
            theta = 1.0
        move = float(np.max(np.abs(z - coef)))
        prev, coef = coef, z
        if move < tol:
            return coef, step, True, it
    return coef, step, False, max_iter


def multinomial_group_lasso(
    features,
    cluster_labels,
    lam: Optional[float] = None,
    lambda_grid=None,
    tol: float = 1e-6,
    max_sweeps: int = 1000,
    n_lambdas: int = 25,
    lambda_min_ratio: float = 1e-3,
    stop_after_k: Optional[int] = None,
) -> GroupLassoResult:
    """Select candidate statistics by classifying cluster membership.

    The classifier is a multinomial logit from unit-level candidate
    features to the unit's cluster, using the last cluster (in first
    appearance order) as the reference category. Each candidate's
    coefficients across categories are penalized as one group, so a
    candidate is either fully in or fully out; intercepts are free.
    Features are centered and scaled internally.

    Pass ``lam`` for a single fit, ``lambda_grid`` (descending) for a
    path, or neither to use an automatic geometric grid from
    ``lambda_max``, the smallest penalty that zeroes everything. With
    ``stop_after_k`` the path stops early once that many candidates are
    active. At or above ``lambda_max`` the fit is the exact all-zero
    one with intercepts ``log(n_k / n_ref)``. Below it, each penalty is
    fit by FISTA, warm-started from the previous one, until no
    coefficient moves by ``tol`` in a step or ``max_sweeps`` steps are
    taken; a fit stopped by the cap has ``converged=False``.
    """
    f = _as_design(features)
    n, q = f.shape
    labels = list(cluster_labels)
    if len(labels) != n:
        raise InputError(f"got {len(labels)} labels for {n} rows")
    dense, categories = intern_labels(labels)
    n_cat = len(categories)
    if n_cat < 2:
        raise InputError("need at least two clusters to classify")
    if lam is not None and lam < 0:
        raise InputError("lambda must be >= 0")

    # Standardize candidates; a constant column becomes all-zero and
    # can never be selected. Column 0 of x is the intercept.
    mu = f.mean(axis=0)
    sd = f.std(axis=0)
    sd[sd == 0.0] = 1.0
    x = np.column_stack([np.ones(n), (f - mu) / sd])

    ref = n_cat - 1
    rows = np.flatnonzero(dense != ref)
    prob = np.zeros((n, ref))
    prob[rows, dense[rows]] = 1.0
    xty = x.T @ prob
    delta = np.empty_like(prob)

    # With free intercepts only, the multinomial MLE matches the class
    # frequencies.
    counts = np.bincount(dense)
    null = np.zeros((1 + q, ref))
    null[0] = np.log(counts[:ref] / counts[ref])
    _softmax(x, null, prob)
    prob[rows, dense[rows]] -= 1.0
    grad_norms = np.linalg.norm(x[:, 1:].T @ prob, axis=1)
    lambda_max = float(grad_norms.max(initial=0.0))

    if lambda_grid is not None:
        grid = [float(v) for v in lambda_grid]
        if any(v < 0 for v in grid):
            raise InputError("lambda grid values must be >= 0")
        grid = sorted(grid, reverse=True)
    elif lam is not None and lam >= lambda_max:
        grid = [lam]
    elif lam is not None:
        grid = list(np.geomspace(
            max(lambda_max, lam, 1e-12), max(lam, 1e-12), num=8
        ))
        if grid[-1] != lam:
            grid.append(lam)
    else:
        hi = max(lambda_max, 1e-12)
        grid = list(np.geomspace(hi, hi * lambda_min_ratio, num=n_lambdas))

    # 1/L for L = ||x||_F^2 / 2, a bound on the loss's curvature.
    step = min_step = 2.0 / float(np.vdot(x, x))
    coef = null
    path = []
    for lam_k in grid:
        if lam_k >= lambda_max:
            coef, converged, iters = null, True, 0
        else:
            coef, step, converged, iters = _fista(
                x, coef, lam_k, xty, prob, delta, step, min_step, tol,
                max_sweeps,
            )
        norms = np.linalg.norm(coef[1:], axis=1)
        sel = tuple(int(j) for j in np.flatnonzero(norms > 0.0))
        path.append(PathPoint(lam=float(lam_k), selected=sel,
                              coefficients=coef, converged=converged,
                              iterations=iters))
        if stop_after_k is not None and len(sel) >= stop_after_k:
            break

    final = path[-1]
    if lam is not None:
        final = next((point for point in path if point.lam == lam), final)
    return GroupLassoResult(
        selected=final.selected,
        lam=final.lam,
        path=tuple(path),
        lambda_max=lambda_max,
        converged=all(point.converged for point in path),
        iterations=sum(point.iterations for point in path),
    )
