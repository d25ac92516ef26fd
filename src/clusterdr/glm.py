"""Least squares, logistic regression, fold assignment, and a
group-penalized multinomial classifier used for statistic selection.

All fits are plain numpy. Least squares and logistic regression share
one rank rule, an unpivoted Householder QR of the design rows: columns
are examined left to right and one that adds nothing to the span of
those already kept is dropped, so of two duplicated columns the later
one goes. Both fits then run on the kept columns only.

Both read the design in blocks of 8,192 rows (fewer past 56 columns,
see ``row_blocks``) and copy no more than one block of it. The R factor
of stacked block R factors is the R factor of the stacked rows (TSQR;
Demmel, Grigori, Hoemmen & Langou 2012), so the rank rule factors one
block at a time, and each Newton step of the logistic fit is one pass
over the blocks. A fit on one block's rows is one QR of its rows, as
without blocking.
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
    "GroupLassoResult",
    "wls_fit",
    "logistic_fit",
    "predict_proba",
    "cross_fit_folds",
    "multinomial_group_lasso",
]

_PROB_FLOOR = 1e-10
# Rows per QR block. LAPACK's QR of a taller matrix leans on BLAS
# products whose summation order follows the thread count.
_QR_BLOCK = 8192
# The OpenBLAS 0.3.31 in numpy's wheels runs a matrix-vector product of
# fewer than this many entries on one thread and splits a larger one
# between threads, and the QR of a block leans on such products. Its
# kernel takes the rows of a @ v four at a time, so a block of a
# multiple of four rows gives each row the bits of the whole product.
_ONE_THREAD_ENTRIES = 460_800
_UNROLL = 4
# OpenBLAS runs a matrix product of fewer than this many multiply-adds
# on one thread. Split between threads, the Gram matrix q.T @ q of a
# block sums its rows in an order that follows the thread count.
_ONE_THREAD_PRODUCT = 524_288


@dataclass(frozen=True)
class WlsFit:
    """Least-squares result.

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


def _as_design(design) -> np.ndarray:
    design = np.asarray(design, dtype=float)
    if design.ndim == 1:
        design = design.reshape(-1, 1)
    if design.ndim != 2:
        raise InputError("design must be a matrix")
    return design


def _rank_rule(a: np.ndarray, b=None, labels=None):
    """Drop the columns of ``a`` that its rows do not identify.

    ``[a | b]`` (``a`` alone when ``b`` is None) gets one unpivoted
    Householder QR, taken as the QR of :func:`stacked_block_r` of its
    :func:`row_blocks`; each block is built from the rows of ``a`` and,
    on the first pass, checked as it is factored. A block's check raises
    :class:`InputError` for a non-finite ``b`` ("response contains
    non-finite values"), then for ``labels`` other than 0 and 1 ("labels
    must be 0 or 1"), then for a non-finite value of ``a`` ("design
    contains non-finite values"): the first block holding a bad value
    names the error, and within a block the response or labels come
    before the design. So no check makes a temporary longer than a
    block. |R_jj| is the norm of column j's residual against the columns
    before it, so the first column with |R_jj| at or below
    ``1e-9 * max(||a_j||, 1)`` is dropped (a column of norm at most 1e-9
    always is) and the kept columns are factored again. Each column is
    judged by its own norm, read from the first R, whose columns keep
    ``a``'s norms, so scaling one column moves no other's tolerance.
    With fewer rows than columns, every column past the rank is dropped.
    Returns (kept, dropped, R of the kept columns and ``b``);
    :func:`logistic_fit` runs Newton, and reads its ``tol``, in the
    orthogonal basis that R gives.
    """
    n, p = a.shape
    kept = list(range(p))
    dropped: list = []

    def block(rows, cols):
        blk = a[rows, cols]
        if b is not None:
            blk = np.column_stack([blk, b[rows]])
        if not dropped:
            if b is not None and not np.isfinite(blk[:, -1]).all():
                raise InputError("response contains non-finite values")
            if labels is not None and not (
                    (labels[rows] == 0.0) | (labels[rows] == 1.0)).all():
                raise InputError("labels must be 0 or 1")
            if not np.isfinite(blk).all():
                raise InputError("design contains non-finite values")
        return blk

    while True:
        cols = kept if dropped else slice(None)
        blocks = row_blocks(n, len(kept) + (b is not None))
        r = stacked_block_r(block(rows, cols) for rows in blocks)
        # The stacked triangles are factored again, in blocks while
        # they fill more than one.
        while len(blocks) > 1:
            blocks = row_blocks(*r.shape)
            r = stacked_block_r(r[rows] for rows in blocks)
        if not dropped:
            tol = 1e-9 * np.maximum(np.linalg.norm(r[:, :p], axis=0), 1.0)
        diag = np.abs(np.diagonal(r))[:len(kept)]
        small = np.flatnonzero(diag <= tol[kept][:diag.size])
        if not small.size:
            break
        # Later columns were measured against this one's residual
        # direction, so only the first small pivot is final.
        dropped.append(kept.pop(int(small[0])))
    # With n rows, R has no pivot past column n - 1: those columns lie in
    # the span of the n kept before them.
    rank = diag.size
    dropped.extend(kept[rank:])
    return kept[:rank], tuple(dropped), r


def row_blocks(n: int, width: int = 0) -> list:
    """Slices of ``0..n`` into the blocks that the QR and the Newton
    passes read (one empty block when n is 0): 8,192 rows, or for a
    matrix of more than 56 columns the largest multiple of four rows
    whose ``width`` columns hold fewer than 460,800 entries, so that
    BLAS runs each block's products on one thread. A block always has
    more rows than columns (past 677 columns that overrides the entry
    limit), so the R factors of the blocks are shorter than the rows."""
    step = (_ONE_THREAD_ENTRIES - 1) // max(width, 1) // _UNROLL * _UNROLL
    step = max(min(_QR_BLOCK, step), _UNROLL * (width // _UNROLL + 1))
    return [slice(lo, lo + step) for lo in range(0, max(n, 1), step)]


def stacked_block_r(blocks) -> np.ndarray:
    """R factors of ``blocks``, the row blocks of a matrix, stacked: the
    normal equations of the matrix in at most blocks * p rows (TSQR).
    The one place that row blocks are factored: the rank rule reads its
    rows through it, and a caller that makes each block only when it is
    factored never holds the whole matrix."""
    return np.vstack([np.linalg.qr(block, mode="r") for block in blocks])


def wls_fit(design, response) -> WlsFit:
    """Solve least squares with deterministic rank handling.

    The system ``[A | b]`` gets one QR, which drops the columns its rows
    do not identify (the rule shared with :func:`logistic_fit`, see
    ``_rank_rule``); the kept triangle then gives the coefficients. On
    the retained columns the residuals are orthogonal to the design up
    to ``1e-8 * (1 + ||response||)``. The QR runs on the
    :func:`row_blocks` of the rows, made one at a time, so the fit
    copies no more than one block of the design, and the response is
    checked for non-finite values one block at a time with the design:
    the first block holding either names the error, and a block holding
    both reports the response's. Weighted least squares with weights w
    is this fit on the rows of ``[A | b]`` scaled by ``sqrt(w)``, which
    the caller makes (``estimators._within_fit`` does, block by block).

    Any system with the same normal equations gives the same fit, so a
    caller holding R factors of blocks of ``[A | b]``'s rows may pass
    their stack ``S`` (:func:`stacked_block_r`) as ``S[:, :p], S[:, p]``
    instead of the rows: its column norms, and hence the rank rule, are
    those of ``A`` (:func:`~clusterdr.estimators.fit_nuisances` does this
    per fold).
    """
    a = _as_design(design)
    b = np.asarray(response, dtype=float)
    n, p = a.shape
    if b.shape != (n,):
        raise InputError(f"response has shape {b.shape}, expected ({n},)")
    kept, dropped, r = _rank_rule(a, b)
    rank = len(kept)
    coef = np.zeros(p)
    if kept:
        coef[kept] = np.linalg.solve(r[:rank, :rank], r[:rank, -1])
    return WlsFit(coefficients=coef, rank=rank, columns_dropped=dropped)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(eta))
    return np.where(eta >= 0.0, 1.0, z) / (1.0 + z)


def _newton_terms(a, blocks, cols, y, s_inv, pen, g):
    """One pass over the row ``blocks`` of ``a[:, cols]`` at ``g``: the
    log-likelihood of ``q @ g`` less ``g @ pen @ g / 2`` (``pen`` None:
    no penalty), the least and largest probability, the score and the
    Hessian, for the basis rows ``q = a[:, cols] @ s_inv`` of each block
    in turn."""
    ll, p_lo, p_hi, score, h = 0.0, 1.0, 0.0, 0.0, 0.0
    k = s_inv.shape[0]
    # rows per Hessian product: all of a block unless k is 8 or more
    step = max((_ONE_THREAD_PRODUCT - 1) // max(k * k, 1), 1)
    for rows in blocks:
        q = a[rows, cols] @ s_inv
        yb = y[rows]
        eta = q @ g
        # One exp(-|eta|) gives the probability and
        # log(1 + exp(eta)) = max(eta, 0) + log1p(exp(-|eta|)).
        z = np.exp(-np.abs(eta))
        prob = np.where(eta >= 0.0, 1.0, z) / (1.0 + z)
        ll += float((yb * eta - np.maximum(eta, 0.0) - np.log1p(z)).sum())
        p_lo = min(p_lo, float(prob.min(initial=1.0)))
        p_hi = max(p_hi, float(prob.max(initial=0.0)))
        # einsum sums the rows in a fixed order; the order of q.T @ v
        # follows the BLAS thread count.
        score = score + np.einsum("ij,i->j", q, yb - prob)
        qw = q * (prob * (1.0 - prob))[:, None]
        for lo in range(0, max(len(q), 1), step):
            h = h + qw[lo:lo + step].T @ q[lo:lo + step]
    if pen is not None:
        ll -= 0.5 * g @ pen @ g
        score = score - pen @ g
        h = h + pen
    return ll, p_lo, p_hi, score, h


def _irls(a, cols, y, tol, max_iter, ridge, s_inv, g):
    """Damped Newton from ``g`` on the log-likelihood of ``q @ g``, for
    ``q = a[:, cols] @ s_inv``, less ``ridge * beta @ beta / 2`` for
    ``beta = s_inv @ g``. Without a ridge it stops at the first
    separation, so every solve sees ``q.T D q`` with every weight in D
    positive, or a positive penalty."""
    blocks = row_blocks(a.shape[0], s_inv.shape[0])
    pen = ridge * (s_inv.T @ s_inv) if ridge else None
    ll, p_lo, p_hi, score, h = _newton_terms(a, blocks, cols, y, s_inv, pen,
                                             g)
    separation = False
    # ``iterations`` counts the Newton steps taken before this check;
    # separation: a probability left the open interval (1e-10, 1 - 1e-10)
    for iterations in range(max_iter + 1):
        separation = (separation or p_lo <= _PROB_FLOOR
                      or p_hi >= 1.0 - _PROB_FLOOR)
        max_abs_score = float(np.max(np.abs(score))) if score.size else 0.0
        if (max_abs_score < tol or iterations == max_iter
                or (separation and ridge == 0.0)):
            break
        step = np.linalg.solve(h, score)
        # Damped update: halve until the penalized log-likelihood
        # does not decrease.
        scale = 1.0
        for _ in range(40):
            g_new = g + scale * step
            terms = _newton_terms(a, blocks, cols, y, s_inv, pen, g_new)
            if terms[0] >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            scale *= 0.5
        g = g_new
        ll, p_lo, p_hi, score, h = terms
    return g, max_abs_score < tol, iterations, max_abs_score, separation


def logistic_fit(
    design,
    labels,
    tol: float = 1e-8,
    max_iter: int = 100,
    ridge: float = 0.0,
    start=None,
) -> LogisticFit:
    """Fit a binary logistic regression by damped Newton steps.

    The design rows' R factor drops the columns they do not identify by
    the rule :func:`wls_fit` uses (see ``_rank_rule``); a dropped
    column's coefficient is an exact zero, listed in ``columns_dropped``.

    With A the kept columns and ``S = R / sqrt(n)``, Newton runs on
    ``g = S @ beta`` in the orthogonal basis ``q = A @ inv(S)``, whose
    columns have unit mean square whatever the scale of A; IRLS is then
    a sequence of least-squares problems in q (Green 1984). Each step
    makes q one :func:`row_blocks` block at a time and takes the
    probabilities, log-likelihood, score and Hessian from that block
    before the next, so no n-row array is kept. It starts from zero or
    from ``start`` (one coefficient per design column, e.g. a fit on
    overlapping data; entries of dropped columns are ignored) mapped in
    as ``S @ start``; ``iterations`` counts the steps from there.
    ``tol`` is read in that basis: convergence means every entry of the
    score ``q.T @ (y - p)``, less the ridge term, is below ``tol`` in
    absolute value, and ``max_abs_score`` is the largest. ``ridge``
    penalizes ``beta @ beta / 2``. When ``ridge`` is zero and the fit
    runs into separation (a fitted probability leaving the open interval
    (1e-10, 1 - 1e-10), the start included), a fit from ``start`` first
    retries once from zero, and if that separates too the fit restarts
    from zero with ridge 1e-6; the result then still reports
    ``separation_detected``.

    Labels other than 0 and 1 and non-finite design values are looked
    for one block at a time, as the rank rule reads the rows: the first
    block holding either names the error, and a block holding both
    reports the labels' ("labels must be 0 or 1").
    """
    a = _as_design(design)
    y = np.asarray(labels, dtype=float)
    n, p = a.shape
    if y.shape != (n,):
        raise InputError(f"labels have shape {y.shape}, expected ({n},)")
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

    kept, dropped, r = _rank_rule(a, labels=y)
    k = len(kept)
    cols = kept if dropped else slice(None)
    s = r[:k, :k] / math.sqrt(n)
    s_inv = np.linalg.inv(s)
    g = np.zeros(k) if start is None else s @ start[kept]
    g, converged, iters, max_score, separation = _irls(
        a, cols, y, tol, max_iter, ridge, s_inv, g)
    if separation and ridge == 0.0 and start is not None:
        # A start far from the optimum can reach the floor on the way.
        g, converged, iters, max_score, separation = _irls(
            a, cols, y, tol, max_iter, ridge, s_inv, np.zeros(k))
    if separation and ridge == 0.0:
        ridge = 1e-6
        g, converged, iters, max_score, _ = _irls(
            a, cols, y, tol, max_iter, ridge, s_inv, np.zeros(k))
    coef = np.zeros(p)
    coef[kept] = s_inv @ g
    return LogisticFit(coefficients=coef, converged=converged,
                       iterations=iters, max_abs_score=max_score,
                       separation_detected=separation, ridge=ridge,
                       columns_dropped=dropped)


def predict_proba(fit: LogisticFit, design) -> np.ndarray:
    """Predicted probabilities of the rows of ``design`` (a vector is
    one column, as in :func:`logistic_fit`), clamped to [1e-10, 1 -
    1e-10]. Requires a converged fit or a positive ridge, so downstream
    inverse weights stay finite and reproducible."""
    if not fit.converged and fit.ridge == 0.0:
        raise EstimationError(
            "refusing to predict from an unconverged unpenalized fit"
        )
    a = _as_design(design)
    if a.shape[1] != fit.coefficients.shape[0]:
        raise InputError(
            f"design has {a.shape[1]} columns, fit expects "
            f"{fit.coefficients.shape[0]}"
        )
    prob = _sigmoid(a @ fit.coefficients)
    return np.clip(prob, _PROB_FLOOR, 1.0 - _PROB_FLOOR)


def cross_fit_folds(c: int, L: int, seed: int) -> np.ndarray:
    """Deal clusters into ``L`` folds after a seeded shuffle.

    Returns the int64 fold label, 0..L-1, of each cluster. Clusters are
    permuted by a generator seeded with ``seed`` and dealt round-robin,
    so fold sizes differ by at most one and the assignment is
    reproducible given (c, L, seed).
    """
    if L < 2:
        raise InputError(f"need at least 2 folds, got {L}")
    if L > c:
        raise InputError(f"cannot split {c} clusters into {L} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(c)
    fold_of_cluster = np.empty(c, dtype=np.int64)
    fold_of_cluster[perm] = np.arange(c) % L
    return fold_of_cluster


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
    if not np.all(np.isfinite(f)):
        raise InputError("design contains non-finite values")
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
    # can never be selected. Column 0 of x is the intercept. Dividing
    # each column by the power of two at its largest |f| first is exact,
    # so the standardized values keep their bits, and no sum overflows.
    top = np.maximum(f.max(axis=0, initial=0.0), -f.min(axis=0, initial=0.0))
    f = np.ldexp(f, -np.frexp(top)[1])
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
