"""Weighted least squares, logistic regression, fold assignment, and a
group-penalized multinomial classifier used for statistic selection.

All fits are plain numpy. Least squares has one kernel, an unpivoted
Householder QR of the weighted system, which also resolves rank
deficiency deterministically: columns are examined left to right and a
column that adds nothing to the span of those already kept is dropped,
so of two duplicated columns the later one goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    get an exact zero so ``design @ coefficients`` reproduces
    ``fitted``. ``rank`` counts the retained columns.
    """

    coefficients: np.ndarray
    fitted: np.ndarray
    rank: int
    columns_dropped: tuple


@dataclass(frozen=True)
class LogisticFit:
    """Logistic regression result from damped Newton iterations."""

    coefficients: np.ndarray
    converged: bool
    iterations: int
    max_abs_score: float
    separation_detected: bool
    ridge: float


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


def wls_fit(design, response, weights=None) -> WlsFit:
    """Solve weighted least squares with deterministic rank handling.

    Weights are non-negative per-row multipliers on squared residuals;
    ``None`` means ordinary least squares. The weighted system
    ``[A | b]`` gets one unpivoted Householder QR. Its diagonal entry
    |R_jj| is the norm of column j's residual against the columns before
    it, so the first column with |R_jj| at or below
    ``1e-9 * max(largest column norm, 1)`` is dropped and the kept
    columns are factored again; with fewer rows than columns, every
    column past the rank is dropped. The kept triangle then gives the
    coefficients. On the retained columns the weighted residuals are
    orthogonal to the design up to
    ``1e-8 * (1 + ||response||)``.
    """
    a = _as_design(design)
    b = np.asarray(response, dtype=float)
    n, p = a.shape
    if b.shape != (n,):
        raise InputError(f"response has shape {b.shape}, expected ({n},)")
    if not np.all(np.isfinite(b)):
        raise InputError("response contains non-finite values")
    if weights is None:
        a_s, b_s = a, b
    else:
        wt = np.asarray(weights, dtype=float)
        if wt.shape != (n,):
            raise InputError(f"weights have shape {wt.shape}, expected ({n},)")
        if not np.all(np.isfinite(wt)) or np.any(wt < 0):
            raise InputError("weights must be finite and non-negative")
        if not np.any(wt > 0):
            raise InputError("all weights are zero")
        root = np.sqrt(wt)
        a_s = a * root[:, None]
        b_s = b * root
    sq_norms = np.einsum("ij,ij->j", a_s, a_s)
    tol = 1e-9 * max(math.sqrt(sq_norms.max(initial=0.0)), 1.0)
    kept = list(range(p))
    dropped: list = []
    while True:
        # LAPACK factors column-major storage; building it so saves a copy.
        ab = np.empty((n, len(kept) + 1), order="F")
        ab[:, :-1] = a_s[:, kept]
        ab[:, -1] = b_s
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
    kept = kept[:rank]
    coef = np.zeros(p)
    if kept:
        coef[kept] = np.linalg.solve(r[:rank, :rank], r[:rank, -1])
    return WlsFit(
        coefficients=coef,
        fitted=a @ coef,
        rank=rank,
        columns_dropped=tuple(dropped),
    )


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _penalized_loglik(eta, y, wt, beta, ridge) -> float:
    # y*eta - log(1 + exp(eta)), stable via logaddexp
    ll = float(np.sum(wt * (y * eta - np.logaddexp(0.0, eta))))
    return ll - 0.5 * ridge * float(beta @ beta)


def _irls(a, y, wt, tol, max_iter, ridge):
    n, p = a.shape
    beta = np.zeros(p)
    eta = np.zeros(n)
    separation = False
    ll = _penalized_loglik(eta, y, wt, beta, ridge)
    max_abs_score = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        prob = _sigmoid(eta)
        if np.any(prob <= _PROB_FLOOR) or np.any(prob >= 1.0 - _PROB_FLOOR):
            separation = True
        score = a.T @ (wt * (y - prob)) - ridge * beta
        max_abs_score = float(np.max(np.abs(score))) if p else 0.0
        if max_abs_score < tol:
            return beta, True, iterations - 1, max_abs_score, separation
        d = wt * prob * (1.0 - prob)
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
            ll_new = _penalized_loglik(eta_new, y, wt, beta_new, ridge)
            if ll_new >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            scale *= 0.5
        beta, eta, ll = beta_new, eta_new, ll_new
    prob = _sigmoid(eta)
    if np.any(prob <= _PROB_FLOOR) or np.any(prob >= 1.0 - _PROB_FLOOR):
        separation = True
    score = a.T @ (wt * (y - prob)) - ridge * beta
    max_abs_score = float(np.max(np.abs(score))) if p else 0.0
    converged = max_abs_score < tol
    return beta, converged, iterations, max_abs_score, separation


def logistic_fit(
    design,
    labels,
    weights=None,
    tol: float = 1e-8,
    max_iter: int = 100,
    ridge: float = 0.0,
) -> LogisticFit:
    """Fit a binary logistic regression by damped Newton steps.

    Convergence means the largest absolute score entry falls below
    ``tol``. When ``ridge`` is zero and the fit runs into separation
    (a fitted probability leaving the open interval
    (1e-10, 1 - 1e-10)), the fit restarts once with ridge 1e-6; the
    result still reports ``separation_detected``.
    """
    a = _as_design(design)
    y = np.asarray(labels, dtype=float)
    n = a.shape[0]
    if y.shape != (n,):
        raise InputError(f"labels have shape {y.shape}, expected ({n},)")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise InputError("labels must be 0 or 1")
    if weights is None:
        wt = np.ones(n)
    else:
        wt = np.asarray(weights, dtype=float)
        if wt.shape != (n,):
            raise InputError(f"weights have shape {wt.shape}, expected ({n},)")
        if not np.all(np.isfinite(wt)) or np.any(wt < 0):
            raise InputError("weights must be finite and non-negative")
    if ridge < 0:
        raise InputError("ridge must be >= 0")

    beta, converged, iters, max_score, separation = _irls(
        a, y, wt, tol, max_iter, ridge
    )
    effective_ridge = ridge
    if separation and ridge == 0.0:
        effective_ridge = 1e-6
        beta, converged, iters, max_score, _ = _irls(
            a, y, wt, tol, max_iter, effective_ridge
        )
        separation = True
    return LogisticFit(
        coefficients=beta,
        converged=converged,
        iterations=iters,
        max_abs_score=max_score,
        separation_detected=separation,
        ridge=effective_ridge,
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
    """Selection state at one penalty level."""

    lam: float
    selected: tuple
    group_norms: np.ndarray


@dataclass(frozen=True)
class GroupLassoResult:
    """Output of :func:`multinomial_group_lasso`.

    ``selected`` holds candidate indices with a nonzero coefficient
    block at the requested penalty (or the smallest grid penalty when
    only a grid was given). ``path`` records the selection at each grid
    point from largest penalty down.
    """

    selected: tuple
    group_norms: np.ndarray
    lam: float
    path: tuple
    lambda_max: float


class _MultinomialState:
    """Cyclic block updates for the group-penalized multinomial fit.

    Candidate j's coefficients across the non-reference categories form
    one block; a block proximal step with a per-block curvature bound
    either soft-thresholds the whole block or zeroes it exactly. The
    intercept block is never penalized. Each step decreases the
    penalized objective, so selection sets are reproducible.
    """

    def __init__(self, f: np.ndarray, y_onehot: np.ndarray):
        self.f = f
        self.y = y_onehot
        self.n, self.q = f.shape
        self.m = y_onehot.shape[1]  # categories minus reference
        self.b0 = np.zeros(self.m)
        self.b = np.zeros((self.q, self.m))
        self.eta = np.zeros((self.n, self.m))
        # Curvature bounds: multinomial Hessian blocks are dominated by
        # (1/2) * column squared norm.
        self.lip0 = self.n / 2.0
        self.lip = np.maximum(np.sum(f * f, axis=0) / 2.0, 1e-12)

    def _probs(self) -> np.ndarray:
        top = np.max(self.eta, axis=1, keepdims=True)
        top = np.maximum(top, 0.0)
        ez = np.exp(self.eta - top)
        denom = np.exp(-top[:, 0]) + ez.sum(axis=1)
        return ez / denom[:, None]

    def objective(self, lam: float) -> float:
        top = np.maximum(np.max(self.eta, axis=1), 0.0)
        lse = top + np.log(
            np.exp(-top) + np.sum(np.exp(self.eta - top[:, None]), axis=1)
        )
        fit_term = float(np.sum(lse) - np.sum(self.eta * self.y))
        return fit_term + lam * float(
            np.sum(np.linalg.norm(self.b, axis=1))
        )

    def sweep(self, lam: float, blocks=None) -> float:
        """One pass over the given blocks (all of them by default);
        returns the largest coefficient move."""
        biggest = 0.0
        resid = self._probs() - self.y
        g0 = resid.sum(axis=0)
        delta0 = -g0 / self.lip0
        self.b0 += delta0
        self.eta += delta0[None, :]
        biggest = max(biggest, float(np.max(np.abs(delta0))))
        for j in (range(self.q) if blocks is None else blocks):
            resid = self._probs() - self.y
            g = self.f[:, j] @ resid
            z = self.b[j] - g / self.lip[j]
            zn = float(np.linalg.norm(z))
            thr = lam / self.lip[j]
            if zn <= thr:
                new = np.zeros(self.m)
            else:
                new = (1.0 - thr / zn) * z
            delta = new - self.b[j]
            move = float(np.max(np.abs(delta)))
            if move > 0.0:
                self.eta += np.outer(self.f[:, j], delta)
                self.b[j] = new
            biggest = max(biggest, move)
        return biggest

    def fit(self, lam: float, tol: float, max_sweeps: int) -> None:
        """Descend to tolerance with an active-set schedule.

        Full passes decide which blocks enter (the optimality check for
        blocks at zero); between full passes only the nonzero blocks
        are iterated, since the others keep exact zeros until a full
        pass moves them. Finishes only on a converged full pass.
        """
        sweeps = 0
        while sweeps < max_sweeps:
            move = self.sweep(lam)
            sweeps += 1
            if move < tol:
                return
            active = [j for j in range(self.q) if np.any(self.b[j] != 0.0)]
            if len(active) == self.q:
                continue
            while sweeps < max_sweeps:
                if self.sweep(lam, blocks=active) < tol:
                    break
                sweeps += 1

    def group_norms(self) -> np.ndarray:
        return np.linalg.norm(self.b, axis=1)


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
    path, or neither to use an automatic geometric grid from the
    smallest penalty that zeroes everything. With ``stop_after_k`` the
    path stops early once that many candidates are active.
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
    # can never be selected.
    mu = f.mean(axis=0)
    sd = f.std(axis=0)
    sd[sd == 0.0] = 1.0
    f_std = (f - mu) / sd

    ref = n_cat - 1
    y_onehot = np.zeros((n, n_cat - 1))
    non_ref = dense != ref
    y_onehot[np.flatnonzero(non_ref), dense[non_ref]] = 1.0

    state = _MultinomialState(f_std, y_onehot)
    # Intercept-only fit to find the smallest all-zero penalty.
    for _ in range(200):
        resid = state._probs() - y_onehot
        g0 = resid.sum(axis=0)
        if np.max(np.abs(g0)) < 1e-8 * n:
            break
        delta0 = -g0 / state.lip0
        state.b0 += delta0
        state.eta += delta0[None, :]
    resid = state._probs() - y_onehot
    grad_norms = np.linalg.norm(f_std.T @ resid, axis=1)
    lambda_max = float(grad_norms.max()) if q else 0.0

    if lambda_grid is not None:
        grid = [float(v) for v in lambda_grid]
        if any(v < 0 for v in grid):
            raise InputError("lambda grid values must be >= 0")
        grid = sorted(grid, reverse=True)
    elif lam is not None:
        grid = [v for v in np.geomspace(
            max(lambda_max, lam, 1e-12), max(lam, 1e-12), num=8
        )]
        if grid[-1] != lam:
            grid.append(lam)
    else:
        hi = max(lambda_max, 1e-12)
        grid = list(np.geomspace(hi, hi * lambda_min_ratio, num=n_lambdas))

    path = []
    for lam_k in grid:
        state.fit(lam_k, tol, max_sweeps)
        norms = state.group_norms()
        sel = tuple(int(j) for j in np.flatnonzero(norms > 0.0))
        path.append(PathPoint(lam=float(lam_k), selected=sel,
                              group_norms=norms.copy()))
        if stop_after_k is not None and len(sel) >= stop_after_k:
            break

    if lam is not None:
        final = path[-1]
        for point in path:
            if point.lam == lam:
                final = point
                break
    else:
        final = path[-1]
    return GroupLassoResult(
        selected=final.selected,
        group_norms=final.group_norms,
        lam=final.lam,
        path=tuple(path),
        lambda_max=lambda_max,
    )
