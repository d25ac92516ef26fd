"""Treatment-effect estimators for clustered data.

The centerpiece is a doubly robust average-effect estimator that
conditions on unit covariates together with cluster summary statistics,
cross-fits its outcome and propensity models over cluster-level folds,
and aggregates uncertainty at the cluster level. Fixed-effects and
summary-augmented (Mundlak-style) regressions are provided both as
baselines and for the exact algebraic equivalence checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset, group_means, intern_labels, read_units
from .exceptions import (
    DegenerateDesignError,
    EmptyOverlapError,
    EstimationError,
    InputError,
    UnbalancedPanelError,
)
from .glm import (logistic_fit, predict_proba, row_blocks, stacked_block_r,
                  wls_fit)
from .suffstats import overlap_set

__all__ = [
    "NuisanceConfig",
    "NuisanceEstimates",
    "DrResult",
    "PanelData",
    "fe_ols",
    "mundlak_ols",
    "weighted_fe",
    "fit_nuisances",
    "dr_estimate",
    "qte_estimate",
    "load_panel_csv",
    "make_panel",
    "twoway_mundlak_check",
]


# ---------------------------------------------------------------------------
# Regression baselines
# ---------------------------------------------------------------------------


def _within_fit(data, groupings, what: str, omega=None, grand=None) -> float:
    """Treatment coefficient of the least squares of y on (w, x) with one
    dummy per group of each grouping, weighted by ``omega`` (None:
    unweighted): each row of ``[w | x | y]`` of ``data`` (a
    :class:`Dataset` or :class:`PanelData`) loses its group's row of
    each grouping's table and gains ``grand`` when given, and the
    residuals are fit with the same weights. ``groupings`` lists
    ``(index, table)`` pairs: each row's group id, and each group's
    ``[w | x | y]`` means.

    The residuals are made, weighted by ``sqrt(omega)`` and factored one
    :func:`~clusterdr.glm.row_blocks` block at a time, the blocks that
    :func:`~clusterdr.glm.wls_fit` would factor from all n rows, so
    unless a column is dropped the coefficient is the same float."""
    variation = 0.0

    def rows_of(block):
        nonlocal variation
        rows = np.column_stack([data.w[block], data.x[block], data.y[block]])
        for index, table in groupings:
            rows -= table[index[block]]
        if grand is not None:
            rows += grand
        variation += float(rows[:, 0] @ rows[:, 0])
        if omega is not None:
            rows *= np.sqrt(omega[block])[:, None]
        return rows

    stack = stacked_block_r(rows_of(block)
                            for block in row_blocks(data.n, data.k + 2))
    if variation <= 1e-12 * max(1, data.n):
        raise DegenerateDesignError(f"no residual treatment variation for "
                                    f"{what}; every cluster is single-arm")
    return float(wls_fit(stack[:, :-1], stack[:, -1]).coefficients[0])


def _mundlak_fit(data, groupings) -> float:
    """Treatment coefficient of the pooled least squares of y on
    ``[1 | w | x | means]``: each column's mean under each grouping in
    turn. ``groupings`` are those of :func:`_within_fit` with tables of
    ``[w | x]`` means only. Made and factored a block at a time."""

    def rows_of(block):
        means = np.stack([table[index[block]]
                          for index, table in groupings], axis=2)
        return np.column_stack([np.ones(len(means)), data.w[block],
                                data.x[block], means.reshape(len(means), -1),
                                data.y[block]])

    stack = stacked_block_r(rows_of(block) for block in row_blocks(
        data.n, (len(groupings) + 1) * (data.k + 1) + 2))
    return float(wls_fit(stack[:, :-1], stack[:, -1]).coefficients[1])


def _clusters(d: Dataset, columns, omega=None) -> list:
    """One grouping: the clusters, ``omega``-weighted means of ``columns``."""
    return [(d.cluster_index, np.column_stack(
        [d.cluster_means(col, omega) for col in columns]))]


def fe_ols(d: Dataset) -> float:
    """Treatment coefficient of the cluster fixed-effects regression,
    fit by within-cluster demeaning.

    The unweighted case of the within-cluster fit that
    :func:`weighted_fe` runs with inverse-propensity weights; identical
    to least squares with one dummy per cluster. Raises when no cluster
    has both treatment arms.
    """
    return _within_fit(d, _clusters(d, (d.w, d.x, d.y)),
                       "fixed-effects regression")


def mundlak_ols(d: Dataset) -> float:
    """Treatment coefficient of the pooled regression of y on
    (1, w, x, cluster means of w and x)."""
    return _mundlak_fit(d, _clusters(d, (d.w, d.x)))


def weighted_fe(d: Dataset, e_hat: np.ndarray) -> float:
    """Treatment coefficient of the fixed-effects regression weighted by
    inverse propensities.

    The within-cluster fit of :func:`fe_ols` with unit weights 1/e
    (treated) or 1/(1-e) (control) in both the cluster means and the
    regression, which reproduces weighted least squares with cluster
    dummies exactly.
    """
    e_hat = np.asarray(e_hat, dtype=float)
    if e_hat.shape != (d.n,):
        raise InputError(f"e_hat has shape {e_hat.shape}, expected ({d.n},)")
    if np.any(e_hat <= 0.0) or np.any(e_hat >= 1.0):
        raise InputError("propensities must lie strictly in (0, 1)")
    omega = np.subtract(1.0, e_hat)
    np.divide(1.0, omega, out=omega)
    np.divide(1.0, e_hat, out=omega, where=d.w == 1)
    return _within_fit(d, _clusters(d, (d.w, d.x, d.y), omega),
                       "weighted fixed-effects regression", omega)


# ---------------------------------------------------------------------------
# Cross-fitted nuisance models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NuisanceConfig:
    """Model-form switches for the cross-fitted nuisance fits.

    The outcome model is linear in an intercept, treatment, covariates,
    and (by default) the cluster summaries plus treatment interactions
    with both. The propensity model is logistic in covariates and (by
    default) the summaries. When cluster sizes vary, indicator columns
    for size are appended to both models.
    """

    outcome_use_summaries: bool = True
    outcome_interactions: bool = True
    propensity_use_summaries: bool = True
    size_indicators: bool = True
    ridge: float = 0.0


@dataclass(frozen=True)
class NuisanceEstimates:
    """Cross-fitted predictions: both-arm outcome means and propensities
    of every unit, and the fold label of every cluster (the array
    handed to :func:`fit_nuisances`, not a copy)."""

    mu0: np.ndarray
    mu1: np.ndarray
    e: np.ndarray
    fold_of_cluster: np.ndarray


def _size_dummies(d: Dataset) -> np.ndarray:
    """Indicator columns for all but the smallest distinct cluster size,
    one row per cluster."""
    # np.unique imports numpy.ma, which equal sizes do not need.
    if d.n_c.min() == d.n_c.max():
        return np.empty((d.c, 0))
    sizes = np.unique(d.n_c)
    return np.column_stack([(d.n_c == s).astype(float) for s in sizes[1:]])


def _base_rows(d: Dataset, s_bar: np.ndarray, use_summaries: bool,
               size_cols: np.ndarray, rows, out=None) -> np.ndarray:
    """``[1 | x | s_bar | size_cols]`` on ``rows`` (``s_bar`` only when
    ``use_summaries``), written into ``out`` when given: the propensity
    design, and the outcome design without its treatment columns.
    ``s_bar`` and ``size_cols`` have one row per cluster, and each unit
    gets its cluster's."""
    cluster = d.cluster_index[rows]
    parts = [np.ones((len(rows), 1)), d.x[rows]]
    if use_summaries:
        parts.append(s_bar[cluster])
    if size_cols.shape[1]:
        parts.append(size_cols[cluster])
    return np.concatenate(parts, axis=1, out=out)


def _outcome_rows(d: Dataset, s_bar: np.ndarray, cfg: NuisanceConfig,
                  size_cols: np.ndarray, rows) -> np.ndarray:
    """``[design | y]`` of the outcome model on ``rows`` at the observed
    treatment: ``[1 | w | x | s_bar | x w | s_bar w | size_cols | y]``,
    less the summaries or the interactions that ``cfg`` leaves out; the
    cluster-level columns as in :func:`_base_rows`."""
    cluster = d.cluster_index[rows]
    w = d.w[rows]
    x = d.x[rows]
    s = s_bar[cluster] if cfg.outcome_use_summaries else x[:, :0]
    parts = [np.ones(w.size), w, x, s]
    if cfg.outcome_interactions:
        parts += [x * w[:, None], s * w[:, None]]
    return np.column_stack(parts + [size_cols[cluster], d.y[rows]])


def _outcome_layout(k: int, t: int, z: int, cfg: NuisanceConfig):
    """Column indices of the outcome design of :func:`_outcome_rows`,
    with ``t`` summary and ``z`` size columns: the columns of
    :func:`_base_rows`, the treatment columns, and for each treatment
    column the position in the first list of the column it is w times
    (the intercept for w itself)."""
    treat, parent = [1], [0]
    end = 2 + k + t
    if cfg.outcome_interactions:
        treat += range(end, end + k + t)
        parent += range(1, 1 + k + t)
        end += k + t
    return [0, *range(2, 2 + k + t), *range(end, end + z)], treat, parent


def fit_nuisances(
    d: Dataset,
    s_bar: np.ndarray,
    fold_of_cluster: np.ndarray,
    cfg: Optional[NuisanceConfig] = None,
) -> NuisanceEstimates:
    """Cross-fit outcome and propensity models over cluster folds.

    ``s_bar`` is the (c, t) cluster-summary matrix, one row per cluster
    in dense-id order (see :func:`~clusterdr.suffstats.build_suffstats`).
    ``fold_of_cluster`` holds each cluster's integer fold label (see
    :func:`~clusterdr.glm.cross_fit_folds`); the labels must cover
    0..L-1, each by at least one cluster, with L >= 2. For every fold,
    models are trained on the units of all other folds and predicted on
    the held-out fold, so no unit's predictions use its own cluster.
    Raises when a training fold contains only one treatment arm.

    The outcome model is fit once on both arms with treatment in the
    design, then evaluated at w=1 and w=0. Each fold's ``[design | y]``
    is built from its own rows, factored in the blocks of
    :func:`~clusterdr.glm.row_blocks` (8,192 rows for up to 56 columns;
    :func:`~clusterdr.glm.stacked_block_r`) and dropped. The R factor
    of stacked R factors is the R factor of the stacked rows (TSQR), so
    a fold's training system is the stack of the other folds'
    triangles, which :func:`~clusterdr.glm.wls_fit` solves with the
    training rows' column norms and rank rule. The held-out means come
    from the coefficient blocks: those of the columns without w give
    mu0, and adding each treatment column's coefficient to that of the
    column it is w times gives mu1. The propensity model is
    :func:`~clusterdr.glm.logistic_fit` on the training rows, in unit
    order, which drops columns by the same rule; each fold's fit starts
    from the previous fold's coefficients unless that fit ran into
    separation. Besides its inputs and outputs, the stage holds one
    propensity design and one label vector, sized for the largest
    training split and refilled for each fold from one 8,192-unit block
    at a time, and predicts the held-out rows in the same blocks that
    their triangles factor. Each unit's summaries, size indicators and
    fold are read from its cluster's row as a block is made, so no
    n-row copy of them is.
    """
    cfg = cfg or NuisanceConfig()
    fold_of_cluster = np.asarray(fold_of_cluster)
    if fold_of_cluster.shape != (d.c,) or fold_of_cluster.dtype.kind != "i":
        raise InputError(
            f"fold labels have shape {fold_of_cluster.shape} and dtype "
            f"{fold_of_cluster.dtype}, expected ({d.c},) signed integers"
        )
    if np.any(fold_of_cluster < 0):
        raise InputError(f"fold label {fold_of_cluster.min()} is negative")
    clusters_in_fold = np.bincount(fold_of_cluster)
    L = clusters_in_fold.size
    if L < 2:
        raise InputError(f"need at least 2 folds, got {L}")
    if not clusters_in_fold.all():
        raise InputError(
            f"folds {np.flatnonzero(clusters_in_fold == 0).tolist()} of "
            f"0..{L - 1} have no cluster"
        )
    s_bar = np.asarray(s_bar, dtype=float)
    if s_bar.ndim != 2 or s_bar.shape[0] != d.c:
        raise InputError(
            f"summaries have shape {s_bar.shape}, expected ({d.c}, t)"
        )
    size_cols = (_size_dummies(d) if cfg.size_indicators
                 else np.empty((d.c, 0)))
    base, treat, parent = _outcome_layout(
        d.k, s_bar.shape[1] if cfg.outcome_use_summaries else 0,
        size_cols.shape[1], cfg)
    p = len(base) + len(treat)

    def units(block, marked):
        """The units of ``block`` whose cluster ``marked`` flags."""
        rows = np.flatnonzero(marked[d.cluster_index[block]])
        rows += block.start
        return rows

    def held_out(fold):
        """The held-out rows of ``fold`` in the blocks of the outcome
        system's p + 1 columns."""
        in_fold = fold_of_cluster == fold
        test = np.concatenate([units(block, in_fold)
                               for block in row_blocks(d.n)])
        return (test[rows] for rows in row_blocks(test.size, p + 1))

    # Each fold's held-out [design | y] is built and factored one block
    # at a time, so only its triangles are kept.
    tri = [stacked_block_r(_outcome_rows(d, s_bar, cfg, size_cols, rows)
                           for rows in held_out(fold))
           for fold in range(L)]

    # One propensity design and one label vector serve every fold; a
    # fold's training rows fill their first n_train rows in unit order.
    n_train_max = d.n - int(np.bincount(fold_of_cluster, weights=d.n_c,
                                        minlength=L).min())
    p_e = _base_rows(d, s_bar, cfg.propensity_use_summaries, size_cols,
                     np.arange(0)).shape[1]
    design = np.empty((n_train_max, p_e))
    labels = np.empty(n_train_max)
    mu0, mu1, e = np.empty((3, d.n))
    start = None
    for fold in range(L):
        n_train = 0
        training = fold_of_cluster != fold
        for block in row_blocks(d.n):
            rows = units(block, training)
            end = n_train + rows.size
            _base_rows(d, s_bar, cfg.propensity_use_summaries, size_cols,
                       rows, out=design[n_train:end])
            np.take(d.w, rows, out=labels[n_train:end])
            n_train = end
        w_train = labels[:n_train]
        if w_train.min() == w_train.max():
            raise DegenerateDesignError(
                f"training split for fold {fold} has a single treatment arm"
            )
        stack = np.vstack(tri[:fold] + tri[fold + 1:])
        coef = wls_fit(stack[:, :p], stack[:, p]).coefficients
        # mu(w) = design(w) @ coef: at w = 0 the treatment columns
        # vanish, at w = 1 each adds its coefficient to its parent's.
        coef0 = coef[base]
        coef1 = coef0.copy()
        coef1[parent] += coef[treat]
        pfit = logistic_fit(design[:n_train], w_train, ridge=cfg.ridge,
                            start=start)
        start = None if pfit.separation_detected else pfit.coefficients
        # Each block's product runs on one BLAS thread, and its multiple
        # of four rows gives each row the bits it gets in the whole
        # fold's product on one thread (see row_blocks). A larger
        # product, such as a whole fold's, is split between threads, and
        # its bits can depend on the thread count.
        for test in held_out(fold):
            rows = _base_rows(d, s_bar, cfg.outcome_use_summaries, size_cols,
                              test)
            mu0[test] = rows @ coef0
            mu1[test] = rows @ coef1
            if cfg.propensity_use_summaries != cfg.outcome_use_summaries:
                rows = _base_rows(d, s_bar, cfg.propensity_use_summaries,
                                  size_cols, test)
            e[test] = predict_proba(pfit, rows)

    return NuisanceEstimates(mu0=mu0, mu1=mu1, e=e,
                             fold_of_cluster=fold_of_cluster)


# ---------------------------------------------------------------------------
# Doubly robust estimate with cluster-level uncertainty
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrResult:
    """Doubly robust estimate of the average effect on retained units.

    ``a`` is the 0/1 retention mask that trimming at ``eta`` gave (every
    unit for ``eta=None``) and ``a_bar`` its mean; ``xi`` holds the
    per-cluster averaged correction terms feeding the variance. Both
    arrays are left out of :meth:`to_dict`, which stays the same size
    whatever the number of units or clusters.
    """

    tau_hat: float
    v_hat: float
    se: float
    ci: tuple
    a_bar: float
    a: np.ndarray
    xi: np.ndarray
    n: int
    c: int
    L: int
    eta: Optional[float]

    def to_dict(self) -> dict:
        return {
            "tau_hat": self.tau_hat,
            "se": self.se,
            "ci": [self.ci[0], self.ci[1]],
            "v_hat": self.v_hat,
            "a_bar": self.a_bar,
            "n": self.n,
            "c": self.c,
            "L": self.L,
            "eta": self.eta,
        }


def _ipw_correction(y, w, mu1, mu0, e):
    """The doubly robust score less ``mu1 - mu0``: the residual from the
    arm observed times ``w / e - (1 - w) / (1 - e)``, for ``e`` strictly
    inside (0, 1)."""
    if np.any(e <= 0.0) or np.any(e >= 1.0):
        raise InputError("propensities must lie strictly in (0, 1)")
    mu_w = np.where(w == 1.0, mu1, mu0)
    return (w / e - (1.0 - w) / (1.0 - e)) * (y - mu_w)


def dr_estimate(
    d: Dataset,
    nu: NuisanceEstimates,
    eta: Optional[float] = 0.05,
) -> DrResult:
    """Average the doubly robust score over the units that trimming at
    ``eta`` retains (:func:`~clusterdr.suffstats.overlap_set`: kept when
    ``eta < e < 1 - eta``; ``eta=None`` keeps every unit).

    The point estimate is the retained-unit mean of the score: ``mu1 -
    mu0`` plus the inverse-propensity correction ``_ipw_correction``,
    which only retained units get, so only there does an ``e`` of 0 or 1
    raise :class:`~clusterdr.exceptions.InputError`. The variance is the
    spread across clusters of the correction's cluster means, over the
    squared retained fraction and the number of clusters. Raises
    :class:`~clusterdr.exceptions.EmptyOverlapError` when trimming
    removes every unit, and
    :class:`~clusterdr.exceptions.EstimationError` when the estimate,
    its variance or its interval is not finite, as when outcomes near
    1e160 overflow the squares of the variance.
    """
    a = overlap_set(nu.e, eta)
    a_bar = float(a.mean())
    if a_bar == 0.0:
        raise EmptyOverlapError("trimming removed every unit")
    # One correction term serves the score and the variance. Both are
    # made for a block's retained units at a time, so no other n-row
    # temporary is.
    correction, score = np.zeros(d.n), np.zeros(d.n)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in row_blocks(d.n):
            rows = np.flatnonzero(a[block]) + block.start
            correction[rows] = _ipw_correction(d.y[rows], d.w[rows],
                                               nu.mu1[rows], nu.mu0[rows],
                                               nu.e[rows])
            score[rows] = nu.mu1[rows] - nu.mu0[rows] + correction[rows]
        tau_hat = float(np.sum(score) / (d.n * a_bar))
        del score
        xi = d.cluster_means(correction)
        v_hat = float(np.mean((xi - xi.mean()) ** 2) / a_bar**2)
    se = float(np.sqrt(v_hat / d.c))
    ci = (tau_hat - 1.96 * se, tau_hat + 1.96 * se)
    if not all(map(math.isfinite, (tau_hat, v_hat, *ci))):
        raise EstimationError(
            f"the estimate is not finite (tau_hat={tau_hat!r}, "
            f"v_hat={v_hat!r}): outcomes of this scale overflow float64"
        )
    return DrResult(
        tau_hat=tau_hat,
        v_hat=v_hat,
        se=se,
        ci=ci,
        a_bar=a_bar,
        a=a,
        xi=xi,
        n=d.n,
        c=d.c,
        L=int(nu.fold_of_cluster.max()) + 1,
        eta=eta,
    )


def qte_estimate(
    d: Dataset,
    nu: NuisanceEstimates,
    a: np.ndarray,
    q: float,
    arm: int,
) -> float:
    """Weighted quantile of one arm's outcomes on the retained set.

    Each retained unit in the requested arm is weighted by the inverse
    probability of being in that arm; the estimate is the smallest
    observed outcome at which the normalized weighted distribution
    function reaches ``q``.
    """
    if not 0.0 < q < 1.0:
        raise InputError(f"quantile level must be in (0, 1), got {q}")
    if arm not in (0, 1):
        raise InputError(f"arm must be 0 or 1, got {arm}")
    a = np.asarray(a, dtype=float)
    keep = (a == 1.0) & (d.w == arm)
    if not np.any(keep):
        raise EstimationError(
            f"no retained units in arm {arm}; quantile undefined"
        )
    y = d.y[keep]
    e = nu.e[keep]
    omega = 1.0 / e if arm == 1 else 1.0 / (1.0 - e)
    order = np.argsort(y, kind="stable")
    y_sorted = y[order]
    cdf = np.cumsum(omega[order])
    cdf /= cdf[-1]
    idx = int(np.searchsorted(cdf, q, side="left"))
    idx = min(idx, y_sorted.size - 1)
    return float(y_sorted[idx])


# ---------------------------------------------------------------------------
# Panel (two-way) equivalence check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PanelData:
    """Balanced unit-by-period panel in long form."""

    y: np.ndarray
    w: np.ndarray
    x: np.ndarray
    unit_index: np.ndarray
    time_index: np.ndarray
    n_units: int
    n_periods: int

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]


def make_panel(y, w, x, unit_labels, time_labels) -> PanelData:
    """Build a panel, mapping labels to dense ids and checking balance."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    n = y.shape[0]
    if (w.shape != (n,) or x.shape[0] != n or len(unit_labels) != n
            or len(time_labels) != n):
        raise InputError("panel columns have mismatched lengths")
    if not np.all((w == 0.0) | (w == 1.0)):
        raise InputError("panel treatment must be 0 or 1")
    if not np.isfinite(x).all():
        raise InputError("panel covariates must be finite")
    unit_index, units = intern_labels(unit_labels)
    time_index, periods = intern_labels(time_labels)
    n_units, n_periods = len(units), len(periods)
    if n != n_units * n_periods:
        raise UnbalancedPanelError(
            f"{n} rows cannot form a balanced {n_units} x {n_periods} panel")
    counts = np.bincount(unit_index * n_periods + time_index, minlength=n)
    if not np.all(counts == 1):
        raise UnbalancedPanelError("panel is unbalanced: some unit-period "
                                   "cells are missing or duplicated")
    return PanelData(
        y=y, w=w, x=x, unit_index=unit_index, time_index=time_index,
        n_units=n_units, n_periods=n_periods,
    )


def load_panel_csv(path, unit: str = "unit", time: str = "time",
                   outcome: str = "y", treatment: str = "w",
                   covariates: Optional[list] = None) -> PanelData:
    """Read a long-form panel CSV through ``load_csv``'s reader
    (``read_units``, same row-numbered errors), then check balance with
    :func:`make_panel`. ``covariates=None`` means every other column."""
    y, w, (units, times), x = read_units(
        path, outcome, treatment, {"unit": unit, "time": time}, covariates
    )
    return make_panel(y, w, x, units, times)


def twoway_mundlak_check(p: PanelData) -> tuple:
    """Compare two-way fixed effects with its summary-based twin.

    Returns the treatment coefficients ``(tau_fe, tau_mundlak)``. The
    first regression demeans by unit and period; the second is a pooled
    regression adding the unit means and the period means of treatment
    and covariates as controls. On a balanced panel the two agree to
    machine precision. Both are the fits of :func:`fe_ols` and
    :func:`mundlak_ols`, grouped by unit and by period."""
    groupings = [(index, np.column_stack([group_means(index, col, size)
                                          for col in (p.w, p.x, p.y)]))
                 for index, size in ((p.unit_index, p.n_units),
                                     (p.time_index, p.n_periods))]
    grand = np.array([col.mean() for col in (p.w, *p.x.T, p.y)])
    return (_within_fit(p, groupings, "two-way fixed-effects regression",
                        grand=grand),
            _mundlak_fit(p, [(i, t[:, :-1]) for i, t in groupings]))
