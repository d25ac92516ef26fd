"""Treatment-effect estimators for clustered data.

The centerpiece is a doubly robust average-effect estimator that
conditions on unit covariates together with cluster summary statistics,
cross-fits its outcome and propensity models over cluster-level folds,
and aggregates uncertainty at the cluster level. Fixed-effects and
summary-augmented (Mundlak-style) regressions are provided both as
baselines and for the exact algebraic equivalence checks.
"""

from __future__ import annotations

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
from .glm import FoldAssignment, logistic_fit, predict_proba, wls_fit

__all__ = [
    "NuisanceConfig",
    "NuisanceEstimates",
    "DrResult",
    "FeResult",
    "MundlakResult",
    "TwowayCheck",
    "PanelData",
    "psi",
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
# Score and point estimate
# ---------------------------------------------------------------------------


def psi(y, w, mu1, mu0, e):
    """Doubly robust per-unit score.

    Combines the model-based contrast ``mu1 - mu0`` with the inverse
    propensity correction of the residual from the arm actually
    observed. Inputs broadcast; propensities must lie strictly inside
    (0, 1).
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    mu1 = np.asarray(mu1, dtype=float)
    mu0 = np.asarray(mu0, dtype=float)
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0.0) or np.any(e >= 1.0):
        raise InputError("propensities must lie strictly in (0, 1)")
    mu_w = np.where(w == 1.0, mu1, mu0)
    correction = (w / e - (1.0 - w) / (1.0 - e)) * (y - mu_w)
    return mu1 - mu0 + correction


# ---------------------------------------------------------------------------
# Regression baselines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeResult:
    """Within-cluster regression: treatment coefficient and covariate
    coefficients."""

    tau: float
    beta: np.ndarray


@dataclass(frozen=True)
class MundlakResult:
    """Pooled regression with cluster means added as controls.

    ``tau`` is the treatment coefficient, ``beta`` the unit covariate
    coefficients, ``delta`` the cluster treatment-mean coefficient, and
    ``gamma`` the cluster covariate-mean coefficients.
    """

    tau: float
    beta: np.ndarray
    delta: float
    gamma: np.ndarray


def _check_treatment_variation(w_centered: np.ndarray, what: str) -> None:
    if float(w_centered @ w_centered) <= 1e-12 * max(1, w_centered.size):
        raise DegenerateDesignError(
            f"no residual treatment variation for {what}; "
            "every cluster is single-arm"
        )


def _within_fit(d: Dataset, omega, what: str) -> FeResult:
    """Least squares of y on (w, x) with one dummy per cluster, weighted
    by ``omega`` (None: unweighted), solved without the dummies: remove
    the ``omega``-weighted cluster means of ``[y | w | x]`` and fit the
    residuals with the same weights."""
    v = np.column_stack([d.y, d.w, d.x])
    v -= d.cluster_means(v, omega)[d.cluster_index]
    _check_treatment_variation(v[:, 1], what)
    fit = wls_fit(v[:, 1:], v[:, 0], weights=omega)
    return FeResult(tau=float(fit.coefficients[0]), beta=fit.coefficients[1:])


def fe_ols(d: Dataset) -> FeResult:
    """Cluster fixed-effects regression via within-cluster demeaning.

    The unweighted case of the within-cluster fit that
    :func:`weighted_fe` runs with inverse-propensity weights; identical
    to least squares with one dummy per cluster. Raises when no cluster
    has both treatment arms.
    """
    return _within_fit(d, None, "fixed-effects regression")


def mundlak_ols(d: Dataset) -> MundlakResult:
    """Pooled regression of y on (1, w, x, cluster means of w and x)."""
    w = d.w.astype(float)
    w_bar = d.cluster_means(w)[d.cluster_index]
    x_bar = d.cluster_means(d.x)[d.cluster_index, :]
    design = np.column_stack([np.ones(d.n), w, d.x, w_bar, x_bar])
    fit = wls_fit(design, d.y)
    k = d.k
    coef = fit.coefficients
    return MundlakResult(
        tau=float(coef[1]),
        beta=coef[2 : 2 + k],
        delta=float(coef[2 + k]),
        gamma=coef[3 + k :],
    )


def weighted_fe(d: Dataset, e_hat: np.ndarray) -> FeResult:
    """Fixed-effects regression weighted by inverse propensities.

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
    omega = np.where(d.w == 1, 1.0 / e_hat, 1.0 / (1.0 - e_hat))
    return _within_fit(d, omega, "weighted fixed-effects regression")


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
    """Cross-fitted predictions: both-arm outcome means, propensities,
    and the fold each unit was predicted in."""

    mu0: np.ndarray
    mu1: np.ndarray
    e: np.ndarray
    fold_of_unit: np.ndarray


def _size_dummies(d: Dataset) -> np.ndarray:
    """Indicator columns for all but the smallest distinct cluster size."""
    sizes = np.unique(d.n_c)
    if sizes.size <= 1:
        return np.empty((d.n, 0))
    unit_size = d.n_c[d.cluster_index]
    return np.column_stack([(unit_size == s).astype(float)
                            for s in sizes[1:]])


def _outcome_system(d: Dataset, s_bar: np.ndarray, cfg: NuisanceConfig,
                    size_cols: np.ndarray):
    """``[design | y]`` for the outcome model at the observed treatment,
    plus the treatment columns and, for each, the column it is w times
    (the intercept for w itself), so a fit can be evaluated at w = 1
    and w = 0 without building either design."""
    w = d.w.astype(float)
    t = s_bar.shape[1] if cfg.outcome_use_summaries else 0
    parts = [np.ones(d.n), w, d.x]
    if cfg.outcome_use_summaries:
        parts.append(s_bar)
    treat, parent = [1], [0]
    if cfg.outcome_interactions:
        parts.append(d.x * w[:, None])
        if cfg.outcome_use_summaries:
            parts.append(s_bar * w[:, None])
        first = 2 + d.k + t
        treat += range(first, first + d.k + t)
        parent += range(2, 2 + d.k + t)
    if cfg.size_indicators and size_cols.shape[1]:
        parts.append(size_cols)
    parts.append(d.y)
    return np.column_stack(parts), np.array(treat), np.array(parent)


def _propensity_design(d: Dataset, s_bar: np.ndarray, cfg: NuisanceConfig,
                       size_cols: np.ndarray) -> np.ndarray:
    parts = [np.ones(d.n), d.x]
    if cfg.propensity_use_summaries:
        parts.append(s_bar)
    if cfg.size_indicators and size_cols.shape[1]:
        parts.append(size_cols)
    return np.column_stack(parts)


def fit_nuisances(
    d: Dataset,
    s_bar: np.ndarray,
    folds: FoldAssignment,
    cfg: Optional[NuisanceConfig] = None,
) -> NuisanceEstimates:
    """Cross-fit outcome and propensity models over cluster folds.

    ``s_bar`` is the (n, t) cluster-summary matrix, row-aligned with
    ``d`` (see :func:`~clusterdr.suffstats.build_suffstats`). For every
    fold, models are trained on the units of all other folds and
    predicted on the held-out fold, so no unit's predictions use its
    own cluster. Raises when a training fold contains only one
    treatment arm.

    The outcome model is fit once on both arms with treatment in the
    design, then evaluated at w=1 and w=0. ``[design | y]`` is built
    once and each fold's rows get one Householder QR. The R factor of
    stacked R factors is the R factor of the stacked rows (TSQR;
    Demmel, Grigori, Hoemmen & Langou 2012), so a fold's training
    system is the stack of the other folds' triangles, which
    :func:`~clusterdr.glm.wls_fit` solves with the training rows'
    column norms and rank rule. The propensity model is
    :func:`~clusterdr.glm.logistic_fit` on the training rows, which
    drops columns by the same rule; each fold's fit starts from the
    previous fold's coefficients unless that fit ran into separation.
    """
    cfg = cfg or NuisanceConfig()
    if folds.fold_of_cluster.shape[0] != d.c:
        raise InputError(
            f"fold assignment covers {folds.fold_of_cluster.shape[0]} "
            f"clusters, dataset has {d.c}"
        )
    s_bar = np.asarray(s_bar, dtype=float)
    if s_bar.ndim != 2 or s_bar.shape[0] != d.n:
        raise InputError(
            f"summaries have shape {s_bar.shape}, expected ({d.n}, t)"
        )
    w = d.w.astype(float)
    size_cols = _size_dummies(d)
    m, treat, parent = _outcome_system(d, s_bar, cfg, size_cols)
    p = m.shape[1] - 1
    design_e = _propensity_design(d, s_bar, cfg, size_cols)

    fold_of_unit = folds.fold_of_cluster[d.cluster_index]
    tests = [fold_of_unit == fold for fold in range(folds.L)]
    tri = [np.linalg.qr(m[test], mode="r") for test in tests]

    mu0, mu1, e = np.empty((3, d.n))
    start = None
    for fold, test in enumerate(tests):
        train = ~test
        w_train = w[train]
        if w_train.min() == w_train.max():
            raise DegenerateDesignError(
                f"training split for fold {fold} has a single treatment arm"
            )
        stack = np.vstack(tri[:fold] + tri[fold + 1:])
        coef = wls_fit(stack[:, :p], stack[:, p]).coefficients
        # mu(w) = design(w) @ coef: at w = 0 the treatment columns
        # vanish, at w = 1 each adds its coefficient to its parent's.
        coef0 = coef.copy()
        coef0[treat] = 0.0
        coef1 = coef0.copy()
        coef1[parent] += coef[treat]
        rows = m[test, :p]
        mu0[test] = rows @ coef0
        mu1[test] = rows @ coef1
        pfit = logistic_fit(design_e[train], w_train, ridge=cfg.ridge,
                            start=start)
        start = None if pfit.separation_detected else pfit.coefficients
        e[test] = predict_proba(pfit, design_e[test])

    return NuisanceEstimates(mu0=mu0, mu1=mu1, e=e, fold_of_unit=fold_of_unit)


# ---------------------------------------------------------------------------
# Doubly robust estimate with cluster-level uncertainty
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrResult:
    """Doubly robust estimate of the average effect on retained units.

    ``xi`` holds the per-cluster averaged correction terms feeding the
    variance; ``a_bar`` is the retained fraction; ``eta`` records the
    trimming threshold the mask was built with (None for no trimming).
    """

    tau_hat: float
    v_hat: float
    se: float
    ci: tuple
    a_bar: float
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
            "xi": [float(v) for v in self.xi],
        }


def dr_estimate(
    d: Dataset,
    nu: NuisanceEstimates,
    a: np.ndarray,
    eta: Optional[float] = 0.05,
) -> DrResult:
    """Average the doubly robust score over the units retained by the
    0/1 mask ``a`` (see :func:`~clusterdr.suffstats.overlap_set`).

    The point estimate is the retained-unit mean of :func:`psi`. The
    variance comes from per-cluster means of the inverse-propensity
    correction term: their spread across clusters, scaled by the
    squared retained fraction, divided by the number of clusters.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (d.n,):
        raise InputError(f"mask has shape {a.shape}, expected ({d.n},)")
    if not np.all((a == 0.0) | (a == 1.0)):
        raise InputError("mask entries must be 0 or 1")
    a_bar = float(a.mean())
    if a_bar == 0.0:
        raise EmptyOverlapError("trimming removed every unit")
    w = d.w.astype(float)
    scores = psi(d.y, w, nu.mu1, nu.mu0, nu.e)
    tau_hat = float(np.sum(a * scores) / (d.n * a_bar))

    mu_w = np.where(w == 1.0, nu.mu1, nu.mu0)
    ipw = w / nu.e - (1.0 - w) / (1.0 - nu.e)
    correction = a * ipw * (d.y - mu_w)
    xi = d.cluster_means(correction)
    v_hat = float(np.mean((xi - xi.mean()) ** 2) / a_bar**2)
    se = float(np.sqrt(v_hat / d.c))
    ci = (tau_hat - 1.96 * se, tau_hat + 1.96 * se)
    L = int(nu.fold_of_unit.max()) + 1 if nu.fold_of_unit.size else 0
    return DrResult(
        tau_hat=tau_hat,
        v_hat=v_hat,
        se=se,
        ci=ci,
        a_bar=a_bar,
        xi=xi,
        n=d.n,
        c=d.c,
        L=L,
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
    unit_index, units = intern_labels(unit_labels)
    time_index, periods = intern_labels(time_labels)
    n_units, n_periods = len(units), len(periods)
    if n != n_units * n_periods:
        raise UnbalancedPanelError(
            f"{n} rows cannot form a balanced {n_units} x {n_periods} panel"
        )
    counts = np.bincount(unit_index * n_periods + time_index, minlength=n)
    if not np.all(counts == 1):
        raise UnbalancedPanelError(
            "panel is unbalanced: some unit-period cells are missing "
            "or duplicated"
        )
    return PanelData(
        y=y, w=w, x=x, unit_index=unit_index, time_index=time_index,
        n_units=n_units, n_periods=n_periods,
    )


def load_panel_csv(path, unit: str = "unit", time: str = "time",
                   outcome: str = "y", treatment: str = "w",
                   covariates: Optional[list] = None) -> PanelData:
    """Read a long-form panel CSV through ``load_csv``'s chunked reader
    (``read_units``, same row-numbered errors), then check balance with
    :func:`make_panel`. ``covariates=None`` means every other column."""
    y, w, (units, times), x = read_units(
        path, outcome, treatment, {"unit": unit, "time": time}, covariates
    )
    return make_panel(y, w, x, units, times)


@dataclass(frozen=True)
class TwowayCheck:
    """Side-by-side treatment coefficients from the two-way within
    transformation and the summary-augmented pooled regression."""

    tau_fe: float
    tau_mundlak: float
    max_abs_diff: float


def twoway_mundlak_check(p: PanelData) -> TwowayCheck:
    """Compare two-way fixed effects with its summary-based twin.

    The first regression demeans by unit and period; the second is a
    pooled regression adding the unit means and the period means of
    treatment and covariates as controls. On a balanced panel the two
    treatment coefficients agree to machine precision.
    """
    v = np.column_stack([p.y, p.w, p.x])
    unit = group_means(p.unit_index, v, p.n_units)[p.unit_index]
    time = group_means(p.time_index, v, p.n_periods)[p.time_index]
    v_t = v - unit - time + np.array([col.mean() for col in v.T])
    _check_treatment_variation(v_t[:, 1], "two-way fixed-effects regression")
    fe_fit = wls_fit(v_t[:, 1:], v_t[:, 0])
    tau_fe = float(fe_fit.coefficients[0])

    # unit mean, then period mean, of w and of each covariate in turn
    means = np.stack([unit[:, 1:], time[:, 1:]], axis=2).reshape(p.n, -1)
    design = np.column_stack([np.ones(p.n), v[:, 1:], means])
    m_fit = wls_fit(design, p.y)
    tau_mundlak = float(m_fit.coefficients[1])
    return TwowayCheck(
        tau_fe=tau_fe,
        tau_mundlak=tau_mundlak,
        max_abs_diff=abs(tau_fe - tau_mundlak),
    )
