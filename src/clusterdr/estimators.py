"""Treatment-effect estimators for clustered data.

The centerpiece is a doubly robust average-effect estimator that
conditions on unit covariates together with cluster summary statistics,
cross-fits its outcome and propensity models over cluster-level folds,
and aggregates uncertainty at the cluster level. Fixed-effects and
summary-augmented (Mundlak-style) regressions are provided both as
baselines and for the exact algebraic equivalence checks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset, intern_labels
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
    "cluster_robust_se",
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


def _demean_within(d: Dataset, values: np.ndarray) -> np.ndarray:
    means = d.cluster_means(values)
    if values.ndim == 1:
        return values - means[d.cluster_index]
    return values - means[d.cluster_index, :]


def _check_treatment_variation(w_centered: np.ndarray, what: str) -> None:
    if float(w_centered @ w_centered) <= 1e-12 * max(1, w_centered.size):
        raise DegenerateDesignError(
            f"no residual treatment variation for {what}; "
            "every cluster is single-arm"
        )


def fe_ols(d: Dataset) -> FeResult:
    """Cluster fixed-effects regression via within-cluster demeaning.

    Numerically identical to least squares with one dummy per cluster.
    Raises when no cluster has both treatment arms.
    """
    y_t = _demean_within(d, d.y)
    w_t = _demean_within(d, d.w.astype(float))
    _check_treatment_variation(w_t, "fixed-effects regression")
    x_t = _demean_within(d, d.x)
    design = np.column_stack([w_t, x_t])
    fit = wls_fit(design, y_t)
    return FeResult(tau=float(fit.coefficients[0]), beta=fit.coefficients[1:])


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


def _weighted_demean(
    d: Dataset, values: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    denom = np.bincount(d.cluster_index, weights=weights, minlength=d.c)
    if values.ndim == 1:
        num = np.bincount(
            d.cluster_index, weights=weights * values, minlength=d.c
        )
        return values - (num / denom)[d.cluster_index]
    out = np.empty_like(values, dtype=float)
    for j in range(values.shape[1]):
        num = np.bincount(
            d.cluster_index, weights=weights * values[:, j], minlength=d.c
        )
        out[:, j] = values[:, j] - (num / denom)[d.cluster_index]
    return out


def weighted_fe(d: Dataset, e_hat: np.ndarray) -> FeResult:
    """Fixed-effects regression weighted by inverse propensities.

    Each unit gets weight 1/e (treated) or 1/(1-e) (control); cluster
    demeaning uses the same weights, which reproduces weighted least
    squares with cluster dummies exactly.
    """
    e_hat = np.asarray(e_hat, dtype=float)
    if e_hat.shape != (d.n,):
        raise InputError(f"e_hat has shape {e_hat.shape}, expected ({d.n},)")
    if np.any(e_hat <= 0.0) or np.any(e_hat >= 1.0):
        raise InputError("propensities must lie strictly in (0, 1)")
    w = d.w.astype(float)
    omega = np.where(w == 1.0, 1.0 / e_hat, 1.0 / (1.0 - e_hat))
    y_t = _weighted_demean(d, d.y, omega)
    w_t = _weighted_demean(d, w, omega)
    _check_treatment_variation(w_t, "weighted fixed-effects regression")
    x_t = _weighted_demean(d, d.x, omega)
    design = np.column_stack([w_t, x_t])
    fit = wls_fit(design, y_t, weights=omega)
    return FeResult(tau=float(fit.coefficients[0]), beta=fit.coefficients[1:])


def cluster_robust_se(
    design: np.ndarray,
    residuals: np.ndarray,
    cluster_index: np.ndarray,
    n_clusters: int,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Cluster-aggregated sandwich standard errors for a linear fit.

    Per-cluster score sums play the role the cluster averages play in
    the doubly robust variance: the middle matrix is the sum of outer
    products of cluster-summed weighted scores. Returns one standard
    error per design column (zero for dropped all-zero columns).
    """
    design = np.asarray(design, dtype=float)
    n, p = design.shape
    wt = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    scores = design * (wt * residuals)[:, None]
    cluster_scores = np.zeros((n_clusters, p))
    np.add.at(cluster_scores, cluster_index, scores)
    bread = (design * wt[:, None]).T @ design
    meat = cluster_scores.T @ cluster_scores
    try:
        bread_inv = np.linalg.pinv(bread)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise EstimationError(f"singular bread matrix: {exc}") from None
    cov = bread_inv @ meat @ bread_inv
    var = np.clip(np.diag(cov), 0.0, None)
    return np.sqrt(var)


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
    the fold each unit was predicted in, and a notes string describing
    the model forms."""

    mu0: np.ndarray
    mu1: np.ndarray
    e: np.ndarray
    fold_of_unit: np.ndarray
    spec_notes: str


def _size_dummies(d: Dataset) -> np.ndarray:
    """Indicator columns for all but the smallest distinct cluster size."""
    sizes = np.unique(d.n_c)
    if sizes.size <= 1:
        return np.empty((d.n, 0))
    unit_size = d.n_c[d.cluster_index]
    return np.column_stack([(unit_size == s).astype(float)
                            for s in sizes[1:]])


def _outcome_design(d: Dataset, s_bar: np.ndarray, w: np.ndarray,
                    cfg: NuisanceConfig, size_cols: np.ndarray,
                    rows=slice(None)) -> np.ndarray:
    """Outcome design at treatment ``w`` for the units selected by
    ``rows`` (all of them by default)."""
    x, s_bar = d.x[rows], s_bar[rows]
    parts = [np.ones(w.shape[0]), w, x]
    if cfg.outcome_use_summaries:
        parts.append(s_bar)
    if cfg.outcome_interactions:
        parts.append(x * w[:, None])
        if cfg.outcome_use_summaries:
            parts.append(s_bar * w[:, None])
    if cfg.size_indicators and size_cols.shape[1]:
        parts.append(size_cols[rows])
    return np.column_stack(parts)


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
    own cluster. The outcome model is fit once on both arms with
    treatment in the design, then evaluated at w=1 and w=0. Raises when
    a training fold contains only one treatment arm.
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
    design_w = _outcome_design(d, s_bar, w, cfg, size_cols)
    design_e = _propensity_design(d, s_bar, cfg, size_cols)

    fold_of_unit = folds.fold_of_cluster[d.cluster_index]
    mu0 = np.empty(d.n)
    mu1 = np.empty(d.n)
    e = np.empty(d.n)
    for fold in range(folds.L):
        test = fold_of_unit == fold
        train = ~test
        w_train = w[train]
        if w_train.min() == w_train.max():
            raise DegenerateDesignError(
                f"training split for fold {fold} has a single treatment arm"
            )
        ofit = wls_fit(design_w[train], d.y[train])
        coef = ofit.coefficients
        n_test = int(np.count_nonzero(test))
        design_1 = _outcome_design(d, s_bar, np.ones(n_test), cfg, size_cols,
                                   test)
        design_0 = _outcome_design(d, s_bar, np.zeros(n_test), cfg,
                                   size_cols, test)
        mu1[test] = design_1 @ coef
        mu0[test] = design_0 @ coef
        pfit = logistic_fit(design_e[train], w_train, ridge=cfg.ridge)
        e[test] = predict_proba(pfit, design_e[test])

    notes = (
        "outcome: linear in [1, w, x"
        + (", s_bar" if cfg.outcome_use_summaries else "")
        + (", w*x" if cfg.outcome_interactions else "")
        + (", w*s_bar"
           if cfg.outcome_interactions and cfg.outcome_use_summaries else "")
        + (", size indicators" if size_cols.shape[1] and cfg.size_indicators
           else "")
        + "]; propensity: logistic in [1, x"
        + (", s_bar" if cfg.propensity_use_summaries else "")
        + (", size indicators" if size_cols.shape[1] and cfg.size_indicators
           else "")
        + f"]; folds={folds.L}"
    )
    return NuisanceEstimates(
        mu0=mu0, mu1=mu1, e=e, fold_of_unit=fold_of_unit, spec_notes=notes
    )


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
    xi = np.bincount(d.cluster_index, weights=correction, minlength=d.c)
    xi = xi / d.n_c
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
    counts = np.zeros((n_units, n_periods), dtype=np.int64)
    np.add.at(counts, (unit_index, time_index), 1)
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
    """Read a long-form panel CSV and check balance."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InputError(f"{path}: empty file")
        header = list(reader.fieldnames)
        for col in (unit, time, outcome, treatment):
            if col not in header:
                raise InputError(f"{path}: missing column {col!r}")
        if covariates is None:
            claimed = {unit, time, outcome, treatment}
            covariates = [h for h in header if h not in claimed]
        ys, ws, units, times, xs = [], [], [], [], []
        for row_num, row in enumerate(reader, start=2):
            try:
                ys.append(float(row[outcome]))
                ws.append(float(row[treatment]))
                xs.append([float(row[c]) for c in covariates])
            except (TypeError, ValueError):
                raise InputError(
                    f"{path}: non-numeric value in row {row_num}"
                ) from None
            units.append(row[unit])
            times.append(row[time])
    if not ys:
        raise InputError(f"{path}: no data rows")
    x = np.asarray(xs, dtype=float)
    if x.size == 0:
        x = np.empty((len(ys), 0))
    return make_panel(np.asarray(ys), np.asarray(ws), x, units, times)


@dataclass(frozen=True)
class TwowayCheck:
    """Side-by-side treatment coefficients from the two-way within
    transformation and the summary-augmented pooled regression."""

    tau_fe: float
    tau_mundlak: float
    max_abs_diff: float


def _twoway_demean(p: PanelData, values: np.ndarray) -> np.ndarray:
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    out = np.empty_like(values, dtype=float)
    for j in range(values.shape[1]):
        v = values[:, j]
        unit_mean = np.bincount(p.unit_index, weights=v,
                                minlength=p.n_units) / p.n_periods
        time_mean = np.bincount(p.time_index, weights=v,
                                minlength=p.n_periods) / p.n_units
        out[:, j] = (
            v - unit_mean[p.unit_index] - time_mean[p.time_index] + v.mean()
        )
    return out


def twoway_mundlak_check(p: PanelData) -> TwowayCheck:
    """Compare two-way fixed effects with its summary-based twin.

    The first regression demeans by unit and period; the second is a
    pooled regression adding the unit means and the period means of
    treatment and covariates as controls. On a balanced panel the two
    treatment coefficients agree to machine precision.
    """
    w_t = _twoway_demean(p, p.w)[:, 0]
    _check_treatment_variation(w_t, "two-way fixed-effects regression")
    y_t = _twoway_demean(p, p.y)[:, 0]
    x_t = _twoway_demean(p, p.x)
    fe_fit = wls_fit(np.column_stack([w_t, x_t]), y_t)
    tau_fe = float(fe_fit.coefficients[0])

    def unit_means(v):
        return (np.bincount(p.unit_index, weights=v, minlength=p.n_units)
                / p.n_periods)[p.unit_index]

    def time_means(v):
        return (np.bincount(p.time_index, weights=v, minlength=p.n_periods)
                / p.n_units)[p.time_index]

    parts = [np.ones(p.n), p.w, p.x, unit_means(p.w).reshape(-1, 1),
             time_means(p.w).reshape(-1, 1)]
    for j in range(p.k):
        parts.append(unit_means(p.x[:, j]).reshape(-1, 1))
        parts.append(time_means(p.x[:, j]).reshape(-1, 1))
    design = np.column_stack(parts)
    m_fit = wls_fit(design, p.y)
    tau_mundlak = float(m_fit.coefficients[1])
    return TwowayCheck(
        tau_fe=tau_fe,
        tau_mundlak=tau_mundlak,
        max_abs_diff=abs(tau_fe - tau_mundlak),
    )
