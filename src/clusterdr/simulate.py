"""Synthetic clustered data generators and the Monte Carlo driver.

Every generator follows the same shape: a latent vector per cluster,
covariates built from the latent vector, a cluster-level treatment
probability (a function of the latent vector, of the realized cluster
covariate mean, or an independent draw), independent treatment draws
within the cluster, and an outcome that is a baseline plus a (possibly
heterogeneous) treatment effect plus noise. Named presets freeze the
constants so experiments are reproducible end to end from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .dataset import Dataset
from .estimators import (
    NuisanceConfig,
    dr_estimate,
    fe_ols,
    fit_nuisances,
    mundlak_ols,
    qte_estimate,
    weighted_fe,
)
from .exceptions import ClusterDrError, InputError
from .glm import cross_fit_folds
from .suffstats import StatSpec, build_suffstats, mundlak_spec, overlap_set

__all__ = [
    "DgpConfig",
    "GenerateResult",
    "EstimatorConfig",
    "McReport",
    "dgp_preset",
    "generate",
    "monte_carlo",
    "PRESET_NAMES",
]


@dataclass(frozen=True)
class DgpConfig:
    """Full description of one synthetic design.

    ``eta_map``, ``outcome_map``, and ``effect_map`` name the cluster
    propensity map, the baseline outcome map, and the effect map;
    ``params`` carries their constants. ``k`` is the number of observed
    covariates and ``u_dim`` the latent dimension per cluster.
    """

    name: str
    c: int
    n_c: int
    k: int
    u_dim: int
    eta_map: str
    outcome_map: str
    effect_map: str
    sigma: float
    seed: int = 0
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "c": self.c,
            "n_c": self.n_c,
            "k": self.k,
            "u_dim": self.u_dim,
            "eta_map": self.eta_map,
            "outcome_map": self.outcome_map,
            "effect_map": self.effect_map,
            "sigma": self.sigma,
            "seed": self.seed,
            "params": dict(sorted(self.params.items())),
        }
        return out


@dataclass(frozen=True)
class GenerateResult:
    """One synthetic draw plus everything needed to score an estimator.

    ``truth`` holds the per-unit treatment effect and ``true_e`` the
    assignment probability each unit was treated with.
    """

    dataset: Dataset
    truth: np.ndarray
    true_e: np.ndarray

    def tau_tilde(self, mask: Optional[np.ndarray] = None) -> float:
        """Average effect over retained units (all units by default)."""
        if mask is None:
            return float(self.truth.mean())
        mask = np.asarray(mask, dtype=float)
        kept = mask == 1.0
        if not np.any(kept):
            raise InputError("mask retains no units")
        return float(self.truth[kept].mean())


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


# --- cluster propensity maps ------------------------------------------------
# Each map sees the latent draws and the realized per-cluster mean of
# the first covariate, so designs may condition treatment on either.


def _eta_logit_in_u(rng, u, xbar1, prm):
    return _sigmoid(prm.get("a0", 0.0) + prm.get("a1", 1.0) * u[:, 0])


def _eta_logit_in_xbar(rng, u, xbar1, prm):
    return _sigmoid(prm.get("a0", 0.0) + prm.get("a1", 1.0) * xbar1)


def _eta_scaled_beta(rng, u, xbar1, prm):
    raw = rng.beta(prm.get("alpha", 2.0), prm.get("beta", 5.0), size=u.shape[0])
    return prm.get("lo", 0.1) + prm.get("span", 0.8) * raw


def _eta_constant(rng, u, xbar1, prm):
    return np.full(u.shape[0], prm.get("p0", 0.5))


def _eta_type_split(rng, u, xbar1, prm):
    types = (u[:, 0] > 0.0).astype(float)
    return np.where(types == 1.0, prm.get("p_high", 0.7), prm.get("p_low", 0.3))


_ETA_MAPS = {
    "logit-in-u": _eta_logit_in_u,
    "logit-in-xbar": _eta_logit_in_xbar,
    "beta-scaled": _eta_scaled_beta,
    "constant": _eta_constant,
    "type-split": _eta_type_split,
}


# --- covariate construction -------------------------------------------------


def _covariates(rng, cfg: DgpConfig, u_unit: np.ndarray) -> np.ndarray:
    """Observed covariates per unit, driven by ``params['x_mode']``.

    ``anchored-noise``: first column is the first latent coordinate
    plus noise, remaining columns pure noise. ``anchored-exp`` adds the
    exponential of half the first column as the second column.
    ``binary-type``: a single Bernoulli column whose rate depends on
    the sign of the first latent coordinate.
    """
    prm = cfg.params
    mode = prm.get("x_mode", "anchored-noise")
    n = u_unit.shape[0]
    if mode in ("anchored-noise", "anchored-exp"):
        x = np.empty((n, cfg.k))
        x[:, 0] = u_unit[:, 0] + prm.get("sx", 1.0) * rng.standard_normal(n)
        next_col = 1
        if mode == "anchored-exp":
            if cfg.k < 2:
                raise InputError("anchored-exp needs at least two covariates")
            x[:, 1] = np.exp(x[:, 0] / 2.0)
            next_col = 2
        for j in range(next_col, cfg.k):
            x[:, j] = rng.standard_normal(n)
        return x
    if mode == "binary-type":
        if cfg.k != 1:
            raise InputError("binary-type generates exactly one covariate")
        types = (u_unit[:, 0] > 0.0).astype(float)
        rate = np.where(
            types == 1.0, prm.get("x_high", 0.85), prm.get("x_low", 0.15)
        )
        return (rng.random(n) < rate).astype(float).reshape(-1, 1)
    raise InputError(f"unknown x_mode {mode!r}")


# --- baseline outcome maps --------------------------------------------------
# Signature: (x, u_unit, p_unit, xbar1_unit, prm) so cluster-level
# channels may run through the latent vector, the treatment
# probability, or the realized covariate mean.


def _outcome_linear(x, u_unit, p_unit, xbar1_unit, prm):
    out = prm.get("b0", 0.0) + prm.get("b1", 1.0) * x[:, 0]
    out += prm.get("g1", 1.0) * u_unit[:, 0]
    out += prm.get("g2", 0.0) * p_unit
    return out


def _outcome_linear_exp(x, u_unit, p_unit, xbar1_unit, prm):
    out = _outcome_linear(x, u_unit, p_unit, xbar1_unit, prm)
    return out + prm.get("b2", 1.0) * x[:, 1]


def _outcome_linear_exp_xbar(x, u_unit, p_unit, xbar1_unit, prm):
    out = prm.get("b0", 0.0) + prm.get("b1", 1.0) * x[:, 0]
    out += prm.get("b2", 1.0) * x[:, 1]
    out += prm.get("g1", 1.0) * u_unit[:, 0]
    out += prm.get("g2", 1.0) * xbar1_unit
    return out


def _outcome_type_shift(x, u_unit, p_unit, xbar1_unit, prm):
    types = (u_unit[:, 0] > 0.0).astype(float)
    return prm.get("b1", 1.0) * x[:, 0] + prm.get("g1", 1.5) * types


_OUTCOME_MAPS = {
    "linear": _outcome_linear,
    "linear-exp": _outcome_linear_exp,
    "linear-exp-xbar": _outcome_linear_exp_xbar,
    "type-shift": _outcome_type_shift,
}


# --- effect maps ------------------------------------------------------------


def _effect_constant(x, u_unit, p_unit, xbar1_unit, prm):
    return np.full(x.shape[0], prm.get("t0", 1.0))


def _effect_linear_u_xbar(x, u_unit, p_unit, xbar1_unit, prm):
    return (
        prm.get("t0", 1.0)
        + prm.get("t1", 0.6) * u_unit[:, 0]
        + prm.get("t2", 0.6) * xbar1_unit
    )


def _effect_linear_p(x, u_unit, p_unit, xbar1_unit, prm):
    return prm.get("t0", 1.0) + prm.get("t1", 6.0) * (
        p_unit - prm.get("p_center", 0.5)
    )


_EFFECT_MAPS = {
    "constant": _effect_constant,
    "linear-u-xbar": _effect_linear_u_xbar,
    "linear-p": _effect_linear_p,
}


# --- named presets ----------------------------------------------------------

_PRESETS = {
    # Linear in everything; cluster confounding through the latent mean
    # and through the treatment probability. The workhorse for the
    # algebraic equivalence checks.
    "mundlak-linear": dict(
        c=50, n_c=5, k=3, u_dim=1,
        eta_map="logit-in-u", outcome_map="linear", effect_map="constant",
        sigma=1.0,
        params=dict(
            x_mode="anchored-noise", sx=1.0,
            a0=0.0, a1=1.0,
            b0=0.5, b1=1.0, g1=1.0, g2=0.0,
            t0=1.0,
        ),
    ),
    # Outcomes are nonlinear in the latent level through an exponential
    # observed covariate, and the cluster's realized covariate mean
    # moves the baseline, the effect, and (through a logistic link) the
    # treatment probability. Given unit covariates plus that one
    # cluster mean, the treatment probability is exactly logistic and
    # the outcome mean exactly linear, while dropping the cluster mean
    # breaks both at once.
    "nonlinear-u": dict(
        c=200, n_c=5, k=2, u_dim=1,
        eta_map="logit-in-xbar", outcome_map="linear-exp-xbar",
        effect_map="linear-u-xbar",
        sigma=1.0,
        params=dict(
            x_mode="anchored-exp", sx=1.0,
            a0=0.0, a1=1.0,
            b0=0.5, b1=0.8, b2=1.0, g1=1.0, g2=1.2,
            t0=1.0, t1=0.6, t2=0.6,
        ),
    ),
    # Bernoulli(1/2) treatment independent of everything; constant
    # effect, so every quantile of the treated arm is the control
    # quantile shifted by the effect.
    "randomized": dict(
        c=500, n_c=10, k=1, u_dim=1,
        eta_map="constant", outcome_map="linear", effect_map="constant",
        sigma=0.5,
        params=dict(
            x_mode="anchored-noise", sx=1.0,
            p0=0.5,
            b0=0.0, b1=1.0, g1=0.5,
            t0=1.0,
        ),
    ),
    # Two well-separated cluster types driving a binary covariate and
    # the treatment rate; the natural target for the mixture fit.
    "separated-mixture": dict(
        c=200, n_c=20, k=1, u_dim=1,
        eta_map="type-split", outcome_map="type-shift",
        effect_map="constant",
        sigma=0.5,
        params=dict(
            x_mode="binary-type", x_low=0.15, x_high=0.85,
            p_low=0.3, p_high=0.7,
            b1=1.0, g1=1.5,
            t0=1.0,
        ),
    ),
    # Treatment probabilities spread over an asymmetric range and the
    # effect moves with them, so inverse-propensity weighting matters;
    # clusters are large so weighting with the true probabilities is
    # nearly exact.
    "hetero-prop": dict(
        c=500, n_c=200, k=2, u_dim=1,
        eta_map="beta-scaled", outcome_map="linear-exp",
        effect_map="linear-p",
        sigma=1.0,
        params=dict(
            x_mode="anchored-exp", sx=1.0,
            alpha=2.0, beta=5.0, lo=0.1, span=0.8,
            b0=0.0, b1=0.8, b2=1.0, g1=1.0, g2=2.0,
            t0=1.0, t1=3.0, p_center=0.1 + 0.8 * (2.0 / 7.0),
        ),
    ),
    # Many candidate covariates, only the first related to the cluster
    # identity; the second latent coordinate drives treatment rates.
    # Used to exercise statistic selection.
    "sparse-relevant": dict(
        c=30, n_c=40, k=9, u_dim=2,
        eta_map="logit-in-u2", outcome_map="linear", effect_map="constant",
        sigma=1.0,
        params=dict(
            x_mode="anchored-noise", sx=1.0, u_scale=2.0,
            a0=0.0, a1=1.5,
            b0=0.0, b1=1.0, g1=1.0,
            t0=1.0,
        ),
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def _eta_logit_in_u2(rng, u, xbar1, prm):
    return _sigmoid(prm.get("a0", 0.0) + prm.get("a1", 1.5) * u[:, 1])


_ETA_MAPS["logit-in-u2"] = _eta_logit_in_u2


def dgp_preset(name: str, **overrides) -> DgpConfig:
    """Named design with optional field or constant overrides.

    Top-level fields (``c``, ``n_c``, ``sigma``, ``seed``, ...) are
    overridden by keyword; anything else is treated as a constant in
    ``params``.
    """
    if name not in _PRESETS:
        raise InputError(
            f"unknown preset {name!r}; choose from {list(PRESET_NAMES)}"
        )
    base = {k: (dict(v) if isinstance(v, dict) else v)
            for k, v in _PRESETS[name].items()}
    params = base.pop("params")
    fields = {"c", "n_c", "k", "u_dim", "eta_map", "outcome_map",
              "effect_map", "sigma", "seed"}
    cfg_kwargs = dict(base)
    cfg_kwargs["seed"] = 0
    for key, val in overrides.items():
        if key in fields:
            cfg_kwargs[key] = val
        else:
            params[key] = val
    return DgpConfig(name=name, params=params, **cfg_kwargs)


def generate(cfg: DgpConfig, seed=None) -> GenerateResult:
    """Draw one dataset from a design.

    ``seed`` may be an int or a numpy SeedSequence; ``None`` falls back
    to ``cfg.seed``. Cluster labels are the dense ids 0..c-1 as
    strings, sizes are all ``cfg.n_c``.
    """
    if cfg.eta_map not in _ETA_MAPS:
        raise InputError(f"unknown eta_map {cfg.eta_map!r}")
    if cfg.outcome_map not in _OUTCOME_MAPS:
        raise InputError(f"unknown outcome_map {cfg.outcome_map!r}")
    if cfg.effect_map not in _EFFECT_MAPS:
        raise InputError(f"unknown effect_map {cfg.effect_map!r}")
    if cfg.c < 1 or cfg.n_c < 1:
        raise InputError("c and n_c must be positive")
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    prm = cfg.params

    u = rng.standard_normal((cfg.c, cfg.u_dim)) * prm.get("u_scale", 1.0)

    idx = np.repeat(np.arange(cfg.c), cfg.n_c)
    u_unit = u[idx, :]
    n = idx.shape[0]

    x = _covariates(rng, cfg, u_unit)
    xbar1 = x[:, 0].reshape(cfg.c, cfg.n_c).mean(axis=1)
    p_cluster = np.clip(
        _ETA_MAPS[cfg.eta_map](rng, u, xbar1, prm), 1e-6, 1 - 1e-6
    )
    p_unit = p_cluster[idx]
    xbar1_unit = xbar1[idx]

    w = (rng.random(n) < p_unit).astype(int)
    baseline = _OUTCOME_MAPS[cfg.outcome_map](x, u_unit, p_unit, xbar1_unit, prm)
    effect = _EFFECT_MAPS[cfg.effect_map](x, u_unit, p_unit, xbar1_unit, prm)
    noise = rng.standard_normal(n) if cfg.sigma > 0 else np.zeros(n)
    y = baseline + w * effect + cfg.sigma * noise

    d = Dataset._from_ids(y, w, x, idx, [str(j) for j in range(cfg.c)])
    return GenerateResult(dataset=d, truth=effect, true_e=p_unit)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


_METHODS = ("dr", "fe", "mundlak", "weighted-fe", "qte-diff")


@dataclass(frozen=True)
class EstimatorConfig:
    """What to run on each synthetic draw.

    ``method`` is one of ``dr``, ``fe``, ``mundlak``, ``weighted-fe``,
    and ``qte-diff`` (treated-minus-control quantile at level ``q``).
    ``statspec`` defaults to treatment mean plus all covariate means.
    ``eta`` of ``None`` disables trimming. ``use_true_propensity``
    feeds the generator's assignment probabilities to ``weighted-fe``
    and ``qte-diff`` in place of the fitted propensities; any other
    method rejects it. ``dr`` does not take it: its score conditions on
    the cluster summaries, which hold the unit's own treatment, and the
    generator's probability is not that conditional propensity.
    """

    method: str = "dr"
    statspec: Optional[StatSpec] = None
    L: int = 5
    eta: Optional[float] = 0.05
    q: float = 0.5
    use_true_propensity: bool = False
    nuisance: NuisanceConfig = field(default_factory=NuisanceConfig)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InputError(f"unknown method {self.method!r}")
        if self.use_true_propensity and self.method not in (
                "weighted-fe", "qte-diff"):
            raise InputError(f"use_true_propensity applies to weighted-fe "
                             f"and qte-diff only, not {self.method!r}")

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "statspec": None if self.statspec is None
            else [t.to_dict() for t in self.statspec.terms],
            "L": self.L,
            "eta": self.eta,
            "q": self.q,
            "use_true_propensity": self.use_true_propensity,
        }


@dataclass
class McReport:
    """Aggregate Monte Carlo diagnostics plus the per-rep table.

    ``bias`` and ``rmse`` compare each estimate with its own draw's
    retained-average effect; ``mc_sd`` is the across-rep standard
    deviation of (estimate - truth); ``coverage`` and ``mean_se`` are
    NaN for methods that report no standard error.
    """

    reps: int
    bias: float
    rmse: float
    coverage: float
    mean_se: float
    mc_sd: float
    tau_hat: np.ndarray
    se: np.ndarray
    truth: np.ndarray
    covered: np.ndarray
    failures: list

    def to_dict(self) -> dict:
        def clean(v):
            return None if (isinstance(v, float) and math.isnan(v)) else v

        return {
            "reps": self.reps,
            "bias": self.bias,
            "rmse": self.rmse,
            "coverage": clean(self.coverage),
            "mean_se": clean(self.mean_se),
            "mc_sd": clean(self.mc_sd),
            "failures": [list(f) for f in self.failures],
        }


def _run_one_rep(cfg: DgpConfig, est: EstimatorConfig, child_seq):
    gen_seq, fold_seq = child_seq.spawn(2)
    res = generate(cfg, gen_seq)
    d = res.dataset
    method = est.method

    if method == "fe":
        return fe_ols(d), math.nan, res.tau_tilde(), math.nan
    if method == "mundlak":
        return mundlak_ols(d), math.nan, res.tau_tilde(), math.nan

    spec = mundlak_spec(d.k) if est.statspec is None else est.statspec
    s_bar = build_suffstats(d, spec)
    fold_seed = int(fold_seq.generate_state(1)[0])
    folds = cross_fit_folds(d.c, est.L, fold_seed)

    if method == "weighted-fe":
        if est.use_true_propensity:
            e_hat = res.true_e
        else:
            e_hat = fit_nuisances(d, s_bar, folds, est.nuisance).e
        tau = weighted_fe(d, np.clip(e_hat, 1e-6, 1 - 1e-6))
        return tau, math.nan, res.tau_tilde(), math.nan

    nu = fit_nuisances(d, s_bar, folds, est.nuisance)
    if method == "qte-diff":
        if est.use_true_propensity:
            nu = replace(nu, e=res.true_e)
        a = overlap_set(nu.e, est.eta)
        q1 = qte_estimate(d, nu, a, est.q, arm=1)
        q0 = qte_estimate(d, nu, a, est.q, arm=0)
        return q1 - q0, math.nan, res.tau_tilde(a), math.nan

    out = dr_estimate(d, nu, eta=est.eta)
    truth = res.tau_tilde(out.a)
    covered = 1.0 if out.ci[0] <= truth <= out.ci[1] else 0.0
    return out.tau_hat, out.se, truth, covered


def monte_carlo(
    cfg: DgpConfig,
    est: EstimatorConfig,
    reps: int,
    seed: int,
) -> McReport:
    """Repeat generate-and-estimate ``reps`` times.

    Per-rep randomness comes from children of one seed sequence, so
    results are reproducible for a given (cfg, est, reps, seed). A rep
    whose estimator fails (a :class:`~clusterdr.exceptions.ClusterDrError`
    or a numpy ``LinAlgError``) is recorded in ``failures`` and excluded
    from the aggregates rather than aborting the run; when every rep
    fails, the :class:`~clusterdr.exceptions.InputError` raised quotes
    the first failure. Any other exception is a programming error and
    propagates.
    """
    if reps < 1:
        raise InputError("reps must be >= 1")
    children = np.random.SeedSequence(seed).spawn(reps)
    tau_hat = np.full(reps, math.nan)
    se = np.full(reps, math.nan)
    truth = np.full(reps, math.nan)
    covered = np.full(reps, math.nan)
    failures: list = []
    for r in range(reps):
        try:
            tau_hat[r], se[r], truth[r], covered[r] = _run_one_rep(
                cfg, est, children[r])
        except (ClusterDrError, np.linalg.LinAlgError) as exc:
            failures.append((r, f"{type(exc).__name__}: {exc}"))

    ok = ~np.isnan(tau_hat)
    err = tau_hat[ok] - truth[ok]
    if not np.any(ok):
        r, message = failures[0]
        raise InputError(f"every rep failed; rep {r}: {message}")
    bias = float(err.mean())
    rmse = float(np.sqrt(np.mean(err**2)))
    mc_sd = float(err.std(ddof=1)) if err.size > 1 else math.nan
    has_se = ok & ~np.isnan(se)
    mean_se = float(se[has_se].mean()) if np.any(has_se) else math.nan
    has_cov = ok & ~np.isnan(covered)
    coverage = float(covered[has_cov].mean()) if np.any(has_cov) else math.nan
    return McReport(
        reps=reps,
        bias=bias,
        rmse=rmse,
        coverage=coverage,
        mean_se=mean_se,
        mc_sd=mc_sd,
        tau_hat=tau_hat,
        se=se,
        truth=truth,
        covered=covered,
        failures=failures,
    )
