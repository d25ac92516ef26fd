"""Acceptance suite: one test per shipping criterion.

Every test prints a single ``criterion NN <name>: PASS/FAIL (...)``
line with the measured quantities before asserting, so a plain
``pytest -v`` run shows the verdicts and a failure still surfaces the
numbers. Monte Carlo settings (sizes, rep counts, seeds) are frozen;
changing them invalidates the calibrated tolerances.

Run with ``pytest -m acceptance``; the slow marker singles out the
multi-minute Monte Carlo blocks.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from clusterdr import (
    Dataset,
    EstimatorConfig,
    NuisanceConfig,
    StatSpec,
    Term,
    build_suffstats,
    cross_fit_folds,
    dgp_preset,
    dr_estimate,
    fe_ols,
    fit_nuisances,
    generate,
    make_panel,
    monte_carlo,
    multinomial_group_lasso,
    mundlak_ols,
    mundlak_spec,
    overlap_set,
    em_fit,
    posterior_suffstat,
    twoway_mundlak_check,
)
from clusterdr.cli import canonical_body_bytes, main
from clusterdr.dataset import write_csv

import oracles

pytestmark = pytest.mark.acceptance

# Summary set used by the nonlinear design in criteria 3-5: the mean
# of the first covariate alone. Both nuisance models are well
# specified with it and both lose a needed regressor without it.
XBAR_SPEC = StatSpec(terms=(Term("covariate-mean", j=0),))


def verdict(num, name, ok, detail):
    word = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {word} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


# --- 1: pooled regression with cluster means equals per-cluster dummies ----


def test_c01_mean_augmentation_identity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        d = generate(dgp_preset("mundlak-linear", c=50, n_c=5, k=3),
                     seed).dataset
        tau_fe = fe_ols(d).tau
        tau_mu = mundlak_ols(d).tau
        worst = max(worst, abs(tau_fe - tau_mu) / (1.0 + abs(tau_fe)))
    elapsed = time.perf_counter() - start
    verdict(1, "cluster-mean identity", worst <= 1e-8 and elapsed < 10.0,
            f"max rel diff {worst:.3e}, {elapsed:.1f}s over 100 datasets")


# --- 2: two-way panel identity ----------------------------------------------


def test_c02_twoway_panel_identity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n_units, n_periods, k = 10, 5, 2
        rows = n_units * n_periods
        units = np.repeat(np.arange(n_units), n_periods)
        times = np.tile(np.arange(n_periods), n_units)
        x = rng.standard_normal((rows, k))
        w = (rng.random(rows) < 0.5).astype(float)
        y = (rng.standard_normal(n_units)[units]
             + 0.4 * times
             + x @ np.array([1.0, -0.7])
             + 1.3 * w
             + 0.5 * rng.standard_normal(rows))
        panel = make_panel(y, w, x, units.tolist(), times.tolist())
        worst = max(worst, twoway_mundlak_check(panel).max_abs_diff)
    elapsed = time.perf_counter() - start
    verdict(2, "two-way panel identity", worst <= 1e-8 and elapsed < 10.0,
            f"max abs diff {worst:.3e}, {elapsed:.1f}s over 50 panels")


# --- 3: consistency and the error shrink rate --------------------------------


@pytest.mark.slow
def test_c03_consistency_and_rate():
    start = time.perf_counter()
    est = EstimatorConfig(method="dr", statspec=XBAR_SPEC, L=5, eta=0.05)
    rmse = {}
    bias400 = bound400 = None
    for c in (100, 400, 1600):
        cfg = dgp_preset("nonlinear-u", c=c, n_c=5)
        rep = monte_carlo(cfg, est, reps=300, seed=301)
        rmse[c] = rep.rmse
        if c == 400:
            bias400 = rep.bias
            bound400 = 3.0 * rep.mc_sd / math.sqrt(300)
    ratio = rmse[1600] / rmse[100]
    elapsed = time.perf_counter() - start
    ok = (abs(bias400) <= bound400
          and 0.15 <= ratio <= 0.45
          and elapsed < 600.0)
    verdict(3, "dr consistency", ok,
            f"bias(c=400) {bias400:+.5f} vs bound {bound400:.5f}, "
            f"rmse ratio {ratio:.3f} in [0.15, 0.45], {elapsed:.0f}s")


# --- 4: either nuisance model alone is enough --------------------------------


@pytest.mark.slow
def test_c04_double_robustness():
    start = time.perf_counter()
    cfg = dgp_preset("nonlinear-u", c=2000, n_c=5)
    sd_truth = float(generate(cfg, 123).truth.std())
    threshold = 0.05 * sd_truth
    scenarios = {
        "a": NuisanceConfig(outcome_use_summaries=False),
        "b": NuisanceConfig(propensity_use_summaries=False),
        "c": NuisanceConfig(outcome_use_summaries=False,
                            propensity_use_summaries=False),
    }
    bias = {}
    for name, nc in scenarios.items():
        est = EstimatorConfig(method="dr", statspec=XBAR_SPEC, L=5,
                              eta=0.05, nuisance=nc)
        rep = monte_carlo(cfg, est, reps=200, seed=42)
        bias[name] = rep.bias
    elapsed = time.perf_counter() - start
    single_wrong_ok = max(abs(bias["a"]), abs(bias["b"])) < threshold
    both_wrong_big = abs(bias["c"]) > 3.0 * max(abs(bias["a"]),
                                                abs(bias["b"]))
    ok = single_wrong_ok and both_wrong_big and elapsed < 900.0
    verdict(4, "double robustness", ok,
            f"bias a {bias['a']:+.5f}, b {bias['b']:+.5f} vs "
            f"threshold {threshold:.5f}; both-wrong {bias['c']:+.5f}; "
            f"{elapsed:.0f}s")


# --- 5: interval coverage and the variance estimator --------------------------


@pytest.mark.slow
def test_c05_coverage_and_se_calibration():
    start = time.perf_counter()
    cfg = dgp_preset("nonlinear-u", c=500, n_c=5)
    est = EstimatorConfig(method="dr", statspec=XBAR_SPEC, L=5, eta=0.05)
    rep = monte_carlo(cfg, est, reps=500, seed=505)
    ratio = rep.mean_se / rep.mc_sd
    elapsed = time.perf_counter() - start
    ok = (0.90 <= rep.coverage <= 0.98
          and 0.8 <= ratio <= 1.2
          and elapsed < 600.0)
    verdict(5, "coverage and se", ok,
            f"coverage {rep.coverage:.4f} in [0.90, 0.98], "
            f"se/mc_sd {ratio:.4f} in [0.8, 1.2], {elapsed:.0f}s")


# --- 6: propensity-weighted within regression beats the unweighted one -------


@pytest.mark.slow
def test_c06_weighted_fe_removes_composition_bias():
    cfg = dgp_preset("hetero-prop")
    bias = {}
    bound = None
    for method, use_true in (("fe", False), ("weighted-fe", True)):
        est = EstimatorConfig(method=method, use_true_propensity=use_true)
        rep = monte_carlo(cfg, est, reps=300, seed=606)
        bias[method] = rep.bias
        if method == "weighted-fe":
            bound = 3.0 * rep.mc_sd / math.sqrt(300)
    ok = (abs(bias["fe"]) > 5.0 * abs(bias["weighted-fe"])
          and abs(bias["weighted-fe"]) <= bound)
    verdict(6, "weighted fe robustness", ok,
            f"fe bias {bias['fe']:+.5f}, weighted {bias['weighted-fe']:+.5f} "
            f"vs bound {bound:.5f}")


# --- 7: median treatment-effect gap under randomization ----------------------


@pytest.mark.slow
def test_c07_median_qte_under_randomization():
    cfg = dgp_preset("randomized")
    est = EstimatorConfig(method="qte-diff", q=0.5, eta=0.05)
    rep = monte_carlo(cfg, est, reps=200, seed=707)
    mc_se = rep.mc_sd / math.sqrt(200)
    ok = abs(rep.bias) <= 3.0 * mc_se
    verdict(7, "median qte sanity", ok,
            f"bias {rep.bias:+.5f} vs 3 mc_se {3 * mc_se:.5f}")


# --- 8: point estimate and variance against a literal transcription ----------


def twenty_unit_dataset(seed):
    rng = np.random.default_rng(seed)
    labels, ys, ws, xs = [], [], [], []
    for cid in range(5):
        u = rng.standard_normal()
        p = 1.0 / (1.0 + math.exp(-0.5 * u))
        arms = (rng.random(4) < p).astype(int)
        while arms.min() == arms.max():
            arms = (rng.random(4) < p).astype(int)
        for w in arms:
            x = rng.standard_normal(2) + u
            y = (1.0 + 0.9 * w + x @ np.array([0.7, -0.4]) + u
                 + 0.5 * rng.standard_normal())
            labels.append(f"g{cid}")
            ys.append(y)
            ws.append(int(w))
            xs.append(x)
    return Dataset(np.array(ys), np.array(ws), np.array(xs), labels)


def test_c08_formula_transcription_oracle():
    worst = 0.0
    spec = StatSpec(terms=(Term("covariate-mean", j=0),))
    for seed in range(10):
        d = twenty_unit_dataset(seed)
        s_bar = build_suffstats(d, spec)
        folds = cross_fit_folds(d.c, 5, seed)
        nu = fit_nuisances(d, s_bar, folds)
        a = overlap_set(nu.e, 0.05)
        out = dr_estimate(d, nu, a, eta=0.05)
        cluster_ids = [d.cluster_labels[i] for i in d.cluster_index]
        tau_want, v_want = oracles.straight_line_dr(
            d.y, d.w.astype(int), nu.mu1, nu.mu0, nu.e,
            a.astype(int), cluster_ids,
        )
        worst = max(worst, abs(out.tau_hat - tau_want),
                    abs(out.v_hat - v_want))
    verdict(8, "transcription oracle", worst <= 1e-10,
            f"max abs deviation {worst:.3e} over 10 fixed datasets")


# --- 9: mixture fit on two well-separated types -------------------------------


def test_c09_mixture_separation():
    min_gain = np.inf
    max_rowerr = 0.0
    min_frac = 1.0
    for seed in range(5):
        d = generate(dgp_preset("separated-mixture"), seed).dataset
        model = em_fit(d, p=2, seed=seed, restarts=3)
        gains = np.diff(np.asarray(model.ll_path))
        if gains.size:
            min_gain = min(min_gain, float(gains.min()))
        post = posterior_suffstat(model, d)
        max_rowerr = max(max_rowerr,
                         float(np.abs(post.sum(axis=1) - 1.0).max()))
        min_frac = min(min_frac, float((post.max(axis=1) >= 0.95).mean()))
    ok = min_gain >= -1e-9 and max_rowerr <= 1e-12 and min_frac >= 0.90
    verdict(9, "mixture separation", ok,
            f"min ll gain {min_gain:.2e}, max row-sum err {max_rowerr:.2e}, "
            f"min concentrated fraction {min_frac:.3f}")


# --- 10: relevant statistics enter the penalty path first ---------------------


@pytest.mark.slow
def test_c10_selection_order():
    start = time.perf_counter()
    spec = mundlak_spec(9)
    relevant = {0, 1}
    wins = 0
    for seed in range(100):
        d = generate(dgp_preset("sparse-relevant"), seed).dataset
        feats = np.column_stack([t.unit_values(d) for t in spec.terms])
        labels = [d.cluster_labels[i] for i in d.cluster_index]
        res = multinomial_group_lasso(
            feats, labels, n_lambdas=60, lambda_min_ratio=1e-3,
            tol=1e-4, stop_after_k=2,
        )
        for point in res.path:
            got = set(point.selected)
            if len(got) >= 2:
                wins += got == relevant
                break
            if not got <= relevant:
                break
    elapsed = time.perf_counter() - start
    verdict(10, "selection order", wins >= 90,
            f"both relevant first in {wins}/100 runs, {elapsed:.0f}s")


# --- 11: byte-identical report bodies on rerun --------------------------------


def rerun_body_pair(args, tmp_path, tag):
    paths = []
    for i in (1, 2):
        out = tmp_path / f"{tag}{i}.json"
        assert main(args + ["--output", str(out)]) == 0
        paths.append(out)
    bodies = []
    for p in paths:
        with open(p) as fh:
            bodies.append(canonical_body_bytes(json.load(fh)["body"]))
    return bodies[0] == bodies[1]


def test_c11_cli_determinism(tmp_path, capsys):
    demo = tmp_path / "demo.csv"
    write_csv(generate(dgp_preset("mundlak-linear", c=30, n_c=6), 7).dataset,
              demo)
    disc = tmp_path / "disc.csv"
    write_csv(generate(dgp_preset("separated-mixture", c=40, n_c=10),
                       1).dataset, disc)
    runs = {
        "estimate": ["estimate", "--data", str(demo), "--seed", "9"],
        "simulate": ["simulate", "--preset", "randomized", "--c", "40",
                     "--reps", "2", "--seed", "9"],
        "select": ["select", "--data", str(demo), "--stop-after-k", "2",
                   "--tol", "1e-4", "--seed", "9"],
        "mixture": ["mixture", "--data", str(disc), "--p", "2",
                    "--seed", "9"],
        "check-equivalence": ["check-equivalence", "--data", str(demo)],
    }
    stable = {name: rerun_body_pair(args, tmp_path, name.replace("-", "_"))
              for name, args in runs.items()}
    capsys.readouterr()
    bad = sorted(name for name, same in stable.items() if not same)
    verdict(11, "cli determinism", not bad,
            f"{len(stable) - len(bad)}/{len(stable)} commands byte-identical"
            + (f", differing: {bad}" if bad else ""))
