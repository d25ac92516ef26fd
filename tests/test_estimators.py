"""Point estimators, nuisance cross-fitting, variance, panel check."""

import numpy as np
import pytest

from clusterdr import (
    Dataset,
    DegenerateDesignError,
    EmptyOverlapError,
    EstimationError,
    InputError,
    NuisanceConfig,
    UnbalancedPanelError,
    build_suffstats,
    cluster_robust_se,
    cross_fit_folds,
    dgp_preset,
    dr_estimate,
    fe_ols,
    fit_nuisances,
    generate,
    make_panel,
    mundlak_ols,
    mundlak_spec,
    overlap_set,
    psi,
    qte_estimate,
    twoway_mundlak_check,
    weighted_fe,
)

import oracles


def unbalanced_dataset(seed=0, c=12):
    """Clusters of sizes 2..7, string labels, mixed arms."""
    rng = np.random.default_rng(seed)
    sizes = 2 + (np.arange(c) % 6)
    labels, ys, ws, xs = [], [], [], []
    for cid in range(c):
        n_c = int(sizes[cid])
        u = rng.standard_normal()
        p = 1.0 / (1.0 + np.exp(-u))
        for _ in range(n_c):
            x = rng.standard_normal(2) + u
            w = int(rng.random() < p)
            y = 1.0 + 0.8 * w + x @ np.array([1.0, -0.5]) + u
            y += 0.3 * rng.standard_normal()
            labels.append(f"cl{cid}")
            ys.append(y)
            ws.append(w)
            xs.append(x)
    return Dataset(np.array(ys), np.array(ws), np.array(xs), labels)


def pipeline(d, L=3, eta=0.05, seed=1, cfg=None):
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    folds = cross_fit_folds(d.c, L, seed)
    nu = fit_nuisances(d, s_bar, folds, cfg)
    a = overlap_set(nu.e, eta)
    return nu, a


# --------------------------------------------------------------------------
# score
# --------------------------------------------------------------------------


def test_psi_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    n = 200
    y = rng.standard_normal(n)
    w = rng.integers(0, 2, size=n).astype(float)
    mu1 = rng.standard_normal(n)
    mu0 = rng.standard_normal(n)
    e = rng.uniform(0.05, 0.95, size=n)
    got = psi(y, w, mu1, mu0, e)
    want = [oracles.scalar_psi(y[i], int(w[i]), mu1[i], mu0[i], e[i])
            for i in range(n)]
    assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_psi_rejects_boundary_propensities():
    with pytest.raises(InputError):
        psi(1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(InputError):
        psi(1.0, 0.0, 0.0, 0.0, 1.0)


# --------------------------------------------------------------------------
# regression baselines and identities
# --------------------------------------------------------------------------


def test_fe_matches_dummy_regression():
    d = unbalanced_dataset(seed=1)
    got = fe_ols(d).tau
    cluster_ids = [d.cluster_labels[i] for i in d.cluster_index]
    want = oracles.dummy_ols_fe(d.y, d.w.astype(float), d.x, cluster_ids)
    assert got == pytest.approx(want, abs=1e-10)


def test_mundlak_equals_fe_on_unbalanced_data():
    for seed in range(5):
        d = unbalanced_dataset(seed=seed)
        tau_fe = fe_ols(d).tau
        res = mundlak_ols(d)
        assert abs(res.tau - tau_fe) <= 1e-8 * (1.0 + abs(tau_fe))


def test_weighted_fe_matches_dummy_wls():
    d = unbalanced_dataset(seed=2)
    rng = np.random.default_rng(3)
    e = rng.uniform(0.2, 0.8, size=d.n)
    got = weighted_fe(d, e).tau
    w = d.w.astype(float)
    omega = np.where(w == 1.0, 1.0 / e, 1.0 / (1.0 - e))
    cluster_ids = [d.cluster_labels[i] for i in d.cluster_index]
    want = oracles.dummy_wls_fe(d.y, w, d.x, cluster_ids, omega)
    assert got == pytest.approx(want, abs=1e-10)


def test_weighted_fe_with_flat_propensity_equals_fe():
    d = unbalanced_dataset(seed=4)
    flat = np.full(d.n, 0.5)
    assert weighted_fe(d, flat).tau == pytest.approx(fe_ols(d).tau, abs=1e-10)


def test_all_single_arm_clusters_raise():
    y = np.arange(6.0)
    w = np.array([1, 1, 1, 0, 0, 0])
    d = Dataset(y, w, np.zeros((6, 1)), ["a", "a", "a", "b", "b", "b"])
    with pytest.raises(DegenerateDesignError):
        fe_ols(d)
    with pytest.raises(DegenerateDesignError):
        weighted_fe(d, np.full(6, 0.5))


# --------------------------------------------------------------------------
# nuisances
# --------------------------------------------------------------------------


def test_training_fold_with_single_arm_raises():
    # cluster "a" is all-treated; when "b" is the test fold the training
    # split has one arm only.
    y = np.arange(8.0)
    w = np.array([1, 1, 1, 1, 0, 1, 0, 1])
    x = np.linspace(-1, 1, 8).reshape(-1, 1)
    d = Dataset(y, w, x, ["a"] * 4 + ["b"] * 4)
    s_bar = build_suffstats(d, mundlak_spec(1))
    folds = cross_fit_folds(2, 2, seed=0)
    with pytest.raises(DegenerateDesignError):
        fit_nuisances(d, s_bar, folds)


def test_cross_fit_predictions_ignore_own_fold_outcomes():
    d = unbalanced_dataset(seed=5)
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    folds = cross_fit_folds(d.c, 3, seed=7)
    nu = fit_nuisances(d, s_bar, folds)
    fold0 = nu.fold_of_unit == 0
    y2 = d.y.copy()
    y2[fold0] += 100.0  # poison the held-out outcomes
    d2 = Dataset(y2, d.w, d.x,
                 [d.cluster_labels[i] for i in d.cluster_index])
    nu2 = fit_nuisances(d2, build_suffstats(d2, mundlak_spec(d.k)), folds)
    assert np.max(np.abs(nu.mu1[fold0] - nu2.mu1[fold0])) < 1e-8
    assert np.max(np.abs(nu.mu0[fold0] - nu2.mu0[fold0])) < 1e-8
    assert np.max(np.abs(nu.e[fold0] - nu2.e[fold0])) < 1e-8


def test_nuisance_shapes_and_notes():
    d = unbalanced_dataset(seed=6)
    nu, a = pipeline(d)
    assert nu.mu0.shape == (d.n,)
    assert nu.mu1.shape == (d.n,)
    assert np.all((nu.e > 0) & (nu.e < 1))
    assert "propensity" in nu.spec_notes and "outcome" in nu.spec_notes
    # unbalanced sizes trigger the size indicator columns
    assert "size indicators" in nu.spec_notes


def test_fold_mismatch_rejected():
    d = unbalanced_dataset(seed=6)
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    folds = cross_fit_folds(d.c + 1, 3, seed=0)
    with pytest.raises(InputError):
        fit_nuisances(d, s_bar, folds)


def test_summary_matrix_must_have_one_row_per_unit():
    d = unbalanced_dataset(seed=6)
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    folds = cross_fit_folds(d.c, 3, seed=0)
    for bad in (s_bar[:-1], s_bar[:, 0]):
        with pytest.raises(InputError, match="summaries have shape"):
            fit_nuisances(d, bad, folds)


# --------------------------------------------------------------------------
# doubly robust estimate
# --------------------------------------------------------------------------


def test_dr_matches_straight_line_transcription():
    for seed in range(4):
        d = unbalanced_dataset(seed=seed)
        nu, a = pipeline(d, seed=seed)
        out = dr_estimate(d, nu, a, eta=0.05)
        cluster_ids = [d.cluster_labels[i] for i in d.cluster_index]
        tau_want, v_want = oracles.straight_line_dr(
            d.y, d.w.astype(int), nu.mu1, nu.mu0, nu.e,
            a.astype(int), cluster_ids,
        )
        assert out.tau_hat == pytest.approx(tau_want, abs=1e-12)
        assert out.v_hat == pytest.approx(v_want, abs=1e-12)
        assert out.se == pytest.approx(np.sqrt(v_want / d.c), abs=1e-12)
        assert out.ci[0] == pytest.approx(out.tau_hat - 1.96 * out.se)
        assert out.ci[1] == pytest.approx(out.tau_hat + 1.96 * out.se)


def test_dr_result_serialization():
    d = unbalanced_dataset(seed=2)
    nu, a = pipeline(d)
    out = dr_estimate(d, nu, a, eta=0.05)
    blob = out.to_dict()
    assert set(blob) == {"tau_hat", "se", "ci", "v_hat", "a_bar", "n", "c",
                         "L", "eta", "xi"}
    assert blob["n"] == d.n and blob["c"] == d.c and blob["L"] == 3
    assert len(blob["xi"]) == d.c
    assert blob["ci"][0] < blob["tau_hat"] < blob["ci"][1]


def test_empty_overlap_raises():
    d = unbalanced_dataset(seed=3)
    nu, _ = pipeline(d)
    with pytest.raises(EmptyOverlapError):
        dr_estimate(d, nu, np.zeros(d.n, dtype=int))


def test_mask_must_be_zero_one_per_unit():
    d = unbalanced_dataset(seed=3)
    nu, a = pipeline(d)
    with pytest.raises(InputError, match="shape"):
        dr_estimate(d, nu, a[:-1])
    bad = a.astype(float)
    bad[0] = 0.5
    with pytest.raises(InputError, match="0 or 1"):
        dr_estimate(d, nu, bad)
    # any 0/1 dtype is accepted
    want = dr_estimate(d, nu, a).tau_hat
    assert dr_estimate(d, nu, a.astype(bool)).tau_hat == want


def test_outcome_shift_leaves_tau_unchanged():
    d = unbalanced_dataset(seed=7)
    nu, a = pipeline(d, seed=11)
    base = dr_estimate(d, nu, a).tau_hat
    labels = [d.cluster_labels[i] for i in d.cluster_index]
    d2 = Dataset(d.y + 57.0, d.w, d.x, labels)
    nu2, a2 = pipeline(d2, seed=11)
    shifted = dr_estimate(d2, nu2, a2).tau_hat
    assert shifted == pytest.approx(base, abs=1e-7)


def test_outcome_scale_scales_tau():
    d = unbalanced_dataset(seed=8)
    nu, a = pipeline(d, seed=11)
    base = dr_estimate(d, nu, a).tau_hat
    labels = [d.cluster_labels[i] for i in d.cluster_index]
    d2 = Dataset(3.0 * d.y, d.w, d.x, labels)
    nu2, a2 = pipeline(d2, seed=11)
    scaled = dr_estimate(d2, nu2, a2).tau_hat
    assert scaled == pytest.approx(3.0 * base, rel=1e-7)


def test_covariate_affine_change_leaves_tau_unchanged():
    # Interior propensities keep every unit away from the trimming
    # threshold, where the estimate is a continuous function of the
    # fits and affine invariance of the refit pipeline is meaningful.
    res = generate(dgp_preset("mundlak-linear", c=40, n_c=6, a1=0.6), 17)
    d = res.dataset
    nu, a = pipeline(d, seed=13)
    assert np.min(np.abs(nu.e - 0.05)) > 0.002
    assert np.min(np.abs(nu.e - 0.95)) > 0.002
    base = dr_estimate(d, nu, a).tau_hat
    labels = [d.cluster_labels[i] for i in d.cluster_index]
    x2 = d.x * np.array([2.0, 0.5, 1.5]) + np.array([-1.0, 4.0, 0.25])
    d2 = Dataset(d.y, d.w, x2, labels)
    nu2, a2 = pipeline(d2, seed=13)
    moved = dr_estimate(d2, nu2, a2).tau_hat
    assert moved == pytest.approx(base, abs=1e-6)


# --------------------------------------------------------------------------
# quantiles
# --------------------------------------------------------------------------


def test_qte_matches_exhaustive_scan():
    res = generate(dgp_preset("randomized", c=80, n_c=6), 21)
    d = res.dataset
    nu, a = pipeline(d, seed=5)
    for arm in (0, 1):
        for q in (0.1, 0.5, 0.9):
            got = qte_estimate(d, nu, a, q, arm)
            keep = (a == 1) & (d.w == arm)
            omega = (1.0 / nu.e[keep] if arm == 1
                     else 1.0 / (1.0 - nu.e[keep]))
            want = oracles.scan_weighted_quantile(d.y[keep], omega, q)
            assert got == want


def test_qte_is_an_observed_outcome_and_shifts():
    res = generate(dgp_preset("randomized", c=60, n_c=5), 8)
    d = res.dataset
    nu, a = pipeline(d, seed=3)
    q_hat = qte_estimate(d, nu, a, 0.5, arm=1)
    assert q_hat in set(d.y[(d.w == 1) & (a == 1)].tolist())
    labels = [d.cluster_labels[i] for i in d.cluster_index]
    d2 = Dataset(d.y + 2.5, d.w, d.x, labels)
    q_shift = qte_estimate(d2, nu, a, 0.5, arm=1)
    assert q_shift == pytest.approx(q_hat + 2.5, abs=1e-12)


def test_qte_input_errors():
    res = generate(dgp_preset("randomized", c=20, n_c=4), 2)
    d = res.dataset
    nu, a = pipeline(d, seed=2, L=2)
    with pytest.raises(InputError):
        qte_estimate(d, nu, a, 1.5, arm=1)
    with pytest.raises(InputError):
        qte_estimate(d, nu, a, 0.5, arm=2)
    with pytest.raises(EstimationError):
        qte_estimate(d, nu, np.zeros(d.n, dtype=int), 0.5, arm=1)


# --------------------------------------------------------------------------
# panel two-way check
# --------------------------------------------------------------------------


def random_panel(seed=0, n_units=8, n_periods=4, k=2):
    rng = np.random.default_rng(seed)
    unit = np.repeat(np.arange(n_units), n_periods)
    time = np.tile(np.arange(n_periods), n_units)
    alpha = rng.standard_normal(n_units)
    gamma = rng.standard_normal(n_periods)
    x = rng.standard_normal((unit.size, k))
    w = (rng.random(unit.size)
         < 1.0 / (1.0 + np.exp(-alpha[unit]))).astype(float)
    y = (2.0 * w + x @ rng.standard_normal(k) + alpha[unit] + gamma[time]
         + 0.5 * rng.standard_normal(unit.size))
    return y, w, x, unit, time


def test_twoway_check_matches_dummy_oracle():
    y, w, x, unit, time = random_panel(seed=10)
    p = make_panel(y, w, x, unit, time)
    chk = twoway_mundlak_check(p)
    want = oracles.dummy_ols_twoway(y, w, x, unit.tolist(), time.tolist())
    assert chk.tau_fe == pytest.approx(want, abs=1e-9)
    assert chk.max_abs_diff <= 1e-8 * (1.0 + abs(chk.tau_fe))


def test_unbalanced_panel_rejected():
    y, w, x, unit, time = random_panel(seed=11)
    with pytest.raises(UnbalancedPanelError):
        make_panel(y[:-1], w[:-1], x[:-1], unit[:-1], time[:-1])
    # same count but a duplicated cell
    unit2 = unit.copy()
    unit2[0] = unit2[4]
    time2 = time.copy()
    time2[0] = time2[4]
    with pytest.raises(UnbalancedPanelError):
        make_panel(y, w, x, unit2, time2)


def test_panel_label_lengths_must_match_rows():
    y, w, x, unit, time = random_panel(seed=11)
    with pytest.raises(InputError, match="mismatched"):
        make_panel(y, w, x, unit[:-1], time)
    with pytest.raises(InputError, match="mismatched"):
        make_panel(y, w, x, unit, list(time) + [0])


def test_panel_labels_may_be_strings():
    y, w, x, unit, time = random_panel(seed=12)
    p1 = twoway_mundlak_check(make_panel(y, w, x, unit, time))
    p2 = twoway_mundlak_check(make_panel(
        y, w, x,
        [f"firm-{u}" for u in unit],
        [f"q{t}" for t in time],
    ))
    assert p1.tau_fe == pytest.approx(p2.tau_fe, abs=1e-12)


# --------------------------------------------------------------------------
# cluster-aggregated sandwich for baselines
# --------------------------------------------------------------------------


def test_cluster_robust_se_basics():
    d = unbalanced_dataset(seed=13)
    w_t = d.w.astype(float) - d.cluster_means(d.w.astype(float))[d.cluster_index]
    y_t = d.y - d.cluster_means(d.y)[d.cluster_index]
    design = w_t.reshape(-1, 1)
    resid = y_t - design[:, 0] * fe_ols(d).tau
    se = cluster_robust_se(design, resid, d.cluster_index, d.c)
    assert se.shape == (1,)
    assert np.isfinite(se[0]) and se[0] > 0
    # zero residuals give zero uncertainty
    se0 = cluster_robust_se(design, np.zeros(d.n), d.cluster_index, d.c)
    assert se0[0] == 0.0
