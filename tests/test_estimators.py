"""Point estimators, nuisance cross-fitting, variance, panel check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdr import (
    Dataset,
    DegenerateDesignError,
    EmptyOverlapError,
    EstimationError,
    FoldAssignment,
    InputError,
    NuisanceConfig,
    UnbalancedPanelError,
    build_suffstats,
    cross_fit_folds,
    dgp_preset,
    dr_estimate,
    fe_ols,
    fit_nuisances,
    generate,
    logistic_fit,
    make_panel,
    mundlak_ols,
    mundlak_spec,
    overlap_set,
    predict_proba,
    psi,
    qte_estimate,
    twoway_mundlak_check,
    weighted_fe,
    wls_fit,
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


def clustered_data(seed, sizes, k):
    """Clusters of the given sizes with a latent level driving the
    covariates, a treatment rate in (0.3, 0.7), and the outcome."""
    rng = np.random.default_rng(seed)
    c = len(sizes)
    idx = np.repeat(np.arange(c), sizes)
    u = rng.standard_normal(c)
    x = rng.standard_normal((idx.size, k)) + u[idx, None]
    rate = 0.3 + 0.4 / (1.0 + np.exp(-u))
    w = (rng.random(idx.size) < rate[idx]).astype(int)
    y = (1.0 + 0.8 * w + x @ np.linspace(1.0, -0.5, k) + u[idx]
         + 0.3 * rng.standard_normal(idx.size))
    return Dataset(y, w, x, [f"g{j}" for j in idx])


def assert_matches_perfold_oracle(d, s_bar, folds, atol=1e-10, cfg=None):
    nu = fit_nuisances(d, s_bar, folds, cfg)
    mu0, mu1, e, _ = oracles.perfold_fit_nuisances(d, s_bar, folds, cfg)
    np.testing.assert_allclose(nu.mu0, mu0, rtol=1e-10, atol=atol)
    np.testing.assert_allclose(nu.mu1, mu1, rtol=1e-10, atol=atol)
    np.testing.assert_allclose(nu.e, e, rtol=0.0, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       c=st.integers(min_value=40, max_value=80),
       n_c=st.integers(min_value=5, max_value=10),
       varied=st.booleans(),
       k=st.integers(min_value=1, max_value=3),
       L=st.integers(min_value=3, max_value=5))
def test_fit_nuisances_matches_perfold_oracle(seed, c, n_c, varied, k, L):
    # Varied sizes add the size indicator columns to both models. The
    # two propensity fits stop at different points with |score| < 1e-8,
    # so e agrees to 1e-8 only when the propensity model is well
    # determined: these sizes leave at least 26 training clusters for
    # its at most 2k + 4 columns (16 clusters and L = 2 gave 2.8e-8).
    sizes = n_c + (np.arange(c) % 3 if varied else np.zeros(c, dtype=int))
    d = clustered_data(seed, sizes, k)
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    assert_matches_perfold_oracle(d, s_bar, cross_fit_folds(d.c, L, seed))


@pytest.mark.parametrize("summaries, interactions, sizes, ridge", [
    (False, False, True, 0.0),
    (False, True, True, 0.0),
    (True, False, False, 0.0),
    (True, True, False, 0.5),
])
def test_model_forms_match_perfold_oracle(summaries, interactions, sizes,
                                          ridge):
    cfg = NuisanceConfig(outcome_use_summaries=summaries,
                         outcome_interactions=interactions,
                         propensity_use_summaries=summaries,
                         size_indicators=sizes, ridge=ridge)
    d = clustered_data(8, 5 + np.arange(40) % 4, 2)
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    assert_matches_perfold_oracle(d, s_bar, cross_fit_folds(d.c, 4, 8),
                                  cfg=cfg)


def record_calls(monkeypatch, name):
    """Wrap ``clusterdr.estimators.<name>``; the returned list receives
    (args, kwargs, result) for each call."""
    import clusterdr.estimators as est

    calls = []
    original = getattr(est, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(est, name, wrapper)
    return calls


@pytest.mark.parametrize("scale, cold, dropped, atol", [
    (None, False, (), 1e-10),
    (1e-4, False, (), 1e-10),
    (1e-8, True, (), 1e-7),
    (1e-13, False, (5, 9), 1e-10),
])
def test_stacked_triangles_and_warm_start_guard(monkeypatch, scale, cold,
                                                dropped, atol):
    # With scale set, a third summary column is 2 * x0_bar plus a
    # cluster-level perturbation of that size. Its pivot in the R factor
    # of the training rows is then about scale / 5 of the largest column
    # norm. The QR rank rule drops the column and its treatment
    # interaction (columns 5 and 9) from the outcome model, and the
    # column itself (column 4) from the propensity model, only below its
    # 1e-9 threshold; logistic_fit ignores the warm start it is handed
    # when a kept column's pivot is below its 1e-6 guard. A kept
    # near-duplicate has coefficients of order 1 / scale, so two
    # evaluations of the same fit differ by about 1e-16 / scale.
    d = clustered_data(3, np.full(30, 6), 1)
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    if scale is not None:
        jitter = np.random.default_rng(4).standard_normal(d.c)
        s_bar = np.column_stack(
            [s_bar, 2.0 * s_bar[:, 1] + scale * jitter[d.cluster_index]])
    L = 3
    folds = cross_fit_folds(d.c, L, seed=2)
    calls = record_calls(monkeypatch, "wls_fit")
    pcalls = record_calls(monkeypatch, "logistic_fit")
    assert_matches_perfold_oracle(d, s_bar, folds, atol)
    _, _, _, want = oracles.perfold_fit_nuisances(d, s_bar, folds)
    assert want == [dropped] * L
    assert [res.columns_dropped for _, _, res in calls] == want
    # one fit per fold, on the other folds' (p + 1)-column triangles
    p = s_bar.shape[1] * 2 + 4
    shapes = [args[0].shape for args, _, _ in calls]
    assert len(shapes) == L
    assert all(rows <= (L - 1) * (p + 1) and cols == p
               for rows, cols in shapes)
    assert [res.columns_dropped for _, _, res in pcalls] == (
        [(4,) if dropped else ()] * L)
    # every fold after the first is handed the previous fold's fit; a
    # fit that ignored it is the cold fit to the bit
    starts = [kwargs["start"] for _, kwargs, _ in pcalls]
    assert [start is None for start in starts] == [True] + [False] * (L - 1)
    same_as_cold = [
        np.array_equal(res.coefficients,
                       logistic_fit(*args, ridge=0.0).coefficients)
        for args, _, res in pcalls[1:]
    ]
    assert same_as_cold == [cold] * (L - 1)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       p=st.integers(min_value=1, max_value=8),
       fold_rows=st.lists(st.integers(min_value=1, max_value=12),
                          min_size=2, max_size=5),
       duplicate=st.booleans(),
       zero=st.booleans())
def test_stacked_triangles_fit_like_training_rows(seed, p, fold_rows,
                                                  duplicate, zero):
    # The R factor of stacked per-fold R factors is the R factor of the
    # training rows, so wls_fit on the stack keeps the same columns and
    # predicts the held-out fold alike. Folds may have fewer rows than
    # columns, and so may the training rows. Both fits are backward
    # stable, so predictions differ by about the condition number of
    # the kept columns times 1e-16 of their size (at most 1.1e-15 on
    # 30,000 draws).
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((sum(fold_rows), p + 1))
    if duplicate and p >= 2:
        j = int(rng.integers(1, p))
        m[:, j] = m[:, int(rng.integers(0, j))]
    if zero:
        m[:, int(rng.integers(0, p))] = 0.0
    fold_of_row = np.repeat(np.arange(len(fold_rows)), fold_rows)
    tri = [np.linalg.qr(m[fold_of_row == f], mode="r")
           for f in range(len(fold_rows))]
    for fold in range(len(fold_rows)):
        train = fold_of_row != fold
        stack = np.vstack(tri[:fold] + tri[fold + 1:])
        got = wls_fit(stack[:, :p], stack[:, p])
        want = wls_fit(m[train, :p], m[train, p])
        assert got.columns_dropped == want.columns_dropped
        held_out = m[~train, :p]
        kept = [j for j in range(p) if j not in want.columns_dropped]
        cond = np.linalg.cond(m[train][:, kept]) if kept else 1.0
        size = (np.abs(held_out).sum(axis=1).max()
                * np.abs(want.coefficients).max())
        np.testing.assert_allclose(held_out @ got.coefficients,
                                   held_out @ want.coefficients,
                                   rtol=0.0, atol=1e-13 * cond * (1 + size))


def test_fold_after_separated_fit_starts_cold(monkeypatch):
    # x has the sign of 2w - 1 everywhere but in cluster 0, where it is
    # reversed; the training split without cluster 0 (fold 0) is
    # separated, every other one is not.
    rng = np.random.default_rng(11)
    c, n_c = 9, 8
    idx = np.repeat(np.arange(c), n_c)
    # 2 to 6 treated units per cluster, so w_bar varies
    w = (np.tile(np.arange(n_c), c) < 2 + idx % 5).astype(int)
    sign = np.where(idx == 0, -1.0, 1.0)
    x = sign * (2 * w - 1) * (0.5 + rng.random(idx.size))
    y = x + w + rng.standard_normal(idx.size)
    d = Dataset(y, w, x, [f"g{j}" for j in idx])
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    folds = FoldAssignment(fold_of_cluster=np.arange(c) % 3, L=3, seed=0)
    calls = record_calls(monkeypatch, "logistic_fit")
    assert_matches_perfold_oracle(d, s_bar, folds)
    separated = [res.separation_detected for _, _, res in calls]
    assert separated == [True, False, False]
    starts = [kwargs["start"] for _, kwargs, _ in calls]
    # fold 1's training design has full rank, so only the separation
    # of fold 0 makes it start cold
    train = folds.fold_of_cluster[d.cluster_index] != 1
    design = np.column_stack([np.ones(d.n), d.x, s_bar])[train]
    assert np.linalg.matrix_rank(design) == design.shape[1]
    assert starts[0] is None and starts[1] is None
    assert np.array_equal(starts[2], calls[1][2].coefficients)


def test_rank_deficient_training_design_drops_column(monkeypatch):
    # Cluster 3 is the only one of size 9 and sits in fold 3, so fold 3's
    # training rows never see its size indicator. Fold 2's fit does, and
    # its coefficients are fold 3's warm start; the rank rule drops the
    # indicator, so none of that coefficient reaches fold 3's
    # predictions, which match the oracle's cold fit.
    sizes = np.full(20, 6)
    sizes[3] = 9
    d = clustered_data(21, sizes, 1)
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    folds = FoldAssignment(fold_of_cluster=np.arange(20) % 4, L=4, seed=0)
    calls = record_calls(monkeypatch, "logistic_fit")
    assert_matches_perfold_oracle(d, s_bar, folds)
    starts = [kwargs["start"] for _, kwargs, _ in calls]
    assert starts[0] is None
    assert np.array_equal(starts[3], calls[2][2].coefficients)
    assert starts[3][-1] != 0.0
    fit = calls[3][2]
    assert fit.columns_dropped == (fit.coefficients.size - 1,)
    assert fit.coefficients[-1] == 0.0
    assert [res.columns_dropped for _, _, res in calls[:3]] == [()] * 3


def propensity_rows(d, s_bar):
    """The default propensity design, written out: intercept, covariates,
    summaries, and indicators for all but the smallest cluster size."""
    unit_size = d.n_c[d.cluster_index]
    sizes = np.unique(d.n_c)[1:]
    return np.column_stack([np.ones(d.n), d.x, s_bar]
                           + [(unit_size == s).astype(float) for s in sizes])


def assert_start_free_propensities(d, s_bar, folds):
    """Cross-fit, then check each fold's propensity fit against a cold
    fit and against a cold fit on the design without its dropped
    columns; return each fold's (start handed in, fit)."""
    with pytest.MonkeyPatch.context() as mp:
        calls = record_calls(mp, "logistic_fit")
        nu = fit_nuisances(d, s_bar, folds)
    design = propensity_rows(d, s_bar)
    w = d.w.astype(float)
    fold_of_unit = folds.fold_of_cluster[d.cluster_index]
    out = []
    for fold, (_, kwargs, fit) in enumerate(calls):
        test = fold_of_unit == fold
        train = ~test
        cold = logistic_fit(design[train], w[train])
        cold_e = predict_proba(cold, design[test])
        # held-out e does not depend on the start
        np.testing.assert_allclose(nu.e[test], cold_e, rtol=0.0, atol=1e-8)
        # ... and is that of the design without the dropped columns
        kept = [j for j in range(design.shape[1])
                if j not in fit.columns_dropped]
        sub = logistic_fit(design[train][:, kept], w[train])
        assert sub.columns_dropped == ()
        np.testing.assert_allclose(predict_proba(sub, design[test][:, kept]),
                                   cold_e, rtol=0.0, atol=1e-12)
        # one rank rule for both nuisance models
        assert fit.columns_dropped == cold.columns_dropped == wls_fit(
            design[train], w[train]).columns_dropped
        out.append((kwargs["start"], fit))
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       c=st.integers(min_value=40, max_value=80),
       k=st.integers(min_value=1, max_value=2),
       L=st.integers(min_value=3, max_value=5),
       kind=st.sampled_from(["absent-size", "smallest-size-absent",
                             "duplicate-summary"]))
def test_rank_deficient_propensity_fit_ignores_start(seed, c, k, L, kind):
    # Three ways for a training propensity design to lose rank:
    # - absent-size: the three clusters of size 9 are held out in the
    #   last fold, so that fold's training rows have an all-zero
    #   indicator;
    # - smallest-size-absent: every cluster of the smallest size 4 is
    #   held out in the last fold, so the other indicators sum to the
    #   intercept there and the last one is dropped;
    # - duplicate-summary: a summary column appears twice, so its copy
    #   is dropped in every fold.
    # As in test_fit_nuisances_matches_perfold_oracle, at least 26
    # training clusters keep the fit well determined.
    fold_of_cluster = np.random.default_rng(seed).permutation(
        np.arange(c) % L)
    last = np.flatnonzero(fold_of_cluster == L - 1)
    sizes = 5 + np.arange(c) % 3
    if kind == "absent-size":
        sizes[last[:3]] = 9
    elif kind == "smallest-size-absent":
        sizes[last[: len(last) // 2]] = 4
    d = clustered_data(seed, sizes, k)
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    if kind == "duplicate-summary":
        s_bar = np.column_stack([s_bar, s_bar[:, 1]])
    folds = FoldAssignment(fold_of_cluster=fold_of_cluster, L=L, seed=seed)
    fits = assert_start_free_propensities(d, s_bar, folds)
    if kind == "duplicate-summary":
        want = [(d.k + s_bar.shape[1],)] * L
    else:
        want = [()] * (L - 1) + [(fits[0][1].coefficients.size - 1,)]
    assert [fit.columns_dropped for _, fit in fits] == want
    start, _ = fits[-1]
    if kind != "duplicate-summary" and start is not None:
        # the warm start does carry a coefficient for the dropped column
        assert start[want[-1][0]] != 0.0


def test_absent_size_indicator_seed_2_regression():
    # The draw that showed the propensity fit had no rank rule: with
    # c = 12 clusters of sizes 4-6 and L = 2, fold 0's training rows
    # have no cluster of size 6 and fold 1's none of size 5. Fold 0's
    # fit gives the size-5 indicator -0.71; as fold 1's warm start,
    # before the rank rule, that moved held-out e by 0.18.
    d = clustered_data(2, 4 + np.arange(12) % 3, 1)
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    fits = assert_start_free_propensities(d, s_bar,
                                          cross_fit_folds(d.c, 2, seed=2))
    assert [fit.columns_dropped for _, fit in fits] == [(5,), (4,)]
    start, fit = fits[1]
    assert start[4] == pytest.approx(-0.7108, abs=1e-4)
    assert fit.coefficients[4] == 0.0


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
