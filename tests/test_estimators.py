"""Point estimators, nuisance cross-fitting, variance, panel check."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdr import (
    Dataset,
    DegenerateDesignError,
    EmptyOverlapError,
    EstimationError,
    InputError,
    NuisanceConfig,
    NuisanceEstimates,
    StatSpec,
    Term,
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
    qte_estimate,
    twoway_mundlak_check,
    weighted_fe,
    wls_fit,
)

import clusterdr.estimators as est_module
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


def boundary_propensities(bound):
    """Four units in two clusters; unit 2's propensity is ``bound``."""
    d = Dataset(np.array([1.0, 2.0, 0.5, 1.5]), np.array([1, 0, 1, 0]),
                np.zeros((4, 1)), ["a", "a", "b", "b"])
    return d, NuisanceEstimates(mu0=np.zeros(4), mu1=np.ones(4),
                                e=np.array([0.5, 0.4, bound, 0.6]),
                                fold_of_cluster=np.array([0, 1]))


def test_psi_rejects_boundary_propensities():
    # Without trimming every unit's score is formed, so one propensity
    # of exactly 0 or 1 makes the score undefined and is refused.
    for bound in (0.0, 1.0):
        with pytest.raises(InputError, match="strictly in"):
            dr_estimate(*boundary_propensities(bound), eta=None)


def test_trimmed_boundary_propensity_is_not_refused():
    # Trimming at 0.05 drops unit 2, whose score is then never formed:
    # the estimate is that of the three retained units.
    for bound in (0.0, 1.0):
        d, nu = boundary_propensities(bound)
        res = dr_estimate(d, nu, eta=0.05)
        assert res.a.tolist() == [1, 1, 0, 1]
        tau, v = oracles.straight_line_dr(d.y, d.w, nu.mu1, nu.mu0, nu.e,
                                          res.a, ["a", "a", "b", "b"])
        assert res.tau_hat == pytest.approx(tau, rel=1e-14)
        assert res.v_hat == pytest.approx(v, rel=1e-14)


# --------------------------------------------------------------------------
# regression baselines and identities
# --------------------------------------------------------------------------


def test_fe_matches_dummy_regression():
    d = unbalanced_dataset(seed=1)
    got = fe_ols(d)
    cluster_ids = [d.cluster_labels[i] for i in d.cluster_index]
    want = oracles.dummy_ols_fe(d.y, d.w.astype(float), d.x, cluster_ids)
    assert got == pytest.approx(want, abs=1e-10)


def test_mundlak_equals_fe_on_unbalanced_data():
    for seed in range(5):
        d = unbalanced_dataset(seed=seed)
        tau_fe = fe_ols(d)
        tau_mu = mundlak_ols(d)
        assert abs(tau_mu - tau_fe) <= 1e-8 * (1.0 + abs(tau_fe))


def test_weighted_fe_matches_dummy_wls():
    d = unbalanced_dataset(seed=2)
    rng = np.random.default_rng(3)
    e = rng.uniform(0.2, 0.8, size=d.n)
    got = weighted_fe(d, e)
    w = d.w.astype(float)
    omega = np.where(w == 1.0, 1.0 / e, 1.0 / (1.0 - e))
    cluster_ids = [d.cluster_labels[i] for i in d.cluster_index]
    want = oracles.dummy_wls_fe(d.y, w, d.x, cluster_ids, omega)
    assert got == pytest.approx(want, abs=1e-10)


def test_weighted_fe_with_flat_propensity_equals_fe():
    d = unbalanced_dataset(seed=4)
    flat = np.full(d.n, 0.5)
    assert weighted_fe(d, flat) == pytest.approx(fe_ols(d), abs=1e-10)


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
    fold0 = nu.fold_of_cluster[d.cluster_index] == 0
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
    # the library takes the (c, t) summaries, the oracle their unit rows
    nu = fit_nuisances(d, s_bar, folds, cfg)
    mu0, mu1, e, _ = oracles.perfold_fit_nuisances(d, s_bar[d.cluster_index],
                                                   folds, cfg)
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
    (args, kwargs, result) for each call. Array arguments are stored as
    copies: ``fit_nuisances`` hands every fold a view of one buffer that
    the next fold overwrites."""
    import clusterdr.estimators as est

    calls = []
    original = getattr(est, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((tuple(a.copy() if isinstance(a, np.ndarray) else a
                            for a in args), kwargs, result))
        return result

    monkeypatch.setattr(est, name, wrapper)
    return calls


@pytest.mark.parametrize("scale, cold, dropped, atol", [
    (None, False, (), 1e-10),
    (1e-4, False, (), 1e-10),
    (1e-8, False, (), 1e-7),
    (1e-13, False, (4, 9), 1e-10),
])
def test_stacked_triangles_and_warm_starts(monkeypatch, scale, cold,
                                           dropped, atol):
    # With scale set, a third summary column is 2 * x0_bar plus a
    # cluster-level perturbation of that size. Its pivot in the R factor
    # of the training rows is then about scale / 5 of the largest column
    # norm. The QR rank rule drops the column and its treatment
    # interaction from the outcome model (columns 9 and 4 of
    # [w | x w | s_bar w | 1 | x | s_bar]; 5 and 9 of the oracle's
    # [1 | w | x | s_bar | x w | s_bar w]), and the column itself
    # (column 4) from the propensity model, only below its
    # 1e-9 threshold; logistic_fit starts from the warm start it is
    # handed whatever the kept columns' pivots, so no fold after the
    # first is the cold fit to the bit. A kept near-duplicate has
    # coefficients of order 1 / scale, so two evaluations of the same
    # fit differ by about 1e-16 / scale.
    d = clustered_data(3, np.full(30, 6), 1)
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    if scale is not None:
        jitter = np.random.default_rng(4).standard_normal(d.c)
        s_bar = np.column_stack([s_bar, 2.0 * s_bar[:, 1] + scale * jitter])
    L = 3
    folds = cross_fit_folds(d.c, L, seed=2)
    calls = record_calls(monkeypatch, "wls_fit")
    pcalls = record_calls(monkeypatch, "logistic_fit")
    assert_matches_perfold_oracle(d, s_bar, folds, atol)
    _, _, _, want = oracles.perfold_fit_nuisances(d, s_bar[d.cluster_index],
                                                  folds)
    assert want == [(5, 9) if dropped else ()] * L
    assert [res.columns_dropped for _, _, res in calls] == [dropped] * L
    # one fit per fold, on the other folds' (p + 1)-column triangles
    p = s_bar.shape[1] * 2 + 4
    shapes = [args[0].shape for args, _, _ in calls]
    assert len(shapes) == L
    assert all(rows <= (L - 1) * (p + 1) and cols == p
               for rows, cols in shapes)
    assert [res.columns_dropped for _, _, res in pcalls] == (
        [(4,) if dropped else ()] * L)
    # every fold after the first is handed the previous fold's fit
    starts = [kwargs["start"] for _, kwargs, _ in pcalls]
    assert [start is None for start in starts] == [True] + [False] * (L - 1)
    same_as_cold = [
        np.array_equal(res.coefficients,
                       logistic_fit(*args, ridge=0.0).coefficients)
        for args, _, res in pcalls[1:]
    ]
    assert same_as_cold == [cold] * (L - 1)


def test_treatment_columns_outrank_duplicate_summaries(monkeypatch):
    # In single-unit clusters the cluster mean s of x w is x w itself,
    # so x w, s w and s are one column on the training rows. The rank
    # rule drops the later copies, s w and s, and keeps x w, the
    # treatment column that gives mu1 - mu0 its slope in x.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(400)
    w = (rng.random(400) < 0.5).astype(int)
    y = 1.0 + x + w * (0.5 + 2.0 * x) + 0.1 * rng.standard_normal(400)
    d = Dataset(y, w, x, [f"g{j}" for j in range(400)])
    spec = StatSpec([Term("covariate-treatment-interaction", j=0)])
    calls = record_calls(monkeypatch, "wls_fit")
    nu = fit_nuisances(d, build_suffstats(d, spec),
                       cross_fit_folds(d.c, 2, seed=0))
    np.testing.assert_allclose(nu.mu1 - nu.mu0, 0.5 + 2.0 * x, atol=0.1)
    # the columns of [w | x w | s w | 1 | x | s]
    assert [res.columns_dropped for _, _, res in calls] == [(2, 5)] * 2


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


def traced_peak_per_unit(d, f, *args):
    """Bytes per unit of ``d`` that ``f(*args)`` holds at its peak over
    what was held before the call, under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f(*args)
        return (tracemalloc.get_traced_memory()[1] - before) / d.n
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def nonlinear_200k():
    """200,000 units (c = 20,000, k = 2), the (c, 3) summaries, and
    five folds."""
    d = generate(dgp_preset("nonlinear-u", c=20_000, n_c=10), 0).dataset
    return d, build_suffstats(d, mundlak_spec(d.k)), cross_fit_folds(d.c, 5,
                                                                      seed=0)


def test_fit_nuisances_working_set_per_unit(nonlinear_200k):
    # Besides its inputs, cross-fitting holds its outputs, one propensity
    # design and one label vector sized for the largest training split,
    # and one held-out block at a time: about 78 bytes per unit here.
    # With an n-row fold label per unit besides, it took 85; with a new
    # training design, its row indices and labels and the held-out
    # design made for every fold, 107; with the outcome system, the
    # propensity design, per-fold row copies and n-row Newton
    # temporaries all at once, 338.
    d, s_bar, folds = nonlinear_200k
    per_unit = traced_peak_per_unit(d, fit_nuisances, d, s_bar, folds)
    assert per_unit <= 80, per_unit


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["fe_ols", "weighted_fe"])
def test_within_fit_working_set_per_unit(nonlinear_200k, weighted):
    # The residuals of [w | x | y] are made and factored one block at a
    # time: about 20 (fe_ols) and 28 (weighted_fe) bytes per unit here,
    # mostly a column times its weights for the cluster means and the
    # weights themselves. The n-row residual matrix took 52 and 60.
    d = nonlinear_200k[0]
    if weighted:
        e = np.random.default_rng(0).uniform(0.05, 0.95, d.n)
        per_unit = traced_peak_per_unit(d, weighted_fe, d, e)
    else:
        per_unit = traced_peak_per_unit(d, fe_ols, d)
    assert per_unit <= 40, per_unit


def test_dr_estimate_working_set_per_unit(nonlinear_200k):
    # The retention mask, the correction term and the score, made a
    # block of rows at a time: about 19 bytes per unit here. The score's
    # n-row temporaries took 33.
    d, s_bar, folds = nonlinear_200k
    nu = fit_nuisances(d, s_bar, folds)
    per_unit = traced_peak_per_unit(d, dr_estimate, d, nu)
    assert per_unit <= 24, per_unit


def unequal_folds(seed, n, L):
    """About ``n`` units in clusters of 3 to 8 units (so five size
    indicators), and fold labels drawn with unequal probabilities, so
    that the folds differ in size."""
    rng = np.random.default_rng(seed)
    sizes = 3 + rng.integers(0, 6, n * 2 // 11)
    d = clustered_data(seed, sizes, 2)
    share = np.arange(1, L + 1) / (L * (L + 1) / 2)
    folds = np.concatenate([np.arange(L),
                            rng.choice(L, size=d.c - L, p=share)])
    return d, folds


ORACLE_CONFIGS = [
    NuisanceConfig(),
    NuisanceConfig(propensity_use_summaries=False),
    NuisanceConfig(outcome_use_summaries=False),
]


def copying_oracle_report():
    """Run fit_nuisances and ``oracles.copying_fit_nuisances`` on
    training splits of one to four 8,192-row blocks; return, per case,
    the block counts of its training splits and the names of the
    outputs that are not equal to the oracle's."""
    report = []
    original = est_module.logistic_fit
    for case, (n, L) in enumerate([(n, L) for n in (8_000, 12_000, 30_000)
                                   for L in (2, 5)]):
        d, folds = unequal_folds(case, n, L)
        s_bar = build_suffstats(d, mundlak_spec(d.k))
        cfg = ORACLE_CONFIGS[case % len(ORACLE_CONFIGS)]
        fits = []

        def recorded(*args, **kwargs):
            fits.append(original(*args, **kwargs))
            return fits[-1]

        est_module.logistic_fit = recorded
        try:
            nu = fit_nuisances(d, s_bar, folds, cfg)
        finally:
            est_module.logistic_fit = original
        mu0, mu1, e, want = oracles.copying_fit_nuisances(
            d, s_bar[d.cluster_index], folds, cfg)
        differ = [name for name, got, ref in (("mu0", nu.mu0, mu0),
                                              ("mu1", nu.mu1, mu1),
                                              ("e", nu.e, e))
                  if not np.array_equal(got, ref)]
        differ += [f"fold {fold} fit" for fold, (got, ref)
                   in enumerate(zip(fits, want, strict=True))
                   if not (np.array_equal(got.coefficients, ref.coefficients)
                           and dataclasses.replace(got, coefficients=None)
                           == dataclasses.replace(ref, coefficients=None))]
        n_train = d.n - np.bincount(folds[d.cluster_index])
        blocks = np.ceil(n_train / 8192).astype(int)
        report.append({"n": d.n, "L": L, "differ": differ,
                       "blocks": sorted(set(blocks.tolist()))})
    return report


def test_fit_nuisances_matches_copying_oracle():
    # The oracle builds every fold's training design anew and predicts
    # the held-out rows of a fold all at once; fit_nuisances fills one
    # buffer and predicts them in 8,192-row blocks. logistic_fit sees
    # the same rows in the same order, so every fit is equal. The
    # matrix-vector products of the predictions give each row the same
    # bits whatever block it is in on one BLAS thread; with more, BLAS
    # splits a product's rows between threads, and a row at the end of
    # a thread's share may round differently, so the comparison runs in
    # a process with one thread.
    src = Path(est_module.__file__).resolve().parents[1]
    script = ("import json, sys; sys.path[:0] = sys.argv[1:3]; "
              "import test_estimators as t; "
              "print(json.dumps(t.copying_oracle_report()))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", script,
         str(Path(__file__).resolve().parent), str(src)],
        env=env, capture_output=True, text=True, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert [case["differ"] for case in report] == [[]] * len(report), report
    assert {b for case in report for b in case["blocks"]} >= {1, 2, 3}, report


@pytest.mark.parametrize("n", [8_000, 12_000, 30_000])
@pytest.mark.parametrize("weighted", [False, True],
                         ids=["fe_ols", "weighted_fe"])
def test_within_fit_matches_nrow_version(n, weighted):
    # One, two and four 8,192-row blocks, with varied cluster sizes: the
    # blocked residuals are factored in the blocks wls_fit makes from
    # the n-row residual matrix, so the coefficient is the same float.
    d, _ = unequal_folds(n, n, 2)
    if not weighted:
        assert fe_ols(d) == oracles.nrow_within_fit(d)
        return
    e = np.random.default_rng(n).uniform(0.05, 0.95, d.n)
    omega = np.where(d.w == 1, 1.0 / e, 1.0 / (1.0 - e))
    assert weighted_fe(d, e) == oracles.nrow_within_fit(d, omega)


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
    folds = np.arange(c) % 3
    calls = record_calls(monkeypatch, "logistic_fit")
    assert_matches_perfold_oracle(d, s_bar, folds)
    separated = [res.separation_detected for _, _, res in calls]
    assert separated == [True, False, False]
    starts = [kwargs["start"] for _, kwargs, _ in calls]
    # fold 1's training design has full rank, so only the separation
    # of fold 0 makes it start cold
    train = folds[d.cluster_index] != 1
    design = np.column_stack([np.ones(d.n), d.x,
                              s_bar[d.cluster_index]])[train]
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
    folds = np.arange(20) % 4
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
    the (c, t) summaries at each unit's cluster, and indicators for all
    but the smallest cluster size."""
    unit_size = d.n_c[d.cluster_index]
    sizes = np.unique(d.n_c)[1:]
    return np.column_stack([np.ones(d.n), d.x, s_bar[d.cluster_index]]
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
    fold_of_unit = folds[d.cluster_index]
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
    fits = assert_start_free_propensities(d, s_bar, fold_of_cluster)
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


@pytest.mark.parametrize("relabel, message", [
    (lambda f: f.astype(float), "signed integers"),
    (lambda f: np.where(np.arange(f.size) < 4, -1, f),
     "fold label -1 is negative"),
    (lambda f: np.where(np.arange(f.size) < 4, 7, f),
     r"folds \[3, 4, 5, 6\] of 0..7 have no cluster"),
    (lambda f: np.zeros_like(f), "need at least 2 folds, got 1"),
], ids=["dtype", "negative", "empty-fold", "one-fold"])
def test_bad_fold_labels_rejected(relabel, message):
    # A label outside 0..L-1 would leave its units without predictions.
    d = generate(dgp_preset("mundlak-linear", c=40), seed=1).dataset
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    folds = relabel(cross_fit_folds(d.c, 3, seed=0))
    with pytest.raises(InputError, match=message):
        fit_nuisances(d, s_bar, folds)


def test_summary_matrix_must_have_one_row_per_cluster():
    d = unbalanced_dataset(seed=6)
    s_bar = build_suffstats(d, mundlak_spec(d.k))
    folds = cross_fit_folds(d.c, 3, seed=0)
    # the unit rows s_bar[d.cluster_index] are refused too
    for bad in (s_bar[:-1], s_bar[:, 0], s_bar[d.cluster_index]):
        with pytest.raises(InputError, match="summaries have shape"):
            fit_nuisances(d, bad, folds)


# --------------------------------------------------------------------------
# doubly robust estimate
# --------------------------------------------------------------------------


def test_dr_matches_straight_line_transcription():
    for seed in range(4):
        d = unbalanced_dataset(seed=seed)
        nu, a = pipeline(d, seed=seed)
        out = dr_estimate(d, nu, eta=0.05)
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
    nu, _ = pipeline(d)
    out = dr_estimate(d, nu, eta=0.05)
    blob = out.to_dict()
    # xi has one entry per cluster, so it goes to a side file instead.
    assert set(blob) == {"tau_hat", "se", "ci", "v_hat", "a_bar", "n", "c",
                         "L", "eta"}
    assert blob["n"] == d.n and blob["c"] == d.c and blob["L"] == 3
    assert out.xi.shape == (d.c,)
    assert blob["ci"][0] < blob["tau_hat"] < blob["ci"][1]


@pytest.mark.parametrize("eta", [None, 0.05, 0.2])
def test_dr_estimate_builds_the_trimming_mask_it_reports(eta):
    d = unbalanced_dataset(seed=1)
    nu, _ = pipeline(d)
    out = dr_estimate(d, nu, eta=eta)
    assert out.eta == eta
    assert np.array_equal(out.a, overlap_set(nu.e, eta))
    assert out.a_bar == out.a.mean()
    assert (out.a_bar == 1.0) == (eta is None)


def test_empty_overlap_raises():
    d = unbalanced_dataset(seed=3)
    nu, _ = pipeline(d)
    # every propensity outside [eta, 1 - eta]
    outside = dataclasses.replace(nu, e=np.where(nu.e < 0.5, 0.01, 0.99))
    with pytest.raises(EmptyOverlapError, match="removed every unit"):
        dr_estimate(d, outside, eta=0.05)


def test_outcome_shift_leaves_tau_unchanged():
    d = unbalanced_dataset(seed=7)
    nu, _ = pipeline(d, seed=11)
    base = dr_estimate(d, nu).tau_hat
    labels = [d.cluster_labels[i] for i in d.cluster_index]
    d2 = Dataset(d.y + 57.0, d.w, d.x, labels)
    nu2, _ = pipeline(d2, seed=11)
    shifted = dr_estimate(d2, nu2).tau_hat
    assert shifted == pytest.approx(base, abs=1e-7)


def test_outcome_scale_scales_tau():
    d = unbalanced_dataset(seed=8)
    nu, _ = pipeline(d, seed=11)
    base = dr_estimate(d, nu).tau_hat
    labels = [d.cluster_labels[i] for i in d.cluster_index]
    d2 = Dataset(3.0 * d.y, d.w, d.x, labels)
    nu2, _ = pipeline(d2, seed=11)
    scaled = dr_estimate(d2, nu2).tau_hat
    assert scaled == pytest.approx(3.0 * base, rel=1e-7)


def test_covariate_affine_change_leaves_tau_unchanged():
    # Interior propensities keep every unit away from the trimming
    # threshold, where the estimate is a continuous function of the
    # fits and affine invariance of the refit pipeline is meaningful.
    res = generate(dgp_preset("mundlak-linear", c=40, n_c=6, a1=0.6), 17)
    d = res.dataset
    nu, _ = pipeline(d, seed=13)
    assert np.min(np.abs(nu.e - 0.05)) > 0.002
    assert np.min(np.abs(nu.e - 0.95)) > 0.002
    base = dr_estimate(d, nu).tau_hat
    labels = [d.cluster_labels[i] for i in d.cluster_index]
    x2 = d.x * np.array([2.0, 0.5, 1.5]) + np.array([-1.0, 4.0, 0.25])
    d2 = Dataset(d.y, d.w, x2, labels)
    nu2, _ = pipeline(d2, seed=13)
    moved = dr_estimate(d2, nu2).tau_hat
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
    tau_fe, tau_mundlak = twoway_mundlak_check(p)
    want = oracles.dummy_ols_twoway(y, w, x, unit.tolist(), time.tolist())
    assert tau_fe == pytest.approx(want, abs=1e-9)
    assert abs(tau_fe - tau_mundlak) <= 1e-8 * (1.0 + abs(tau_fe))


@settings(max_examples=20, deadline=None)
@given(n_periods=st.integers(min_value=2, max_value=8),
       offset=st.integers(min_value=-2, max_value=2),
       k=st.integers(min_value=0, max_value=3),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       strings=st.booleans())
def test_twoway_check_matches_dense_oracle(n_periods, offset, k, seed,
                                           strings):
    # About 8,192 rows, so the panel fills one 8,192-row block or spills
    # into a second, in shuffled row order. Both regressions factor the
    # blocks wls_fit makes from the oracle's n-row matrices, so unless a
    # column is dropped the pair is the same floats. With fewer than
    # k + 2 periods, the k + 1 period-mean columns and the intercept
    # outnumber the periods, a column is dropped, and the kept columns
    # are factored again from the triangles rather than from the rows.
    n_units = 8192 // n_periods + offset
    y, w, x, unit, time = random_panel(seed, n_units, n_periods, k)
    order = np.random.default_rng(seed).permutation(y.size)
    if strings:
        unit = np.array([f"firm-{u}" for u in unit])
        time = np.array([f"q{t}" for t in time])
    p = make_panel(y[order], w[order], x[order], unit[order], time[order])
    got = twoway_mundlak_check(p)
    want = oracles.dense_twoway_mundlak_check(p)
    if n_periods >= k + 2:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12)


def test_twoway_check_working_set_per_row():
    # 100,000 units x 6 periods, k = 2. The unit and period means are
    # taken a column at a time, and the residuals and the Mundlak design
    # are made and factored one block of rows at a time: about 13 bytes
    # per row. With the n-row residual, mean and design matrices, 264.
    y, w, x, unit, time = random_panel(0, 100_000, 6, 2)
    p = make_panel(y, w, x, unit, time)
    per_row = traced_peak_per_unit(p, twoway_mundlak_check, p)
    assert per_row <= 40, per_row


def test_single_period_panel_names_its_cause():
    # With one period, the period means are the rows themselves, so the
    # two-way residual of w is 0 whatever the units' arms.
    y, w, x, unit, time = random_panel(seed=13, n_units=50, n_periods=1)
    assert 0 < w.sum() < w.size
    with pytest.raises(DegenerateDesignError) as info:
        twoway_mundlak_check(make_panel(y, w, x, unit, time))
    assert str(info.value) == (
        "no residual treatment variation for two-way fixed-effects "
        "regression; treatment is additive in unit and period effects "
        "(as with a single period)")


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


def test_panel_non_finite_values_are_named():
    # A non-finite covariate is refused when the panel is built; a
    # non-finite outcome reaches the fits, which name the response.
    y, w, x, unit, time = random_panel(seed=11)
    for bad in (np.nan, np.inf):
        x_bad = x.copy()
        x_bad[3, 0] = bad
        with pytest.raises(InputError,
                           match="^panel covariates must be finite$"):
            make_panel(y, w, x_bad, unit, time)
    y_bad = y.copy()
    y_bad[3] = np.nan
    with pytest.raises(InputError,
                       match="^response contains non-finite values$"):
        twoway_mundlak_check(make_panel(y_bad, w, x, unit, time))


def test_panel_labels_may_be_strings():
    y, w, x, unit, time = random_panel(seed=12)
    p1 = twoway_mundlak_check(make_panel(y, w, x, unit, time))
    p2 = twoway_mundlak_check(make_panel(
        y, w, x,
        [f"firm-{u}" for u in unit],
        [f"q{t}" for t in time],
    ))
    assert p1[0] == pytest.approx(p2[0], abs=1e-12)
