"""Least squares, logistic fits, folds, and the group-penalized selector."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdr import (
    EstimationError,
    InputError,
    cross_fit_folds,
    dgp_preset,
    generate,
    logistic_fit,
    multinomial_group_lasso,
    mundlak_spec,
    predict_proba,
    wls_fit,
)

import oracles


# --------------------------------------------------------------------------
# weighted least squares
# --------------------------------------------------------------------------


def test_wls_matches_normal_equations():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((50, 4))
    b = rng.standard_normal(50)
    wt = rng.random(50) + 0.1
    fit = wls_fit(a, b, weights=wt)
    want = oracles.normal_equations_wls(a, b, wt)
    assert fit.rank == 4
    assert fit.columns_dropped == ()
    assert np.max(np.abs(fit.coefficients - want)) < 1e-9


def test_ols_is_unit_weights():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((30, 3))
    b = rng.standard_normal(30)
    f1 = wls_fit(a, b)
    f2 = wls_fit(a, b, weights=np.ones(30))
    assert np.allclose(f1.coefficients, f2.coefficients, atol=1e-12)


def test_later_duplicate_column_is_dropped():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((40, 2))
    a = np.column_stack([base[:, 0], base[:, 1], base[:, 0]])  # col 2 = col 0
    b = rng.standard_normal(40)
    fit = wls_fit(a, b)
    assert fit.columns_dropped == (2,)
    assert fit.rank == 2
    assert fit.coefficients[2] == 0.0
    reduced = wls_fit(base, b)
    gap = a @ fit.coefficients - base @ reduced.coefficients
    assert np.max(np.abs(gap)) < 1e-9


def test_zero_column_dropped():
    rng = np.random.default_rng(4)
    a = np.column_stack([np.zeros(20), rng.standard_normal(20)])
    fit = wls_fit(a, rng.standard_normal(20))
    assert fit.columns_dropped == (0,)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       p=st.integers(min_value=1, max_value=6))
def test_weighted_residuals_orthogonal_to_design(seed, p):
    rng = np.random.default_rng(seed)
    n = 30 + p
    a = rng.standard_normal((n, p))
    b = 3.0 * rng.standard_normal(n)
    wt = rng.random(n)
    fit = wls_fit(a, b, weights=wt)
    resid = b - a @ fit.coefficients
    grad = a.T @ (wt * resid)
    kept = [j for j in range(p) if j not in fit.columns_dropped]
    bound = 1e-8 * (1.0 + float(np.linalg.norm(b)))
    assert np.max(np.abs(grad[kept])) <= bound


def test_fewer_rows_than_columns_drops_past_rank():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal(3)
    fit = wls_fit(a, b)
    assert fit.rank == 3
    assert fit.columns_dropped == (3, 4)
    assert np.all(fit.coefficients[3:] == 0.0)
    assert np.max(np.abs(a @ fit.coefficients - b)) < 1e-10


def test_near_duplicate_within_tolerance_is_dropped():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((40, 2))
    near = base[:, 0] + 1e-12 * rng.standard_normal(40)
    far = base[:, 0] + 1e-6 * rng.standard_normal(40)
    b = rng.standard_normal(40)
    assert wls_fit(np.column_stack([base, near]), b).columns_dropped == (2,)
    assert wls_fit(np.column_stack([base, far]), b).columns_dropped == ()


def test_duplicate_of_dropped_column_is_dropped():
    rng = np.random.default_rng(8)
    u, v = rng.standard_normal((2, 30))
    a = np.column_stack([u, 2.0 * u, v, 2.0 * u, u + v])
    b = rng.standard_normal(30)
    fit = wls_fit(a, b)
    assert fit.columns_dropped == (1, 3, 4)
    assert fit.rank == 2
    reduced = wls_fit(np.column_stack([u, v]), b)
    assert np.allclose(fit.coefficients[[0, 2]], reduced.coefficients,
                       atol=1e-12)


def test_zero_weight_rows_are_ignored():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((25, 3))
    a[20:, 2] += 5.0  # column 2 differs from a copy only on rows 20+
    a = np.column_stack([a, a[:, 2] - np.where(np.arange(25) >= 20, 5.0, 0)])
    b = rng.standard_normal(25)
    wt = rng.random(25) + 0.1
    wt[20:] = 0.0
    fit = wls_fit(a, b, weights=wt)
    # with rows 20+ weighted out, column 3 duplicates column 2
    assert fit.columns_dropped == (3,)
    sub = wls_fit(a[:20, :3], b[:20], weights=wt[:20])
    assert np.max(np.abs(fit.coefficients[:3] - sub.coefficients)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       p=st.integers(min_value=3, max_value=7))
def test_orthogonality_with_dropped_columns_and_zero_weights(seed, p):
    rng = np.random.default_rng(seed)
    n = 12 + p
    a = rng.standard_normal((n, p))
    a[:, p - 1] = a[:, 0] - 3.0 * a[:, 1]
    b = 3.0 * rng.standard_normal(n)
    wt = rng.random(n)
    wt[: n // 4] = 0.0
    fit = wls_fit(a, b, weights=wt)
    assert p - 1 in fit.columns_dropped
    grad = a.T @ (wt * (b - a @ fit.coefficients))
    kept = [j for j in range(p) if j not in fit.columns_dropped]
    bound = 1e-8 * (1.0 + float(np.linalg.norm(b)))
    assert np.max(np.abs(grad[kept])) <= bound


def test_wls_input_errors():
    with pytest.raises(InputError):
        wls_fit(np.array([[1.0], [np.nan]]), np.zeros(2))
    with pytest.raises(InputError):
        wls_fit(np.ones((3, 1)), np.zeros(2))
    with pytest.raises(InputError):
        wls_fit(np.ones((3, 1)), np.zeros(3), weights=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(InputError):
        wls_fit(np.ones((3, 1)), np.zeros(3), weights=np.zeros(3))


# --------------------------------------------------------------------------
# logistic regression
# --------------------------------------------------------------------------


def test_intercept_only_hits_log_odds():
    y = np.array([1.0] + [0.0] * 3)
    fit = logistic_fit(np.ones((4, 1)), y)
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(math.log(0.25 / 0.75), abs=1e-8)
    assert fit.max_abs_score < 1e-8


def test_matches_gradient_ascent_oracle():
    rng = np.random.default_rng(5)
    n = 120
    a = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    truth = np.array([0.3, -0.8, 0.5])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(a @ truth)))).astype(float)
    fit = logistic_fit(a, y)
    want = oracles.gradient_descent_logistic(a, y)
    assert fit.converged
    assert np.max(np.abs(fit.coefficients - want)) < 1e-5


def test_separation_sets_flag_and_falls_back():
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    fit = logistic_fit(x, y, ridge=0.0)
    assert fit.separation_detected
    assert fit.ridge == pytest.approx(1e-6)
    assert np.all(np.isfinite(fit.coefficients))
    # penalized problem has a finite optimum and converges
    assert fit.converged


def test_explicit_ridge_keeps_flag_without_fallback():
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    fit = logistic_fit(x, y, ridge=1e-4)
    assert fit.ridge == pytest.approx(1e-4)
    assert np.all(np.isfinite(fit.coefficients))


def test_warm_start_reaches_cold_optimum():
    rng = np.random.default_rng(12)
    n = 400
    a = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
    truth = np.array([0.2, 1.0, -0.7, 0.4])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(a @ truth)))).astype(float)
    cold = logistic_fit(a, y)
    # as in cross-fitting: start from the fit on an overlapping subset
    nearby = logistic_fit(a[: n // 2], y[: n // 2]).coefficients
    for start in (nearby, 2.0 * nearby, cold.coefficients):
        warm = logistic_fit(a, y, start=start)
        assert warm.converged and not warm.separation_detected
        assert np.max(np.abs(warm.coefficients - cold.coefficients)) < 1e-8
    assert logistic_fit(a, y, start=nearby).iterations < cold.iterations
    assert logistic_fit(a, y, start=cold.coefficients).iterations == 0


def test_separated_warm_start_refits_cold_with_ridge():
    x = np.linspace(-1, 1, 20)
    a = np.column_stack([np.ones(20), x])
    y = (x > 0).astype(float)
    cold = logistic_fit(a, y)
    warm = logistic_fit(a, y, start=np.array([0.5, 3.0]))
    assert warm.separation_detected and warm.ridge == 1e-6
    assert np.array_equal(warm.coefficients, cold.coefficients)


def near_collinear_folds(seed, scale, c=30, n_c=6, L=3):
    """A clustered propensity design ``[1, x, x_bar, 2 x_bar + scale *
    jitter]`` whose last column has a pivot about ``scale`` times the
    others, treatment labels, and a fold per row."""
    rng = np.random.default_rng(seed)
    cluster = np.repeat(np.arange(c), n_c)
    u = rng.standard_normal(c)
    x = rng.standard_normal(c * n_c) + u[cluster]
    x_bar = np.bincount(cluster, weights=x)[cluster] / n_c
    jitter = rng.standard_normal(c)[cluster]
    design = np.column_stack([np.ones(c * n_c), x, x_bar,
                              2.0 * x_bar + scale * jitter])
    p = 1.0 / (1.0 + np.exp(-0.5 * u[cluster]))
    w = (rng.random(c * n_c) < p).astype(float)
    return design, w, (rng.permutation(c) % L)[cluster]


def test_warm_and_cold_starts_agree_up_to_condition_1e9():
    # Cross-fitting hands each fold the previous fold's fit as its start.
    # Held-out probabilities from a warm and a cold start agree to 1e-8
    # (at most 1.9e-10 here) at every design condition number from 5e2
    # to 5e9: below the 1e-9 rank rule by dropping the column, and
    # between the two by the 1e-6 pivot guard. Without the guard they
    # moved by 5e-8 at condition 1e7, 5e-5 at 7e7 and 1.3e-2 at 7e8,
    # and in ten folds only one of the two fits converged.
    conds = []
    for scale in 10.0 ** -np.arange(2, 10):
        for seed in range(8):
            design, w, fold = near_collinear_folds(seed, scale)
            start = None
            for f in range(3):
                train = fold != f
                cold = logistic_fit(design[train], w[train])
                warm = logistic_fit(design[train], w[train], start=start)
                assert warm.converged == cold.converged
                if cold.converged:
                    held_out = design[~train]
                    np.testing.assert_allclose(
                        predict_proba(warm, held_out),
                        predict_proba(cold, held_out), rtol=0.0, atol=1e-8)
                conds.append(np.linalg.cond(design[train]))
                start = warm.coefficients
    assert min(conds) < 1e3 and max(conds) > 1e9


def test_rank_rule_matches_wls():
    # duplicated, zero, and all-but-the-intercept-summing indicator
    # columns, and fewer rows than columns
    rng = np.random.default_rng(9)
    n = 40
    x = rng.standard_normal((n, 2))
    group = np.arange(n) % 2
    design = np.column_stack([np.ones(n), x, x[:, 0], np.zeros(n),
                              group, 1.0 - group])
    y = (rng.random(n) < 0.5).astype(float)
    fit = logistic_fit(design, y)
    assert fit.columns_dropped == (3, 4, 6)
    assert fit.columns_dropped == wls_fit(design, y).columns_dropped
    assert np.all(fit.coefficients[[3, 4, 6]] == 0.0)
    kept = [0, 1, 2, 5]
    ref = logistic_fit(design[:, kept], y)
    assert np.array_equal(fit.coefficients[kept], ref.coefficients)
    # a start is cut down to the kept columns
    start = rng.standard_normal(design.shape[1])
    warm = logistic_fit(design, y, start=start)
    assert warm.columns_dropped == (3, 4, 6)
    assert np.all(warm.coefficients[[3, 4, 6]] == 0.0)
    np.testing.assert_allclose(warm.coefficients, fit.coefficients,
                               atol=1e-8)
    short = logistic_fit(design[:3], y[:3], ridge=1.0)
    assert short.columns_dropped == wls_fit(design[:3], y[:3]).columns_dropped


def test_start_must_match_design():
    a = np.column_stack([np.ones(6), np.arange(6.0)])
    y = np.array([0, 1, 0, 1, 1, 0], dtype=float)
    with pytest.raises(InputError, match="start has shape"):
        logistic_fit(a, y, start=np.zeros(3))
    with pytest.raises(InputError, match="non-finite"):
        logistic_fit(a, y, start=np.array([0.0, np.nan]))


def test_predict_proba_clamps_and_checks_shapes():
    fit = logistic_fit(np.ones((4, 1)), np.array([1.0, 0.0, 1.0, 0.0]))
    p = predict_proba(fit, np.array([[1.0], [1.0]]))
    assert p.shape == (2,)
    assert np.all(p >= 1e-10) and np.all(p <= 1 - 1e-10)
    big = predict_proba(fit, np.array([[1e6]]))
    assert big[0] <= 1 - 1e-10
    with pytest.raises(InputError):
        predict_proba(fit, np.ones((2, 3)))


def test_predict_refuses_unconverged_unpenalized_fit():
    rng = np.random.default_rng(7)
    a = np.column_stack([np.ones(200), rng.standard_normal((200, 3))])
    y = (rng.random(200) < 0.4).astype(float)
    fit = logistic_fit(a, y, max_iter=1, tol=1e-14)
    assert not fit.converged
    if fit.ridge == 0.0:
        with pytest.raises(EstimationError):
            predict_proba(fit, a)


def test_logistic_input_errors():
    with pytest.raises(InputError):
        logistic_fit(np.ones((3, 1)), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(InputError):
        logistic_fit(np.ones((3, 1)), np.zeros(3), ridge=-1.0)


# --------------------------------------------------------------------------
# fold assignment
# --------------------------------------------------------------------------


def test_folds_balanced_and_deterministic():
    f1 = cross_fit_folds(17, 5, seed=42)
    f2 = cross_fit_folds(17, 5, seed=42)
    assert np.array_equal(f1.fold_of_cluster, f2.fold_of_cluster)
    counts = np.bincount(f1.fold_of_cluster, minlength=5)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 17
    f3 = cross_fit_folds(17, 5, seed=43)
    assert not np.array_equal(f1.fold_of_cluster, f3.fold_of_cluster)


def test_fold_bounds():
    with pytest.raises(InputError):
        cross_fit_folds(10, 1, seed=0)
    with pytest.raises(InputError):
        cross_fit_folds(3, 4, seed=0)
    f = cross_fit_folds(4, 4, seed=0)
    assert sorted(f.fold_of_cluster.tolist()) == [0, 1, 2, 3]


# --------------------------------------------------------------------------
# group-penalized multinomial selection
# --------------------------------------------------------------------------


def selection_problem(seed=0, n_per=30, n_groups=4):
    """Feature 0 tracks the group, features 1-2 are noise."""
    rng = np.random.default_rng(seed)
    centers = np.array([-3.0, -1.0, 1.0, 3.0])[:n_groups]
    labels = np.repeat(np.arange(n_groups), n_per)
    f0 = centers[labels] + 0.5 * rng.standard_normal(labels.size)
    noise = rng.standard_normal((labels.size, 2))
    return np.column_stack([f0, noise]), labels


def test_huge_penalty_selects_nothing():
    f, labels = selection_problem()
    res = multinomial_group_lasso(f, labels, lam=1e9)
    assert res.selected == ()
    # a penalty at or above lambda_max is one all-zero path point
    assert len(res.path) == 1
    assert res.path[0].lam == 1e9


def test_zero_penalty_selects_everything():
    f, labels = selection_problem()
    res = multinomial_group_lasso(f, labels, lam=0.0)
    assert res.selected == (0, 1, 2)


def test_signal_enters_before_noise():
    f, labels = selection_problem(seed=1)
    res = multinomial_group_lasso(f, labels, stop_after_k=2)
    first_sel = next(p.selected for p in res.path if p.selected)
    assert first_sel == (0,)


def sparse_relevant(c, seed):
    """The select benchmark's problem: Mundlak candidates of a
    ``sparse-relevant`` draw; candidates 0 and 1 are the relevant ones."""
    d = generate(dgp_preset("sparse-relevant", c=c), seed).dataset
    terms = mundlak_spec(d.k).terms
    feats = np.column_stack([t.unit_values(d) for t in terms])
    return feats, d.cluster_index


def test_path_is_decreasing_in_lambda():
    for (f, labels), kwargs in [(selection_problem(seed=2), {}),
                                (sparse_relevant(60, 1), {"stop_after_k": 2})]:
        res = multinomial_group_lasso(f, labels, **kwargs)
        lams = [p.lam for p in res.path]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        assert res.path[0].lam == pytest.approx(res.lambda_max)
        # at the top of the path nothing is selected
        assert res.path[0].selected == ()
        assert not np.any(res.path[0].coefficients[1:])


def test_string_labels_accepted():
    f, labels = selection_problem(seed=3)
    names = np.array(["north", "south", "east", "west"])[labels]
    res = multinomial_group_lasso(f, list(names), stop_after_k=1)
    assert 0 in {j for p in res.path for j in p.selected}


def test_selector_input_errors():
    f, labels = selection_problem()
    with pytest.raises(InputError):
        multinomial_group_lasso(f, labels[:-1], lam=1.0)
    with pytest.raises(InputError):
        multinomial_group_lasso(f, labels, lam=-1.0)
    with pytest.raises(InputError):
        multinomial_group_lasso(f, np.zeros(f.shape[0]), lam=1.0)


def test_closed_form_intercepts_are_class_log_odds():
    f, labels = selection_problem(seed=4)
    keep = (labels != 1) | (np.arange(labels.size) % 3 != 0)
    f, labels = f[keep], labels[keep]
    counts = np.bincount(labels)
    res = multinomial_group_lasso(f, labels, lam=1e9)
    coef = res.path[-1].coefficients
    assert np.allclose(coef[0], np.log(counts[:-1] / counts[-1]),
                       rtol=0, atol=1e-12)
    assert not np.any(coef[1:])
    grad = oracles.multinomial_gradient(f, labels.tolist(), coef)
    assert np.max(np.abs(grad[0])) < 1e-9 * labels.size
    # lambda_max is the largest candidate gradient norm at that fit
    assert res.lambda_max == pytest.approx(
        np.linalg.norm(grad[1:], axis=1).max(), rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       q=st.integers(min_value=1, max_value=4),
       n_cat=st.integers(min_value=2, max_value=4),
       ratio=st.sampled_from([0.5, 0.2, 0.05]))
def test_fits_satisfy_kkt_conditions(seed, q, n_cat, ratio):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(10 * n_cat) % n_cat)
    f = rng.standard_normal((labels.size, q))
    f[:, 0] += 0.7 * labels
    res = multinomial_group_lasso(f, labels, n_lambdas=4,
                                  lambda_min_ratio=ratio, tol=1e-9,
                                  max_sweeps=20_000)
    assert res.converged
    for point in res.path:
        lam, coef = point.lam, point.coefficients
        grad = oracles.multinomial_gradient(f, labels.tolist(), coef)
        small = 1e-5 * (1.0 + lam)
        assert np.max(np.abs(grad[0])) < small
        for j, block in enumerate(coef[1:]):
            norm = np.linalg.norm(block)
            assert (norm > 0.0) == (j in point.selected)
            if norm == 0.0:
                assert np.linalg.norm(grad[1 + j]) <= lam * (1.0 + 1e-6)
            else:
                assert np.linalg.norm(grad[1 + j] + lam * block / norm) < small


def test_iteration_cap_is_reported():
    f, labels = selection_problem(seed=2)
    res = multinomial_group_lasso(f, labels, n_lambdas=4, max_sweeps=1)
    assert not res.converged
    assert res.path[0].converged and res.path[0].iterations == 0
    assert all(not p.converged and p.iterations == 1 for p in res.path[1:])
    assert res.iterations == len(res.path) - 1
    full = multinomial_group_lasso(f, labels, n_lambdas=4)
    assert full.converged and all(p.converged for p in full.path)
    assert full.iterations == sum(p.iterations for p in full.path)


@pytest.mark.slow
def test_selector_scales_to_120_clusters():
    f, labels = sparse_relevant(120, 1)
    start = time.perf_counter()
    res = multinomial_group_lasso(f, labels, stop_after_k=2)
    elapsed = time.perf_counter() - start
    assert set(res.selected) == {0, 1}
    assert res.converged
    assert elapsed < 30.0
