"""Least squares, logistic fits, folds, and the group-penalized selector."""

import math
import time
import tracemalloc

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
from clusterdr.glm import row_blocks, stacked_block_r

import oracles


def scaled_rows(a, b, wt):
    """The rows of ``[a | b]`` times ``sqrt(wt)``: weighted least squares
    with weights ``wt`` is ``wls_fit`` on them."""
    root = np.sqrt(wt)
    return a * root[:, None], b * root


# --------------------------------------------------------------------------
# least squares on rows scaled by the square roots of the weights
# --------------------------------------------------------------------------


def test_wls_matches_normal_equations():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((50, 4))
    b = rng.standard_normal(50)
    wt = rng.random(50) + 0.1
    fit = wls_fit(*scaled_rows(a, b, wt))
    want = oracles.normal_equations_wls(a, b, wt)
    assert fit.rank == 4
    assert fit.columns_dropped == ()
    assert np.max(np.abs(fit.coefficients - want)) < 1e-9


def test_ols_is_unit_weights():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((30, 3))
    b = rng.standard_normal(30)
    f1 = wls_fit(a, b)
    f2 = wls_fit(*scaled_rows(a, b, np.full(30, 9.0)))
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
    fit = wls_fit(*scaled_rows(a, b, wt))
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


def test_each_column_is_judged_against_its_own_norm():
    # A covariate of norm about 1e13 leaves the intercept and a 0/1
    # column in both fits, and its coefficient is the unscaled one over
    # 1e12.
    # A column of norm below 1e-9 is dropped whatever the others' scale.
    rng = np.random.default_rng(10)
    n = 40
    w = (np.arange(n) % 2).astype(float)
    x = rng.standard_normal(n)
    b = rng.standard_normal(n)
    a = np.column_stack([np.ones(n), w, 1e12 * x])
    fit = wls_fit(a, b)
    assert fit.columns_dropped == ()
    assert oracles.unblocked_wls_fit(a, b)[1] == ()
    plain = wls_fit(np.column_stack([np.ones(n), w, x]), b).coefficients
    np.testing.assert_allclose(fit.coefficients * [1.0, 1.0, 1e12], plain,
                               rtol=1e-9)
    labels = (rng.random(n) < 0.5).astype(float)
    assert logistic_fit(a, labels).columns_dropped == ()
    tiny = np.column_stack([np.ones(n), 1e-11 * x, 1e12 * x + 1.0])
    assert wls_fit(tiny, b).columns_dropped == (1,)


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
    fit = wls_fit(*scaled_rows(a, b, wt))
    # with rows 20+ weighted out, column 3 duplicates column 2
    assert fit.columns_dropped == (3,)
    sub = wls_fit(*scaled_rows(a[:20, :3], b[:20], wt[:20]))
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
    fit = wls_fit(*scaled_rows(a, b, wt))
    assert p - 1 in fit.columns_dropped
    grad = a.T @ (wt * (b - a @ fit.coefficients))
    kept = [j for j in range(p) if j not in fit.columns_dropped]
    bound = 1e-8 * (1.0 + float(np.linalg.norm(b)))
    assert np.max(np.abs(grad[kept])) <= bound


def test_wls_copies_no_more_than_a_block():
    # The rows of [A | b] are made one 8,192-row block at a time, so the
    # fit copies no more than a block of the design.
    rng = np.random.default_rng(11)
    a = rng.standard_normal((100_000, 8))
    b = rng.standard_normal(100_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        wls_fit(a, b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * a.nbytes, peak / a.nbytes


def test_wls_input_errors():
    with pytest.raises(InputError):
        wls_fit(np.array([[1.0], [np.nan]]), np.zeros(2))
    with pytest.raises(InputError):
        wls_fit(np.ones((3, 1)), np.zeros(2))
    with pytest.raises(InputError):
        wls_fit(np.ones((3, 1)), np.array([0.0, np.inf, 0.0]))
    # each 8,192-row block is checked as it is factored
    late = np.ones((9000, 2))
    late[8500, 1] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        wls_fit(late, np.zeros(9000))
    with pytest.raises(InputError, match="non-finite"):
        logistic_fit(late, np.arange(9000) % 2.0)


def test_first_bad_block_names_the_error():
    # Labels and response are checked block by block with the design:
    # the first block holding a bad value names the error, and a block
    # holding both reports the labels' or the response's.
    a = np.ones((9000, 2))
    y = np.arange(9000) % 2.0
    a[8500, 1] = np.nan
    bad = y.copy()
    bad[8600] = 2.0
    with pytest.raises(InputError, match="labels must be 0 or 1"):
        logistic_fit(a, bad)
    with pytest.raises(InputError, match="response contains non-finite"):
        wls_fit(a, np.where(bad == 2.0, np.inf, bad))
    a[100, 1] = np.inf
    with pytest.raises(InputError, match="design contains non-finite"):
        logistic_fit(a, bad)
    with pytest.raises(InputError, match="design contains non-finite"):
        wls_fit(a, np.where(bad == 2.0, np.inf, bad))


@pytest.mark.parametrize("fit", [logistic_fit, wls_fit],
                         ids=["logistic_fit", "wls_fit"])
def test_input_checks_make_no_n_row_temporary(fit):
    # 3,000,000 rows x 2 columns: the labels' and the response's checks
    # run on one block at a time, so the fits hold about 0.26
    # (logistic) and 0.18 (least squares) bytes a row over their inputs.
    # Checked over all rows at once they made n-byte masks: 2.0 and 1.0.
    n = 3_000_000
    rng = np.random.default_rng(5)
    a = np.column_stack([np.ones(n), rng.standard_normal(n)])
    y = (rng.random(n) < 0.5).astype(float)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fit(a, y)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * n, peak / n


def test_row_blocks_follow_the_width():
    # 8,192 rows up to 56 columns; past that, the largest multiple of
    # four rows under 460,800 entries; past 677 columns, the least
    # multiple of four above the width.
    assert [len(range(*b.indices(9000))) for b in row_blocks(9000, 56)] == [
        8192, 808]
    for width in (57, 65, 72, 300, 677):
        step = row_blocks(10**6, width)[0].stop
        assert step % 4 == 0 and step * width < 460_800
        assert (step + 4) * width >= 460_800 and step > width
    assert row_blocks(10**6, 700)[0].stop == 704
    assert row_blocks(10**6, 9000)[0].stop == 9004


@pytest.mark.parametrize("n, p", [(20_000, 70), (12_000, 300)])
def test_wide_blocks_match_unblocked_oracle(n, p):
    # Blocks of 6,580 and 1,532 rows. At 300 columns the stacked
    # triangles (2,400 rows) are factored in blocks again, twice.
    rng, a, beta = blocked_design(n + p, n, p, False)
    b = a @ beta + rng.standard_normal(n)
    fit = wls_fit(a, b)
    want, dropped = oracles.unblocked_wls_fit(a, b, np.ones(n))
    assert fit.columns_dropped == dropped == ()
    assert_close_to(fit.coefficients, want, 1e-10)


# --------------------------------------------------------------------------
# 8,192-row blocks against one QR of all rows
# --------------------------------------------------------------------------

# One block short of, at and past 8,192 rows, three blocks and a
# remainder, and fewer rows than columns.
BLOCK_EDGE_ROWS = (8191, 8192, 8193, 3 * 8192 + 517, 3)


def blocked_design(seed, n, p, duplicate):
    """An (n, p) design whose first column is the intercept, optionally
    with its last column a copy of an earlier one, and a coefficient
    vector of moderate size."""
    rng = np.random.default_rng(seed)
    a = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    if duplicate and p >= 3:
        a[:, -1] = a[:, int(rng.integers(1, p - 1))]
    return rng, a, 0.5 * rng.standard_normal(p)


def assert_close_to(got, want, rtol):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.sampled_from(BLOCK_EDGE_ROWS),
       p=st.integers(min_value=1, max_value=6),
       duplicate=st.booleans(),
       zero_weights=st.booleans())
def test_blocked_wls_matches_unblocked_oracle(seed, n, p, duplicate,
                                              zero_weights):
    rng, a, beta = blocked_design(seed, n, p, duplicate)
    b = a @ beta + rng.standard_normal(n)
    wt = rng.random(n) + 0.1
    if zero_weights:
        wt[rng.random(n) < 0.3] = 0.0
        wt[0] = 1.0
    a_w, b_w = scaled_rows(a, b, wt)
    fit = wls_fit(a_w, b_w)
    want, dropped = oracles.unblocked_wls_fit(a, b, wt)
    assert fit.columns_dropped == dropped
    assert_close_to(fit.coefficients, want, 1e-10)
    # The stacked triangles of the rows' blocks drop the rows' columns and,
    # unless one is dropped, give their coefficients bit for bit:
    # _within_fit, mundlak_ols and fit_nuisances rely on it. After a drop
    # the kept columns of the rows and of the stack are factored again,
    # which rounds differently.
    rows = np.column_stack([a_w, b_w])
    stack = stacked_block_r(rows[blk] for blk in row_blocks(n))
    tri = wls_fit(stack[:, :p], stack[:, p])
    assert tri.columns_dropped == fit.columns_dropped
    if fit.columns_dropped:
        assert_close_to(tri.coefficients, fit.coefficients, 1e-12)
    else:
        assert np.array_equal(tri.coefficients, fit.coefficients)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.sampled_from(BLOCK_EDGE_ROWS),
       p=st.integers(min_value=1, max_value=6),
       duplicate=st.booleans())
def test_blocked_logistic_matches_stored_basis_oracle(seed, n, p, duplicate):
    # With fewer rows than columns the data are separated, and a ridge
    # of 1 keeps the optimum near the origin.
    rng, a, beta = blocked_design(seed, n, p, duplicate)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(a @ beta)))).astype(float)
    ridge = 1.0 if n < p else 0.0
    fit = logistic_fit(a, y, ridge=ridge)
    want, dropped, want_ridge = oracles.stored_basis_logistic_fit(
        a, y, ridge=ridge)
    assert fit.columns_dropped == dropped and fit.ridge == want_ridge
    assert_close_to(fit.coefficients, want, 1e-10)
    held_out = blocked_design(seed + 1, 500, p, duplicate)[1]
    # A separated fit has large coefficients; exp overflowing to inf
    # gives the oracle's probability 0, which the clip makes 1e-10.
    with np.errstate(over="ignore"):
        oracle = np.clip(1.0 / (1.0 + np.exp(-(held_out @ want))),
                         1e-10, 1 - 1e-10)
    np.testing.assert_allclose(predict_proba(fit, held_out), oracle,
                               rtol=0.0, atol=1e-10)


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
    # (at most 3.7e-9 here) at every design condition number from 5e2
    # to 5e9: below the 1e-9 rank rule by dropping the column, and
    # between the two because Newton runs in the orthogonal basis of
    # the kept columns' R factor. Newton steps in the design's own
    # basis, from every start, moved them by 5e-8 at condition 1e7,
    # 5e-5 at 7e7 and 1.3e-2 at 7e8, and in ten folds only one of the
    # two fits converged.
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


def varied_size_sweep():
    """``near_collinear_folds`` at pivot scales 1e-6 to 2e-9 over 60
    seeds, with c from 20 to 60 clusters of 4 to 8 units."""
    for scale in (1e-6, 1e-7, 1e-8, 1e-9, 2e-9):
        for seed in range(60):
            yield near_collinear_folds(seed, scale, c=20 + 7 * seed % 41,
                                       n_c=4 + seed % 5)


def test_near_collinear_cold_fits_converge():
    # Newton steps in the design's own basis left 177 of these 900 fits
    # unconverged after 100 steps, at the optimum but short of the
    # absolute score test.
    for design, w, fold in varied_size_sweep():
        for f in range(3):
            train = fold != f
            fit = logistic_fit(design[train], w[train])
            assert fit.converged, (fit.iterations, fit.max_abs_score)


def test_warm_and_cold_starts_agree_over_varied_sizes():
    # As in cross-fitting, each fold starts from the previous fold's fit
    # unless that ran into separation. Held-out probabilities of
    # unseparated warm and cold fits differ by at most 3.5e-8 here.
    for design, w, fold in varied_size_sweep():
        start = None
        for f in range(3):
            train = fold != f
            cold = logistic_fit(design[train], w[train])
            warm = logistic_fit(design[train], w[train], start=start)
            if (warm.converged and cold.converged
                    and not (cold.separation_detected
                             or warm.separation_detected)):
                held_out = design[~train]
                np.testing.assert_allclose(
                    predict_proba(warm, held_out),
                    predict_proba(cold, held_out), rtol=0.0, atol=1e-7)
            start = None if warm.separation_detected else warm.coefficients


def test_warm_starts_flag_no_separation_that_cold_fits_lack():
    # A fold's warm start, cut to the kept columns after the partner of
    # a dropped column went, can push probabilities to the floor on the
    # way to an unseparated optimum. Without a cold retry, 8 of these
    # 900 warm fits (near_collinear_folds(41, 2e-9, c=20, n_c=5), fold 2,
    # among them) were flagged as separated and refit with ridge 1e-6.
    spurious = []
    for design, w, fold in varied_size_sweep():
        start = None
        for f in range(3):
            train = fold != f
            warm = logistic_fit(design[train], w[train], start=start)
            if warm.separation_detected:
                cold = logistic_fit(design[train], w[train])
                if not cold.separation_detected:
                    spurious.append((f, warm.columns_dropped))
            start = None if warm.separation_detected else warm.coefficients
    assert spurious == []


def test_start_at_probabilities_zero_and_one_refits_cold():
    # exp(-1000) underflows, so the start puts every probability at
    # exactly 0 or 1 and every Newton weight at 0. The data are not
    # separated, so the retry from zero is the cold fit, with no ridge.
    rng = np.random.default_rng(10)
    x = np.sign(rng.standard_normal(50)) * (0.5 + rng.random(50))
    a = np.column_stack([np.ones(50), x])
    y = (rng.random(50) < 0.5).astype(float)
    fit = logistic_fit(a, y, start=np.array([0.0, 2000.0]))
    cold = logistic_fit(a, y)
    assert not cold.separation_detected
    assert not fit.separation_detected and fit.ridge == 0.0 and fit.converged
    assert np.array_equal(fit.coefficients, cold.coefficients)


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
    assert f1.dtype == np.int64
    assert np.array_equal(f1, f2)
    counts = np.bincount(f1, minlength=5)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 17
    f3 = cross_fit_folds(17, 5, seed=43)
    assert not np.array_equal(f1, f3)


def test_fold_bounds():
    with pytest.raises(InputError):
        cross_fit_folds(10, 1, seed=0)
    with pytest.raises(InputError):
        cross_fit_folds(3, 4, seed=0)
    f = cross_fit_folds(4, 4, seed=0)
    assert sorted(f.tolist()) == [0, 1, 2, 3]


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
