"""Mixture-of-cluster-types fitting and posterior summaries."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdr import (
    Dataset,
    EstimationError,
    InputError,
    augment_with_posterior,
    cross_fit_folds,
    dgp_preset,
    dr_estimate,
    em_fit,
    fit_nuisances,
    generate,
    posterior_suffstat,
)
from clusterdr.mixture import _unit_cells

import oracles


def separated(seed=0, c=60, n_c=20):
    return generate(dgp_preset("separated-mixture", c=c, n_c=n_c), seed)


def test_single_component_is_pooled_frequencies():
    res = separated(seed=1, c=30)
    d = res.dataset
    m = em_fit(d, p=1, seed=0, restarts=1)
    assert m.pi.tolist() == [1.0]
    # pooled empirical cell frequencies
    counts = np.zeros(len(m.support))
    cells = {cell: i for i, cell in enumerate(m.support)}
    for i in range(d.n):
        key = tuple(float(v) for v in d.x[i]) + (int(d.w[i]),)
        counts[cells[key]] += 1
    want = counts / counts.sum()
    assert np.max(np.abs(m.component_pmfs[0] - want)) < 1e-9


def test_loglik_never_decreases():
    res = separated(seed=2)
    m = em_fit(res.dataset, p=2, seed=3, restarts=4)
    path = np.array(m.ll_path)
    assert path.size >= 2
    assert np.min(np.diff(path)) >= -1e-10


def test_posterior_rows_sum_to_one_and_match_oracle():
    res = separated(seed=3)
    d = res.dataset
    m = em_fit(d, p=2, seed=1, restarts=3)
    post = posterior_suffstat(m, d)
    assert np.max(np.abs(post.sum(axis=1) - 1.0)) < 1e-12
    cells = {cell: i for i, cell in enumerate(m.support)}
    for cid in range(min(d.c, 10)):
        rows = np.flatnonzero(d.cluster_index == cid)
        cluster_cells = [
            cells[tuple(float(v) for v in d.x[i]) + (int(d.w[i]),)]
            for i in rows
        ]
        want = oracles.naive_mixture_posterior(
            m.pi, m.component_pmfs, cluster_cells
        )
        assert np.max(np.abs(post[cid] - want)) < 1e-10


def test_label_switching_does_not_change_fit_quality():
    res = separated(seed=4)
    m1 = em_fit(res.dataset, p=2, seed=11, restarts=3)
    m2 = em_fit(res.dataset, p=2, seed=99, restarts=3)
    assert m1.loglik == pytest.approx(m2.loglik, rel=1e-6)
    # components agree up to permutation
    direct = np.max(np.abs(m1.component_pmfs - m2.component_pmfs))
    swapped = np.max(np.abs(m1.component_pmfs - m2.component_pmfs[::-1]))
    assert min(direct, swapped) < 1e-4


def test_posterior_concentration_grows_with_cluster_size():
    sharpness = []
    for n_c in (2, 5, 20):
        res = separated(seed=5, c=80, n_c=n_c)
        m = em_fit(res.dataset, p=2, seed=7, restarts=3)
        post = posterior_suffstat(m, res.dataset)
        sharpness.append(post.max(axis=1).mean())
    assert sharpness[0] < sharpness[1] < sharpness[2]
    assert sharpness[2] > 0.95


def test_component_and_support_bounds():
    res = separated(seed=6, c=10)
    with pytest.raises(InputError):
        em_fit(res.dataset, p=11, seed=0)
    with pytest.raises(InputError):
        em_fit(res.dataset, p=0, seed=0)
    rng = np.random.default_rng(0)
    cont = Dataset(
        rng.standard_normal(600),
        rng.integers(0, 2, size=600),
        rng.standard_normal((600, 1)),  # continuous: every cell distinct
        [str(i % 30) for i in range(600)],
    )
    with pytest.raises(InputError, match="discrete"):
        em_fit(cont, p=2, seed=0)


# Covariate values whose order or identity a sort could get wrong: both
# zeros, the smallest subnormals, negatives and the extremes.
_CELL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, -2.5, -1.0, 1.0, 3.0, 1e300,
                -1e300]


def cells_dataset(data, k, n):
    x = np.array([
        data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        for pool in (data.draw(st.lists(st.sampled_from(_CELL_VALUES),
                                        min_size=1, max_size=4))
                     for _ in range(k))
    ]).T.reshape(n, k)
    w = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Dataset(np.zeros(n), np.array(w), x, [str(i % 3) for i in range(n)])


def assert_cells_match_oracle(d):
    cells, unit_cell = _unit_cells(d)
    want_cells, want_unit_cell = oracles.axis0_unique_cells(d.x, d.w)
    assert np.array_equal(unit_cell, want_unit_cell)
    assert cells == want_cells
    for cell in cells:
        assert [type(v) for v in cell] == [float] * d.k + [int]
        # zeros of either sign share a cell, reported as +0.0
        assert all(math.copysign(1.0, v) == 1.0 for v in cell if v == 0.0)
    return cells


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(min_value=1, max_value=3),
       n=st.integers(min_value=1, max_value=40))
def test_unit_cells_match_axis0_unique_oracle(data, k, n):
    d = cells_dataset(data, k, n)
    cells = assert_cells_match_oracle(d)
    cap = len(cells) - 1
    with pytest.raises(InputError, match=re.escape(
            f"more than {cap} distinct (x, w) cells; mixture fitting needs "
            "discrete covariates")):
        em_fit(d, p=1, restarts=1, support_cap=cap)
    assert em_fit(d, p=1, restarts=1,
                  support_cap=len(cells)).support == tuple(cells)


def test_unit_cells_single_cell_and_signed_zero():
    d = Dataset(np.zeros(6), np.ones(6, dtype=int),
                np.array([[-0.0, 2.0], [0.0, 2.0]] * 3), ["a", "b"] * 3)
    cells = assert_cells_match_oracle(d)
    assert cells == [(0.0, 2.0, 1)]


def test_out_of_support_cell_rejected():
    res = separated(seed=7, c=30)
    d = res.dataset
    m = em_fit(d, p=2, seed=1, restarts=2)
    labels = [d.cluster_labels[i] for i in d.cluster_index]
    x2 = d.x.copy()
    x2[0, 0] = 17.0  # a cell the fit never saw
    d2 = Dataset(d.y, d.w, x2, labels)
    with pytest.raises(EstimationError, match="support"):
        posterior_suffstat(m, d2)


def test_posterior_bridge_into_estimation():
    res = separated(seed=8, c=80, n_c=20)
    d = res.dataset
    m = em_fit(d, p=2, seed=2, restarts=3)
    post = posterior_suffstat(m, d)
    s_bar = augment_with_posterior(post)
    # one row per cluster, p - 1 columns
    assert s_bar.shape == (d.c, 1)
    assert np.array_equal(s_bar[:, 0], post[:, 0])
    folds = cross_fit_folds(d.c, 3, seed=4)
    nu = fit_nuisances(d, s_bar, folds)
    out = dr_estimate(d, nu, eta=0.05)
    # the design has a constant effect of 1
    assert abs(out.tau_hat - 1.0) < 5 * out.se + 0.1
