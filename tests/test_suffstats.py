"""Statistic specifications, cluster summaries, trimming flags."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdr import (
    Dataset,
    InputError,
    StatSpec,
    Term,
    augment_with_posterior,
    build_suffstats,
    dgp_preset,
    em_fit,
    generate,
    mundlak_spec,
    overlap_set,
    posterior_suffstat,
)

import oracles


def full_kind_spec():
    return StatSpec(terms=(
        Term("treatment-mean"),
        Term("covariate-mean", j=0),
        Term("covariate-second-moment", j=0, k2=1),
        Term("covariate-treatment-interaction", j=1),
        Term("custom-transform", tag="square:1"),
    ))


def random_dataset(seed=0, n=40, k=2, n_clusters=6):
    rng = np.random.default_rng(seed)
    labels = [f"g{int(v)}" for v in rng.integers(0, n_clusters, size=n)]
    return Dataset(
        rng.standard_normal(n),
        rng.integers(0, 2, size=n),
        rng.standard_normal((n, k)),
        labels,
    )


def test_two_unit_cluster_means():
    # one cluster, units (w=1, x=2) and (w=0, x=4): the treatment share
    # is 1/2 and the covariate mean is 3, in the cluster's one row.
    d = Dataset(np.array([0.0, 0.0]), np.array([1, 0]),
                np.array([[2.0], [4.0]]), ["c", "c"])
    spec = StatSpec(terms=(Term("treatment-mean"), Term("covariate-mean", j=0)))
    s_bar = build_suffstats(d, spec)
    assert s_bar.tolist() == [[0.5, 3.0]]


def test_own_unit_is_included():
    d = Dataset(np.array([0.0]), np.array([1]), np.array([[7.0]]), ["solo"])
    s_bar = build_suffstats(d, mundlak_spec(1))
    assert s_bar[0].tolist() == [1.0, 7.0]


def test_against_double_loop_oracle():
    d = random_dataset(seed=3)
    spec = full_kind_spec()
    s_bar = build_suffstats(d, spec)[d.cluster_index]
    term_values = np.column_stack([t.unit_values(d) for t in spec.terms])
    cluster_ids = [d.cluster_labels[i] for i in d.cluster_index]
    want = oracles.naive_suffstat_means(cluster_ids, term_values)
    assert np.max(np.abs(s_bar - want)) < 1e-12


def test_cluster_rows_expand_to_unit_oracle():
    # One row per cluster in dense-id order: gathered at each unit's
    # cluster, the rows are the per-unit matrix the summaries used to
    # be, to the bit, for every term kind and for mixture posteriors.
    d = random_dataset(seed=5, n=300, n_clusters=40)
    s_bar = build_suffstats(d, full_kind_spec())
    assert s_bar.shape == (d.c, 5)
    want = oracles.unit_suffstats(d, full_kind_spec())
    assert np.array_equal(s_bar[d.cluster_index], want)
    m = generate(dgp_preset("separated-mixture", c=40), 2).dataset
    for p in (1, 2, 3):
        post = posterior_suffstat(em_fit(m, p=p, seed=1, restarts=2), m)
        s_bar = augment_with_posterior(post)
        assert s_bar.shape == (m.c, max(p - 1, 1))
        assert np.array_equal(s_bar[m.cluster_index],
                              oracles.unit_posterior_summaries(m, post))


def test_build_suffstats_holds_one_row_per_cluster():
    # 200,000 units in 20,000 clusters, six terms: the result holds
    # 8 c t bytes (0.96 MB), where the unit rows held 8 n t (9.6 MB).
    # The peak adds one term's temporaries (the term values and the
    # copies np.bincount makes, about 22 bytes a unit here); with the
    # unit rows it read 66.
    d = generate(dgp_preset("nonlinear-u", c=20_000, n_c=10), 0).dataset
    spec = StatSpec(terms=(
        Term("treatment-mean"),
        Term("covariate-mean", j=0),
        Term("covariate-mean", j=1),
        Term("covariate-second-moment", j=0, k2=1),
        Term("covariate-treatment-interaction", j=1),
        Term("custom-transform", tag="log:0"),
    ))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        s_bar = build_suffstats(d, spec)
        held, peak = (v - before for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert s_bar.shape == (d.c, len(spec))
    assert held <= s_bar.nbytes + 4096, held
    assert peak <= 24 * d.n + 2 * s_bar.nbytes, peak / d.n


def test_within_cluster_constancy_is_exact():
    d = random_dataset(seed=4)
    s_bar = build_suffstats(d, full_kind_spec())[d.cluster_index]
    for cid in range(d.c):
        rows = np.flatnonzero(d.cluster_index == cid)
        first = s_bar[rows[0]]
        for r in rows[1:]:
            assert np.array_equal(s_bar[r], first)


def test_mundlak_spec_order_and_names():
    spec = mundlak_spec(3)
    assert spec.names == ["w_bar", "x0_bar", "x1_bar", "x2_bar"]
    assert mundlak_spec(0).names == ["w_bar"]
    with pytest.raises(InputError):
        mundlak_spec(-1)


def test_statspec_json_round_trip():
    spec = full_kind_spec()
    again = StatSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert again.names == spec.names


def test_statspec_json_rejects_unknown_fields():
    with pytest.raises(InputError):
        StatSpec.from_dict({"terms": [{"kind": "treatment-mean"}], "x": 1})
    with pytest.raises(InputError):
        StatSpec.from_dict({"terms": [{"kind": "treatment-mean", "zz": 1}]})
    with pytest.raises(InputError):
        StatSpec.from_dict({"terms": [{"kind": "no-such-kind"}]})
    with pytest.raises(InputError):
        StatSpec.from_dict("not an object")


def test_duplicate_terms_rejected():
    with pytest.raises(InputError, match="duplicate"):
        StatSpec(terms=(Term("treatment-mean"), Term("treatment-mean")))


def test_out_of_range_covariate_index():
    d = random_dataset(k=2)
    spec = StatSpec(terms=(Term("covariate-mean", j=5),))
    with pytest.raises(InputError, match="covariate"):
        build_suffstats(d, spec)


def test_builtin_transforms():
    d = Dataset(np.zeros(2), np.array([0, 1]),
                np.array([[4.0, -9.0], [1.0, 2.0]]), ["a", "a"])
    def values(tag):
        return Term("custom-transform", tag=tag).unit_values(d)

    assert values("log:0") == pytest.approx(np.log([4.0, 1.0]))
    assert values("square:1").tolist() == [81.0, 4.0]
    assert values("clip:1").tolist() == [-3.0, 2.0]
    # A bad tag is refused when the term is made, before any data.
    with pytest.raises(InputError, match="unknown transform tag"):
        Term("custom-transform", tag="no-such-tag")
    with pytest.raises(InputError, match="bad covariate index"):
        Term("custom-transform", tag="log:zz")


def test_registered_transform_used_in_spec():
    d = Dataset(np.zeros(2), np.array([0, 1]),
                np.array([[-2.0], [4.0]]), ["a", "a"])
    s_bar = build_suffstats(
        d, StatSpec(terms=(Term("custom-transform", tag="square:0"),))
    )
    assert s_bar.tolist() == [[10.0]]
    # and the tag survives serialization
    spec = StatSpec(terms=(Term("custom-transform", tag="square:0"),))
    assert StatSpec.from_dict(spec.to_dict()) == spec


def test_overlap_set_rule_and_override():
    e = np.array([0.01, 0.05, 0.06, 0.5, 0.94, 0.95, 0.99])
    a = overlap_set(e)  # default threshold 0.05
    assert a.tolist() == [0, 0, 1, 1, 1, 0, 0]
    with pytest.raises(InputError):
        overlap_set(e, eta=0.7)


def test_overlap_set_eta_none_keeps_every_unit():
    e = np.array([0.0, 1e-10, 0.5, 1.0])
    a = overlap_set(e, eta=None)
    assert a.tolist() == [1, 1, 1, 1] and a.dtype == np.int8


@settings(max_examples=50, deadline=None)
@given(
    eta1=st.floats(min_value=0.0, max_value=0.49, exclude_max=True),
    eta2=st.floats(min_value=0.0, max_value=0.49, exclude_max=True),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_overlap_monotone_in_threshold(eta1, eta2, seed):
    lo, hi = sorted([eta1, eta2])
    e = np.random.default_rng(seed).random(30)
    wide = overlap_set(e, eta=lo)
    narrow = overlap_set(e, eta=hi)
    # tightening the threshold can only remove units
    assert np.all(narrow <= wide)
