"""Container, CSV round-trip, and validation behavior."""

import csv
import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdr import (
    CsvSchema,
    Dataset,
    InputError,
    PanelData,
    load_csv,
    load_panel_csv,
    validate,
    write_csv,
)
from clusterdr.dataset import _CHUNK_ROWS, group_means, intern_labels

import oracles


def small_dataset():
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    w = np.array([1, 0, 1, 1, 0, 0, 1])
    x = np.array([[0.5, -1.0], [1.5, 0.0], [2.5, 1.0], [3.5, 2.0],
                  [4.5, 3.0], [5.5, 4.0], [6.5, 5.0]])
    labels = ["b", "b", "a", "a", "a", "zz", "zz"]
    return Dataset(y, w, x, labels)


def test_dense_ids_follow_first_appearance():
    d = small_dataset()
    assert d.cluster_labels == ["b", "a", "zz"]
    assert d.cluster_index.tolist() == [0, 0, 1, 1, 1, 2, 2]
    assert d.n == 7 and d.c == 3 and d.k == 2
    assert d.n_c.tolist() == [2, 3, 2]


def test_treatment_must_be_binary():
    with pytest.raises(InputError):
        Dataset(np.zeros(2), np.array([0, 2]), np.zeros((2, 1)), ["a", "b"])


def test_nonfinite_covariates_rejected():
    with pytest.raises(InputError):
        Dataset(np.zeros(2), np.array([0, 1]),
                np.array([[1.0], [np.inf]]), ["a", "b"])


def test_csv_round_trip(tmp_path):
    d = small_dataset()
    path = tmp_path / "data.csv"
    write_csv(d, path)
    d2 = load_csv(path)
    assert np.array_equal(d.y, d2.y)
    assert np.array_equal(d.w, d2.w)
    assert np.array_equal(d.x, d2.x)
    assert d2.cluster_labels == d.cluster_labels
    assert np.array_equal(d.cluster_index, d2.cluster_index)
    # a second round trip is byte-stable
    path2 = tmp_path / "data2.csv"
    write_csv(d2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_csv_schema_and_errors(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("resp,arm,site,age\n1.0,1,s1,33\n2.0,0,s2,44\n")
    schema = CsvSchema(outcome="resp", treatment="arm", cluster="site",
                       covariates=["age"])
    d = load_csv(path, schema)
    assert d.n == 2 and d.k == 1
    assert d.cluster_labels == ["s1", "s2"]

    with pytest.raises(InputError, match="missing column"):
        load_csv(path, CsvSchema(outcome="nope"))

    bad = tmp_path / "bad.csv"
    bad.write_text("y,w,cluster,x1\n1.0,1,a,oops\n")
    with pytest.raises(InputError, match="not numeric"):
        load_csv(bad)

    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("y,w,cluster,x1\n1.0,5,a,1.0\n")
    with pytest.raises(InputError, match="treatment"):
        load_csv(bad2)

    bad3 = tmp_path / "bad3.csv"
    bad3.write_text("y,w,cluster,x1\n1.0,1,a,\n")
    with pytest.raises(InputError, match="missing covariate"):
        load_csv(bad3)

    bad4 = tmp_path / "bad4.csv"
    bad4.write_text("y,w,cluster,x1\n1.0,1,a,nan\n")
    with pytest.raises(InputError, match="not finite"):
        load_csv(bad4)


def test_nan_outcome_loads_and_validate_flags_it(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("y,w,cluster,x1\nnan,1,a,1.0\n2.0,0,a,2.0\n")
    d = load_csv(path)
    assert math.isnan(d.y[0])
    report = validate(d)
    assert not report.ok
    assert any("NaN outcome" in e for e in report.errors)


def test_validate_degenerate_and_singleton():
    y = np.arange(6.0)
    w = np.array([1, 1, 0, 1, 0, 1])
    x = np.zeros((6, 1))
    labels = ["a", "a", "b", "b", "c", "d"]  # a all-treated, c and d singletons
    report = validate(Dataset(y, w, x, labels))
    assert report.ok  # warnings only
    assert 0 in report.degenerate_clusters  # cluster "a"
    assert 2 in report.degenerate_clusters and 3 in report.degenerate_clusters
    assert sum("single unit" in m for m in report.warnings) == 2
    assert any("all-treated" in m for m in report.warnings)


def test_cluster_means_match_csv_oracle(tmp_path):
    rng = np.random.default_rng(0)
    n = 60
    labels = [f"c{int(v)}" for v in rng.integers(0, 7, size=n)]
    y = rng.standard_normal(n)
    w = rng.integers(0, 2, size=n)
    x = rng.standard_normal((n, 2))
    d = Dataset(y, w, x, labels)
    path = tmp_path / "m.csv"
    write_csv(d, path, CsvSchema(covariates=["x1", "x2"]))
    want = oracles.cluster_means_from_csv(path, "cluster", ["y", "x1", "x2"])
    got_y = d.cluster_means(d.y)
    got_x = d.cluster_means(d.x)
    for cid, label in enumerate(d.cluster_labels):
        assert got_y[cid] == pytest.approx(want[label]["y"], abs=1e-12)
        assert got_x[cid, 0] == pytest.approx(want[label]["x1"], abs=1e-12)
        assert got_x[cid, 1] == pytest.approx(want[label]["x2"], abs=1e-12)


def test_degenerate_clusters_are_retained():
    y = np.arange(4.0)
    w = np.array([1, 1, 0, 1])
    d = Dataset(y, w, np.zeros((4, 1)), ["a", "a", "b", "b"])
    report = validate(d)
    assert report.degenerate_clusters == [0]
    assert d.c == 2  # nothing was silently removed


_LABELS = st.one_of(
    st.text(max_size=3),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.tuples(st.integers(min_value=0, max_value=2), st.text(max_size=1)),
)


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(_LABELS, min_size=8, max_size=8),
       units=st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                                st.integers(min_value=0, max_value=1)),
                      min_size=1, max_size=40))
def test_validate_matches_loop_oracle(pool, units):
    # Interleaved clusters of random sizes and arms: singletons,
    # all-treated and all-control clusters, labels of mixed types.
    labels = [pool[j] for j, _ in units]
    w = np.array([wi for _, wi in units])
    n = len(units)
    report = validate(Dataset(np.arange(float(n)), w, np.zeros((n, 1)),
                              labels))
    warnings, degenerate = oracles.cluster_warnings(w.tolist(), labels)
    assert report.warnings == warnings
    assert report.degenerate_clusters == degenerate


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(_LABELS, min_size=8, max_size=8),
       picks=st.lists(st.integers(min_value=0, max_value=7), max_size=40))
def test_intern_labels_matches_loop_oracle(pool, picks):
    # The one interning path of Dataset, make_panel and the selector.
    labels = [pool[j] for j in picks]
    ids, distinct = intern_labels(labels)
    want_ids, n_distinct = oracles.setdefault_ids(labels)
    assert ids.dtype == np.int64 and ids.tolist() == want_ids
    assert len(distinct) == n_distinct
    assert [distinct[i] for i in ids] == labels
    # dense integer ids, as the selector gets them, come back unchanged
    again, _ = intern_labels(np.asarray(want_ids, dtype=np.int64))
    assert again.tolist() == want_ids


_VALUES = st.floats(min_value=-1e3, max_value=1e3)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_groups=st.integers(min_value=1, max_value=6),
       m=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
       weighted=st.booleans())
def test_group_means_match_loop_oracle(data, n_groups, m, weighted):
    # Every group has a row; groups without extra rows are one-row
    # groups, and the ids come in any order. m=None draws a vector.
    extra = data.draw(st.lists(st.integers(min_value=0,
                                           max_value=n_groups - 1),
                               max_size=20))
    ids = np.array(data.draw(st.permutations(list(range(n_groups)) + extra)),
                   dtype=np.int64)
    n = ids.size
    width = 1 if m is None else m
    rows = data.draw(st.lists(st.lists(_VALUES, min_size=width,
                                       max_size=width),
                              min_size=n, max_size=n))
    values = np.array(rows).reshape(n, width)
    if m is None:
        values = values[:, 0]
    weights = None
    if weighted:
        weights = np.array(data.draw(st.lists(
            st.floats(min_value=1e-3, max_value=1e3), min_size=n,
            max_size=n)))
    got = group_means(ids, values, n_groups, weights)
    want = oracles.loop_group_means(ids, values, n_groups, weights)
    assert got.shape == want.shape == (
        (n_groups,) if m is None else (n_groups, m))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 0.1, 1e300]),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=12),
       k=st.integers(min_value=0, max_value=3))
def test_write_csv_matches_row_loop_oracle(tmp_path_factory, data, n, k):
    y = data.draw(st.lists(st.one_of(_CELLS, st.just(math.nan)),
                           min_size=n, max_size=n))
    w = data.draw(st.lists(st.integers(min_value=0, max_value=1),
                           min_size=n, max_size=n))
    x = data.draw(st.lists(st.lists(_CELLS, min_size=k, max_size=k),
                           min_size=n, max_size=n))
    labels = data.draw(st.lists(_LABELS, min_size=n, max_size=n))
    d = Dataset(np.array(y), np.array(w), np.array(x).reshape(n, k), labels)
    out = tmp_path_factory.mktemp("csv")
    got, want = out / "columns.csv", out / "rows.csv"
    write_csv(d, got)
    header = ["y", "w", "cluster"] + [f"x{j + 1}" for j in range(k)]
    oracles.rowwise_write_csv(d, want, header)
    assert got.read_bytes() == want.read_bytes()


_PANEL_LABELS = st.one_of(
    st.text(st.characters(min_codepoint=32, max_codepoint=0x24F),
            min_size=1, max_size=3),
    st.integers(min_value=-3, max_value=30).map(str),
    st.sampled_from(["1", "01", "1.0", "1e0", " 1", "nan", "a,b", 'q"t']),
)
_PANEL_CELLS = st.one_of(_CELLS, st.sampled_from([-0.0, 5e-324]))


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       units=st.lists(_PANEL_LABELS, min_size=1, max_size=4, unique=True),
       times=st.lists(_PANEL_LABELS, min_size=1, max_size=4, unique=True),
       k=st.integers(min_value=0, max_value=3),
       names=st.sampled_from([("unit", "time", "y", "w"),
                              ("firm", "year", "out", "treat")]))
def test_load_panel_csv_matches_dictreader_oracle(tmp_path_factory, data,
                                                  units, times, k, names):
    unit, time_, outcome, treatment = names
    xnames = [f"x{j}" for j in range(k)]
    covariates = data.draw(st.one_of(
        st.none(), st.just(xnames[::-1]),
        st.lists(st.sampled_from(xnames), unique=True) if k else st.just([]),
    ))
    extra = ["note"] if covariates is not None else []
    header = data.draw(st.permutations([*names, *xnames, *extra]))
    cells = data.draw(st.permutations(
        [(u, t) for u in units for t in times]))
    rows = []
    for u, t in cells:
        value = {unit: u, time_: t, "note": data.draw(st.text(max_size=3)),
                 outcome: repr(data.draw(st.one_of(_PANEL_CELLS,
                                                   st.just(math.nan)))),
                 treatment: data.draw(st.sampled_from(["0", "1", "1.0"]))}
        value.update({c: repr(data.draw(_PANEL_CELLS)) for c in xnames})
        row = [value[col] for col in header]
        if data.draw(st.booleans()):
            row.append("extra field")
        rows.append(row)
        if data.draw(st.integers(min_value=0, max_value=4)) == 0:
            rows.append([])
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    kwargs = dict(unit=unit, time=time_, outcome=outcome,
                  treatment=treatment, covariates=covariates)
    got = load_panel_csv(path, **kwargs)
    want = oracles.dictreader_load_panel(path, **kwargs)
    for f in dataclasses.fields(PanelData):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            # bytes equality: NaN-aware and tells -0.0 from 0.0
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def test_validate_scales_to_many_clusters():
    # One unit per cluster: every cluster draws two warnings.
    n = 200_000
    start = time.perf_counter()
    d = Dataset(np.zeros(n), np.arange(n) % 2, np.zeros((n, 1)),
                [f"c{i}" for i in range(n)])
    report = validate(d)
    elapsed = time.perf_counter() - start
    assert d.c == n
    assert len(report.warnings) == 2 * n
    assert report.degenerate_clusters[-1] == n - 1
    assert elapsed < 30.0


@pytest.mark.parametrize("text, message", [
    # blank lines are skipped and not counted
    ("y,w,cluster,x1\n\n1,1,a,0\n\n\n2,0,a,oops\n",
     "row 3: column 'x1' value 'oops' is not numeric"),
    # a short row reads as missing fields
    ("y,w,cluster,x1\n1,1,a\n", "row 2: missing covariate 'x1'"),
    ("y,w,cluster,x1\n1\n", "row 2: column 'w' value None is not numeric"),
    ("y,w,cluster,x1\n1,1\n", "row 2: empty cluster label"),
    # within a row: outcome, treatment, label, covariates
    ("y,w,cluster,x1\nz,2,,q\n", "row 2: column 'y' value 'z'"),
    ("y,w,cluster,x1\n1,2,,q\n", "row 2: treatment must be 0 or 1, got 2.0"),
    ("y,w,cluster,x1\n1,1,,q\n", "row 2: empty cluster label"),
    ("y,w,cluster,x1\n1,1,a,inf\n", "row 2: covariate 'x1' is not finite"),
    ("y,w,cluster,x1\n1,1,a,-inf\n", "row 2: covariate 'x1' is not finite"),
    ("y,w,cluster,x1\n1,nan,a,0\n", "row 2: treatment must be 0 or 1, got nan"),
    # of duplicate header names the last column wins, missing included
    ("y,w,cluster,x1,x1\n1,1,a,0.5\n", "row 2: missing covariate 'x1'"),
])
def test_load_csv_error_cells(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InputError, match="^" + message):
        load_csv(path)


def test_load_csv_bad_cell_past_first_chunk(tmp_path):
    n = 2 * _CHUNK_ROWS + 100
    lines = [f"{i}.5,{i % 2},c{i % 7},{i}" for i in range(n)]
    lines[_CHUNK_ROWS + 50] = "1.0,1,a,"
    lines[_CHUNK_ROWS + 60] = "oops,1,a,1.0"
    path = tmp_path / "big.csv"
    path.write_text("y,w,cluster,x1\n" + "\n".join(lines) + "\n")
    with pytest.raises(InputError,
                       match=f"^row {_CHUNK_ROWS + 52}: missing covariate"):
        load_csv(path)
    del lines[_CHUNK_ROWS + 50]
    path.write_text("y,w,cluster,x1\n" + "\n".join(lines) + "\n")
    with pytest.raises(InputError,
                       match=f"^row {_CHUNK_ROWS + 61}: column 'y'"):
        load_csv(path)
    del lines[_CHUNK_ROWS + 59]
    path.write_text("y,w,cluster,x1\n" + "\n".join(lines) + "\n")
    d = load_csv(path)
    assert d.n == n - 2 and d.c == 7
    assert d.x[-1, 0] == n - 1 and d.y[0] == 0.5


def test_load_csv_accepted_variants(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text(
        "y,w,cluster,x1,x2,x2\n"
        "nan,1.0,\"a,b\",0.5,9,7,extra,fields\n"
        "\n"
        "2, 0 ,a,1e3,9,-0.0\n"
    )
    d = load_csv(path)
    assert d.n == 2 and d.k == 3
    assert math.isnan(d.y[0]) and d.y[1] == 2.0
    assert d.w.tolist() == [1, 0]
    assert d.cluster_labels == ["a,b", "a"]
    # covariates x1, x2, x2 with the last x2 column read twice
    assert d.x.tolist() == [[0.5, 7.0, 7.0], [1000.0, -0.0, -0.0]]
    assert d.x.flags.c_contiguous
