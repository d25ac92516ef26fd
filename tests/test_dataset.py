"""Container, CSV round-trip, and validation behavior."""

import csv
import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdr import (
    CsvSchema,
    Dataset,
    InputError,
    PanelData,
    dgp_preset,
    generate,
    load_csv,
    load_panel_csv,
    validate,
    write_csv,
)
from clusterdr import dataset
from clusterdr.dataset import (
    group_means,
    intern_labels,
    read_units,
)

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


def test_dataset_keeps_and_freezes_callers_float64_arrays():
    # No copy: the caller's float64 arrays become the dataset's columns
    # and can no longer be written. Inputs numpy has to convert are
    # copied, and the caller's originals stay writable.
    y, w, x = np.zeros(4), np.array([0.0, 1.0, 0.0, 1.0]), np.ones((4, 2))
    w_int = np.array([0, 1, 0, 1])
    d = Dataset(y, w, x, ["a", "a", "b", "b"])
    assert d.y is y and d.w is w and d.x is x
    for arr in (y, w, x):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    d2 = Dataset(y.copy(), w_int, x.copy(), ["a", "a", "b", "b"])
    assert w_int.flags.writeable and d2.w.dtype == np.float64
    assert not d2.w.flags.writeable


def test_dense_id_path_keeps_the_constructor_checks():
    ids, labels = np.array([0, 0, 1]), ["p", "q"]
    d = Dataset._from_ids(np.arange(3.0), np.array([1, 0, 1]),
                          np.zeros((3, 1)), ids, labels)
    want = Dataset(np.arange(3.0), np.array([1, 0, 1]), np.zeros((3, 1)),
                   ["p", "p", "q"])
    assert d.cluster_labels == want.cluster_labels
    assert d.cluster_index.tolist() == want.cluster_index.tolist()
    assert d.n_c.tolist() == want.n_c.tolist()
    with pytest.raises(InputError, match="treatment must be 0 or 1"):
        Dataset._from_ids(np.zeros(3), np.array([0, 2, 1]), np.zeros((3, 1)),
                          ids, labels)
    with pytest.raises(InputError, match="non-finite covariate"):
        Dataset._from_ids(np.zeros(3), np.zeros(3),
                          np.array([[0.0], [np.nan], [1.0]]), ids, labels)
    with pytest.raises(InputError, match="got 2 cluster labels, expected 3"):
        Dataset._from_ids(np.zeros(3), np.zeros(3), np.zeros((3, 1)),
                          ids[:2], labels)


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


def test_write_csv_writes_treatment_as_integers(tmp_path):
    # The treatment is held as float64 and written as 0/1, never 0.0/1.0.
    d = small_dataset()
    assert d.w.dtype == np.float64
    path = tmp_path / "data.csv"
    write_csv(d, path)
    with open(path, newline="") as fh:
        column = [row[1] for row in csv.reader(fh)]
    assert column == ["w", "1", "0", "1", "1", "0", "0", "1"]


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
    assert report.warning_counts == {
        kind: sum(m.endswith(tail) if kind == "single_unit" else tail in m
                  for m in warnings)
        for kind, tail in (("single_unit", "has a single unit"),
                           ("all_treated", " is all-treated ("),
                           ("all_control", " is all-control ("))}


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


def test_intern_labels_returns_new_str_objects():
    # Strings made at run time, as a parse makes them; the distinct
    # labels kept must not be the parsed objects, so that those can be
    # freed with the memory they filled.
    labels = [f"c{i % 3}{'é' * (i % 2)}" for i in range(12)] + ["€"]
    ids, distinct = intern_labels(labels)
    assert distinct == list(dict.fromkeys(labels))
    assert all(type(lab) is str for lab in distinct)
    given_ids = {id(lab) for lab in labels}
    assert not any(id(lab) in given_ids for lab in distinct)
    # other labels are kept as they are
    key = (1, "a")
    assert intern_labels([key, 2, key])[1][0] is key


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmRSS from /proc/self/status")
def test_load_csv_resident_memory_per_unit(tmp_path):
    # 200k rows with 20,000 distinct labels. What stays resident after
    # the load is the dataset (40 bytes a unit) and what the parse left
    # behind; keeping the parsed first occurrences of the labels held
    # about 120 bytes a unit.
    path = tmp_path / "units.csv"
    write_csv(generate(dgp_preset("nonlinear-u", c=20_000, n_c=10),
                       seed=0).dataset, path)
    script = (
        "import sys\n"
        "from clusterdr import load_csv\n"
        "def rss():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        for line in fh:\n"
        "            if line.startswith('VmRSS:'):\n"
        "                return int(line.split()[1]) * 1024\n"
        "before = rss()\n"
        "d = load_csv(sys.argv[1])\n"
        "print((rss() - before) / d.n)\n")
    src = str(Path(dataset.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                         capture_output=True, text=True, check=True)
    per_unit = float(out.stdout)
    assert per_unit <= 90, per_unit


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


def test_cluster_means_divide_by_the_stored_sizes():
    # Unweighted cluster means divide by Dataset.n_c instead of counting
    # the units again, and give the bits that counting gives.
    rng = np.random.default_rng(0)
    ids = np.repeat(np.arange(50), rng.integers(1, 9, 50))
    x = rng.standard_normal((ids.size, 3))
    d = Dataset(rng.standard_normal(ids.size), ids % 2, x, ids)
    assert np.array_equal(d.cluster_means(x), group_means(ids, x, 50))
    assert np.array_equal(d.cluster_means(d.y), group_means(ids, d.y, 50))
    assert np.array_equal(group_means(ids, x, 50, counts=2 * d.n_c),
                          group_means(ids, x, 50) / 2)


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


_TABLE_TEXT = st.text(st.sampled_from(
    ["a", "7", " ", ",", '"', "\r", "\n", "\t", "\x00", "é", "€", "\u2028",
     "\U0001f600"]), max_size=4)
_TABLE_CELLS = st.one_of(
    _TABLE_TEXT, st.just(""), st.none(), st.integers(), st.booleans(),
    st.floats(), st.sampled_from([np.float64(0.5), np.int64(-3)]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.integers(min_value=1, max_value=4),
       n=st.integers(min_value=0, max_value=8))
def test_write_table_matches_csv_writer_oracle(tmp_path_factory, data,
                                               width, n):
    cells = _TABLE_TEXT if data.draw(st.booleans()) else _TABLE_CELLS
    header = data.draw(st.lists(_TABLE_TEXT, min_size=width,
                                max_size=width))
    rows = data.draw(st.lists(st.lists(cells, min_size=width,
                                       max_size=width),
                              min_size=n, max_size=n))
    out = tmp_path_factory.mktemp("table")
    got, want = out / "got.csv", out / "want.csv"
    dataset.write_table(got, header, [list(col) for col in zip(*rows)]
                        if rows else [[] for _ in header])
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert got.read_bytes() == want.read_bytes()


def test_write_table_blocks_keep_row_order(tmp_path):
    # more rows than one written block, with rows that need quoting
    # among rows joined directly
    labels = [f"g{i}" if i % 997 else f'g"{i},' for i in range(10_000)]
    path, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dataset.write_table(path, ["cluster", "i"],
                        [labels, map(str, range(10_000))])
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "i"])
        writer.writerows(zip(labels, range(10_000)))
    assert path.read_bytes() == want.read_bytes()


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
    n = 2 * 512 + 100
    lines = [f"{i}.5,{i % 2},c{i % 7},{i}" for i in range(n)]
    lines[512 + 50] = "1.0,1,a,"
    lines[512 + 60] = "oops,1,a,1.0"
    path = tmp_path / "big.csv"
    path.write_text("y,w,cluster,x1\n" + "\n".join(lines) + "\n")
    with pytest.raises(InputError,
                       match=f"^row {512 + 52}: missing covariate"):
        load_csv(path)
    del lines[512 + 50]
    path.write_text("y,w,cluster,x1\n" + "\n".join(lines) + "\n")
    with pytest.raises(InputError,
                       match=f"^row {512 + 61}: column 'y'"):
        load_csv(path)
    del lines[512 + 59]
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


# --- one-pass parse against the chunked reader ------------------------------

# Spellings float() accepts (numpy refuses 1_0 and non-ASCII digits, so
# those files take the row reader), then spellings of bad cells.
_GOOD_CELLS = {
    "y": ["nan", "-nan", "NaN", "inf", "-Infinity", "1e400", "5e-324", " 1",
          "1 ", "+1", "\t0", ".5", "1.", "007", "1_0", "\u0661", "\xa01",
          "\u30001"],
    "w": ["0", "1", "1.0", "-0", "+1", " 1", "1 ", "0.0", "1e0", "0_0",
          "\u0661"],
    "x": ["0", "-0.0", "5e-324", "1e300", " 1", "+1", ".5", "007", "1_0",
          "\u0661", "\xa01 "],
    "label": ["a", "b", "007", "1", "1.0", "a,b", 'q"t', '"', 'x""', "x\ny",
              "a\r\nb", "c\rd", " a ", "a ", "#c", "a#", " ", "\xe9", "\x85",
              "1_0"],
}
_BAD_CELLS = ["", " ", "oops", "0x10", "2", "0.5", "inf", "nan", "\x1c1",
              "1\x1f", "1\x00", '"', "a,b", "x\ny"]
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _unit_files(draw):
    """A header and rows of drawn spellings, each cell written bare or
    quoted, with blank, whitespace-only, short and long rows, and
    sometimes 600 good rows around them to cross the 512-row chunk."""
    n_labels = draw(st.sampled_from([1, 2]))
    label_cols = ["cluster"] if n_labels == 1 else ["unit", "time"]
    names = ["y", "w", *label_cols, "x1", "x2"]
    header = draw(st.permutations(names))
    header += draw(st.lists(st.sampled_from(names + ["note"]), max_size=2))
    covariates = draw(st.sampled_from([
        None, None, None, [], ["x2", "x1"], ["x1", "x1"],
        ["x1", label_cols[0]],
    ]))
    end = draw(_LINE_ENDS)

    def cell(text):
        # mostly as csv.writer would write it, sometimes bare regardless
        special = any(ch in text for ch in ',"\r\n')
        if draw(st.integers(min_value=0, max_value=7 if special else 1)):
            return '"' + text.replace('"', '""') + '"'
        return text

    def line(values):
        return ",".join(map(cell, values))

    def good_row(i):
        value = {"y": f"{i}.5", "w": str(i % 2), "x1": str(i), "x2": "-0.0",
                 "note": "n"}
        value.update({col: f"g{i % 7}" for col in label_cols})
        return ",".join(value[col] for col in header)

    def spelling(col):
        if draw(st.integers(min_value=0, max_value=15)) == 0:
            return draw(st.sampled_from(_BAD_CELLS))
        kind = ("label" if col in label_cols or col == "note"
                else col[0])
        if kind == "label" and draw(st.booleans()):
            return draw(st.text(st.sampled_from(
                ["a", "1", " ", ",", '"', "\n", "\r", "#", "\xe9"]),
                min_size=1, max_size=4))
        if kind in "xy" and draw(st.booleans()):
            return repr(draw(st.floats(allow_nan=kind == "y",
                                       allow_infinity=kind == "y")))
        return draw(st.sampled_from(_GOOD_CELLS[kind]))

    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank"] * 3
                                    + ["space", "short", "long"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
            continue
        values = [spelling(col) for col in header]
        if kind == "short":
            values = values[:draw(st.integers(0, len(values) - 1))]
        if kind == "long":
            values += [spelling("note")
                       for _ in range(draw(st.integers(1, 2)))]
        lines.append(line(values))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        cut = draw(st.integers(min_value=0, max_value=len(lines)))
        lines[cut:cut] = [good_row(i) for i in range(600)]
    text = end.join([line(header)] + lines)
    if lines and draw(st.booleans()):
        text += end
    return text, {col: col for col in label_cols}, covariates


def _same_units(path, labels, covariates):
    kwargs = dict(outcome="y", treatment="w", labels=labels,
                  covariates=covariates)
    try:
        want = oracles.chunked_read_units(path, **kwargs)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            read_units(path, **kwargs)
        assert str(got.value) == str(exc)
        return
    got = read_units(path, **kwargs)
    for i in (0, 1, 3):
        a, b = got[i], want[i]
        assert (a.dtype, a.shape, a.flags.c_contiguous) == \
            (b.dtype, b.shape, b.flags.c_contiguous)
        assert a.tobytes() == b.tobytes()
    assert got[2] == want[2]


@pytest.mark.parametrize("text", [
    "y,w,cluster,x1\n1_0,1,a,0\n",
    "y,w,cluster,x1\n 1 ,+1,a, 2\t\n",
    "y,w,cluster,x1\nnan,1,a,0\n-nan,0,a,0\ninf,1,a,-0.0\n",
    "y,w,cluster,x1\n-Infinity,1,a,5e-324\n1e400,0,a,0\n",
    "y,w,cluster,x1\n1,1,a,1e400\n",
    "y,w,cluster,x1\n\u0661,1,a,0\n",
    "y,w,cluster,x1\n\u30001,1,a,\xa02\n",
    "y,w,cluster,x1\n\x1c1,1,a,0\n",
    "y,w,cluster,x1\n1,1,a,0\x1f\n",
    "y,w,cluster,x1\n1,1,a\x1eb,0\n",
    'y,w,cluster,x1\n1,1,"a,""b""\nc",0\n2,0,"",1\n',
    'y,w,cluster,x1\n1,1,"a",0\n2,0,a"b,1\n3,1,"a"b,2\n',
    "y,w,cluster,x1\n1,1,a,0\n\n   \n",
    "y,w,cluster,x1\n1,1,a,0\n\n\n2,0,b,1\n",
    "y,w,cluster,x1\r\n1,1,a,0\r\n\r\n2,0,b,1\r\n",
    "y,w,cluster,x1\r1,1,a,0\r2,0,b,1\r",
    "y,w,cluster,x1\n1,1,a,0,extra,fields\n",
    "y,w,cluster,x1\n1,1,a\n",
    "y,w,cluster,x1,x1\n1,1,a,0.5\n",
    "y,w,cluster,x1,x1\n1,1,a,x,0.5\n",
    "y,w,cluster,x1\n1,1,007,0\n2,0,7,0\n3,1,#c,0\n4,0, a ,0\n",
    '"y","w","clu\nster",x1\n1,1,a,0\n',
], ids=["underscore", "spaces-plus", "nan-inf", "infinity-subnormal",
        "covariate-1e400", "arabic-digit", "unicode-spaces", "fs-before-y",
        "us-after-x", "rs-in-label", "quoted-escapes", "quote-mid-field",
        "whitespace-line", "blank-lines", "crlf", "cr", "extra-fields",
        "short-row", "duplicate-header", "duplicate-header-bad",
        "label-spellings", "quoted-newline-header"])
def test_read_units_spellings_match_chunked_reader(tmp_path, text):
    path = tmp_path / "units.csv"
    path.write_text(text, newline="")
    cluster = "clu\nster" if text.startswith('"y"') else "cluster"
    _same_units(path, {"cluster": cluster}, None)


@settings(max_examples=300, deadline=None)
@given(drawn=_unit_files())
def test_read_units_matches_chunked_reader(tmp_path_factory, drawn):
    text, labels, covariates = drawn
    path = tmp_path_factory.mktemp("units") / "units.csv"
    path.write_text(text, newline="")
    _same_units(path, labels, covariates)


def test_label_past_csv_field_limit(tmp_path):
    limit = csv.field_size_limit()
    long = "c" * (limit + 1)
    path = tmp_path / "long.csv"
    # the one-pass parse has no field limit, and neither has the row
    # reader, to which numpy's refusal of 1_0 sends the file
    for y in ("10", "1_0"):
        path.write_text(f"y,w,cluster,x1\n{y},1,{long},0.5\n2,0,b,0.25\n")
        d = load_csv(path)
        assert d.cluster_labels == [long, "b"] and d.y.tolist() == [10.0, 2.0]
    # the row reader reads past a long cell to the first bad one
    good = [f"{i}.5,{i % 2},g{i % 3},{i}" for i in range(600)]
    path.write_text("y,w,cluster,x1\n" + "\n".join(
        good + ["", f"1,1,{long},0.5", "2,0,b,oops"]) + "\n")
    with pytest.raises(InputError, match="^row 603: column 'x1' value 'oops'"):
        load_csv(path)
    path.write_text("y,w,cluster,x1\n" + "\n".join(
        good + ["2,0,b,oops", f"1,1,{long},0.5"]) + "\n")
    with pytest.raises(InputError, match="^row 602: column 'x1' value 'oops'"):
        load_csv(path)
    path.write_text(f"y,w,cluster,{long}\n1,1,a,0.5\n")
    assert load_csv(path).x.tolist() == [[0.5]]
    assert csv.field_size_limit() == limit


def _read_through_pipe(text, read):
    """Return ``read(path)`` for a ``/dev/fd`` path of a pipe that a
    thread fills with ``text`` (``str``, or ``bytes`` as they are)."""
    r, w = os.pipe()

    def feed():
        view = memoryview(text if isinstance(text, bytes) else text.encode())
        try:
            while view:
                view = view[os.write(w, view):]
        except BrokenPipeError:  # the reader closed the pipe early
            pass
        finally:
            os.close(w)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("bad", [None, "x1", "y"])
def test_read_units_from_a_pipe(tmp_path, bad):
    """A pipe is held in memory and parsed like the file, to the same
    arrays and the same row-numbered errors: far more rows than one
    buffer, and a bad cell past the first 512 rows."""
    rows = [f'{i}.25,{i % 2},"g,{i % 7}",{i % 11}e-3' for i in range(3000)]
    if bad == "x1":
        rows[1500] = '1,1,"a",oops'
    elif bad == "y":
        rows[700] = '1_0,1,"a",0'
    text = "y,w,cluster,x1\n" + "\n".join(rows) + "\n"
    path = tmp_path / "units.csv"
    path.write_text(text, newline="")

    def read(source):
        try:
            return read_units(source, "y", "w", {"cluster": "cluster"})
        except InputError as exc:
            return str(exc)

    want = read(path)
    got = _read_through_pipe(text, read)
    if bad == "x1":
        assert want == "row 1502: column 'x1' value 'oops' is not numeric"
        assert got == want
        return
    assert got[2] == want[2]
    for i in (0, 1, 3):
        assert got[i].tobytes() == want[i].tobytes()
    assert len(got[0]) == 3000


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("row", [1, 2999])
def test_read_units_not_utf8_from_file_and_pipe(tmp_path, row):
    """Bytes that are not UTF-8, early and past the first buffer, end in
    one InputError naming the path and the encoding, from the file (both
    parsers) and from a pipe."""
    rows = [f"{i}.5,{i % 2},g{i % 7},{i}".encode() for i in range(3000)]
    rows[row] = b"1,1,caf\xe9,0.5"
    data = b"y,w,cluster,x1\n" + b"\n".join(rows) + b"\n"
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)

    def read(source):
        with pytest.raises(InputError) as exc:
            read_units(source, "y", "w", {"cluster": "cluster"})
        return str(exc.value).replace(str(source), "<path>")

    want = "<path>: not valid utf-8 text (invalid continuation byte)"
    assert read(path) == want
    assert _read_through_pipe(data, read) == want


def _refuse_row_reader(*args, **kwargs):
    raise AssertionError("the one-pass parse refused the file")


def test_not_utf8_past_first_buffer_skips_the_row_reader(tmp_path,
                                                         monkeypatch):
    """numpy's decode error ends the read: the row reader does not decode
    the file a second time, and the message is the one it would give."""
    rows = [f"{i}.5,{i % 2},g{i % 7},{i}".encode() for i in range(3000)]
    rows[-1] = b"1,1,caf\xe9,0.5"
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,w,cluster,x1\n" + b"\n".join(rows) + b"\n")
    calls = []
    read_rows = dataset._read_rows

    def spy(*args, **kwargs):
        calls.append(args)
        return read_rows(*args, **kwargs)

    monkeypatch.setattr(dataset, "_read_rows", spy)
    with pytest.raises(InputError) as exc:
        read_units(path, "y", "w", {"cluster": "cluster"})
    assert calls == []
    assert str(exc.value) == (
        f"{path}: not valid utf-8 text (invalid continuation byte)")


@pytest.mark.parametrize("preset", ["nonlinear-u", "separated-mixture"])
def test_generated_csv_takes_the_one_pass_parse(tmp_path, preset):
    d = generate(dgp_preset(preset, c=40, n_c=5), seed=3).dataset
    path = tmp_path / "input.csv"
    write_csv(d, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_read_rows", _refuse_row_reader)
        got = load_csv(path)
    for name in ("y", "w", "x", "cluster_index"):
        assert getattr(got, name).tobytes() == getattr(d, name).tobytes()
    assert got.cluster_labels == d.cluster_labels


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("long_label", [False, True])
def test_pipe_takes_the_one_pass_parse(tmp_path, long_label):
    """A pipe is parsed once like a file, without the row reader, so a
    label longer than the csv module's field limit loads through it to
    the file's labels."""
    rows = [f'{i}.25,{i % 2},"g,{i % 7}",{i % 11}e-3' for i in range(3000)]
    if long_label:
        rows[1500] = f"1,1,{'c' * (csv.field_size_limit() + 1)},0.5"
    text = "y,w,cluster,x1\n" + "\n".join(rows) + "\n"
    path = tmp_path / "units.csv"
    path.write_text(text, newline="")

    def read(source):
        return read_units(source, "y", "w", {"cluster": "cluster"})

    want = read(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_read_rows", _refuse_row_reader)
        got = _read_through_pipe(text, read)
    assert got[2] == want[2]
    for i in (0, 1, 3):
        assert got[i].tobytes() == want[i].tobytes()
    assert len(got[0]) == 3000


_WRITTEN_LABELS = st.text(
    st.sampled_from(["a", "Z", "0", " ", ",", '"', "\n", "\r", "#", "'",
                     "\xe9", " "]),
    min_size=1, max_size=5,
)


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       units=st.lists(_WRITTEN_LABELS, min_size=1, max_size=4, unique=True),
       n_times=st.integers(min_value=1, max_value=3))
def test_write_csv_output_takes_the_one_pass_parse(tmp_path_factory, data,
                                                   units, n_times):
    """write_csv output with labels holding commas, quotes and newlines
    loads through load_csv and load_panel_csv without the row reader:
    the panel reads the cluster column as units and x1 as periods."""
    n = len(units) * n_times
    y = data.draw(st.lists(st.one_of(_CELLS, st.just(math.nan)),
                           min_size=n, max_size=n))
    w = data.draw(st.lists(st.integers(min_value=0, max_value=1),
                           min_size=n, max_size=n))
    x2 = data.draw(st.lists(_CELLS, min_size=n, max_size=n))
    cells = data.draw(st.permutations(
        [(u, t) for u in units for t in range(n_times)]))
    x = np.array([[float(t), v] for (_, t), v in zip(cells, x2)])
    d = Dataset(np.array(y), np.array(w), x, [u for u, _ in cells])
    path = tmp_path_factory.mktemp("written") / "units.csv"
    write_csv(d, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_read_rows", _refuse_row_reader)
        got = load_csv(path)
        panel = load_panel_csv(path, unit="cluster", time="x1",
                               covariates=["x2"])
    for name in ("y", "w", "x", "cluster_index"):
        assert getattr(got, name).tobytes() == getattr(d, name).tobytes()
    assert got.cluster_labels == d.cluster_labels
    assert (panel.n_units, panel.n_periods) == (len(units), n_times)
    assert panel.y.tobytes() == d.y.tobytes()
    assert panel.x[:, 0].tobytes() == d.x[:, 1].tobytes()
