"""Clustered cross-section containers and all CSV reading and writing.

A dataset is an ordered collection of units, each carrying an outcome,
a binary treatment, a covariate vector, and a cluster label. Labels may
be arbitrary strings or numbers; internally they are mapped to dense
integer ids in order of first appearance, and all numeric work runs on
contiguous arrays.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .exceptions import InputError

__all__ = [
    "Dataset",
    "ValidationReport",
    "CsvSchema",
    "load_csv",
    "write_csv",
    "validate",
]

def intern_labels(labels) -> tuple:
    """Dense int64 ids for a sequence of hashable labels, numbered in
    order of first appearance, and the distinct labels in that order.

    A distinct ``str`` label comes back as a new object equal to the
    first occurrence. A parse makes one string per row, and the first
    occurrences are spread over all the memory those strings filled;
    kept, they would hold all of it after the rows are freed."""
    id_of = {lab: j for j, lab in enumerate(dict.fromkeys(labels))}
    ids = np.fromiter(map(id_of.__getitem__, labels), dtype=np.int64,
                      count=len(labels))
    # str(), slicing and a one-item join would return the same object
    return ids, ["".join((lab, "")) if type(lab) is str else lab
                 for lab in id_of]


def group_means(index, values, n_groups: int, weights=None,
                counts=None) -> np.ndarray:
    """Mean of the rows of ``values`` in each group, in group id order.

    ``index`` holds each row's group id in ``0..n_groups-1``; every
    group needs at least one row. ``values`` is a vector of length n or
    an (n, m) matrix, and the result is (n_groups,) or (n_groups, m).
    With ``weights`` each row counts by its weight and a group's sum is
    divided by its total weight instead of its row count. ``counts``,
    the divisor of each group when given, spares counting them again.
    """
    values = np.asarray(values, dtype=float)
    cols = values.T if values.ndim == 2 else values[None, :]
    sums = np.empty((n_groups, cols.shape[0]))
    for j, col in enumerate(cols):
        sums[:, j] = np.bincount(
            index, weights=col if weights is None else col * weights,
            minlength=n_groups,
        )
    if counts is None:
        counts = np.bincount(index, weights=weights, minlength=n_groups)
    means = sums / counts[:, None]
    return means if values.ndim == 2 else means[:, 0]


@dataclass(frozen=True)
class CsvSchema:
    """Column names used when reading or writing CSV files.

    ``covariates=None`` means: every column not claimed by the other
    three roles, in header order.
    """

    outcome: str = "y"
    treatment: str = "w"
    cluster: str = "cluster"
    covariates: Optional[Sequence[str]] = None


class Dataset:
    """Immutable clustered dataset backed by dense arrays.

    Parameters
    ----------
    y : array of float, shape (n,)
        Outcomes. NaN values are permitted here and reported by
        :func:`validate`.
    w : array of 0/1 values, shape (n,)
        Binary treatment indicators, each exactly 0 or 1, stored as
        float64.
    x : array of float, shape (n, k)
        Covariates. Must be finite.
    cluster_labels : sequence of length n
        Cluster label per unit, any hashable values.

    Columns are not copied where numpy allows it: a float64 ``y`` or
    ``w`` and a 2-d float64 ``x`` are kept as given and marked
    read-only, so the caller can no longer write to those arrays (pass
    ``a.copy()`` to keep a writable one), and a write to an array they
    are views of changes the dataset. Not copying keeps
    :func:`load_csv` from holding each column twice.
    """

    def __init__(self, y, w, x, cluster_labels):
        self._store(y, w, x, cluster_labels, None)

    @classmethod
    def _from_ids(cls, y, w, x, cluster_index, labels) -> "Dataset":
        """A dataset whose clusters come as int64 dense ids, numbered
        0..c-1 in order of first appearance, with ``labels`` the c
        distinct labels in id order; ``y``, ``w`` and ``x`` get every
        check of the constructor, and no label is interned."""
        d = cls.__new__(cls)
        d._store(y, w, x, cluster_index, labels)
        return d

    def _store(self, y, w, x, clusters, labels):
        """Check and keep the columns; ``clusters`` are the units'
        labels when ``labels`` is None and their dense ids otherwise."""
        y = np.asarray(y, dtype=float)
        w = np.asarray(w, dtype=float)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        n = y.shape[0]
        if y.ndim != 1:
            raise InputError("outcome must be one-dimensional")
        if w.shape != (n,):
            raise InputError(
                f"treatment has shape {w.shape}, expected ({n},)"
            )
        if x.shape[0] != n:
            raise InputError(
                f"covariates have {x.shape[0]} rows, expected {n}"
            )
        if len(clusters) != n:
            raise InputError(
                f"got {len(clusters)} cluster labels, expected {n}"
            )
        if not np.all((w == 0.0) | (w == 1.0)):
            bad = np.flatnonzero((w != 0.0) & (w != 1.0))[:5]
            raise InputError(
                f"treatment must be 0 or 1; offending rows {bad.tolist()}"
            )
        if not np.all(np.isfinite(x)):
            bad_rows = np.flatnonzero(~np.isfinite(x).all(axis=1))[:5]
            raise InputError(
                f"non-finite covariate values in rows {bad_rows.tolist()}"
            )

        if labels is None:
            idx, labels = intern_labels(clusters)
        else:
            idx = clusters
        c = len(labels)

        self._y = y
        self._y.setflags(write=False)
        self._w = w
        self._w.setflags(write=False)
        self._x = x
        self._x.setflags(write=False)
        self._cluster_index = idx
        self._cluster_index.setflags(write=False)
        self._labels = labels
        self._c = c
        self._n_c = np.bincount(idx, minlength=c)
        self._n_c.setflags(write=False)

    # ----- sizes ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of units."""
        return self._y.shape[0]

    @property
    def c(self) -> int:
        """Number of clusters."""
        return self._c

    @property
    def k(self) -> int:
        """Number of covariates."""
        return self._x.shape[1]

    @property
    def n_c(self) -> np.ndarray:
        """Per-cluster sizes, indexed by dense cluster id."""
        return self._n_c

    # ----- columns -------------------------------------------------------

    @property
    def y(self) -> np.ndarray:
        return self._y

    @property
    def w(self) -> np.ndarray:
        return self._w

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def cluster_index(self) -> np.ndarray:
        """Dense cluster id per unit (first-appearance order)."""
        return self._cluster_index

    @property
    def cluster_labels(self) -> list:
        """Original labels, indexed by dense cluster id."""
        return list(self._labels)

    def cluster_means(self, values: np.ndarray, weights=None) -> np.ndarray:
        """Mean of ``values`` within each cluster (dense id order).

        ``values`` may be a vector of length n or an (n, m) matrix;
        the result has one row per cluster. ``weights`` (length n,
        positive) makes it the weighted mean: each unit counts by its
        weight and a cluster's sum is divided by its total weight.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[0] != self.n:
            raise InputError("values length does not match dataset")
        return group_means(self._cluster_index, values, self._c, weights,
                           self._n_c if weights is None else None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dataset(n={self.n}, c={self.c}, k={self.k})"


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: hard errors, advisories, the dense
    ids of clusters with no treatment variation, and how many clusters
    drew each kind of advisory (``single_unit``, ``all_treated``,
    ``all_control``)."""

    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    degenerate_clusters: list = field(default_factory=list)
    warning_counts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise InputError(
            f"row {row}: column {column!r} value {text!r} is not numeric"
        ) from None


def _read_rows(path, reader, outcome: str, treatment: str, labels: dict,
               covariates: list, pos: dict) -> tuple:
    """Read the rows after the header from ``reader`` one at a time,
    applying each cell's rule once, and raise the first bad cell's
    error; see :func:`read_units`.

    Cells are checked in row-major order and, within a row, outcome,
    treatment, labels, covariates. A cell past the end of a short row
    reads as missing.
    """
    y, w, x = array("d"), array("d"), array("d")
    label_lists = [[] for _ in labels]
    label_at = [(role, pos[col]) for role, col in labels.items()]
    cov_at = [(col, pos[col]) for col in covariates]
    width = max(pos.values()) + 1
    row_num = 1
    try:
        for row in filter(None, reader):
            row_num += 1
            row += [None] * (width - len(row))
            y.append(_parse_float(row[pos[outcome]], row_num, outcome))
            w_val = _parse_float(row[pos[treatment]], row_num, treatment)
            if w_val not in (0.0, 1.0):
                raise InputError(
                    f"row {row_num}: treatment must be 0 or 1, got {w_val}"
                )
            w.append(w_val)
            for (role, i), out in zip(label_at, label_lists):
                if not row[i]:
                    raise InputError(f"row {row_num}: empty {role} label")
                out.append(row[i])
            for col, i in cov_at:
                if not row[i]:
                    raise InputError(
                        f"row {row_num}: missing covariate {col!r}"
                    )
                val = _parse_float(row[i], row_num, col)
                if not math.isfinite(val):
                    raise InputError(
                        f"row {row_num}: covariate {col!r} is not finite"
                    )
                x.append(val)
    except csv.Error as exc:
        raise InputError(f"row {row_num + 1}: {exc}") from None
    if row_num == 1:
        raise InputError(f"{path}: no data rows")
    return (np.array(y), np.array(w), label_lists,
            np.array(x).reshape(row_num - 1, len(covariates)))


def _has_information_separators(raw) -> bool:
    """Whether the binary handle ``raw``, read from its start, holds any
    of U+001C..U+001F. numpy strips them around a number as whitespace,
    where ``float()`` refuses the cell. In any ASCII-compatible encoding
    they are the bytes 0x1C..0x1F."""
    raw.seek(0)
    return any(sep in block
               for block in iter(partial(raw.read, 1 << 20), b"")
               for sep in b"\x1c\x1d\x1e\x1f")


def _parse_whole(fh, cols: list, n_labels: int):
    """Parse the rest of the text handle ``fh`` in one C-level pass of
    ``np.loadtxt``, then scan its bytes (``fh.buffer``, which must be
    seekable) from the start for U+001C..U+001F.

    ``cols`` are the file columns of outcome, treatment, the
    ``n_labels`` label roles and the covariates, in that order. Returns
    ``(y, w, label_lists, x)`` as :func:`read_units` does, or None when
    numpy refuses the input, a value fails a check, the input holds one
    of those separators or no rows came back. Bytes that are not text
    in the handle's encoding raise numpy's ``UnicodeDecodeError``, so
    the row reader never decodes them again. numpy converts floats
    with the routine behind ``float()``, so a value both accept is
    bit-identical. Input that numpy refuses (``1_0``, non-ASCII digits,
    short rows) and input that it would read differently are left to
    the row reader.
    """
    dtype = [(f"f{j}", "O" if 2 <= j < 2 + n_labels else "f8")
             for j in range(len(cols))]
    try:
        with warnings.catch_warnings():
            # A file without data rows is refused below instead.
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning)
            units = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                               comments=None, usecols=cols, ndmin=1)
    except UnicodeDecodeError:  # not text: read_units names the encoding
        raise
    except ValueError:  # a refused cell or row: the row reader names it
        return None
    fields = [units[name] for name in units.dtype.names]
    w = fields[1]
    labels = fields[2:2 + n_labels]
    x = np.empty((units.shape[0], len(cols) - 2 - n_labels))
    for j, col in enumerate(fields[2 + n_labels:]):
        x[:, j] = col
    if (not units.shape[0]
            or not np.all((w == 0.0) | (w == 1.0))
            or any((lab == "").any() for lab in labels)
            or not np.all(np.isfinite(x))
            or _has_information_separators(fh.buffer)):
        return None
    return (np.ascontiguousarray(fields[0]), np.ascontiguousarray(w),
            [lab.tolist() for lab in labels], x)


def read_units(path, outcome: str, treatment: str, labels: dict,
               covariates: Optional[Sequence[str]] = None) -> tuple:
    """Read one row per unit from a CSV file.

    ``labels`` maps each label role (``"cluster"``, or ``"unit"`` and
    ``"time"``) to its column; ``covariates=None`` means every other
    column, in header order. Returns ``(y, w, label_lists, x)``: float
    vectors, one list of label strings per role of ``labels``, and the
    (n, k) covariates.

    Every input is read through one seekable handle: a file as it is,
    and input that cannot seek (a pipe) once into memory, whole. The
    rows after the header get one C-level parse (``np.loadtxt``). Only
    when that parse refuses the input is it read again from the start
    by the row reader, which decides every refused input and names the
    first bad cell's row. Blank lines are skipped and not counted in row
    numbers; extra fields are ignored; of duplicate header names the
    last column wins. Raises :class:`InputError` on a missing column, a
    non-numeric cell, a treatment other than 0/1, an empty label, a
    missing or non-finite covariate, or a row the ``csv`` module cannot
    read, naming the first bad cell's 1-based row (the header is row 1),
    and on bytes that are not text in the locale's encoding. NaN
    outcomes load successfully. A cell may be of any length, as it may
    for ``np.loadtxt``: the ``csv`` module's field size limit is lifted
    while the file is read and restored after.
    """
    limit = csv.field_size_limit(2**31 - 1)  # fits a 32-bit C long
    try:
        with open(path, "rb") as raw, io.TextIOWrapper(
                raw if raw.seekable() else io.BytesIO(raw.read()),
                newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise InputError(f"row 1: {exc}") from None
            if header is None:
                raise InputError(f"{path}: empty file")
            roles = [outcome, treatment, *labels.values()]
            covariates = ([h for h in header if h not in roles]
                          if covariates is None else list(covariates))
            for col in roles + covariates:
                if col not in header:
                    raise InputError(f"{path}: missing column {col!r}")

            pos = {name: i for i, name in enumerate(header)}
            cols = [pos[col] for col in roles + covariates]
            units = _parse_whole(fh, cols, len(labels))
            if units is not None:
                return units
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            return _read_rows(path, reader, outcome, treatment, labels,
                              covariates, pos)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid {exc.encoding} text "
                         f"({exc.reason})") from None
    finally:
        csv.field_size_limit(limit)


def load_csv(path, schema: Optional[CsvSchema] = None) -> Dataset:
    """Read a clustered cross-section from a CSV file.

    Columns are named by ``schema`` and parsed by :func:`read_units`,
    whose errors name the first bad cell's row. NaN outcomes load and
    are reported by :func:`validate`.
    """
    schema = schema or CsvSchema()
    y, w, (clusters,), x = read_units(
        path, schema.outcome, schema.treatment, {"cluster": schema.cluster},
        schema.covariates,
    )
    return Dataset(y, w, x, clusters)


_BLOCK_ROWS = 1024


def column_texts(values: np.ndarray, text=repr):
    """``text`` of each entry of the 1-d array ``values``, as a column
    of :func:`write_table`. Entries become Python objects
    ``_BLOCK_ROWS`` at a time, so no column is ever a list whole."""
    return chain.from_iterable(
        map(text, values[i:i + _BLOCK_ROWS].tolist())
        for i in range(0, values.shape[0], _BLOCK_ROWS))


def write_table(path, header: list, columns) -> None:
    """Write a CSV file: the ``header`` row, then row i holds entry i of
    each of the equal-length ``columns``, byte for byte as
    ``csv.writer`` writes them (so floats should come as their ``repr``
    strings).

    A row of ``str`` cells none of which holds a comma, quote, CR or LF
    is written as the cells joined by commas. Only other rows go
    through ``csv``, so cells of other types are best passed as
    strings. Lines are written ``_BLOCK_ROWS`` at a time.
    """
    commas = len(columns) - 1
    buf = io.StringIO()
    quoter = csv.writer(buf)

    def through_csv(row) -> str:
        buf.seek(0)
        buf.truncate()
        quoter.writerow(row)
        return buf.getvalue()[:-2]  # without the "\r\n"

    with open(path, "w", newline="") as fh:
        lines = [through_csv(header)]
        for row in zip(*columns):
            try:
                line = ",".join(row)
            except TypeError:  # a cell that is not a str
                line = None
            # csv quotes a cell that holds these, and one empty cell
            if (line is None or line.count(",") != commas or '"' in line
                    or "\r" in line or "\n" in line or not line):
                line = through_csv(row)
            lines.append(line)
            if len(lines) == _BLOCK_ROWS:
                lines.append("")
                fh.write("\r\n".join(lines))
                lines = []
        lines.append("")
        fh.write("\r\n".join(lines))


def write_csv(d: Dataset, path, schema: Optional[CsvSchema] = None) -> None:
    """Write a dataset so that :func:`load_csv` reproduces it exactly."""
    schema = schema or CsvSchema()
    if schema.covariates is None:
        covariates = [f"x{j + 1}" for j in range(d.k)]
    else:
        covariates = list(schema.covariates)
        if len(covariates) != d.k:
            raise InputError(
                f"schema names {len(covariates)} covariates, dataset has {d.k}"
            )
    # each label as the text csv writes for it
    labels = ["" if lab is None else lab if isinstance(lab, str) else str(lab)
              for lab in d.cluster_labels]
    write_table(
        path, [schema.outcome, schema.treatment, schema.cluster] + covariates,
        [column_texts(d.y),
         column_texts(d.w, {0.0: "0", 1.0: "1"}.__getitem__),
         column_texts(d.cluster_index, labels.__getitem__),
         *(column_texts(col) for col in d.x.T)],
    )


def validate(d: Dataset) -> ValidationReport:
    """Check a dataset for problems that block or degrade estimation.

    Errors: NaN outcomes. Warnings: clusters with a single unit, and
    clusters whose units all share one treatment arm (these are also
    listed in ``degenerate_clusters`` and counted by kind in
    ``warning_counts``). Degenerate clusters stay in the dataset;
    downstream estimators decide how to treat them.
    """
    report = ValidationReport()
    nan_rows = np.flatnonzero(np.isnan(d.y))
    if nan_rows.size:
        report.errors.append(
            f"{nan_rows.size} NaN outcome(s), first at row {int(nan_rows[0])}"
        )
    treated = np.bincount(
        d.cluster_index, weights=d.w, minlength=d.c
    )
    degenerate = np.flatnonzero((treated == 0) | (treated == d.n_c))
    report.degenerate_clusters = degenerate.tolist()
    # A single-unit cluster is always single-arm, so the degenerate
    # clusters are the only ones that draw warnings.
    sizes, treated = d.n_c[degenerate], treated[degenerate]
    report.warning_counts = {
        "single_unit": int(np.count_nonzero(sizes == 1)),
        "all_treated": int(np.count_nonzero(treated == sizes)),
        "all_control": int(np.count_nonzero(treated == 0)),
    }
    labels = d.cluster_labels
    for cid, size, t in zip(report.degenerate_clusters, sizes.tolist(),
                            treated.tolist()):
        label = labels[cid]
        if size == 1:
            report.warnings.append(f"cluster {label!r} has a single unit")
        arm = "treated" if t == size else "control"
        report.warnings.append(
            f"cluster {label!r} is all-{arm} ({size} units)"
        )
    return report

