"""Clustered cross-section containers and CSV input/output.

A dataset is an ordered collection of units, each carrying an outcome,
a binary treatment, a covariate vector, and a cluster label. Labels may
be arbitrary strings or numbers; internally they are mapped to dense
integer ids in order of first appearance, and all numeric work runs on
contiguous arrays.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
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

# Rows parsed per chunk by load_csv; bounds the memory held as row lists.
_CHUNK_ROWS = 512


def intern_labels(labels) -> tuple:
    """Dense int64 ids for a sequence of hashable labels, numbered in
    order of first appearance, and the distinct labels in that order."""
    labels_in_order = list(dict.fromkeys(labels))
    id_of = {lab: j for j, lab in enumerate(labels_in_order)}
    ids = np.fromiter(map(id_of.__getitem__, labels), dtype=np.int64,
                      count=len(labels))
    return ids, labels_in_order


def group_means(index, values, n_groups: int, weights=None) -> np.ndarray:
    """Mean of the rows of ``values`` in each group, in group id order.

    ``index`` holds each row's group id in ``0..n_groups-1``; every
    group needs at least one row. ``values`` is a vector of length n or
    an (n, m) matrix, and the result is (n_groups,) or (n_groups, m).
    With ``weights`` each row counts by its weight and a group's sum is
    divided by its total weight instead of its row count.
    """
    values = np.asarray(values, dtype=float)
    cols = values.T if values.ndim == 2 else values[None, :]
    sums = np.empty((n_groups, cols.shape[0]))
    for j, col in enumerate(cols):
        sums[:, j] = np.bincount(
            index, weights=col if weights is None else col * weights,
            minlength=n_groups,
        )
    means = sums / np.bincount(index, weights=weights,
                               minlength=n_groups)[:, None]
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
    w : array of int, shape (n,)
        Binary treatment indicators, each exactly 0 or 1.
    x : array of float, shape (n, k)
        Covariates. Must be finite.
    cluster_labels : sequence of length n
        Cluster label per unit, any hashable values.
    """

    def __init__(self, y, w, x, cluster_labels):
        y = np.asarray(y, dtype=float)
        w = np.asarray(w)
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
        if len(cluster_labels) != n:
            raise InputError(
                f"got {len(cluster_labels)} cluster labels, expected {n}"
            )
        w_float = np.asarray(w, dtype=float)
        if not np.all((w_float == 0.0) | (w_float == 1.0)):
            bad = np.flatnonzero((w_float != 0.0) & (w_float != 1.0))[:5]
            raise InputError(
                f"treatment must be 0 or 1; offending rows {bad.tolist()}"
            )
        if not np.all(np.isfinite(x)):
            bad_rows = np.flatnonzero(~np.isfinite(x).all(axis=1))[:5]
            raise InputError(
                f"non-finite covariate values in rows {bad_rows.tolist()}"
            )

        idx, labels_in_order = intern_labels(cluster_labels)
        c = len(labels_in_order)

        self._y = y
        self._y.setflags(write=False)
        self._w = w_float.astype(np.int8)
        self._w.setflags(write=False)
        self._x = x
        self._x.setflags(write=False)
        self._cluster_index = idx
        self._cluster_index.setflags(write=False)
        self._labels = labels_in_order
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
        return group_means(self._cluster_index, values, self._c, weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dataset(n={self.n}, c={self.c}, k={self.k})"


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: hard errors, advisories, and the
    dense ids of clusters with no treatment variation."""

    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    degenerate_clusters: list = field(default_factory=list)

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


def _parse_columns(rows: list, take, n_cov: int):
    """Parse one chunk of rows column by column.

    Returns (y, w, labels, x with one row per covariate), or None when
    any cell is bad or missing; the caller then finds which one.
    """
    m = len(rows)
    try:
        cols = list(zip(*map(take, rows)))
        y = np.fromiter(map(float, cols[0]), dtype=float, count=m)
        w = np.fromiter(map(float, cols[1]), dtype=float, count=m)
        x = np.empty((n_cov, m))
        for j, col in enumerate(cols[3:]):
            x[j] = np.fromiter(map(float, col), dtype=float, count=m)
    except (IndexError, ValueError):
        return None
    if ("" in cols[2] or not np.all((w == 0.0) | (w == 1.0))
            or not np.all(np.isfinite(x))):
        return None
    return y, w, cols[2], x


def _raise_first_bad_cell(rows: list, first_row: int, schema: CsvSchema,
                          covariates: list, pos: dict) -> None:
    """Raise the error of the first bad cell in ``rows``, in row-major
    order and, within a row, outcome, treatment, label, covariates.

    Only called on a chunk that :func:`_parse_columns` rejected, so it
    always raises. A cell past the end of a short row reads as missing.
    """
    for row_num, row in enumerate(rows, start=first_row):
        cell = {col: row[i] if i < len(row) else None
                for col, i in pos.items()}
        _parse_float(cell[schema.outcome], row_num, schema.outcome)
        w_val = _parse_float(cell[schema.treatment], row_num,
                             schema.treatment)
        if w_val not in (0.0, 1.0):
            raise InputError(
                f"row {row_num}: treatment must be 0 or 1, got {w_val}"
            )
        lab = cell[schema.cluster]
        if lab is None or lab == "":
            raise InputError(f"row {row_num}: empty cluster label")
        for col in covariates:
            text = cell[col]
            if text is None or text == "":
                raise InputError(
                    f"row {row_num}: missing covariate {col!r}"
                )
            val = _parse_float(text, row_num, col)
            if math.isnan(val) or math.isinf(val):
                raise InputError(
                    f"row {row_num}: covariate {col!r} is not finite"
                )


def load_csv(path, schema: Optional[CsvSchema] = None) -> Dataset:
    """Read a clustered cross-section from a CSV file.

    The file is streamed in chunks of ``_CHUNK_ROWS`` rows, each parsed
    column by column. Blank lines are skipped and not counted in row
    numbers; extra fields are ignored; of duplicate header names the
    last column wins.

    Raises :class:`InputError` on a missing column, a non-numeric cell,
    a treatment value other than 0/1, or a missing covariate value,
    naming the first bad cell's 1-based row (the header is row 1).
    NaN outcomes load successfully and are reported by :func:`validate`.
    """
    schema = schema or CsvSchema()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty file")
        for col in (schema.outcome, schema.treatment, schema.cluster):
            if col not in header:
                raise InputError(f"{path}: missing column {col!r}")
        if schema.covariates is None:
            claimed = {schema.outcome, schema.treatment, schema.cluster}
            covariates = [h for h in header if h not in claimed]
        else:
            covariates = list(schema.covariates)
            for col in covariates:
                if col not in header:
                    raise InputError(f"{path}: missing column {col!r}")

        pos = {name: i for i, name in enumerate(header)}
        roles = [schema.outcome, schema.treatment, schema.cluster]
        take = itemgetter(*(pos[col] for col in roles + covariates))
        ys, ws, labels, xs = [], [], [], []
        row_num = 2
        while True:
            chunk = list(islice(reader, _CHUNK_ROWS))
            if not chunk:
                break
            rows = [row for row in chunk if row]
            if not rows:
                continue
            parsed = _parse_columns(rows, take, len(covariates))
            if parsed is None:
                _raise_first_bad_cell(rows, row_num, schema, covariates, pos)
            y, w, lab, x = parsed
            ys.append(y)
            ws.append(w)
            labels.extend(lab)
            xs.append(x)
            row_num += len(rows)
    if not ys:
        raise InputError(f"{path}: no data rows")
    x = np.ascontiguousarray(np.concatenate(xs, axis=1).T)
    return Dataset(np.concatenate(ys), np.concatenate(ws), x, labels)


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [schema.outcome, schema.treatment, schema.cluster] + covariates
        )
        labels = d.cluster_labels
        writer.writerows(zip(
            map(repr, d.y.tolist()),
            d.w.tolist(),
            map(labels.__getitem__, d.cluster_index.tolist()),
            *(map(repr, col) for col in d.x.T.tolist()),
        ))


def validate(d: Dataset) -> ValidationReport:
    """Check a dataset for problems that block or degrade estimation.

    Errors: NaN outcomes. Warnings: clusters with a single unit, and
    clusters whose units all share one treatment arm (these are also
    listed in ``degenerate_clusters``). Degenerate clusters stay in the
    dataset; downstream estimators decide how to treat them.
    """
    report = ValidationReport()
    nan_rows = np.flatnonzero(np.isnan(d.y))
    if nan_rows.size:
        report.errors.append(
            f"{nan_rows.size} NaN outcome(s), first at row {int(nan_rows[0])}"
        )
    treated = np.bincount(
        d.cluster_index, weights=d.w.astype(float), minlength=d.c
    )
    degenerate = np.flatnonzero((treated == 0) | (treated == d.n_c))
    report.degenerate_clusters = degenerate.tolist()
    # A single-unit cluster is always single-arm, so the degenerate
    # clusters are the only ones that draw warnings.
    labels = d.cluster_labels
    for cid, size, t in zip(report.degenerate_clusters,
                            d.n_c[degenerate].tolist(),
                            treated[degenerate].tolist()):
        label = labels[cid]
        if size == 1:
            report.warnings.append(f"cluster {label!r} has a single unit")
        arm = "treated" if t == size else "control"
        report.warnings.append(
            f"cluster {label!r} is all-{arm} ({size} units)"
        )
    return report

