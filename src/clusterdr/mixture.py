"""Finite mixture over cluster types for discrete unit data.

When the cluster-level heterogeneity is believed to take finitely many
values, each cluster's units are modeled as draws from one of ``p``
component distributions over the observed (covariates, treatment)
cells. Fitting is plain expectation-maximization on per-cluster cell
counts; the fitted per-cluster posterior over components then serves as
a learned cluster summary that plugs into the estimation pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .exceptions import EstimationError, InputError

__all__ = [
    "MixtureModel",
    "em_fit",
    "posterior_suffstat",
    "augment_with_posterior",
]

_PMF_FLOOR = 1e-9
_DEFAULT_SUPPORT_CAP = 512


def _unit_cells(d: Dataset):
    """Distinct (x, w) cells in lexicographic order, as tuples of float
    covariates and an int treatment, plus the cell index per unit.

    Each column is coded by a 1-D ``np.unique``. The cell ranks so far
    and the next column's codes combine in mixed radix and are ranked
    again, so a key stays below n squared. Zeros of either sign share a
    cell, whose value is +0.0.
    """
    unit_cell = np.zeros(d.n, dtype=np.int64)
    columns = []  # per column, its value in each cell so far
    for col in (*d.x.T, d.w):
        values, code = np.unique(col, return_inverse=True)
        keys, unit_cell = np.unique(unit_cell * len(values) + code,
                                    return_inverse=True)
        columns = ([c[keys // len(values)] for c in columns]
                   + [values[keys % len(values)]])
    *x_cols, w_col = columns
    cells = list(zip(*((c + 0.0).tolist() for c in x_cols),
                     map(int, w_col.tolist())))
    return cells, unit_cell


@dataclass(frozen=True)
class MixtureModel:
    """Fitted mixture: weights ``pi`` (p,), per-component cell
    distributions ``component_pmfs`` (p, n_cells), and the cell list
    ``support`` in canonical sorted order. ``ll_path`` records the
    log-likelihood after every completed iteration of the winning
    restart."""

    p: int
    pi: np.ndarray
    component_pmfs: np.ndarray
    support: tuple
    loglik: float
    ll_path: tuple
    n_iter: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "pi": [float(v) for v in self.pi],
            "component_pmfs": [
                [float(v) for v in row] for row in self.component_pmfs
            ],
            "support": [list(cell) for cell in self.support],
            "loglik": self.loglik,
            "n_iter": self.n_iter,
            "converged": self.converged,
        }


def _counts_matrix(d: Dataset, unit_cell: np.ndarray, n_cells: int):
    cells = np.bincount(d.cluster_index * n_cells + unit_cell,
                        minlength=d.c * n_cells)
    return cells.reshape(d.c, n_cells).astype(float)


def _loglik_and_resp(counts, log_pi, log_pmf):
    """Log-likelihood of cluster counts plus per-cluster responsibilities."""
    # (c, p): log pi_k + sum over cells of count * log pmf_k
    joint = counts @ log_pmf.T + log_pi[None, :]
    top = joint.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.sum(np.exp(joint - top), axis=1))
    resp = np.exp(joint - lse[:, None])
    return float(lse.sum()), resp


def _m_step(counts, resp):
    """Responsibility-weighted frequencies, floored and renormalized."""
    weighted = resp.T @ counts  # (p, n_cells)
    totals = weighted.sum(axis=1, keepdims=True)
    totals[totals == 0.0] = 1.0
    pmf = weighted / totals
    pmf = np.maximum(pmf, _PMF_FLOOR)
    pmf /= pmf.sum(axis=1, keepdims=True)
    pi = resp.mean(axis=0)
    pi = np.maximum(pi, 1e-12)
    pi /= pi.sum()
    return pi, pmf


def em_fit(
    d: Dataset,
    p: int,
    seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 500,
    restarts: int = 5,
    support_cap: int = _DEFAULT_SUPPORT_CAP,
) -> MixtureModel:
    """Fit a ``p``-component mixture of cell distributions to clusters.

    Each restart initializes responsibilities from a seeded Dirichlet
    draw, runs expectation-maximization until the log-likelihood gain
    falls below ``tol * (1 + |loglik|)``, and the best final
    log-likelihood wins. The log-likelihood never decreases across
    iterations (the cell-probability floor is far below any cell that
    carries responsibility). With ``p=1`` the fit reduces to pooled
    empirical cell frequencies. Raises when the data hold more than
    ``support_cap`` distinct (x, w) cells, the sign that the covariates
    are not discrete.
    """
    if p < 1:
        raise InputError(f"need at least one component, got {p}")
    if p > d.c:
        raise InputError(
            f"{p} components exceed the {d.c} clusters available"
        )
    if restarts < 1:
        raise InputError("restarts must be >= 1")
    cells, unit_cell = _unit_cells(d)
    if len(cells) > support_cap:
        raise InputError(
            f"more than {support_cap} distinct (x, w) cells; "
            "mixture fitting needs discrete covariates"
        )
    counts = _counts_matrix(d, unit_cell, len(cells))

    best = None
    seed_seqs = np.random.SeedSequence(seed).spawn(restarts)
    for restart_idx in range(restarts):
        rng = np.random.default_rng(seed_seqs[restart_idx])
        resp0 = rng.dirichlet(np.ones(p), size=d.c)
        pi, pmf = _m_step(counts, resp0)
        path = []
        converged = False
        iters = 0
        for iters in range(1, max_iter + 1):
            ll, resp = _loglik_and_resp(counts, np.log(pi), np.log(pmf))
            path.append(ll)
            if iters > 1 and path[-1] - path[-2] <= tol * (1.0 + abs(ll)):
                converged = True
                break
            pi, pmf = _m_step(counts, resp)
        if not converged:
            # One extra evaluation so the reported value matches the
            # parameters actually returned.
            ll, _ = _loglik_and_resp(counts, np.log(pi), np.log(pmf))
            path.append(ll)
        candidate = MixtureModel(
            p=p,
            pi=pi,
            component_pmfs=pmf,
            support=tuple(cells),
            loglik=path[-1],
            ll_path=tuple(path),
            n_iter=iters,
            converged=converged,
        )
        if best is None or candidate.loglik > best.loglik:
            best = candidate
    return best


def posterior_suffstat(model: MixtureModel, d: Dataset) -> np.ndarray:
    """Posterior component probabilities for each cluster of ``d``: a
    (c, p) array whose rows sum to one.

    Computed in log space from per-cluster cell counts. Raises when a
    unit's (x, w) cell is outside the model's support.
    """
    cell_id = {cell: idx for idx, cell in enumerate(model.support)}
    cells, unit_cell = _unit_cells(d)
    outside = [j for j, cell in enumerate(cells) if cell not in cell_id]
    if outside:
        i = int(np.flatnonzero(np.isin(unit_cell, outside))[0])
        raise EstimationError(
            f"unit {i} falls in cell {cells[unit_cell[i]]} outside the "
            "fitted support"
        )
    unit_cell = np.array([cell_id[cell] for cell in cells],
                         dtype=np.int64)[unit_cell]
    counts = _counts_matrix(d, unit_cell, len(model.support))
    _, resp = _loglik_and_resp(
        counts, np.log(model.pi), np.log(model.component_pmfs)
    )
    return resp


def augment_with_posterior(posterior: np.ndarray) -> np.ndarray:
    """Use mixture posteriors as the cluster summary columns.

    ``posterior`` is the (c, p) array of :func:`posterior_suffstat`, one
    row per cluster of its dataset in dense-id order, as
    :func:`~clusterdr.suffstats.build_suffstats` gives its summaries.
    Rows sum to one, so the last component's column is redundant given
    an intercept and is omitted: the result is (c, max(p - 1, 1)).
    """
    return posterior[:, : max(posterior.shape[1] - 1, 1)]
