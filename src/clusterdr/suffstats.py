"""Cluster-level summary statistics.

A statistic specification is an ordered list of term descriptors. Each
term defines one per-unit value; averaging that value within a cluster
(own unit included) yields one cluster-summary column. One row per
cluster, those columns form the summary matrix that downstream
estimators condition on; a unit's summaries are its cluster's row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset
from .exceptions import InputError

__all__ = [
    "Term",
    "StatSpec",
    "build_suffstats",
    "mundlak_spec",
    "overlap_set",
]

_KINDS = (
    "treatment-mean",
    "covariate-mean",
    "covariate-second-moment",
    "covariate-treatment-interaction",
    "custom-transform",
)

def _check_index(j: int, k: int) -> None:
    if not 0 <= j < k:
        raise InputError(
            f"term references covariate {j} but dataset has {k} covariates"
        )


def _parse_tag(tag: str) -> tuple:
    """``(base, j)`` of a transform tag (see :class:`Term`)."""
    base, sep, idx = tag.partition(":")
    if not sep or base not in ("log", "square", "clip"):
        raise InputError(f"unknown transform tag {tag!r}")
    try:
        return base, int(idx)
    except ValueError:
        raise InputError(f"bad covariate index in tag {tag!r}") from None


@dataclass(frozen=True)
class Term:
    """One summary-statistic descriptor.

    ``kind`` selects the per-unit value; ``j`` and ``k2`` are zero-based
    covariate indices where the kind needs them. ``tag`` (``log:j``,
    ``square:j`` or ``clip:j``) makes a ``custom-transform`` term the log
    of covariate j floored at 1e-12, its square, or the covariate
    winsorized to [-3, 3]; it is parsed when the term is made, and j is
    checked against the data when the values are computed.
    """

    kind: str
    j: Optional[int] = None
    k2: Optional[int] = None
    tag: Optional[str] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown term kind {self.kind!r}")
        needs_j = self.kind in (
            "covariate-mean",
            "covariate-second-moment",
            "covariate-treatment-interaction",
        )
        if needs_j and (self.j is None or self.j < 0):
            raise InputError(f"term {self.kind!r} needs covariate index j >= 0")
        if self.kind == "covariate-second-moment" and (
            self.k2 is None or self.k2 < 0
        ):
            raise InputError("covariate-second-moment needs index k2 >= 0")
        if self.kind == "custom-transform":
            if not self.tag:
                raise InputError("custom-transform needs a tag")
            _parse_tag(self.tag)

    @property
    def name(self) -> str:
        if self.kind == "treatment-mean":
            return "w_bar"
        if self.kind == "covariate-mean":
            return f"x{self.j}_bar"
        if self.kind == "covariate-second-moment":
            return f"x{self.j}x{self.k2}_bar"
        if self.kind == "covariate-treatment-interaction":
            return f"wx{self.j}_bar"
        return f"{self.tag}_bar"

    def unit_values(self, d: Dataset) -> np.ndarray:
        """Per-unit value whose cluster mean is this term's column."""
        if self.kind == "treatment-mean":
            return d.w
        if self.kind == "covariate-mean":
            _check_index(self.j, d.k)
            return d.x[:, self.j]
        if self.kind == "covariate-second-moment":
            _check_index(self.j, d.k)
            _check_index(self.k2, d.k)
            return d.x[:, self.j] * d.x[:, self.k2]
        if self.kind == "covariate-treatment-interaction":
            _check_index(self.j, d.k)
            return d.x[:, self.j] * d.w
        base, j = _parse_tag(self.tag)
        _check_index(j, d.k)
        x = d.x[:, j]
        if base == "log":
            return np.log(np.clip(x, 1e-12, None))
        return x**2 if base == "square" else np.clip(x, -3.0, 3.0)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.j is not None:
            out["j"] = self.j
        if self.k2 is not None:
            out["k2"] = self.k2
        if self.tag is not None:
            out["tag"] = self.tag
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "Term":
        allowed = {"kind", "j", "k2", "tag"}
        unknown = set(obj) - allowed
        if unknown:
            raise InputError(f"unknown term fields {sorted(unknown)}")
        return cls(
            kind=obj.get("kind"),
            j=obj.get("j"),
            k2=obj.get("k2"),
            tag=obj.get("tag"),
        )


@dataclass(frozen=True)
class StatSpec:
    """Ordered collection of summary-statistic terms."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if not isinstance(t, Term):
                raise InputError("StatSpec terms must be Term instances")
        names = [t.name for t in self.terms]
        if len(set(names)) != len(names):
            raise InputError("duplicate terms in StatSpec")

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def names(self) -> list:
        return [t.name for t in self.terms]

    def to_dict(self) -> dict:
        """The ``{"terms": [...]}`` object of a statistic specification
        file, which :meth:`from_dict` reads back."""
        return {"terms": [t.to_dict() for t in self.terms]}

    @classmethod
    def from_dict(cls, obj: dict) -> "StatSpec":
        if not isinstance(obj, dict) or "terms" not in obj:
            raise InputError("StatSpec must be an object with 'terms'")
        unknown = set(obj) - {"terms"}
        if unknown:
            raise InputError(f"unknown StatSpec fields {sorted(unknown)}")
        return cls(terms=tuple(Term.from_dict(t) for t in obj["terms"]))


def mundlak_spec(k: int) -> StatSpec:
    """Treatment mean plus the mean of each of ``k`` covariates."""
    if k < 0:
        raise InputError("k must be >= 0")
    terms = [Term("treatment-mean")]
    terms += [Term("covariate-mean", j=j) for j in range(k)]
    return StatSpec(terms=tuple(terms))


def build_suffstats(d: Dataset, spec: StatSpec) -> np.ndarray:
    """Evaluate a statistic specification on a dataset.

    Each term's per-unit values are averaged within cluster (the unit's
    own value included), giving the (c, t) summary matrix: one row per
    cluster in dense-id order, one column per term. Unit i's summaries
    are row ``d.cluster_index[i]``.
    """
    s_bar = np.empty((d.c, len(spec)))
    for col, term in enumerate(spec.terms):
        s_bar[:, col] = d.cluster_means(term.unit_values(d))
    return s_bar


def overlap_set(e_hat: np.ndarray, eta: float = 0.05) -> np.ndarray:
    """Retention flags from estimated propensities.

    A unit is kept when ``eta < e_hat < 1 - eta``; ``eta=None`` keeps
    every unit.
    """
    e_hat = np.asarray(e_hat, dtype=float)
    if eta is None:
        return np.ones(e_hat.shape[0], dtype=np.int8)
    if not 0.0 <= eta < 0.5:
        raise InputError(f"eta must be in [0, 0.5), got {eta}")
    keep = (e_hat > eta) & (e_hat < 1.0 - eta)
    return keep.astype(np.int8)
