"""Cluster-level summary statistics.

A statistic specification is an ordered list of term descriptors. Each
term defines one per-unit value; averaging that value within a cluster
(own unit included) yields one cluster-summary column. Attached to every
unit of the cluster, those columns form the summary matrix that
downstream estimators condition on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dataset import Dataset
from .exceptions import InputError

__all__ = [
    "Term",
    "StatSpec",
    "build_suffstats",
    "mundlak_spec",
    "overlap_set",
    "register_transform",
    "resolve_transform",
]

_KINDS = (
    "treatment-mean",
    "covariate-mean",
    "covariate-second-moment",
    "covariate-treatment-interaction",
    "custom-transform",
)

# tag -> fn(x, w) -> (n,) vector of per-unit values
_TRANSFORMS: dict = {}


def register_transform(tag: str, fn: Callable) -> None:
    """Register a named per-unit map ``fn(x, w) -> values``.

    ``x`` is the (n, k) covariate matrix and ``w`` the (n,) treatment
    vector; the result must be a length-n vector.
    """
    if not tag or not isinstance(tag, str):
        raise InputError("transform tag must be a non-empty string")
    _TRANSFORMS[tag] = fn


def _builtin_transform(base: str, j: int) -> Callable:
    if base == "log":
        return lambda x, w: np.log(np.clip(x[:, j], 1e-12, None))
    if base == "square":
        return lambda x, w: x[:, j] ** 2
    if base == "clip":
        return lambda x, w: np.clip(x[:, j], -3.0, 3.0)
    raise InputError(f"unknown built-in transform {base!r}")


def resolve_transform(tag: str) -> Callable:
    """Look up a transform by tag.

    Tags of the form ``log:j``, ``square:j``, ``clip:j`` (j a covariate
    index) are built in: natural log of the covariate floored at 1e-12,
    its square, and the covariate winsorized to [-3, 3]. Anything else
    must have been registered with :func:`register_transform`.
    """
    if tag in _TRANSFORMS:
        return _TRANSFORMS[tag]
    if ":" in tag:
        base, _, idx = tag.partition(":")
        if base in ("log", "square", "clip"):
            try:
                j = int(idx)
            except ValueError:
                raise InputError(f"bad covariate index in tag {tag!r}") from None
            return _builtin_transform(base, j)
    raise InputError(f"unknown transform tag {tag!r}")


@dataclass(frozen=True)
class Term:
    """One summary-statistic descriptor.

    ``kind`` selects the per-unit value; ``j`` and ``k2`` are zero-based
    covariate indices where the kind needs them, and ``tag`` names a
    registered transform for ``custom-transform`` terms.
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
        if self.kind == "custom-transform" and not self.tag:
            raise InputError("custom-transform needs a tag")

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
            return d.w.astype(float)
        if self.kind == "covariate-mean":
            self._check_index(self.j, d.k)
            return d.x[:, self.j]
        if self.kind == "covariate-second-moment":
            self._check_index(self.j, d.k)
            self._check_index(self.k2, d.k)
            return d.x[:, self.j] * d.x[:, self.k2]
        if self.kind == "covariate-treatment-interaction":
            self._check_index(self.j, d.k)
            return d.x[:, self.j] * d.w
        vals = np.asarray(resolve_transform(self.tag)(d.x, d.w), dtype=float)
        if vals.shape != (d.n,):
            raise InputError(
                f"transform {self.tag!r} returned shape {vals.shape}, "
                f"expected ({d.n},)"
            )
        return vals

    @staticmethod
    def _check_index(j: int, k: int) -> None:
        if j >= k:
            raise InputError(
                f"term references covariate {j} but dataset has {k} covariates"
            )

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

    def to_json(self) -> str:
        return json.dumps(
            {"terms": [t.to_dict() for t in self.terms]}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "StatSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad StatSpec JSON: {exc}") from None
        if not isinstance(obj, dict) or "terms" not in obj:
            raise InputError("StatSpec JSON must be an object with 'terms'")
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
    own value included) and broadcast back to the unit rows, giving the
    (n, t) summary matrix, one column per term, constant within cluster.
    """
    s_bar = np.empty((d.n, len(spec)))
    for col, term in enumerate(spec.terms):
        s_bar[:, col] = d.cluster_means(term.unit_values(d))[d.cluster_index]
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
