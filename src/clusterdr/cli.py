"""Command-line front end for the clustered treatment-effect pipeline.

Five subcommands (``estimate``, ``simulate``, ``select``, ``mixture``,
``check-equivalence``) share one report convention: a JSON file with a
``body`` holding everything reproducible given config and seed, and a
``meta`` block holding the wall-clock timestamp and the body's SHA-256.
The canonical body serialization is sorted-key, two-space-indented
JSON, so two runs with identical config and seed produce byte-identical
canonical bodies even though their report files differ in ``meta``.

Options resolve as: explicit command-line flag, then config file, then
the ``"default"`` in the command's config schema
(``schemas/<command>.config.json`` and the shared ``schemas/defs.json``),
which is the one place CLI defaults are written. Config files are
schema-checked before and after the merge, with unknown keys rejected,
by ``_schema_errors``: an in-repo Draft 2020-12 checker of the keywords
those schemas use, so starting a command imports no schema library. It
reports jsonschema's messages, except that an ``integer`` must be a JSON
integer (``2``, not ``2.0``).
The effective config is embedded in the body and hashed, without the
output path and ``threads``: the thread count is accepted so that old
configs stay valid, and ignored.

Errors are prefixed with the pipeline stage that raised them. Tables
go to side files next to the report, hashed in the body, and each body
is checked against its command's shape in ``schemas/report.json``.

Exit codes: 0 success, 1 input or configuration problem, 2 estimation
or numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import operator
import re
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from .dataset import CsvSchema, column_texts, load_csv, validate, write_table
from .estimators import (
    NuisanceConfig,
    dr_estimate,
    fe_ols,
    fit_nuisances,
    load_panel_csv,
    mundlak_ols,
    twoway_mundlak_check,
    weighted_fe,
)
from .exceptions import ClusterDrError, EstimationError, InputError
from .glm import cross_fit_folds, multinomial_group_lasso
from .mixture import augment_with_posterior, em_fit, posterior_suffstat
from .simulate import EstimatorConfig, dgp_preset, monte_carlo
from .suffstats import StatSpec, build_suffstats, mundlak_spec

__all__ = ["main", "canonical_body_bytes", "config_hash"]

_EQUIV_RTOL = 1e-8
# How many warned cluster labels an estimate body lists.
_FIRST_WARNED = 20


# ---------------------------------------------------------------------------
# Canonical serialization, hashing, schemas
# ---------------------------------------------------------------------------


def canonical_body_bytes(body: dict) -> bytes:
    """The byte-comparable serialization of a report body. It is
    defined as ``json.dumps(body, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"`` in UTF-8, which :func:`_json` writes
    directly."""
    return (_json(body, "\n") + "\n").encode("ascii")


_quote = json.encoder.encode_basestring_ascii


def _json(value, newline: str) -> str:
    """``value`` as sorted-key, two-space-indented, ASCII-only JSON that
    starts at the indent ``newline`` ends in, byte for byte as
    ``json.dumps`` writes it.

    ``json.dumps`` with an indent runs json's pure-Python encoder, which
    holds every token as a separate string until the end. Here each
    container is joined as soon as its items are, and a list of floats
    is joined with ``float.__repr__`` in one pass. NaN and infinities
    raise ``ValueError``, and values json cannot write raise
    ``TypeError``, as in ``json.dumps``; the value must hold no cycle.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            items = ("," + inner).join(map(float.__repr__, value))
        except TypeError:  # not all floats
            items = ("," + inner).join([_json(v, inner) for v in value])
        else:
            if "n" in items:  # "nan" or "inf": no finite repr has an n
                for v in value:
                    _float(v)
        return f"[{inner}{items}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ("," + inner).join([
            f"{_key(k)}: {_json(v, inner)}" for k, v in sorted(value.items())])
        return f"{{{inner}{items}{newline}}}"
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    f"is not JSON serializable")


def _float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("Out of range float values are not JSON "
                         f"compliant: {value!r}")
    return float.__repr__(value)


def _key(key) -> str:
    """A dict key as ``json.dumps`` writes it: quoted, and a float,
    bool, None or int as its JSON value."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_float(key))
    if key is True or key is False or key is None or isinstance(key, int):
        return _quote(_json(key, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def config_hash(cfg: dict) -> str:
    """SHA-256 of the compact sorted-key serialization of a config."""
    compact = json.dumps(cfg, sort_keys=True, separators=(",", ":"),
                         allow_nan=False)
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


_SCHEMAS: dict = {}


def _schema(name: str) -> dict:
    """Load a shipped schema, injecting the shared definitions."""
    if name not in _SCHEMAS:
        pkg = resources.files("clusterdr").joinpath("schemas")
        defs = json.loads(pkg.joinpath("defs.json").read_text())
        doc = json.loads(pkg.joinpath(f"{name}.json").read_text())
        doc["$defs"] = defs["$defs"]
        _SCHEMAS[name] = doc
    return _SCHEMAS[name]


# Keywords that annotate a schema and constrain nothing.
_ANNOTATIONS = frozenset({"default", "description", "$schema", "$id", "$defs"})
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: (isinstance(v, numbers.Number)
                         and not isinstance(v, bool)),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}
# The numeric bounds: each fails when ``test(instance, bound)`` holds.
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge,
                         "greater than or equal to the maximum of"),
}
_KEYWORDS = _ANNOTATIONS | _BOUNDS.keys() | {
    "$ref", "type", "enum", "properties", "additionalProperties", "required",
    "items", "minItems", "minLength", "pattern", "oneOf"}


def _schema_errors(schema: dict, instance, defs: dict, path: tuple = ()):
    """Yield ``(path, message)`` for each way ``instance`` breaks the
    Draft 2020-12 ``schema``, whose ``$ref``s name entries of ``defs``.

    Errors come in schema keyword order, with the absolute path and the
    message text of jsonschema 4.26's ``Draft202012Validator``. The one
    difference: an ``integer`` is an ``int`` (not a ``bool``), so ``2.0``
    is not one. A keyword that no shipped schema uses raises
    ``ValueError`` rather than go unchecked.
    """
    if not _KEYWORDS.issuperset(schema):
        raise ValueError(f"schema keywords not supported: "
                         f"{sorted(set(schema) - _KEYWORDS)}")
    for key, want in schema.items():
        if key in _ANNOTATIONS:
            continue
        if key == "$ref" and want.startswith("#/$defs/"):
            yield from _schema_errors(defs[want[len("#/$defs/"):]], instance,
                                      defs, path)
        elif key == "type":
            if not _TYPES[want](instance):
                yield path, f"{instance!r} is not of type {want!r}"
        elif key == "enum":
            if instance not in want:
                yield path, f"{instance!r} is not one of {want!r}"
        elif key == "oneOf":
            valid = [sub for sub in want if next(
                _schema_errors(sub, instance, defs, path), None) is None]
            if not valid:
                yield path, (f"{instance!r} is not valid under any of the "
                             "given schemas")
            elif len(valid) > 1:
                yield path, (f"{instance!r} is valid under each of "
                             + ", ".join(map(repr, valid[1:] + valid[:1])))
        elif key == "properties":
            if isinstance(instance, dict):
                for name, sub in want.items():
                    if name in instance:
                        yield from _schema_errors(sub, instance[name], defs,
                                                  path + (name,))
        elif key == "additionalProperties" and want is False:
            known = schema.get("properties", {})
            extra = (sorted((k for k in instance if k not in known), key=str)
                     if isinstance(instance, dict) else [])
            if extra:
                yield path, ("Additional properties are not allowed "
                             f"({', '.join(map(repr, extra))} "
                             f"{'was' if len(extra) == 1 else 'were'} "
                             "unexpected)")
        elif key == "required":
            if isinstance(instance, dict):
                for name in want:
                    if name not in instance:
                        yield path, f"{name!r} is a required property"
        elif key == "items":
            if isinstance(instance, list):
                for i, item in enumerate(instance):
                    yield from _schema_errors(want, item, defs, path + (i,))
        elif key in ("minItems", "minLength"):
            if (isinstance(instance, list if key == "minItems" else str)
                    and len(instance) < want):
                yield path, (f"{instance!r} should be non-empty" if want == 1
                             else f"{instance!r} is too short")
        elif key in _BOUNDS:
            test, text = _BOUNDS[key]
            if _TYPES["number"](instance) and test(instance, want):
                yield path, f"{instance!r} is {text} {want!r}"
        elif key == "pattern":
            if isinstance(instance, str) and not re.search(want, instance):
                yield path, f"{instance!r} does not match {want!r}"
        else:
            raise ValueError(f"schema keyword {key!r}: {want!r} is not "
                             "supported")


def _validate_config(cfg: dict, command: str, partial: bool) -> None:
    """Schema-check a config dict; ``partial`` skips required keys.

    The raw config file is checked partially (flags may still fill
    required options); the merged config is checked in full. Of all
    errors, the one first by path, then by message, is reported.
    """
    doc = _schema(f"{command}.config")
    if partial:
        doc = {k: v for k, v in doc.items() if k != "required"}
    err = min(_schema_errors(doc, cfg, doc["$defs"]), default=None,
              key=lambda e: (list(map(str, e[0])), e[1]))
    if err is not None:
        where = "/".join(map(str, err[0])) or "top level"
        raise InputError(f"config ({command}): {where}: {err[1]}")


def _hashable_config(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k not in ("output", "threads")}


def _new_body(command: str, cfg: dict) -> dict:
    shown = _hashable_config(cfg)
    return {
        "command": command,
        "config": shown,
        "config_hash": config_hash(shown),
        "seed": cfg["seed"],
    }


def _write_report(body: dict, output: str, extra_meta: dict = None) -> Path:
    """Write ``{"body": body, "meta": meta}`` as sorted-key, two-space
    JSON, the canonical body bytes nested one level deep, so the body is
    encoded once. Indenting after each newline is exact because JSON
    escapes every newline inside a string; ``meta`` is encoded at that
    depth directly."""
    body_bytes = canonical_body_bytes(body)
    meta = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "body_sha256": hashlib.sha256(body_bytes).hexdigest(),
    }
    if extra_meta:
        meta.update(extra_meta)
    payload = {"body": body, "meta": meta}
    with _stage("report"):
        err = _report_error(payload)
        if err is not None:
            where = "/".join(map(str, err[0]))
            raise EstimationError(f"malformed output: {where}: {err[1]}")
        path = Path(output)
        path.write_bytes(b'{\n  "body": '
                         + body_bytes[:-1].replace(b"\n", b"\n  ")
                         + b',\n  "meta": '
                         + _json(meta, "\n  ").encode("ascii")
                         + b"\n}\n")
    return path


def _report_error(payload: dict):
    """The first ``(path, message)`` by which a report breaks its
    schema, or None.

    A body that fits none of the shapes its ``command`` names gets the
    first error of those shapes, which names the field; the ``oneOf``
    error would quote the whole body.
    """
    doc = _schema("report")
    body = payload["body"]
    shape_errors = [
        next(_schema_errors(shape, body, doc["$defs"], ("body",)), None)
        for shape in doc["properties"]["body"]["oneOf"]
        if body.get("command") in shape["properties"]["command"]["enum"]]
    if shape_errors and all(shape_errors):
        return shape_errors[0]
    return next(_schema_errors(doc, payload, doc["$defs"]), None)


def _side_file(output: str, suffix: str, write) -> tuple:
    """Write the side file ``<output stem><suffix>`` of a report by
    calling ``write`` with its path, as part of the ``report`` stage.
    Returns the path, which ``meta`` names, and the file's sha256, which
    the body carries. Commands call it after their last stage that can
    fail, so a failed run leaves no side file without its report."""
    path = Path(output).with_suffix(suffix)
    with _stage("report"):
        write(path)
        return path, hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _read_json(path, what: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"{what}: cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what}: {path} is not valid JSON: {exc}") from exc


def _read_config_file(path, command: str) -> dict:
    if path is None:
        return {}
    cfg = _read_json(path, "config")
    if not isinstance(cfg, dict):
        raise InputError(f"config: {path} must hold a JSON object")
    _validate_config(cfg, command, partial=True)
    return cfg


def _resolve(props: dict, cfg: dict, flags: dict, defs: dict) -> dict:
    """Give each property the flag, else the config value, else the
    schema's ``"default"``; a property none of them supplies is left out.

    Nested objects are resolved property by property, and a flag fills
    every property of its name at any depth (``--outcome-col`` sets both
    ``schema.outcome`` and ``panel_schema.outcome``).
    """
    out = {}
    for key, prop in props.items():
        if "$ref" in prop:
            prop = defs[prop["$ref"].rsplit("/", 1)[1]]
        if "properties" in prop:
            out[key] = _resolve(prop["properties"], cfg.get(key, {}), flags,
                                defs)
        elif key in flags:
            out[key] = flags[key]
        elif key in cfg:
            out[key] = cfg[key]
        elif "default" in prop:
            out[key] = prop["default"]
    return out


def _merge(args, command: str) -> dict:
    """The effective config: flag > config file > schema default."""
    doc = _schema(f"{command}.config")
    cfg = _read_config_file(args.config, command)
    return _resolve(doc["properties"], cfg, vars(args), doc["$defs"])


def _read_spec(obj):
    """The StatSpec of an inline config object (None: the default)."""
    return None if obj is None else StatSpec.from_dict(obj)


@contextmanager
def _stage(name: str):
    """Prefix pipeline errors with the stage that raised them."""
    try:
        yield
    except ClusterDrError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"{name}: {exc}") from exc


def _dr_stages(cfg: dict, d, s_bar) -> tuple:
    """Stages ``nuisance`` and ``estimate`` of the doubly robust
    estimate. Returns the nuisances and the estimate."""
    with _stage("nuisance"):
        folds = cross_fit_folds(d.c, cfg["L"], cfg["seed"])
        nu = fit_nuisances(d, s_bar, folds, NuisanceConfig(**cfg["nuisance"]))
    with _stage("estimate"):
        return nu, dr_estimate(d, nu, eta=cfg["eta"])


def _dr_block(output: str, d, res) -> tuple:
    """The body block of a DR estimate and its ``.xi.csv``: one
    ``cluster,xi`` row per cluster in dense-id order, values as
    ``repr``. Returns the block, which holds the file's sha256, and the
    file's path."""
    xi_path, xi_sha = _side_file(
        output, ".xi.csv", lambda path: write_table(
            path, ["cluster", "xi"],
            [d.cluster_labels, column_texts(res.xi)]))
    return {**res.to_dict(), "xi_csv_sha256": xi_sha}, xi_path


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def cmd_estimate(args) -> int:
    cfg = _merge(args, "estimate")
    if "data" not in cfg:
        raise InputError("estimate: no data file given (--data or config)")
    _validate_config(cfg, "estimate", partial=False)
    with _stage("configure"):
        spec = _read_spec(cfg["statspec"])
    with _stage("load"):
        d = load_csv(cfg["data"], CsvSchema(**cfg["schema"]))
    with _stage("validate"):
        report = validate(d)
        if not report.ok:
            raise InputError("; ".join(report.errors))
    with _stage("design"):
        if spec is None:
            spec = mundlak_spec(d.k)
        s_bar = build_suffstats(d, spec)
    nu, res = _dr_stages(cfg, d, s_bar)

    labels = d.cluster_labels
    warned = report.degenerate_clusters[:_FIRST_WARNED]
    body = _new_body("estimate", cfg)
    body["data"] = {"n": d.n, "c": d.c, "k": d.k, "warnings": {
        **report.warning_counts, "first": [labels[i] for i in warned]}}
    body["statspec"] = [t.name for t in spec.terms]
    if cfg["baselines"]:
        with _stage("baselines"):
            e_clip = np.clip(nu.e, 1e-6, 1.0 - 1e-6)
            body["baselines"] = {
                "fe": fe_ols(d),
                "mundlak": mundlak_ols(d),
                "weighted_fe": weighted_fe(d, e_clip),
            }
    dr, xi_path = _dr_block(cfg["output"], d, res)
    body["result"] = dr
    path = _write_report(body, cfg["output"],
                         extra_meta={"xi_csv": str(xi_path)})
    lo, hi = dr["ci"]
    print(
        f"tau_hat={dr['tau_hat']:.6g} se={dr['se']:.6g} "
        f"ci=[{lo:.6g}, {hi:.6g}] trimmed_share={1.0 - dr['a_bar']:.4f} "
        f"report={path}"
    )
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _merge(args, "simulate")
    if "preset" not in cfg:
        raise InputError("simulate: no preset given (--preset or config)")
    _validate_config(cfg, "simulate", partial=False)
    overrides = dict(cfg["params"])
    for key in ("c", "n_c", "k", "u_dim", "sigma"):
        if key in cfg:
            overrides[key] = cfg[key]
    est_cfg = cfg["estimator"]
    with _stage("configure"):
        dgp = dgp_preset(cfg["preset"], **overrides)
        est = EstimatorConfig(**{
            **est_cfg,
            "statspec": _read_spec(est_cfg["statspec"]),
            "nuisance": NuisanceConfig(**est_cfg["nuisance"]),
        })
    with _stage("simulate"):
        rep = monte_carlo(dgp, est, reps=cfg["reps"], seed=cfg["seed"])

    body = _new_body("simulate", cfg)
    body["dgp"] = dgp.to_dict()
    body["estimator"] = est.to_dict()
    body["mc"] = rep.to_dict()
    per_rep, body["per_rep_csv_sha256"] = _side_file(
        cfg["output"], ".reps.csv", lambda path: write_table(
            path, ["rep", "tau_hat", "se", "truth", "covered"], [
                map(str, range(rep.reps)),
                column_texts(rep.tau_hat),
                column_texts(rep.se),
                column_texts(rep.truth),
                ["" if math.isnan(c) else str(int(c))
                 for c in rep.covered.tolist()],
            ]))
    path = _write_report(body, cfg["output"],
                         extra_meta={"per_rep_csv": str(per_rep)})
    cov = "n/a" if rep.to_dict()["coverage"] is None else f"{rep.coverage:.3f}"
    print(
        f"reps={rep.reps} bias={rep.bias:+.6g} mc_sd={rep.mc_sd:.6g} "
        f"rmse={rep.rmse:.6g} coverage={cov} failures={len(rep.failures)} "
        f"report={path}"
    )
    return 0


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def cmd_select(args) -> int:
    cfg = _merge(args, "select")
    if "data" not in cfg:
        raise InputError("select: no data file given (--data or config)")
    _validate_config(cfg, "select", partial=False)
    with _stage("configure"):
        cand = _read_spec(cfg["candidates"])
        if cand is not None and not cand.terms:
            raise InputError("candidate statistic list is empty")
    with _stage("load"):
        d = load_csv(cfg["data"], CsvSchema(**cfg["schema"]))
    with _stage("design"):
        if cand is None:
            cand = mundlak_spec(d.k)
        features = np.column_stack([t.unit_values(d) for t in cand.terms])
    with _stage("select"):
        res = multinomial_group_lasso(
            features,
            d.cluster_index,
            lam=cfg["lam"],
            lambda_grid=cfg["lambda_grid"],
            tol=cfg["tol"],
            max_sweeps=cfg["max_sweeps"],
            n_lambdas=cfg["n_lambdas"],
            lambda_min_ratio=cfg["lambda_min_ratio"],
            stop_after_k=cfg["stop_after_k"],
        )
    unconverged = ", ".join(f"{pt.lam:.6g}" for pt in res.path
                            if not pt.converged)
    if unconverged:
        print(f"warning: selector did not converge at λ={unconverged} "
              f"within max_sweeps={cfg['max_sweeps']} steps", file=sys.stderr)
    names = [t.name for t in cand.terms]
    sel_spec = StatSpec(terms=tuple(cand.terms[j] for j in res.selected))

    body = _new_body("select", cfg)
    body["candidates"] = names
    body["selected"] = [names[j] for j in res.selected]
    body["selected_spec"] = sel_spec.to_dict()
    body["lambda_max"] = res.lambda_max
    body["lam"] = res.lam
    body["path"] = [
        {"lam": pt.lam, "selected": [names[j] for j in pt.selected]}
        for pt in res.path
    ]
    spec_path, body["statspec_sha256"] = _side_file(
        cfg["output"], ".statspec.json", lambda path: path.write_text(
            json.dumps(sel_spec.to_dict(), sort_keys=True) + "\n"))
    path = _write_report(body, cfg["output"],
                         extra_meta={"statspec_path": str(spec_path)})
    if not res.selected:
        print("warning: no statistics selected at this penalty",
              file=sys.stderr)
    chosen = ", ".join(body["selected"]) if body["selected"] else "(none)"
    print(f"selected {len(res.selected)}/{len(names)}: {chosen} "
          f"statspec={spec_path} report={path}")
    return 0


# ---------------------------------------------------------------------------
# mixture
# ---------------------------------------------------------------------------


def cmd_mixture(args) -> int:
    cfg = _merge(args, "mixture")
    if "data" not in cfg:
        raise InputError("mixture: no data file given (--data or config)")
    if cfg["p"] is None and cfg["p_grid"] is None:
        raise InputError("mixture: provide --p or --p-grid")
    if cfg["p"] is not None and cfg["p_grid"] is not None:
        raise InputError("mixture: --p and --p-grid are mutually exclusive")
    if cfg["p_grid"] is not None and cfg["estimate"]:
        raise InputError("mixture: --estimate needs --p, not --p-grid")
    _validate_config(cfg, "mixture", partial=False)
    with _stage("load"):
        d = load_csv(cfg["data"], CsvSchema(**cfg["schema"]))
    em_kwargs = {key: cfg[key] for key in ("seed", "tol", "max_iter",
                                           "restarts", "support_cap")}
    body = _new_body("mixture", cfg)
    body["data"] = {"n": d.n, "c": d.c, "k": d.k}

    if cfg["p_grid"] is not None:
        grid = []
        with _stage("mixture"):
            for p in cfg["p_grid"]:
                m = em_fit(d, p=p, **em_kwargs)
                grid.append({
                    "p": p,
                    "loglik": m.loglik,
                    "converged": m.converged,
                    "n_iter": m.n_iter,
                })
        body["grid"] = grid
        path = _write_report(body, cfg["output"])
        for row in grid:
            print(f"p={row['p']} loglik={row['loglik']:.6f} "
                  f"converged={row['converged']} iters={row['n_iter']}")
        print(f"report={path}")
        return 0

    with _stage("mixture"):
        model = em_fit(d, p=cfg["p"], **em_kwargs)
        post = posterior_suffstat(model, d)
    body["model"] = model.to_dict()
    body["posterior"] = post.tolist()

    meta = {}
    if cfg["estimate"]:
        with _stage("design"):
            s_bar = augment_with_posterior(post)
        _, res = _dr_stages(cfg, d, s_bar)
        body["estimate"], xi_path = _dr_block(cfg["output"], d, res)
        meta["xi_csv"] = str(xi_path)
    post_path, body["posterior_csv_sha256"] = _side_file(
        cfg["output"], ".posterior.csv", lambda path: write_table(
            path, ["cluster"] + [f"post_{j}" for j in range(model.p)],
            [d.cluster_labels, *map(column_texts, post.T)]))
    meta["posterior_csv"] = str(post_path)

    path = _write_report(body, cfg["output"], extra_meta=meta)
    line = (f"p={model.p} loglik={model.loglik:.6f} "
            f"converged={model.converged} iters={model.n_iter}")
    if cfg["estimate"]:
        line += f" tau_hat={body['estimate']['tau_hat']:.6g}"
    print(line + f" report={path}")
    return 0


# ---------------------------------------------------------------------------
# check-equivalence
# ---------------------------------------------------------------------------


def cmd_check_equivalence(args) -> int:
    cfg = _merge(args, "check-equivalence")
    if (cfg["data"] is None) == (cfg["panel"] is None):
        raise InputError(
            "check-equivalence: provide exactly one of --data "
            "(cross-section) or --panel (balanced panel)"
        )
    _validate_config(cfg, "check-equivalence", partial=False)
    if cfg["data"] is not None:
        mode = "cross-section"
        with _stage("load"):
            d = load_csv(cfg["data"], CsvSchema(**cfg["schema"]))
        with _stage("estimate"):
            tau_fe, tau_mundlak = fe_ols(d), mundlak_ols(d)
    else:
        mode = "panel"
        with _stage("load"):
            panel = load_panel_csv(cfg["panel"], **cfg["panel_schema"])
        with _stage("estimate"):
            tau_fe, tau_mundlak = twoway_mundlak_check(panel)

    diff = abs(tau_fe - tau_mundlak)
    tolerance = _EQUIV_RTOL * (1.0 + abs(tau_fe))
    equivalent = bool(diff <= tolerance)
    body = _new_body("check-equivalence", cfg)
    body["mode"] = mode
    body["tau_fe"] = tau_fe
    body["tau_mundlak"] = tau_mundlak
    body["max_abs_diff"] = diff
    body["tolerance"] = tolerance
    body["equivalent"] = equivalent
    path = _write_report(body, cfg["output"])
    print(
        f"mode={mode} tau_fe={tau_fe:.10g} tau_mundlak={tau_mundlak:.10g} "
        f"max_abs_diff={diff:.3e} equivalent={equivalent} report={path}"
    )
    return 0 if equivalent else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose usage errors exit with code 1, keeping
    exit code 2 reserved for estimation failures.

    A flag left off the command line is absent from the namespace, so
    the config file or the schema default can fill it. Each ``dest`` is
    the name of the config property the flag sets.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        raise InputError(message)


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit")
    return value


def _eta_arg(text: str):
    if text.lower() in ("none", "off"):
        return None
    return float(text)


def _listed(item):
    """Argparse type for a comma-separated list; empty entries are skipped."""
    def parse(text: str) -> list:
        return [item(v) for v in text.split(",") if v]

    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


def _statspec_file(path) -> dict:
    return _read_json(path, "statspec")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="JSON config file; explicit flags override it")
    p.add_argument("--seed", type=_u64, help="random seed")
    p.add_argument("--threads", type=int, help="accepted and ignored")
    p.add_argument("--output", help="report path")


def _add_csv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="input CSV path")
    p.add_argument("--outcome-col", dest="outcome")
    p.add_argument("--treatment-col", dest="treatment")
    p.add_argument("--cluster-col", dest="cluster")
    p.add_argument("--covariate-cols", dest="covariates", type=_listed(str),
                   help="comma-separated covariate column names")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clusterdr",
        description=("Treatment-effect estimation for clustered data from "
                     "cluster-level summary statistics"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate",
                       help="cross-fitted doubly robust effect estimate")
    _add_common(p)
    _add_csv_flags(p)
    p.add_argument("--statspec", type=_statspec_file,
                   help="path to a JSON statistic specification")
    p.add_argument("--L", type=int, help="number of cross-fitting folds")
    p.add_argument("--eta", type=_eta_arg,
                   help="trimming threshold in [0, 0.5), or 'none'")
    p.add_argument("--baselines", action=argparse.BooleanOptionalAction,
                   help="also report fixed-effect, pooled-with-means, and "
                        "weighted fixed-effect estimates")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="Monte Carlo over a named design")
    _add_common(p)
    sim = _schema("simulate.config")["properties"]
    p.add_argument("--preset", choices=sim["preset"]["enum"])
    p.add_argument("--c", type=int, help="number of clusters")
    p.add_argument("--n-c", dest="n_c", type=int, help="units per cluster")
    p.add_argument("--reps", type=int, help="Monte Carlo repetitions")
    p.add_argument("--method",
                   choices=sim["estimator"]["properties"]["method"]["enum"])
    p.add_argument("--statspec", type=_statspec_file,
                   help="path to a JSON statistic specification")
    p.add_argument("--L", type=int)
    p.add_argument("--eta", type=_eta_arg)
    p.add_argument("--q", type=float, help="quantile level for qte-diff")
    p.add_argument("--use-true-propensity", dest="use_true_propensity",
                   action=argparse.BooleanOptionalAction)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("select",
                       help="pick relevant statistics by group-penalized "
                            "cluster classification")
    _add_common(p)
    _add_csv_flags(p)
    p.add_argument("--candidates", type=_statspec_file,
                   help="path to a JSON statistic specification of candidates")
    p.add_argument("--lam", type=float, help="single penalty level")
    p.add_argument("--lambda-grid", dest="lambda_grid", type=_listed(float),
                   help="comma-separated penalty levels")
    p.add_argument("--n-lambdas", dest="n_lambdas", type=int,
                   help="automatic grid size")
    p.add_argument("--lambda-min-ratio", dest="lambda_min_ratio", type=float,
                   help="smallest grid penalty relative to the all-zero "
                        "penalty")
    p.add_argument("--stop-after-k", dest="stop_after_k", type=int,
                   help="stop the path once this many candidates are active")
    p.add_argument("--tol", type=float,
                   help="largest coefficient move that ends a penalty "
                        "level's fit")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("mixture",
                       help="fit a discrete mixture over cluster types")
    _add_common(p)
    _add_csv_flags(p)
    p.add_argument("--p", type=int, help="number of mixture components")
    p.add_argument("--p-grid", dest="p_grid", type=_listed(int),
                   help="comma-separated component counts; reports the "
                        "log-likelihood for each")
    p.add_argument("--restarts", type=int, help="random restarts")
    p.add_argument("--tol", type=float,
                   help="log-likelihood convergence tolerance")
    p.add_argument("--estimate", action=argparse.BooleanOptionalAction,
                   help="feed cluster posteriors into the doubly robust "
                        "estimator as the cluster summaries")
    p.add_argument("--L", type=int)
    p.add_argument("--eta", type=_eta_arg)
    p.set_defaults(func=cmd_mixture)

    p = sub.add_parser("check-equivalence",
                       help="verify the fixed-effect/augmented-regression "
                            "identity on a dataset")
    _add_common(p)
    _add_csv_flags(p)
    p.add_argument("--panel",
                   help="long-form balanced panel CSV (two-way check)")
    p.add_argument("--unit-col", dest="unit")
    p.add_argument("--time-col", dest="time")
    p.set_defaults(func=cmd_check_equivalence)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
