"""Command-line front end for the clustered treatment-effect pipeline.

Five subcommands (``estimate``, ``simulate``, ``select``, ``mixture``,
``check-equivalence``) share one report convention: a JSON file with a
``body`` holding everything reproducible given config and seed, and a
``meta`` block holding the wall-clock timestamp and the body's SHA-256.
The canonical body serialization is sorted-key, two-space-indented
JSON, so two runs with identical config and seed produce byte-identical
canonical bodies even though their report files differ in ``meta``.

Options resolve as: explicit command-line flag, then config file, then
built-in default. Config files are schema-checked before and after the
merge, with unknown keys rejected. The effective config is embedded in
the body and hashed (output path and thread cap excluded, since neither
changes any computed number).

Exit codes: 0 success, 1 input or configuration problem, 2 estimation
or numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from .dataset import CsvSchema, load_csv, validate
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
from .simulate import (
    PRESET_NAMES,
    EstimatorConfig,
    dgp_preset,
    monte_carlo,
)
from .suffstats import StatSpec, build_suffstats, mundlak_spec, overlap_set

__all__ = ["main", "canonical_body_bytes", "config_hash"]

_UNSET = object()
_EQUIV_RTOL = 1e-8


# ---------------------------------------------------------------------------
# Canonical serialization, hashing, schemas
# ---------------------------------------------------------------------------


def canonical_body_bytes(body: dict) -> bytes:
    """The byte-comparable serialization of a report body."""
    return (json.dumps(body, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode("utf-8")


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


def _validate_config(cfg: dict, command: str, partial: bool) -> None:
    """Schema-check a config dict; ``partial`` skips required keys.

    The raw config file is checked partially (flags may still fill
    required options); the merged config is checked in full.
    """
    doc = dict(_schema(f"{command}.config"))
    if partial:
        doc.pop("required", None)
    errors = sorted(
        Draft202012Validator(doc).iter_errors(cfg),
        key=lambda e: (list(map(str, e.absolute_path)), e.message),
    )
    if errors:
        err = errors[0]
        where = "/".join(str(p) for p in err.absolute_path) or "top level"
        raise InputError(f"config ({command}): {where}: {err.message}")


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
    body_bytes = canonical_body_bytes(body)
    meta = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "body_sha256": hashlib.sha256(body_bytes).hexdigest(),
    }
    if extra_meta:
        meta.update(extra_meta)
    payload = {"body": body, "meta": meta}
    errors = list(Draft202012Validator(_schema("report")).iter_errors(payload))
    if errors:
        raise EstimationError(f"report: malformed output: {errors[0].message}")
    path = Path(output)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               allow_nan=False) + "\n")
    return path


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _read_config_file(path, command: str) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"config: cannot read {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config: {path} must hold a JSON object")
    _validate_config(cfg, command, partial=True)
    return cfg


def _opt(flag_value, cfg: dict, key: str, default):
    """Flag > config > default; an absent flag carries the _UNSET mark."""
    if flag_value is not _UNSET:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


def _read_statspec_flag(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"statspec: cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"statspec: {path} is not valid JSON: {exc}") from exc
    return obj


def _spec_from_config(obj, k: int) -> StatSpec:
    """Build a StatSpec from an inline config object (None = default)."""
    if obj is None:
        return mundlak_spec(k)
    return StatSpec.from_json(json.dumps(obj))


def _csv_schema_config(args, cfg: dict) -> dict:
    sub = dict(cfg.get("schema", {}))
    for flag, key in (("outcome_col", "outcome"), ("treatment_col", "treatment"),
                      ("cluster_col", "cluster")):
        v = getattr(args, flag)
        if v is not _UNSET:
            sub[key] = v
    if args.covariate_cols is not _UNSET:
        sub["covariates"] = [c for c in args.covariate_cols.split(",") if c]
    sub.setdefault("outcome", "y")
    sub.setdefault("treatment", "w")
    sub.setdefault("cluster", "cluster")
    sub.setdefault("covariates", None)
    return sub


def _csv_schema(sub: dict) -> CsvSchema:
    return CsvSchema(
        outcome=sub["outcome"],
        treatment=sub["treatment"],
        cluster=sub["cluster"],
        covariates=sub["covariates"],
    )


def _nuisance_config(cfg: dict) -> dict:
    sub = dict(cfg.get("nuisance", {}))
    sub.setdefault("outcome_use_summaries", True)
    sub.setdefault("outcome_interactions", True)
    sub.setdefault("propensity_use_summaries", True)
    sub.setdefault("size_indicators", True)
    sub.setdefault("ridge", 0.0)
    return sub


@contextmanager
def _stage(name: str):
    """Prefix pipeline errors with the stage that raised them."""
    try:
        yield
    except ClusterDrError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"{name}: {exc}") from exc


def _overlap_mask(e_hat: np.ndarray, eta) -> np.ndarray:
    if eta is None:
        return np.ones(e_hat.shape[0], dtype=np.int8)
    return overlap_set(e_hat, eta)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _merge_estimate(args) -> dict:
    cfg = _read_config_file(args.config, "estimate")
    statspec = _opt(
        _read_statspec_flag(args.statspec) if args.statspec is not _UNSET
        else _UNSET,
        cfg, "statspec", None,
    )
    merged = {
        "data": _opt(args.data, cfg, "data", None),
        "schema": _csv_schema_config(args, cfg),
        "statspec": statspec,
        "L": _opt(args.L, cfg, "L", 5),
        "eta": _opt(args.eta, cfg, "eta", 0.05),
        "baselines": _opt(args.baselines, cfg, "baselines", False),
        "nuisance": _nuisance_config(cfg),
        "seed": _opt(args.seed, cfg, "seed", 0),
        "threads": _opt(args.threads, cfg, "threads", 1),
        "output": _opt(args.output, cfg, "output", "estimate_report.json"),
    }
    if merged["data"] is None:
        raise InputError("estimate: no data file given (--data or config)")
    _validate_config(merged, "estimate", partial=False)
    return merged


def cmd_estimate(args) -> int:
    cfg = _merge_estimate(args)
    with _stage("load"):
        d = load_csv(cfg["data"], _csv_schema(cfg["schema"]))
    with _stage("validate"):
        report = validate(d)
        if not report.ok:
            raise InputError("; ".join(report.errors))
    with _stage("design"):
        spec = _spec_from_config(cfg["statspec"], d.k)
        ad = build_suffstats(d, spec)
    folds = cross_fit_folds(d.c, cfg["L"], cfg["seed"])
    with _stage("nuisance"):
        nu = fit_nuisances(ad, d, folds, NuisanceConfig(**cfg["nuisance"]))
    with _stage("estimate"):
        a = _overlap_mask(nu.e, cfg["eta"])
        res = dr_estimate(d, ad.with_mask(a), nu, eta=cfg["eta"])

    body = _new_body("estimate", cfg)
    body["data"] = {"n": d.n, "c": d.c, "k": d.k, "warnings": report.warnings}
    body["statspec"] = [t.name for t in spec.terms]
    body["result"] = res.to_dict()
    if cfg["baselines"]:
        with _stage("baselines"):
            e_clip = np.clip(nu.e, 1e-6, 1.0 - 1e-6)
            body["baselines"] = {
                "fe": fe_ols(d).tau,
                "mundlak": mundlak_ols(d).tau,
                "weighted_fe": weighted_fe(d, e_clip).tau,
            }
    path = _write_report(body, cfg["output"])
    trimmed = 1.0 - res.a_bar
    print(
        f"tau_hat={res.tau_hat:.6g} se={res.se:.6g} "
        f"ci=[{res.ci[0]:.6g}, {res.ci[1]:.6g}] trimmed_share={trimmed:.4f} "
        f"report={path}"
    )
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _merge_simulate(args) -> dict:
    cfg = _read_config_file(args.config, "simulate")
    est_cfg = dict(cfg.get("estimator", {}))
    statspec = _opt(
        _read_statspec_flag(args.statspec) if args.statspec is not _UNSET
        else _UNSET,
        est_cfg, "statspec", None,
    )
    for flag, key in (("method", "method"), ("L", "L"), ("eta", "eta"),
                      ("q", "q"),
                      ("use_true_propensity", "use_true_propensity")):
        v = getattr(args, flag)
        if v is not _UNSET:
            est_cfg[key] = v
    est_cfg.setdefault("method", "dr")
    est_cfg["statspec"] = statspec
    est_cfg.setdefault("L", 5)
    est_cfg.setdefault("eta", 0.05)
    est_cfg.setdefault("q", 0.5)
    est_cfg.setdefault("use_true_propensity", False)
    est_cfg["nuisance"] = _nuisance_config(est_cfg)

    merged = {
        "preset": _opt(args.preset, cfg, "preset", None),
        "c": _opt(args.c, cfg, "c", None),
        "n_c": _opt(args.n_c, cfg, "n_c", None),
        "k": _opt(_UNSET, cfg, "k", None),
        "u_dim": _opt(_UNSET, cfg, "u_dim", None),
        "sigma": _opt(_UNSET, cfg, "sigma", None),
        "params": dict(cfg.get("params", {})),
        "reps": _opt(args.reps, cfg, "reps", 100),
        "estimator": est_cfg,
        "seed": _opt(args.seed, cfg, "seed", 0),
        "threads": _opt(args.threads, cfg, "threads", 1),
        "output": _opt(args.output, cfg, "output", "simulate_report.json"),
    }
    if merged["preset"] is None:
        raise InputError("simulate: no preset given (--preset or config)")
    drop = [key for key in ("c", "n_c", "k", "u_dim", "sigma")
            if merged[key] is None]
    for key in drop:
        del merged[key]
    _validate_config(merged, "simulate", partial=False)
    return merged


def cmd_simulate(args) -> int:
    cfg = _merge_simulate(args)
    overrides = dict(cfg["params"])
    for key in ("c", "n_c", "k", "u_dim", "sigma"):
        if key in cfg:
            overrides[key] = cfg[key]
    with _stage("configure"):
        dgp = dgp_preset(cfg["preset"], **overrides)
    est_cfg = cfg["estimator"]
    spec = (None if est_cfg["statspec"] is None
            else StatSpec.from_json(json.dumps(est_cfg["statspec"])))
    est = EstimatorConfig(
        method=est_cfg["method"],
        statspec=spec,
        L=est_cfg["L"],
        eta=est_cfg["eta"],
        q=est_cfg["q"],
        use_true_propensity=est_cfg["use_true_propensity"],
        nuisance=NuisanceConfig(**est_cfg["nuisance"]),
    )
    with _stage("simulate"):
        rep = monte_carlo(dgp, est, reps=cfg["reps"], seed=cfg["seed"],
                          threads=cfg["threads"])

    body = _new_body("simulate", cfg)
    body["dgp"] = dgp.to_dict()
    body["estimator"] = est.to_dict()
    body["mc"] = rep.to_dict()
    out = Path(cfg["output"])
    per_rep = out.with_suffix(".reps.csv")
    rep.write_per_rep_csv(per_rep)
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


def _merge_select(args) -> dict:
    cfg = _read_config_file(args.config, "select")
    candidates = _opt(
        _read_statspec_flag(args.candidates) if args.candidates is not _UNSET
        else _UNSET,
        cfg, "candidates", None,
    )
    lambda_grid = args.lambda_grid
    if lambda_grid is not _UNSET and lambda_grid is not None:
        lambda_grid = [float(v) for v in lambda_grid.split(",") if v]
    merged = {
        "data": _opt(args.data, cfg, "data", None),
        "schema": _csv_schema_config(args, cfg),
        "candidates": candidates,
        "lam": _opt(args.lam, cfg, "lam", None),
        "lambda_grid": _opt(lambda_grid, cfg, "lambda_grid", None),
        "n_lambdas": _opt(args.n_lambdas, cfg, "n_lambdas", 25),
        "lambda_min_ratio": _opt(args.lambda_min_ratio, cfg,
                                 "lambda_min_ratio", 1e-3),
        "stop_after_k": _opt(args.stop_after_k, cfg, "stop_after_k", None),
        "tol": _opt(args.tol, cfg, "tol", 1e-6),
        "max_sweeps": _opt(_UNSET, cfg, "max_sweeps", 1000),
        "seed": _opt(args.seed, cfg, "seed", 0),
        "threads": _opt(args.threads, cfg, "threads", 1),
        "output": _opt(args.output, cfg, "output", "select_report.json"),
    }
    if merged["data"] is None:
        raise InputError("select: no data file given (--data or config)")
    _validate_config(merged, "select", partial=False)
    return merged


def cmd_select(args) -> int:
    cfg = _merge_select(args)
    with _stage("load"):
        d = load_csv(cfg["data"], _csv_schema(cfg["schema"]))
    with _stage("design"):
        cand = _spec_from_config(cfg["candidates"], d.k)
        if not cand.terms:
            raise InputError("candidate statistic list is empty")
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
    names = [t.name for t in cand.terms]
    sel_spec = StatSpec(terms=tuple(cand.terms[j] for j in res.selected))

    body = _new_body("select", cfg)
    body["candidates"] = names
    body["selected"] = [names[j] for j in res.selected]
    body["selected_spec"] = json.loads(sel_spec.to_json())
    body["lambda_max"] = res.lambda_max
    body["lam"] = res.lam
    body["path"] = [
        {"lam": pt.lam, "selected": [names[j] for j in pt.selected]}
        for pt in res.path
    ]
    out = Path(cfg["output"])
    spec_path = out.with_suffix(".statspec.json")
    spec_path.write_text(sel_spec.to_json() + "\n")
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


def _merge_mixture(args) -> dict:
    cfg = _read_config_file(args.config, "mixture")
    p_grid = args.p_grid
    if p_grid is not _UNSET and p_grid is not None:
        p_grid = [int(v) for v in p_grid.split(",") if v]
    merged = {
        "data": _opt(args.data, cfg, "data", None),
        "schema": _csv_schema_config(args, cfg),
        "p": _opt(args.p, cfg, "p", None),
        "p_grid": _opt(p_grid, cfg, "p_grid", None),
        "restarts": _opt(args.restarts, cfg, "restarts", 5),
        "tol": _opt(args.tol, cfg, "tol", 1e-8),
        "max_iter": _opt(_UNSET, cfg, "max_iter", 500),
        "support_cap": _opt(_UNSET, cfg, "support_cap", 512),
        "estimate": _opt(args.estimate, cfg, "estimate", False),
        "L": _opt(args.L, cfg, "L", 5),
        "eta": _opt(args.eta, cfg, "eta", 0.05),
        "nuisance": _nuisance_config(cfg),
        "seed": _opt(args.seed, cfg, "seed", 0),
        "threads": _opt(args.threads, cfg, "threads", 1),
        "output": _opt(args.output, cfg, "output", "mixture_report.json"),
    }
    if merged["data"] is None:
        raise InputError("mixture: no data file given (--data or config)")
    if merged["p"] is None and merged["p_grid"] is None:
        raise InputError("mixture: provide --p or --p-grid")
    if merged["p"] is not None and merged["p_grid"] is not None:
        raise InputError("mixture: --p and --p-grid are mutually exclusive")
    _validate_config(merged, "mixture", partial=False)
    return merged


def cmd_mixture(args) -> int:
    cfg = _merge_mixture(args)
    with _stage("load"):
        d = load_csv(cfg["data"], _csv_schema(cfg["schema"]))
    em_kwargs = dict(
        seed=cfg["seed"], tol=cfg["tol"], max_iter=cfg["max_iter"],
        restarts=cfg["restarts"], support_cap=cfg["support_cap"],
    )
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
        posterior = posterior_suffstat(model, d)
    post = posterior.cluster_posterior
    body["model"] = model.to_dict()
    body["posterior"] = [[float(v) for v in row] for row in post]

    out = Path(cfg["output"])
    post_path = out.with_suffix(".posterior.csv")
    with open(post_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster"] + [f"post_{j}" for j in range(model.p)])
        for label, row in zip(d.cluster_labels, post):
            writer.writerow([label] + [repr(float(v)) for v in row])

    meta = {"posterior_csv": str(post_path)}
    if cfg["estimate"]:
        with _stage("estimate"):
            ad = augment_with_posterior(d, model, posterior)
            folds = cross_fit_folds(d.c, cfg["L"], cfg["seed"])
            nu = fit_nuisances(ad, d, folds, NuisanceConfig(**cfg["nuisance"]))
            a = _overlap_mask(nu.e, cfg["eta"])
            res = dr_estimate(d, ad.with_mask(a), nu, eta=cfg["eta"])
        body["estimate"] = res.to_dict()

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


def _merge_check(args) -> dict:
    cfg = _read_config_file(args.config, "check-equivalence")
    panel_schema = dict(cfg.get("panel_schema", {}))
    if args.unit_col is not _UNSET:
        panel_schema["unit"] = args.unit_col
    if args.time_col is not _UNSET:
        panel_schema["time"] = args.time_col
    if args.outcome_col is not _UNSET:
        panel_schema["outcome"] = args.outcome_col
    if args.treatment_col is not _UNSET:
        panel_schema["treatment"] = args.treatment_col
    if args.covariate_cols is not _UNSET:
        panel_schema["covariates"] = [
            c for c in args.covariate_cols.split(",") if c
        ]
    panel_schema.setdefault("unit", "unit")
    panel_schema.setdefault("time", "time")
    panel_schema.setdefault("outcome", "y")
    panel_schema.setdefault("treatment", "w")
    panel_schema.setdefault("covariates", None)
    merged = {
        "data": _opt(args.data, cfg, "data", None),
        "panel": _opt(args.panel, cfg, "panel", None),
        "schema": _csv_schema_config(args, cfg),
        "panel_schema": panel_schema,
        "seed": _opt(args.seed, cfg, "seed", 0),
        "threads": _opt(args.threads, cfg, "threads", 1),
        "output": _opt(args.output, cfg, "output",
                       "check_equivalence_report.json"),
    }
    if (merged["data"] is None) == (merged["panel"] is None):
        raise InputError(
            "check-equivalence: provide exactly one of --data "
            "(cross-section) or --panel (balanced panel)"
        )
    _validate_config(merged, "check-equivalence", partial=False)
    return merged


def cmd_check_equivalence(args) -> int:
    cfg = _merge_check(args)
    if cfg["data"] is not None:
        mode = "cross-section"
        with _stage("load"):
            d = load_csv(cfg["data"], _csv_schema(cfg["schema"]))
        with _stage("estimate"):
            tau_fe = fe_ols(d).tau
            tau_mundlak = mundlak_ols(d).tau
        diff = abs(tau_fe - tau_mundlak)
    else:
        mode = "panel"
        ps = cfg["panel_schema"]
        with _stage("load"):
            panel = load_panel_csv(
                cfg["panel"], unit=ps["unit"], time=ps["time"],
                outcome=ps["outcome"], treatment=ps["treatment"],
                covariates=ps["covariates"],
            )
        with _stage("estimate"):
            chk = twoway_mundlak_check(panel)
        tau_fe, tau_mundlak, diff = (chk.tau_fe, chk.tau_mundlak,
                                     chk.max_abs_diff)

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
    exit code 2 reserved for estimation failures."""

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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="JSON config file; explicit flags override it")
    p.add_argument("--seed", type=_u64, default=_UNSET,
                   help="random seed (default 0)")
    p.add_argument("--threads", type=int, default=_UNSET,
                   help="worker cap for parallel sections (default 1)")
    p.add_argument("--output", default=_UNSET,
                   help="report path (default <command>_report.json)")


def _add_csv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", default=_UNSET, help="input CSV path")
    p.add_argument("--outcome-col", dest="outcome_col", default=_UNSET)
    p.add_argument("--treatment-col", dest="treatment_col", default=_UNSET)
    p.add_argument("--cluster-col", dest="cluster_col", default=_UNSET)
    p.add_argument("--covariate-cols", dest="covariate_cols", default=_UNSET,
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
    p.add_argument("--statspec", default=_UNSET,
                   help="path to a JSON statistic specification")
    p.add_argument("--L", type=int, default=_UNSET,
                   help="number of cross-fitting folds (default 5)")
    p.add_argument("--eta", type=_eta_arg, default=_UNSET,
                   help="trimming threshold in [0, 0.5), or 'none' (default 0.05)")
    p.add_argument("--baselines", action=argparse.BooleanOptionalAction,
                   default=_UNSET,
                   help="also report fixed-effect, pooled-with-means, and "
                        "weighted fixed-effect estimates")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="Monte Carlo over a named design")
    _add_common(p)
    p.add_argument("--preset", default=_UNSET, choices=list(PRESET_NAMES))
    p.add_argument("--c", type=int, default=_UNSET, help="number of clusters")
    p.add_argument("--n-c", dest="n_c", type=int, default=_UNSET,
                   help="units per cluster")
    p.add_argument("--reps", type=int, default=_UNSET,
                   help="Monte Carlo repetitions (default 100)")
    p.add_argument("--method", default=_UNSET,
                   choices=["dr", "fe", "mundlak", "weighted-fe", "qte-diff"])
    p.add_argument("--statspec", default=_UNSET,
                   help="path to a JSON statistic specification")
    p.add_argument("--L", type=int, default=_UNSET)
    p.add_argument("--eta", type=_eta_arg, default=_UNSET)
    p.add_argument("--q", type=float, default=_UNSET,
                   help="quantile level for qte-diff (default 0.5)")
    p.add_argument("--use-true-propensity", dest="use_true_propensity",
                   action=argparse.BooleanOptionalAction, default=_UNSET)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("select",
                       help="pick relevant statistics by group-penalized "
                            "cluster classification")
    _add_common(p)
    _add_csv_flags(p)
    p.add_argument("--candidates", default=_UNSET,
                   help="path to a JSON statistic specification of candidates")
    p.add_argument("--lam", type=float, default=_UNSET,
                   help="single penalty level")
    p.add_argument("--lambda-grid", dest="lambda_grid", default=_UNSET,
                   help="comma-separated penalty levels")
    p.add_argument("--n-lambdas", dest="n_lambdas", type=int, default=_UNSET,
                   help="automatic grid size (default 25)")
    p.add_argument("--lambda-min-ratio", dest="lambda_min_ratio", type=float,
                   default=_UNSET,
                   help="smallest grid penalty relative to the all-zero "
                        "penalty (default 1e-3)")
    p.add_argument("--stop-after-k", dest="stop_after_k", type=int,
                   default=_UNSET,
                   help="stop the path once this many candidates are active")
    p.add_argument("--tol", type=float, default=_UNSET,
                   help="coordinate-descent tolerance (default 1e-6)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("mixture",
                       help="fit a discrete mixture over cluster types")
    _add_common(p)
    _add_csv_flags(p)
    p.add_argument("--p", type=int, default=_UNSET,
                   help="number of mixture components")
    p.add_argument("--p-grid", dest="p_grid", default=_UNSET,
                   help="comma-separated component counts; reports the "
                        "log-likelihood for each")
    p.add_argument("--restarts", type=int, default=_UNSET,
                   help="random restarts (default 5)")
    p.add_argument("--tol", type=float, default=_UNSET,
                   help="log-likelihood convergence tolerance (default 1e-8)")
    p.add_argument("--estimate", action=argparse.BooleanOptionalAction,
                   default=_UNSET,
                   help="feed cluster posteriors into the doubly robust "
                        "estimator as the cluster summaries")
    p.add_argument("--L", type=int, default=_UNSET)
    p.add_argument("--eta", type=_eta_arg, default=_UNSET)
    p.set_defaults(func=cmd_mixture)

    p = sub.add_parser("check-equivalence",
                       help="verify the fixed-effect/augmented-regression "
                            "identity on a dataset")
    _add_common(p)
    _add_csv_flags(p)
    p.add_argument("--panel", default=_UNSET,
                   help="long-form balanced panel CSV (two-way check)")
    p.add_argument("--unit-col", dest="unit_col", default=_UNSET)
    p.add_argument("--time-col", dest="time_col", default=_UNSET)
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
