"""End-to-end checks of the command-line front end.

Each test drives ``main`` in-process with argv lists and inspects exit
codes, report files, and printed summaries. Reports are the contract:
a ``body`` that must be reproducible byte for byte given config and
seed, plus a ``meta`` block for wall-clock facts.
"""

import csv
import dataclasses
import inspect
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdr import (
    CsvSchema,
    EstimatorConfig,
    NuisanceConfig,
    dgp_preset,
    em_fit,
    generate,
    load_csv,
    load_panel_csv,
    multinomial_group_lasso,
)
from clusterdr import cli
from clusterdr.cli import canonical_body_bytes, main
from clusterdr.dataset import write_csv

import oracles


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def demo_csv(workdir):
    res = generate(dgp_preset("mundlak-linear", c=30, n_c=6), 7)
    path = workdir / "demo.csv"
    write_csv(res.dataset, path)
    return path


@pytest.fixture
def panel_csv(workdir):
    rng = np.random.default_rng(5)
    path = workdir / "panel.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "time", "y", "w", "x0"])
        for u in range(10):
            level = rng.normal()
            for t in range(5):
                x = rng.normal()
                w = int(rng.random() < 0.5)
                y = level + 0.3 * t + x + 1.5 * w + rng.normal()
                writer.writerow([f"u{u}", f"t{t}", y, w, x])
    return path


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def body_bytes(path):
    return canonical_body_bytes(read_report(path)["body"])


# --- estimate ---------------------------------------------------------------


def test_estimate_writes_valid_report(demo_csv, workdir, capsys):
    code = main(["estimate", "--data", str(demo_csv), "--seed", "3"])
    assert code == 0
    report = read_report(workdir / "estimate_report.json")
    body, meta = report["body"], report["meta"]
    assert body["command"] == "estimate"
    assert set(body["result"]) >= {"tau_hat", "se", "ci", "v_hat", "a_bar"}
    assert body["config_hash"] == len(body["config_hash"]) * "0" or True
    assert len(body["config_hash"]) == 64
    assert "timestamp" in meta and "body_sha256" in meta
    out = capsys.readouterr().out
    assert "tau_hat=" in out and "trimmed_share=" in out


def test_estimate_missing_column_names_it(workdir, capsys):
    path = workdir / "bad.csv"
    path.write_text("y,treat,cluster,x0\n1.0,1,a,0.5\n2.0,0,a,0.3\n")
    code = main(["estimate", "--data", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "'w'" in err and "load" in err


def test_estimate_rerun_same_seed_byte_identical(demo_csv, workdir):
    args = ["estimate", "--data", str(demo_csv), "--seed", "5"]
    assert main(args + ["--output", "r1.json"]) == 0
    assert main(args + ["--output", "r2.json"]) == 0
    assert body_bytes(workdir / "r1.json") == body_bytes(workdir / "r2.json")


def test_estimate_baselines_include_identity_pair(demo_csv, workdir):
    code = main(["estimate", "--data", str(demo_csv), "--baselines"])
    assert code == 0
    base = read_report(workdir / "estimate_report.json")["body"]["baselines"]
    assert set(base) == {"fe", "mundlak", "weighted_fe"}
    assert abs(base["fe"] - base["mundlak"]) <= 1e-8 * (1 + abs(base["fe"]))


def test_estimate_rejects_unknown_config_key(demo_csv, workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"data": str(demo_csv), "etaa": 0.1}))
    assert main(["estimate", "--config", str(cfg)]) == 1
    assert "etaa" in capsys.readouterr().err


def test_estimate_eta_none_disables_trimming(demo_csv, workdir):
    code = main(["estimate", "--data", str(demo_csv), "--eta", "none"])
    assert code == 0
    body = read_report(workdir / "estimate_report.json")["body"]
    assert body["result"]["a_bar"] == 1.0
    assert body["result"]["eta"] is None


# --- simulate ---------------------------------------------------------------


def test_simulate_smoke_and_per_rep_csv(workdir, capsys):
    code = main(["simulate", "--preset", "mundlak-linear", "--c", "100",
                 "--reps", "2", "--output", "sim.json"])
    assert code == 0
    body = read_report(workdir / "sim.json")["body"]
    assert body["mc"]["reps"] == 2
    with open(workdir / "sim.reps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert "bias=" in capsys.readouterr().out


def test_simulate_flag_beats_config_seed(workdir):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(
        {"preset": "randomized", "c": 40, "reps": 3, "seed": 1}
    ))
    assert main(["simulate", "--config", str(cfg), "--seed", "2",
                 "--output", "s.json"]) == 0
    assert read_report(workdir / "s.json")["body"]["seed"] == 2


def test_simulate_invalid_probability_exits_one(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(
        {"preset": "randomized", "params": {"p0": 1.7}}
    ))
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "p0" in capsys.readouterr().err


def test_simulate_thread_count_does_not_change_body(workdir):
    args = ["simulate", "--preset", "randomized", "--c", "40", "--reps", "4",
            "--seed", "11"]
    assert main(args + ["--threads", "1", "--output", "t1.json"]) == 0
    assert main(args + ["--threads", "3", "--output", "t3.json"]) == 0
    assert body_bytes(workdir / "t1.json") == body_bytes(workdir / "t3.json")
    body = read_report(workdir / "t1.json")["body"]
    assert "threads" not in body["config"] and "output" not in body["config"]


@pytest.mark.parametrize("method", ["dr", "fe", "mundlak"])
def test_simulate_true_propensity_rejected_where_unread(workdir, capsys,
                                                        method):
    code = main(["simulate", "--preset", "hetero-prop", "--c", "40",
                 "--n-c", "20", "--reps", "5", "--seed", "1", "--method",
                 method, "--use-true-propensity", "--output", "s.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert "configure: use_true_propensity" in err and repr(method) in err
    assert not (workdir / "s.json").exists()


# --- select -----------------------------------------------------------------


def test_select_huge_penalty_warns_and_emits_empty_spec(demo_csv, workdir,
                                                        capsys):
    code = main(["select", "--data", str(demo_csv), "--lam", "1e9",
                 "--output", "sel.json"])
    assert code == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    spec = json.loads((workdir / "sel.statspec.json").read_text())
    assert spec == {"terms": []}


def test_select_zero_penalty_echoes_candidates(demo_csv, workdir):
    code = main(["select", "--data", str(demo_csv), "--lam", "0",
                 "--output", "sel.json"])
    assert code == 0
    body = read_report(workdir / "sel.json")["body"]
    assert body["selected"] == body["candidates"]


def test_select_output_feeds_estimate(demo_csv, workdir):
    assert main(["select", "--data", str(demo_csv), "--stop-after-k", "2",
                 "--tol", "1e-4", "--output", "sel.json"]) == 0
    spec_path = workdir / "sel.statspec.json"
    assert main(["estimate", "--data", str(demo_csv),
                 "--statspec", str(spec_path), "--output", "est.json"]) == 0
    body = read_report(workdir / "est.json")["body"]
    sel = read_report(workdir / "sel.json")["body"]["selected"]
    assert body["statspec"] == sel


def test_select_unconverged_fit_warns_body_unchanged(demo_csv, workdir,
                                                     capsys):
    (workdir / "cap.json").write_text(json.dumps({"max_sweeps": 1}))
    args = ["select", "--data", str(demo_csv), "--stop-after-k", "2"]
    assert main(args + ["--config", "cap.json",
                        "--output", "capped.json"]) == 0
    assert ("warning: selector did not converge at λ="
            in capsys.readouterr().err)
    assert main(args + ["--output", "full.json"]) == 0
    assert "did not converge" not in capsys.readouterr().err
    capped = read_report(workdir / "capped.json")["body"]
    full = read_report(workdir / "full.json")["body"]
    assert capped.keys() == full.keys()
    assert [p.keys() for p in capped["path"]] == [
        p.keys() for p in full["path"][:len(capped["path"])]]


def test_select_empty_candidates_exit_one(demo_csv, workdir, capsys):
    cand = workdir / "cand.json"
    cand.write_text(json.dumps({"terms": []}))
    assert main(["select", "--data", str(demo_csv),
                 "--candidates", str(cand)]) == 1
    assert "empty" in capsys.readouterr().err


# --- mixture ----------------------------------------------------------------


def discrete_csv(workdir, seed=0):
    res = generate(dgp_preset("separated-mixture", c=60, n_c=12), seed)
    path = workdir / "disc.csv"
    write_csv(res.dataset, path)
    return path


def test_mixture_single_component_posterior_ones(workdir):
    path = discrete_csv(workdir)
    assert main(["mixture", "--data", str(path), "--p", "1",
                 "--output", "mix.json"]) == 0
    with open(workdir / "mix.posterior.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60
    assert all(float(r["post_0"]) == 1.0 for r in rows)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), p=st.integers(min_value=1, max_value=3))
def test_posterior_csv_matches_row_loop_oracle(tmp_path_factory, data, p):
    # The posterior values are drawn, so the written file sees -0.0 and
    # subnormals that a fitted posterior would not produce.
    workdir = tmp_path_factory.mktemp("mix")
    path = discrete_csv(workdir)
    post = np.array(data.draw(st.lists(
        st.lists(st.one_of(st.floats(min_value=0.0, max_value=1.0),
                           st.sampled_from([-0.0, 5e-324])),
                 min_size=p, max_size=p),
        min_size=60, max_size=60)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "posterior_suffstat", lambda model, d: post)
        assert main(["mixture", "--data", str(path), "--p", str(p),
                     "--output", str(workdir / "mix.json")]) == 0
    oracles.rowwise_write_posterior(load_csv(path).cluster_labels, post,
                                    workdir / "rows.csv")
    assert ((workdir / "mix.posterior.csv").read_bytes()
            == (workdir / "rows.csv").read_bytes())


def test_mixture_p_exceeding_clusters_exit_one(workdir, capsys):
    path = discrete_csv(workdir)
    assert main(["mixture", "--data", str(path), "--p", "61"]) == 1


def test_mixture_continuous_covariates_exit_one(workdir, capsys):
    res = generate(dgp_preset("mundlak-linear", c=30, n_c=40), 3)
    path = workdir / "cont.csv"
    write_csv(res.dataset, path)
    assert main(["mixture", "--data", str(path), "--p", "2"]) == 1
    assert "discrete" in capsys.readouterr().err.lower()


def test_mixture_estimate_pipes_posteriors(workdir):
    path = discrete_csv(workdir)
    assert main(["mixture", "--data", str(path), "--p", "2", "--estimate",
                 "--output", "mix.json"]) == 0
    body = read_report(workdir / "mix.json")["body"]
    assert "estimate" in body
    assert np.isfinite(body["estimate"]["tau_hat"])


def test_mixture_p_grid_reports_logliks(workdir, capsys):
    path = discrete_csv(workdir)
    assert main(["mixture", "--data", str(path), "--p-grid", "1,2",
                 "--output", "grid.json"]) == 0
    body = read_report(workdir / "grid.json")["body"]
    assert [row["p"] for row in body["grid"]] == [1, 2]
    assert body["grid"][1]["loglik"] >= body["grid"][0]["loglik"]


def test_mixture_p_grid_with_estimate_exits_one(workdir, capsys):
    # rejected before loading: the data file does not exist
    assert main(["mixture", "--data", "absent.csv", "--p-grid", "1,2",
                 "--estimate", "--output", "grid.json"]) == 1
    err = capsys.readouterr().err
    assert "mixture: --estimate" in err and "--p-grid" in err
    assert not (workdir / "grid.json").exists()


def test_mixture_rerun_byte_identical(workdir):
    path = discrete_csv(workdir)
    args = ["mixture", "--data", str(path), "--p", "2", "--seed", "4"]
    assert main(args + ["--output", "m1.json"]) == 0
    assert main(args + ["--output", "m2.json"]) == 0
    assert body_bytes(workdir / "m1.json") == body_bytes(workdir / "m2.json")


# --- check-equivalence -------------------------------------------------------


def test_check_cross_section_passes(demo_csv, workdir, capsys):
    code = main(["check-equivalence", "--data", str(demo_csv)])
    assert code == 0
    body = read_report(workdir / "check_equivalence_report.json")["body"]
    assert body["equivalent"] is True
    assert body["mode"] == "cross-section"
    assert "max_abs_diff" in capsys.readouterr().out


def test_check_balanced_panel_passes(panel_csv, workdir):
    assert main(["check-equivalence", "--panel", str(panel_csv)]) == 0
    body = read_report(workdir / "check_equivalence_report.json")["body"]
    assert body["mode"] == "panel" and body["equivalent"] is True


def test_check_unbalanced_panel_exit_two(workdir, capsys):
    path = workdir / "unbal.csv"
    path.write_text(
        "unit,time,y,w,x0\nu0,t0,1.0,1,0.2\nu0,t1,2.0,0,0.1\nu1,t0,1.5,1,0.0\n"
    )
    assert main(["check-equivalence", "--panel", str(path)]) == 2
    assert "balanced" in capsys.readouterr().err


_PANEL_OK = "unit,time,y,w,x0\nu0,t0,1.0,1,0.2\nu0,t1,2.0,0,0.1\n"


@pytest.mark.parametrize("rows, flags, message", [
    ("", ["--covariate-cols", "nope"], "missing column 'nope'"),
    ("u1,t0,1.5\n", [], "row 4: column 'w' value None is not numeric"),
    ("u1,t0,1.5,1\n", [], "row 4: missing covariate 'x0'"),
    (",t0,1.5,1,0.0\n", [], "row 4: empty unit label"),
    ("u1,,1.5,1,0.0\n", [], "row 4: empty time label"),
    ("u1,t0,1.5,2,0.0\n", [], "row 4: treatment must be 0 or 1, got 2.0"),
    ("u1,t0,abc,1,0.0\n", [], "row 4: column 'y' value 'abc' is not "
                               "numeric"),
    ("u1,t0,1.5,1,nan\n", [], "row 4: covariate 'x0' is not finite"),
], ids=["absent-covariate", "short-row", "short-row-covariate", "empty-unit",
        "empty-time", "treatment-2", "non-numeric-outcome", "nan-covariate"])
def test_check_bad_panel_exit_one(workdir, capsys, rows, flags, message):
    path = workdir / "bad.csv"
    path.write_text(_PANEL_OK + rows + "u1,t1,2.5,0,0.3\n")
    assert main(["check-equivalence", "--panel", str(path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: load: ") and message in err


def test_check_requires_exactly_one_input(demo_csv, panel_csv):
    assert main(["check-equivalence"]) == 1
    assert main(["check-equivalence", "--data", str(demo_csv),
                 "--panel", str(panel_csv)]) == 1


# --- config resolution -------------------------------------------------------
# Each row runs one command and pins the merged config the report body
# carries, with its hash. Paths are relative to the work directory so the
# hashes do not depend on where the test runs.

SPEC = {"terms": [{"kind": "covariate-mean", "j": 0}]}
NUISANCE = {"outcome_use_summaries": True, "outcome_interactions": True,
            "propensity_use_summaries": True, "size_indicators": True,
            "ridge": 0.0}
CSV_SCHEMA = {"outcome": "y", "treatment": "w", "cluster": "cluster",
              "covariates": None}
PANEL_SCHEMA = {"unit": "unit", "time": "time", "outcome": "y",
                "treatment": "w", "covariates": None}
ESTIMATE = {"data": "demo.csv", "schema": CSV_SCHEMA, "statspec": None,
            "L": 5, "eta": 0.05, "baselines": False, "nuisance": NUISANCE,
            "seed": 0}
ESTIMATOR = {"method": "dr", "statspec": None, "L": 5, "eta": 0.05, "q": 0.5,
             "use_true_propensity": False, "nuisance": NUISANCE}
SIMULATE = {"params": {}, "reps": 100, "estimator": ESTIMATOR, "seed": 0}
SELECT = {"data": "demo.csv", "schema": CSV_SCHEMA, "candidates": None,
          "lam": None, "lambda_grid": None, "n_lambdas": 25,
          "lambda_min_ratio": 1e-3, "stop_after_k": None, "tol": 1e-6,
          "max_sweeps": 1000, "seed": 0}
MIXTURE = {"data": "disc.csv", "schema": CSV_SCHEMA, "p": None, "p_grid": None,
           "restarts": 5, "tol": 1e-8, "max_iter": 500, "support_cap": 512,
           "estimate": False, "L": 5, "eta": 0.05, "nuisance": NUISANCE,
           "seed": 0}
CHECK = {"data": None, "panel": None, "schema": CSV_SCHEMA,
         "panel_schema": PANEL_SCHEMA, "seed": 0}

CONFIG_TABLE = [
    pytest.param(
        ["estimate", "--data", "demo.csv"], None, ESTIMATE,
        "b380311f8cb6a920d93b7e6e8aa466f0fffd305a47adb8fdc821c4b3e4f4c1ce",
        id="estimate-bare"),
    pytest.param(
        ["estimate"],
        {"data": "demo.csv", "L": 3, "eta": None, "baselines": True,
         "seed": 4},
        {**ESTIMATE, "L": 3, "eta": None, "baselines": True, "seed": 4},
        "9e165cd6de4fcacf8ac2483c3a9eaa29c8d255a4a68a6f120b9c28d1936ddc90",
        id="estimate-config"),
    pytest.param(
        ["estimate", "--L", "4", "--eta", "0.1", "--seed", "9",
         "--no-baselines", "--data", "demo.csv"],
        {"data": "other.csv", "L": 3, "eta": None, "baselines": True,
         "seed": 4},
        {**ESTIMATE, "L": 4, "eta": 0.1, "seed": 9},
        "5d6686a17159542dd29a44627f816e3d3857accf9d0e30999664656de838e953",
        id="estimate-flags-over-config"),
    pytest.param(
        ["estimate", "--data", "demo.csv", "--outcome-col", "y",
         "--cluster-col", "cluster"],
        {"schema": {"covariates": ["x1", "x2"], "outcome": "x3"},
         "nuisance": {"ridge": 0.5, "size_indicators": False}},
        {**ESTIMATE, "schema": {**CSV_SCHEMA, "covariates": ["x1", "x2"]},
         "nuisance": {**NUISANCE, "ridge": 0.5, "size_indicators": False}},
        "bc49b00d3fbb7158eadf8e5cbee0356218c7d31cf652f98f53840e6691427464",
        id="estimate-nested"),
    pytest.param(
        ["estimate", "--data", "demo.csv", "--covariate-cols", "x1,,x2,",
         "--statspec", "spec.json", "--threads", "2", "--output", "e.json"],
        None,
        {**ESTIMATE, "schema": {**CSV_SCHEMA, "covariates": ["x1", "x2"]},
         "statspec": SPEC},
        "ee538d05be6bae7795a5f1844ced13d719422292f59a20f8cfe0dc96c0438e04",
        id="estimate-covariate-list"),
    pytest.param(
        ["simulate", "--preset", "randomized", "--c", "20", "--reps", "2"],
        None,
        {**SIMULATE, "preset": "randomized", "c": 20, "reps": 2},
        "96c6a13e3bc2a8c8ea2d25bd3e44f5873b831e488ffa5815462a592fe4e80563",
        id="simulate-bare"),
    pytest.param(
        ["simulate"],
        {"preset": "mundlak-linear", "c": 20, "n_c": 4, "k": 2, "u_dim": 1,
         "sigma": 0.5, "reps": 2, "params": {"b1": 2.0, "a1": 0.5},
         "estimator": {"method": "fe"}, "seed": 3},
        {**SIMULATE, "preset": "mundlak-linear", "c": 20, "n_c": 4, "k": 2,
         "u_dim": 1, "sigma": 0.5, "reps": 2,
         "params": {"a1": 0.5, "b1": 2.0},
         "estimator": {**ESTIMATOR, "method": "fe"}, "seed": 3},
        "7b8fca79cdc3b29ed275e979b756dbbd3e8936264d0266cfd457df3d75a74165",
        id="simulate-config"),
    pytest.param(
        ["simulate", "--preset", "mundlak-linear", "--L", "4", "--eta", "none",
         "--q", "0.3", "--seed", "5", "--n-c", "6"],
        {"preset": "randomized", "c": 24, "reps": 2, "n_c": 4,
         "estimator": {"L": 3, "eta": 0.1, "method": "dr",
                       "nuisance": {"ridge": 0.1,
                                    "outcome_interactions": False}}},
        {**SIMULATE, "preset": "mundlak-linear", "c": 24, "n_c": 6,
         "reps": 2, "seed": 5,
         "estimator": {**ESTIMATOR, "L": 4, "eta": None, "q": 0.3,
                       "nuisance": {**NUISANCE, "ridge": 0.1,
                                    "outcome_interactions": False}}},
        "401d8d0d513d7e382e01088db190bc65f497751ae9c1cb601a6c28a2f001f694",
        id="simulate-flags-over-nested"),
    pytest.param(
        ["simulate", "--preset", "hetero-prop", "--c", "10", "--n-c", "20",
         "--reps", "2", "--method", "weighted-fe", "--use-true-propensity",
         "--statspec", "spec.json"],
        {"estimator": {"use_true_propensity": False, "q": 0.25},
         "threads": 3},
        {**SIMULATE, "preset": "hetero-prop", "c": 10, "n_c": 20, "reps": 2,
         "estimator": {**ESTIMATOR, "method": "weighted-fe", "statspec": SPEC,
                       "q": 0.25, "use_true_propensity": True}},
        "6d892cddd7b7b6e2662883c6bf21cd20b39aa1e951c405f7aaacf25bc94732da",
        id="simulate-statspec"),
    pytest.param(
        ["select", "--data", "demo.csv", "--lam", "0"], None,
        {**SELECT, "lam": 0.0},
        "c357fdc2cec026eace9878b9b400ab9eb5c66a820777020bc796894307840817",
        id="select-flags"),
    pytest.param(
        ["select"],
        {"data": "demo.csv", "lambda_grid": [1.0, 0.1], "tol": 1e-4,
         "max_sweeps": 200, "n_lambdas": 5},
        {**SELECT, "lambda_grid": [1.0, 0.1], "tol": 1e-4, "max_sweeps": 200,
         "n_lambdas": 5},
        "99cfd2c7354bf72e3af1ce437c056cb21b1afd2e0f3da69ab4f28ae4369607ec",
        id="select-config"),
    pytest.param(
        ["select", "--lam", "0.5", "--stop-after-k", "1",
         "--lambda-min-ratio", "0.01", "--tol", "1e-3", "--seed", "2"],
        {"data": "demo.csv", "lam": 0.0, "n_lambdas": 5, "tol": 1e-5},
        {**SELECT, "lam": 0.5, "stop_after_k": 1, "lambda_min_ratio": 0.01,
         "tol": 1e-3, "seed": 2, "n_lambdas": 5},
        "6ed64e47b350c10ad8d15f5bbc64b134e7f391402be397efca653debd7723a90",
        id="select-flags-over-config"),
    pytest.param(
        ["select", "--data", "demo.csv", "--candidates", "spec.json",
         "--covariate-cols", "x1,,x2,", "--lambda-grid", "0.5,0.05",
         "--n-lambdas", "3"],
        {"schema": {"treatment": "w"}},
        {**SELECT, "schema": {**CSV_SCHEMA, "covariates": ["x1", "x2"]},
         "candidates": SPEC, "lambda_grid": [0.5, 0.05], "n_lambdas": 3},
        "166f7f59b52e7f3e6afbde3c01a5ad3a01b6553c40d6cf8ab479b32e3650a044",
        id="select-candidates"),
    pytest.param(
        ["mixture", "--data", "disc.csv", "--p", "1"], None,
        {**MIXTURE, "p": 1},
        "404a14c15f03d2b282c70d150f70a52139a010cc65a5da93c08e147e6683b718",
        id="mixture-bare"),
    pytest.param(
        ["mixture"],
        {"data": "disc.csv", "p_grid": [1, 2], "restarts": 2, "max_iter": 50,
         "support_cap": 64, "tol": 1e-6},
        {**MIXTURE, "p_grid": [1, 2], "restarts": 2, "max_iter": 50,
         "support_cap": 64, "tol": 1e-6},
        "3fec7b8d9c539e364136b9ed3ca37ee938ec1cac7249476d0d938ce24b35bec1",
        id="mixture-config"),
    pytest.param(
        ["mixture", "--p", "2", "--restarts", "1", "--seed", "2",
         "--estimate", "--eta", "0.1", "--L", "3", "--tol", "1e-6"],
        {"data": "disc.csv", "p": 3, "restarts": 3, "L": 4, "estimate": False,
         "nuisance": {"propensity_use_summaries": False}},
        {**MIXTURE, "p": 2, "restarts": 1, "seed": 2, "estimate": True,
         "eta": 0.1, "L": 3, "tol": 1e-6,
         "nuisance": {**NUISANCE, "propensity_use_summaries": False}},
        "7c40f51068b8b159d27e455276c2e9e9817de46e3e928daada73271cc29dc62c",
        id="mixture-flags-over-config"),
    pytest.param(
        ["mixture", "--data", "disc.csv", "--p-grid", "1,2,"],
        {"schema": {"covariates": ["x1"], "cluster": "cluster"},
         "restarts": 2},
        {**MIXTURE, "schema": {**CSV_SCHEMA, "covariates": ["x1"]},
         "p_grid": [1, 2], "restarts": 2},
        "02999c8625f660dbd155913cc970175c9f1486d9779215a664b3a4040304acc1",
        id="mixture-p-grid-flag"),
    pytest.param(
        ["check-equivalence", "--data", "demo.csv"], None,
        {**CHECK, "data": "demo.csv"},
        "6a12d7a1ee4aede1becaa3d8a656b6e67108c86ddaca21f5ad3a5412fa96dd98",
        id="check-bare"),
    pytest.param(
        ["check-equivalence"],
        {"panel": "panel.csv", "panel_schema": {"covariates": ["x0"]},
         "seed": 3},
        {**CHECK, "panel": "panel.csv", "seed": 3,
         "panel_schema": {**PANEL_SCHEMA, "covariates": ["x0"]}},
        "c3f79260382f904b845d3f24aa14d42d01cbfdc1080b20da743676e944b7842f",
        id="check-config"),
    pytest.param(
        ["check-equivalence", "--panel", "firms.csv", "--unit-col", "firm",
         "--time-col", "year", "--outcome-col", "out"],
        {"schema": {"cluster": "firm"}},
        {**CHECK, "panel": "firms.csv",
         "schema": {**CSV_SCHEMA, "outcome": "out", "cluster": "firm"},
         "panel_schema": {**PANEL_SCHEMA, "unit": "firm", "time": "year",
                          "outcome": "out"}},
        "3220f82f75d7bdbe42f17e455acf879fa3add609cf0d8cf9947ef1ad6a9ceebd",
        id="check-flags-fill-both-schemas"),
    pytest.param(
        ["check-equivalence", "--covariate-cols", "x1,", "--seed", "1",
         "--treatment-col", "w"],
        {"data": "demo.csv", "schema": {"covariates": ["x2"]},
         "panel_schema": {"unit": "u"}, "output": "c.json"},
        {**CHECK, "data": "demo.csv", "seed": 1,
         "schema": {**CSV_SCHEMA, "covariates": ["x1"]},
         "panel_schema": {**PANEL_SCHEMA, "unit": "u", "covariates": ["x1"]}},
        "396e4fc3c933ea7433ef8141bdbf97b2a1a855d25a9bf6fa5fce7ecb72a8a48b",
        id="check-flags-over-config"),
]


@pytest.mark.parametrize("argv, cfg, config, digest", CONFIG_TABLE)
def test_merged_config_and_hash(argv, cfg, config, digest, demo_csv,
                                panel_csv, workdir, capsys):
    discrete_csv(workdir)
    text = panel_csv.read_text().replace("unit,time,y,", "firm,year,out,", 1)
    (workdir / "firms.csv").write_text(text)
    (workdir / "spec.json").write_text(json.dumps(SPEC))
    if cfg is not None:
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        argv = argv + ["--config", "cfg.json"]
    assert main(argv) == 0
    report = capsys.readouterr().out.rsplit("report=", 1)[1].split()[0]
    body = read_report(workdir / report)["body"]
    assert body["config"] == config
    assert body["config_hash"] == digest


def schema_default(command, *path):
    """The ``"default"`` at ``path`` in a command's config schema."""
    pkg = resources.files("clusterdr").joinpath("schemas")
    defs = json.loads(pkg.joinpath("defs.json").read_text())["$defs"]
    node = json.loads(pkg.joinpath(f"{command}.config.json").read_text())
    for key in path:
        node = node["properties"][key]
        if "$ref" in node:
            node = defs[node["$ref"].rsplit("/", 1)[1]]
    return node["default"]


def keyword_defaults(fn):
    params = inspect.signature(fn).parameters.items()
    return {name: p.default for name, p in params
            if p.default is not inspect.Parameter.empty}


def test_schema_defaults_match_library_defaults():
    pairs = []
    for f in dataclasses.fields(NuisanceConfig):
        for command, path in (("estimate", ()), ("mixture", ()),
                              ("simulate", ("estimator",))):
            pairs.append((schema_default(command, *path, "nuisance", f.name),
                          f.default))
    for f in dataclasses.fields(EstimatorConfig):
        if f.name != "nuisance":
            pairs.append((schema_default("simulate", "estimator", f.name),
                          f.default))
    for name, value in keyword_defaults(em_fit).items():
        pairs.append((schema_default("mixture", name), value))
    for name, value in keyword_defaults(multinomial_group_lasso).items():
        pairs.append((schema_default("select", name), value))
    for f in dataclasses.fields(CsvSchema):
        pairs.append((schema_default("estimate", "schema", f.name), f.default))
    for name, value in keyword_defaults(load_panel_csv).items():
        pairs.append((schema_default("check-equivalence", "panel_schema",
                                     name), value))
    assert len(pairs) == 42
    for got, want in pairs:
        assert (got, type(got)) == (want, type(want))


@pytest.mark.parametrize("command, flag, value", [
    ("select", "--lambda-grid", "0.1,abc"),
    ("mixture", "--p-grid", "1,two"),
])
def test_malformed_list_flag_exits_one(command, flag, value, demo_csv, capsys):
    assert main([command, "--data", str(demo_csv), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and value in err


# --- shared contract ----------------------------------------------------------


def test_unknown_subcommand_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--preset", "--method"])
def test_simulate_unknown_choice_exit_one(flag, capsys):
    args = ["simulate", "--preset", "randomized", "--reps", "1"]
    assert main(args + [flag, "no-such-name"]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid choice: 'no-such-name'" in err
