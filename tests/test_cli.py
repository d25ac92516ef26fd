"""End-to-end checks of the command-line front end.

Each test drives ``main`` in-process with argv lists and inspects exit
codes, report files, and printed summaries. Reports are the contract:
a ``body`` that must be reproducible byte for byte given config and
seed, plus a ``meta`` block for wall-clock facts.
"""

import csv
import dataclasses
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdr import (
    CsvSchema,
    Dataset,
    EstimatorConfig,
    NuisanceConfig,
    build_suffstats,
    cross_fit_folds,
    dgp_preset,
    dr_estimate,
    em_fit,
    fit_nuisances,
    generate,
    load_csv,
    load_panel_csv,
    multinomial_group_lasso,
    mundlak_spec,
    validate,
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


def subprocess_env(**extra):
    """This process's environment plus ``extra``, with this checkout's
    package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


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


@settings(max_examples=15, deadline=None)
@given(preset=st.sampled_from(["nonlinear-u", "mundlak-linear"]),
       c=st.integers(min_value=40, max_value=500),
       seed=st.integers(min_value=0, max_value=10_000),
       k=st.integers(min_value=-60, max_value=60))
def test_outcome_scale_multiplies_estimates_exactly(tmp_path_factory, preset,
                                                   c, seed, k):
    # Metamorphic relation (Chen, Cheung & Yiu 1998): y -> 2^k y leaves
    # the propensities alone and scales every least-squares right-hand
    # side exactly, so the estimate, its interval and each baseline are
    # 2^k times the original, and the variance 4^k times, bit for bit.
    tmp_path = tmp_path_factory.mktemp("scale")
    d = generate(dgp_preset(preset, c=c), seed).dataset
    write_csv(d, tmp_path / "y.csv")
    write_csv(Dataset(np.ldexp(d.y, k), d.w, d.x, d.cluster_index),
              tmp_path / "scaled.csv")
    bodies = []
    for name in ("y", "scaled"):
        assert main(["estimate", "--data", str(tmp_path / f"{name}.csv"),
                     "--baselines", "--output",
                     str(tmp_path / f"{name}.json")]) == 0
        bodies.append(read_report(tmp_path / f"{name}.json")["body"])
    got, want = bodies[1], bodies[0]
    for key in ("tau_hat", "se"):
        assert got["result"][key] == math.ldexp(want["result"][key], k)
    assert got["result"]["ci"] == [math.ldexp(v, k)
                                   for v in want["result"]["ci"]]
    assert got["result"]["v_hat"] == math.ldexp(want["result"]["v_hat"],
                                                 2 * k)
    assert got["baselines"] == {name: math.ldexp(v, k)
                                for name, v in want["baselines"].items()}


@pytest.mark.slow
@pytest.mark.parametrize("s", [1e-6, 1e-7, 1e-8])
def test_near_collinear_covariates_estimate(s, workdir):
    # x2 = 2 x1 + s * noise: the propensity design's columns clear the
    # 1e-9 rank rule, yet Newton steps in the design's own basis stopped
    # unconverged in 3, 14 and 20 of these 20 runs, and estimate exited 2.
    for seed in range(20):
        d = generate(dgp_preset("mundlak-linear", c=40, n_c=6, k=1),
                     seed).dataset
        noise = np.random.default_rng(seed).standard_normal(d.n)
        x = np.column_stack([d.x[:, 0], 2.0 * d.x[:, 0] + s * noise])
        write_csv(Dataset(d.y, d.w, x, d.cluster_index), workdir / "near.csv")
        assert main(["estimate", "--data", "near.csv",
                     "--output", "near.json"]) == 0, seed


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


def key_paths(node, path=()):
    """Every dict key path in a report body; lists count as leaves."""
    if not isinstance(node, dict):
        return {path}
    return {p for key, value in node.items()
            for p in key_paths(value, path + (key,))}


def test_estimate_body_does_not_grow_with_clusters(workdir):
    # Three units per cluster with a fair coin: a quarter of the clusters
    # are single-arm, so the larger input warns about ~500 clusters.
    bodies = []
    for c in (200, 2000):
        res = generate(dgp_preset("randomized", c=c, n_c=3), 4)
        write_csv(res.dataset, workdir / f"c{c}.csv")
        assert main(["estimate", "--data", f"c{c}.csv",
                     "--output", f"c{c}.json"]) == 0
        bodies.append(read_report(workdir / f"c{c}.json")["body"])
    small, large = bodies
    assert key_paths(small) == key_paths(large)
    warn = large["data"]["warnings"]
    assert set(warn) == {"single_unit", "all_treated", "all_control",
                         "first"}
    assert warn["all_treated"] + warn["all_control"] > 100
    assert warn["single_unit"] == 0
    assert warn["first"] == [str(j) for j in validate(
        load_csv(workdir / "c2000.csv")).degenerate_clusters[:20]]
    assert len(small["data"]["warnings"]["first"]) <= 20


def test_estimate_warning_counts_match_validate(workdir):
    path = workdir / "deg.csv"
    path.write_text("y,w,cluster,x1\n"
                    "1,1,a,0.1\n2,0,a,0.2\n3,1,b,0.3\n4,1,b,0.4\n"
                    "5,0,c,0.5\n6,1,d,0.6\n7,0,e,0.7\n8,0,e,0.8\n"
                    "9,1,f,0.9\n1,0,f,1.0\n2,1,g,1.1\n3,0,g,1.2\n")
    assert main(["estimate", "--data", str(path), "--L", "2",
                 "--eta", "none", "--output", "deg.json"]) == 0
    warn = read_report(workdir / "deg.json")["body"]["data"]["warnings"]
    assert warn == {"single_unit": 2, "all_treated": 2, "all_control": 2,
                    "first": ["b", "c", "d", "e"]}
    assert sum(warn[k] for k in ("single_unit", "all_treated",
                                 "all_control")) == len(
        validate(load_csv(path)).warnings)


def read_xi_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cluster", "xi"]
    return [r[0] for r in rows[1:]], np.array([float(r[1]) for r in rows[1:]])


def test_xi_csv_round_trips_dr_estimate(demo_csv, workdir):
    assert main(["estimate", "--data", str(demo_csv), "--seed", "6",
                 "--output", "est.json"]) == 0
    report = read_report(workdir / "est.json")
    assert report["meta"]["xi_csv"] == "est.xi.csv"
    xi_bytes = (workdir / "est.xi.csv").read_bytes()
    assert (report["body"]["result"]["xi_csv_sha256"]
            == hashlib.sha256(xi_bytes).hexdigest())

    d = load_csv(demo_csv)
    nu = fit_nuisances(d, build_suffstats(d, mundlak_spec(d.k)),
                       cross_fit_folds(d.c, 5, 6))
    want = dr_estimate(d, nu, eta=0.05)
    labels, xi = read_xi_csv(workdir / "est.xi.csv")
    assert labels == d.cluster_labels
    assert xi.tobytes() == want.xi.tobytes()
    assert report["body"]["result"]["tau_hat"] == want.tau_hat


def test_mixture_estimate_writes_hashed_xi_csv(workdir):
    path = discrete_csv(workdir)
    assert main(["mixture", "--data", str(path), "--p", "2", "--estimate",
                 "--output", "mix.json"]) == 0
    report = read_report(workdir / "mix.json")
    body, meta = report["body"], report["meta"]
    labels, xi = read_xi_csv(workdir / meta["xi_csv"])
    assert labels == load_csv(path).cluster_labels and np.isfinite(xi).all()
    for sha, side in ((body["estimate"]["xi_csv_sha256"], meta["xi_csv"]),
                      (body["posterior_csv_sha256"], meta["posterior_csv"])):
        assert sha == hashlib.sha256((workdir / side).read_bytes()).hexdigest()


def test_side_file_hashes_of_simulate_and_select(demo_csv, workdir):
    assert main(["simulate", "--preset", "randomized", "--c", "40",
                 "--reps", "2", "--output", "sim.json"]) == 0
    assert main(["select", "--data", str(demo_csv), "--stop-after-k", "1",
                 "--output", "sel.json"]) == 0
    for report, sha_key, meta_key in (("sim.json", "per_rep_csv_sha256",
                                       "per_rep_csv"),
                                      ("sel.json", "statspec_sha256",
                                       "statspec_path")):
        doc = read_report(workdir / report)
        side = Path(doc["meta"][meta_key]).read_bytes()
        assert doc["body"][sha_key] == hashlib.sha256(side).hexdigest()


@pytest.mark.parametrize("argv", [
    ["estimate", "--data", "demo.csv"],
    ["mixture", "--data", "disc.csv", "--p", "2", "--estimate"],
], ids=["estimate", "mixture-estimate"])
def test_unwritable_xi_csv_exits_one(argv, demo_csv, workdir, capsys):
    discrete_csv(workdir)
    (workdir / "out.xi.csv").mkdir()
    assert main(argv + ["--output", "out.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: report: ") and "out.xi.csv" in err
    assert not (workdir / "out.json").exists()


@pytest.mark.parametrize("argv, code", [
    (["estimate", "--data", "arms.csv", "--baselines", "--eta", "none"], 2),
    (["mixture", "--data", "mix.csv", "--p", "2", "--estimate", "--L", "61"],
     1),
], ids=["estimate-baselines", "mixture-estimate"])
def test_failed_run_leaves_no_side_file(argv, code, workdir):
    # Every cluster of arms.csv has one arm, so the baselines fail after
    # the DR estimate; mix.csv has 40 clusters for 61 folds, so the
    # nuisance stage fails after the mixture fit.
    rng = np.random.default_rng(0)
    cluster = np.repeat(np.arange(40), 5)
    write_csv(Dataset(rng.standard_normal(200), cluster % 2,
                      rng.standard_normal((200, 1)), cluster),
              workdir / "arms.csv")
    write_csv(generate(dgp_preset("separated-mixture", c=40), 0).dataset,
              workdir / "mix.csv")
    before = set(os.listdir(workdir))
    assert main(argv + ["--output", "out.json"]) == code
    assert set(os.listdir(workdir)) == before


@pytest.mark.slow
def test_bodies_do_not_depend_on_blas_threads(workdir):
    # 200k rows: below about 160k, a.T @ v gave the same bits whatever
    # the thread count even where the kernels were not fixed.
    write_csv(generate(dgp_preset("nonlinear-u", c=20000, n_c=10), 3).dataset,
              workdir / "est.csv")
    write_csv(generate(dgp_preset("separated-mixture", c=20000, n_c=10),
                       3).dataset, workdir / "mix.csv")
    jobs = {"est": ["estimate", "--data", "est.csv", "--baselines"],
            "mix": ["mixture", "--data", "mix.csv", "--p", "2",
                    "--estimate"]}
    got = {}
    for threads in ("1", "2"):
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads,
                             OMP_NUM_THREADS=threads)
        for name, args in jobs.items():
            out = f"{name}{threads}.json"
            subprocess.run([sys.executable, "-c", "import sys; from "
                            "clusterdr.cli import main; sys.exit(main())",
                            *args, "--seed", "3", "--output", out], env=env,
                           cwd=workdir, check=True, capture_output=True)
            got[name, threads] = (
                read_report(workdir / out)["meta"]["body_sha256"],
                (workdir / f"{name}{threads}.xi.csv").read_bytes())
    for name in jobs:
        assert got[name, "1"] == got[name, "2"], name


@pytest.mark.slow
def test_varied_size_bodies_do_not_depend_on_blas_threads(workdir):
    # 109,849 rows in clusters of 1 to 10 units, two folds of unequal
    # size (54,862 and 54,987 rows). When each fold's held-out rows were
    # predicted in one matrix-vector product, BLAS split that product
    # between two threads, and the rows at the end of a thread's share
    # rounded differently, so the body changed with the thread count.
    d = generate(dgp_preset("nonlinear-u", c=20000, n_c=10), 0).dataset
    keep_n = np.random.default_rng(0).integers(1, 11, d.c)
    first = np.repeat(np.cumsum(d.n_c) - d.n_c, d.n_c)
    keep = np.arange(d.n) - first < keep_n[d.cluster_index]
    write_csv(Dataset(d.y[keep], d.w[keep], d.x[keep], d.cluster_index[keep]),
              workdir / "var.csv")
    got = {}
    for threads in ("1", "2"):
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads,
                             OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", "import sys; from "
                        "clusterdr.cli import main; sys.exit(main())",
                        "estimate", "--data", "var.csv", "--L", "2",
                        "--baselines", "--output", f"var{threads}.json"],
                       env=env, cwd=workdir, check=True, capture_output=True)
        got[threads] = read_report(workdir / f"var{threads}.json")["body"]
    assert got["1"] == got["2"]


@pytest.mark.slow
def test_wide_design_bodies_do_not_depend_on_blas_threads(workdir):
    # 33,150 rows in clusters of 1 to 60 units: 59 size indicators, so
    # the prediction design has 65 columns and the outcome system 72,
    # and two folds of more than 8,192 rows each. OpenBLAS splits a
    # product of 460,800 or more entries between threads, so 8,192-row
    # held-out blocks (532,480 entries), their QR and the Hessian
    # products of the propensity fit gave bodies that changed with the
    # thread count.
    d = generate(dgp_preset("nonlinear-u", c=1100, n_c=60), 0).dataset
    keep = np.arange(d.n) % 60 < 1 + d.cluster_index % 60
    write_csv(Dataset(d.y[keep], d.w[keep], d.x[keep], d.cluster_index[keep]),
              workdir / "wide.csv")
    got = {}
    for threads in ("1", "2"):
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads,
                             OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", "import sys; from "
                        "clusterdr.cli import main; sys.exit(main())",
                        "estimate", "--data", "wide.csv", "--L", "2",
                        "--baselines", "--output", f"wide{threads}.json"],
                       env=env, cwd=workdir, check=True, capture_output=True)
        got[threads] = read_report(workdir / f"wide{threads}.json")
    assert got["1"]["body"]["data"]["n"] == 33_150
    assert got["1"]["meta"]["body_sha256"] == got["2"]["meta"]["body_sha256"]


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--data", "one.csv"],
     "cannot split 1 clusters into 5 folds"),
    (["estimate", "--data", "demo.csv", "--L", "31"],
     "cannot split 30 clusters into 31 folds"),
    (["mixture", "--data", "disc.csv", "--p", "2", "--estimate", "--L", "61"],
     "cannot split 60 clusters into 61 folds"),
], ids=["one-cluster", "L-past-clusters", "mixture-L-past-clusters"])
def test_estimate_fewer_clusters_than_folds_exits_one(argv, message, demo_csv,
                                                      workdir, capsys):
    (workdir / "one.csv").write_text("y,w,cluster,x1\n1,1,a,0.5\n2,0,a,0.3\n")
    discrete_csv(workdir)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: nuisance: {message}\n"


@pytest.mark.parametrize("scale", [1e160, 1e300])
@pytest.mark.parametrize("command", ["estimate", "mixture"])
def test_non_finite_estimate_exits_two(command, scale, workdir, capsys):
    # Finite outcomes this large overflow the squares of the variance
    # (and, at 1e300, the score): the estimate stage refuses the
    # non-finite numbers, and no overflow warning escapes (the suite
    # turns warnings into errors).
    if command == "estimate":
        res = generate(dgp_preset("mundlak-linear", c=30, n_c=6), 7)
        argv = ["estimate", "--data", "big.csv"]
    else:
        res = generate(dgp_preset("separated-mixture", c=40), 7)
        argv = ["mixture", "--data", "big.csv", "--p", "2", "--estimate"]
    d = res.dataset
    write_csv(Dataset(d.y * scale, d.w, d.x, d.cluster_index),
              workdir / "big.csv")
    before = set(os.listdir(workdir))
    assert main(argv + ["--output", "out.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: estimate: the estimate is not finite ")
    assert err.count("\n") == 1
    assert set(os.listdir(workdir)) == before


@pytest.mark.parametrize("command", ["estimate", "select", "simulate"])
@pytest.mark.parametrize("tag", ["log:9", "square:-1", "cube:0"])
def test_transform_tag_past_covariates_exits_one(command, tag, demo_csv,
                                                 workdir, capsys):
    # An index past the data's covariates is found in the design stage
    # (for simulate, in every rep); an unknown tag is refused when the
    # spec is read, which every command does before it loads or draws
    # any data.
    spec = {"terms": [{"kind": "custom-transform", "tag": tag}]}
    j = tag.partition(":")[2]
    if command == "simulate":
        cfg = {"estimator": {"statspec": spec}}
        inputs, k = ["--preset", "randomized", "--c", "40", "--reps", "2"], 1
    else:
        cfg = {"statspec" if command == "estimate" else "candidates": spec}
        data = "absent.csv" if tag == "cube:0" else str(demo_csv)
        inputs, k = ["--data", data], 3
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    assert main([command, "--config", "cfg.json", *inputs]) == 1
    if tag == "cube:0":
        assert capsys.readouterr().err == (
            "error: configure: unknown transform tag 'cube:0'\n")
        return
    message = f"term references covariate {j} but dataset has {k} covariates"
    assert capsys.readouterr().err == (
        f"error: design: {message}\n" if command != "simulate" else
        f"error: simulate: every rep failed; rep 0: InputError: {message}\n")


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


def test_select_standardizes_huge_covariates_without_overflow(workdir):
    # Covariates near 1e300 overflow the squares of a plain standard
    # deviation. Each candidate is first divided by the power of two at
    # its largest |value|, so the selection is that of the unscaled data
    # and no overflow warning escapes (the suite turns warnings into
    # errors). Covariates times 2^996 standardize to the same bits, so
    # they give the same path.
    d = generate(dgp_preset("sparse-relevant", c=60), 0).dataset
    write_csv(d, workdir / "plain.csv")
    write_csv(Dataset(d.y, d.w, d.x * 1e300, d.cluster_index),
              workdir / "big.csv")
    write_csv(Dataset(d.y, d.w, np.ldexp(d.x, 996), d.cluster_index),
              workdir / "pow2.csv")
    bodies = {}
    for name in ("plain", "big", "pow2"):
        assert main(["select", "--data", f"{name}.csv", "--stop-after-k",
                     "2", "--output", f"{name}.json"]) == 0
        bodies[name] = read_report(workdir / f"{name}.json")["body"]
    assert all(body["selected"] == ["w_bar", "x0_bar"]
               for body in bodies.values())
    assert bodies["pow2"]["path"] == bodies["plain"]["path"]


def test_select_empty_candidates_exit_one(demo_csv, workdir, capsys):
    cand = workdir / "cand.json"
    cand.write_text(json.dumps({"terms": []}))
    assert main(["select", "--data", str(demo_csv),
                 "--candidates", str(cand)]) == 1
    assert capsys.readouterr().err == (
        "error: configure: candidate statistic list is empty\n")


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


def test_check_single_period_panel_exit_two(workdir, capsys):
    path = workdir / "one_period.csv"
    rng = np.random.default_rng(6)
    path.write_text("unit,time,y,w,x0\n" + "".join(
        f"u{u},t0,{rng.normal()!r},{u % 2},{rng.normal()!r}\n"
        for u in range(50)))
    assert main(["check-equivalence", "--panel", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: estimate: no residual treatment variation for two-way "
        "fixed-effects regression; treatment is additive in unit and "
        "period effects (as with a single period)\n")
    assert not (workdir / "check_equivalence_report.json").exists()


@pytest.mark.parametrize("flag", ["--data", "--panel"])
def test_check_nan_outcome_exits_one(flag, demo_csv, panel_csv, workdir,
                                     capsys):
    # A NaN outcome is read, and the fixed-effects fit refuses it.
    path = demo_csv if flag == "--data" else panel_csv
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[2]["y"] = "nan"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert main(["check-equivalence", flag, str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: estimate: response contains non-finite values\n")
    assert not (workdir / "check_equivalence_report.json").exists()


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


@pytest.mark.parametrize("rows, message", [
    (None, "empty file"),
    ("", "no data rows"),
    ("\n\r\n\n", "no data rows"),
], ids=["zero-bytes", "header-only", "header-and-blank-lines"])
@pytest.mark.parametrize("command, flag, header", [
    ("estimate", "--data", "y,w,cluster,x1\n"),
    ("check-equivalence", "--panel", "unit,time,y,w,x0\n"),
], ids=["estimate", "panel"])
def test_empty_input_exits_one_without_warning(workdir, capsys, command, flag,
                                               header, rows, message):
    path = workdir / "empty.csv"
    path.write_text("" if rows is None else header + rows, newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, flag, str(path)]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == f"error: load: {path}: {message}\n"


def test_unreadable_csv_row_exits_one(workdir, capsys):
    # the bad x1 cell sends the file to the row reader, which reads the
    # label past the csv module's default field limit before it
    long = "c" * (csv.field_size_limit() + 1)
    path = workdir / "long.csv"
    path.write_text(f"y,w,cluster,x1\n1,1,a,0.5\n2,0,{long},0.3\n"
                    "3,1,b,oops\n")
    assert main(["estimate", "--data", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: load: row 4: column 'x1' value 'oops' is not "
                   "numeric\n")


def test_check_requires_exactly_one_input(demo_csv, panel_csv):
    assert main(["check-equivalence"]) == 1
    assert main(["check-equivalence", "--data", str(demo_csv),
                 "--panel", str(panel_csv)]) == 1


# --- reports ----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    lambda demo, disc: ["estimate", "--data", demo],
    lambda demo, disc: ["simulate", "--preset", "mundlak-linear", "--c", "40",
                        "--reps", "2"],
    lambda demo, disc: ["select", "--data", demo, "--stop-after-k", "1"],
    lambda demo, disc: ["mixture", "--data", disc, "--p", "1"],
    lambda demo, disc: ["check-equivalence", "--data", demo],
], ids=["estimate", "simulate", "select", "mixture", "check-equivalence"])
def test_output_in_missing_directory_exit_one(argv, demo_csv, workdir,
                                              capsys):
    args = argv(str(demo_csv), str(discrete_csv(workdir)))
    assert main(args + ["--output", "missing/out.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: report: ") and "Traceback" not in err
    assert not (workdir / "missing").exists()


@pytest.mark.parametrize("argv, field", [
    (["estimate", "--data", "demo.csv"], ("result", "tau_hat")),
    (["estimate", "--data", "demo.csv"], ("statspec",)),
    (["mixture", "--data", "disc.csv", "--p", "2", "--estimate"],
     ("estimate", "xi_csv_sha256")),
    (["mixture", "--data", "disc.csv", "--p-grid", "1,2"], ("grid",)),
    (["simulate", "--preset", "randomized", "--c", "40", "--reps", "2"],
     ("per_rep_csv_sha256",)),
    (["select", "--data", "demo.csv", "--stop-after-k", "1"], ("lam",)),
    (["check-equivalence", "--data", "demo.csv"], ("equivalent",)),
], ids=["estimate-result", "estimate", "mixture-estimate", "mixture-grid",
        "simulate", "select", "check-equivalence"])
def test_renamed_body_field_is_malformed_output(argv, field, demo_csv,
                                                workdir):
    discrete_csv(workdir)
    assert main(argv + ["--output", "out.json"]) == 0
    body = read_report(workdir / "out.json")["body"]
    cli._write_report(body, "again.json")
    block = body[field[0]] if len(field) == 2 else body
    block[field[-1] + "_renamed"] = block.pop(field[-1])
    with pytest.raises(cli.EstimationError,
                       match="^report: malformed output: ") as caught:
        cli._write_report(body, "renamed.json")
    assert not (workdir / "renamed.json").exists()
    # the message names the field rather than quoting the body
    message = str(caught.value)
    assert repr(field[-1] + "_renamed") in message and len(message) < 1024
    assert "not valid under any" not in message


_TEXT = st.text(alphabet=st.sampled_from(
    ["a", "Z", " ", "\n", "\r", "\t", '"', "\\", "/", "é", "€", "\u2028",
     "\U0001f600", "\x00"]), max_size=6)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _TEXT,
              st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from([0.0, -0.0, 5e-324, -5e-324])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(fields=st.dictionaries(_TEXT, _JSON, max_size=5),
       config=st.dictionaries(_TEXT, _JSON, max_size=3),
       extra_meta=st.dictionaries(
           st.sampled_from(["per_rep_csv", "posterior_csv",
                            "statspec_path"]), _TEXT, max_size=3))
def test_report_file_matches_one_dumps_oracle(tmp_path_factory, fields,
                                              config, extra_meta):
    body = {"command": "mixture", "config": config, "config_hash": 64 * "0",
            "seed": 0, "data": fields, "grid": list(fields.values())}
    path = tmp_path_factory.mktemp("report") / "r.json"
    cli._write_report(body, str(path), extra_meta)
    written = path.read_bytes()
    meta = json.loads(written)["meta"]
    assert written == oracles.dumps_report(body, meta)
    assert (meta["body_sha256"]
            == hashlib.sha256(canonical_body_bytes(body)).hexdigest())


_ROW_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1e22, 5e-324, 0.1, 1e-7]))
# rows of floats, the posterior's shape, with ints and bools mixed in
_ROWS = st.lists(st.lists(_ROW_FLOATS, max_size=3)
                 | st.lists(_ROW_FLOATS | st.integers() | st.booleans(),
                            max_size=3).map(tuple), max_size=4)
_CONTROL_TEXT = st.text(st.characters(max_codepoint=0x2FF)
                        | st.sampled_from(["\u2028", "\uffff", "\U0001f600"]),
                        max_size=5)
_BODY_VALUES = st.recursive(
    _JSON | _ROWS | _CONTROL_TEXT,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_TEXT | _CONTROL_TEXT, inner,
                                     max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(body=st.dictionaries(_TEXT | _CONTROL_TEXT, _BODY_VALUES, max_size=5))
def test_canonical_body_bytes_match_json_dumps_oracle(body):
    assert canonical_body_bytes(body) == oracles.dumps_body(body)


@pytest.mark.parametrize("value", [
    {"a": 1, "b": [1.0, 2]}, [[]], [{}], (1.5, -0.0), {"a": (None, True)},
    {"x": "\x00\x1f\x7f é"}, {"x": [[1e16, 5e-324], [True, 0.5]]},
    "top-level text", 2.5, None, {1: "int key", 2: [0.5]},
    {1.5: "float key", -0.0: 1}, {True: "a", False: "b"}, {None: [2, 1]},
    {"f": np.float64(0.25), "r": [np.float64(1.5), 0.5]},
])
def test_canonical_body_bytes_of_fixed_values(value):
    assert canonical_body_bytes(value) == oracles.dumps_body(value)


@pytest.mark.parametrize("bad", [
    math.nan, math.inf, -math.inf, [1.0, math.nan], [[0.5, -math.inf]],
    {"a": [1, math.inf]}, {"p": {"q": (2.0, math.nan)}}, {math.nan: 1},
])
def test_canonical_body_bytes_refuse_nan_and_inf(bad):
    with pytest.raises(ValueError, match="Out of range float values"):
        oracles.dumps_body(bad)
    with pytest.raises(ValueError, match="Out of range float values"):
        canonical_body_bytes(bad)


@pytest.mark.parametrize("bad", [
    {"a": {1, 2}}, [np.int64(3)], {(1, 2): 3}, {"a": b"x"},
])
def test_canonical_body_bytes_refuse_what_json_refuses(bad):
    with pytest.raises(TypeError) as want:
        oracles.dumps_body(bad)
    with pytest.raises(TypeError) as got:
        canonical_body_bytes(bad)
    assert str(got.value) == str(want.value)


def test_canonical_body_bytes_peak_memory():
    # A 20,000 x 2 posterior, the mixture-estimate workload's body.
    # json.dumps with an indent holds every token until the end, 4.8x
    # the output; one joined string per container stays under 4x.
    post = np.random.default_rng(0).dirichlet([1.0, 1.0], 20_000).tolist()
    body = {"command": "mixture", "posterior": post,
            "model": {"p": 2, "loglik": -1.5}}
    tracemalloc.start()
    try:
        out = canonical_body_bytes(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == oracles.dumps_body(body)
    assert peak <= 4 * len(out), peak / len(out)


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


# --- schema checking ---------------------------------------------------------
# ``cli._schema_errors`` replaces jsonschema at run time; jsonschema stays
# as the oracle of the tests below.

SCHEMA_NAMES = ["estimate.config", "simulate.config", "select.config",
                "mixture.config", "check-equivalence.config", "report"]


def _json_integer(checker, instance):
    return isinstance(instance, int) and not isinstance(instance, bool)


def _oracle():
    """Draft 2020-12 with the one intended difference: an integral float
    (``2.0``) is not an ``integer``."""
    validators = pytest.importorskip("jsonschema.validators")
    base = validators.Draft202012Validator
    return validators.extend(base, type_checker=base.TYPE_CHECKER.redefine(
        "integer", _json_integer))


_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.text("ab", max_size=2),
    st.sampled_from([0.0, 1.0, -0.5, 2.5, float("nan"), float("inf")]),
    st.just([]), st.just({}), st.just([None]), st.just({"kind": 1}))


def _near_bound(bound):
    """Numbers on and beside ``bound``, ints and floats, and booleans."""
    values = [bound, bound - 1, bound + 1, bound - 1e-9, bound + 1e-9,
              float(bound), True, False]
    if float(bound).is_integer():
        values += [int(bound), int(bound) - 1, int(bound) + 1]
    return st.sampled_from(values)


def _near(schema, defs, off):
    """Instances that ``schema`` accepts (``off`` false), or instances
    off it in one or more places: the wrong type, a bound or its
    neighbour, an empty string or list, an unknown key, a missing
    required key, a bad list item or property at any depth."""
    if "$ref" in schema:
        schema = defs[schema["$ref"].rsplit("/", 1)[1]]
    good = [_near(sub, defs, off) for sub in schema.get("oneOf", [])]
    bad = [_ANY]
    if "enum" in schema:
        good.append(st.sampled_from(schema["enum"]))
        bad.append(st.just("no-such-kind"))
    kind = schema.get("type")
    if kind == "object":
        props = {name: _near(sub, defs, False)
                 for name, sub in schema.get("properties", {}).items()}
        required = schema.get("required", [])

        def dicts(props, changed=()):
            fixed = [k for k in props if k in required or k in changed]
            return st.fixed_dictionaries(
                {k: props[k] for k in fixed},
                optional={k: v for k, v in props.items() if k not in fixed})

        good.append(dicts(props))
        bad.append(dicts({**props, "zz_unknown": _ANY}, ["zz_unknown"]))
        if required:
            bad.append(dicts({k: v for k, v in props.items()
                              if k != required[0]}))
        if props:
            bad.append(st.lists(st.sampled_from(sorted(props)), min_size=1,
                                unique=True).flatmap(lambda keys: dicts(
                {**props, **{k: _near(schema["properties"][k], defs, True)
                             for k in keys}}, keys)))
    elif kind == "array" and "items" not in schema:
        good.append(st.lists(_ANY, max_size=3))
    elif kind == "array":
        item = schema["items"]
        good.append(st.lists(_near(item, defs, False), min_size=1,
                             max_size=3))
        bad.append(st.just([]))
        bad.append(st.tuples(good[-1], _near(item, defs, True)).map(
            lambda t: t[0] + [t[1]]))
    elif kind == "string":
        good.append(st.sampled_from(["a", "out.json", 64 * "0", 64 * "f"]))
        bad.append(st.sampled_from(["", 63 * "0", 64 * "0" + "\n", 64 * "g"]))
    elif kind in ("number", "integer"):
        bounds = ("minimum", "maximum", "exclusiveMinimum",
                  "exclusiveMaximum")
        bad += [_near_bound(schema[k]) for k in bounds if k in schema]
        if kind == "integer":
            good.append(st.integers(schema.get("minimum"), 2**64))
        else:
            good.append(st.floats(
                schema.get("minimum", schema.get("exclusiveMinimum")),
                schema.get("maximum", schema.get("exclusiveMaximum")),
                allow_nan=False, exclude_min="exclusiveMinimum" in schema,
                exclude_max="exclusiveMaximum" in schema))
    elif kind == "boolean":
        good.append(st.booleans())
    elif kind == "null":
        good.append(st.none())
    if off:
        return st.one_of(*good[:len(schema.get("oneOf", []))], *bad)
    return st.one_of(good or [_ANY])


@pytest.mark.parametrize("name, partial", [
    (name, partial) for name in SCHEMA_NAMES for partial in (False, True)
    if not (partial and name == "report")])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_schema_errors_match_jsonschema(name, partial, data):
    doc = cli._schema(name)
    if partial:
        doc = {k: v for k, v in doc.items() if k != "required"}
    instance = data.draw(_near(doc, doc["$defs"], data.draw(st.booleans())))
    want = [(tuple(e.absolute_path), e.message)
            for e in _oracle()(doc).iter_errors(instance)]
    got = list(cli._schema_errors(doc, instance, doc["$defs"]))
    assert got == want
    if name == "report" or not isinstance(instance, dict):
        return
    command = name.split(".")[0]
    if not want:
        cli._validate_config(instance, command, partial)
        return
    path, message = sorted(want, key=lambda e: (list(map(str, e[0])),
                                                e[1]))[0]
    where = "/".join(map(str, path)) or "top level"
    with pytest.raises(cli.InputError) as exc:
        cli._validate_config(instance, command, partial)
    assert str(exc.value) == f"config ({command}): {where}: {message}"


def _subschemas(schema):
    """``schema`` and every subschema in it."""
    yield schema
    subs = [*schema.get("properties", {}).values(),
            *schema.get("$defs", {}).values(), *schema.get("oneOf", [])]
    if isinstance(schema.get("items"), dict):
        subs.append(schema["items"])
    for sub in subs:
        yield from _subschemas(sub)


def _shipped_schemas():
    pkg = resources.files("clusterdr").joinpath("schemas")
    return {name: json.loads(pkg.joinpath(f"{name}.json").read_text())
            for name in SCHEMA_NAMES + ["defs"]}


def test_shipped_schemas_use_exactly_the_implemented_keywords():
    used = set()
    for name, doc in _shipped_schemas().items():
        keywords = set().union(*_subschemas(doc))
        assert keywords <= cli._KEYWORDS, name
        used |= keywords
    assert used == cli._KEYWORDS


def test_every_subschema_matches_jsonschema_near_its_bounds():
    """Each subschema of each shipped schema, on each bound of it and
    beside it, as an int, a float and a bool, and on values of every
    JSON type (``$`` matches before a final newline, as in ``re``)."""
    defs = cli._schema("report")["$defs"]
    probes = [None, True, False, 0, 1, -1, 0.0, 0.5, 1.5, "", "a", [], [1],
              {}, {"kind": "treatment-mean"}, 2**64, float("nan"), 64 * "0",
              64 * "0" + "\n", 64 * "0" + "\n\n"]
    checked = 0
    for doc in _shipped_schemas().values():
        for sub in _subschemas(doc):
            values = list(probes)
            for key in ("minimum", "maximum", "exclusiveMinimum",
                        "exclusiveMaximum"):
                if key in sub:
                    b = sub[key]
                    values += [b, b - 1, b + 1, b - 1e-9, b + 1e-9, float(b),
                               int(b), int(b) - 1, int(b) + 1]
            oracle = _oracle()({**sub, "$defs": defs})
            for value in values:
                want = [(tuple(e.absolute_path), e.message)
                        for e in oracle.iter_errors(value)]
                assert list(cli._schema_errors(sub, value, defs)) == want
                checked += 1
    assert checked > 2000


@pytest.mark.parametrize("schema, instance", [
    ({"oneOf": [{"type": "number"}, {"minimum": 0}, {"type": "integer"}]}, 1),
    ({"additionalProperties": False, "properties": {"a": {}}},
     {"b": 1, 2: 0, "a": 0, "c": [2]}),
    ({"type": "string", "minLength": 2}, "a"),
    ({"items": {"type": "string"}, "minItems": 2}, [1]),
    ({"enum": ["a", None]}, False),
])
def test_schema_errors_match_jsonschema_beyond_shipped_forms(schema,
                                                            instance):
    want = [(tuple(e.absolute_path), e.message)
            for e in _oracle()(schema).iter_errors(instance)]
    assert want
    assert list(cli._schema_errors(schema, instance, {})) == want


@pytest.mark.parametrize("schema, instance", [
    ({"anyOf": [{"type": "null"}]}, None),
    ({"type": "string", "format": "date"}, "2026-01-01"),
    ({"properties": {"a": {"format": "date"}}}, {"a": 1}),
    ({"oneOf": [{"type": "null", "anyOf": []}, {"type": "string"}]}, "a"),
    ({"additionalProperties": {"type": "string"}}, {"a": "b"}),
    ({"$ref": "other.json#/$defs/x"}, 1),
])
def test_unsupported_schema_keyword_raises(schema, instance):
    with pytest.raises(ValueError, match="not supported"):
        list(cli._schema_errors(schema, instance, {}))


@pytest.mark.parametrize("command, cfg, message", [
    ("estimate", {"seed": 1.0}, "seed: 1.0 is not of type 'integer'"),
    ("estimate", {"L": 5.0}, "L: 5.0 is not of type 'integer'"),
    ("simulate", {"reps": 2.0}, "reps: 2.0 is not of type 'integer'"),
    ("select", {"stop_after_k": 2.0},
     "stop_after_k: 2.0 is not valid under any of the given schemas"),
])
def test_integral_float_for_integer_key_exits_one(command, cfg, message,
                                                  demo_csv, workdir, capsys):
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    inputs = (["--preset", "randomized"] if command == "simulate"
              else ["--data", str(demo_csv)])
    assert main([command, "--config", "cfg.json", *inputs]) == 1
    assert capsys.readouterr().err == f"error: config ({command}): {message}\n"


def test_cli_job_does_not_import_jsonschema(demo_csv, workdir):
    script = ("import sys\n"
              "import clusterdr.cli\n"
              "code = clusterdr.cli.main(['select', '--data', sys.argv[1],\n"
              "                           '--stop-after-k', '1'])\n"
              "assert code == 0, code\n"
              "assert 'jsonschema' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", script, str(demo_csv)],
                   env=subprocess_env(), cwd=workdir, check=True,
                   capture_output=True)
    assert (workdir / "select_report.json").is_file()


def test_equal_cluster_sizes_do_not_load_numpy_ma(demo_csv, workdir):
    # np.unique imports numpy.ma (10-14 ms); only unequal sizes need it.
    script = ("import sys\n"
              "import clusterdr.cli\n"
              "for argv in (['estimate', '--data', sys.argv[1]],\n"
              "             ['mixture', '--data', sys.argv[2], '--p', '2',\n"
              "              '--estimate'],\n"
              "             ['simulate', '--preset', 'randomized', '--c', '40',\n"
              "              '--reps', '2']):\n"
              "    assert clusterdr.cli.main(argv) == 0, argv\n"
              "assert 'numpy.ma' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", script, str(demo_csv),
                    str(discrete_csv(workdir))], env=subprocess_env(),
                   cwd=workdir, check=True, capture_output=True)


# --- input encoding ----------------------------------------------------------


@pytest.mark.parametrize("command, flag, text", [
    ("estimate", "--data", b"y,w,cluster,x1\n1,1,caf\xe9,0.5\n2,0,b,0.3\n"),
    ("estimate", "--data", b"y,w,cluster,x\xe91\n1,1,a,0.5\n2,0,b,0.3\n"),
    ("check-equivalence", "--panel",
     b"unit,time,y,w,x0\nu\xe9,t0,1,1,0.5\nu\xe9,t1,2,0,0.3\n"),
], ids=["estimate-row", "estimate-header", "panel"])
def test_csv_that_is_not_utf8_exits_one(workdir, capsys, command, flag, text):
    path = workdir / "latin1.csv"
    path.write_bytes(text)
    assert main([command, flag, str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: load: {path}: not valid utf-8 text "
        "(invalid continuation byte)\n")
