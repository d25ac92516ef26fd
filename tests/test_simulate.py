"""Data-generating presets and the Monte Carlo driver."""

import ast
import inspect
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdr import (
    Dataset,
    EstimatorConfig,
    InputError,
    McReport,
    NuisanceConfig,
    PRESET_NAMES,
    StatSpec,
    Term,
    dgp_preset,
    generate,
    monte_carlo,
    write_csv,
)
from clusterdr import cli
from clusterdr.simulate import _METHODS, _run_one_rep

import oracles


def test_all_presets_generate():
    for name in PRESET_NAMES:
        cfg = dgp_preset(name, c=12, n_c=6)
        res = generate(cfg, 5)
        d = res.dataset
        assert d.c == 12 and d.n == 72 and d.k == cfg.k
        assert res.truth.shape == (d.n,)
        assert res.true_e.shape == (d.n,)
        assert np.all((res.true_e > 0) & (res.true_e < 1))


def test_generation_is_seed_deterministic():
    cfg = dgp_preset("nonlinear-u", c=20, n_c=5)
    r1 = generate(cfg, 33)
    r2 = generate(cfg, 33)
    r3 = generate(cfg, 34)
    assert np.array_equal(r1.dataset.y, r2.dataset.y)
    assert np.array_equal(r1.dataset.x, r2.dataset.x)
    assert np.array_equal(r1.dataset.w, r2.dataset.w)
    assert not np.array_equal(r1.dataset.y, r3.dataset.y)


def test_preset_overrides():
    cfg = dgp_preset("mundlak-linear", c=7, sigma=0.0, t0=2.5)
    assert cfg.c == 7 and cfg.sigma == 0.0
    assert cfg.params["t0"] == 2.5
    with pytest.raises(InputError):
        dgp_preset("no-such-design")


def test_tau_tilde_masks():
    res = generate(dgp_preset("nonlinear-u", c=30, n_c=4), 2)
    full = res.tau_tilde()
    assert full == pytest.approx(float(res.truth.mean()))
    mask = np.zeros(res.dataset.n, dtype=int)
    mask[:40] = 1
    assert res.tau_tilde(mask) == pytest.approx(float(res.truth[:40].mean()))
    with pytest.raises(InputError):
        res.tau_tilde(np.zeros(res.dataset.n, dtype=int))


def test_noiseless_correct_model_is_exact():
    # No latent channel, no noise, constant effect: the outcome model
    # is exactly right and the estimator must recover the effect to
    # numerical precision in every rep.
    cfg = dgp_preset("mundlak-linear", c=30, n_c=5, sigma=0.0, g1=0.0, g2=0.0)
    report = monte_carlo(cfg, EstimatorConfig(method="dr", L=3), reps=3,
                         seed=99)
    assert not report.failures
    assert report.rmse <= 1e-8


def test_zero_effect_unbiased():
    cfg = dgp_preset("mundlak-linear", c=60, n_c=5, t0=0.0)
    report = monte_carlo(cfg, EstimatorConfig(method="dr", L=3), reps=200,
                         seed=4)
    assert not report.failures
    assert abs(report.bias) <= 3.0 * report.mc_sd / math.sqrt(report.reps)


def test_monte_carlo_reproducible():
    cfg = dgp_preset("mundlak-linear", c=24, n_c=5)
    est = EstimatorConfig(method="dr", L=3)
    r1 = monte_carlo(cfg, est, reps=8, seed=11)
    r2 = monte_carlo(cfg, est, reps=8, seed=11)
    assert np.array_equal(r1.tau_hat, r2.tau_hat)
    assert np.array_equal(r1.se, r2.se)
    r5 = monte_carlo(cfg, est, reps=8, seed=12)
    assert not np.array_equal(r1.tau_hat, r5.tau_hat)


def test_failed_reps_are_recorded_not_fatal():
    # Folds cannot exceed clusters: every rep fails and that is an error,
    # but with a mix the run keeps going. Force per-rep failure via L > c.
    cfg = dgp_preset("mundlak-linear", c=3, n_c=5)
    with pytest.raises(InputError, match="every rep failed"):
        monte_carlo(cfg, EstimatorConfig(method="dr", L=5), reps=4, seed=0)


def test_programming_errors_propagate(monkeypatch):
    # Only estimation failures are recorded per rep; anything else is a
    # bug and must not be counted as a failed rep.
    import clusterdr.simulate as sim

    def broken(*args, **kwargs):
        raise TypeError("bug in the nuisance fits")

    monkeypatch.setattr(sim, "fit_nuisances", broken)
    cfg = dgp_preset("mundlak-linear", c=12, n_c=5)
    with pytest.raises(TypeError, match="bug in the nuisance fits"):
        monte_carlo(cfg, EstimatorConfig(method="dr", L=3), reps=2, seed=0)


def test_generate_labels_are_cluster_ids():
    cfg = dgp_preset("mundlak-linear", c=13, n_c=3)
    d = generate(cfg, 5).dataset
    assert d.cluster_labels == [str(j) for j in range(13)]
    assert d.cluster_index.tolist() == [j for j in range(13) for _ in "abc"]


def test_generate_from_dense_ids_matches_label_path(tmp_path):
    # generate skips label interning; the dataset and the CSV it writes
    # are those of the public constructor on the string labels.
    d = generate(dgp_preset("nonlinear-u", c=17, n_c=4), 2).dataset
    labels = [str(j) for j in d.cluster_index.tolist()]
    want = Dataset(d.y.copy(), d.w.copy(), d.x.copy(), labels)
    assert d.cluster_labels == want.cluster_labels
    assert d.n_c.tolist() == want.n_c.tolist()
    write_csv(d, tmp_path / "ids.csv")
    write_csv(want, tmp_path / "labels.csv")
    assert ((tmp_path / "ids.csv").read_bytes()
            == (tmp_path / "labels.csv").read_bytes())


def test_baseline_methods_run():
    cfg = dgp_preset("hetero-prop", c=20, n_c=30)
    fe = monte_carlo(cfg, EstimatorConfig(method="fe"), reps=3, seed=5)
    assert math.isnan(fe.coverage) and math.isnan(fe.mean_se)
    wfe = monte_carlo(
        cfg,
        EstimatorConfig(method="weighted-fe", use_true_propensity=True),
        reps=3, seed=5,
    )
    assert not wfe.failures
    mund = monte_carlo(cfg, EstimatorConfig(method="mundlak"), reps=2, seed=5)
    assert not mund.failures


def test_qte_diff_method():
    cfg = dgp_preset("randomized", c=60, n_c=8)
    rep = monte_carlo(cfg, EstimatorConfig(method="qte-diff", q=0.5, L=3),
                      reps=5, seed=6)
    assert not rep.failures
    assert abs(rep.bias) < 0.5  # loose sanity; tight bound in acceptance


def test_custom_statspec_flows_through():
    spec = StatSpec(terms=(Term("treatment-mean"), Term("covariate-mean", j=0)))
    cfg = dgp_preset("nonlinear-u", c=40, n_c=5)
    rep = monte_carlo(cfg, EstimatorConfig(method="dr", statspec=spec, L=3),
                      reps=3, seed=7)
    assert not rep.failures


@pytest.mark.parametrize("method", ["dr", "qte-diff", "weighted-fe"])
def test_empty_statspec_means_no_summary_columns(method):
    # An empty spec is a design with zero summary columns, not a request
    # for the default treatment-and-covariate means.
    cfg = dgp_preset("mundlak-linear", c=30, n_c=5)

    def run(**est):
        return monte_carlo(cfg, EstimatorConfig(method=method, L=3, **est),
                           reps=3, seed=2)

    empty = run(statspec=StatSpec(terms=()))
    no_columns = run(nuisance=NuisanceConfig(outcome_use_summaries=False,
                                             propensity_use_summaries=False))
    assert not empty.failures
    assert np.array_equal(empty.tau_hat, no_columns.tau_hat)
    assert np.array_equal(empty.se, no_columns.se, equal_nan=True)
    assert not np.array_equal(empty.tau_hat, run().tau_hat)


def dispatched_methods():
    """The string constants ``_run_one_rep`` compares ``method`` with."""
    tree = ast.parse(inspect.getsource(_run_one_rep))
    return {
        const.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name) and node.left.id == "method"
        for const in node.comparators if isinstance(const, ast.Constant)
    }


def test_config_schema_names_the_library_presets_and_methods():
    schema = json.loads(resources.files("clusterdr").joinpath(
        "schemas", "simulate.config.json").read_text())["properties"]
    assert schema["preset"]["enum"] == list(PRESET_NAMES)
    methods = schema["estimator"]["properties"]["method"]["enum"]
    assert methods == list(_METHODS)
    # every method but dr, the fall-through, is dispatched by name
    assert set(methods) == dispatched_methods() | {"dr"}
    cfg = dgp_preset("mundlak-linear", c=12, n_c=5)
    for method in methods:
        rep = monte_carlo(cfg, EstimatorConfig(method=method, L=2), reps=1,
                          seed=0)
        assert not rep.failures, method
    with pytest.raises(InputError, match="unknown method 'bogus'"):
        EstimatorConfig(method="bogus", L=2)


def test_per_rep_csv(tmp_path):
    # the simulate command writes the table next to its report
    assert cli.main(["simulate", "--preset", "mundlak-linear", "--c", "20",
                     "--n-c", "5", "--method", "dr", "--L", "3", "--reps",
                     "4", "--seed", "1", "--output",
                     str(tmp_path / "sim.json")]) == 0
    lines = (tmp_path / "sim.reps.csv").read_text().strip().splitlines()
    assert lines[0] == "rep,tau_hat,se,truth,covered"
    assert len(lines) == 5


_REP_VALUES = st.one_of(
    st.floats(allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, math.nan]),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), reps=st.integers(min_value=1, max_value=12))
def test_per_rep_csv_matches_row_loop_oracle(tmp_path_factory, data, reps):
    def column(values):
        return np.array(data.draw(st.lists(values, min_size=reps,
                                           max_size=reps)), dtype=float)

    rep = McReport(
        reps=reps, bias=0.0, rmse=0.0, coverage=math.nan,
        mean_se=math.nan, mc_sd=0.0, tau_hat=column(_REP_VALUES),
        se=column(_REP_VALUES), truth=column(_REP_VALUES),
        covered=column(st.sampled_from([0.0, 1.0, math.nan])), failures=[],
    )
    out = tmp_path_factory.mktemp("reps")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "monte_carlo", lambda *args, **kwargs: rep)
        assert cli.main(["simulate", "--preset", "randomized", "--reps",
                         str(reps), "--output",
                         str(out / "columns.json")]) == 0
    oracles.rowwise_write_per_rep(rep, out / "rows.csv")
    assert ((out / "columns.reps.csv").read_bytes()
            == (out / "rows.csv").read_bytes())


def test_report_dict_cleans_nans():
    cfg = dgp_preset("hetero-prop", c=15, n_c=20)
    rep = monte_carlo(cfg, EstimatorConfig(method="fe"), reps=2, seed=3)
    blob = rep.to_dict()
    assert blob["coverage"] is None and blob["mean_se"] is None
    assert isinstance(blob["bias"], float)
