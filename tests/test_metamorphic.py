"""Metamorphic relations: changes to the input whose effect on the
estimate is known without knowing the estimate."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterdr import (
    Dataset,
    build_suffstats,
    cross_fit_folds,
    dgp_preset,
    dr_estimate,
    fit_nuisances,
    generate,
    mundlak_spec,
)
from clusterdr.cli import main
from clusterdr.dataset import write_csv


def small_draw(seed, c, n_c):
    return generate(dgp_preset("mundlak-linear", c=c, n_c=n_c), seed).dataset


def estimate_report(workdir, d, name, seed):
    """``estimate --baselines`` on ``d`` written as ``name``.csv: the
    report body and the xi column of its ``.xi.csv`` as text, or
    ``(None, None)`` when trimming removes every unit, the one failure
    a small draw may meet."""
    write_csv(d, workdir / f"{name}.csv")
    out = workdir / f"{name}.json"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["estimate", "--data", str(workdir / f"{name}.csv"),
                     "--baselines", "--seed", str(seed), "--output",
                     str(out)])
    if code:
        assert (code, err.getvalue()) == (
            2, "error: estimate: trimming removed every unit\n")
        return None, None
    with open(workdir / f"{name}.xi.csv", newline="") as fh:
        xi = [row[1] for row in csv.reader(fh)]
    with open(out) as fh:
        return json.load(fh)["body"], xi


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       c=st.integers(min_value=10, max_value=30),
       n_c=st.integers(min_value=3, max_value=8),
       names=st.lists(st.text("abcXYZ019_-", min_size=1, max_size=6),
                      min_size=30, max_size=30, unique=True))
@example(seed=245, c=10, n_c=3, names=[f"n{j}" for j in range(30)])
def test_relabelled_clusters_give_the_same_estimate(seed, c, n_c, names):
    # Dense cluster ids follow first appearance, and the folds, the
    # summaries and every fit follow the ids. New label strings in the
    # same first-appearance order leave every number of the report as
    # it was, to the bit; only the labels, and so the side file's
    # sha256 and the first warned labels, change.
    d = small_draw(seed, c, n_c)
    new = [names[j] for j in d.cluster_index]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        old_body, old_xi = estimate_report(workdir, d, "old", seed)
        relabelled = Dataset(d.y, d.w, d.x, new)
        new_body, new_xi = estimate_report(workdir, relabelled, "new", seed)
    if old_body is None:
        # Trimming removes every unit of some small draws (seed 245,
        # c = 10, n_c = 3); the relabelled draw must fail alike.
        assert new_body is None
        return
    drop = ("xi_csv_sha256",)
    assert ({k: v for k, v in new_body["result"].items() if k not in drop}
            == {k: v for k, v in old_body["result"].items() if k not in drop})
    assert new_body["baselines"] == old_body["baselines"]
    for key in ("n", "c", "k"):
        assert new_body["data"][key] == old_body["data"][key]
    old_warn = old_body["data"]["warnings"]
    new_warn = new_body["data"]["warnings"]
    assert ({k: v for k, v in new_warn.items() if k != "first"}
            == {k: v for k, v in old_warn.items() if k != "first"})
    position = {label: j for j, label in enumerate(d.cluster_labels)}
    assert new_warn["first"] == [names[position[label]]
                                 for label in old_warn["first"]]
    assert new_xi == old_xi


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       c=st.integers(min_value=20, max_value=60),
       n_c=st.integers(min_value=4, max_value=8),
       b=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_outcome_shift_leaves_the_estimate(seed, c, n_c, b):
    # The outcome model has an intercept, so in real arithmetic y + b
    # moves mu0 and mu1 by b and leaves mu1 - mu0, the residuals
    # y - mu and hence tau_hat as they were. The propensity model never
    # reads y, so e, and the trimming, are the same to the bit. Rounding
    # enters through y + b and the least-squares fit at the scale
    # max|y| + |b|, and the inverse-propensity weights (at most 20 after
    # trimming at 0.05) and the design's conditioning amplify it. The
    # bound is 1,000 eps (max|y| + |b|); 200 seeded draws with |b| up to
    # 1,000 moved tau_hat by at most 1.1 eps (max|y| + |b|).
    d = small_draw(seed, c, n_c)
    folds = cross_fit_folds(d.c, 3, seed)

    def estimate(y):
        shifted = Dataset(y, d.w, d.x, d.cluster_index)
        nu = fit_nuisances(shifted, build_suffstats(shifted,
                                                    mundlak_spec(d.k)), folds)
        return nu.e, dr_estimate(shifted, nu, eta=0.05).tau_hat

    e, tau = estimate(d.y.copy())
    e_shift, tau_shift = estimate(d.y + b)
    assert np.array_equal(e_shift, e)
    bound = 1000 * np.finfo(float).eps * (np.abs(d.y).max() + abs(b))
    assert math.isclose(tau_shift, tau, rel_tol=0.0, abs_tol=bound), (
        tau_shift - tau, bound)


def command_outputs(workdir, d, name):
    """What ``estimate --baselines``, ``check-equivalence`` and
    ``select --stop-after-k 2`` report on ``d``, written as
    ``name``.csv: the DR estimate and its standard error, the three
    baselines, the equivalence exit code and verdict, and the selected
    statistics."""
    estimate, _ = estimate_report(workdir, d, name, seed=1)
    assert estimate is not None
    data = str(workdir / f"{name}.csv")
    bodies, codes = {}, {}
    for command, flags in (("check-equivalence", []),
                           ("select", ["--stop-after-k", "2"])):
        out = workdir / f"{name}.{command}.json"
        codes[command] = main([command, "--data", data, *flags,
                               "--output", str(out)])
        with open(out) as fh:
            bodies[command] = json.load(fh)["body"]
    assert codes["select"] == 0
    return {"tau_hat": estimate["result"]["tau_hat"],
            "se": estimate["result"]["se"], **estimate["baselines"],
            "equivalence": (codes["check-equivalence"],
                            bodies["check-equivalence"]["equivalent"]),
            "selected": bodies["select"]["selected"]}


@settings(max_examples=20, deadline=None)
@given(preset=st.sampled_from(["mundlak-linear", "nonlinear-u"]),
       seed=st.integers(min_value=0, max_value=10_000),
       j=st.integers(min_value=0, max_value=2),
       k=st.integers(min_value=-20, max_value=60))
@example(preset="nonlinear-u", seed=3, j=0, k=60)
def test_scaled_covariate_leaves_every_estimate(preset, seed, j, k):
    # Multiplying a float by 2^k is exact, and so is every step that a
    # column's scale passes through: Householder QR scales that column
    # of R by 2^k, its coefficient by 2^-k and the summaries of it by
    # 2^k, while the propensity fit works in the basis that R makes
    # orthonormal, and select divides each candidate by a power of two
    # before standardising. The rank rule judges each column against its
    # own norm, so no column's fate depends on another's scale. Hence
    # the DR estimate and its standard error, the three baselines,
    # check-equivalence's verdict and select's selection are unchanged
    # to the bit. A rule with one tolerance for every column dropped the
    # intercept and the treatment once a covariate's norm passed 1e9
    # times theirs (k of about 30 and more here).
    d = generate(dgp_preset(preset, c=60), seed).dataset
    j %= d.k
    x = d.x.copy()
    x[:, j] *= 2.0 ** k
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        want = command_outputs(workdir, d, "plain")
        got = command_outputs(workdir, Dataset(d.y, d.w, x, d.cluster_index),
                              "scaled")
    assert got == want
