"""The benchmark's span tracer must still find every layer it wraps.

``perfbench/tracer.py`` replaces package functions by module attribute,
and a traced benchmark run fails when a layer it expects records no
calls. A function that is renamed, moved, inlined or called through a
local alias breaks that silently, so these tests load the tracer and the
workload table by path, unchanged, and check them against the package.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from clusterdr import dgp_preset, generate, logistic_fit, write_csv
from clusterdr.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_by_path(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = load_by_path("tracer")
workloads = load_by_path("workloads")


@pytest.mark.parametrize("home,name", sorted(tracer.TARGETS))
def test_tracer_target_is_a_module_function(home, name):
    fn = getattr(importlib.import_module(f"clusterdr.{home}"), name, None)
    assert inspect.isfunction(fn), f"clusterdr.{home}.{name}"


def test_logistic_fit_keeps_ridge_parameter():
    # The tracer's logistic counter binds the call's ``ridge`` argument.
    assert "ridge" in inspect.signature(logistic_fit).parameters


# Each workload's job at a size that runs in well under a second.
SMALL_JOBS = {
    "estimate-csv": ["estimate", "--data", "units.csv", "--baselines"],
    "mc-dr": ["simulate", "--preset", "nonlinear-u", "--c", "40", "--reps",
              "2", "--statspec", "statspec.json"],
    "select-path": ["select", "--data", "units.csv", "--stop-after-k", "2"],
    "mixture-estimate": ["mixture", "--data", "discrete.csv", "--p", "2",
                         "--estimate"],
}


def test_small_jobs_cover_every_workload():
    assert set(SMALL_JOBS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL_JOBS))
def test_traced_job_records_expected_spans(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_csv(generate(dgp_preset("nonlinear-u", c=40), 1).dataset,
              "units.csv")
    write_csv(generate(dgp_preset("separated-mixture", c=40), 1).dataset,
              "discrete.csv")
    Path("statspec.json").write_text(
        json.dumps({"terms": [{"kind": "covariate-mean", "j": 0}]}))
    tr = tracer.Tracer()
    tr.install()
    try:
        code = main(SMALL_JOBS[name] + ["--output", "report.json"])
    finally:
        tr.uninstall()
    assert code == 0
    recorded = {sp.layer for sp in tr.spans}
    missing = set(workloads.WORKLOADS[name].expected_spans) - recorded
    assert not missing
