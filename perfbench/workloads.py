"""The four benchmark workloads.

Each workload makes its inputs from the seed, names one ``clusterdr``
CLI job, and says what a correct report holds: the numbers compared
with the stored reference and the invariants every report must meet.
Jobs run with the work directory as their current directory, so every
path below is relative to it. Why each workload was chosen is written
in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# |got - want| <= ATOL + RTOL * |want| for every stored float. Coverage is
# a share of reps, so a rep whose interval ends within rounding of the
# truth may flip; it may move by one rep.
RTOL = 1e-6
ATOL = 1e-9

MC_REPS = 300
MC_C = 400


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    write_inputs: Callable[[Path, int], None]
    args: Callable[[int], list]
    reference: Callable[[dict], dict]
    invariants: Callable[[dict], list]
    units: int
    ops_per_job: int = 1
    failed_ops: Callable[[dict], int] = lambda body: 0
    expected_spans: tuple = ()
    # The job reads its thread cap from config.json; the traced run also
    # times it with a pool of nproc threads.
    threads_config: bool = False
    # Set-up also runs one untimed job. For a workload whose inputs are two
    # small files, whose write time is file-system noise that doubled
    # between two sets of runs of the same code, this puts package work in
    # the set-up and fills the caches before the timed jobs.
    warm_up: bool = False
    # Spans per job at the commit that introduced the benchmark.
    seed_commit_calls: dict = field(default_factory=dict)


def _csv_input(preset: str, **size):
    def write(workdir: Path, seed: int) -> None:
        from clusterdr import dgp_preset, generate, write_csv

        write_csv(generate(dgp_preset(preset, **size), seed=seed).dataset,
                  workdir / "input.csv")
    return write


def _mc_inputs(workdir: Path, seed: int) -> None:
    """Write the job's statspec and config; ``simulate`` draws its own
    datasets from the job's ``--seed``.

    The gated job runs serial (``threads: 1``): with a thread pool the
    reps contend for the GIL, and on a shared host that contention turns
    CPU steal into job times that vary by a third from run to run. The
    pool is timed against this job by ``simulate.pool_speedup``."""
    spec = {"terms": [{"kind": "covariate-mean", "j": 0}]}
    (workdir / "statspec.json").write_text(json.dumps(spec) + "\n")
    (workdir / "config.json").write_text(json.dumps({"threads": 1}) + "\n")


def _problems(checks) -> list:
    return [what for what, ok in checks if not ok]


def _estimate_invariants(body: dict) -> list:
    r = body["result"]
    return _problems([
        ("se is not positive", r["se"] > 0),
        ("ci does not contain tau_hat",
         r["ci"][0] < r["tau_hat"] < r["ci"][1]),
        ("baselines missing", set(body.get("baselines", {}))
         == {"fe", "mundlak", "weighted_fe"}),
        ("n differs from the input", body["data"]["n"] == 200_000),
    ])


def _mc_invariants(body: dict) -> list:
    mc = body["mc"]
    return _problems([
        ("reps differ from the request", mc["reps"] == MC_REPS),
        ("coverage missing", mc["coverage"] is not None),
        ("rmse below |bias|", mc["rmse"] >= abs(mc["bias"])),
    ])


def _select_invariants(body: dict) -> list:
    return _problems([
        ("nothing selected", len(body["selected"]) > 0),
        ("selected is not a subset of candidates",
         set(body["selected"]) <= set(body["candidates"])),
    ])


def _mixture_invariants(body: dict) -> list:
    return _problems([
        ("em did not converge", body["model"]["converged"] is True),
        ("posterior rows differ from clusters",
         len(body["posterior"]) == body["data"]["c"]),
        ("estimate missing", "tau_hat" in body.get("estimate", {})),
    ])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="estimate-csv",
        sizes={"preset": "nonlinear-u", "c": 20000, "n_c": 10, "n": 200_000,
               "k": 2},
        write_inputs=_csv_input("nonlinear-u", c=20000, n_c=10),
        args=lambda seed: ["estimate", "--data", "input.csv", "--baselines",
                           "--seed", str(seed)],
        reference=lambda b: {
            "tau_hat": b["result"]["tau_hat"], "se": b["result"]["se"],
            "ci": b["result"]["ci"], "baselines": b["baselines"]},
        invariants=_estimate_invariants,
        units=200_000,
        expected_spans=("dataset.load_csv", "dataset.validate",
                        "suffstats.build_suffstats",
                        "estimators.fit_nuisances", "glm.wls_fit",
                        "glm.logistic_fit", "estimators.dr_estimate",
                        "estimators.baselines"),
        seed_commit_calls={"glm.wls_fit": 8, "glm.logistic_fit": 5},
    ),
    Workload(
        name="mc-dr",
        sizes={"preset": "nonlinear-u", "c": MC_C, "n_c": 5, "reps": MC_REPS,
               "statspec": ["x0_bar"], "threads": 1},
        write_inputs=_mc_inputs,
        args=lambda seed: ["simulate", "--preset", "nonlinear-u", "--c",
                           str(MC_C), "--reps", str(MC_REPS), "--statspec",
                           "statspec.json", "--config", "config.json",
                           "--seed", str(seed)],
        reference=lambda b: {
            key: b["mc"][key] for key in ("bias", "rmse", "coverage",
                                          "mean_se")
        } | {"failures": len(b["mc"]["failures"])},
        invariants=_mc_invariants,
        units=MC_REPS * MC_C * 5,
        ops_per_job=MC_REPS,
        failed_ops=lambda b: len(b["mc"]["failures"]),
        threads_config=True,
        warm_up=True,
        expected_spans=("simulate.monte_carlo", "simulate.rep",
                        "simulate.generate", "suffstats.build_suffstats",
                        "estimators.fit_nuisances", "glm.wls_fit",
                        "glm.logistic_fit", "estimators.dr_estimate"),
        seed_commit_calls={"glm.wls_fit": 1500, "glm.logistic_fit": 1500},
    ),
    Workload(
        name="select-path",
        sizes={"preset": "sparse-relevant", "c": 60, "n_c": 40, "n": 2400,
               "k": 9},
        write_inputs=_csv_input("sparse-relevant", c=60),
        args=lambda seed: ["select", "--data", "input.csv", "--stop-after-k",
                           "2", "--seed", str(seed)],
        reference=lambda b: {"selected": b["selected"]},
        invariants=_select_invariants,
        units=2400,
        expected_spans=("dataset.load_csv", "glm.multinomial_group_lasso"),
    ),
    Workload(
        name="mixture-estimate",
        sizes={"preset": "separated-mixture", "c": 20000, "n_c": 10,
               "n": 200_000, "k": 1, "p": 2},
        write_inputs=_csv_input("separated-mixture", c=20000, n_c=10),
        args=lambda seed: ["mixture", "--data", "input.csv", "--p", "2",
                           "--estimate", "--seed", str(seed)],
        reference=lambda b: {
            "loglik": b["model"]["loglik"],
            "converged": b["model"]["converged"],
            "tau_hat": b["estimate"]["tau_hat"]},
        invariants=_mixture_invariants,
        units=200_000,
        expected_spans=("dataset.load_csv", "mixture.em_fit",
                        "mixture.posterior_suffstat",
                        "estimators.fit_nuisances", "glm.wls_fit",
                        "glm.logistic_fit", "estimators.dr_estimate"),
        seed_commit_calls={"mixture.posterior_suffstat": 2},
    ),
)}


def mismatches(got, want, path: str = "") -> list:
    """Where ``got`` leaves the stored reference ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in sorted(want)
                for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and not all(isinstance(v, str) for v in want):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        tol = ATOL + RTOL * abs(want)
        if path.endswith("coverage"):
            tol += 1.0 / MC_REPS
        if math.isfinite(got) and abs(got - want) <= tol:
            return []
        return [f"{path}: {got!r} != {want!r} (tolerance {tol:.3g})"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
