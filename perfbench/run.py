#!/usr/bin/env python3
"""Benchmark of the clusterdr command-line tool.

    python3 perfbench/run.py --workload estimate-csv --seed 1 \
        --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/clusterdr``; the
package is imported from that checkout, never from an installed copy.

``--trace 0`` makes the workload's inputs from the seed, then runs the
CLI job in fresh processes, one at a time (a closed loop with one
client), until ``--seconds`` have passed and at least two jobs ran. It
reports set-up time, job wall time, units per second, peak memory and
report size.

``--trace 1`` calls ``clusterdr.cli.main`` in this process, alternating
untraced and traced jobs, and reports each layer's self time and
counts from spans recorded around the package functions (see
``tracer.py``).

Every job is checked: exit code, a report body byte-identical across
jobs, the invariants in ``workloads.py`` and, when ``references.json``
holds the seed, the stored numbers. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Runs are measured with a warm page cache: the inputs are
written just before the jobs read them and the cache is never dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import Tracer, summarize
from workloads import WORKLOADS, mismatches, nproc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 2
SETUP_MIN_S = 4.0
MIN_JOBS = 2
# Every job must end before this many seconds into the run, so that the
# run always exits within its 180-second limit.
HARD_LIMIT_S = 165.0
IMPORT_REPEATS = 3
SPEEDUP_PAIRS = 3
CLI = "import sys; from clusterdr.cli import main; sys.exit(main())"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "units_per_s": "units/s",
              "peak_rss_mb": "MB", "report_kb": "KB"}
SELF_LAYERS = ("dataset.load_csv", "dataset.validate",
               "suffstats.build_suffstats", "glm.wls_fit", "glm.logistic_fit",
               "glm.multinomial_group_lasso", "estimators.fit_nuisances",
               "estimators.dr_estimate", "estimators.baselines",
               "mixture.em_fit", "mixture.posterior_suffstat",
               "simulate.generate")
CALL_LAYERS = ("glm.wls_fit", "glm.logistic_fit",
               "mixture.posterior_suffstat")
COUNTERS = ("dataset.validate.warnings", "glm.wls_fit.columns_dropped",
            "glm.logistic_fit.iterations",
            "glm.logistic_fit.separation_refits",
            "glm.multinomial_group_lasso.path_points",
            "mixture.em_fit.iterations", "mixture.em_fit.cells")


def fail(message: str) -> None:
    """Stop without printing a result."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_checkout():
    """Import clusterdr from this checkout's ``src`` and nowhere else."""
    if not (SRC / "clusterdr" / "cli.py").is_file():
        fail(f"no clusterdr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import clusterdr.cli

    if Path(clusterdr.__file__).resolve().parent != SRC / "clusterdr":
        fail(f"imported clusterdr from {clusterdr.__file__}, not {SRC}")
    return clusterdr.cli


def fingerprint(workload, seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    # Only a checkout that is itself a git repository names its commit.
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "clusterdr").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "workload": workload.name,
        "sizes": workload.sizes,
        "seed": seed,
        "page_cache": "warm: inputs written just before the jobs",
        "loop": "closed, one client, one job at a time",
    }


class Gate:
    """Counts operations and failed operations over a run's jobs.

    An operation is a job, or a rep for a Monte Carlo job. A job fails
    all its operations when it exits non-zero, when its body differs from
    the first job's, when the body's hash differs from the one the report
    states, or when its numbers leave the reference or break an invariant.
    Otherwise only the reps its report lists in ``failures`` fail.
    """

    def __init__(self, workload, seed: int, cli):
        self.workload = workload
        self.cli = cli
        stored = json.loads(REFERENCES.read_text())["workloads"]
        self.reference = stored[workload.name].get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._sha = None

    def check(self, code: int, report: Path) -> None:
        ops = self.workload.ops_per_job
        self.attempted += ops
        body, problems = self._read(code, report)
        if problems:
            self.failed += ops
            self.problems += problems
        else:
            self.failed += self.workload.failed_ops(body)

    def _read(self, code: int, report: Path):
        """The report body and what is wrong with it."""
        if code != 0:
            return None, [f"job exited with code {code}"]
        try:
            doc = json.loads(report.read_text())
        except (OSError, ValueError) as exc:
            return None, [f"unreadable report: {exc}"]
        body = doc["body"]
        sha = hashlib.sha256(self.cli.canonical_body_bytes(body)).hexdigest()
        if sha != doc["meta"]["body_sha256"]:
            return body, ["body does not match its stated sha256"]
        if self._sha is None:
            self._sha = sha
        elif sha != self._sha:
            return body, ["body differs from the first job's"]
        try:
            problems = self.workload.invariants(body)
            if self.reference is not None:
                problems += mismatches(self.workload.reference(body),
                                       self.reference, "reference")
        except (KeyError, IndexError, TypeError) as exc:
            problems = [f"report body lacks {exc!r}"]
        return body, problems


def set_up(workload, workdir: Path, seed: int, gate, deadline: float) -> list:
    """Make the inputs several times, each time followed by a warm-up job
    where the workload asks for one; return the time each set-up took.
    A warm-up job counts in set-up time, not in ``wall_s``."""
    times: list = []
    report = workdir / "report.json"
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        workload.write_inputs(workdir, seed)
        code = None
        if workload.warm_up:
            report.unlink(missing_ok=True)
            code = run_job(job_args(workload, seed), workdir,
                           deadline - time.perf_counter())[2]
        times.append(time.perf_counter() - t0)
        if code is not None:
            gate.check(code, report)
    return times


def run_job(args: list, workdir: Path, timeout: float):
    """Run one CLI job in a fresh interpreter; return (wall s, peak RSS MB,
    exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    with open(workdir / "job.log", "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI] + args,
                                cwd=workdir, env=env, stdout=log, stderr=log)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (workdir / "job.log").read_text()[-2000:]
        print(f"job {args[0]} failed ({proc.returncode}):\n{tail}",
              file=sys.stderr)
    # ru_maxrss is in kilobytes on Linux.
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def job_args(workload, seed: int) -> list:
    return workload.args(seed) + ["--output", "report.json"]


def end_to_end(workload, seed, seconds, workdir, gate, setup, deadline):
    walls, rss, sizes = [], [], []
    report = workdir / "report.json"
    args = job_args(workload, seed)
    stop = time.perf_counter() + seconds
    while len(walls) < MIN_JOBS or time.perf_counter() < stop:
        report.unlink(missing_ok=True)
        wall, peak, code = run_job(args, workdir,
                                   deadline - time.perf_counter())
        gate.check(code, report)
        walls.append(wall)
        rss.append(peak)
        if report.exists():
            sizes.append(report.stat().st_size / 1024.0)
        if time.perf_counter() > deadline - 2 * max(walls):
            break
    samples = {"setup_s": setup, "wall_s": walls,
               "units_per_s": [workload.units / w for w in walls],
               "peak_rss_mb": rss, "report_kb": sizes or [0.0]}
    for name, values in samples.items():
        print(f"{name}: median of {len(values)} samples")
    return {name: (statistics.median(samples[name]), unit)
            for name, unit in END_TO_END.items()}


def run_inprocess(cli, args: list, tracer=None):
    """One job through ``cli.main`` in this process; its own output is
    swallowed. Returns (wall s, exit code, root span or None)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        if tracer is None:
            root, code = None, cli.main(args)
        else:
            tracer.reset()
            tracer.install()
            try:
                root, code = tracer.span("cli.main", cli.main, args)
            finally:
                tracer.uninstall()
        wall = time.perf_counter() - t0
    if code != 0:
        print(f"in-process job failed ({code}):\n{sink.getvalue()[-2000:]}",
              file=sys.stderr)
    return wall, code, root


def import_seconds(workdir: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import time; t = time.perf_counter(); import clusterdr.cli; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], cwd=workdir,
                                 env=env, check=True, capture_output=True,
                                 text=True, timeout=60).stdout)
            for _ in range(IMPORT_REPEATS)]


def pool_speedup(args: list, workdir: Path, gate, deadline: float) -> float:
    """Median of serial wall time / pool wall time over ``SPEEDUP_PAIRS``
    pairs of fresh-process jobs, untraced: the workload's own job, which
    runs serial, and the same job with ``threads`` set to nproc in its
    config. Which side runs first alternates, so drift hits both alike."""
    pool_cfg = json.loads((workdir / "config.json").read_text())
    pool_cfg["threads"] = nproc()
    (workdir / "pool.json").write_text(json.dumps(pool_cfg) + "\n")
    report = workdir / "report.json"
    ratios, longest = [], 0.0
    while len(ratios) < SPEEDUP_PAIRS:
        if ratios and time.perf_counter() > deadline - 3 * longest:
            break
        walls = {}
        for cfg in (("config.json", "pool.json") if len(ratios) % 2 == 0
                    else ("pool.json", "config.json")):
            cfg_args = list(args)
            cfg_args[cfg_args.index("--config") + 1] = cfg
            report.unlink(missing_ok=True)
            walls[cfg], _, code = run_job(cfg_args, workdir,
                                          deadline - time.perf_counter())
            gate.check(code, report)
            longest = max(longest, walls[cfg])
        ratios.append(walls["config.json"] / walls["pool.json"])
    print(f"simulate.pool_speedup: median of {len(ratios)} serial/pool pairs "
          f"({nproc()} threads) " + " ".join(f"{r:.3f}" for r in ratios))
    return statistics.median(ratios)


def traced(workload, seed, seconds, workdir, gate, cli, deadline):
    report = workdir / "report.json"
    args = job_args(workload, seed)
    tracer = Tracer()
    plain, jobs = [], []
    # An untimed first job pays the one-off costs of a fresh process
    # (lazy imports, schema loading), which would otherwise land on
    # whichever side ran first.
    report.unlink(missing_ok=True)
    gate.check(run_inprocess(cli, args)[1], report)
    stop = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < stop:
        # Alternate which side runs first, so drift hits both alike.
        for side in (("plain", "traced") if len(jobs) % 2 == 0
                     else ("traced", "plain")):
            report.unlink(missing_ok=True)
            if side == "plain":
                wall, code, _ = run_inprocess(cli, args)
                plain.append(wall)
            else:
                wall, code, root = run_inprocess(cli, args, tracer)
                jobs.append((summarize(tracer.spans, root),
                             dict(tracer.counters)))
            gate.check(code, report)
        if time.perf_counter() > deadline - 3 * max(plain):
            break

    for summary, _ in jobs:
        missing = [layer for layer in workload.expected_spans
                   if not summary["calls"].get(layer)]
        if missing:
            fail(f"traced {workload.name} job recorded no calls to "
                 f"{', '.join(missing)}")

    def med(values):
        return statistics.median(list(values))

    metrics = {}
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = (
            med(s["self_s"].get(layer, 0.0) for s, _ in jobs), "s")
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = (
            med(s["calls"].get(layer, 0) for s, _ in jobs), "count")
    for name in COUNTERS:
        metrics[name] = (med(c.get(name, 0) for _, c in jobs), "count")
    reps = sorted(t for s, _ in jobs for t in s["rep_s"])
    deciles = statistics.quantiles(reps, n=10) if len(reps) > 1 else [0.0] * 9
    metrics["simulate.rep_s.p50"] = (med(reps) if reps else 0.0, "s")
    metrics["simulate.rep_s.p90"] = (deciles[8], "s")
    speedup = 0.0
    if workload.threads_config:
        speedup = pool_speedup(args, workdir, gate, deadline)
    metrics["simulate.pool_speedup"] = (speedup, "ratio")
    metrics["simulate.reps_failed"] = (med(s["reps_failed"] for s, _ in jobs),
                                       "count")
    metrics["cli.self_s"] = (
        med(s["wall_s"] - s["covered_s"] for s, _ in jobs), "s")
    metrics["cli.import_s"] = (med(import_seconds(workdir)), "s")
    metrics["trace.covered_ratio"] = (
        med(s["covered_s"] / s["wall_s"] for s, _ in jobs), "ratio")
    metrics["trace.overhead_s"] = (
        med(s["wall_s"] for s, _ in jobs) - med(plain), "s")
    metrics["fail_ratio"] = (gate.failed / max(gate.attempted, 1),
                             "failed/attempted")

    for layer, want in workload.seed_commit_calls.items():
        got = med(s["calls"].get(layer, 0) for s, _ in jobs)
        verdict = "matches" if got == want else "DIFFERS from"
        print(f"sanity: {layer} {got:g} calls per job, {verdict} "
              f"{want} at the seed commit")
    print(f"per-layer metrics: median of {len(jobs)} traced jobs")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not 0 <= opts.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    deadline = time.perf_counter() + HARD_LIMIT_S
    cli = import_checkout()
    workload = WORKLOADS[opts.workload]

    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # In-process jobs resolve their relative paths against the cwd.
    os.chdir(workdir)
    try:
        print("env: " + json.dumps(fingerprint(workload, opts.seed),
                                   sort_keys=True))
        gate = Gate(workload, opts.seed, cli)
        if gate.reference is None:
            print(f"reference: none stored for seed {opts.seed}; checking "
                  "invariants and determinism only")
        setup = set_up(workload, workdir, opts.seed, gate, deadline)
        if opts.trace:
            metrics = traced(workload, opts.seed, opts.seconds, workdir, gate,
                             cli, deadline)
        else:
            metrics = end_to_end(workload, opts.seed, opts.seconds, workdir,
                                 gate, setup, deadline)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for problem in gate.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if "fail_ratio" not in metrics:
        print(f"fail_ratio = {gate.failed}/{gate.attempted} failed/attempted")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
