#!/usr/bin/env python3
"""Scaling sweep of the ``estimate`` path over the number of clusters.

    python3 perfbench/sweep.py [--seed 1]

Not part of the gated benchmark. For each C in ``CLUSTERS`` it writes a
``nonlinear-u`` CSV with 10 units per cluster (so n = 10 C), runs
``estimate --baselines`` once, traced, in a fresh process, and prints
each stage's self time. A point that runs past ``CAP_S`` seconds is
killed and reported as capped. The log-log slope of each stage's time
in C shows its growth: about 1 for linear work, about 2 for quadratic
work such as a per-cluster copy of the label list.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

from run import WORK, import_checkout, job_args, run_inprocess
from tracer import Tracer, summarize
from workloads import WORKLOADS

CLUSTERS = (1_000, 10_000, 100_000)
N_C = 10
CAP_S = 300.0
ESTIMATE = WORKLOADS["estimate-csv"]


def point(c: int, seed: int) -> dict:
    """Time one traced estimate job at C clusters (runs in a child)."""
    cli = import_checkout()
    from clusterdr import dgp_preset, generate, write_csv

    workdir = WORK / f"sweep-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    try:
        t0 = time.perf_counter()
        write_csv(generate(dgp_preset("nonlinear-u", c=c, n_c=N_C),
                           seed=seed).dataset, "input.csv")
        setup = time.perf_counter() - t0
        tracer = Tracer()
        wall, code, root = run_inprocess(cli, job_args(ESTIMATE, seed), tracer)
        if code != 0:
            raise SystemExit(f"estimate failed at C={c}")
        s = summarize(tracer.spans, root)
        stages = {name: s["self_s"].get(name, 0.0)
                  for name in ESTIMATE.expected_spans}
        stages["cli"] = s["wall_s"] - s["covered_s"]
        return {"c": c, "n": c * N_C, "setup_s": setup, "wall_s": wall,
                "stages": stages}
    finally:
        os.chdir(WORK.parent)
        shutil.rmtree(workdir, ignore_errors=True)


def slope(points: list, key) -> float:
    """Least-squares slope of log(time) against log(C)."""
    xs = [math.log(p["c"]) for p in points]
    ys = [math.log(max(key(p), 1e-9)) for p in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--point", type=int, help=argparse.SUPPRESS)
    opts = parser.parse_args()
    if opts.point is not None:
        print(json.dumps(point(opts.point, opts.seed)))
        return 0

    done, capped = [], []
    for c in CLUSTERS:
        try:
            out = subprocess.run(
                [sys.executable, __file__, "--point", str(c), "--seed",
                 str(opts.seed)], capture_output=True, text=True,
                timeout=CAP_S, check=True)
        except subprocess.TimeoutExpired:
            capped.append(c)
            print(f"C={c}: capped at {CAP_S:g} s")
            continue
        except subprocess.CalledProcessError as exc:
            print(f"C={c}: failed\n{exc.stderr[-2000:]}", file=sys.stderr)
            return 1
        p = json.loads(out.stdout.splitlines()[-1])
        done.append(p)
        print(f"C={c} n={p['n']} wall={p['wall_s']:.3f}s "
              + " ".join(f"{k}={v:.3f}" for k, v in p["stages"].items()))
    slopes = {}
    if len(done) >= 2:
        slopes = {name: slope(done, lambda p, n=name: p["stages"][n])
                  for name in done[0]["stages"]}
        slopes["wall"] = slope(done, lambda p: p["wall_s"])
        print("log-log slope in C: "
              + " ".join(f"{k}={v:.2f}" for k, v in slopes.items()))
    print(json.dumps({"points": done, "capped": capped, "slopes": slopes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
