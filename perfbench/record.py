#!/usr/bin/env python3
"""Record reference outputs for the benchmark's correctness gate.

    python3 perfbench/record.py --seeds 40-49

Runs every workload's job once per seed through ``clusterdr.cli.main``
in this process and adds the numbers ``run.py`` compares against to
``perfbench/references.json``. Seeds already stored are never
re-recorded, so a change under test cannot move its own reference.
Record from the commit the benchmark should be measured against: the
stored values came from the commit that added the benchmark, and a new
seed is recorded at the parent of the change under test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import REFERENCES, WORK, import_checkout, job_args, run_inprocess
from workloads import WORKLOADS


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds or ranges, e.g. 0-9,42")
    opts = parser.parse_args()
    cli = import_checkout()
    stored = json.loads(REFERENCES.read_text())
    workdir = WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    try:
        for seed in parse_seeds(opts.seeds):
            for name, wl in WORKLOADS.items():
                table = stored["workloads"].setdefault(name, {})
                if str(seed) in table:
                    continue
                wl.write_inputs(workdir, seed)
                _, code, _ = run_inprocess(cli, job_args(wl, seed))
                if code != 0:
                    print(f"{name} seed {seed}: job failed", file=sys.stderr)
                    return 1
                report = json.loads((workdir / "report.json").read_text())
                body = report["body"]
                problems = wl.invariants(body)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                table[str(seed)] = wl.reference(body)
                print(f"{name} seed {seed}: {json.dumps(table[str(seed)])}",
                      flush=True)
            REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True)
                                  + "\n")
    finally:
        os.chdir(WORK.parent)
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
