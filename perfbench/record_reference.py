"""Record the reference outputs that ``run.py`` checks every run against.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py --workload NAME --seeds 0-20,23

For each seed it runs the workload once, requires exit code 0 and every
level converged within the gap tolerance, and stores T_MUE and VOC_total
(and, for a sweep, the city type and critical thresholds) in
``reference.json``.  Record again only when a change is meant to move
these values, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import shutil
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(name: str, seed: int) -> dict:
    command = run.WORKLOADS[name].argv[0]
    work = run.WORK / f"record-{name}-{seed}"
    _, argv = run.prepare(name, seed, work)
    child = run.run_child(work, "ref", "plain", argv, timeout=600.0)
    problems = run.check_run(child, work, "ref", command, None, None)
    if problems:
        raise SystemExit(f"{name} seed {seed}: {'; '.join(problems)}")
    values = run.read_outputs(work / "out-ref", command)
    # informational: the reference check does not compare iterations
    values["iterations"] = child.iterations
    shutil.rmtree(work)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="e.g. 0-20,23")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    for seed in parse_seeds(args.seeds):
        values = record(args.workload, seed)
        with open(run.REFERENCE, "r+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            table = json.load(fh)
            table.setdefault(args.workload, {})[str(seed)] = values
            fh.seek(0)
            fh.truncate()
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{args.workload} seed {seed}: {values['iterations']} iterations",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
