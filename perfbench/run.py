"""End-to-end benchmark of the ``mueflow`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untimed set-up writes the workload's fixture with a seeded OD matrix
(``inputs.py``).  The run then starts fresh processes one after another
(closed loop, one client), each calling ``mueflow.cli.main`` once with the
program's defaults, and keeps starting them while the next one is
expected to finish within ``--seconds``; at least one always runs.
Several set-up probes (``child.py`` in ``setup`` mode) add set-up
samples.  Every run is checked before it counts (``check_run``).  The
end-to-end metrics are medians over the runs.

With ``--trace 1`` a single traced run replaces all that, and the
per-layer metrics come from its spans.  One run only: a ``grid-pd-solve``
seed can need 3500 iterations, about 100 s, so a traced and an untraced
run of it do not both fit in the time one benchmark run may take.  The
tracing overhead is therefore the tracer's own measured cost.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the environment.  Per-run details and traced spans are written
under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from child import spans_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: The relative Wardrop gap every run asks for; it is the CLI default.
REL_GAP = 1e-4

#: T_MUE and VOC_total must match the recorded reference to this relative
#: tolerance.  It allows a changed stopping rule or summation order that
#: still meets ``REL_GAP``, and catches a wrong answer.  T_FF is left out:
#: ``metrics._sp_weighted_time`` permutes link costs twice, so the value
#: printed today is wrong and must not be enshrined.
REFERENCE_RTOL = 1e-3

#: Set-up probes per run; set-up is the median over these and the runs.
SETUP_PROBES = 5

#: A run never lasts longer than this, so the benchmark exits in time.
RUN_LIMIT_S = 170.0

#: Variables that would change what the program does; a developer's shell
#: must not leak them into a measured run.
SCRUBBED_ENV = ("MUE_THREADS", "MUE_PURE_NUMPY")


@dataclass(frozen=True)
class Workload:
    fixture: str
    argv: tuple


#: Why each workload is here is in BENCHMARK.json and README.md.
WORKLOADS = {
    "city-bfw-solve": Workload(
        "mini_city", ("solve", "--method", "bfw", "--penetration", "0.5")),
    "grid-pd-solve": Workload(
        "grid10x10", ("solve", "--method", "pd", "--penetration", "0.5")),
    "grid-bfw-sweep": Workload(
        "grid10x10", ("sweep", "--method", "bfw", "--levels", "0:1:21")),
    # Not in BENCHMARK.json: a pd sweep that reaches every layer in
    # seconds, for the smoke test.
    "smoke-grid3x3": Workload(
        "grid3x3", ("sweep", "--method", "pd", "--levels", "0:1:5")),
}

E2E_UNITS = {
    "setup_s": "s",
    "solve_us_per_tree": "us",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "wall_s": "s",
    "solve_s": "s",
    "kernels.sp_s": "s",
    "kernels.sp_trees": "count",
    "kernels.sp_ns_per_arc": "ns",
    "kernels.project_s": "s",
    "kernels.project_blocks": "count",
    "kernels.project_us_per_block": "us",
    "equilibrium.self_s": "s",
    "equilibrium.iterations": "count",
    "equilibrium.ms_per_iter": "ms",
    "equilibrium.paths": "count",
    "metrics.report_s": "s",
    "metrics.sp_s": "s",
    "analysis.self_s": "s",
    "network.load_s": "s",
    "demand.load_s": "s",
    "reports.write_s": "s",
    "reports.bytes": "count",
    "cli.other_s": "s",
    "trace_overhead_s": "s",
}


# -- one process ---------------------------------------------------------


@dataclass
class Child:
    """One finished process: its timings, result file and artifacts."""

    tag: str
    mode: str
    wall_s: float
    setup_s: float | None
    result: dict | None
    hashes: dict
    artifact_bytes: int
    error: str | None = None

    @property
    def solve_s(self) -> float:
        return sum(s["t_out"] - s["t_in"] for s in self.result["solves"])

    @property
    def iterations(self) -> int:
        return sum(s["iterations"] for s in self.result["solves"])

    @property
    def trees(self) -> int:
        return sum(s["trees"] for s in self.result["solves"])


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(work: Path, tag: str, mode: str, argv: list, timeout: float) -> Child:
    """Start one fresh process, wait for it, and collect what it left."""
    out = work / f"out-{tag}"
    result_path = work / f"result-{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode,
           "--", *argv, "--out", str(out)]
    with open(work / f"log-{tag}.txt", "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=child_env())
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return Child(tag, mode, time.monotonic() - t0, None, None, {}, 0,
                         f"timed out after {timeout:.0f} s")
        wall = time.monotonic() - t0
    if proc.returncode != 0 or not result_path.is_file():
        return Child(tag, mode, wall, None, None, {}, 0,
                     f"child exited with {proc.returncode}; see log-{tag}.txt")
    result = json.loads(result_path.read_text())
    if mode == "trace":
        result["spans"] = json.loads(spans_path(result_path).read_text())
    if mode == "setup":
        return Child(tag, mode, wall, result["t_in"] - t0, None, {}, 0)
    solves = result["solves"]
    setup = solves[0]["t_in"] - t0 if solves else None
    hashes, size = {}, 0
    if out.is_dir():
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            hashes[path.name] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return Child(tag, mode, wall, setup, result, hashes, size)


# -- correctness ----------------------------------------------------------


def read_outputs(out: Path, command: str) -> dict:
    """Reference-checked values from a run's artifacts."""
    if command == "solve":
        summary = json.loads((out / "metrics.json").read_text())
        return {"t_mue": [summary["avg_travel_time_mue"]],
                "voc_total": [summary["voc_total"]]}
    sweep = json.loads((out / "sweep.json").read_text())
    return {"t_mue": sweep["avg_travel_time_mue"],
            "voc_total": sweep["voc_total"],
            "city_type": sweep["city_type"],
            "critical_thresholds": sweep["critical_thresholds"]}


def compare_reference(got: dict, want: dict) -> list[str]:
    problems = []
    for key in ("t_mue", "voc_total"):
        a, b = got[key], want[key]
        if len(a) != len(b) or any(
                abs(x - y) > REFERENCE_RTOL * abs(y) for x, y in zip(a, b)):
            problems.append(f"{key} {a} differs from reference {b}")
    for key in ("city_type", "critical_thresholds"):
        if key in want and got.get(key) != want[key]:
            problems.append(f"{key} {got.get(key)!r} differs from "
                            f"reference {want[key]!r}")
    return problems


def check_run(child: Child, work: Path, tag: str, command: str,
              reference: dict | None, first_hashes: dict | None) -> list[str]:
    """Every reason this run must not count; empty when it is correct."""
    if child.error:
        return [child.error]
    result = child.result
    problems = []
    if result["rc"] != 0:
        problems.append(f"exit code {result['rc']}")
    if Path(result["mueflow_file"]).resolve().parent != SRC / "mueflow":
        problems.append(f"imported mueflow from {result['mueflow_file']}")
    if not result["solves"]:
        problems.append("solve was never called")
    for i, level in enumerate(result["solves"]):
        if not level["converged"]:
            problems.append(f"solve {i} did not converge")
        if not level["wardrop_gap"] <= REL_GAP:
            problems.append(f"solve {i} wardrop gap {level['wardrop_gap']!r} "
                            f"> {REL_GAP}")
    if problems:
        return problems
    if reference is not None:
        problems += compare_reference(
            read_outputs(work / f"out-{tag}", command), reference)
    if first_hashes is not None and child.hashes != first_hashes:
        problems.append("artifacts differ from the first run of this seed")
    return problems


# -- per-layer metrics from spans -------------------------------------------


def layer_metrics(child: Child) -> dict:
    """Per-layer times and counts from one traced run's spans.

    A layer's self time excludes the spans it called.  Per-tree Dijkstra
    spans inside a threaded batch overlap each other, so the time the
    solver waits for shortest paths is the batch span, not their sum.
    """
    spans = child.result["spans"]
    names = [s[0] for s in spans]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def has_ancestor(i, name):
        p = spans[i][3]
        while p >= 0:
            if names[p] == name:
                return True
            p = spans[p][3]
        return False

    def total(name, under=None):
        return sum(dur(i) for i, n in enumerate(names)
                   if n == name and (under is None or has_ancestor(i, under)))

    def children_total(name, parent_name):
        return sum(dur(i) for i, n in enumerate(names)
                   if n == name and spans[i][3] >= 0
                   and names[spans[i][3]] == parent_name)

    arcs = next((s[5] for s in spans if s[0] == "kernels.batch_dijkstra"), 0)
    trees = child.trees
    project_blocks = sum(spans[i][5] for i, n in enumerate(names)
                         if n == "kernels.project_blocks")

    sp_s = total("kernels.batch_dijkstra", under="equilibrium.solve")
    project_s = total("kernels.project_blocks", under="equilibrium.solve")
    solve_s = total("equilibrium.solve")
    report_s = total("metrics.compute_report")
    sweep_s = total("analysis.run_sweep")
    analysis_self = (sweep_s
                     - children_total("equilibrium.solve", "analysis.run_sweep")
                     - children_total("metrics.compute_report",
                                      "analysis.run_sweep"))
    network_s = (total("network.load_network")
                 + total("network.generate_connectors"))
    demand_s = total("demand.load_od_csv")
    write_s = sum(dur(i) for i, n in enumerate(names)
                  if n.startswith("reports."))
    iterations = child.iterations
    selves = {
        "kernels.sp_s": sp_s,
        "kernels.project_s": project_s,
        "equilibrium.self_s": solve_s - sp_s - project_s,
        "metrics.report_s": report_s,
        "analysis.self_s": analysis_self,
        "network.load_s": network_s,
        "demand.load_s": demand_s,
        "reports.write_s": write_s,
    }
    return {
        **selves,
        "cli.other_s": child.wall_s - sum(selves.values()),
        "kernels.sp_trees": trees,
        "kernels.sp_ns_per_arc": sp_s * 1e9 / (trees * arcs) if trees else 0.0,
        "kernels.project_blocks": project_blocks,
        "kernels.project_us_per_block":
            project_s * 1e6 / project_blocks if project_blocks else 0.0,
        "equilibrium.iterations": iterations,
        "equilibrium.ms_per_iter": solve_s * 1e3 / iterations,
        "equilibrium.paths": child.result["solves"][-1]["paths"],
        "metrics.sp_s": total("kernels.dijkstra", under="metrics.compute_report"),
        "reports.bytes": child.artifact_bytes,
        "trace_overhead_s": child.result["trace_cost_s"],
        "wall_s": child.wall_s,
        "solve_s": solve_s,
    }


def check_spans(metrics: dict) -> list[str]:
    """Self times are non-negative when the spans nest as the layers call.

    ``cli.other_s`` is what the other layers leave of the traced wall
    time, so the self times add up to it exactly.
    """
    return [f"{name} is negative ({value!r})"
            for name, value in metrics.items()
            if name.endswith("_s") and value < 0.0]


# -- one benchmark run --------------------------------------------------------


def stamp(n_origins: int, child: Child | None) -> dict:
    """Where and with what the numbers were measured."""
    import numpy

    def git(*args):
        try:
            proc = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    sha = git("rev-parse", "HEAD")
    dirty = None if sha is None else bool(
        git("status", "--porcelain", "--untracked-files=no"))
    result = child.result if child is not None else {}
    cap = result.get("workers_cap")
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba_enabled": result.get("numba_enabled"),
        "workers": None if cap is None else max(1, min(cap, n_origins)),
        "nproc": os.cpu_count(),
    }


def prepare(name: str, seed: int, work: Path) -> tuple[dict, list]:
    """Untimed set-up: fresh ``work`` with seeded inputs; returns the CLI args."""
    import inputs  # imports mueflow, so only after the source check

    workload = WORKLOADS[name]
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    paths = inputs.write_inputs(workload.fixture, seed, work / "inputs")
    argv = [*workload.argv, "--rel-gap", repr(REL_GAP),
            "--network", str(paths["nodes"]), "--links", str(paths["links"]),
            "--zones", str(paths["zones"]), "--od", str(paths["od"]),
            "--cost-config", str(paths["cost"])]
    return paths, argv


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{seed}"
    paths, argv = prepare(name, seed, work)
    n_origins = len({line.split(",")[0] for line in
                     paths["od"].read_text().splitlines()[1:]})
    reference = json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))
    command = WORKLOADS[name].argv[0]

    start = time.monotonic()

    def left():
        return RUN_LIMIT_S - (time.monotonic() - start)

    probes: list[Child] = []
    runs: list[Child] = []
    if trace:
        runs.append(run_child(work, "traced", "trace", argv, left()))
    else:
        probes = [run_child(work, f"setup{i}", "setup", argv, left())
                  for i in range(SETUP_PROBES)]
        run_start = time.monotonic()
        while True:
            runs.append(run_child(work, f"run{len(runs)}", "plain", argv,
                                  left()))
            elapsed = time.monotonic() - run_start
            if elapsed + max(c.wall_s for c in runs) > seconds or left() <= 0:
                break

    problems: dict[str, list[str]] = {}
    for i, probe in enumerate(probes):
        if probe.error:
            problems[f"setup{i}"] = [probe.error]
    first_hashes = None
    for child in runs:
        tag = child.tag
        problems[tag] = check_run(child, work, tag, command, reference,
                                  first_hashes)
        if first_hashes is None and not problems[tag]:
            first_hashes = child.hashes

    good = [c for c in runs if not problems[c.tag]]
    setups = [c.setup_s for c in probes + good if c.setup_s is not None]
    metrics = {}
    if good and trace:
        metrics = layer_metrics(good[0])
        problems["traced"] += check_spans(metrics)
        metrics = {k: {"value": metrics[k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
    elif good and setups:
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_us_per_tree": statistics.median(
                [c.solve_s * 1e6 / c.trees for c in good]),
            "peak_rss_mb": statistics.median(
                [c.result["peak_rss_mb"] for c in good]),
        }
        metrics = {k: {"value": metrics[k], "unit": u}
                   for k, u in E2E_UNITS.items()}

    problems = {k: v for k, v in problems.items() if v}
    children = probes + runs
    details = {
        "workload": name,
        "seed": seed,
        "reference_checked": reference is not None,
        "stamp": stamp(n_origins, good[0] if good else None),
        "problems": problems,
        "runs": [{"mode": c.mode, "wall_s": c.wall_s, "setup_s": c.setup_s,
                  "solve_s": c.solve_s if c.result else None,
                  "iterations": c.iterations if c.result else None,
                  "trees": c.trees if c.result else None}
                 for c in children],
    }
    (work / "summary.json").write_text(json.dumps(details, indent=2) + "\n")
    return {
        "details": details,
        "line": {
            "correct": not problems and bool(metrics),
            "attempted": len(children),
            "failed": len(problems),
            "metrics": metrics,
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mueflow" / "__init__.py").is_file():
        print(f"error: no mueflow source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = benchmark(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    details = result["details"]
    for tag, found in details["problems"].items():
        print(f"{tag}: {'; '.join(found)}", file=sys.stderr)
    print(json.dumps({"stamp": details["stamp"],
                      "reference_checked": details["reference_checked"]}))
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
