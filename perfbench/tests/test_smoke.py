"""Smoke test of the benchmark harness: it runs, checks, and reports.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
It makes no speed assertion.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from mueflow import fixtures  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_grid3x3_run_reports_every_metric(trace, kind):
    proc = bench("--workload", "smoke-grid3x3", "--seed", "5",
                 "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    stamp = json.loads(lines[-2])
    assert stamp["reference_checked"] is True
    assert set(stamp["stamp"]) == {"git_sha", "git_dirty", "python", "numpy",
                                   "scipy", "numba_enabled", "workers", "nproc"}
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(line["metrics"]) == set(want)
    for name, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == want[name]
        assert isinstance(metric["value"], numbers.Real)
    if trace:
        # a pd sweep runs the projection; every layer is reached
        for name in ("kernels.project_blocks", "kernels.sp_trees",
                     "equilibrium.iterations", "reports.bytes"):
            assert line["metrics"][name]["value"] > 0


@pytest.mark.parametrize("fixture", ["grid10x10", "mini_city"])
def test_fixture_seed_reproduces_bundled_od(tmp_path, fixture):
    bundled = fixtures.write_fixture_files(fixture, tmp_path / "bundled")
    drawn = inputs.write_inputs(
        fixture, inputs.DRAW_RULES[fixture].fixture_seed, tmp_path / "drawn")
    assert drawn["od"].read_bytes() == Path(bundled["od"]).read_bytes()
    other = inputs.write_inputs(fixture, 1, tmp_path / "other")
    assert other["od"].read_bytes() != drawn["od"].read_bytes()
    assert len(other["od"].read_text().splitlines()) == \
        len(drawn["od"].read_text().splitlines())


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", SPEC["workloads"][0]["name"],
                 "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
