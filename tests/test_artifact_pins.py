"""The bytes of solver artifacts, against recorded sha256 values.

The determinism tests compare runs of the same code with each other; a
change that moves every run alike passes them.  These pins catch it: a
``pd`` solve and a ``bfw`` sweep on ``grid3x3``, run through the CLI on
the files ``fixtures.write_fixture_files`` writes, must write the bytes
recorded here.  A change meant to be byte-identical (a faster kernel, a
smaller solver) leaves them alone.  ROADMAP items 1, 2 and 8 change
reported numbers on purpose; each of them re-records these pins.
"""

from __future__ import annotations

import hashlib

import pytest

from mueflow import fixtures
from mueflow.cli import EXIT_OK, main

ARTIFACT_SHA256 = {
    ("solve", "--method", "pd", "--penetration", "0.5"): {
        "solution.json": "380cb5d19789623b5dfd6bb8f46825f94b5fe436bfa09a26fd09723ab1a511be",
        "metrics.json": "a22c3306f0917f98a0ebcecadacb406e8a732bf1ea0fdc902752fabe48583143",
    },
    ("sweep", "--method", "bfw", "--levels", "0:1:5"): {
        "sweep.json": "4476c843162f547c9a786f77f22ae21b7a154dff1644d37cd81b0d3c17df6f6e",
    },
}


@pytest.mark.parametrize("command", list(ARTIFACT_SHA256), ids=" ".join)
def test_artifact_bytes_are_pinned(command, tmp_path, capsys):
    case = fixtures.write_fixture_files("grid3x3", tmp_path / "inputs")
    out = tmp_path / "out"
    argv = [*command, "--network", str(case["nodes"]),
            "--links", str(case["links"]), "--zones", str(case["zones"]),
            "--od", str(case["od"]), "--cost-config", str(case["cost"]),
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    want = ARTIFACT_SHA256[command]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in want}
    assert got == want
