"""The bytes of solver artifacts, against recorded sha256 values.

The determinism tests compare runs of the same code with each other; a
change that moves every run alike passes them.  These pins catch it: a
``pd`` solve and a ``bfw`` sweep on ``grid3x3``, run through the CLI on
the files ``fixtures.write_fixture_files`` writes, must write the bytes
recorded here.  So must ``write_solution_json`` for a matrix of library
solves: every method on ``grid3x3`` cold, warm from penetration 0.3 and
stopped by ``max_iters``; every method on ``dual_route`` from both cold
starts (the one fixture where ``"uniform"`` differs from ``"aon"``); and
capped ``pd``/``eg`` on ``dual_route``, cold and warm.  A change meant to
be byte-identical (a faster kernel, a smaller solver) leaves them alone.
ROADMAP items 4, 5 and 6 change reported numbers on purpose, and item 3
those of capped solves; each of them re-records the pins it moves.
"""

from __future__ import annotations

import hashlib

import pytest

from mueflow import fixtures
from mueflow.cli import EXIT_OK, main
from mueflow.demand import split_demand
from mueflow.equilibrium import SolverOptions, solve
from mueflow.reports import write_solution_json

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


# {case id: (fixture, method, SolverOptions fields, warm from 0.3)};
# every case solves penetration 0.5
_CAPPED = {"capacity_constraints": {"a": 40.0}, "max_iters": 300}
SOLUTION_CASES = {
    **{f"grid3x3-{method}-{form}": ("grid3x3", method, options, warm)
       for method in ("fw", "bfw", "pd", "eg")
       for form, options, warm in (("cold", {}, False),
                                   ("warm", {}, True),
                                   ("cap-exit", {"max_iters": 3}, False))},
    **{f"dual_route-{method}-{init}": ("dual_route", method,
                                       {"init": init}, False)
       for method in ("fw", "bfw", "pd", "eg") for init in ("aon", "uniform")},
    **{f"dual_route-{method}-capped-{form}": ("dual_route", method, _CAPPED,
                                              form == "warm")
       for method in ("pd", "eg") for form in ("cold", "warm")},
}

SOLUTION_SHA256 = {
    "grid3x3-fw-cold": "408015f298238c368393f3720a71a5396e20fa4e85e803d564060b7c4624856b",
    "grid3x3-fw-warm": "020d59a16360553bdd3321842a59ed5e9eedcda656c3d90564b95981cb374c6b",
    "grid3x3-fw-cap-exit": "e01d3b9d23eb4f3628aac1adc8791e68fee3776e4afda184822a7968c89b6814",
    "grid3x3-bfw-cold": "8e37c79d621245c33e334796d1c545da2e4ed6f4a708f68f872ccd0e6dd55edc",
    "grid3x3-bfw-warm": "2e15f78b5e370c5be4a789b18bbe1a250e8efc7ada45dc9ca1d25e7d7e77228f",
    "grid3x3-bfw-cap-exit": "47d44716d0bd5ff6a59ff83a568aaeec5260c9d4248fb8a081d98dd62b7bf66a",
    "grid3x3-pd-cold": "380cb5d19789623b5dfd6bb8f46825f94b5fe436bfa09a26fd09723ab1a511be",
    "grid3x3-pd-warm": "69254b589299be2b89a42d3324b8b9d71004a8137033fdf5de762b928f2131ec",
    "grid3x3-pd-cap-exit": "c4dae83e1258309ebd2029f208f3fbfd781e387f1fb94f9cf05602db97504319",
    "grid3x3-eg-cold": "558052b9cf114cc2f103eed171e479f20cba521674d8f62a5f89e4fb50cb41a8",
    "grid3x3-eg-warm": "ed66c22e406b7086fec101385c654c0a39768083071655049573dac500f1a623",
    "grid3x3-eg-cap-exit": "6c5f5628f1b9687a74270d65cc5e1de7d5ea04086972ea9d1d308972a43f3afc",
    "dual_route-fw-aon": "e9d4ebeee28ca8f66f5b9cfef8a6bcae42cee61f4cc9a3bfc7ee0ab7a366a49e",
    "dual_route-fw-uniform": "81478d4c4c78d62bb8a34ce6f6da9f863fb3b2fc290d1436c92dc94c76581800",
    "dual_route-bfw-aon": "f92c9ed13bae03394980903db610537b9f783070b116575037b4499ce6bb8887",
    "dual_route-bfw-uniform": "a14f07d53d033c71509ffff38e96bfb1926286216f001030f5ac35e4ba64923f",
    "dual_route-pd-aon": "0975611329c42012e0a70d13636a3fcecaa19339b61a62d920a67f1a3d542c6d",
    "dual_route-pd-uniform": "6fe493d69cc5ed409f65e0cd17a93ff815246fd55693aeb94234406f8eed56cc",
    "dual_route-eg-aon": "e5cbc33e05373ab914f2f84c1d6be31d83671c904169e8b5b325566308fabd67",
    "dual_route-eg-uniform": "478a77c88d7654668a8cecfb556fec4eb322af40498b8e52cebdc6abcb34f02b",
    "dual_route-pd-capped-cold": "487b1d252d7987381a1967b499d2ed8bbb0abe843859d80c486ec5743528ac23",
    "dual_route-pd-capped-warm": "9f90bf184e08d537c6fd597c3598fa34423afd171357623373e19734faea8a5a",
    "dual_route-eg-capped-cold": "93a35cdeffb20440d83b3a712318b3dc997a2fb9cbc205708c945286f5c8668f",
    "dual_route-eg-capped-warm": "38e9a5ee2babf66d897602601fe3478a0ba8a1defc5ed1fbf194819fa7f66f7d",
}


@pytest.mark.parametrize("case", list(SOLUTION_CASES))
def test_solution_bytes_are_pinned(case, tmp_path):
    fixture, method, fields, warm = SOLUTION_CASES[case]
    net, od = getattr(fixtures, fixture)()
    cfg = getattr(fixtures, f"{fixture}_config")()
    options = SolverOptions(**fields)
    start = solve(net, split_demand(od, 0.3), cfg, method, options) if warm else None
    sol = solve(net, split_demand(od, 0.5), cfg, method, options, warm_start=start)
    write_solution_json(sol, net, tmp_path / "solution.json")
    got = hashlib.sha256((tmp_path / "solution.json").read_bytes()).hexdigest()
    assert got == SOLUTION_SHA256[case]
