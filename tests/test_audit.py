"""An audit of the numbers ``mueflow solve`` writes, from its input files.

The artifact pins show that written bytes do not move; this module shows
that the numbers are right.  It runs the CLI ``solve`` (``bfw`` and
``pd``, penetration 0.5) on the files ``fixtures.write_fixture_files``
writes for ``grid3x3`` and ``grid10x10``, and ``bfw`` on ``mini_city``,
then recomputes each checked number of ``solution.csv`` and
``metrics.json`` from ``links.csv``, ``od.csv`` and ``cost.json`` with
``csv``, ``json`` and ``math`` only.  It also runs the CLI ``sweep``
(``bfw``, five levels) on ``grid3x3`` and recomputes the series that
``sweep.json`` derives from its own T_MUE series.
No ``mueflow`` formula enters a reference, so a change that moves a
definition cannot move its check with it.

Checked: each link's ``flow_total`` is ``flow_gv + flow_ev``; on each
road link (a row of ``links.csv``) the BPR ``time``, ``voc`` and
``delay_factor``; ``voc_total`` and ``rur``; and T_MUE, the total link
travel time ``sum(flow_total * time)`` over all links divided by the OD
demand between distinct zones.  In ``sweep.json``: ``gradient``, the
forward differences of T_MUE over the levels; ``potential_savings``,
``100 (t_max - t) / (t_max - t_min)`` over that series; and
``potential_savings_diff``, the consecutive differences of the latter.
"""

from __future__ import annotations

import csv
import json
import math

import pytest

from mueflow import fixtures
from mueflow.cli import EXIT_OK, main

RTOL = 1e-12
#: a road link counts as used above this flow, veh/h (README "Output files")
USED_FLOW = 1e-9


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


def input_args(case) -> list:
    return ["--network", str(case["nodes"]), "--links", str(case["links"]),
            "--zones", str(case["zones"]), "--od", str(case["od"]),
            "--cost-config", str(case["cost"])]


@pytest.fixture(scope="module", params=[
    (name, method) for name in ("grid3x3", "grid10x10")
    for method in ("bfw", "pd")
] + [("mini_city", "bfw")], ids="-".join)
def audited(request, tmp_path_factory):
    """The input files and the written outputs of one CLI solve."""
    name, method = request.param
    root = tmp_path_factory.mktemp(f"audit-{name}-{method}")
    case = fixtures.write_fixture_files(name, root / "inputs")
    out = root / "out"
    code = main(["solve"] + input_args(case)
                + ["--penetration", "0.5", "--method", method,
                   "--out", str(out)])
    assert code == EXIT_OK
    solution = {row["link_id"]: {k: float(v) for k, v in row.items()
                                 if k != "link_id"}
                for row in read_csv(out / "solution.csv")}
    return {
        "links": read_csv(case["links"]),
        "od": read_csv(case["od"]),
        "cost": json.loads(case["cost"].read_text()),
        "solution": solution,
        "metrics": json.loads((out / "metrics.json").read_text()),
    }


def test_flow_total_is_the_class_sum(audited):
    for lid, row in audited["solution"].items():
        assert row["flow_total"] == row["flow_gv"] + row["flow_ev"], lid


def test_road_link_time_voc_and_delay_factor(audited):
    alpha = audited["cost"]["bpr_alpha"]
    beta = audited["cost"]["bpr_beta"]
    metrics = audited["metrics"]
    assert sorted(metrics["voc_per_link"]) == sorted(
        link["link_id"] for link in audited["links"])
    for link in audited["links"]:
        assert (link["length_unit"], link["speed_unit"]) == ("km", "kmh")
        lid = link["link_id"]
        capacity = float(link["capacity"])
        t0 = 60.0 * float(link["length"]) / float(link["free_flow_speed"])
        row = audited["solution"][lid]
        flow = row["flow_total"]
        assert close(row["time"], t0 * (1.0 + alpha * (flow / capacity) ** beta)), lid
        assert close(row["voc"], flow / capacity), lid
        assert close(metrics["voc_per_link"][lid], flow / capacity), lid
        assert metrics["link_congested_time"][lid] == row["time"], lid
        assert close(metrics["delay_factor"][lid], row["time"] / t0), lid


def test_voc_total_and_rur(audited):
    flows = [audited["solution"][link["link_id"]]["flow_total"]
             for link in audited["links"]]
    capacities = [float(link["capacity"]) for link in audited["links"]]
    metrics = audited["metrics"]
    assert close(metrics["voc_total"],
                 math.fsum(x / c for x, c in zip(flows, capacities)))
    assert metrics["rur"] == sum(x > USED_FLOW for x in flows) / len(flows)


def test_t_mue_is_total_link_time_over_demand(audited):
    demand = math.fsum(
        float(row["demand"]) for row in audited["od"]
        if row["origin_zone"] != row["destination_zone"])
    link_time = math.fsum(row["flow_total"] * row["time"]
                          for row in audited["solution"].values())
    assert close(audited["metrics"]["avg_travel_time_mue"], link_time / demand)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """The ``sweep.json`` of a five-level ``bfw`` CLI sweep of ``grid3x3``."""
    root = tmp_path_factory.mktemp("audit-sweep")
    case = fixtures.write_fixture_files("grid3x3", root / "inputs")
    out = root / "out"
    code = main(["sweep"] + input_args(case)
                + ["--method", "bfw", "--levels", "0:1:5", "--out", str(out)])
    assert code == EXIT_OK
    return json.loads((out / "sweep.json").read_text())


def test_sweep_gradient_is_the_forward_differences(swept):
    levels, t = swept["levels"], swept["avg_travel_time_mue"]
    assert levels == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert len(t) == len(levels)
    want = [(t[i + 1] - t[i]) / (levels[i + 1] - levels[i])
            for i in range(len(levels) - 1)]
    assert len(swept["gradient"]) == len(want)
    for got, value in zip(swept["gradient"], want):
        assert close(got, value)


def test_sweep_potential_savings_and_their_differences(swept):
    t = swept["avg_travel_time_mue"]
    t_max, t_min = max(t), min(t)
    assert t_max > t_min
    want = [100.0 * (t_max - v) / (t_max - t_min) for v in t]
    ps = swept["potential_savings"]
    assert len(ps) == len(want)
    for got, value in zip(ps, want):
        assert close(got, value)
    diffs = swept["potential_savings_diff"]
    assert len(diffs) == len(ps) - 1
    for i, got in enumerate(diffs):
        assert close(got, ps[i + 1] - ps[i])
