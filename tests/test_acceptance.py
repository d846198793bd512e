"""Acceptance suite: twelve product-level guarantees, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get a single
pass/fail line per criterion.  Tolerances are the contractual ones;
oracles (brute-force grid search, convex-QP projection, numeric
quadrature) are built here from first principles, independent of the
library's own algorithms.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from mueflow import fixtures
from mueflow.analysis import SweepResult, classify_city, detect_plateaus, \
    detect_transitions, run_sweep
from mueflow.cost import bpr_integral, bpr_time, bpr_time_derivative, \
    bundled_cities, bundled_config, vehicle_costs
from mueflow.demand import split_demand
from mueflow.equilibrium import SolverOptions, project_simplex, solve
from mueflow.metrics import avg_travel_time, compare
from mueflow.reports import read_series_csv, read_sweep_csv

from test_projection import qp_bisection_oracle, random_instances

METHODS = ("fw", "bfw", "pd", "eg")


def route_state(solution):
    """(flow, time) per road link id on the dual-route fixture."""
    ids = solution.link_flows.link_ids
    agg = solution.link_flows.aggregate()
    times = solution.link_times
    return {lid: (float(agg[i]), float(times[i]))
            for i, lid in enumerate(ids) if not lid.startswith("connector:")}


def test_criterion_01_time_only_equilibrium():
    net, od = fixtures.dual_route()
    cfg = fixtures.time_only_config(vot=1.0)
    demand = split_demand(od, 0.0)
    start = time.perf_counter()
    sol = solve(net, demand, cfg, "bfw", SolverOptions(rel_gap_tol=1e-7))
    elapsed = time.perf_counter() - start
    state = route_state(sol)
    assert state["a"][0] == pytest.approx(31.2, abs=0.05)
    assert state["b"][0] == pytest.approx(68.8, abs=0.05)
    assert state["a"][1] == pytest.approx(15.12, abs=0.01)
    assert state["b"][1] == pytest.approx(15.12, abs=0.01)
    assert elapsed < 1.0


def test_criterion_02_gv_cost_equilibrium():
    net, od = fixtures.dual_route()
    cfg = fixtures.dual_route_config(gv_per_mile=0.6, vot=0.3)
    sol = solve(net, split_demand(od, 0.0), cfg, "bfw",
                SolverOptions(rel_gap_tol=1e-7))
    state = route_state(sol)
    assert state["a"][0] == pytest.approx(50.4, abs=0.05)
    assert state["b"][0] == pytest.approx(49.6, abs=0.05)
    assert state["a"][1] == pytest.approx(17.04, abs=0.01)
    assert state["b"][1] == pytest.approx(14.04, abs=0.01)
    assert avg_travel_time(sol, net, od) == pytest.approx(15.55, abs=0.01)


def test_criterion_03_cost_sensitivity():
    net, od = fixtures.dual_route()
    demand = split_demand(od, 0.0)
    flows_a, times_a, flows_b, times_b = [], [], [], []
    for tenths in range(11):
        cfg = fixtures.dual_route_config(gv_per_mile=tenths / 10.0, vot=0.3)
        sol = solve(net, demand, cfg, "bfw", SolverOptions(rel_gap_tol=1e-8))
        state = route_state(sol)
        flows_a.append(state["a"][0])
        times_a.append(state["a"][1])
        flows_b.append(state["b"][0])
        times_b.append(state["b"][1])
    assert np.diff(flows_a) == pytest.approx(3.2, abs=0.1)
    assert np.diff(times_a) == pytest.approx(0.32, abs=0.01)
    assert np.diff(flows_b) == pytest.approx(-3.2, abs=0.1)
    assert np.diff(times_b) == pytest.approx(-0.18, abs=0.01)


def test_criterion_04_city_cost_model():
    sf = vehicle_costs(bundled_config("san_francisco"))
    assert sf.per_mile["gv"] == pytest.approx(0.890, abs=5e-4)
    assert sf.per_mile["ev"] == pytest.approx(0.316, abs=5e-4)
    assert sf.per_mile["gv"] / sf.per_mile["ev"] == pytest.approx(2.82, abs=0.01)

    hon = vehicle_costs(bundled_config("honolulu"))
    assert hon.per_mile["gv"] / hon.per_mile["ev"] == pytest.approx(2.33,
                                                                    abs=0.01)

    cities = bundled_cities()
    assert len(cities) == 10
    for city in cities:
        costs = vehicle_costs(bundled_config(city))
        assert 0.799 <= costs.per_mile["gv"] <= 0.923, city
        assert 0.269 <= costs.per_mile["ev"] <= 0.465, city


def test_criterion_05_comparison_formula():
    d_abs, d_rel = compare(25.1, 24.53)
    assert round(d_abs, 2) == -0.57
    assert round(d_rel, 2) == -2.27
    d_abs, d_rel = compare(40.53, 36.77)
    assert round(d_abs, 2) == -3.76
    assert round(d_rel, 2) == -9.28


def test_criterion_06_wardrop_gap_on_all_fixtures():
    cases = [
        ("dual_route", fixtures.dual_route, fixtures.dual_route_config),
        ("braess", fixtures.braess, fixtures.time_only_config),
        ("grid3x3", fixtures.grid3x3, fixtures.grid3x3_config),
        ("grid10x10", fixtures.grid10x10, fixtures.grid10x10_config),
    ]
    opts = SolverOptions(rel_gap_tol=1e-4, max_iters=40000)
    for name, build_net, build_cfg in cases:
        net, od = build_net()
        cfg = build_cfg()
        demand = split_demand(od, 0.5)
        for method in METHODS:
            start = time.perf_counter()
            sol = solve(net, demand, cfg, method, opts)
            elapsed = time.perf_counter() - start
            assert sol.converged, (name, method)
            assert sol.wardrop_gap <= 1e-4, (name, method)
            if name == "grid10x10":
                assert elapsed < 10.0, (method, elapsed)


class _BruteForce:
    """0.1 veh/h block-cyclic exhaustive search on the 3x3 grid.

    Enumerates every nonnegative 0.1-resolution split of each (class,
    OD) demand over that OD's physical paths, cyclically replacing one
    block with its exact discrete minimizer of the closed-form convex
    objective (affine congestion integral + per-class distance costs)
    until a full cycle changes nothing.  Connector links carry the same
    constant flow at every feasible point, so they drop out.
    """

    def __init__(self, network, od, config, penetration):
        assert config.bpr_beta == 1.0  # closed form below is affine-BPR
        self.link_ids = [lid for lid, link in network.links.items()
                         if not link.connector]
        idx = {lid: i for i, lid in enumerate(self.link_ids)}
        links = [network.links[lid] for lid in self.link_ids]
        t0 = np.array([lk.free_flow_time for lk in links])
        cap = np.array([lk.capacity for lk in links])
        self.length = np.array([lk.length_km for lk in links])
        self.a_lin = config.vot * t0
        self.a_quad = config.vot * t0 * config.bpr_alpha / (2.0 * cap)
        per_km = vehicle_costs(config).per_km

        adjacency: dict = {}
        for lid in self.link_ids:
            link = network.links[lid]
            adjacency.setdefault(link.from_node, []).append(
                (lid, link.to_node))

        def paths_between(src, dst):
            found = []

            def walk(node, acc, seen):
                if node == dst:
                    found.append(tuple(acc))
                    return
                for lid, nxt in adjacency.get(node, ()):
                    if nxt not in seen:
                        walk(nxt, acc + [lid], seen | {nxt})

            walk(src, [], {src})
            return sorted(found)

        def attachment(zone_id, direction):
            link = network.links[f"connector:{zone_id}:{direction}"]
            return link.to_node if direction == "out" else link.from_node

        self.blocks = []
        for (origin, dest), total in od.pairs():
            paths = paths_between(attachment(origin, "out"),
                                  attachment(dest, "in"))
            P = np.zeros((len(paths), len(self.link_ids)))
            for p, path in enumerate(paths):
                for lid in path:
                    P[p, idx[lid]] = 1.0
            for cls, share in (("gv", 1.0 - penetration),
                               ("ev", penetration)):
                tenths = share * total * 10.0
                assert abs(tenths - round(tenths)) < 1e-9  # on-grid demand
                self.blocks.append({
                    "P": P,
                    "per_km": per_km[cls],
                    "comps": self._compositions(int(round(tenths)),
                                                len(paths)),
                })

    @staticmethod
    def _compositions(total_tenths, k):
        """Every nonnegative k-part composition of total_tenths / 10."""
        slots = total_tenths + k - 1
        cuts = np.array(
            list(itertools.combinations(range(slots), k - 1)), dtype=np.int64
        ).reshape(-1, k - 1)
        padded = np.hstack([
            np.full((len(cuts), 1), -1, dtype=np.int64),
            cuts,
            np.full((len(cuts), 1), slots, dtype=np.int64),
        ])
        return (np.diff(padded, axis=1) - 1).astype(np.float64) / 10.0

    def solve(self, start_rows):
        flows = [blk["comps"][row].copy()
                 for blk, row in zip(self.blocks, start_rows)]
        for _ in range(100):
            changed = False
            for bi, blk in enumerate(self.blocks):
                x_fixed = np.zeros(len(self.link_ids))
                for bj, other in enumerate(self.blocks):
                    if bj != bi:
                        x_fixed += flows[bj] @ other["P"]
                P = blk["P"]
                lin = P @ (self.a_lin + 2.0 * self.a_quad * x_fixed
                           + blk["per_km"] * self.length)
                quad = P @ np.diag(self.a_quad) @ P.T
                F = blk["comps"]
                values = F @ lin + np.einsum("ij,jk,ik->i", F, quad, F)
                best = int(np.argmin(values))
                if not np.array_equal(F[best], flows[bi]):
                    flows[bi] = F[best].copy()
                    changed = True
            if not changed:
                break
        else:
            raise AssertionError("block-cyclic search did not settle")
        aggregate = np.zeros(len(self.link_ids))
        for blk, f in zip(self.blocks, flows):
            aggregate += f @ blk["P"]
        return dict(zip(self.link_ids, aggregate))


def test_criterion_07_brute_force_oracle_equivalence():
    net, od = fixtures.grid3x3()
    cfg = fixtures.grid3x3_config()
    oracle = _BruteForce(net, od, cfg, penetration=0.5)

    rng = np.random.default_rng(20260819)
    starts = [[0] * len(oracle.blocks)]
    starts += [[int(rng.integers(len(blk["comps"])))
                for blk in oracle.blocks] for _ in range(2)]
    solutions = [oracle.solve(s) for s in starts]
    for other in solutions[1:]:  # every restart reaches the same point
        assert all(other[lid] == solutions[0][lid] for lid in other)
    reference = solutions[0]

    demand = split_demand(od, 0.5)
    opts = SolverOptions(rel_gap_tol=1e-5, max_iters=30000)
    for method in METHODS:
        sol = solve(net, demand, cfg, method, opts)
        agg = dict(zip(sol.link_flows.link_ids, sol.link_flows.aggregate()))
        worst = max(abs(agg[lid] - reference[lid]) for lid in reference)
        assert worst <= 1e-2, (method, worst)


def test_criterion_08_uniqueness_and_determinism():
    net, od = fixtures.grid10x10()
    cfg = fixtures.grid10x10_config()
    assert cfg.bpr_beta == 1.5
    demand = split_demand(od, 0.5)
    tol = 1e-4

    for method in ("bfw", "pd"):
        aon = solve(net, demand, cfg, method,
                    SolverOptions(rel_gap_tol=tol, init="aon"))
        uni = solve(net, demand, cfg, method,
                    SolverOptions(rel_gap_tol=tol, init="uniform"))
        a, b = aon.link_flows.aggregate(), uni.link_flows.aggregate()
        assert np.abs(a - b).sum() / a.sum() <= 10.0 * tol, method

    runs = [solve(net, demand, cfg, "pd", SolverOptions(rel_gap_tol=tol))
            for _ in range(4)]
    baseline = runs[0]
    for other in runs[1:]:
        assert other.link_flows.link_ids == baseline.link_flows.link_ids
        for cls, flows in baseline.link_flows.class_flows.items():
            assert other.link_flows.class_flows[cls].tobytes() == \
                flows.tobytes()
        assert other.iterations == baseline.iterations


def test_criterion_09_simplex_projection_oracle():
    worst = 0.0
    for vector, total in random_instances(1000):
        got = project_simplex(vector, total)
        want = qp_bisection_oracle(vector, total)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-8


def test_criterion_10_bpr_calculus():
    t0, cap, alpha = 12.0, 120.0, 0.73
    h = 1e-5 * cap
    for beta in (1.0, 1.2, 1.5, 2.0, 3.0):
        for ratio in (0.1, 0.5, 1.0, 1.5):
            x = ratio * cap

            analytic = bpr_time_derivative(t0, cap, alpha, beta, x)
            central = (bpr_time(t0, cap, alpha, beta, x + h)
                       - bpr_time(t0, cap, alpha, beta, x - h)) / (2.0 * h)
            assert analytic == pytest.approx(central, rel=1e-6, abs=1e-12)

            closed = bpr_integral(t0, cap, alpha, beta, x)
            numeric, _ = quad(
                lambda u: bpr_time(t0, cap, alpha, beta, u), 0.0, x,
                epsabs=1e-10, epsrel=1e-12,
            )
            assert closed == pytest.approx(numeric, rel=1e-6)


def test_criterion_11_detectors_and_classifier():
    levels = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    times, value = [30.0], 30.0
    for slope, step in zip((-3.0, -3.0, -3.0, -0.3, -0.3), [0.2] * 5):
        value += slope * step
        times.append(value)
    sweep = SweepResult.from_series(levels, times)
    assert detect_plateaus(sweep) == [(0.6, 1.0)]
    assert detect_transitions(sweep) == [(0.0, 0.6)]

    flat = SweepResult.from_series(levels, [20.0] * 6)
    assert detect_plateaus(flat) == [(0.0, 1.0)]
    assert detect_transitions(flat) == []

    grid = [round(i / 20, 10) for i in range(21)]
    archetypes = {
        "I": [30.0 - 9.0 * r if r <= 0.3 else 27.3 for r in grid],
        "II": [30.0 - 2.1 * r for r in grid],
        "III": [30.0 - 0.6 * r for r in grid],
    }
    for expected, curve in archetypes.items():
        label = classify_city(SweepResult.from_series(grid, curve))
        assert label.city_type == expected


def test_criterion_12_penetration_monotonicity_and_pipeline(tmp_path):
    net, od = fixtures.dual_route()
    levels = [round(i / 20, 10) for i in range(21)]
    for city in bundled_cities():
        sweep = run_sweep(net, od, bundled_config(city), levels, method="pd")
        rises = np.diff(sweep.avg_times)
        assert (rises <= 1e-6).all(), (city, rises.max())

    files = fixtures.write_fixture_files("mini_city", tmp_path / "inputs")
    out = tmp_path / "run"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mueflow", "sweep",
         "--network", str(files["nodes"]), "--links", str(files["links"]),
         "--zones", str(files["zones"]), "--od", str(files["od"]),
         "--cost-config", str(files["cost"]), "--method", "bfw",
         "--levels", "0:1:5", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 120.0

    rows = read_sweep_csv(out / "sweep.csv")  # validates the header
    assert [r["penetration"] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(r["t_mue"] is not None and r["voc_total"] is not None
               for r in rows)
    payload = json.loads((out / "sweep.json").read_text())
    for key in ("levels", "avg_travel_time_mue", "gradient",
                "critical_thresholds", "city_type", "classification"):
        assert key in payload
    for name in ("t_vs_re", "ps_vs_re", "voc_vs_re", "rur_vs_re"):
        series = read_series_csv(out / f"{name}.csv")  # validates the header
        assert len(series) == 5
