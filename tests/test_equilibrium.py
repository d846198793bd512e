"""Equilibrium solvers against closed-form and structural oracles.

The dual-route and braess fixtures have hand-derivable equilibria (two
or three paths, affine delay), so flows and times are asserted against
exact algebra.  Structural invariants (demand conservation, incidence
consistency, equilibration of used paths) are checked on every solver.
"""

from __future__ import annotations

import functools
import gc
import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mueflow import _kernels, equilibrium, fixtures
from mueflow.cost import CLASSES
from mueflow.demand import ODMatrix, split_demand
from mueflow.equilibrium import (
    EquilibriumSolution,
    InfeasibleProblemError,
    METHODS,
    SolverOptions,
    UnknownPairError,
    UnsupportedOperationError,
    _PathState,
    _Problem,
    _PATH_DROP_TOL,
    _Session,
    _all_or_nothing,
    _assemble,
    _block_gaps,
    _worst_gap,
    beckmann_objective,
    solve,
    solve_extra_gradient,
    solve_fw,
    solve_primal_dual,
    wardrop_residual,
)
from mueflow.network import Link, Network, Node, Zone, generate_connectors

# Dual-route algebra (alpha=1, beta=1): t_a = 12 + 0.1*x_a and
# t_b = 16.875 - 0.05625*x_a, so the class-m indifference point solves
# vot*(t_a - t_b) = C_m*(l_b - l_a) = 1.5 mi * C_m.
GV_SPLIT = 50.4  # vot=0.3, C_gv=0.6 -> t_a - t_b = 3.0
EV_SPLIT = 37.6  # vot=0.3, C_ev=0.2 -> t_a - t_b = 1.0
TIME_SPLIT = 31.2  # C=0 -> equal times


def route_flows(solution: EquilibriumSolution):
    return (solution.link_flows.flow("a"), solution.link_flows.flow("b"))


def link_time(solution: EquilibriumSolution, link_id: str) -> float:
    i = solution.link_flows.link_ids.index(link_id)
    return float(solution.link_times[i])


def check_structure(solution, network, demand, tol=1e-6):
    """Conservation, incidence, and nonnegativity on a solved instance."""
    agg = solution.link_flows.aggregate()
    assert (agg >= -1e-9).all()
    rebuilt = {cls: np.zeros(len(network.links)) for cls in CLASSES}
    index = {lid: i for i, lid in enumerate(solution.link_flows.link_ids)}
    for (cls, origin, dest), entries in solution.paths.items():
        total = 0.0
        for link_ids, flow in entries:
            assert flow >= -1e-12
            total += flow
            for lid in link_ids:
                rebuilt[cls][index[lid]] += flow
        want = demand.by_class[cls][(origin, dest)]
        assert total == pytest.approx(want, abs=tol * max(1.0, want))
    for cls in CLASSES:
        np.testing.assert_allclose(
            rebuilt[cls], solution.link_flows.class_flows[cls],
            atol=tol * max(1.0, float(agg.max(initial=1.0))),
        )


class TestDualRouteGolden:
    @pytest.mark.parametrize("method", METHODS)
    def test_time_only_split(self, method):
        net, od = fixtures.dual_route()
        cfg = fixtures.time_only_config()
        sol = solve(net, split_demand(od, 0.0), cfg, method=method)
        assert sol.converged
        flow_a, flow_b = route_flows(sol)
        assert flow_a == pytest.approx(TIME_SPLIT, abs=0.05)
        assert flow_b == pytest.approx(100.0 - TIME_SPLIT, abs=0.05)
        assert link_time(sol, "a") == pytest.approx(15.12, abs=0.01)
        assert link_time(sol, "b") == pytest.approx(15.12, abs=0.01)

    @pytest.mark.parametrize("method", METHODS)
    def test_gv_cost_split(self, method):
        net, od = fixtures.dual_route()
        cfg = fixtures.dual_route_config()  # C_gv=0.6 $/mi, vot=0.3
        sol = solve(net, split_demand(od, 0.0), cfg, method=method)
        flow_a, flow_b = route_flows(sol)
        assert flow_a == pytest.approx(GV_SPLIT, abs=0.05)
        assert flow_b == pytest.approx(100.0 - GV_SPLIT, abs=0.05)
        assert link_time(sol, "a") == pytest.approx(17.04, abs=0.01)
        assert link_time(sol, "b") == pytest.approx(14.04, abs=0.01)

    @pytest.mark.parametrize("method", METHODS)
    def test_all_ev_split(self, method):
        net, od = fixtures.dual_route()
        cfg = fixtures.dual_route_config()  # C_ev=0.2 $/mi
        sol = solve(net, split_demand(od, 1.0), cfg, method=method)
        flow_a, _ = route_flows(sol)
        assert flow_a == pytest.approx(EV_SPLIT, abs=0.05)

    def test_gv_cost_sensitivity_slope(self):
        # each +0.1 $/mi moves 3.2 veh/h onto route a (0.15 mi$/ per
        # 0.046875 $/veh of slope) and +0.32 min of its travel time
        flows, times_a, times_b = [], [], []
        net, od = fixtures.dual_route()
        for step in range(11):
            cfg = fixtures.dual_route_config(gv_per_mile=0.1 * step)
            sol = solve(net, split_demand(od, 0.0), cfg, method="bfw")
            flows.append(route_flows(sol)[0])
            times_a.append(link_time(sol, "a"))
            times_b.append(link_time(sol, "b"))
        for i in range(10):
            assert flows[i + 1] - flows[i] == pytest.approx(3.2, abs=0.1)
            assert times_a[i + 1] - times_a[i] == pytest.approx(0.32, abs=0.01)
            assert times_b[i + 1] - times_b[i] == pytest.approx(-0.18, abs=0.01)

    def test_mixed_fleet_sorts_by_class(self, dual_solution_mixed):
        # R_e = 0.5 sits inside the corner regime: with x_a = 50 the GV
        # class strictly prefers the short route (cost edge 0.019 $) and
        # the EV class strictly prefers the fast one (edge 0.581 $), so
        # the classes separate completely
        sol = dual_solution_mixed
        assert sol.link_flows.flow("a", "gv") == pytest.approx(50.0, abs=0.05)
        assert sol.link_flows.flow("a", "ev") == pytest.approx(0.0, abs=0.05)
        assert sol.link_flows.flow("b", "ev") == pytest.approx(50.0, abs=0.05)
        assert link_time(sol, "a") - link_time(sol, "b") == pytest.approx(
            2.9375, abs=1e-2)


class TestBraessGolden:
    @pytest.mark.parametrize("method", METHODS)
    def test_all_three_paths_used(self, method):
        net, od = fixtures.braess()
        cfg = fixtures.time_only_config()
        options = SolverOptions(rel_gap_tol=1e-6, max_iters=8000)
        sol = solve(net, split_demand(od, 0.0), cfg, method=method,
                    options=options)
        assert sol.converged
        want = {
            "e1": 1440.0 / 31.0,
            "e2": 1440.0 / 31.0,
            "e3": 420.0 / 31.0,
            "e4": 420.0 / 31.0,
            "e5": 1020.0 / 31.0,
        }
        for lid, flow in want.items():
            assert sol.link_flows.flow(lid) == pytest.approx(flow, abs=0.05), lid


class TestStructuralInvariants:
    @pytest.mark.parametrize("method", METHODS)
    def test_conservation_and_incidence(self, method, grid3_case):
        net, od, cfg = grid3_case
        demand = split_demand(od, 0.5)
        sol = solve(net, demand, cfg, method=method)
        assert sol.converged
        check_structure(sol, net, demand)

    @pytest.mark.parametrize("method", METHODS)
    def test_used_paths_equilibrated(self, method, grid3_case):
        net, od, cfg = grid3_case
        demand = split_demand(od, 0.5)
        sol = solve(net, demand, cfg, method=method)
        per_pair, worst = wardrop_residual(net, demand, cfg, sol)
        assert worst <= 1e-4
        assert set(per_pair) == {
            (cls, o, d) for cls in CLASSES for (o, d), q in od.pairs() if q > 0
        }

    @pytest.mark.parametrize("method", METHODS)
    def test_trace_objective_follows_the_flows(self, method, grid3_case):
        net, od, cfg = grid3_case
        sol = solve(net, split_demand(od, 0.5), cfg, method=method)
        objectives = [record["objective"] for record in sol.gap_trace]
        # the last record sees the returned flows, before dead paths go
        assert objectives[-1] == pytest.approx(sol.objective, rel=1e-9)
        if method == "pd":
            # a step is taken only where the objective does not rise
            assert not any("note" in record for record in sol.gap_trace)
            for before, after in zip(objectives, objectives[1:]):
                assert after <= before + 1e-12 * max(1.0, abs(before))

    def test_reported_gap_matches_recomputation(self, grid3_solution, grid3_case):
        net, od, cfg = grid3_case
        demand = split_demand(od, 0.5)
        _, worst = wardrop_residual(net, demand, cfg, grid3_solution)
        assert worst <= 10.0 * max(grid3_solution.wardrop_gap, 1e-12)

    def test_residual_names_a_path_outside_the_demand(self, grid3_solution,
                                                      grid3_case):
        net, od, cfg = grid3_case
        (origin, dest), _ = next((p for p in od.pairs() if p[1] > 0.0))
        rest = ODMatrix([(o, d, q) for (o, d), q in od.pairs()
                         if (o, d) != (origin, dest)])
        with pytest.raises(UnknownPairError, match=f"{origin!r} to zone {dest!r}"):
            wardrop_residual(net, split_demand(rest, 0.5), cfg, grid3_solution)
        key, entries = next(iter(grid3_solution.paths.items()))
        truck = replace(grid3_solution, paths={
            **grid3_solution.paths, ("truck", *key[1:]): entries})
        with pytest.raises(UnknownPairError, match="'truck' paths"):
            wardrop_residual(net, split_demand(od, 0.5), cfg, truck)

    def test_residual_names_an_unknown_link(self, grid3_solution, grid3_case):
        net, od, cfg = grid3_case
        demand = split_demand(od, 0.5)
        key, [(links, flow), *rest] = next(iter(grid3_solution.paths.items()))
        bad_path = replace(grid3_solution, paths={
            **grid3_solution.paths,
            key: [(links[:-1] + ("no-such-link",), flow), *rest]})
        with pytest.raises(ValueError,
                           match="path names unknown link 'no-such-link'"):
            wardrop_residual(net, demand, cfg, bad_path)
        bad_dual = replace(grid3_solution, duals={"no-such-dual": 1.0})
        with pytest.raises(ValueError,
                           match="dual names unknown link 'no-such-dual'"):
            wardrop_residual(net, demand, cfg, bad_dual)

    def test_residual_needs_paths(self, grid3_solution, grid3_case):
        net, od, cfg = grid3_case
        with pytest.raises(UnsupportedOperationError,
                           match="no path decomposition"):
            wardrop_residual(net, split_demand(od, 0.5), cfg,
                             replace(grid3_solution, paths={}))

    def test_block_gaps_match_the_per_pair_loop(self):
        # pairs without demand do not count, a best cost <= 0 gives 0,
        # NaN gaps are skipped, and the worst gap is at least 0
        rng = np.random.default_rng(9)
        for _ in range(50):
            shape = (len(CLASSES), int(rng.integers(1, 8)))
            dem = np.where(rng.uniform(size=shape) < 0.3, 0.0,
                           rng.uniform(1.0, 5.0, shape))
            sp = rng.choice([0.0, -1.0, np.nan, 2.0, 3.0, 7.5], size=shape)
            weighted = dem * rng.choice([1.0, 1.5, 0.5, np.nan], size=shape) * 3.0
            prob = SimpleNamespace(dem=dem)
            state = SimpleNamespace(block_sums=lambda _: weighted)
            gaps = _block_gaps(prob, state, np.ones(1), np.ones(1), sp)
            want = 0.0
            for ci, oi in np.ndindex(shape):
                if dem[ci, oi] <= 0.0:
                    assert gaps[ci, oi] == 0.0
                    continue
                mu = sp[ci, oi]
                cbar = weighted[ci, oi] / dem[ci, oi]
                gap = (cbar - mu) / mu if mu > 0.0 else 0.0
                assert gaps[ci, oi] == gap or (np.isnan(gap) and np.isnan(gaps[ci, oi]))
                if gap > want:
                    want = gap
            assert _worst_gap(gaps) == want

    def test_objective_matches_beckmann_helper(self, grid3_solution, grid3_case):
        net, _, cfg = grid3_case
        value = beckmann_objective(
            net, grid3_solution.link_flows.class_flows, cfg)
        assert value == pytest.approx(grid3_solution.objective, rel=1e-9)

    def test_beckmann_rejects_misshapen_flows(self, grid3_case):
        net, _, cfg = grid3_case
        with pytest.raises(ValueError, match=r"'ev' flows have shape \(3,\)"):
            beckmann_objective(net, {"ev": np.ones(3)}, cfg)

    def test_equilibrium_beats_perturbed_flows(self, grid3_case):
        # optimality spot check: moving mass off the equilibrium paths
        # can only increase the combined objective
        net, od, cfg = grid3_case
        demand = split_demand(od, 0.5)
        sol = solve(net, demand, cfg, method="bfw",
                    options=SolverOptions(rel_gap_tol=1e-7, max_iters=20000))
        base = beckmann_objective(net, sol.link_flows.class_flows, cfg)
        state = np.random.default_rng(5)
        for (cls, origin, dest), entries in sol.paths.items():
            if len(entries) < 2:
                continue
            flows = {c: arr.copy() for c, arr in sol.link_flows.class_flows.items()}
            index = {lid: i for i, lid in enumerate(sol.link_flows.link_ids)}
            (p1, f1), (p2, _) = entries[0], entries[1]
            shift = 0.25 * f1
            for lid in p1:
                flows[cls][index[lid]] -= shift
            for lid in p2:
                flows[cls][index[lid]] += shift
            assert beckmann_objective(net, flows, cfg) >= base - 1e-9


class TestCapacityConstraints:
    def test_binding_cap_multiplier(self):
        # time-only: cap 25 on route a forces t_b - t_a = lambda at the
        # constrained optimum; algebra gives 15.46875 - 14.5 = 0.96875
        net, od = fixtures.dual_route()
        cfg = fixtures.time_only_config()
        options = SolverOptions(capacity_constraints={"a": 25.0},
                                max_iters=20000)
        demand = split_demand(od, 0.0)
        for method in ("pd", "eg"):
            sol = solve(net, demand, cfg, method=method, options=options)
            assert sol.converged, method
            flow_a, flow_b = route_flows(sol)
            assert flow_a == pytest.approx(25.0, abs=1e-3)
            assert flow_b == pytest.approx(75.0, abs=1e-3)
            assert sol.duals["a"] == pytest.approx(0.96875, abs=1e-3)
            # complementary slackness at solver tolerance
            assert abs(sol.complementarity["a"]) <= 1e-6 * 25.0
            # the residual prices the multiplier in, as the solver does;
            # without it route a looks a dual's worth too cheap
            _, worst = wardrop_residual(net, demand, cfg, sol)
            assert worst == pytest.approx(sol.wardrop_gap, rel=1e-6), method
            _, unpriced = wardrop_residual(net, demand, cfg,
                                           replace(sol, duals={}))
            assert unpriced > 1e-2, method

    def test_loose_cap_has_zero_multiplier(self):
        net, od = fixtures.dual_route()
        cfg = fixtures.time_only_config()
        options = SolverOptions(capacity_constraints={"a": 90.0})
        sol = solve(net, split_demand(od, 0.0), cfg, "pd", options)
        assert route_flows(sol)[0] == pytest.approx(TIME_SPLIT, abs=0.05)
        assert sol.duals["a"] == pytest.approx(0.0, abs=1e-6)

    def test_link_based_solvers_refuse_caps(self):
        net, od = fixtures.dual_route()
        cfg = fixtures.time_only_config()
        options = SolverOptions(capacity_constraints={"a": 25.0})
        for method in ("fw", "bfw"):
            with pytest.raises(UnsupportedOperationError, match="path-based"):
                solve(net, split_demand(od, 0.0), cfg, method, options)

    def test_link_based_solvers_refuse_caps_without_demand(self):
        net, _ = fixtures.dual_route()
        cfg = fixtures.time_only_config()
        options = SolverOptions(capacity_constraints={"a": 25.0})
        empty = split_demand(ODMatrix([("A", "B", 0.0)]), 0.0)
        for method in ("fw", "bfw"):
            with pytest.raises(UnsupportedOperationError, match="path-based"):
                solve(net, empty, cfg, method, options)
        assert solve(net, empty, cfg, "pd", options).iterations == 0

    def test_unknown_or_nonpositive_cap_rejected(self):
        net, od = fixtures.dual_route()
        cfg = fixtures.time_only_config()
        with pytest.raises(ValueError, match="unknown link"):
            solve(net, split_demand(od, 0.0), cfg, "pd",
                  SolverOptions(capacity_constraints={"zz": 10.0}))
        with pytest.raises(ValueError, match="must be positive"):
            solve(net, split_demand(od, 0.0), cfg, "pd",
                  SolverOptions(capacity_constraints={"a": 0.0}))

    @pytest.mark.parametrize("cap", [math.inf, math.nan, True],
                             ids=["inf", "nan", "bool"])
    def test_infinite_or_boolean_cap_rejected(self, cap):
        # an infinite cap once ran its merit into 0 * -inf and stopped
        # unconverged; ``True`` was taken as a cap of 1 veh/h
        net, od = fixtures.dual_route()
        with pytest.raises(ValueError, match="must be positive and finite"):
            solve(net, split_demand(od, 0.5), fixtures.dual_route_config(),
                  "pd", SolverOptions(capacity_constraints={"a": cap}))

    @pytest.mark.parametrize("method", ["pd", "eg"])
    def test_cap_on_an_unused_link_changes_nothing(self, method):
        # a cap no path can reach keeps its multiplier at 0, and adding a
        # zero multiplier to every cost and merit leaves each bit alone
        net, od = fixtures.dual_route()
        net.add_node(Node("far1", 500.0, 500.0))
        net.add_node(Node("far2", 501.0, 500.0))
        net.add_link(Link("iso", "far1", "far2", length_km=1.0,
                          capacity=50.0, speed_kmh=50.0))
        cfg = fixtures.dual_route_config()
        demand = split_demand(od, 0.3)
        free = solve(net, demand, cfg, method)
        capped = solve(net, demand, cfg, method,
                       SolverOptions(capacity_constraints={"iso": 10.0}))
        for cls in CLASSES:
            assert (capped.link_flows.class_flows[cls].tobytes()
                    == free.link_flows.class_flows[cls].tobytes())
        assert capped.paths == free.paths
        assert capped.gap_trace == free.gap_trace
        assert capped.iterations == free.iterations
        assert free.duals == {} and free.complementarity == {}
        assert capped.duals == {"iso": 0.0}
        assert capped.complementarity == {"iso": 0.0}

    def test_residual_rejects_a_negative_or_nan_dual(self, dual_case):
        net, od, cfg = dual_case
        demand = split_demand(od, 0.0)
        sol = solve(net, demand, cfg, "pd",
                    SolverOptions(capacity_constraints={"a": 40.0}, max_iters=100))
        for bad in (-0.5, math.nan):
            with pytest.raises(ValueError, match="dual on link 'a' is"):
                wardrop_residual(net, demand, cfg, replace(sol, duals={"a": bad}))

    @staticmethod
    def warm_from_duals(dual_case, values):
        """pd at penetration 0.1 warm from the 0.0 solve, its dual on ``a``
        replaced by each of ``values``; what each run returns."""
        net, od, cfg = dual_case
        options = SolverOptions(capacity_constraints={"a": 40.0})
        base = solve(net, split_demand(od, 0.0), cfg, "pd", options)
        assert base.duals["a"] > 0.0
        runs = []
        for value in values:
            sol = solve(net, split_demand(od, 0.1), cfg, "pd",
                        replace(options, max_iters=100),
                        warm_start=replace(base, duals={"a": value}))
            runs.append((sol.link_flows.aggregate().tobytes(), sol.paths,
                         sol.duals, sol.gap_trace, sol.iterations))
        return runs

    def test_warm_start_drops_a_negative_or_nan_dual(self, dual_case):
        zero, *bad = self.warm_from_duals(dual_case, (0.0, math.nan, -1e6))
        assert bad == [zero, zero]

    def test_warm_start_drops_a_dual_above_the_bound(self, dual_case):
        # read as it is, such a multiplier raises "diverged" on caps
        # that hold
        zero, *bad = self.warm_from_duals(dual_case, (0.0, math.inf, 1e300))
        assert bad == [zero, zero]

    def test_infeasible_caps_diagnosed(self):
        # both routes capped far below total demand: duals must diverge
        net, od = fixtures.dual_route()
        cfg = fixtures.time_only_config()
        options = SolverOptions(
            capacity_constraints={"a": 10.0, "b": 10.0},
            max_iters=200000, dual_step=50.0, dual_bound=1e4,
        )
        with pytest.raises(InfeasibleProblemError, match="multipliers diverged"):
            solve(net, split_demand(od, 0.0), cfg, "pd", options)


class TestInitializationAndDeterminism:
    @pytest.mark.parametrize("method", ["pd", "eg"])
    def test_repeat_runs_bitwise_identical(self, grid3_case, method):
        net, od, cfg = grid3_case
        demand = split_demand(od, 0.5)
        blobs = {solve(net, demand, cfg, method).link_flows.aggregate().tobytes()
                 for _ in range(3)}
        assert len(blobs) == 1


class TestWarmStart:
    def test_warm_start_converges_faster_and_agrees(self, dual_case):
        net, od, cfg = dual_case
        base = solve(net, split_demand(od, 0.5), cfg, "pd")
        cold = solve(net, split_demand(od, 0.55), cfg, "pd")
        warm = solve(net, split_demand(od, 0.55), cfg, "pd", warm_start=base)
        assert warm.converged
        np.testing.assert_allclose(
            warm.link_flows.aggregate(), cold.link_flows.aggregate(),
            atol=2e-3 * 100.0,
        )
        assert warm.iterations <= cold.iterations

    def test_repeated_trees_walk_pairs_not_walked_before(self, grid3_case):
        # _initial_flows first routes only the blocks a warm solution
        # lacks; when the next trees repeat, the other pairs still need
        # their paths walked
        net, od, cfg = grid3_case
        demand = split_demand(od, 0.5)

        def targets(masks):
            prob = _Problem(net, demand, cfg, SolverOptions())
            state = _PathState(prob)
            costs = prob.class_costs(prob.times(np.zeros(prob.n_links)))
            for mask in masks:
                target, sp = _all_or_nothing(prob, state, costs,
                                             np.where(mask, prob.dem, 0.0))
            assert state.warm.repeated == (len(masks) > 1)
            return sp.tobytes(), {
                (state.path_class[g], state.path_od[g], state.paths[g]): target[g]
                for g in np.flatnonzero(target)}

        every = np.ones((len(CLASSES), len(od.pairs())), dtype=bool)
        some = every.copy()
        some[:, ::2] = False
        assert targets([some, every]) == targets([every])

    def test_partial_warm_start_leaves_the_demand_alone(self, grid3_case,
                                                        monkeypatch):
        # blocks the warm solution lacks are routed with a demand of
        # their own; prob.dem is never swapped out, not even for a while
        net, od, cfg = grid3_case
        demand = split_demand(od, 0.5)
        base = solve(net, demand, cfg, "bfw")
        first = next(iter(base.paths))
        partial = replace(base, paths={first: base.paths[first]})
        prob = _Problem(net, demand, cfg, SolverOptions())
        dem, before = prob.dem, prob.dem.copy()
        seen = []
        all_or_nothing = equilibrium._all_or_nothing

        def watched(p, *args):
            seen.append(p.dem is dem)
            return all_or_nothing(p, *args)

        monkeypatch.setattr(equilibrium, "_all_or_nothing", watched)
        state = _PathState(prob)
        flows = equilibrium._initial_flows(prob, state, partial)
        assert seen == [True]
        assert prob.dem is dem and dem.tobytes() == before.tobytes()
        # the warm block from its rescaled paths, the rest all-or-nothing
        np.testing.assert_allclose(state.block_sums(flows), dem, rtol=1e-12)

    def test_warm_start_skips_blocks_it_cannot_use(self, grid3_case,
                                                   monkeypatch):
        # a pair or class the demand lacks, a block naming an unknown
        # link and a block without flow add no path; the last two are routed
        # all-or-nothing, and every other block keeps its warm paths
        net, od, cfg = grid3_case
        demand = split_demand(od, 0.5)
        base = solve(net, demand, cfg, "bfw")
        ghost, idle = ("gv", "A", "C"), ("ev", "A", "C")
        assert len(base.paths[ghost]) > 1 and len(base.paths[idle]) > 1
        paths = dict(base.paths)
        *valid, (links, flow) = paths[ghost]
        paths[ghost] = [*valid, (links + ("no-such-link",), flow)]
        paths[idle] = [(links, 0.0) for links, _ in paths[idle]]
        paths[("gv", "A", "nowhere")] = [(links, 5.0)]
        paths[("truck", "A", "C")] = [(links, 5.0)]
        prob = _Problem(net, demand, cfg, SolverOptions())
        routed = []
        all_or_nothing = equilibrium._all_or_nothing

        def watched(p, *args):
            routed.append(args[2].copy())
            return all_or_nothing(p, *args)

        monkeypatch.setattr(equilibrium, "_all_or_nothing", watched)
        state = _PathState(prob)
        flows = equilibrium._initial_flows(prob, state,
                                           replace(base, paths=paths))

        def block(key):
            ci, oi = CLASSES.index(key[0]), prob.od_index[key[1:]]
            return ci, oi, {state.paths[g]: flows[g]
                            for g in range(state.n_paths)
                            if (state.path_class[g], state.path_od[g]) == (ci, oi)}

        skipped = np.zeros(prob.dem.shape, dtype=bool)
        for key in (ghost, idle):
            ci, oi, got = block(key)
            skipped[ci, oi] = True
            assert list(got.values()) == [prob.dem[ci, oi]]
        (dem,) = routed
        assert dem.tobytes() == np.where(skipped, prob.dem, 0.0).tobytes()
        for key, entries in base.paths.items():
            if key in (ghost, idle):
                continue
            _, _, got = block(key)
            want = {tuple(prob.link_index[lid] for lid in links): f
                    for links, f in entries}
            assert got == pytest.approx(want, rel=1e-12)

    def test_warm_start_across_methods(self, dual_case):
        net, od, cfg = dual_case
        base = solve(net, split_demand(od, 0.5), cfg, "bfw")
        warm = solve(net, split_demand(od, 0.5), cfg, "eg", warm_start=base)
        assert warm.converged


class TestEdgeCases:
    def test_link_flow_of_unknown_link(self, dual_solution_mixed):
        flows = dual_solution_mixed.link_flows
        assert flows.flow("a") == flows.aggregate()[flows.link_ids.index("a")]
        with pytest.raises(ValueError, match="unknown link 'nope'"):
            flows.flow("nope")
        with pytest.raises(ValueError, match="unknown class 'truck'"):
            flows.flow("a", "truck")

    def test_zero_demand_is_trivial(self, dual_case):
        net, od, cfg = dual_case
        empty = ODMatrix([("A", "B", 0.0)])
        sol = solve(net, split_demand(empty, 0.3), cfg, "pd")
        assert sol.converged and sol.iterations == 0
        assert sol.link_flows.aggregate().sum() == 0.0
        assert sol.paths == {}

    def test_intrazonal_demand_skipped(self, dual_case):
        net, _, cfg = dual_case
        od = ODMatrix([("A", "A", 40.0), ("A", "B", 10.0)])
        sol = solve(net, split_demand(od, 0.0), cfg, "bfw")
        assert sol.skipped_intrazonal == 40.0
        assert sol.link_flows.aggregate().max() <= 10.0 + 1e-9

    def test_unreachable_pair_is_infeasible(self):
        net = Network()
        net.add_node(Node("n1", 0.0, 0.0))
        net.add_node(Node("n2", 10.0, 0.0))
        net.add_link(Link("only", "n1", "n2", 10.0, 100.0, 60.0))
        net.add_zone(Zone("A", 0.0, 0.0))
        net.add_zone(Zone("B", 10.0, 0.0))
        generate_connectors(net)
        od = ODMatrix([("B", "A", 5.0)])  # against the one-way link
        cfg = fixtures.time_only_config()
        with pytest.raises(InfeasibleProblemError, match="no route from zone 'B'"):
            solve(net, split_demand(od, 0.0), cfg, "pd")

    def test_unknown_zone_is_infeasible(self, dual_case):
        net, _, cfg = dual_case
        od = ODMatrix([("A", "Z", 5.0)])
        with pytest.raises(InfeasibleProblemError, match="unknown zone"):
            solve(net, split_demand(od, 0.0), cfg, "bfw")

    @pytest.mark.parametrize("centroid", [None, "nowhere"])
    def test_zone_without_a_centroid_node_is_infeasible(self, centroid):
        # a zone's centroid can be reassigned after add_zone checked it
        net, od = fixtures.dual_route()
        net.zones["A"].centroid_node = centroid
        with pytest.raises(InfeasibleProblemError,
                           match="zone 'A' has no centroid node"):
            solve(net, split_demand(od, 0.0), fixtures.dual_route_config(),
                  "bfw")

    def test_unknown_method_rejected(self, dual_case):
        net, od, cfg = dual_case
        with pytest.raises(ValueError, match="method must be one of"):
            solve(net, split_demand(od, 0.0), cfg, "simplex")

    def test_method_aliases_and_wrappers(self, dual_case):
        net, od, cfg = dual_case
        demand = split_demand(od, 0.0)
        assert solve(net, demand, cfg, "primal_dual").method == "pd"
        assert solve(net, demand, cfg, "extra_gradient").method == "eg"
        assert solve_fw(net, demand, cfg).method == "bfw"
        assert solve_fw(net, demand, cfg, conjugate=False).method == "fw"
        assert solve_primal_dual(net, demand, cfg).method == "pd"
        assert solve_extra_gradient(net, demand, cfg).method == "eg"

    def test_iteration_cap_reports_unconverged(self, dual_case):
        net, od, cfg = dual_case
        options = SolverOptions(rel_gap_tol=1e-12, max_iters=2)
        sol = solve(net, split_demand(od, 0.5), cfg, "fw", options)
        assert not sol.converged
        assert sol.iterations == 2

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(rel_gap_tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iters=0)
        with pytest.raises(ValueError):
            SolverOptions(init="lucky")
        nan = float("nan")
        # a float cap is never met by the integer iteration count
        for bad in (2.5, 3.0, nan, "5", None):
            with pytest.raises(ValueError, match="max_iters"):
                SolverOptions(max_iters=bad)
        assert SolverOptions(max_iters=np.int64(7)).max_iters == 7
        for field in ("rel_gap_tol", "dual_step"):
            for bad in (nan, float("inf")):
                with pytest.raises(ValueError, match=field):
                    SolverOptions(**{field: bad})
        for bad in (0.0, -1.0, nan):
            with pytest.raises(ValueError, match="dual_bound"):
                SolverOptions(dual_bound=bad)


class TestGapDecay:
    def test_path_based_merit_decays_sublinearly(self):
        # min_k G^k over a prefix should fall at least geometrically in
        # window quadruplings; 0.5 per 4x is far weaker than observed
        net, od = fixtures.grid10x10()
        cfg = fixtures.grid10x10_config()
        options = SolverOptions(rel_gap_tol=1e-14, max_iters=400)
        sol = solve(net, split_demand(od, 0.5), cfg, "pd", options)
        g = [rec["g_sq"] for rec in sol.gap_trace if rec.get("g_sq") is not None]
        assert len(g) >= 399  # the first record predates any step
        first = min(g[:100])
        later = min(g)
        assert later <= 0.5 * first


def bisection_reference(prob, x_class, d_class):
    """The fw/bfw line search as plain bisection: every midpoint evaluated."""
    d_agg = d_class.sum(axis=0)
    linear = float(np.sum(prob.class_per_km @ (d_class * prob.length[None, :])))
    x_agg = x_class.sum(axis=0)

    def slope(theta):
        t = prob.times(x_agg + theta * d_agg)
        return prob.gamma * float(np.dot(t, d_agg)) + linear

    if slope(0.0) >= 0.0:
        return 0.0
    if slope(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > equilibrium._LINE_SEARCH_TOL:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@functools.cache
def line_search_problem(name):
    build, config = fixtures.FIXTURES[name]
    net, od = build()
    return _Problem(net, split_demand(od, 0.5), config(), SolverOptions())


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestLineSearch:
    """The bracketed line search returns plain bisection's step, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(["braess", "dual_route", "grid3x3"]),
           seed=st.integers(0, 2**32 - 1),
           load=st.floats(0.0, 3.0), target_load=st.floats(0.0, 3.0),
           used=st.floats(0.0, 1.0))
    def test_matches_plain_bisection(self, name, seed, load, target_load,
                                     used):
        # flows up to a few times capacity; the target, like an
        # all-or-nothing one, leaves a share of the links empty
        prob = line_search_problem(name)
        rng = np.random.default_rng(seed)
        shape = (len(CLASSES), prob.n_links)
        x = rng.uniform(0.0, load, shape) * prob.cap / len(CLASSES)
        y = rng.uniform(0.0, target_load, shape) * prob.cap / len(CLASSES)
        y[rng.uniform(size=shape) >= used] = 0.0
        d = y - x
        assert same_float(equilibrium._line_search(prob, x, d),
                          bisection_reference(prob, x, d))

    def test_exits_and_zero_direction(self):
        prob = line_search_problem("grid3x3")
        x = np.tile(prob.cap, (len(CLASSES), 1))
        # uphill at 0, still downhill at 1, and no move at all
        for d, want in ((x, 0.0), (-0.5 * x, 1.0), (np.zeros_like(x), 0.0)):
            got = equilibrium._line_search(prob, x, d)
            assert got == want and same_float(got, bisection_reference(prob, x, d))

    def test_few_slope_evaluations_per_search(self, grid10_case, monkeypatch):
        # every search of a bfw solve, against the reference in place
        net, od, cfg = grid10_case
        times, search = _Problem.times, equilibrium._line_search
        evaluations, counts = [0], []

        def counted_times(prob, x_agg):
            evaluations[0] += 1
            return times(prob, x_agg)

        def checked(prob, x_class, d_class):
            before = evaluations[0]
            theta = search(prob, x_class, d_class)
            counts.append(evaluations[0] - before)
            assert same_float(theta, bisection_reference(prob, x_class, d_class))
            return theta

        monkeypatch.setattr(_Problem, "times", counted_times)
        monkeypatch.setattr(equilibrium, "_line_search", checked)
        sol = solve(net, split_demand(od, 0.5), cfg, "bfw")
        assert sol.converged and len(counts) >= sol.iterations - 1
        assert max(counts) <= 12


def assert_same_solution(a: EquilibriumSolution, b: EquilibriumSolution):
    """Every field of two solutions, floats bit for bit."""
    assert a.paths == b.paths and a.pi == b.pi and a.duals == b.duals
    assert a.iterations == b.iterations and a.gap_trace == b.gap_trace
    assert a.converged == b.converged and a.method == b.method
    for x, y in ((a.wardrop_gap, b.wardrop_gap), (a.objective, b.objective)):
        assert np.float64(x).tobytes() == np.float64(y).tobytes()
    for cls, flows in a.link_flows.class_flows.items():
        assert flows.tobytes() == b.link_flows.class_flows[cls].tobytes()
    assert a.link_times.tobytes() == b.link_times.tobytes()


class TestHandoff:
    """A sweep session lends each solve's state to the next solve."""

    @pytest.mark.parametrize("method", ["bfw", "pd"])
    def test_the_next_solve_takes_the_state_over(self, grid3_case, method):
        net, od, cfg = grid3_case
        session = _Session()
        base = solve(net, split_demand(od, 0.4), cfg, method, _session=session)
        warm = session.warm
        got = solve(net, split_demand(od, 0.5), cfg, method, warm_start=base,
                    _session=session)
        assert warm is not None and session.warm is warm
        # the same warm start without the session: its paths alone
        want = solve(net, split_demand(od, 0.5), cfg, method, warm_start=base)
        assert_same_solution(got, want)

    def test_the_session_holds_the_graph_and_the_warm_start(self, grid3_case):
        net, od, cfg = grid3_case
        session = _Session()
        base = solve(net, split_demand(od, 0.4), cfg, "bfw", _session=session)
        graph, warm = session.graph, session.warm
        solve(net, split_demand(od, 0.5), cfg, "bfw", warm_start=base,
              _session=session)
        # the second level took both over and left nothing else behind
        assert vars(session) == {"graph": graph, "warm": warm}
        assert graph is not None and warm is not None

    def test_the_state_goes_with_the_session(self, grid3_case):
        net, od, cfg = grid3_case
        session = _Session()
        base = solve(net, split_demand(od, 0.4), cfg, "bfw", _session=session)
        got = solve(net, split_demand(od, 0.5), cfg, "bfw", warm_start=base,
                    _session=session)
        warm = weakref.ref(session.warm)
        del session
        gc.collect()
        # both solutions are still held here, but neither holds the state
        assert base.converged and got.converged and warm() is None

    @pytest.mark.parametrize("method", ["bfw", "pd"])
    def test_a_solution_holds_no_warm_start(self, grid3_case, method,
                                            warm_starts):
        net, od, cfg = grid3_case
        base = solve(net, split_demand(od, 0.4), cfg, method)
        got = solve(net, split_demand(od, 0.5), cfg, method, warm_start=base)
        gc.collect()
        assert base.converged and got.converged
        assert all(ref() is None for ref in warm_starts)
        # the warm solve made its own: it took over nothing from base
        assert len(warm_starts) == 2


def loaded_costs(prob: _Problem, seed: int, count: int) -> list:
    """Class link costs at ``count`` random loads up to twice capacity."""
    rng = np.random.default_rng(seed)
    return [prob.class_costs(prob.times(rng.uniform(0.0, 2.0, prob.n_links)
                                        * prob.cap)) for _ in range(count)]


def full_walks(prob: _Problem, calls: list):
    """All-or-nothing by walking every block, as a reference.

    Per call (target, sp, {(tree row, destination): path} of the blocks
    with demand), each block's path interned in block order, and the
    universe as (class, OD, path) in arrival order.
    """
    universe: dict = {}
    out = []
    n_origins = len(prob.origin_nodes)
    for cost, dem in calls:
        dem = prob.dem if dem is None else dem
        live = dem > 0.0
        classes = np.flatnonzero(live.any(axis=1))
        dists, preds = _kernels.batch_dijkstra(
            prob.indptr, prob.heads, prob.slots, cost,
            np.tile(prob.origin_nodes, classes.size),
            cost_rows=np.repeat(classes, n_origins))
        ci, oi = np.nonzero(live)
        rows = np.searchsorted(classes, ci) * n_origins + prob.od_row[oi]
        dests = prob.od_dest[oi]
        sp = np.full(dem.shape, np.inf)
        sp[ci, oi] = dists[rows, dests]
        paths = _kernels.walk_paths(preds, prob.slots, prob.arc_tail, rows, dests)
        idx = [universe.setdefault((c, o, path), len(universe))
               for c, o, path in zip(ci.tolist(), oi.tolist(), paths)]
        target = np.zeros(len(universe))
        target[idx] = dem[ci, oi]
        out.append((target.tobytes(), sp.tobytes(),
                    dict(zip(zip(rows.tolist(), dests.tolist()), paths))))
    return out, list(universe)


class TestPathCertificate:
    """A block takes its tree path from the universe; only new ones are walked."""

    def run(self, prob, calls, monkeypatch):
        """Per call (target, sp, walked blocks), then the universe."""
        state = _PathState(prob)
        walked = []
        walk_paths = _kernels.walk_paths

        def recorded(preds, links, arc_tail, rows, dests):
            walked.append(set(zip(rows.tolist(), dests.tolist())))
            return walk_paths(preds, links, arc_tail, rows, dests)

        monkeypatch.setattr(_kernels, "walk_paths", recorded)
        out = []
        for cost, dem in calls:
            walked.append(set())
            target, sp = _all_or_nothing(prob, state, cost, dem)
            out.append((target.tobytes(), sp.tobytes(), set().union(*walked)))
            walked.clear()
        monkeypatch.undo()
        return out, list(zip(state.path_class, state.path_od, state.paths))

    def calls(self, prob):
        costs = loaded_costs(prob, 5, 6)
        half = np.where(np.arange(prob.n_od) % 2 == 0, prob.dem, 0.0)
        # repeated costs, and a call over some of the blocks only
        return [(costs[0], None), (costs[0], None), (costs[1], half),
                *((c, None) for c in costs[1:])]

    def test_matches_a_full_walk(self, grid10_case, monkeypatch):
        net, od, cfg = grid10_case
        prob = _Problem(net, split_demand(od, 0.5), cfg, SolverOptions())
        calls = self.calls(prob)
        got, universe = self.run(prob, calls, monkeypatch)
        want, full_universe = full_walks(prob, calls)
        assert [call[:2] for call in got] == [call[:2] for call in want]
        assert universe == full_universe

    def test_walks_only_the_blocks_whose_tree_path_is_new(self, grid10_case,
                                                          monkeypatch):
        net, od, cfg = grid10_case
        prob = _Problem(net, split_demand(od, 0.5), cfg, SolverOptions())
        calls = self.calls(prob)
        got, _ = self.run(prob, calls, monkeypatch)
        want, _ = full_walks(prob, calls)
        held, before = {}, {}
        walked_some = found_some = False
        for (_, _, walked), (_, _, now) in zip(got, want):
            assert walked == {b for b, path in now.items()
                              if path not in held.get(b, ())}
            changed = {b for b, path in now.items() if before.get(b) != path}
            walked_some |= bool(walked) and len(walked) < len(now)
            # a block whose path changed to one the universe held
            found_some |= bool(changed - walked)
            for b, path in now.items():
                held.setdefault(b, set()).add(path)
            before.update(now)
        assert walked_some and found_some

    def test_a_tied_path_the_trees_left_is_walked_again(self, monkeypatch):
        net = Network()
        for nid, x, y in (("o", 0.0, 0.0), ("a", 1.0, 1.0),
                          ("b", 1.0, -1.0), ("d", 2.0, 0.0)):
            net.add_node(Node(nid, x, y))
        for lid, tail, head in (("oa", "o", "a"), ("ad", "a", "d"),
                                ("ob", "o", "b"), ("bd", "b", "d")):
            net.add_link(Link(lid, tail, head, 1.0, 1000.0, 60.0))
        net.add_zone(Zone("O", 0.0, 0.0))
        net.add_zone(Zone("D", 2.0, 0.0))
        generate_connectors(net)
        od = ODMatrix()
        od.add("O", "D", 10.0)
        prob = _Problem(net, split_demand(od, 0.0), fixtures.time_only_config(),
                        SolverOptions())

        def costs(**named):
            cost = np.ones(prob.n_links)
            for lid, value in named.items():
                cost[prob.link_index[lid]] = value
            return np.tile(cost, (len(CLASSES), 1))

        state = _PathState(prob)
        _all_or_nothing(prob, state, costs(oa=1.0, ad=1.0, ob=2.0, bd=2.0))
        walked = []
        walk_paths = _kernels.walk_paths

        def recorded(preds, links, arc_tail, rows, dests):
            walked.append(rows.size)
            return walk_paths(preds, links, arc_tail, rows, dests)

        monkeypatch.setattr(_kernels, "walk_paths", recorded)
        # both routes now cost 5; the trees reach d from b, the nearer tail
        target, sp = _all_or_nothing(prob, state,
                                     costs(oa=2.0, ad=1.0, ob=1.0, bd=2.0))
        assert walked == [1] and sp[0, 0] == 5.0
        (g,) = np.flatnonzero(target)
        assert [prob.link_ids[li] for li in state.paths[g]][1:3] == ["ob", "bd"]
        assert state.n_paths == 2

    def two_routes(self):
        """The problem of one OD pair over two routes, o-a-d and o-b-d."""
        net = Network()
        for nid, x, y in (("o", 0.0, 0.0), ("a", 1.0, 1.0),
                          ("b", 1.0, -1.0), ("d", 2.0, 0.0)):
            net.add_node(Node(nid, x, y))
        for lid, tail, head in (("oa", "o", "a"), ("ad", "a", "d"),
                                ("ob", "o", "b"), ("bd", "b", "d")):
            net.add_link(Link(lid, tail, head, 1.0, 1000.0, 60.0))
        net.add_zone(Zone("O", 0.0, 0.0))
        net.add_zone(Zone("D", 2.0, 0.0))
        generate_connectors(net)
        od = ODMatrix()
        od.add("O", "D", 10.0)
        prob = _Problem(net, split_demand(od, 0.0), fixtures.time_only_config(),
                        SolverOptions())

        def costs(**named):
            cost = np.ones(prob.n_links)
            for lid, value in named.items():
                cost[prob.link_index[lid]] = value
            return np.tile(cost, (len(CLASSES), 1))

        return prob, costs

    def test_a_route_the_universe_holds_is_found_without_a_walk(
            self, monkeypatch):
        prob, costs = self.two_routes()
        state = _PathState(prob)
        route_a = costs(ob=3.0, bd=3.0)
        (a,) = np.flatnonzero(_all_or_nothing(prob, state, route_a)[0])
        _all_or_nothing(prob, state, costs(oa=3.0, ad=3.0))  # route B
        walked = []
        walk_paths = _kernels.walk_paths

        def recorded(*args):
            walked.append(args)
            return walk_paths(*args)

        monkeypatch.setattr(_kernels, "walk_paths", recorded)
        target, _ = _all_or_nothing(prob, state, route_a)
        assert walked == []
        assert np.flatnonzero(target).tolist() == [a]
        assert state.n_paths == 2

    def test_a_held_part_of_the_tree_path_is_not_the_path(self):
        prob, costs = self.two_routes()
        state = _PathState(prob)
        route_a, route_b = costs(ob=3.0, bd=3.0), costs(oa=3.0, ad=3.0)
        (a,) = np.flatnonzero(_all_or_nothing(prob, state, route_a)[0])
        path = state.paths[a]
        # route A's links but the first, its road links alone and no link:
        # tree arcs of route A that do not make its tree path
        inner = tuple(li for li in path if prob.link_ids[li] in ("oa", "ad"))
        for part in (path[1:], inner, ()):
            state.ensure(0, 0, part)
        _all_or_nothing(prob, state, route_b)
        target, _ = _all_or_nothing(prob, state, route_a)
        assert np.flatnonzero(target).tolist() == [a]


class TestProjectionLayout:
    def test_project_matches_project_blocks_as_the_universe_grows(
            self, grid10_case):
        net, od, cfg = grid10_case
        prob = _Problem(net, split_demand(od, 0.5), cfg, SolverOptions())
        state = _PathState(prob)
        rng = np.random.default_rng(11)

        def check():
            vec = rng.normal(0.0, 100.0, state.n_paths)
            idx, offsets, totals, _ = state.blocks()
            want = np.zeros_like(vec)
            want[idx] = _kernels.project_blocks(vec[idx], offsets, totals)
            assert state.project(vec).tobytes() == want.tobytes()

        sizes = []
        for cost in loaded_costs(prob, 7, 4):
            _all_or_nothing(prob, state, cost)
            sizes.append(state.n_paths)
            check()
            check()  # the kept layout
        assert sizes[0] < sizes[-1]


class TestAssemble:
    def test_matches_the_per_block_loop(self, grid10_case):
        # blocks of one to many paths, some below the drop tolerance
        net, od, cfg = grid10_case
        prob = _Problem(net, split_demand(od, 0.5), cfg, SolverOptions())
        state = _PathState(prob)
        for cost in loaded_costs(prob, 3, 30):
            _all_or_nothing(prob, state, cost)
        rng = np.random.default_rng(4)
        flows = rng.uniform(0.0, 50.0, state.n_paths)
        flows[rng.uniform(size=state.n_paths) < 0.2] *= 1e-12
        for _, _, block in state.members():  # a block keeps a path
            flows[block[-1]] = 25.0
        sol = _assemble(prob, state, flows, np.zeros(0), [], True, 1, "pd",
                        0.0, np.ones(prob.dem.shape))
        want_paths, want_flows = {}, flows.copy()
        for ci, oi, block in state.members():
            d = prob.dem[ci, oi]
            f = flows[block]
            keep = f >= _PATH_DROP_TOL * d
            scaled = np.zeros_like(f)
            scaled[keep] = f[keep] * (d / float(f[keep].sum()))
            want_flows[block] = scaled
            origin, dest, _, _ = prob.od[oi]
            want_paths[(CLASSES[ci], origin, dest)] = [
                (tuple(prob.link_ids[li] for li in state.paths[g]), f_g)
                for g, f_g in zip(block.tolist(), scaled.tolist()) if f_g > 0.0]
        # numpy sums eight or more terms pairwise, not left to right
        kept = [len(entries) for entries in sol.paths.values()]
        assert max(kept) >= 8 and min(kept) == 1
        assert sol.paths == want_paths
        assert list(sol.paths) == list(want_paths)
        x_class = state.link_flows(want_flows)
        for ci, cls in enumerate(CLASSES):
            assert sol.link_flows.class_flows[cls].tobytes() == x_class[ci].tobytes()
