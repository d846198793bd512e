"""Equilibrium solvers against closed-form and structural oracles.

The dual-route and braess fixtures have hand-derivable equilibria (two
or three paths, affine delay), so flows and times are asserted against
exact algebra.  Structural invariants (demand conservation, incidence
consistency, equilibration of used paths) are checked on every solver.
"""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mueflow import equilibrium, fixtures
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
    _all_or_nothing,
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
        for method in ("pd", "eg"):
            sol = solve(net, split_demand(od, 0.0), cfg, method=method,
                        options=options)
            assert sol.converged, method
            flow_a, flow_b = route_flows(sol)
            assert flow_a == pytest.approx(25.0, abs=1e-3)
            assert flow_b == pytest.approx(75.0, abs=1e-3)
            assert sol.duals["a"] == pytest.approx(0.96875, abs=1e-3)
            # complementary slackness at solver tolerance
            assert abs(sol.complementarity["a"]) <= 1e-6 * 25.0

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
    def test_cold_starts_agree(self):
        # beta = 1.5 keeps the equilibrium strictly convex in link flows
        net, od = fixtures.grid10x10()
        cfg = fixtures.grid10x10_config()
        demand = split_demand(od, 0.5)
        tol = 1e-4
        for method in ("bfw", "pd"):
            options_aon = SolverOptions(rel_gap_tol=tol, init="aon")
            options_uni = SolverOptions(rel_gap_tol=tol, init="uniform")
            a = solve(net, demand, cfg, method, options_aon)
            b = solve(net, demand, cfg, method, options_uni)
            agg_a = a.link_flows.aggregate()
            agg_b = b.link_flows.aggregate()
            rel = np.abs(agg_a - agg_b).sum() / agg_a.sum()
            assert rel <= 10.0 * tol, method

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
            assert prob.warm[0].repeated == (len(masks) > 1)
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

    def test_warm_start_across_methods(self, dual_case):
        net, od, cfg = dual_case
        base = solve(net, split_demand(od, 0.5), cfg, "bfw")
        warm = solve(net, split_demand(od, 0.5), cfg, "eg", warm_start=base)
        assert warm.converged


class TestEdgeCases:
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
            SolverOptions(primal_step=-1.0)
        with pytest.raises(ValueError):
            SolverOptions(init="lucky")
        nan = float("nan")
        for field in ("rel_gap_tol", "eps_gap", "dual_step", "primal_step",
                      "tau"):
            with pytest.raises(ValueError, match=field):
                SolverOptions(**{field: nan})


class TestGapDecay:
    def test_path_based_merit_decays_sublinearly(self):
        # min_k G^k over a prefix should fall at least geometrically in
        # window quadruplings; 0.5 per 4x is far weaker than observed
        net, od = fixtures.grid10x10()
        cfg = fixtures.grid10x10_config()
        options = SolverOptions(
            rel_gap_tol=1e-14, eps_gap=1e-30, max_iters=400)
        sol = solve(net, split_demand(od, 0.5), cfg, "pd", options)
        g = [rec["g_sq"] for rec in sol.gap_trace if rec.get("g_sq") is not None]
        assert len(g) >= 399  # the first record predates any step
        first = min(g[:100])
        later = min(g)
        assert later <= 0.5 * first
