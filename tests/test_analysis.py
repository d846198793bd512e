"""Penetration sweeps, structural detectors, and the city classifier.

Detector tests run on constructed piecewise-linear series where every
interval is derivable by hand; sweep tests run the dual-route fixture
whose threshold structure is known in closed form.
"""

from __future__ import annotations

import gc
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mueflow import fixtures
from mueflow.analysis import (
    AnalysisError,
    PLATEAU_EPSILON,
    SweepError,
    SweepResult,
    classify_city,
    critical_thresholds,
    detect_plateaus,
    detect_transitions,
    path_overlap_ratio,
    run_sweep,
    sweep_from_records,
)
from mueflow.demand import split_demand
from mueflow.equilibrium import (
    InfeasibleProblemError,
    SolverError,
    SolverOptions,
    UnsupportedOperationError,
    solve,
)


def series(levels, slopes, t0=30.0):
    """Piecewise-linear T over `levels` with one slope per interval."""
    values = [t0]
    for (a, b), slope in zip(zip(levels, levels[1:]), slopes):
        values.append(values[-1] + slope * (b - a))
    return SweepResult.from_series(levels, values)


def grid_levels(n=21):
    return [round(i / (n - 1), 10) for i in range(n)]


class TestDetectors:
    def test_epsilon_default_matches_published_threshold(self):
        # 0.7 min per unit penetration is 0.07 min per 10% step
        assert PLATEAU_EPSILON == 0.7

    def test_low_slope_tail_is_a_plateau(self):
        levels = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        sweep = series(levels, [-3.0, -3.0, -3.0, -0.3, -0.3])
        assert detect_plateaus(sweep) == [(0.6, 1.0)]
        assert detect_transitions(sweep) == [(0.0, 0.6)]

    def test_constant_series_is_one_full_plateau(self):
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        sweep = SweepResult.from_series(levels, [20.0] * 5)
        assert detect_plateaus(sweep) == [(0.0, 1.0)]
        assert detect_transitions(sweep) == []

    def test_two_slope_split(self):
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        sweep = series(levels, [-3.0, -3.0, -0.3, -0.3])
        assert detect_plateaus(sweep) == [(0.5, 1.0)]
        assert detect_transitions(sweep) == [(0.0, 0.5)]

    def test_gap_zone_is_neither(self):
        levels = [0.0, 0.5, 1.0]
        sweep = series(levels, [-1.5, -1.5])
        assert detect_plateaus(sweep) == []
        assert detect_transitions(sweep) == []

    def test_transition_needs_strictly_more_than_three_epsilon(self):
        # epsilon = 0.5 makes the 3x boundary exactly representable
        levels = [0.0, 0.5, 1.0]
        at_boundary = series(levels, [-1.5, -1.5])
        assert detect_transitions(at_boundary, epsilon=0.5) == []
        above = series(levels, [-1.500001, -1.500001])
        assert detect_transitions(above, epsilon=0.5) == [(0.0, 1.0)]

    def test_interior_island(self):
        levels = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        sweep = series(levels, [-0.2, -3.0, -3.0, -0.2, -3.0])
        assert detect_plateaus(sweep) == [(0.0, 0.2), (0.6, 0.8)]
        assert detect_transitions(sweep) == [(0.2, 0.6), (0.8, 1.0)]

    def test_custom_epsilon(self):
        levels = [0.0, 0.5, 1.0]
        sweep = series(levels, [-1.5, -1.5])
        assert detect_plateaus(sweep, epsilon=2.0) == [(0.0, 1.0)]
        assert detect_transitions(sweep, epsilon=0.4) == [(0.0, 1.0)]
        with pytest.raises(AnalysisError, match="positive"):
            detect_plateaus(sweep, epsilon=0.0)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_detectors_shift_invariant(self, shift):
        levels = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        times = [30.0, 28.0, 26.5, 26.4, 26.35, 26.3]
        base = SweepResult.from_series(levels, times)
        moved = SweepResult.from_series(levels, [t + shift for t in times])
        assert detect_plateaus(base) == detect_plateaus(moved)
        assert detect_transitions(base) == detect_transitions(moved)

    def test_plateaus_and_transitions_never_overlap(self):
        rng = np.random.default_rng(12)
        levels = grid_levels(11)
        for _ in range(25):
            times = np.cumsum(rng.normal(0.0, 1.0, size=11)) + 30.0
            sweep = SweepResult.from_series(levels, times)
            for plo, phi in sweep.plateau_intervals:
                for tlo, thi in sweep.transition_intervals:
                    assert phi <= tlo or thi <= plo


class TestFromSeries:
    def test_validation(self):
        with pytest.raises(AnalysisError, match="at least two"):
            SweepResult.from_series([0.0], [10.0])
        with pytest.raises(AnalysisError, match="strictly increasing"):
            SweepResult.from_series([0.0, 0.0], [10.0, 10.0])
        with pytest.raises(AnalysisError, match="within"):
            SweepResult.from_series([0.0, 1.2], [10.0, 10.0])
        with pytest.raises(AnalysisError, match="one travel time per level"):
            SweepResult.from_series([0.0, 1.0], [10.0])

    @pytest.mark.parametrize("levels", [
        [math.nan, 1.0], [0.0, math.nan], [-math.inf, 1.0], [0.0, math.inf],
    ])
    def test_non_finite_levels_rejected(self, levels):
        with pytest.raises(AnalysisError, match="finite"):
            SweepResult.from_series(levels, [10.0, 9.0])

    def test_gradient_and_savings(self):
        sweep = SweepResult.from_series([0.0, 0.5, 1.0], [20.0, 15.0, 10.0])
        assert sweep.gradient == [pytest.approx(-10.0), pytest.approx(-10.0)]
        assert sweep.potential_savings == [0.0, 50.0, 100.0]
        assert sweep.ps_diffs == [50.0, 50.0]

    def test_flat_series_has_no_savings_axis(self):
        sweep = SweepResult.from_series([0.0, 1.0], [10.0, 10.0])
        assert sweep.potential_savings == [None, None]
        assert sweep.ps_diffs == [None]

    def test_thresholds_unavailable_without_solutions(self):
        sweep = SweepResult.from_series([0.0, 1.0], [10.0, 9.0])
        with pytest.raises(UnsupportedOperationError, match="path"):
            critical_thresholds(sweep)


class TestPathOverlap:
    def stub(self, gv_paths, ev_paths):
        paths = {}
        if gv_paths:
            paths[("gv", "A", "B")] = [(p, 1.0) for p in gv_paths]
        if ev_paths:
            paths[("ev", "A", "B")] = [(p, 1.0) for p in ev_paths]
        return SimpleNamespace(paths=paths)

    def test_one_third(self):
        sol = self.stub([("p1",), ("p2",)], [("p2",), ("p3",)])
        assert path_overlap_ratio(sol) == pytest.approx(1.0 / 3.0)

    def test_identical_sets(self):
        sol = self.stub([("p1",), ("p2",)], [("p1",), ("p2",)])
        assert path_overlap_ratio(sol) == 1.0

    def test_disjoint_sets(self):
        sol = self.stub([("p1",)], [("p2",)])
        assert path_overlap_ratio(sol) == 0.0

    def test_empty_class_undefined(self):
        sol = self.stub([("p1",)], [])
        with pytest.raises(AnalysisError, match="both classes"):
            path_overlap_ratio(sol)

    def test_trace_flows_below_threshold_ignored(self):
        paths = {
            ("gv", "A", "B"): [(("p1",), 100.0), (("p2",), 100.0 * 1e-8)],
            ("ev", "A", "B"): [(("p1",), 50.0)],
        }
        sol = SimpleNamespace(paths=paths)
        assert path_overlap_ratio(sol) == 1.0  # p2 carries only noise

    def test_solver_backed_overlap(self, dual_solution_mixed):
        # classes separate onto different routes at R_e = 0.5
        assert path_overlap_ratio(dual_solution_mixed) == 0.0


class TestClassifier:
    def type1_series(self):
        levels = grid_levels()
        times = [30.0 - 9.0 * r if r <= 0.3 else 27.3 for r in levels]
        return SweepResult.from_series(levels, times)

    def type2_series(self):
        levels = grid_levels()
        return SweepResult.from_series(levels, [30.0 - 2.1 * r for r in levels])

    def type3_series(self):
        levels = grid_levels()
        return SweepResult.from_series(levels, [30.0 - 0.6 * r for r in levels])

    def test_type1_steep_then_flat(self):
        label = classify_city(self.type1_series())
        assert label.city_type == "I"
        assert "transition" in label.rationale["rule"]
        assert label.rationale["delta_t_rel_pct"] == pytest.approx(-9.0)

    def test_type2_sustained_decline(self):
        label = classify_city(self.type2_series())
        assert label.city_type == "II"
        assert label.rationale["delta_t_rel_pct"] == pytest.approx(-7.0)

    def test_type3_flat_response(self):
        label = classify_city(self.type3_series())
        assert label.city_type == "III"
        assert label.rationale["delta_t_rel_pct"] == pytest.approx(-2.0)

    def test_needs_full_span_and_enough_levels(self):
        with pytest.raises(AnalysisError, match="at least five"):
            classify_city(SweepResult.from_series(
                [0.0, 0.5, 1.0], [30.0, 29.0, 28.0]))
        levels = [0.1, 0.3, 0.5, 0.7, 0.9]
        with pytest.raises(AnalysisError, match="spanning"):
            classify_city(SweepResult.from_series(levels, [30.0] * 5))

    def test_refuses_unconverged_levels(self):
        levels = grid_levels(5)
        sweep = SweepResult.from_series(levels, [30.0, 28.0, 27.0, 26.0, 25.0])
        sweep.records = [
            SimpleNamespace(solution=SimpleNamespace(converged=(i != 3)))
            for i in range(5)
        ]
        with pytest.raises(AnalysisError, match="unconverged"):
            classify_city(sweep)


@pytest.fixture(scope="module")
def sweep():
    net, od = fixtures.dual_route()
    cfg = fixtures.dual_route_config()
    return run_sweep(net, od, cfg, grid_levels(21), method="pd")


class TestDualRouteSweep:
    def test_travel_time_nonincreasing(self, sweep):
        diffs = np.diff(sweep.avg_times)
        assert (diffs <= 1e-6).all()
        assert sweep.avg_times[0] == pytest.approx(15.552, abs=1e-3)
        assert sweep.avg_times[-1] == pytest.approx(15.136, abs=1e-3)

    def test_critical_thresholds_bracket_the_corner_regime(self, sweep):
        # GV leaves route b once its demand falls to the 50.4 veh/h
        # indifference flow (R_e ~ 0.496); EV joins route a once GV
        # demand falls below the 37.6 veh/h EV indifference flow
        # (R_e ~ 0.624).  On the 0.05 grid those are the only two
        # active-set changes.
        assert sweep.critical_thresholds == [
            pytest.approx(0.475), pytest.approx(0.625)]

    def test_restricted_range_isolates_one_threshold(self):
        net, od = fixtures.dual_route()
        cfg = fixtures.dual_route_config()
        sweep = run_sweep(net, od, cfg, [0.4, 0.45, 0.5, 0.55], method="pd")
        assert sweep.critical_thresholds == [pytest.approx(0.475)]
        assert sweep.city_type is None  # not a full-span sweep

    def test_classified_type3(self, sweep):
        # the dual route moves mean time by only ~2.7%
        assert sweep.city_type == "III"
        assert sweep.classification["delta_t_rel_pct"] == pytest.approx(
            -2.67, abs=0.05)

    def test_level_zero_matches_single_class_solution(self, sweep, dual_case):
        net, od, cfg = dual_case
        direct = solve(net, split_demand(od, 0.0), cfg, "pd")
        first = sweep.records[0]
        assert first.penetration == 0.0
        np.testing.assert_allclose(
            first.solution.link_flows.aggregate(),
            direct.link_flows.aggregate(),
            atol=1e-6,
        )

    def test_potential_savings_attached_per_level(self, sweep):
        ps = sweep.potential_savings
        assert ps[0] == pytest.approx(0.0)
        assert ps[-1] == pytest.approx(100.0)
        assert all(rec.potential_savings == p
                   for rec, p in zip(sweep.records, ps))

    def test_overlap_ratio_defined_only_with_both_classes(self, sweep):
        assert sweep.records[0].overlap_ratio is None  # no EV at R_e = 0
        assert sweep.records[-1].overlap_ratio is None  # no GV at R_e = 1
        assert all(rec.overlap_ratio is not None
                   for rec in sweep.records[1:-1])


class TestSweepMechanics:
    def test_identical_class_costs_make_level_ends_equal(self):
        net, od = fixtures.dual_route()
        cfg = fixtures.dual_route_config(gv_per_mile=0.4, ev_per_mile=0.4)
        sweep = run_sweep(net, od, cfg, [0.0, 1.0], method="bfw")
        assert sweep.gradient[0] == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(
            sweep.records[0].solution.link_flows.aggregate(),
            sweep.records[1].solution.link_flows.aggregate(),
            atol=1e-4,
        )
        assert sweep.critical_thresholds == []

    def test_single_path_network_has_no_thresholds(self):
        net = fixtures.Network()
        from mueflow.network import Link, Node, Zone

        net.add_node(Node("n1", 0.0, 0.0))
        net.add_node(Node("n2", 5.0, 0.0))
        net.add_link(Link("only", "n1", "n2", 5.0, 500.0, 60.0))
        net.add_zone(Zone("A", 0.0, 0.0))
        net.add_zone(Zone("B", 5.0, 0.0))
        fixtures.generate_connectors(net)
        od = fixtures.ODMatrix()
        od.add("A", "B", 50.0)
        cfg = fixtures.dual_route_config()
        sweep = run_sweep(net, od, cfg, [0.0, 0.5, 1.0], method="pd")
        assert sweep.critical_thresholds == []

    def test_warm_and_cold_sweeps_agree(self):
        net, od = fixtures.dual_route()
        cfg = fixtures.dual_route_config()
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        tol = 1e-4
        options = SolverOptions(rel_gap_tol=tol)
        warm = run_sweep(net, od, cfg, levels, "pd", options, warm_start=True)
        cold = run_sweep(net, od, cfg, levels, "pd", options, warm_start=False)
        for w, c in zip(warm.records, cold.records):
            a = w.solution.link_flows.aggregate()
            b = c.solution.link_flows.aggregate()
            assert np.abs(a - b).sum() / a.sum() <= 10.0 * tol

    def test_free_flow_time_is_computed_once(self, monkeypatch):
        from mueflow import _kernels
        from mueflow.metrics import compute_report

        net, od = fixtures.grid3x3()
        cfg = fixtures.grid3x3_config()
        free_flow = net.free_flow_times()
        batch = _kernels.batch_dijkstra
        free_flow_batches = []

        def counted(indptr, heads, links, cost, sources, **kwargs):
            if np.array_equal(cost, free_flow):
                free_flow_batches.append(sources)
            return batch(indptr, heads, links, cost, sources, **kwargs)

        monkeypatch.setattr(_kernels, "batch_dijkstra", counted)
        sweep = run_sweep(net, od, cfg, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert len(free_flow_batches) == 1
        monkeypatch.undo()
        for rec in sweep.records:
            assert rec.report == compute_report(rec.solution, net, od)

    def test_levels_validation(self):
        net, od = fixtures.dual_route()
        cfg = fixtures.dual_route_config()
        with pytest.raises(AnalysisError, match="at least two"):
            run_sweep(net, od, cfg, [0.5])
        with pytest.raises(AnalysisError, match="within"):
            run_sweep(net, od, cfg, [0.0, 1.5])

    def test_nan_level_rejected_before_any_solve(self, monkeypatch):
        import mueflow.analysis as analysis

        def never(*args, **kwargs):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(analysis, "solve", never)
        net, od = fixtures.dual_route()
        cfg = fixtures.dual_route_config()
        with pytest.raises(AnalysisError, match="finite"):
            run_sweep(net, od, cfg, [0.0, math.nan, 0.5])

    def test_failed_level_raises_partial_error(self, monkeypatch):
        import mueflow.analysis as analysis

        real_solve = analysis.solve

        def failing(network, demand, config, method, options, warm_start=None,
                    _session=None):
            if demand.penetration >= 0.5:
                raise SolverError("synthetic failure")
            return real_solve(network, demand, config, method, options,
                              warm_start=warm_start, _session=_session)

        monkeypatch.setattr(analysis, "solve", failing)
        net, od = fixtures.dual_route()
        cfg = fixtures.dual_route_config()
        with pytest.raises(SweepError) as err:
            run_sweep(net, od, cfg, [0.0, 0.25, 0.5, 0.75], method="pd")
        assert err.value.failed_level == 0.5
        assert [rec.penetration for rec in err.value.completed] == [0.0, 0.25]

    @pytest.mark.parametrize(
        "error", [InfeasibleProblemError, UnsupportedOperationError])
    def test_infeasible_problem_propagates_unwrapped(self, monkeypatch, error):
        import mueflow.analysis as analysis

        def failing(*args, **kwargs):
            raise error("structural")

        monkeypatch.setattr(analysis, "solve", failing)
        net, od = fixtures.dual_route()
        cfg = fixtures.dual_route_config()
        with pytest.raises(error):
            run_sweep(net, od, cfg, [0.0, 0.5])

    def test_unconverged_level_raises_sweep_error(self):
        net, od = fixtures.dual_route()
        cfg = fixtures.dual_route_config()
        options = SolverOptions(rel_gap_tol=1e-12, max_iters=2)
        with pytest.raises(SweepError, match="did not converge"):
            run_sweep(net, od, cfg, [0.0, 0.5], "fw", options)


class TestSweepFromRecords:
    def test_rebuilds_partial_sweeps(self, monkeypatch):
        import mueflow.analysis as analysis

        real_solve = analysis.solve

        def failing(network, demand, config, method, options, warm_start=None,
                    _session=None):
            if demand.penetration > 0.6:
                raise SolverError("synthetic failure")
            return real_solve(network, demand, config, method, options,
                              warm_start=warm_start, _session=_session)

        monkeypatch.setattr(analysis, "solve", failing)
        net, od = fixtures.dual_route()
        cfg = fixtures.dual_route_config()
        with pytest.raises(SweepError) as err:
            run_sweep(net, od, cfg, [0.0, 0.2, 0.4, 0.6, 0.8], method="pd")
        partial = sweep_from_records(err.value.completed)
        assert partial.levels == [0.0, 0.2, 0.4, 0.6]
        assert len(partial.gradient) == 3
        assert partial.city_type is None  # does not span [0, 1]

    def test_single_record_has_no_derived_series(self, dual_case):
        # one level is a flat series: savings undefined, no steps
        net, od, cfg = dual_case
        sweep = run_sweep(net, od, cfg, [0.0, 0.5], method="pd")
        lone = sweep_from_records(sweep.records[:1])
        assert lone.levels == [0.0]
        assert lone.gradient == []
        assert lone.potential_savings == [None]
        assert lone.ps_diffs == []
        assert lone.records[0].potential_savings is None
        assert lone.plateau_intervals == []
        assert lone.critical_thresholds == []

    def test_partial_view_leaves_the_sweep_alone(self, dual_case):
        net, od, cfg = dual_case
        full = run_sweep(net, od, cfg, grid_levels(5), method="pd")
        before = [rec.potential_savings for rec in full.records]
        assert before == full.potential_savings
        partial = sweep_from_records(full.records[:3])
        assert [rec.potential_savings for rec in full.records] == before
        assert [rec.potential_savings for rec in partial.records] == \
            partial.potential_savings
        assert partial.potential_savings[-1] == pytest.approx(100.0)
        assert partial.potential_savings != before[:3]

    def test_empty_records_rejected(self):
        with pytest.raises(AnalysisError, match="no solved levels"):
            sweep_from_records([])


class TestSweepHandoff:
    """Each level takes over the solve state of the level before it, bit for bit."""

    @pytest.mark.parametrize("name, method", [("grid10x10", "bfw"),
                                              ("grid3x3", "bfw"),
                                              ("grid3x3", "pd")])
    def test_levels_match_warm_starts_without_the_state(
            self, name, method, monkeypatch, tmp_path):
        import mueflow.analysis as analysis
        from mueflow.reports import write_sweep_json

        build, config = fixtures.FIXTURES[name]
        net, od = build()
        cfg = config()
        levels = grid_levels()
        carried, plain = [], []

        def recorded(seen, strip):
            def run(network, demand, config, method, options, warm_start=None,
                    _session=None):
                if strip:
                    # without the session: the warm start's paths alone
                    _session = None
                seen.append(_session is not None and _session.warm is not None)
                return solve(network, demand, config, method, options,
                             warm_start=warm_start, _session=_session)
            return run

        monkeypatch.setattr(analysis, "solve", recorded(carried, False))
        with_state = run_sweep(net, od, cfg, levels, method)
        monkeypatch.setattr(analysis, "solve", recorded(plain, True))
        without = run_sweep(net, od, cfg, levels, method)
        assert carried == [False] + [True] * (len(levels) - 1)
        assert not any(plain)
        for a, b in zip(with_state.records, without.records):
            sa, sb = a.solution, b.solution
            assert sa.paths == sb.paths and sa.pi == sb.pi
            assert sa.iterations == sb.iterations
            assert sa.gap_trace == sb.gap_trace
            assert same_bits(sa.wardrop_gap, sb.wardrop_gap)
            for cls, flows in sa.link_flows.class_flows.items():
                assert flows.tobytes() == sb.link_flows.class_flows[cls].tobytes()
            assert sa.link_times.tobytes() == sb.link_times.tobytes()
        write_sweep_json(with_state, tmp_path / "carried.json")
        write_sweep_json(without, tmp_path / "plain.json")
        assert ((tmp_path / "carried.json").read_bytes()
                == (tmp_path / "plain.json").read_bytes())

    def test_stored_levels_let_their_state_go(self, warm_starts):
        net, od = fixtures.grid3x3()
        cfg = fixtures.grid3x3_config()
        levels = [0.0, 0.5, 1.0]
        warm = run_sweep(net, od, cfg, levels, "bfw")
        # the session carried one WarmStart through every level
        assert len(warm_starts) == 1
        cold = run_sweep(net, od, cfg, levels, "bfw", warm_start=False)
        assert len(warm_starts) == 1 + len(levels)
        gc.collect()
        # both sweeps are still held here, but no record holds a state
        assert len(warm.records) == len(cold.records) == len(levels)
        assert all(ref() is None for ref in warm_starts)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()
