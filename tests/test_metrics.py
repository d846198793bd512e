"""Congestion metrics: closed-form examples and algebraic properties.

Small hand-built solutions make every expected number checkable by
eye; the dual-route session fixtures cover the solver-backed numbers.
"""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mueflow.demand import ODMatrix, split_demand
from mueflow.equilibrium import LinkFlows, solve
from mueflow.fixtures import FIXTURES
from mueflow.metrics import (
    DEFAULT_PROFILE_BINS,
    MetricsError,
    avg_travel_time,
    compare,
    compare_reports,
    compute_report,
    delay_factor_diff,
    delay_factors,
    link_congested_time_profile,
    link_congested_times,
    potential_savings,
    potential_savings_diff,
    road_utilization,
    voc,
)
from mueflow.network import (
    Link,
    Network,
    Node,
    Zone,
    centroid_node_id,
    generate_connectors,
    shortest_path,
)


def stub_solution(network, class_flows, link_times, paths=None):
    """Minimal object with the attributes the metrics consume."""
    ids = network.link_ids
    return SimpleNamespace(
        link_flows=LinkFlows(link_ids=ids, class_flows=class_flows),
        link_times=np.asarray(link_times, dtype=float),
        paths=paths or {},
    )


def dual_route_b_first():
    """The dual-route network rebuilt with link b added before link a."""
    src, _ = FIXTURES["dual_route"][0]()
    net = Network()
    for nid in ("n1", "n2"):
        net.add_node(src.nodes[nid])
    for lid in ("b", "a"):
        net.add_link(src.links[lid])
    net.add_zone(Zone("A", 0.0, 0.0))
    net.add_zone(Zone("B", 9.654, 0.0))
    generate_connectors(net)
    return net


def single_link_network(length_km=1.0, capacity=1400.0):
    net = Network()
    net.add_node(Node("n1", 0.0, 0.0))
    net.add_node(Node("n2", length_km, 0.0))
    net.add_link(Link("only", "n1", "n2", length_km, capacity, 60.0))
    net.add_zone(Zone("A", 0.0, 0.0))
    net.add_zone(Zone("B", length_km, 0.0))
    generate_connectors(net)
    return net


class TestAvgTravelTime:
    def test_gv_cost_equilibrium_average(self, dual_solution_gv, dual_case):
        net, od, _ = dual_case
        t = avg_travel_time(dual_solution_gv, net, od, mode="mue")
        # 0.504*17.04 + 0.496*14.04 over the used paths
        assert t == pytest.approx(15.55, abs=0.01)

    def test_free_flow_average(self, dual_solution_gv, dual_case):
        net, od, _ = dual_case
        t = avg_travel_time(dual_solution_gv, net, od, mode="free_flow")
        assert t == pytest.approx(11.25, abs=1e-4)

    def test_min_time_rule_takes_fastest_used_route(self, dual_solution_gv, dual_case):
        net, od, _ = dual_case
        t = avg_travel_time(dual_solution_gv, net, od, mode="mue",
                            rule="min_time")
        assert t == pytest.approx(14.04, abs=0.01)

    def test_single_link_equals_its_time(self):
        net = single_link_network()
        od_stub = [(("A", "B"), 10.0)]
        od = SimpleNamespace(pairs=lambda: od_stub)
        times = [13.7] + [1e-6] * (len(net.links) - 1)
        conn_out, conn_in = "connector:A:out", "connector:B:in"
        sol = stub_solution(
            net,
            {"gv": np.array([10.0, 10.0, 0.0, 0.0, 10.0]),
             "ev": np.zeros(5)},
            times,
            paths={("gv", "A", "B"): [((conn_out, "only", conn_in), 10.0)]},
        )
        got = avg_travel_time(sol, net, od, mode="mue")
        assert got == pytest.approx(13.7 + 2e-6)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_shortest_path_rules_match_network_shortest_path(self, name):
        # T_FF and rule="min_time" weigh each pair's cheapest path under
        # link-indexed times; dual_route's free-flow T_FF alone could not
        # tell them from times permuted into CSR slot order
        net, od = FIXTURES[name][0]()
        rng = np.random.default_rng(3)
        loaded = net.free_flow_times() * rng.uniform(1.0, 3.0, net.n_links)
        sol = stub_solution(net, {}, loaded)
        for times, kwargs in ((None, {"mode": "free_flow"}),
                              (loaded, {"mode": "mue", "rule": "min_time"})):
            pairs = [(r, s, q) for (r, s), q in od.pairs() if r != s and q > 0.0]
            want = sum(
                q * shortest_path(net, centroid_node_id(r), centroid_node_id(s),
                                  times)[0]
                for r, s, q in pairs
            ) / sum(q for _, _, q in pairs)
            got = avg_travel_time(sol, net, od, **kwargs)
            assert got == pytest.approx(want, rel=1e-12), kwargs

    def test_zones_centred_on_road_nodes(self):
        # zones may name existing nodes as centroids and need no
        # connectors; the metrics find them as the solver does
        net = Network()
        net.add_node(Node("n1", 0.0, 0.0))
        net.add_node(Node("n2", 1.0, 0.0))
        net.add_link(Link("only", "n1", "n2", 1.0, 1400.0, 60.0))
        net.add_zone(Zone("A", 0.0, 0.0, centroid_node="n1"))
        net.add_zone(Zone("B", 1.0, 0.0, centroid_node="n2"))
        od = ODMatrix([("A", "B", 10.0)])
        sol = solve(net, split_demand(od, 0.5), FIXTURES["grid3x3"][1](),
                    "bfw")
        report = compute_report(sol, net, od)
        assert report.avg_travel_time_ff == net.links["only"].free_flow_time
        assert report.avg_travel_time_mue == float(sol.link_times[0])

    def test_zone_without_a_centroid_is_named(self, dual_solution_gv,
                                              dual_case):
        net, _, _ = dual_case
        unknown = SimpleNamespace(pairs=lambda: [(("A", "Q"), 1.0)])
        with pytest.raises(MetricsError, match="zone 'Q' is unknown"):
            avg_travel_time(dual_solution_gv, net, unknown, mode="free_flow")
        bare = single_link_network()
        bare.add_zone(Zone("C", 0.5, 0.0))
        od = SimpleNamespace(pairs=lambda: [(("A", "C"), 1.0)])
        with pytest.raises(MetricsError, match="zone 'C' is unknown or has no centroid"):
            avg_travel_time(None, bare, od, mode="free_flow")
        bare.zones["C"].centroid_node = "nowhere"
        with pytest.raises(MetricsError, match="zone 'C' is unknown or has no centroid"):
            avg_travel_time(None, bare, od, mode="free_flow")

    def test_pair_without_a_route_is_named(self):
        # the one road runs n1 -> n2, so zone B cannot reach zone A
        od = SimpleNamespace(pairs=lambda: [(("B", "A"), 1.0)])
        with pytest.raises(MetricsError,
                           match="no route between zones 'B' and 'A'"):
            avg_travel_time(None, single_link_network(), od, mode="free_flow")

    def test_t_mue_reads_link_flows_not_paths(self, grid3_solution,
                                              grid3_case):
        # path flows of an equilibrium are not unique; the report must
        # not depend on which of them a solver kept
        net, od, _ = grid3_case
        pathless = replace(grid3_solution, paths={})
        assert compute_report(pathless, net, od) == compute_report(
            grid3_solution, net, od)

    def test_link_flows_without_demand_rejected(self, dual_solution_gv,
                                                dual_case):
        net, od, _ = dual_case
        n = len(net.links)
        empty = stub_solution(net, {"gv": np.zeros(n), "ev": np.zeros(n)},
                              dual_solution_gv.link_times)
        with pytest.raises(MetricsError, match="carry none of the demand"):
            avg_travel_time(empty, net, od)

    @pytest.mark.parametrize("rule", ["flow_weighted", "min_time"])
    def test_loaded_times_reject_reordered_link_ids(self, grid3_solution,
                                                    grid3_case, rule):
        # link times are read by position: on a network with the same
        # links in another order, min_time found a wrong shortest path
        src, od, _ = grid3_case
        net = Network()
        for node in src.nodes.values():
            if not node.id.startswith("centroid:"):
                net.add_node(node)
        for link in reversed(list(src.links.values())):
            if not link.connector:
                net.add_link(link)
        for zone in src.zones.values():
            net.add_zone(Zone(zone.id, zone.x, zone.y))
        generate_connectors(net)
        assert sorted(net.link_ids) == sorted(src.link_ids)
        with pytest.raises(MetricsError, match="same order"):
            avg_travel_time(grid3_solution, net, od, rule=rule)

    def test_zero_demand_undefined(self, dual_solution_gv, dual_case):
        net, _, _ = dual_case
        od = SimpleNamespace(pairs=lambda: [(("A", "B"), 0.0)])
        with pytest.raises(MetricsError, match="zero demand"):
            avg_travel_time(dual_solution_gv, net, od, mode="mue")

    def test_unknown_mode_or_rule(self, dual_solution_gv, dual_case):
        net, od, _ = dual_case
        with pytest.raises(MetricsError, match="unknown mode"):
            avg_travel_time(dual_solution_gv, net, od, mode="psychic")
        with pytest.raises(MetricsError, match="unknown rule"):
            avg_travel_time(dual_solution_gv, net, od, rule="vibes")


class TestCompare:
    def test_table_rows_to_stated_decimals(self):
        delta, rel = compare(25.1, 24.53)
        assert round(delta, 2) == -0.57
        assert round(rel, 2) == -2.27
        delta, rel = compare(40.53, 36.77)
        assert round(delta, 2) == -3.76
        assert round(rel, 2) == -9.28

    def test_equal_inputs(self):
        assert compare(17.0, 17.0) == (0.0, 0.0)

    def test_zero_baseline_undefined(self):
        with pytest.raises(MetricsError, match="positive"):
            compare(0.0, 10.0)

    @given(st.floats(min_value=0.1, max_value=1e4),
           st.floats(min_value=0.0, max_value=1e4))
    def test_rel_consistent_with_abs(self, base, scenario):
        delta, rel = compare(base, scenario)
        assert rel == pytest.approx(100.0 * delta / base, abs=1e-9)


class TestPotentialSavings:
    def test_midpoint_and_boundaries(self):
        assert potential_savings(15.0, 20.0, 10.0) == 50.0
        assert potential_savings(10.0, 20.0, 10.0) == 100.0
        assert potential_savings(20.0, 20.0, 10.0) == 0.0

    def test_not_clamped(self):
        assert potential_savings(25.0, 20.0, 10.0) == -50.0
        assert potential_savings(5.0, 20.0, 10.0) == 150.0

    def test_degenerate_range_undefined(self):
        with pytest.raises(MetricsError, match="t_max <= t_min"):
            potential_savings(10.0, 10.0, 10.0)

    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_affine_in_time(self, w):
        t_max, t_min = 40.0, 20.0
        t = t_min + (t_max - t_min) * w / 100.0
        assert potential_savings(t, t_max, t_min) == pytest.approx(100.0 - w,
                                                                   abs=1e-9)

    def test_diff_examples(self):
        assert potential_savings_diff([0.0, 50.0, 100.0]) == [50.0, 50.0]
        assert potential_savings_diff([30.0, 30.0, 30.0]) == [0.0, 0.0]

    def test_diff_needs_two_points(self):
        with pytest.raises(MetricsError, match="at least two"):
            potential_savings_diff([10.0])

    def test_diff_telescopes_on_sweep_series(self):
        ps = [0.0, 18.32, 40.0, 93.0, 91.0, 100.0]
        assert sum(potential_savings_diff(ps)) == ps[-1] - ps[0]

    @given(st.lists(st.floats(min_value=-150.0, max_value=150.0),
                    min_size=2, max_size=30))
    def test_diff_telescopes_generally(self, ps):
        total = sum(potential_savings_diff(ps))
        assert total == pytest.approx(ps[-1] - ps[0], abs=1e-9)


class TestVocAndUtilization:
    def test_simple_ratio(self):
        net = single_link_network(capacity=1400.0)
        sol = stub_solution(
            net,
            {"gv": np.array([700.0, 0, 0, 0, 0]), "ev": np.zeros(5)},
            np.ones(5),
        )
        per_link, total = voc(sol, net)
        assert per_link == {"only": 0.5}
        assert total == 0.5

    def test_dual_route_voc_total(self, dual_solution_gv, dual_case):
        net, _, _ = dual_case
        per_link, total = voc(dual_solution_gv, net)
        assert per_link["a"] == pytest.approx(0.42, abs=1e-3)
        assert per_link["b"] == pytest.approx(0.248, abs=1e-3)
        assert total == pytest.approx(0.668, abs=2e-3)
        assert not any(lid.startswith("connector") for lid in per_link)

    def test_zero_flow(self):
        net = single_link_network()
        sol = stub_solution(net, {"gv": np.zeros(5), "ev": np.zeros(5)}, np.ones(5))
        per_link, total = voc(sol, net)
        assert per_link == {"only": 0.0} and total == 0.0
        assert road_utilization(sol, net) == 0.0

    def test_utilization_counts_used_road_links(self, dual_solution_gv, dual_case):
        net, _, _ = dual_case
        assert road_utilization(dual_solution_gv, net) == 1.0

    def test_utilization_fraction(self):
        net = Network()
        for i in range(4):
            net.add_node(Node(f"n{i}", float(i), 0.0))
        for i in range(3):
            net.add_link(Link(f"e{i}", f"n{i}", f"n{i+1}", 1.0, 100.0, 60.0))
        flows = {"gv": np.array([5.0, 0.0, 0.0]), "ev": np.zeros(3)}
        sol = stub_solution(net, flows, np.ones(3))
        assert road_utilization(sol, net) == pytest.approx(1.0 / 3.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        flows = rng.uniform(0.0, 500.0, size=5)
        flows[2] = 0.0
        caps = rng.uniform(200.0, 900.0, size=5)

        def build(order):
            net = Network()
            for i in range(6):
                net.add_node(Node(f"n{i}", float(i), 0.0))
            for j in order:
                net.add_link(
                    Link(f"e{j}", f"n{j}", f"n{j+1}", 1.0, caps[j], 60.0))
            sol = stub_solution(
                net,
                {"gv": flows[list(order)], "ev": np.zeros(5)},
                np.ones(5),
            )
            return sol, net

        base_sol, base_net = build(range(5))
        perm_sol, perm_net = build([3, 1, 4, 0, 2])
        assert voc(base_sol, base_net)[1] == pytest.approx(
            voc(perm_sol, perm_net)[1], rel=1e-12)
        assert road_utilization(base_sol, base_net) == road_utilization(
            perm_sol, perm_net)

    def test_link_set_mismatch_detected(self, dual_case):
        net, _, _ = dual_case
        sol = SimpleNamespace(
            link_flows=LinkFlows(link_ids=["a"], class_flows={"gv": np.array([1.0])}),
            link_times=np.array([12.0]),
            paths={},
        )
        with pytest.raises(MetricsError, match="does not match"):
            voc(sol, net)

    @pytest.mark.parametrize("metric", [
        voc, road_utilization, link_congested_times, delay_factors,
        link_congested_time_profile,
    ])
    def test_reordered_link_ids_rejected(self, metric, dual_solution_gv):
        # flows are read by position: b's flow must not be divided by
        # a's capacity just because the link counts agree
        net = dual_route_b_first()
        solved_ids = list(dual_solution_gv.link_flows.link_ids)
        assert sorted(net.link_ids) == sorted(solved_ids)
        assert net.link_ids != solved_ids
        with pytest.raises(MetricsError, match="same order"):
            metric(dual_solution_gv, net)


class TestDelayFactors:
    def test_example_ratio(self, dual_case):
        net, _, _ = dual_case
        n = len(net.links)
        times = np.array([15.12, 14.0] + [1e-6] * (n - 2))
        sol = stub_solution(net, {"gv": np.ones(n), "ev": np.zeros(n)}, times)
        df = delay_factors(sol, net)
        assert df["a"] == pytest.approx(15.12 / 12.0)
        assert df["a"] == pytest.approx(1.26)

    def test_zero_flow_unit_factor(self, dual_case):
        net, od, cfg = dual_case
        from mueflow.demand import ODMatrix, split_demand
        from mueflow.equilibrium import solve

        empty = ODMatrix([("A", "B", 0.0)])
        sol = solve(net, split_demand(empty, 0.0), cfg, "bfw")
        df = delay_factors(sol, net)
        assert df["a"] == pytest.approx(1.0) and df["b"] == pytest.approx(1.0)

    def test_diff_and_mismatch(self):
        assert delay_factor_diff({"a": 1.5}, {"a": 1.2})["a"] == pytest.approx(-0.3)
        with pytest.raises(MetricsError, match=r"link sets differ: \['b', 'c'\]"):
            delay_factor_diff({"a": 1.0, "b": 1.0}, {"a": 1.0, "c": 1.0})

    def test_factors_at_least_one_on_solved_case(self, dual_solution_gv, dual_case):
        net, _, _ = dual_case
        df = delay_factors(dual_solution_gv, net)
        assert all(v >= 1.0 - 1e-12 for v in df.values())


class TestCongestedTimeProfile:
    def build_two_length_network(self):
        net = Network()
        for i in range(3):
            net.add_node(Node(f"n{i}", float(i), 0.0))
        net.add_link(Link("short", "n0", "n1", 0.3, 100.0, 60.0))
        net.add_link(Link("long", "n1", "n2", 3.0, 100.0, 60.0))
        return net

    def test_binning_and_empty_bins(self):
        net = self.build_two_length_network()
        sol = stub_solution(
            net, {"gv": np.array([10.0, 95.0]), "ev": np.zeros(2)},
            np.array([0.35, 5.9]),
        )
        profile = link_congested_time_profile(sol, net)
        by_bin = {(b.lower_km, b.upper_km): b for b in profile}
        assert by_bin[(0.0, 0.5)].count == 1
        assert by_bin[(0.0, 0.5)].mean_time == pytest.approx(0.35)
        assert by_bin[(2.0, 4.0)].count == 1
        assert by_bin[(2.0, 4.0)].mean_time == pytest.approx(5.9)
        assert by_bin[(0.5, 1.0)].empty
        assert by_bin[(0.5, 1.0)].mean_time is None
        # loaded long links show larger congested times than short ones
        assert by_bin[(2.0, 4.0)].mean_time > by_bin[(0.0, 0.5)].mean_time

    def test_default_edges(self):
        assert DEFAULT_PROFILE_BINS == (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, math.inf)

    def test_bad_edges_rejected(self, dual_solution_gv, dual_case):
        net, _, _ = dual_case
        with pytest.raises(MetricsError, match="strictly increasing"):
            link_congested_time_profile(dual_solution_gv, net, bins=(1.0, 1.0))
        with pytest.raises(MetricsError, match="at least two"):
            link_congested_time_profile(dual_solution_gv, net, bins=(1.0,))

    def test_free_flow_profile_recovers_t0(self, dual_case):
        net, _, cfg = dual_case
        from mueflow.demand import ODMatrix, split_demand
        from mueflow.equilibrium import solve

        empty = ODMatrix([("A", "B", 0.0)])
        sol = solve(net, split_demand(empty, 0.0), cfg, "bfw")
        profile = link_congested_time_profile(sol, net, bins=(8.0, 20.0))
        assert profile[0].count == 2
        assert profile[0].mean_time == pytest.approx((12.0 + 11.25) / 2.0)


class TestReportsRoundUp:
    def test_compute_report_consistency(self, dual_solution_gv, dual_case):
        net, od, _ = dual_case
        report = compute_report(dual_solution_gv, net, od)
        assert report.avg_travel_time_mue == pytest.approx(15.55, abs=0.01)
        assert report.avg_travel_time_ff == pytest.approx(11.25, abs=1e-4)
        assert report.voc_total == pytest.approx(0.668, abs=2e-3)
        assert report.rur == 1.0
        assert set(report.delay_factor) == {"a", "b"}
        assert 0.0 <= report.rur <= 1.0

    def test_compare_reports(self, dual_case, dual_solution_gv):
        net, od, cfg = dual_case
        from mueflow.demand import split_demand
        from mueflow.equilibrium import solve

        ev_sol = solve(net, split_demand(od, 1.0), cfg, "bfw")
        base = compute_report(dual_solution_gv, net, od)
        scenario = compute_report(ev_sol, net, od)
        cmp = compare_reports(base, scenario)
        assert cmp.delta_t_abs == pytest.approx(
            scenario.avg_travel_time_mue - base.avg_travel_time_mue)
        assert cmp.delta_t_rel == pytest.approx(
            100.0 * cmp.delta_t_abs / base.avg_travel_time_mue)
        assert cmp.delta_t_abs < 0.0  # electrification reduces mean time
        assert set(cmp.delta_delay_factor) == {"a", "b"}
