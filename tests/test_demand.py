"""OD matrices, class splitting, and commute-distance statistics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from mueflow import fixtures
from mueflow.demand import (
    ClassDemand,
    DemandError,
    ODMatrix,
    commute_distance_stats,
    load_od_csv,
    split_demand,
)
from mueflow.equilibrium import solve
from mueflow.network import Network, Node, Zone


class TestODMatrix:
    def test_insertion_order_and_lookup(self):
        od = ODMatrix([("A", "B", 10.0), ("B", "C", 5.0)])
        assert od.pairs() == [(("A", "B"), 10.0), (("B", "C"), 5.0)]
        assert od.demand("A", "B") == 10.0
        assert len(od) == 2
        assert ("A", "B") in od and ("C", "A") not in od
        assert od.total_demand == 15.0
        assert od.zones() == {"A", "B", "C"}

    def test_duplicate_pair_rejected(self):
        od = ODMatrix([("A", "B", 10.0)])
        with pytest.raises(DemandError, match="duplicate OD pair"):
            od.add("A", "B", 3.0)

    def test_negative_and_nonfinite_demand_rejected(self):
        od = ODMatrix()
        with pytest.raises(DemandError):
            od.add("A", "B", -1.0)
        with pytest.raises(DemandError):
            od.add("A", "B", math.nan)
        with pytest.raises(DemandError):
            od.add("A", "B", math.inf)

    def test_zero_demand_and_intrazonal_pairs_kept(self):
        od = ODMatrix([("A", "B", 0.0), ("A", "A", 7.0)])
        assert od.demand("A", "B") == 0.0
        assert od.demand("A", "A") == 7.0


class TestLoadODCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "od.csv"
        p.write_text(
            "origin_zone,destination_zone,demand\nA,B,100\nB,A,50.5\n"
        )
        od = load_od_csv(p)
        assert od.pairs() == [(("A", "B"), 100.0), (("B", "A"), 50.5)]

    def test_missing_column(self, tmp_path):
        p = tmp_path / "od.csv"
        p.write_text("origin,destination_zone,demand\nA,B,100\n")
        with pytest.raises(DemandError, match="missing required columns"):
            load_od_csv(p)

    def test_bad_demand_value(self, tmp_path):
        p = tmp_path / "od.csv"
        p.write_text("origin_zone,destination_zone,demand\nA,B,many\n")
        with pytest.raises(DemandError, match="bad demand"):
            load_od_csv(p)

    def test_empty_zone_id(self, tmp_path):
        p = tmp_path / "od.csv"
        p.write_text("origin_zone,destination_zone,demand\n,B,10\n")
        with pytest.raises(DemandError, match="empty zone id"):
            load_od_csv(p)


class TestSplitDemand:
    def test_boundaries(self):
        od = ODMatrix([("A", "B", 100.0)])
        all_gv = split_demand(od, 0.0)
        assert all_gv.demand("gv", "A", "B") == 100.0
        assert all_gv.demand("ev", "A", "B") == 0.0
        all_ev = split_demand(od, 1.0)
        assert all_ev.demand("gv", "A", "B") == 0.0
        assert all_ev.demand("ev", "A", "B") == 100.0

    def test_out_of_range_penetration(self):
        od = ODMatrix([("A", "B", 100.0)])
        for bad in (-0.1, 1.1):
            with pytest.raises(DemandError, match="penetration"):
                split_demand(od, bad)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.lists(
            st.floats(min_value=0.0, max_value=1e6),
            min_size=1,
            max_size=8,
        ),
    )
    def test_split_conserves_every_pair(self, r_e, demands):
        od = ODMatrix()
        for i, q in enumerate(demands):
            od.add(f"z{i}", "dest", q)
        split = split_demand(od, r_e)
        for (o, d), q in od:
            gv = split.demand("gv", o, d)
            ev = split.demand("ev", o, d)
            assert gv >= 0.0 and ev >= 0.0
            assert gv + ev == pytest.approx(q, abs=1e-9 * max(q, 1.0))
            assert ev == pytest.approx(r_e * q, abs=1e-9 * max(q, 1.0))

    def test_pairs_and_totals(self):
        od = ODMatrix([("A", "B", 10.0), ("B", "C", 30.0)])
        split = split_demand(od, 0.25)
        assert split.pairs() == [("A", "B"), ("B", "C")]
        assert split.total("ev") == pytest.approx(10.0)
        assert split.total("gv") == pytest.approx(30.0)
        assert split.penetration == 0.25


class TestClassDemand:
    @pytest.mark.parametrize("by_class", [
        {"gv": {("A", "B"): 100.0}},
        {},
        {"gv": {("A", "B"): 100.0}, "ev": {}},
        {"gv": {("A", "B"): 100.0}, "ev": {("A", "B"): -5.0}},
        {"gv": {("A", "B"): math.nan}, "ev": {("A", "B"): 0.0}},
    ], ids=["no-ev", "no-class", "ev-lacks-pair", "negative", "nan"])
    def test_malformed_demand_rejected_before_solving(self, by_class):
        net, _ = fixtures.dual_route()
        with pytest.raises(DemandError):
            solve(net, ClassDemand(by_class=by_class, penetration=0.5),
                  fixtures.dual_route_config())


class TestCommuteStats:
    def make_network(self):
        net = Network()
        net.add_node(Node("n", 0.0, 0.0))
        net.add_zone(Zone("A", 0.0, 0.0))
        net.add_zone(Zone("B", 3.0, 4.0))  # 5 km from A
        net.add_zone(Zone("C", 0.0, 10.0))  # 10 km from A
        return net

    def test_weighted_lognormal_fit(self):
        net = self.make_network()
        od = ODMatrix([("A", "B", 3.0), ("A", "C", 1.0)])
        stats = commute_distance_stats(net, od)
        mu = (3.0 * math.log(5.0) + 1.0 * math.log(10.0)) / 4.0
        var = (
            3.0 * (math.log(5.0) - mu) ** 2 + (math.log(10.0) - mu) ** 2
        ) / 4.0
        assert stats.mu_log == pytest.approx(mu)
        assert stats.sigma_log == pytest.approx(math.sqrt(var))
        assert stats.mode_km == pytest.approx(math.exp(mu - var))
        assert stats.mean_km == pytest.approx((3.0 * 5.0 + 10.0) / 4.0)
        assert stats.total_demand == 4.0
        assert stats.n_pairs == 2

    def test_intrazonal_and_zero_demand_excluded(self):
        net = self.make_network()
        od = ODMatrix([("A", "A", 50.0), ("A", "B", 0.0), ("A", "C", 2.0)])
        stats = commute_distance_stats(net, od)
        assert stats.n_pairs == 1
        assert stats.mean_km == pytest.approx(10.0)

    def test_unknown_zone(self):
        net = self.make_network()
        od = ODMatrix([("A", "nowhere", 1.0)])
        with pytest.raises(DemandError, match="unknown zone"):
            commute_distance_stats(net, od)

    def test_no_usable_pairs(self):
        net = self.make_network()
        od = ODMatrix([("A", "A", 1.0)])
        with pytest.raises(DemandError, match="no positive-demand"):
            commute_distance_stats(net, od)
