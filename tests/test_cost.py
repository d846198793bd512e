"""Vehicle operating costs, BPR calculus, and cost-config files."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from mueflow.cost import (
    CostConfig,
    CostConfigError,
    bpr_integral,
    bpr_time,
    bpr_time_derivative,
    bundled_cities,
    bundled_config,
    cost_config_from_dict,
    dump_cost_config,
    generalized_link_cost,
    load_cost_config,
    vehicle_costs,
)
from mueflow.network import Link

BETA_GRID = (1.0, 1.2, 1.5, 2.0, 3.0)
RATIO_GRID = (0.1, 0.5, 1.0, 1.5)


class TestVehicleCosts:
    def test_san_francisco_per_mile_costs(self):
        costs = vehicle_costs(bundled_config("san_francisco"))
        assert costs.per_mile["gv"] == pytest.approx(0.890, abs=5e-4)
        assert costs.per_mile["ev"] == pytest.approx(0.316, abs=5e-4)
        assert costs.ratio == pytest.approx(2.82, abs=0.01)

    def test_honolulu_ratio(self):
        costs = vehicle_costs(bundled_config("honolulu"))
        assert costs.ratio == pytest.approx(2.33, abs=0.01)

    def test_all_cities_inside_published_ranges(self):
        cities = bundled_cities()
        assert len(cities) == 10
        for city in cities:
            costs = vehicle_costs(bundled_config(city))
            assert 0.799 <= costs.per_mile["gv"] <= 0.923, city
            assert 0.269 <= costs.per_mile["ev"] <= 0.465, city

    def test_energy_plus_components_breakdown(self):
        cfg = CostConfig(
            p_gas=5.0, p_ele=0.2, mpg_gv=25.0, mpge_ev=100.0, kappa_gal=33.7,
            gv_components={"only": 0.5}, ev_components={"only": 0.1},
        )
        costs = vehicle_costs(cfg)
        assert costs.per_mile["gv"] == pytest.approx(5.0 / 25.0 + 0.5)
        assert costs.per_mile["ev"] == pytest.approx(0.2 * 33.7 / 100.0 + 0.1)
        assert costs.per_km["gv"] == pytest.approx(costs.per_mile["gv"] / cfg.r_dis)

    def test_zero_cost_classes_have_no_finite_ratio(self):
        both_zero = CostConfig(p_gas=0.0, p_ele=0.0,
                               gv_components={}, ev_components={})
        assert math.isnan(vehicle_costs(both_zero).ratio)
        gv_only = CostConfig(p_gas=5.0, p_ele=0.0,
                             gv_components={}, ev_components={})
        assert math.isinf(vehicle_costs(gv_only).ratio)

    def test_subsidy_cannot_push_ev_cost_negative(self):
        cfg = CostConfig(p_gas=5.0, p_ele=0.0,
                         gv_components={}, ev_components={"subsidy": -1.0})
        with pytest.raises(CostConfigError, match="subsidy"):
            vehicle_costs(cfg)

    def test_gv_cost_cannot_be_negative(self):
        cfg = CostConfig(p_gas=0.0, p_ele=0.0,
                         gv_components={"flat": -0.5},
                         ev_components={"flat": 0.2})
        with pytest.raises(CostConfigError, match="gv cost per mile"):
            vehicle_costs(cfg)


class TestCostConfigValidation:
    def test_negative_prices_rejected(self):
        with pytest.raises(CostConfigError, match="p_gas"):
            CostConfig(p_gas=-1.0, p_ele=0.1)
        with pytest.raises(CostConfigError, match="p_ele"):
            CostConfig(p_gas=1.0, p_ele=-0.1)
        with pytest.raises(CostConfigError, match="p_ele"):
            CostConfig(p_gas=1.0, p_ele=math.nan)

    def test_nonfinite_components_rejected(self):
        with pytest.raises(CostConfigError, match="ev_components"):
            CostConfig(p_gas=1.0, p_ele=0.1, ev_components={"flat": math.nan})
        with pytest.raises(CostConfigError, match="gv_components"):
            CostConfig(p_gas=1.0, p_ele=0.1, gv_components={"flat": math.inf})

    @pytest.mark.parametrize("field, value", [
        ("p_gas", math.inf), ("mpg_gv", math.nan), ("mpge_ev", math.inf),
        ("kappa_gal", -math.inf), ("r_dis", math.inf), ("vot", math.inf),
        ("bpr_alpha", math.nan), ("bpr_beta", math.inf), ("p_ele", "0.1"),
    ])
    def test_nonfinite_scalars_rejected(self, field, value):
        payload = {"p_gas": 1.0, "p_ele": 0.1, field: value}
        with pytest.raises(CostConfigError,
                           match=f"{field} must be a finite number"):
            cost_config_from_dict(payload)

    @pytest.mark.parametrize("table", [[1, 2], {"a": "x"}, None],
                             ids=["list", "text", "null"])
    def test_component_tables_must_map_to_numbers(self, table):
        with pytest.raises(CostConfigError,
                           match="gv_components must map component names"):
            cost_config_from_dict({"p_gas": 1.0, "p_ele": 0.1,
                                   "gv_components": table})

    @pytest.mark.parametrize("field, cls", [("mpg_gv", "gv"),
                                            ("mpge_ev", "ev")])
    def test_overflowing_per_mile_cost_rejected(self, field, cls):
        cfg = CostConfig(p_gas=3.0, p_ele=0.2, **{field: 1e-320})
        with pytest.raises(CostConfigError,
                           match=f"class cost overflows: .*'{cls}': inf"):
            vehicle_costs(cfg)

    def test_nonpositive_efficiency_rejected(self):
        with pytest.raises(CostConfigError, match="mpg_gv"):
            CostConfig(p_gas=1.0, p_ele=0.1, mpg_gv=0.0)
        with pytest.raises(CostConfigError, match="mpge_ev"):
            CostConfig(p_gas=1.0, p_ele=0.1, mpge_ev=-5.0)

    def test_vot_and_bpr_shape_constraints(self):
        with pytest.raises(CostConfigError, match="vot"):
            CostConfig(p_gas=1.0, p_ele=0.1, vot=0.0)
        with pytest.raises(CostConfigError, match="bpr_alpha"):
            CostConfig(p_gas=1.0, p_ele=0.1, bpr_alpha=0.0)
        with pytest.raises(CostConfigError, match="bpr_beta"):
            CostConfig(p_gas=1.0, p_ele=0.1, bpr_beta=0.5)


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = bundled_config("portland")
        path = tmp_path / "portland.json"
        dump_cost_config(cfg, path)
        assert load_cost_config(path) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(CostConfigError, match="unknown cost config keys"):
            cost_config_from_dict({"p_gas": 1.0, "p_ele": 0.1, "bogus": 2})

    def test_prices_required(self):
        with pytest.raises(CostConfigError, match="p_gas and p_ele"):
            cost_config_from_dict({"vot": 0.3})

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CostConfigError, match="invalid JSON"):
            load_cost_config(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CostConfigError, match="expected a JSON object"):
            load_cost_config(path)

    def test_bundled_city_listing(self):
        cities = bundled_cities()
        assert cities == sorted(cities)
        assert "road_attributes" not in cities
        with pytest.raises(KeyError, match="unknown city"):
            bundled_config("atlantis")


class TestBprFamily:
    def test_congested_time_example(self):
        assert bpr_time(12.0, 120.0, 1.0, 1.0, 31.2) == pytest.approx(15.12)
        assert bpr_time(12.0, 120.0, 1.0, 1.0, 0.0) == pytest.approx(12.0)
        assert bpr_time(12.0, 120.0, 1.0, 1.0, 120.0) == pytest.approx(24.0)

    def test_derivative_examples(self):
        # affine BPR has a constant slope alpha*t0/c
        assert bpr_time_derivative(12.0, 120.0, 1.0, 1.0, 50.0) == pytest.approx(0.1)
        assert bpr_time_derivative(12.0, 120.0, 1.0, 1.0, 0.0) == pytest.approx(0.1)
        assert bpr_time_derivative(12.0, 120.0, 1.0, 2.0, 0.0) == 0.0

    def test_integral_example(self):
        assert bpr_integral(12.0, 120.0, 1.0, 1.0, 120.0) == pytest.approx(2160.0)
        assert bpr_integral(12.0, 120.0, 1.0, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("beta", BETA_GRID)
    @pytest.mark.parametrize("ratio", RATIO_GRID)
    def test_derivative_matches_central_differences(self, beta, ratio):
        t0, capacity, alpha = 12.0, 120.0, 0.73
        flow = ratio * capacity
        h = 1e-5 * capacity
        numeric = (
            bpr_time(t0, capacity, alpha, beta, flow + h)
            - bpr_time(t0, capacity, alpha, beta, flow - h)
        ) / (2.0 * h)
        exact = bpr_time_derivative(t0, capacity, alpha, beta, flow)
        assert exact == pytest.approx(numeric, rel=1e-6)

    @pytest.mark.parametrize("beta", BETA_GRID)
    @pytest.mark.parametrize("ratio", RATIO_GRID)
    def test_integral_matches_quadrature(self, beta, ratio):
        t0, capacity, alpha = 12.0, 120.0, 0.73
        flow = ratio * capacity
        numeric, err = quad(
            lambda w: float(bpr_time(t0, capacity, alpha, beta, w)),
            0.0, flow, epsabs=1e-10, epsrel=1e-12,
        )
        assert err < 1e-8
        assert bpr_integral(t0, capacity, alpha, beta, flow) == pytest.approx(
            numeric, rel=1e-6)

    @pytest.mark.parametrize("beta", BETA_GRID)
    @pytest.mark.parametrize("ratio", RATIO_GRID)
    def test_integral_derivative_recovers_time(self, beta, ratio):
        t0, capacity, alpha = 12.0, 120.0, 0.73
        flow = ratio * capacity
        h = 1e-5 * capacity
        numeric = (
            bpr_integral(t0, capacity, alpha, beta, flow + h)
            - bpr_integral(t0, capacity, alpha, beta, flow - h)
        ) / (2.0 * h)
        assert numeric == pytest.approx(
            float(bpr_time(t0, capacity, alpha, beta, flow)), rel=1e-6)

    def test_vectorized_over_flows(self):
        flows = np.array([0.0, 60.0, 120.0])
        times = bpr_time(12.0, 120.0, 1.0, 1.0, flows)
        assert np.allclose(times, [12.0, 18.0, 24.0])

    @given(
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=2000.0),
        st.floats(min_value=0.0, max_value=2000.0),
    )
    def test_time_monotone_in_flow(self, beta, x1, x2):
        lo, hi = sorted((x1, x2))
        t_lo = float(bpr_time(10.0, 500.0, 0.5, beta, lo))
        t_hi = float(bpr_time(10.0, 500.0, 0.5, beta, hi))
        assert t_hi >= t_lo - 1e-12


class TestGeneralizedLinkCost:
    ROUTE_A = Link("a", "n1", "n2", length_km=6.0 * 1.609,
                   capacity=120.0, speed_kmh=30.0 * 1.609)
    ROUTE_B = Link("b", "n1", "n2", length_km=7.5 * 1.609,
                   capacity=200.0, speed_kmh=40.0 * 1.609)

    def config(self):
        return CostConfig(
            p_gas=0.0, p_ele=0.0,
            gv_components={"flat": 0.6}, ev_components={"flat": 0.2},
            vot=0.3, bpr_alpha=1.0, bpr_beta=1.0,
        )

    def test_free_flow_route_costs(self):
        cfg = self.config()
        # 0.3 $/min * 12 min + 0.6 $/mi * 6 mi
        assert generalized_link_cost(self.ROUTE_A, 0.0, "gv", cfg) == pytest.approx(7.2)
        # 0.3 $/min * 11.25 min + 0.6 $/mi * 7.5 mi
        assert generalized_link_cost(self.ROUTE_B, 0.0, "gv", cfg) == pytest.approx(7.875)

    def test_zero_class_cost_reduces_to_time(self):
        cfg = CostConfig(p_gas=0.0, p_ele=0.0, gv_components={},
                         ev_components={}, vot=1.0, bpr_alpha=1.0, bpr_beta=1.0)
        cost = generalized_link_cost(self.ROUTE_A, 31.2, "gv", cfg)
        assert cost == pytest.approx(15.12)

    def test_affine_in_class_cost_and_monotone_in_flow(self):
        cfg = self.config()
        gv = generalized_link_cost(self.ROUTE_A, 50.0, "gv", cfg)
        ev = generalized_link_cost(self.ROUTE_A, 50.0, "ev", cfg)
        # same time term; the gap is exactly the per-distance cost gap
        assert gv - ev == pytest.approx((0.6 - 0.2) / cfg.r_dis * self.ROUTE_A.length_km)
        flows = [0.0, 20.0, 80.0, 150.0]
        costs = [generalized_link_cost(self.ROUTE_A, x, "gv", cfg) for x in flows]
        assert costs == sorted(costs)

    def test_unknown_class_rejected(self):
        with pytest.raises(CostConfigError, match="unknown vehicle class"):
            generalized_link_cost(self.ROUTE_A, 0.0, "hovercraft", self.config())
