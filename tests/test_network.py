"""Network model, CSV ingestion, connector generation, shortest paths."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mueflow import fixtures
from mueflow.demand import DemandError, load_od_csv
from mueflow.network import (
    DEFAULT_ROAD_ATTRIBUTES,
    MILES_TO_KM,
    Link,
    Network,
    NetworkValidationError,
    Node,
    Zone,
    bundled_road_attributes,
    centroid_node_id,
    generate_connectors,
    load_network,
    shortest_path,
)

NODES_CSV = """node_id,x,y,coord_system
n1,0.0,0.0,km
n2,9.654,0.0,km
"""

LINKS_CSV = """link_id,from,to,length,length_unit,capacity,free_flow_speed,speed_unit,hierarchy
a,n1,n2,6.0,mi,120,30,mph,highway
b,n1,n2,7.5,mi,200,40,mph,highway
"""

ZONES_CSV = """zone_id,x,y
A,0.0,0.0
B,9.654,0.0
"""


def write_inputs(tmp_path, nodes=NODES_CSV, links=LINKS_CSV, zones=ZONES_CSV):
    paths = {}
    for name, text in (("nodes", nodes), ("links", links), ("zones", zones)):
        p = tmp_path / f"{name}.csv"
        p.write_text(text)
        paths[name] = p
    return paths


class TestUnits:
    def test_mile_link_converts_to_km(self, tmp_path):
        paths = write_inputs(tmp_path)
        net = load_network(paths["nodes"], paths["links"], paths["zones"])
        link = net.links["a"]
        assert link.length_km == pytest.approx(6.0 * 1.609)
        assert link.length_km == pytest.approx(9.654)
        assert link.speed_kmh == pytest.approx(30.0 * 1.609)

    def test_free_flow_time_minutes(self, tmp_path):
        paths = write_inputs(tmp_path)
        net = load_network(paths["nodes"], paths["links"], paths["zones"])
        # 6 mi at 30 mph is 12 minutes regardless of unit system
        assert net.links["a"].free_flow_time == pytest.approx(12.0)
        assert net.links["b"].free_flow_time == pytest.approx(11.25)

    def test_km_units_pass_through(self, tmp_path):
        links = LINKS_CSV.replace("6.0,mi", "6.0,km").replace("30,mph", "30,kmh")
        paths = write_inputs(tmp_path, links=links)
        net = load_network(paths["nodes"], paths["links"], paths["zones"])
        assert net.links["a"].length_km == pytest.approx(6.0)
        assert net.links["a"].speed_kmh == pytest.approx(30.0)

    def test_mile_km_factor(self):
        assert MILES_TO_KM == pytest.approx(1.609)


class TestLoadErrors:
    def test_missing_column(self, tmp_path):
        bad = NODES_CSV.replace("coord_system", "system")
        paths = write_inputs(tmp_path, nodes=bad)
        with pytest.raises(NetworkValidationError, match="missing required columns"):
            load_network(paths["nodes"], paths["links"])

    def test_mixed_coord_systems(self, tmp_path):
        bad = NODES_CSV.replace("9.654,0.0,km", "9.654,0.0,lonlat")
        paths = write_inputs(tmp_path, nodes=bad)
        with pytest.raises(NetworkValidationError, match="mixed coord_system"):
            load_network(paths["nodes"], paths["links"])

    def test_unknown_coord_system(self, tmp_path):
        bad = NODES_CSV.replace(",km", ",made_up")
        paths = write_inputs(tmp_path, nodes=bad)
        with pytest.raises(NetworkValidationError, match="coord_system"):
            load_network(paths["nodes"], paths["links"])

    def test_nonpositive_capacity(self, tmp_path):
        bad = LINKS_CSV.replace("6.0,mi,120", "6.0,mi,0")
        paths = write_inputs(tmp_path, links=bad)
        with pytest.raises(NetworkValidationError, match="capacity"):
            load_network(paths["nodes"], paths["links"])

    def test_non_numeric_length(self, tmp_path):
        bad = LINKS_CSV.replace("a,n1,n2,6.0", "a,n1,n2,six")
        paths = write_inputs(tmp_path, links=bad)
        with pytest.raises(NetworkValidationError, match="length"):
            load_network(paths["nodes"], paths["links"])

    def test_unknown_length_unit(self, tmp_path):
        bad = LINKS_CSV.replace("6.0,mi", "6.0,furlong")
        paths = write_inputs(tmp_path, links=bad)
        with pytest.raises(NetworkValidationError, match="length_unit"):
            load_network(paths["nodes"], paths["links"])

    def test_unknown_speed_unit(self, tmp_path):
        bad = LINKS_CSV.replace("30,mph", "30,knots")
        paths = write_inputs(tmp_path, links=bad)
        with pytest.raises(NetworkValidationError, match="speed_unit"):
            load_network(paths["nodes"], paths["links"])

    def test_dangling_link_endpoint(self, tmp_path):
        bad = LINKS_CSV.replace("b,n1,n2", "b,n1,n9")
        paths = write_inputs(tmp_path, links=bad)
        with pytest.raises(NetworkValidationError, match="unknown to node"):
            load_network(paths["nodes"], paths["links"])

    def test_no_nodes(self, tmp_path):
        paths = write_inputs(tmp_path, nodes="node_id,x,y,coord_system\n")
        with pytest.raises(NetworkValidationError, match="no nodes"):
            load_network(paths["nodes"], paths["links"])

    def test_blank_attributes_need_known_hierarchy(self, tmp_path):
        bad = LINKS_CSV.replace("6.0,mi,120,30,mph,highway", "6.0,mi,,,,alley")
        paths = write_inputs(tmp_path, links=bad)
        with pytest.raises(NetworkValidationError,
                           match="blank capacity and no default for "
                                 "hierarchy 'alley'"):
            load_network(paths["nodes"], paths["links"])
        # a given capacity leaves the blank speed to fail on its own
        bad = LINKS_CSV.replace("6.0,mi,120,30,mph,highway", "6.0,mi,120,,,alley")
        paths = write_inputs(tmp_path, links=bad)
        with pytest.raises(NetworkValidationError,
                           match="blank free_flow_speed and no default for "
                                 "hierarchy 'alley'"):
            load_network(paths["nodes"], paths["links"])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_node_coordinates(self, tmp_path, value):
        bad = NODES_CSV.replace("n2,9.654,", f"n2,{value},")
        paths = write_inputs(tmp_path, nodes=bad)
        with pytest.raises(NetworkValidationError,
                           match="non-finite coordinates for node 'n2'"):
            load_network(paths["nodes"], paths["links"])

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_zone_coordinates(self, tmp_path, value):
        bad = ZONES_CSV.replace("B,9.654,0.0", f"B,9.654,{value}")
        paths = write_inputs(tmp_path, zones=bad)
        with pytest.raises(NetworkValidationError,
                           match="non-finite coordinates for zone 'B'"):
            load_network(paths["nodes"], paths["links"], paths["zones"])

    @pytest.mark.parametrize("kind", ["nodes", "links", "zones", "od"])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_short_or_long_row_names_file_and_line(self, tmp_path, kind,
                                                   extra):
        paths = fixtures.write_fixture_files("dual_route", tmp_path)
        lines = paths[kind].read_text().splitlines()
        cells = lines[1].split(",")
        ragged = cells[:-1] if extra < 0 else cells + ["x"]
        paths[kind].write_text("\n".join(lines + [",".join(ragged)]) + "\n")
        if kind == "od":
            error, load, files = DemandError, load_od_csv, [paths["od"]]
        else:
            error, load = NetworkValidationError, load_network
            files = [paths["nodes"], paths["links"], paths["zones"]]
        with pytest.raises(error,
                           match=f"line {len(lines) + 1}: {len(ragged)} cells, "
                                 f"expected {len(cells)}") as info:
            load(*files)
        assert str(paths[kind]) in str(info.value)

    def test_cells_are_stripped_and_blank_lines_skipped(self, tmp_path):
        nodes = NODES_CSV.replace("n2,9.654,0.0,km", " n2 , 9.654 ,0.0, km\n")
        paths = write_inputs(tmp_path, nodes=nodes)
        net = load_network(paths["nodes"], paths["links"], paths["zones"])
        assert list(net.nodes) == ["n1", "n2"]
        assert net.nodes["n2"].x == 9.654

    def test_rejected_part_names_its_file(self, tmp_path):
        paths = write_inputs(tmp_path, links=LINKS_CSV + "c,n2,n2,1,km,9,9,kmh,local\n")
        with pytest.raises(NetworkValidationError,
                           match="links.csv: link 'c': self loop"):
            load_network(paths["nodes"], paths["links"])

    def test_blank_attributes_fall_back_to_hierarchy(self, tmp_path):
        links = LINKS_CSV.replace("6.0,mi,120,30,mph,highway", "6.0,mi,,,,highway")
        paths = write_inputs(tmp_path, links=links)
        net = load_network(paths["nodes"], paths["links"])
        cap, speed = DEFAULT_ROAD_ATTRIBUTES["highway"]
        assert net.links["a"].capacity == cap
        assert net.links["a"].speed_kmh == speed


class TestNetworkModel:
    def test_duplicate_ids_rejected(self):
        net = Network()
        net.add_node(Node("n1", 0.0, 0.0))
        with pytest.raises(NetworkValidationError, match="duplicate node"):
            net.add_node(Node("n1", 1.0, 1.0))
        net.add_node(Node("n2", 1.0, 0.0))
        net.add_link(Link("e", "n1", "n2", 1.0, 100.0, 60.0))
        with pytest.raises(NetworkValidationError, match="duplicate link"):
            net.add_link(Link("e", "n2", "n1", 1.0, 100.0, 60.0))
        net.add_zone(Zone("z", 0.0, 0.0))
        with pytest.raises(NetworkValidationError, match="duplicate zone"):
            net.add_zone(Zone("z", 1.0, 1.0))

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, -math.inf)])
    def test_non_finite_coordinates_rejected_in_memory(self, x, y):
        # a NaN node would win every nearest-node search of
        # generate_connectors, so it is refused on the way in
        net = Network()
        with pytest.raises(NetworkValidationError,
                           match="non-finite coordinates for node 'a'"):
            net.add_node(Node("a", x, y))
        with pytest.raises(NetworkValidationError,
                           match="non-finite coordinates for zone 'Z'"):
            net.add_zone(Zone("Z", x, y))
        assert not net.nodes and not net.zones

    def test_validate_rejects_self_loop(self):
        net = Network()
        net.add_node(Node("n1", 0.0, 0.0))
        with pytest.raises(NetworkValidationError, match="self loop"):
            net.add_link(Link("e", "n1", "n1", 1.0, 100.0, 60.0))
        assert not net.links

    @pytest.mark.parametrize("link, message", [
        (Link("e", "n0", "n2", 1.0, 100.0, 60.0), "unknown from node 'n0'"),
        (Link("e", "n1", "n9", 1.0, 100.0, 60.0), "unknown to node 'n9'"),
        (Link("e", "n1", "n2", 0.0, 100.0, 60.0),
         "length_km 0.0 is not positive and finite"),
        (Link("e", "n1", "n2", math.nan, 100.0, 60.0), "length_km nan"),
        (Link("e", "n1", "n2", math.inf, 100.0, 60.0), "length_km inf"),
        (Link("e", "n1", "n2", 1.0, -100.0, 60.0), "capacity -100.0"),
        (Link("e", "n1", "n2", 1.0, 100.0, 0.0), "speed_kmh 0.0"),
    ], ids=["from-node", "to-node", "length", "nan-length", "inf-length",
            "capacity", "speed"])
    def test_add_link_refuses_a_bad_link(self, link, message):
        net = Network()
        net.add_node(Node("n1", 0.0, 0.0))
        net.add_node(Node("n2", 1.0, 0.0))
        with pytest.raises(NetworkValidationError,
                           match=f"link 'e': {message}"):
            net.add_link(link)
        assert not net.links

    @pytest.mark.parametrize("zone", [
        Zone("Z", 0.0, 0.0, attached_node="n9"),
        Zone("Z", 0.0, 0.0, centroid_node="n9"),
    ], ids=["attached", "centroid"])
    def test_add_zone_refuses_an_unknown_node(self, zone):
        net = Network()
        net.add_node(Node("n1", 0.0, 0.0))
        with pytest.raises(NetworkValidationError,
                           match="zone 'Z': unknown node 'n9'"):
            net.add_zone(zone)
        assert not net.zones

    def test_unknown_coord_system_rejected_in_memory(self):
        with pytest.raises(NetworkValidationError,
                           match="coord_system must be 'km' or 'lonlat', "
                                 "got 'utm'"):
            Network(coord_system="utm")

    def test_planar_distance(self):
        net = Network()
        assert net.distance_km((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_lonlat_distance_equirectangular(self):
        net = Network(coord_system="lonlat")
        # one degree of latitude is ~111.19 km on a 6371 km sphere
        d = net.distance_km((0.0, 0.0), (0.0, 1.0))
        assert d == pytest.approx(6371.0 * math.pi / 180.0, rel=1e-12)

    def test_array_views_align_with_insertion_order(self, dual_case):
        net, _, _ = dual_case
        ids = net.link_ids
        lengths = net.lengths_km()
        for i, lid in enumerate(ids):
            assert lengths[i] == net.links[lid].length_km
        assert net.connector_mask().sum() == 2 * len(net.zones)

    def test_bundled_road_attributes(self):
        table = bundled_road_attributes()
        assert "san_francisco" in table
        sf = bundled_road_attributes("san_francisco")
        assert set(sf) >= {"expressway", "highway", "local"}
        cap, speed = sf["highway"]
        assert cap > 0 and speed > 0
        with pytest.raises(KeyError, match="unknown city"):
            bundled_road_attributes("atlantis")


class TestConnectors:
    def make_net(self):
        net = Network()
        net.add_node(Node("n1", 0.0, 0.0))
        net.add_node(Node("n2", 10.0, 0.0))
        net.add_link(Link("e12", "n1", "n2", 10.0, 1000.0, 60.0))
        net.add_link(Link("e21", "n2", "n1", 10.0, 1000.0, 60.0))
        net.add_zone(Zone("Z1", 1.0, 0.0))
        net.add_zone(Zone("Z2", 9.0, 0.0))
        return net

    def test_two_connectors_per_zone(self):
        net = generate_connectors(self.make_net())
        connectors = [l for l in net.links.values() if l.connector]
        assert len(connectors) == 2 * len(net.zones)
        assert net.zones["Z1"].attached_node == "n1"
        assert net.zones["Z2"].attached_node == "n2"
        assert net.zones["Z1"].centroid_node == centroid_node_id("Z1")

    def test_idempotent(self):
        net = generate_connectors(self.make_net())
        before = set(net.links)
        generate_connectors(net)
        assert set(net.links) == before

    def test_distance_tie_broken_by_node_id(self):
        net = self.make_net()
        net.add_zone(Zone("Zmid", 5.0, 0.0))  # equidistant from n1 and n2
        generate_connectors(net)
        assert net.zones["Zmid"].attached_node == "n1"

    def test_coincident_zone_gets_clamped_length(self):
        net = self.make_net()
        net.add_zone(Zone("Zon", 0.0, 0.0))  # sits exactly on n1
        generate_connectors(net)
        out = net.links["connector:Zon:out"]
        assert out.length_km == pytest.approx(1e-6)
        assert out.free_flow_time > 0.0

    def test_empty_network_rejected(self):
        with pytest.raises(NetworkValidationError, match="no nodes"):
            generate_connectors(Network())

    @staticmethod
    def scalar_nearest(net, zone):
        """The documented rule, node by node: (distance, node id)."""
        best = None
        for node in net.nodes.values():
            if node.id.startswith("centroid:"):
                continue
            d = net.distance_km((zone.x, zone.y), (node.x, node.y))
            if best is None or d < best[0] or (d == best[0]
                                               and node.id < best[1]):
                best = (d, node.id)
        return best

    def assert_scalar_rule(self, net):
        want = {z.id: self.scalar_nearest(net, z) for z in net.zones.values()}
        generate_connectors(net)
        for zid, (dist, nearest) in want.items():
            assert net.zones[zid].attached_node == nearest
            out = net.links[f"connector:{zid}:out"]
            assert out.to_node == nearest
            assert out.length_km == max(dist, 1e-6)

    @staticmethod
    def bare(nodes, zones, coord_system="km"):
        net = Network(coord_system=coord_system)
        for nid, x, y in nodes:
            net.add_node(Node(nid, x, y))
        for zid, x, y in zones:
            net.add_zone(Zone(zid, x, y))
        return net

    @pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
    def test_every_fixture_follows_the_scalar_rule(self, name):
        built, _ = fixtures.FIXTURES[name][0]()
        net = self.bare(
            [(n.id, n.x, n.y) for n in built.nodes.values()
             if not n.id.startswith("centroid:")],
            [(z.id, z.x, z.y) for z in built.zones.values()],
            built.coord_system)
        assert net.zones
        self.assert_scalar_rule(net)

    def test_duplicate_coordinates_tie_on_the_smallest_id(self):
        # a small lattice: many nodes share a point, and zones sit on
        # nodes (distance 0) or between them (several equal distances)
        rng = np.random.default_rng(3)
        points = rng.integers(0, 4, size=(60, 2)).astype(float)
        ids = rng.permutation(60)
        nodes = [(f"n{i:02d}", x, y) for i, (x, y) in zip(ids, points)]
        zones = [(f"z{j}", x, y) for j, (x, y) in enumerate(
            rng.integers(0, 8, size=(40, 2)) / 2.0)]
        self.assert_scalar_rule(self.bare(nodes, zones))

    def test_the_numpy_row_does_not_decide(self):
        # a node at (dx, dy) and one at (h, 0), h = math.hypot(dx, dy):
        # equal scalar distances from the origin, a tie the ids break,
        # where numpy's hypot rounds (dx, dy) one unit off
        rng = np.random.default_rng(7)
        while True:
            dx, dy = rng.uniform(0.0, 10.0, 2).tolist()
            h = math.hypot(dx, dy)
            if np.hypot(dx, dy) != h:
                break
        # the scalar tie goes to "a": the node numpy puts farther
        near, far = ("a", "b") if np.hypot(dx, dy) > h else ("b", "a")
        net = self.bare([(near, dx, dy), (far, h, 0.0)], [("Z", 0.0, 0.0)])
        self.assert_scalar_rule(net)
        assert net.zones["Z"].attached_node == "a"

    def test_lonlat_coordinates(self):
        # nodes mirrored about a zone's meridian are at equal distances
        # in exact arithmetic; the scalar rounding decides, as before
        rng = np.random.default_rng(5)
        lon, lat = -122.42, 37.77
        offsets = rng.uniform(-0.05, 0.05, size=(80, 2))
        nodes = [(f"n{i}", lon + dx, lat + dy)
                 for i, (dx, dy) in enumerate(offsets)]
        nodes += [(f"m{i}", lon - dx, lat + dy)
                  for i, (dx, dy) in enumerate(offsets[:20])]
        zones = [(f"z{j}", lon + dx, lat + dy) for j, (dx, dy) in
                 enumerate(rng.uniform(-0.06, 0.06, size=(30, 2)))]
        zones += [(f"on{i}", x, y) for i, (_, x, y) in enumerate(nodes[:5])]
        zones += [("axis", lon, lat)]
        self.assert_scalar_rule(self.bare(nodes, zones, "lonlat"))


class TestShortestPath:
    def make_net(self):
        net = Network()
        for nid, x in (("n1", 0.0), ("n2", 1.0), ("n3", 2.0)):
            net.add_node(Node(nid, x, 0.0))
        net.add_link(Link("fast", "n1", "n3", 2.0, 100.0, 120.0))  # 1 min
        net.add_link(Link("s1", "n1", "n2", 1.0, 100.0, 60.0))  # 1 min
        net.add_link(Link("s2", "n2", "n3", 1.0, 100.0, 60.0))  # 1 min
        return net

    def test_free_flow_default(self):
        cost, links = shortest_path(self.make_net(), "n1", "n3")
        assert cost == pytest.approx(1.0)
        assert links == ["fast"]

    def test_custom_costs_reroute(self):
        net = self.make_net()
        cost, links = shortest_path(net, "n1", "n3",
                                    {"fast": 10.0, "s1": 1.0, "s2": 1.0})
        assert cost == pytest.approx(2.0)
        assert links == ["s1", "s2"]

    def test_unreachable(self):
        net = self.make_net()
        cost, links = shortest_path(net, "n3", "n1")
        assert math.isinf(cost) and links == []

    def test_unknown_node_rejected(self):
        net = self.make_net()
        with pytest.raises(ValueError, match="unknown origin node 'nope'"):
            shortest_path(net, "nope", "n3")
        with pytest.raises(ValueError, match="unknown destination node 'nope'"):
            shortest_path(net, "n1", "nope")

    def test_cost_mapping_must_cover_every_link(self):
        net = self.make_net()
        with pytest.raises(ValueError, match=r"no cost for links \['s2'\]"):
            shortest_path(net, "n1", "n3", {"fast": 10.0, "s1": 1.0})

    def test_cost_mapping_must_name_only_links(self):
        net = self.make_net()
        with pytest.raises(ValueError, match=r"unknown links \['typo'\]"):
            shortest_path(net, "n1", "n3",
                          {"fast": 1.0, "s1": 1.0, "s2": 1.0, "typo": -5.0})

    def test_nan_costs_rejected(self, dual_case):
        net = self.make_net()
        with pytest.raises(ValueError, match="NaN"):
            shortest_path(net, "n1", "n3", [math.nan, 1.0, 1.0])
        # all-NaN costs must not read as (inf, []), "no path exists"
        dual_net, _, _ = dual_case
        with pytest.raises(ValueError, match="NaN"):
            shortest_path(dual_net, "n1", "n2",
                          np.full(dual_net.n_links, math.nan))

    def test_equal_cost_tie_prefers_smaller_link_ids(self):
        net = Network()
        net.add_node(Node("n1", 0.0, 0.0))
        net.add_node(Node("n2", 1.0, 0.0))
        net.add_link(Link("z", "n1", "n2", 1.0, 100.0, 60.0))
        net.add_link(Link("a", "n1", "n2", 1.0, 100.0, 60.0))
        cost, links = shortest_path(net, "n1", "n2")
        assert cost == pytest.approx(1.0)
        assert links == ["a"]

    def test_a_network_without_links(self):
        # no arc to relax: every other node is unreachable, the origin
        # itself is reached by the empty path
        net = Network()
        net.add_node(Node("a", 0.0, 0.0))
        net.add_node(Node("b", 1.0, 0.0))
        cost, links = shortest_path(net, "a", "b")
        assert math.isinf(cost) and links == []
        assert shortest_path(net, "a", "a") == (0.0, [])
