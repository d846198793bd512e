"""Bundled synthetic networks for tests, benchmarks, and demos.

Every builder returns ``(network, od)`` with connectors already
generated; the matching cost-config builders live alongside.  Numbers
are frozen by hand so equilibria are known in closed form where the
tests need them.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path

import numpy as np

from .cost import CostConfig, dump_cost_config
from .demand import ODMatrix
from .network import (
    DEFAULT_ROAD_ATTRIBUTES,
    Link,
    Network,
    Node,
    Zone,
    generate_connectors,
)


def _finish(net: Network, entries) -> tuple[Network, ODMatrix]:
    net.validate()
    generate_connectors(net)
    od = ODMatrix()
    for origin, dest, demand in entries:
        od.add(origin, dest, demand)
    return net, od


def flat_cost_config(gv_per_mile: float, ev_per_mile: float, *,
                     vot: float = 0.3, alpha: float = 1.0, beta: float = 1.0,
                     r_dis: float = 1.609, name: str = "") -> CostConfig:
    """Config whose class costs are single flat per-mile numbers."""
    return CostConfig(
        p_gas=0.0,
        p_ele=0.0,
        gv_components={"flat": gv_per_mile},
        ev_components={"flat": ev_per_mile},
        r_dis=r_dis,
        vot=vot,
        bpr_alpha=alpha,
        bpr_beta=beta,
        name=name,
    )


def time_only_config(*, alpha: float = 1.0, beta: float = 1.0,
                     vot: float = 1.0) -> CostConfig:
    """Zero operating costs: generalized cost reduces to travel time."""
    return flat_cost_config(0.0, 0.0, vot=vot, alpha=alpha, beta=beta,
                            name="time_only")


# -- two parallel routes -------------------------------------------------


def dual_route() -> tuple[Network, ODMatrix]:
    """Two parallel routes between one OD pair, 100 veh/h.

    Route a: 6.0 mi at 30 mph (12.0 min free flow), capacity 120.
    Route b: 7.5 mi at 40 mph (11.25 min), capacity 200.  With alpha=1,
    beta=1 the time-only split is (31.2, 68.8) at 15.12 min and the
    0.6 $/mi, 0.3 $/min case moves it to (50.4, 49.6).
    """
    net = Network()
    net.add_node(Node("n1", 0.0, 0.0))
    net.add_node(Node("n2", 9.654, 0.0))
    net.add_link(Link("a", "n1", "n2", length_km=6.0 * 1.609,
                      capacity=120.0, speed_kmh=30.0 * 1.609,
                      hierarchy="highway"))
    net.add_link(Link("b", "n1", "n2", length_km=7.5 * 1.609,
                      capacity=200.0, speed_kmh=40.0 * 1.609,
                      hierarchy="highway"))
    net.add_zone(Zone("A", 0.0, 0.0))
    net.add_zone(Zone("B", 9.654, 0.0))
    return _finish(net, [("A", "B", 100.0)])


def dual_route_config(gv_per_mile: float = 0.6, ev_per_mile: float = 0.2,
                      *, vot: float = 0.3, alpha: float = 1.0,
                      beta: float = 1.0) -> CostConfig:
    return flat_cost_config(gv_per_mile, ev_per_mile, vot=vot, alpha=alpha,
                            beta=beta, name="dual_route")


# -- braess-style 4-node diamond -----------------------------------------


def braess() -> tuple[Network, ODMatrix]:
    """Diamond with a shortcut; 60 veh/h from z1 to z4.

    With the time-only config (alpha=1, beta=1) all three paths carry
    flow: the outer paths get 420/31 veh/h each and the shortcut path
    1020/31.
    """
    net = Network()
    net.add_node(Node("n1", 0.0, 0.0))
    net.add_node(Node("n2", 1.0, 0.5))
    net.add_node(Node("n3", 1.0, -0.5))
    net.add_node(Node("n4", 2.0, 0.0))
    cheap = dict(length_km=0.5, capacity=6.0, speed_kmh=30.0, hierarchy="local")
    wide = dict(length_km=10.0, capacity=900.0, speed_kmh=40.0, hierarchy="highway")
    net.add_link(Link("e1", "n1", "n2", **cheap))
    net.add_link(Link("e2", "n3", "n4", **cheap))
    net.add_link(Link("e3", "n1", "n3", **wide))
    net.add_link(Link("e4", "n2", "n4", **wide))
    net.add_link(Link("e5", "n2", "n3", **cheap))
    net.add_zone(Zone("z1", 0.0, 0.0))
    net.add_zone(Zone("z4", 2.0, 0.0))
    return _finish(net, [("z1", "z4", 60.0)])


# -- 3x3 directed grid with a hand-designed equilibrium ------------------

# Free-flow times and capacities are reverse-engineered so that, with
# grid3x3_config() and demand split evenly between classes, the
# equilibrium path flows land exactly on a 0.1 veh/h grid (GV spreads
# over the short paths, EV over the fast ones).  Tests enumerate that
# grid as an independent oracle.
_GRID3_LINKS = [
    # (id, from, to, length km, free-flow min, capacity veh/h)
    ("r00", "n00", "n01", 1.0, 1.00, 6.2),
    ("r01", "n01", "n02", 1.0, 0.80, 3.7),
    ("r10", "n10", "n11", 1.2, 0.85, 1.8),
    ("r11", "n11", "n12", 1.2, 0.60, 8.3),
    ("r20", "n20", "n21", 1.4, 2.50, 5.0),
    ("r21", "n21", "n22", 1.4, 2.50, 5.0),
    ("d00", "n00", "n10", 1.4, 0.95, 1.8),
    ("d10", "n10", "n20", 1.4, 2.50, 5.0),
    ("d01", "n01", "n11", 1.2, 0.85, 6.5),
    ("d11", "n11", "n21", 1.2, 2.50, 5.0),
    ("d02", "n02", "n12", 1.0, 1.00, 7.4),
    ("d12", "n12", "n22", 1.0, 1.20, 12.0),
]


def grid3x3() -> tuple[Network, ODMatrix]:
    """Directed 3x3 grid (right/down only), two OD pairs."""
    net = Network()
    for i in range(3):
        for j in range(3):
            net.add_node(Node(f"n{i}{j}", float(j), -float(i)))
    for lid, src, dst, length, t0, cap in _GRID3_LINKS:
        net.add_link(Link(lid, src, dst, length_km=length, capacity=cap,
                          speed_kmh=60.0 * length / t0, hierarchy="local"))
    net.add_zone(Zone("A", 0.0, 0.0))
    net.add_zone(Zone("B", 1.0, 0.0))
    net.add_zone(Zone("C", 2.0, -2.0))
    return _finish(net, [("A", "C", 8.0), ("B", "C", 4.0)])


def grid3x3_config() -> CostConfig:
    """Unit value of time, 0.5/0.25 $ per km class costs, affine BPR."""
    return flat_cost_config(0.5, 0.25, vot=1.0, alpha=1.0, beta=1.0,
                            r_dis=1.0, name="grid3x3")


# -- 10x10 bidirectional grid --------------------------------------------


def grid10x10() -> tuple[Network, ODMatrix]:
    """Bidirectional 10x10 grid, 20 zones, 50 OD pairs (seeded)."""
    net = Network()
    for i in range(10):
        for j in range(10):
            net.add_node(Node(f"n{i}{j}", float(j), -float(i)))

    def road(i, j, horizontal):
        if horizontal:
            return "expressway" if i % 3 == 0 else "highway"
        return "expressway" if j % 3 == 0 else "highway"

    for i in range(10):
        for j in range(9):
            h = road(i, j, True)
            cap, speed = DEFAULT_ROAD_ATTRIBUTES[h]
            net.add_link(Link(f"h{i}{j}>", f"n{i}{j}", f"n{i}{j + 1}", 1.0,
                              cap, speed, h))
            net.add_link(Link(f"h{i}{j}<", f"n{i}{j + 1}", f"n{i}{j}", 1.0,
                              cap, speed, h))
    for i in range(9):
        for j in range(10):
            h = road(i, j, False)
            cap, speed = DEFAULT_ROAD_ATTRIBUTES[h]
            net.add_link(Link(f"v{i}{j}>", f"n{i}{j}", f"n{i + 1}{j}", 1.0,
                              cap, speed, h))
            net.add_link(Link(f"v{i}{j}<", f"n{i + 1}{j}", f"n{i}{j}", 1.0,
                              cap, speed, h))

    zone_nodes = [
        (i, j) for i, j in itertools.product((0, 2, 4, 7, 9), (0, 3, 6, 9))
    ]
    for i, j in zone_nodes:
        net.add_zone(Zone(f"z{i}{j}", float(j), -float(i)))

    rng = np.random.default_rng(11)
    zone_ids = [f"z{i}{j}" for i, j in zone_nodes]
    pairs: list[tuple[str, str]] = []
    while len(pairs) < 50:
        a, b = rng.choice(len(zone_ids), size=2, replace=False)
        pair = (zone_ids[int(a)], zone_ids[int(b)])
        if pair not in pairs:
            pairs.append(pair)
    entries = [
        (o, d, float(np.round(rng.uniform(100.0, 600.0), 1)))
        for o, d in pairs
    ]
    return _finish(net, entries)


def grid10x10_config() -> CostConfig:
    return flat_cost_config(0.9, 0.3, vot=0.3, alpha=0.5, beta=1.5,
                            name="grid10x10")


# -- mini city -----------------------------------------------------------


def mini_city() -> tuple[Network, ODMatrix]:
    """24x24 bidirectional grid: 2208 road links, 100 zones, 250 OD pairs."""
    n = 24
    net = Network()
    for i in range(n):
        for j in range(n):
            net.add_node(Node(f"n{i:02d}{j:02d}", 0.7 * j, -0.7 * i))

    def road(i, j):
        if i % 6 == 0 or j % 6 == 0:
            return "expressway"
        if (i + j) % 2 == 1:
            return "local"
        return "highway"

    def length(i, j):
        return 0.5 + 0.25 * ((i + j) % 3)

    for i in range(n):
        for j in range(n - 1):
            h = road(i, j)
            cap, speed = DEFAULT_ROAD_ATTRIBUTES[h]
            lk = length(i, j)
            net.add_link(Link(f"h{i:02d}{j:02d}>", f"n{i:02d}{j:02d}",
                              f"n{i:02d}{j + 1:02d}", lk, cap, speed, h))
            net.add_link(Link(f"h{i:02d}{j:02d}<", f"n{i:02d}{j + 1:02d}",
                              f"n{i:02d}{j:02d}", lk, cap, speed, h))
    for i in range(n - 1):
        for j in range(n):
            h = road(i, j)
            cap, speed = DEFAULT_ROAD_ATTRIBUTES[h]
            lk = length(i, j)
            net.add_link(Link(f"v{i:02d}{j:02d}>", f"n{i:02d}{j:02d}",
                              f"n{i + 1:02d}{j:02d}", lk, cap, speed, h))
            net.add_link(Link(f"v{i:02d}{j:02d}<", f"n{i + 1:02d}{j:02d}",
                              f"n{i:02d}{j:02d}", lk, cap, speed, h))

    for i in range(1, 20, 2):
        for j in range(1, 20, 2):
            net.add_zone(Zone(f"z{i:02d}{j:02d}", 0.7 * j, -0.7 * i))

    rng = np.random.default_rng(23)
    zone_ids = list(net.zones)
    seen = set()
    entries = []
    while len(entries) < 250:
        a, b = rng.choice(len(zone_ids), size=2, replace=False)
        pair = (zone_ids[int(a)], zone_ids[int(b)])
        if pair in seen:
            continue
        seen.add(pair)
        entries.append((*pair, float(np.round(rng.uniform(40.0, 160.0), 1))))
    return _finish(net, entries)


def mini_city_config() -> CostConfig:
    return flat_cost_config(0.89, 0.32, vot=0.3, alpha=0.5, beta=1.5,
                            name="mini_city")


FIXTURES = {
    "dual_route": (dual_route, dual_route_config),
    "braess": (braess, time_only_config),
    "grid3x3": (grid3x3, grid3x3_config),
    "grid10x10": (grid10x10, grid10x10_config),
    "mini_city": (mini_city, mini_city_config),
}


# -- file emission for the CLI -------------------------------------------


def write_fixture_files(name: str, outdir) -> dict:
    """Materialize a bundled fixture as the documented CSV/JSON files.

    Connector links and centroid nodes are left out; loading the files
    and regenerating connectors reproduces the in-memory fixture.
    Returns {kind: path}.
    """
    try:
        build_network, build_config = FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; available: {sorted(FIXTURES)}")
    network, od = build_network()
    config = build_config()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "nodes": outdir / "nodes.csv",
        "links": outdir / "links.csv",
        "zones": outdir / "zones.csv",
        "od": outdir / "od.csv",
        "cost": outdir / "cost.json",
    }

    with open(paths["nodes"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node_id", "x", "y", "coord_system"])
        for node in network.nodes.values():
            if node.id.startswith("centroid:"):
                continue
            w.writerow([node.id, repr(node.x), repr(node.y),
                        network.coord_system])

    with open(paths["links"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["link_id", "from", "to", "length", "length_unit",
                    "capacity", "free_flow_speed", "speed_unit", "hierarchy"])
        for link in network.links.values():
            if link.connector:
                continue
            w.writerow([link.id, link.from_node, link.to_node,
                        repr(link.length_km), "km", repr(link.capacity),
                        repr(link.speed_kmh), "kmh", link.hierarchy])

    with open(paths["zones"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["zone_id", "x", "y"])
        for zone in network.zones.values():
            w.writerow([zone.id, repr(zone.x), repr(zone.y)])

    with open(paths["od"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["origin_zone", "destination_zone", "demand"])
        for (origin, dest), demand in od.pairs():
            w.writerow([origin, dest, repr(demand)])

    dump_cost_config(config, paths["cost"])
    return paths
