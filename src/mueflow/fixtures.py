"""Bundled synthetic networks for tests, benchmarks, and demos.

Every builder returns ``(network, od)`` with connectors already
generated; the matching cost-config builders live alongside.  Numbers
are frozen by hand so equilibria are known in closed form where the
tests need them.  ``grid10x10`` and ``mini_city`` both build their
roads and zones with ``_grid``; each draws its own seeded OD matrix.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path

import numpy as np

from .cost import MILES_TO_KM, CostConfig, dump_cost_config
from .demand import OD_COLUMNS, ODMatrix
from .network import (
    DEFAULT_ROAD_ATTRIBUTES,
    LINK_COLUMNS,
    NODE_COLUMNS,
    ZONE_COLUMNS,
    Link,
    Network,
    Node,
    Zone,
    generate_connectors,
)


def _finish(net: Network, entries) -> tuple[Network, ODMatrix]:
    return generate_connectors(net), ODMatrix(entries)


def flat_cost_config(gv_per_mile: float, ev_per_mile: float, *,
                     vot: float = 0.3, alpha: float = 1.0, beta: float = 1.0,
                     r_dis: float = MILES_TO_KM, name: str = "") -> CostConfig:
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
    net.add_link(Link("a", "n1", "n2", length_km=6.0 * MILES_TO_KM,
                      capacity=120.0, speed_kmh=30.0 * MILES_TO_KM,
                      hierarchy="highway"))
    net.add_link(Link("b", "n1", "n2", length_km=7.5 * MILES_TO_KM,
                      capacity=200.0, speed_kmh=40.0 * MILES_TO_KM,
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


# -- bidirectional grids ------------------------------------------------


def _grid(n, step, width, road, length, zone_cells) -> Network:
    """Bidirectional ``n`` x ``n`` grid, ``step`` km between neighbours.

    Node ``(i, j)`` is ``n{i}{j}`` (each index formatted with ``width``)
    at ``(step * j, -step * i)``.  Every horizontal neighbour pair, then
    every vertical one, gets a ``>`` and a ``<`` link named after the
    pair's first node; its hierarchy is ``road(i, j, horizontal)``, its
    length ``length(i, j)``, its capacity and speed the hierarchy's
    :data:`DEFAULT_ROAD_ATTRIBUTES`.  A zone ``z{i}{j}`` sits on each of
    ``zone_cells``, in that order.
    """
    def cell(i, j):
        return f"{i:{width}}{j:{width}}"

    net = Network()
    for i in range(n):
        for j in range(n):
            net.add_node(Node(f"n{cell(i, j)}", step * j, -step * i))
    for kind, di, dj in (("h", 0, 1), ("v", 1, 0)):
        for i in range(n - di):
            for j in range(n - dj):
                h = road(i, j, kind == "h")
                cap, speed = DEFAULT_ROAD_ATTRIBUTES[h]
                lid, lk = f"{kind}{cell(i, j)}", length(i, j)
                a, b = f"n{cell(i, j)}", f"n{cell(i + di, j + dj)}"
                net.add_link(Link(f"{lid}>", a, b, lk, cap, speed, h))
                net.add_link(Link(f"{lid}<", b, a, lk, cap, speed, h))
    for i, j in zone_cells:
        net.add_zone(Zone(f"z{cell(i, j)}", step * j, -step * i))
    return net


def grid10x10() -> tuple[Network, ODMatrix]:
    """Bidirectional 10x10 grid, 20 zones, 50 OD pairs (seeded)."""

    def road(i, j, horizontal):
        return "expressway" if (i if horizontal else j) % 3 == 0 else "highway"

    net = _grid(10, 1.0, "", road, lambda i, j: 1.0,
                itertools.product((0, 2, 4, 7, 9), (0, 3, 6, 9)))
    rng = np.random.default_rng(11)
    zone_ids = list(net.zones)
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


def mini_city() -> tuple[Network, ODMatrix]:
    """24x24 bidirectional grid: 2208 road links, 100 zones, 250 OD pairs."""

    def road(i, j, horizontal):
        if i % 6 == 0 or j % 6 == 0:
            return "expressway"
        if (i + j) % 2 == 1:
            return "local"
        return "highway"

    def length(i, j):
        return 0.5 + 0.25 * ((i + j) % 3)

    net = _grid(24, 0.7, "02d", road, length,
                itertools.product(range(1, 20, 2), repeat=2))
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


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows``, with ``csv.writer``'s CRLF line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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

    _write_csv(paths["nodes"], NODE_COLUMNS, (
        [node.id, repr(node.x), repr(node.y), network.coord_system]
        for node in network.nodes.values()
        if not node.id.startswith("centroid:")))
    _write_csv(paths["links"], LINK_COLUMNS, (
        [link.id, link.from_node, link.to_node, repr(link.length_km), "km",
         repr(link.capacity), repr(link.speed_kmh), "kmh", link.hierarchy]
        for link in network.links.values() if not link.connector))
    _write_csv(paths["zones"], ZONE_COLUMNS, (
        [zone.id, repr(zone.x), repr(zone.y)]
        for zone in network.zones.values()))
    _write_csv(paths["od"], OD_COLUMNS, (
        [origin, dest, repr(demand)] for (origin, dest), demand in od.pairs()))
    dump_cost_config(config, paths["cost"])
    return paths
