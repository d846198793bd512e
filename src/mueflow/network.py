"""Road network model: nodes, directed links, zones, and adjacency.

Internal units are kilometres, minutes, and veh/h throughout.  CSV
ingestion converts miles and mph at the door (``cost.MILES_TO_KM``) so
no other module ever sees imperial units.  Zones couple travel demand to
the graph through generated centroid nodes and connector links.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import _kernels
from .cost import MILES_TO_KM
EARTH_RADIUS_KM = 6371.0

CONNECTOR_CAPACITY = 1.0e6  # veh/h, effectively uncongested
CONNECTOR_SPEED_KMH = 40.0
MIN_LINK_LENGTH_KM = 1.0e-6  # clamp for coincident centroid/node pairs

#: capacity (veh/h) and free-flow speed (km/h) applied when a links CSV
#: leaves capacity/speed blank, keyed by hierarchy tag
DEFAULT_ROAD_ATTRIBUTES = {
    "expressway": (2200.0, 90.0),
    "highway": (2000.0, 60.0),
    "local": (1400.0, 40.0),
}

#: header of each input file :func:`load_network` reads
NODE_COLUMNS = ["node_id", "x", "y", "coord_system"]
LINK_COLUMNS = ["link_id", "from", "to", "length", "length_unit", "capacity",
                "free_flow_speed", "speed_unit", "hierarchy"]
ZONE_COLUMNS = ["zone_id", "x", "y"]


class NetworkValidationError(ValueError):
    """Raised when a network or its source files violate the schema."""


@dataclass(frozen=True)
class Node:
    id: str
    x: float
    y: float


@dataclass(frozen=True)
class Link:
    id: str
    from_node: str
    to_node: str
    length_km: float
    capacity: float
    speed_kmh: float
    hierarchy: str = ""
    connector: bool = False

    @property
    def free_flow_time(self) -> float:
        """Free-flow traversal time in minutes."""
        return 60.0 * self.length_km / self.speed_kmh


@dataclass
class Zone:
    id: str
    x: float
    y: float
    attached_node: str | None = None
    centroid_node: str | None = None


class Network:
    """Directed network with insertion-ordered nodes, links, and zones.

    Each part is checked once, by the ``add_*`` method that adds it; the
    ``nodes``, ``links`` and ``zones`` dicts are not written directly.
    Add the nodes before the links and zones that name them.
    """

    def __init__(self, coord_system: str = "km"):
        if coord_system not in ("km", "lonlat"):
            raise NetworkValidationError(
                f"coord_system must be 'km' or 'lonlat', got {coord_system!r}"
            )
        self.coord_system = coord_system
        self.nodes: dict[str, Node] = {}
        self.links: dict[str, Link] = {}
        self.zones: dict[str, Zone] = {}
        self._csr = None

    # -- construction -------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.id in self.nodes:
            raise NetworkValidationError(f"duplicate node id {node.id!r}")
        _require_finite(f"node {node.id!r}", node.x, node.y)
        self.nodes[node.id] = node
        self._csr = None

    def add_link(self, link: Link) -> None:
        """Add ``link``; its end nodes must be distinct nodes already added
        and its length, capacity and speed positive and finite."""
        if link.id in self.links:
            raise NetworkValidationError(f"duplicate link id {link.id!r}")
        for role, node in (("from", link.from_node), ("to", link.to_node)):
            if node not in self.nodes:
                raise NetworkValidationError(
                    f"link {link.id!r}: unknown {role} node {node!r}")
        if link.from_node == link.to_node:
            raise NetworkValidationError(f"link {link.id!r}: self loop")
        for what in ("length_km", "capacity", "speed_kmh"):
            value = getattr(link, what)
            if not 0.0 < value < math.inf:
                raise NetworkValidationError(
                    f"link {link.id!r}: {what} {value!r} is not positive and finite")
        self.links[link.id] = link
        self._csr = None

    def add_zone(self, zone: Zone) -> None:
        """Add ``zone``; a node it names must already be added."""
        if zone.id in self.zones:
            raise NetworkValidationError(f"duplicate zone id {zone.id!r}")
        _require_finite(f"zone {zone.id!r}", zone.x, zone.y)
        for ref in (zone.attached_node, zone.centroid_node):
            if ref is not None and ref not in self.nodes:
                raise NetworkValidationError(
                    f"zone {zone.id!r}: unknown node {ref!r}")
        self.zones[zone.id] = zone

    # -- basic views ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def link_ids(self) -> list[str]:
        return list(self.links)

    def lengths_km(self) -> np.ndarray:
        return np.array([l.length_km for l in self.links.values()])

    def capacities(self) -> np.ndarray:
        return np.array([l.capacity for l in self.links.values()])

    def free_flow_times(self) -> np.ndarray:
        return np.array([l.free_flow_time for l in self.links.values()])

    def connector_mask(self) -> np.ndarray:
        return np.array([l.connector for l in self.links.values()], dtype=bool)

    # -- geometry ------------------------------------------------------

    def distance_km(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        """Straight-line distance between two coordinate pairs in km.

        Planar coordinates are taken as-is; lon/lat pairs go through an
        equirectangular approximation, adequate at city scale.
        """
        if self.coord_system == "km":
            return math.hypot(b[0] - a[0], b[1] - a[1])
        lon1, lat1 = a
        lon2, lat2 = b
        mean_lat = math.radians(0.5 * (lat1 + lat2))
        dx = math.radians(lon2 - lon1) * math.cos(mean_lat) * EARTH_RADIUS_KM
        dy = math.radians(lat2 - lat1) * EARTH_RADIUS_KM
        return math.hypot(dx, dy)

    def zone_distance_km(self, zone_a: str, zone_b: str) -> float:
        za, zb = self.zones[zone_a], self.zones[zone_b]
        return self.distance_km((za.x, za.y), (zb.x, zb.y))

    # -- adjacency -----------------------------------------------------

    def csr(self):
        """CSR adjacency (indptr, heads, link slots) plus index maps.

        Outgoing arcs of each node are ordered by link id so that ties
        between equal-cost paths resolve toward the lexicographically
        smallest link id sequence, deterministically.
        """
        if self._csr is None:
            node_index = {nid: i for i, nid in enumerate(self.nodes)}
            link_index = {lid: i for i, lid in enumerate(self.links)}
            out: list[list[tuple[str, str]]] = [[] for _ in self.nodes]
            for link in self.links.values():
                out[node_index[link.from_node]].append((link.id, link.to_node))
            indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
            heads = np.empty(self.n_links, dtype=np.int64)
            slots = np.empty(self.n_links, dtype=np.int64)
            pos = 0
            for i, arcs in enumerate(out):
                arcs.sort(key=lambda item: item[0])
                for lid, head in arcs:
                    heads[pos] = node_index[head]
                    slots[pos] = link_index[lid]
                    pos += 1
                indptr[i + 1] = pos
            self._csr = (indptr, heads, slots, node_index, link_index)
        return self._csr


# -- CSV ingestion -----------------------------------------------------


def _sized_rows(reader, width, path, error):
    """Yield the nonblank rows of csv ``reader`` (of file ``path``);
    ``error`` names the line of a row that is not ``width`` cells long."""
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise error(f"{path}: line {reader.line_num}: {len(row)} cells, "
                        f"expected {width}")
        yield row


def _read_rows(path, columns, error):
    """Yield the rows of input CSV ``path`` as dicts of stripped cells,
    raising ``error`` on a header without ``columns`` or a ragged row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise error(f"{path}: missing required columns {missing}")
        for row in _sized_rows(reader, len(header), path, error):
            yield {c: cell.strip() for c, cell in zip(header, row)}


def _in_file(path, build, arg):
    """``build(arg)``, naming ``path`` in the error if it is refused."""
    try:
        return build(arg)
    except NetworkValidationError as exc:
        raise NetworkValidationError(f"{path}: {exc}") from None


def _parse_positive(raw, what, where):
    try:
        value = float(raw)
    except ValueError:
        raise NetworkValidationError(f"{where}: bad {what} {raw!r}") from None
    if not value > 0.0 or not math.isfinite(value):
        raise NetworkValidationError(f"{where}: {what} must be positive, got {raw!r}")
    return value


def _hierarchy_default(defaults, hierarchy, what, where) -> float:
    """A hierarchy's default ``what`` (capacity or free_flow_speed)."""
    if hierarchy not in defaults:
        raise NetworkValidationError(
            f"{where}: blank {what} and no default for hierarchy {hierarchy!r}")
    return float(defaults[hierarchy][("capacity", "free_flow_speed").index(what)])


def _require_finite(what, x, y):
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NetworkValidationError(f"non-finite coordinates for {what}: x={x!r}, y={y!r}")


def _parse_coords(row, path, what):
    """The ``(x, y)`` of a node or zone row."""
    try:
        return float(row["x"]), float(row["y"])
    except ValueError:
        raise NetworkValidationError(f"{path}: bad coordinates for {what}") from None


def load_network(
    nodes_csv,
    links_csv,
    zones_csv=None,
    hierarchy_defaults=None,
) -> Network:
    """Build a :class:`Network` from the documented CSV schemas.

    Each file must have the columns of :data:`NODE_COLUMNS`,
    :data:`LINK_COLUMNS` or :data:`ZONE_COLUMNS` and each row as many
    cells as its header; cells are stripped.  A nodes file holds one
    coord_system, lonlat or km.  Links join nodes of the nodes file and
    give units in {km, mi} and {kmh, mph}; blank capacity/speed fall
    back to ``hierarchy_defaults`` (default
    :data:`DEFAULT_ROAD_ATTRIBUTES`).  Raises
    :class:`NetworkValidationError` naming the file at the first problem.
    """
    if hierarchy_defaults is None:
        hierarchy_defaults = DEFAULT_ROAD_ATTRIBUTES

    nodes_path = Path(nodes_csv)
    rows = list(_read_rows(nodes_path, NODE_COLUMNS, NetworkValidationError))
    if not rows:
        raise NetworkValidationError(f"{nodes_path}: no nodes")
    systems = {row["coord_system"] for row in rows}
    if len(systems) != 1:
        raise NetworkValidationError(
            f"{nodes_path}: mixed coord_system values {sorted(systems)}"
        )
    net = _in_file(nodes_path, Network, systems.pop())
    for row in rows:
        nid = row["node_id"]
        if not nid:
            raise NetworkValidationError(f"{nodes_path}: empty node_id")
        x, y = _parse_coords(row, nodes_path, f"node {nid!r}")
        _in_file(nodes_path, net.add_node, Node(nid, x, y))

    links_path = Path(links_csv)
    for row in _read_rows(links_path, LINK_COLUMNS, NetworkValidationError):
        lid = row["link_id"]
        where = f"{links_path}: link {lid!r}"
        if not lid:
            raise NetworkValidationError(f"{links_path}: empty link_id")
        length = _parse_positive(row["length"], "length", where)
        unit = row["length_unit"]
        if unit == "mi":
            length *= MILES_TO_KM
        elif unit != "km":
            raise NetworkValidationError(
                f"{where}: length_unit must be 'km' or 'mi', got {unit!r}"
            )
        hierarchy = row["hierarchy"]
        if row["capacity"]:
            capacity = _parse_positive(row["capacity"], "capacity", where)
        else:
            capacity = _hierarchy_default(
                hierarchy_defaults, hierarchy, "capacity", where)
        if row["free_flow_speed"]:
            speed = _parse_positive(row["free_flow_speed"], "free_flow_speed",
                                    where)
            speed_unit = row["speed_unit"]
            if speed_unit == "mph":
                speed *= MILES_TO_KM
            elif speed_unit != "kmh":
                raise NetworkValidationError(
                    f"{where}: speed_unit must be 'kmh' or 'mph', got {speed_unit!r}"
                )
        else:
            speed = _hierarchy_default(
                hierarchy_defaults, hierarchy, "free_flow_speed", where)
        _in_file(links_path, net.add_link, Link(
            lid, row["from"], row["to"], length, capacity, speed, hierarchy))

    if zones_csv is not None:
        zones_path = Path(zones_csv)
        for row in _read_rows(zones_path, ZONE_COLUMNS, NetworkValidationError):
            zid = row["zone_id"]
            if not zid:
                raise NetworkValidationError(f"{zones_path}: empty zone_id")
            x, y = _parse_coords(row, zones_path, f"zone {zid!r}")
            _in_file(zones_path, net.add_zone, Zone(zid, x, y))

    return net


def bundled_road_attributes(city: str | None = None):
    """Per-city hierarchy defaults shipped with the package.

    Returns the {hierarchy: (capacity veh/h, speed km/h)} mapping for
    ``city``, or the full {city: mapping} table when ``city`` is None.
    """
    ref = resources.files("mueflow.configs").joinpath("road_attributes.json")
    table = json.loads(ref.read_text())
    out = {
        name: {h: tuple(v) for h, v in attrs.items()}
        for name, attrs in table.items()
    }
    if city is None:
        return out
    try:
        return out[city]
    except KeyError:
        raise KeyError(
            f"unknown city {city!r}; available: {sorted(out)}"
        ) from None


# -- connectors --------------------------------------------------------


def centroid_node_id(zone_id: str) -> str:
    return f"centroid:{zone_id}"


def _distances_km(network: Network, point, xs, ys) -> np.ndarray:
    """:meth:`Network.distance_km` from ``point`` to each (xs, ys), in numpy.

    The same formula, but numpy's ``hypot`` and ``cos`` may round
    differently from :mod:`math`'s: each value is within a few rounding
    units of the scalar one, not equal to it.
    """
    x, y = point
    if network.coord_system == "km":
        return np.hypot(xs - x, ys - y)
    mean_lat = np.radians(0.5 * (y + ys))
    dx = np.radians(xs - x) * np.cos(mean_lat) * EARTH_RADIUS_KM
    dy = np.radians(ys - y) * EARTH_RADIUS_KM
    return np.hypot(dx, dy)


def generate_connectors(network: Network) -> Network:
    """Attach every zone to the graph through a centroid + connector pair.

    Each zone gets one new centroid node at its coordinates and a
    bidirectional pair of connector links (:data:`CONNECTOR_CAPACITY`,
    :data:`CONNECTOR_SPEED_KMH`) to the nearest non-connector node
    (straight-line distance, ties broken by smallest node id).
    Zero distances are clamped to 1e-6 km so free-flow times stay
    positive.  Idempotent: zones that already have a centroid are left
    alone.  Returns the network for chaining.

    One numpy row of distances per zone (:func:`_distances_km`) keeps
    the nodes within a relative ``1e-9`` of its minimum, far wider than
    the row's rounding; only those are measured again with the exact
    :meth:`Network.distance_km` and compared by (distance, id).
    """
    road_nodes = [
        n for n in network.nodes.values() if not n.id.startswith("centroid:")
    ]
    if not road_nodes:
        raise NetworkValidationError("cannot generate connectors: no nodes")
    xs = np.array([node.x for node in road_nodes])
    ys = np.array([node.y for node in road_nodes])
    for zone in network.zones.values():
        if zone.centroid_node is not None:
            continue
        point = (zone.x, zone.y)
        row = _distances_km(network, point, xs, ys)
        near = np.flatnonzero(row <= row.min() * (1.0 + 1e-9))
        dist, nearest = min(
            (network.distance_km(point, (node.x, node.y)), node.id)
            for node in (road_nodes[i] for i in near.tolist()))
        dist = max(dist, MIN_LINK_LENGTH_KM)
        cid = centroid_node_id(zone.id)
        network.add_node(Node(cid, zone.x, zone.y))
        for suffix, tail, head in (("out", cid, nearest), ("in", nearest, cid)):
            network.add_link(
                Link(
                    id=f"connector:{zone.id}:{suffix}",
                    from_node=tail,
                    to_node=head,
                    length_km=dist,
                    capacity=CONNECTOR_CAPACITY,
                    speed_kmh=CONNECTOR_SPEED_KMH,
                    hierarchy="connector",
                    connector=True,
                )
            )
        zone.attached_node = nearest
        zone.centroid_node = cid
    return network


# -- shortest paths ----------------------------------------------------


def shortest_path(network: Network, origin: str, destination: str, link_costs=None):
    """Cheapest path between two nodes.

    ``link_costs`` is an array aligned to ``network.link_ids`` or a
    {link_id: cost} mapping; free-flow times are used when omitted.
    Returns ``(total_cost, [link ids])``; ``(inf, [])`` when no path
    exists.  Raises ValueError for an unknown node, a mapping that
    misses a link or names an unknown one, and negative or NaN costs.
    """
    indptr, heads, slots, node_index, link_index = network.csr()
    for role, node in (("origin", origin), ("destination", destination)):
        if node not in node_index:
            raise ValueError(f"unknown {role} node {node!r}")
    if link_costs is None:
        cost = network.free_flow_times()
    elif isinstance(link_costs, dict):
        missing = [lid for lid in network.links if lid not in link_costs]
        if missing:
            raise ValueError(f"link_costs has no cost for links {missing}")
        unknown = [lid for lid in link_costs if lid not in network.links]
        if unknown:
            raise ValueError(f"link_costs names unknown links {unknown}")
        cost = np.array([link_costs[lid] for lid in network.links])
    else:
        cost = np.asarray(link_costs, dtype=float)
        if cost.shape != (network.n_links,):
            raise ValueError(
                f"link_costs has shape {cost.shape}, expected ({network.n_links},)"
            )
    src = node_index[origin]
    dst = node_index[destination]
    dists, preds = _kernels.batch_dijkstra(indptr, heads, slots, cost, [src])
    if not np.isfinite(dists[0, dst]):
        return math.inf, []
    (path,) = _kernels.walk_paths(preds, slots, _kernels.arc_tails(indptr),
                                  [0], [dst])
    ids = network.link_ids
    return float(dists[0, dst]), [ids[li] for li in path]
