"""Congestion metrics over equilibrium solutions.

Scalar system metrics (average travel time, potential savings), per-link
metrics (volume/capacity, delay factor, congested time), and comparison
helpers between a baseline and a scenario solution.  They read link
flows and times, never path flows, which an equilibrium does not fix.
Connector links are synthetic plumbing and are excluded from every
per-link metric and from the aggregate VOC/utilization counts.

Metrics read a solution's flows and times by position: they require
``solution.link_flows.link_ids == network.link_ids`` (same ids, same
order, as every solver returns them) and raise MetricsError if not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .network import Network

FLOW_ACTIVE_TOL = 1e-9  # veh/h below this a link counts as unused

#: Length-bin edges (km) for congested-time profiles.
DEFAULT_PROFILE_BINS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, math.inf)


class MetricsError(ValueError):
    """Raised when a metric is undefined for the given inputs."""


@dataclass(frozen=True)
class MetricsReport:
    """Single-solution congestion report (non-connector links only)."""

    avg_travel_time_mue: float
    avg_travel_time_ff: float
    voc_per_link: dict
    voc_total: float
    rur: float
    link_congested_time: dict
    delay_factor: dict


@dataclass(frozen=True)
class ComparisonReport:
    """Baseline-vs-scenario deltas."""

    delta_t_abs: float
    delta_t_rel: float
    delta_delay_factor: dict


@dataclass(frozen=True)
class ProfileBin:
    """One length bin of a congested-time profile."""

    lower_km: float
    upper_km: float
    count: int
    mean_time: float | None  # None flags an empty bin

    @property
    def empty(self) -> bool:
        return self.count == 0


def _check_link_ids(solution, network: Network) -> None:
    """Raise :class:`MetricsError` unless the solution's links are the network's."""
    if list(solution.link_flows.link_ids) != network.link_ids:
        raise MetricsError("solution link set does not match the network "
                           "(same link ids in the same order required)")


def _road(solution, network: Network) -> list:
    """(link, flow, time) per non-connector link, in network order."""
    _check_link_ids(solution, network)
    flows = solution.link_flows.aggregate().tolist()
    return [
        (link, flow, float(time))
        for link, flow, time in zip(network.links.values(), flows,
                                    solution.link_times)
        if not link.connector
    ]


def link_congested_times(solution, network: Network) -> dict:
    """Per-link travel time at equilibrium flow, minutes (no connectors)."""
    return {link.id: time for link, _, time in _road(solution, network)}


def voc(solution, network: Network) -> tuple[dict, float]:
    """Volume/capacity per non-connector link and their sum."""
    per_link = {
        link.id: flow / link.capacity for link, flow, _ in _road(solution, network)
    }
    return per_link, float(sum(per_link.values()))


def road_utilization(solution, network: Network) -> float:
    """Fraction of non-connector links carrying positive flow."""
    road = _road(solution, network)
    if not road:
        raise MetricsError("network has no road links")
    used = sum(1 for _, flow, _ in road if flow > FLOW_ACTIVE_TOL)
    return used / len(road)


def delay_factors(solution, network: Network) -> dict:
    """Per-link congested/free-flow time ratio, >= 1."""
    return {
        link.id: time / link.free_flow_time
        for link, _, time in _road(solution, network)
    }


def delay_factor_diff(base: dict, scenario: dict) -> dict:
    """Per-link delay-factor change, scenario minus base."""
    if set(base) != set(scenario):
        odd = sorted(set(base) ^ set(scenario))
        raise MetricsError(f"link sets differ: {odd}")
    return {lid: scenario[lid] - base[lid] for lid in base}


def compare(t_base: float, t_scenario: float) -> tuple[float, float]:
    """Absolute and percent change of a scenario time over a baseline."""
    if t_base <= 0.0:
        raise MetricsError("baseline travel time must be positive")
    delta = t_scenario - t_base
    return delta, 100.0 * delta / t_base


def potential_savings(t_at_re: float, t_max: float, t_min: float) -> float:
    """Percent of the best-case travel-time reduction already realized.

    Not clamped: sweeps can dip below the running extremes mid-series.
    """
    if t_max <= t_min:
        raise MetricsError("potential savings undefined when t_max <= t_min")
    return 100.0 * (t_max - t_at_re) / (t_max - t_min)


def potential_savings_diff(ps_sequence) -> list[float]:
    """Consecutive differences of a potential-savings series.

    Positive steps mean improvement from one penetration level to the
    next.
    """
    seq = [float(v) for v in ps_sequence]
    if len(seq) < 2:
        raise MetricsError("need at least two potential-savings values")
    return [seq[i + 1] - seq[i] for i in range(len(seq) - 1)]


def avg_travel_time(solution, network: Network, od,
                    mode: str = "mue", rule: str = "flow_weighted") -> float:
    """Demand-weighted mean OD travel time, minutes.

    mode "mue" evaluates times at equilibrium flows; "free_flow" uses
    free-flow times and needs no solution.  Under "mue" the default rule
    gives T_MUE, the total link travel time ``sum(x_l * t_l)`` over all
    links divided by the demand between distinct zones; rule "min_time"
    instead takes each pair's fastest path at equilibrium, which can sit
    below T_MUE when classes trade time against operating cost.
    """
    if mode not in ("mue", "free_flow"):
        raise MetricsError(f"unknown mode {mode!r}")
    if rule not in ("flow_weighted", "min_time"):
        raise MetricsError(f"unknown rule {rule!r}")
    pairs = [(r, s, q) for (r, s), q in od.pairs() if r != s and q > 0.0]
    total = sum(q for _, _, q in pairs)
    if total <= 0.0:
        raise MetricsError("average travel time undefined for zero demand")

    if mode == "free_flow":
        return _sp_weighted_time(network, network.free_flow_times(), pairs, total)

    _check_link_ids(solution, network)
    times = np.asarray(solution.link_times, dtype=float)
    if rule == "min_time":
        return _sp_weighted_time(network, times, pairs, total)

    flows = solution.link_flows.aggregate()
    if not np.any(flows > 0.0):
        raise MetricsError("solution link flows carry none of the demand")
    return float(np.dot(flows, times) / total)


def _sp_weighted_time(network: Network, link_times: np.ndarray, pairs, total):
    """Demand-weighted shortest-path time between zone centroids."""
    indptr, heads, slots, node_index, _ = network.csr()

    def centroid(zone_id):
        zone = network.zones.get(zone_id)
        if zone is None or zone.centroid_node not in node_index:
            raise MetricsError(f"zone {zone_id!r} is unknown or has no centroid")
        return node_index[zone.centroid_node]

    by_origin: dict = {}
    for r, s, q in pairs:
        by_origin.setdefault(r, []).append((s, q))
    dists, _ = _kernels.batch_dijkstra(
        indptr, heads, slots, link_times, [centroid(r) for r in by_origin])
    weighted = 0.0
    for dist, (r, dests) in zip(dists, by_origin.items()):
        for s, q in dests:
            d = dist[centroid(s)]
            if not math.isfinite(d):
                raise MetricsError(f"no route between zones {r!r} and {s!r}")
            weighted += q * float(d)
    return float(weighted / total)


def link_congested_time_profile(solution, network: Network,
                                bins=DEFAULT_PROFILE_BINS) -> list[ProfileBin]:
    """Mean congested link time grouped by link length (km)."""
    edges = [float(b) for b in bins]
    if len(edges) < 2:
        raise MetricsError("need at least two bin edges")
    if any(lo >= hi for lo, hi in zip(edges, edges[1:])):
        raise MetricsError("bin edges must be strictly increasing")
    road = _road(solution, network)
    out = []
    for lo, hi in zip(edges, edges[1:]):
        members = [time for link, _, time in road if lo <= link.length_km < hi]
        mean = float(np.mean(members)) if members else None
        out.append(ProfileBin(lo, hi, len(members), mean))
    return out


def compute_report(solution, network: Network, od, *,
                   avg_travel_time_ff: float | None = None) -> MetricsReport:
    """Assemble the single-solution report.

    The free-flow time depends only on ``network`` and ``od``; a caller
    that reports several solutions of them can pass it back in as
    ``avg_travel_time_ff`` instead of having it recomputed.
    """
    per_link_voc, total_voc = voc(solution, network)
    avg_mue = avg_travel_time(solution, network, od, mode="mue")
    if avg_travel_time_ff is None:
        avg_travel_time_ff = avg_travel_time(solution, network, od,
                                             mode="free_flow")
    return MetricsReport(
        avg_travel_time_mue=avg_mue,
        avg_travel_time_ff=avg_travel_time_ff,
        voc_per_link=per_link_voc,
        voc_total=total_voc,
        rur=road_utilization(solution, network),
        link_congested_time=link_congested_times(solution, network),
        delay_factor=delay_factors(solution, network),
    )


def compare_reports(base: MetricsReport, scenario: MetricsReport) -> ComparisonReport:
    """Scenario-minus-base deltas for the headline metrics."""
    delta_abs, delta_rel = compare(
        base.avg_travel_time_mue, scenario.avg_travel_time_mue)
    return ComparisonReport(
        delta_t_abs=delta_abs,
        delta_t_rel=delta_rel,
        delta_delay_factor=delay_factor_diff(base.delay_factor, scenario.delay_factor),
    )
