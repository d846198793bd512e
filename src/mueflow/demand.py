"""Travel demand: OD matrices, class splits, and commute statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cost import CLASSES, EV_CLASS, GV_CLASS
from .network import _read_rows

#: header of the OD file :func:`load_od_csv` reads
OD_COLUMNS = ["origin_zone", "destination_zone", "demand"]


class DemandError(ValueError):
    """Raised for malformed OD data or invalid penetration levels."""


class ODMatrix:
    """Zone-to-zone demand in veh/h, insertion ordered.

    Pairs are unique; zero-demand pairs are legal and kept (solvers skip
    them).  Intra-zonal pairs (origin == destination) are legal too and
    are skipped at assignment time.
    """

    def __init__(self, entries=None):
        self._demand: dict[tuple[str, str], float] = {}
        for origin, dest, demand in entries or []:
            self.add(origin, dest, demand)

    def add(self, origin: str, dest: str, demand: float) -> None:
        key = (origin, dest)
        if key in self._demand:
            raise DemandError(f"duplicate OD pair {key}")
        demand = float(demand)
        if not math.isfinite(demand) or demand < 0.0:
            raise DemandError(f"demand for {key} must be finite and >= 0")
        self._demand[key] = demand

    def pairs(self):
        return list(self._demand.items())

    def demand(self, origin: str, dest: str) -> float:
        return self._demand[(origin, dest)]

    def __len__(self):
        return len(self._demand)

    def __iter__(self):
        return iter(self._demand.items())

    def __contains__(self, key):
        return key in self._demand

    @property
    def total_demand(self) -> float:
        return float(sum(self._demand.values()))

    def zones(self) -> set[str]:
        out = set()
        for o, d in self._demand:
            out.add(o)
            out.add(d)
        return out


def load_od_csv(path) -> ODMatrix:
    """Read an OD file with the columns of :data:`OD_COLUMNS` into an ODMatrix.

    Cells are stripped; :class:`DemandError` names the file at the first
    missing column, ragged row, empty zone id, bad demand or repeated pair.
    """
    path = Path(path)
    od = ODMatrix()
    for row in _read_rows(path, OD_COLUMNS, DemandError):
        origin, dest = row["origin_zone"], row["destination_zone"]
        if not origin or not dest:
            raise DemandError(f"{path}: empty zone id in row {row}")
        try:
            demand = float(row["demand"])
        except ValueError:
            raise DemandError(
                f"{path}: bad demand {row['demand']!r} for ({origin}, {dest})"
            ) from None
        try:
            od.add(origin, dest, demand)
        except DemandError as exc:
            raise DemandError(f"{path}: {exc}") from None
    return od


@dataclass(frozen=True)
class ClassDemand:
    """Per-class OD demand produced by :func:`split_demand`.

    Raises :class:`DemandError` unless it holds exactly the classes of
    ``cost.CLASSES``, each over the same OD pairs, with every demand
    finite and at least 0.
    """

    by_class: dict  # {class name: {(origin, dest): veh/h}}
    penetration: float

    def __post_init__(self):
        if sorted(self.by_class) != sorted(CLASSES):
            raise DemandError(
                f"class demand needs exactly the classes {list(CLASSES)}, "
                f"got {sorted(self.by_class)}"
            )
        pairs = set(self.by_class[CLASSES[0]])
        for cls in CLASSES:
            table = self.by_class[cls]
            if set(table) != pairs:
                raise DemandError("every class must have the same OD pairs")
            for key, d in table.items():
                if not (math.isfinite(d) and d >= 0.0):
                    raise DemandError(
                        f"{cls} demand for {key} must be finite and >= 0")

    def demand(self, cls: str, origin: str, dest: str) -> float:
        return self.by_class[cls][(origin, dest)]

    def total(self, cls: str) -> float:
        return float(sum(self.by_class[cls].values()))

    def pairs(self):
        return list(next(iter(self.by_class.values())))


def split_demand(od: ODMatrix, penetration: float) -> ClassDemand:
    """Split every OD pair by electric-vehicle share ``penetration``.

    ev demand is ``penetration * d`` and gv demand ``(1 - penetration) *
    d``, pair by pair.  Each product is rounded on its own, so the two
    class demands of a pair sum to ``d`` only up to rounding (for
    ``penetration = 0.05`` and ``d = 196.5`` the sum is an ulp short).
    """
    if not 0.0 <= penetration <= 1.0:
        raise DemandError(f"penetration must be in [0, 1], got {penetration}")
    gv = {}
    ev = {}
    for (origin, dest), d in od:
        ev[(origin, dest)] = penetration * d
        gv[(origin, dest)] = (1.0 - penetration) * d
    return ClassDemand(by_class={GV_CLASS: gv, EV_CLASS: ev}, penetration=penetration)


@dataclass(frozen=True)
class CommuteStats:
    """Demand-weighted lognormal summary of commute distances."""

    mu_log: float
    sigma_log: float
    mode_km: float
    mean_km: float
    total_demand: float
    n_pairs: int


def commute_distance_stats(network, od: ODMatrix) -> CommuteStats:
    """Fit a demand-weighted lognormal to straight-line commute distances.

    Distances are centroid-to-centroid for every pair with positive
    demand; intra-zonal and zero-distance pairs carry no distance
    information and are excluded.  The mode is exp(mu - sigma^2).
    """
    dists = []
    weights = []
    for (origin, dest), d in od:
        if d <= 0.0 or origin == dest:
            continue
        if origin not in network.zones or dest not in network.zones:
            raise DemandError(f"OD pair ({origin}, {dest}) references unknown zone")
        dist = network.zone_distance_km(origin, dest)
        if dist <= 0.0:
            continue
        dists.append(dist)
        weights.append(d)
    if not dists:
        raise DemandError("no positive-demand, positive-distance OD pairs")
    dists = np.array(dists)
    weights = np.array(weights)
    total = float(weights.sum())
    logs = np.log(dists)
    mu = float(np.sum(weights * logs) / total)
    var = float(np.sum(weights * (logs - mu) ** 2) / total)
    sigma = math.sqrt(var)
    return CommuteStats(
        mu_log=mu,
        sigma_log=sigma,
        mode_km=math.exp(mu - var),
        mean_km=float(np.sum(weights * dists) / total),
        total_demand=total,
        n_pairs=len(dists),
    )
