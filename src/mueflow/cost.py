"""Vehicle operating costs and congestion (BPR) functions.

Monetary quantities are dollars; distances km; times minutes.  Fuel and
electricity turn into per-mile driving costs first (prices are quoted
per gallon / per kWh with miles-based efficiency), then into per-km via
the mile conversion factor, which is what the rest of the library uses.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

GV_CLASS = "gv"
EV_CLASS = "ev"
CLASSES = (GV_CLASS, EV_CLASS)

MILES_TO_KM = 1.609

#: non-energy operating cost components, $/mile
_DEFAULT_GV_COMPONENTS = {
    "maintenance": 0.101,
    "fixed": 0.18,
    "depreciation": 0.25,
    "insurance": 0.08,
    "additional": 0.02,
    "environmental": 0.055,
}
_DEFAULT_EV_COMPONENTS = {
    "maintenance": 0.064,
    "fixed": 0.08,
    "depreciation": 0.10,
    "insurance": 0.08,
    "additional": 0.01,
    "environmental": 0.01,
    "subsidy": -0.075,
}


class CostConfigError(ValueError):
    """Raised for malformed cost configuration values or files."""


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value)


@dataclass(frozen=True)
class CostConfig:
    """Economic and congestion parameters for one scenario.

    ``p_gas`` is $/gallon, ``p_ele`` $/kWh.  ``mpg_gv`` is miles per
    gallon, ``mpge_ev`` miles per gallon-equivalent with ``kappa_gal``
    kWh per gallon-equivalent.  Component tables are $/mile.  ``vot``
    is the value of time in $/min; ``bpr_alpha``/``bpr_beta`` shape the
    volume-delay function.  ``r_dis`` converts miles to km.  Every number
    must be finite, or :class:`CostConfigError` names its field.
    """

    p_gas: float
    p_ele: float
    mpg_gv: float = 25.0
    mpge_ev: float = 110.0
    kappa_gal: float = 33.7
    gv_components: dict = field(default_factory=lambda: dict(_DEFAULT_GV_COMPONENTS))
    ev_components: dict = field(default_factory=lambda: dict(_DEFAULT_EV_COMPONENTS))
    r_dis: float = MILES_TO_KM
    vot: float = 0.3
    bpr_alpha: float = 0.5
    bpr_beta: float = 1.5
    name: str = ""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not _is_finite(value):
                raise CostConfigError(
                    f"{f.name} must be a finite number, got {value!r}")
            if f.type == "dict" and not (
                    isinstance(value, Mapping)
                    and all(_is_finite(v) for v in value.values())):
                raise CostConfigError(
                    f"{f.name} must map component names to finite numbers")
        for label in ("p_gas", "p_ele"):
            if not getattr(self, label) >= 0.0:
                raise CostConfigError(f"{label} must be nonnegative")
        for label in ("mpg_gv", "mpge_ev", "kappa_gal", "r_dis"):
            if not getattr(self, label) > 0.0:
                raise CostConfigError(f"{label} must be positive")
        if not self.vot > 0.0:
            raise CostConfigError("vot must be positive")
        if not self.bpr_alpha > 0.0 or not self.bpr_beta >= 1.0:
            raise CostConfigError("need bpr_alpha > 0 and bpr_beta >= 1")


@dataclass(frozen=True)
class ClassCost:
    """Flow-independent driving cost of each vehicle class."""

    per_mile: dict  # {class: $/mile}
    per_km: dict  # {class: $/km}
    ratio: float  # gv over ev


def vehicle_costs(config: CostConfig) -> ClassCost:
    """Per-distance driving cost of both classes under ``config``.

    Energy cost/mile is price over efficiency (for electric, kWh per
    gallon-equivalent converts the price to $/gallon-equivalent first);
    the non-energy components add on top.  A class cost that is negative
    or overflows raises :class:`CostConfigError`.
    """
    gv_mile = config.p_gas / config.mpg_gv + sum(config.gv_components.values())
    ev_mile = (
        config.p_ele * config.kappa_gal / config.mpge_ev
        + sum(config.ev_components.values())
    )
    # link costs must stay nonnegative for the shortest-path kernel
    if gv_mile < 0.0:
        raise CostConfigError("gv cost per mile must be nonnegative")
    if ev_mile < 0.0:
        raise CostConfigError("ev subsidy exceeds the other cost components")
    per_mile = {GV_CLASS: gv_mile, EV_CLASS: ev_mile}
    per_km = {k: v / config.r_dis for k, v in per_mile.items()}
    if not all(math.isfinite(v) for v in per_km.values()):
        raise CostConfigError(f"class cost overflows: {per_km} $/km")
    if ev_mile > 0.0:
        ratio = gv_mile / ev_mile
    else:
        # zero-cost configs (time-only assignment) have no finite ratio
        ratio = math.inf if gv_mile > 0.0 else math.nan
    return ClassCost(per_mile=per_mile, per_km=per_km, ratio=ratio)


# -- BPR volume-delay family --------------------------------------------


def bpr_time(t0, capacity, alpha, beta, flow):
    """Congested travel time t0 * (1 + alpha * (flow/capacity)**beta)."""
    t0 = np.asarray(t0, dtype=float)
    ratio = np.asarray(flow, dtype=float) / np.asarray(capacity, dtype=float)
    return t0 * (1.0 + alpha * ratio**beta)


def bpr_time_derivative(t0, capacity, alpha, beta, flow):
    """d time / d flow of :func:`bpr_time` at ``flow``."""
    t0 = np.asarray(t0, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    ratio = np.asarray(flow, dtype=float) / capacity
    return t0 * alpha * beta / capacity * ratio ** (beta - 1.0)


def bpr_integral(t0, capacity, alpha, beta, flow):
    """Integral of :func:`bpr_time` from 0 to ``flow`` (vehicle-minutes)."""
    t0 = np.asarray(t0, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    flow = np.asarray(flow, dtype=float)
    return t0 * flow + alpha * t0 * flow ** (beta + 1.0) / (
        (beta + 1.0) * capacity**beta
    )


def generalized_link_cost(link, flow, cls, config: CostConfig,
                          class_cost: ClassCost | None = None) -> float:
    """Dollar cost of one link for one vehicle class at the given flow.

    Value of time applied to the congested travel time, plus the class's
    per-distance driving cost over the link length.  ``class_cost`` can
    be passed to avoid recomputing it per call.
    """
    if class_cost is None:
        class_cost = vehicle_costs(config)
    if cls not in class_cost.per_km:
        raise CostConfigError(f"unknown vehicle class {cls!r}")
    time_min = bpr_time(
        link.free_flow_time, link.capacity,
        config.bpr_alpha, config.bpr_beta, flow,
    )
    return config.vot * float(time_min) + class_cost.per_km[cls] * link.length_km


# -- configuration files -------------------------------------------------

_CONFIG_KEYS = {f.name for f in fields(CostConfig)}


def cost_config_from_dict(payload: dict) -> CostConfig:
    unknown = set(payload) - _CONFIG_KEYS
    if unknown:
        raise CostConfigError(f"unknown cost config keys: {sorted(unknown)}")
    if "p_gas" not in payload or "p_ele" not in payload:
        raise CostConfigError("cost config requires p_gas and p_ele")
    return CostConfig(**payload)


def _read_json_object(path) -> dict:
    """The JSON object in file ``path``; :class:`CostConfigError` otherwise."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CostConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise CostConfigError(f"{path}: expected a JSON object")
    return payload


def load_cost_config(path) -> CostConfig:
    """Read a cost config JSON file (keys mirror :class:`CostConfig`)."""
    return cost_config_from_dict(_read_json_object(path))


def dump_cost_config(config: CostConfig, path) -> None:
    Path(path).write_text(json.dumps(asdict(config), indent=2) + "\n")


def bundled_cities() -> list[str]:
    """Names of the cost configs shipped with the package."""
    pkg = resources.files("mueflow.configs")
    return sorted(
        p.name[: -len(".json")]
        for p in pkg.iterdir()
        if p.name.endswith(".json") and p.name != "road_attributes.json"
    )


def bundled_config(city: str) -> CostConfig:
    """Load one of the shipped city cost configs by name."""
    ref = resources.files("mueflow.configs").joinpath(f"{city}.json")
    try:
        payload = json.loads(ref.read_text())
    except FileNotFoundError:
        raise KeyError(
            f"unknown city {city!r}; available: {bundled_cities()}"
        ) from None
    return cost_config_from_dict(payload)
