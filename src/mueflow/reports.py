"""Report emission: solution dumps, metrics files, sweep artifacts.

All writers are deterministic byte-for-byte for identical inputs (no
timestamps, fixed row ordering, repr float formatting), and every CSV
written here has a matching reader that round-trips exactly.  Each
reader raises ``ValueError`` on a file whose header is not its writer's
or on a row whose cell count is not the header's.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .cost import EV_CLASS, GV_CLASS
from .metrics import MetricsReport, _check_link_ids
from .network import Network, _sized_rows

SOLUTION_COLUMNS = ["link_id", "flow_gv", "flow_ev", "flow_total", "time", "voc"]
SWEEP_COLUMNS = ["penetration", "t_mue", "ps", "dps", "voc_total", "rur"]
METRICS_SUMMARY_FIELDS = [
    "avg_travel_time_mue", "avg_travel_time_ff", "voc_total", "rur",
]
METRICS_LINK_FIELDS = ["voc", "congested_time", "delay_factor"]
METRICS_COLUMNS = ["kind", "link_id"] + METRICS_SUMMARY_FIELDS + METRICS_LINK_FIELDS
SERIES_COLUMNS = ["penetration", "value"]
#: sweep plot-series file name -> the sweep column it holds
_SERIES = {"t_vs_re": "t_mue", "ps_vs_re": "ps", "voc_vs_re": "voc_total",
           "rur_vs_re": "rur"}


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path, columns) -> list[dict]:
    """The rows of CSV ``path``, whose header must equal ``columns`` and
    each row have as many cells."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != columns:
            raise ValueError(
                f"{path}: expected columns {','.join(columns)}, "
                f"got {','.join(header)}"
            )
        return [dict(zip(columns, row))
                for row in _sized_rows(reader, len(columns), path, ValueError)]


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _parse(cell: str) -> float | None:
    """Inverse of :func:`_fmt`: a blank cell is None."""
    return float(cell) if cell != "" else None


# -- solution dumps ------------------------------------------------------


def solution_records(solution, network: Network) -> list[dict]:
    """Per-link flow/time/voc rows in network link order.

    Raises :class:`~mueflow.metrics.MetricsError` unless the solution's
    link ids are the network's, in the same order.
    """
    _check_link_ids(solution, network)
    ids = solution.link_flows.link_ids
    gv = solution.link_flows.class_flows.get(GV_CLASS)
    ev = solution.link_flows.class_flows.get(EV_CLASS)
    out = []
    for i, lid in enumerate(ids):
        fg = float(gv[i]) if gv is not None else 0.0
        fe = float(ev[i]) if ev is not None else 0.0
        out.append({
            "link_id": lid,
            "flow_gv": fg,
            "flow_ev": fe,
            "flow_total": fg + fe,
            "time": float(solution.link_times[i]),
            "voc": (fg + fe) / network.links[lid].capacity,
        })
    return out


def write_solution_json(solution, network: Network, path) -> None:
    payload = {
        "method": solution.method,
        "converged": solution.converged,
        "iterations": solution.iterations,
        "objective": solution.objective,
        "wardrop_gap": solution.wardrop_gap,
        "skipped_intrazonal_demand": solution.skipped_intrazonal,
        "duals": dict(solution.duals),
        "links": solution_records(solution, network),
        "gap_trace": solution.gap_trace,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_solution_csv(solution, network: Network, path) -> None:
    rows = [
        [r["link_id"]] + [_fmt(r[c]) for c in SOLUTION_COLUMNS[1:]]
        for r in solution_records(solution, network)
    ]
    _write_rows(path, SOLUTION_COLUMNS, rows)


def read_solution_csv(path) -> list[dict]:
    return [
        {
            "link_id": row["link_id"],
            **{c: float(row[c]) for c in SOLUTION_COLUMNS[1:]},
        }
        for row in _read_rows(path, SOLUTION_COLUMNS)
    ]


# -- metrics reports -----------------------------------------------------


def metrics_to_dict(report: MetricsReport) -> dict:
    return {
        "avg_travel_time_mue": report.avg_travel_time_mue,
        "avg_travel_time_ff": report.avg_travel_time_ff,
        "voc_total": report.voc_total,
        "rur": report.rur,
        "voc_per_link": dict(report.voc_per_link),
        "link_congested_time": dict(report.link_congested_time),
        "delay_factor": dict(report.delay_factor),
    }


def write_metrics_json(report: MetricsReport, path) -> None:
    Path(path).write_text(json.dumps(metrics_to_dict(report), indent=2) + "\n")


def write_metrics_csv(report: MetricsReport, path) -> None:
    """One summary row for the scalars, then one row per road link."""
    summary = (
        ["summary", ""]
        + [_fmt(getattr(report, f)) for f in METRICS_SUMMARY_FIELDS]
        + [""] * len(METRICS_LINK_FIELDS)
    )
    rows = [summary]
    for lid in report.voc_per_link:
        rows.append(
            ["link", lid]
            + [""] * len(METRICS_SUMMARY_FIELDS)
            + [
                _fmt(report.voc_per_link[lid]),
                _fmt(report.link_congested_time[lid]),
                _fmt(report.delay_factor[lid]),
            ]
        )
    _write_rows(path, METRICS_COLUMNS, rows)


def read_metrics_csv(path) -> tuple[dict, dict]:
    """Returns (scalars, per-link rows keyed by link id)."""
    scalars = {}
    links = {}
    for row in _read_rows(path, METRICS_COLUMNS):
        if row["kind"] == "summary":
            scalars = {f: float(row[f]) for f in METRICS_SUMMARY_FIELDS}
        elif row["kind"] == "link":
            links[row["link_id"]] = {
                f: float(row[f]) for f in METRICS_LINK_FIELDS
            }
        else:
            raise ValueError(f"{path}: unknown row kind {row['kind']!r}")
    return scalars, links


# -- sweep artifacts -----------------------------------------------------


def _sweep_columns(sweep) -> dict:
    """Per-level values keyed by ``SWEEP_COLUMNS``, None where undefined."""
    n = len(sweep.levels)
    records = sweep.records or []
    return {
        "penetration": sweep.levels,
        "t_mue": sweep.avg_times,
        "ps": sweep.potential_savings,
        "dps": [None, *sweep.ps_diffs],
        "voc_total": [r.report.voc_total for r in records] or [None] * n,
        "rur": [r.report.rur for r in records] or [None] * n,
    }


def write_sweep_csv(sweep, path) -> None:
    """One row per level: penetration, T, PS, step dPS, VOC total, RUR."""
    columns = _sweep_columns(sweep)
    rows = zip(*(columns[c] for c in SWEEP_COLUMNS))
    _write_rows(path, SWEEP_COLUMNS, [[_fmt(v) for v in row] for row in rows])


def read_sweep_csv(path) -> list[dict]:
    return [
        {c: _parse(row[c]) for c in SWEEP_COLUMNS}
        for row in _read_rows(path, SWEEP_COLUMNS)
    ]


def sweep_to_dict(sweep) -> dict:
    payload = {
        "levels": list(sweep.levels),
        "avg_travel_time_mue": list(sweep.avg_times),
        "gradient": list(sweep.gradient),
        "potential_savings": list(sweep.potential_savings or []),
        "potential_savings_diff": list(sweep.ps_diffs or []),
        "plateau_intervals": [list(iv) for iv in sweep.plateau_intervals],
        "transition_intervals": [list(iv) for iv in sweep.transition_intervals],
        "critical_thresholds": list(sweep.critical_thresholds),
        "city_type": sweep.city_type,
        "classification": sweep.classification,
    }
    if sweep.records is not None:
        payload["overlap_ratio"] = [rec.overlap_ratio for rec in sweep.records]
        payload["voc_total"] = [rec.report.voc_total for rec in sweep.records]
        payload["rur"] = [rec.report.rur for rec in sweep.records]
    return payload


def write_sweep_json(sweep, path) -> None:
    Path(path).write_text(json.dumps(sweep_to_dict(sweep), indent=2) + "\n")


def write_sweep_series(sweep, outdir) -> dict:
    """Plot-ready two-column series files; returns {name: path}."""
    columns = _sweep_columns(sweep)
    paths = {}
    for name, column in _SERIES.items():
        paths[name] = Path(outdir) / f"{name}.csv"
        _write_rows(paths[name], SERIES_COLUMNS, [
            [_fmt(lv), _fmt(v)] for lv, v in zip(sweep.levels, columns[column])])
    return paths


def read_series_csv(path) -> list[tuple[float, float | None]]:
    return [
        (float(row["penetration"]), _parse(row["value"]))
        for row in _read_rows(path, SERIES_COLUMNS)
    ]
