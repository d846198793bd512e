"""Command-line entry point: validate inputs, solve, or sweep.

Subcommands
    validate  load and cross-check all inputs, print counts, no solving
    solve     one equilibrium at a fixed penetration; writes solution+metrics
    sweep     equilibria across penetration levels; writes sweep artifacts

``--method`` takes one of ``equilibrium.METHODS`` (fw, bfw, pd, eg).

Exit codes: 0 success, 2 validation failure, 3 iteration cap reached
(partial outputs are still written), 4 infeasible problem.  Failures are
reported as a JSON object ``{"errors": [...]}`` on stdout so scripts can
parse them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .analysis import SweepError, run_sweep, sweep_from_records
from .cost import (
    CostConfig,
    CostConfigError,
    _read_json_object,
    bundled_cities,
    bundled_config,
    load_cost_config,
)
from .demand import ODMatrix, load_od_csv, split_demand
from .equilibrium import (
    METHODS,
    InfeasibleProblemError,
    SolverOptions,
    UnsupportedOperationError,
    solve,
)
from .metrics import compute_report
from .network import Network, generate_connectors, load_network
from .reports import (
    write_metrics_csv,
    write_metrics_json,
    write_solution_csv,
    write_solution_json,
    write_sweep_csv,
    write_sweep_json,
    write_sweep_series,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ITERATION_CAP = 3
EXIT_INFEASIBLE = 4

FORMATS = ("csv", "json")

_INPUT_ERRORS = (ValueError, OSError)


@dataclass
class _Inputs:
    network: Network
    od: ODMatrix
    config: CostConfig | None
    capacities: dict | None


def _emit_errors(errors) -> None:
    print(json.dumps({"errors": [str(e) for e in errors]}, sort_keys=True))


def _parse_formats(text: str) -> tuple:
    formats = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    bad = [f for f in formats if f not in FORMATS]
    if bad or not formats:
        raise ValueError(
            f"--format must be a comma list from {{csv, json}}, got {text!r}"
        )
    return formats


def parse_levels(text: str) -> list:
    """``lo:hi:n`` for an even grid, or a comma list of levels."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"--levels grid form is lo:hi:n, got {text!r}")
        lo, hi = (_level(tok, text) for tok in parts[:2])
        try:
            n = int(parts[2])
        except ValueError:
            raise ValueError(f"--levels grid count n must be an integer, "
                             f"got {parts[2].strip()!r} in {text!r}") from None
        if n < 2:
            raise ValueError("--levels grid needs n >= 2")
        step = (hi - lo) / (n - 1)
        return [lo + step * i for i in range(n - 1)] + [hi]
    levels = [_level(tok, text) for tok in text.split(",") if tok.strip()]
    if not levels:
        raise ValueError(f"--levels got no values in {text!r}")
    return levels


def _level(token: str, text: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"--levels takes numbers, got {token.strip()!r} "
                         f"in {text!r}") from None


def _load_inputs(args: argparse.Namespace, *, need_cost: bool) -> _Inputs:
    """Load every input, raising ValueError with all problems joined."""
    errors: list[str] = []
    required = [("--network", args.network), ("--links", args.links),
                ("--od", args.od)]
    if args.zones is not None:
        required.append(("--zones", args.zones))
    if args.capacity_constraints is not None:
        required.append(("--capacity-constraints", args.capacity_constraints))
    for flag, path in required:
        if not Path(path).is_file():
            errors.append(f"{flag}: no such file: {path}")
    if errors:
        raise _InputError(errors)

    network = od = None
    try:
        network = load_network(args.network, args.links, args.zones)
        generate_connectors(network)
    except _INPUT_ERRORS as exc:
        errors.append(str(exc))
    try:
        od = load_od_csv(args.od)
    except _INPUT_ERRORS as exc:
        errors.append(str(exc))

    config = None
    if args.cost_config is not None:
        try:
            config = _resolve_cost_config(args.cost_config)
        except _INPUT_ERRORS as exc:
            errors.append(str(exc))
    elif need_cost:
        errors.append("--cost-config is required for this command")

    capacities = None
    if args.capacity_constraints is not None and network is not None:
        try:
            capacities = _load_capacity_constraints(
                args.capacity_constraints, network
            )
        except _INPUT_ERRORS as exc:
            errors.append(str(exc))

    if network is not None and od is not None:
        known = set(network.zones)
        missing = sorted(
            {z for (o, d), _ in od.pairs() for z in (o, d) if z not in known}
        )
        if missing:
            errors.append(f"OD references unknown zones: {', '.join(missing)}")

    if errors:
        raise _InputError(errors)
    return _Inputs(network=network, od=od, config=config, capacities=capacities)


class _InputError(ValueError):
    def __init__(self, errors):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = [str(e) for e in errors]


def _resolve_cost_config(source: str) -> CostConfig:
    """A cost config path, or the name of a bundled city config."""
    if Path(source).is_file():
        return load_cost_config(source)
    cities = bundled_cities()
    if source in cities:
        return bundled_config(source)
    raise CostConfigError(
        f"--cost-config: no such file: {source} "
        f"(bundled names: {', '.join(cities)})"
    )


def _load_capacity_constraints(path, network: Network) -> dict:
    payload = _read_json_object(path)
    if not payload:
        raise CostConfigError(
            f"{path}: expected a non-empty JSON object of link_id -> capacity"
        )
    caps: dict[str, float] = {}
    problems = []
    for lid, value in payload.items():
        if lid not in network.links:
            problems.append(f"unknown link {lid!r}")
            continue
        try:
            cap = float(value)
        except (TypeError, ValueError):
            problems.append(f"non-numeric capacity for link {lid!r}")
            continue
        if not cap > 0.0:
            problems.append(f"non-positive capacity for link {lid!r}")
            continue
        caps[lid] = cap
    if problems:
        raise CostConfigError(f"{path}: " + "; ".join(problems))
    return caps


def _solver_options(args: argparse.Namespace, inputs: _Inputs) -> SolverOptions:
    return SolverOptions(
        rel_gap_tol=args.rel_gap,
        max_iters=args.max_iters,
        capacity_constraints=inputs.capacities,
        seed=args.seed,
    )


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_validate(args: argparse.Namespace) -> int:
    _parse_formats(args.format)  # checked as in solve, though nothing is written
    inputs = _load_inputs(args, need_cost=False)
    net, od = inputs.network, inputs.od
    road = sum(1 for link in net.links.values() if not link.connector)
    conn = net.n_links - road
    print(
        f"{len(net.zones)} zones, {net.n_nodes} nodes, "
        f"{road} road + {conn} connector links, "
        f"{len(od)} OD pairs, demand {od.total_demand:g}"
    )
    return EXIT_OK


def _write_solution_artifacts(formats, outdir, solution, network, report):
    written = []
    if "csv" in formats:
        write_solution_csv(solution, network, outdir / "solution.csv")
        write_metrics_csv(report, outdir / "metrics.csv")
        written += [outdir / "solution.csv", outdir / "metrics.csv"]
    if "json" in formats:
        write_solution_json(solution, network, outdir / "solution.json")
        write_metrics_json(report, outdir / "metrics.json")
        written += [outdir / "solution.json", outdir / "metrics.json"]
    return written


def cmd_solve(args: argparse.Namespace) -> int:
    formats = _parse_formats(args.format)
    inputs = _load_inputs(args, need_cost=True)
    demand = split_demand(inputs.od, args.penetration)
    solution = solve(
        inputs.network, demand, inputs.config, method=args.method,
        options=_solver_options(args, inputs),
    )
    report = compute_report(solution, inputs.network, inputs.od)
    outdir = _outdir(args)
    written = _write_solution_artifacts(formats, outdir, solution,
                                        inputs.network, report)
    print(
        f"penetration={args.penetration:g} method={solution.method} "
        f"converged={solution.converged} iterations={solution.iterations} "
        f"wardrop_gap={solution.wardrop_gap!r}"
    )
    print(
        f"T_MUE={report.avg_travel_time_mue!r} "
        f"T_FF={report.avg_travel_time_ff!r} "
        f"VOC_total={report.voc_total!r} RUR={report.rur!r}"
    )
    for path in written:
        print(f"wrote {path}")
    if not solution.converged:
        _emit_errors([
            f"iteration cap {args.max_iters} reached at wardrop gap "
            f"{solution.wardrop_gap!r} (tolerance {args.rel_gap!r})"
        ])
        return EXIT_ITERATION_CAP
    return EXIT_OK


def _write_sweep_artifacts(formats, outdir, sweep):
    written = []
    if "csv" in formats:
        write_sweep_csv(sweep, outdir / "sweep.csv")
        written.append(outdir / "sweep.csv")
    if "json" in formats:
        write_sweep_json(sweep, outdir / "sweep.json")
        written.append(outdir / "sweep.json")
    series = write_sweep_series(sweep, outdir)
    written.extend(series[name] for name in sorted(series))
    return written


def cmd_sweep(args: argparse.Namespace) -> int:
    formats = _parse_formats(args.format)
    levels = parse_levels(args.levels)
    inputs = _load_inputs(args, need_cost=True)
    if len(levels) < 2:
        raise _InputError(["--levels needs at least two penetration levels"])
    outdir = _outdir(args)
    partial_error = None
    try:
        sweep = run_sweep(
            inputs.network, inputs.od, inputs.config, levels,
            method=args.method, options=_solver_options(args, inputs),
        )
    except SweepError as exc:
        if not exc.completed:
            _emit_errors([exc])
            return EXIT_ITERATION_CAP
        partial_error = exc
        sweep = sweep_from_records(exc.completed)
    written = _write_sweep_artifacts(formats, outdir, sweep)
    print(
        f"levels={len(sweep.levels)} method={args.method} "
        f"city_type={sweep.city_type or '-'}"
    )
    for path in written:
        print(f"wrote {path}")
    if partial_error is not None:
        _emit_errors([partial_error])
        return EXIT_ITERATION_CAP
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, *, with_solver: bool) -> None:
    parser.add_argument("--network", required=True,
                        help="nodes CSV (node_id,x,y,coord_system)")
    parser.add_argument("--links", required=True, help="links CSV")
    parser.add_argument("--zones", default=None, help="zones CSV (zone_id,x,y)")
    parser.add_argument("--od", required=True,
                        help="OD CSV (origin_zone,destination_zone,demand)")
    parser.add_argument("--cost-config", default=None,
                        help="cost config JSON path, or a bundled city name")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", default="csv,json",
                        help="comma list from {csv, json}")
    if with_solver:
        parser.add_argument("--method", default="bfw", choices=METHODS)
        parser.add_argument("--rel-gap", type=float,
                            default=SolverOptions.rel_gap_tol,
                            help="relative Wardrop gap tolerance")
        parser.add_argument("--max-iters", type=int,
                            default=SolverOptions.max_iters)
        parser.add_argument("--capacity-constraints", default=None,
                            help="JSON file of link_id -> capacity override")
        parser.add_argument("--seed", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mueflow",
        description="Multi-user (gasoline/electric) traffic equilibrium "
                    "solver, congestion metrics, and penetration sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="load and cross-check inputs")
    _add_common(p_val, with_solver=False)
    p_val.set_defaults(func=cmd_validate, capacity_constraints=None)

    p_solve = sub.add_parser("solve", help="solve one equilibrium")
    _add_common(p_solve, with_solver=True)
    p_solve.add_argument("--penetration", type=float, default=0.0,
                         help="EV share of demand in [0, 1]")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve across penetration levels")
    _add_common(p_sweep, with_solver=True)
    p_sweep.add_argument("--levels", default="0:1:21",
                         help="comma list of levels, or lo:hi:n grid")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        _emit_errors(exc.errors)
        return EXIT_VALIDATION
    except InfeasibleProblemError as exc:
        _emit_errors([exc])
        return EXIT_INFEASIBLE
    except (UnsupportedOperationError, ValueError) as exc:
        # remaining ValueErrors are input problems (levels, formats,
        # penetration range, metric preconditions)
        _emit_errors([exc])
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
