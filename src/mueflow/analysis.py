"""Penetration sweeps and congestion-regime diagnostics.

Drives the solver across electric-vehicle penetration levels, estimates
the travel-time gradient, and detects plateaus, transition zones,
critical thresholds (active-path-set changes), path overlap between the
two classes, and the city's congestion-response type.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cost import CostConfig, GV_CLASS, EV_CLASS
from .demand import ODMatrix, split_demand
from .equilibrium import (
    EquilibriumSolution,
    InfeasibleProblemError,
    SolverError,
    SolverOptions,
    UnsupportedOperationError,
    _Session,
    solve,
)
from .metrics import MetricsReport, compute_report, potential_savings, \
    potential_savings_diff
from .network import Network

#: Gradient magnitude (minutes per unit penetration) below which an
#: interval counts as plateau; transitions need 3x this. Equals 0.07 min
#: per 10% penetration.
PLATEAU_EPSILON = 0.7

#: A path is active when it carries more than this fraction of its
#: (class, OD) demand.
ACTIVE_FLOW_FRACTION = 1e-6

#: Total relative travel-time change (percent) under which a sweep is
#: classified as unresponsive (Type III).
TYPE3_REL_CHANGE_PCT = 3.0

#: Penetration window in which a Type I transition must begin.
EARLY_WINDOW = 0.3


class AnalysisError(ValueError):
    """Raised when a diagnostic is undefined for the given sweep."""


class SweepError(RuntimeError):
    """A sweep level failed; carries the levels finished before it."""

    def __init__(self, message: str, failed_level: float, completed: list):
        super().__init__(message)
        self.failed_level = failed_level
        self.completed = completed


@dataclass
class LevelRecord:
    """One solved penetration level."""

    penetration: float
    report: MetricsReport
    solution: EquilibriumSolution
    overlap_ratio: float | None = None
    potential_savings: float | None = None


@dataclass
class Classification:
    """City-type label plus the predicate trail that produced it."""

    city_type: str
    rationale: dict


@dataclass
class SweepResult:
    """Per-level records plus the derived structure of the sweep."""

    levels: list
    avg_times: list
    gradient: list
    records: list | None = None
    potential_savings: list | None = None
    ps_diffs: list | None = None
    plateau_intervals: list = field(default_factory=list)
    transition_intervals: list = field(default_factory=list)
    critical_thresholds: list = field(default_factory=list)
    city_type: str | None = None
    classification: dict | None = None

    @classmethod
    def from_series(cls, levels, avg_times) -> "SweepResult":
        """Build a sweep skeleton from a travel-time series.

        No solutions are attached, so threshold detection is
        unavailable; detectors and the classifier work.
        """
        levels = [float(v) for v in levels]
        avg_times = [float(v) for v in avg_times]
        _check_levels(levels)
        if len(avg_times) != len(levels):
            raise AnalysisError("one travel time per level required")
        sweep = cls(
            levels=levels,
            avg_times=avg_times,
            gradient=_forward_differences(levels, avg_times),
        )
        _derive_series(sweep)
        return sweep


def _check_levels(levels) -> None:
    if len(levels) < 2:
        raise AnalysisError("need at least two penetration levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise AnalysisError("levels must be strictly increasing")
    if not all(0.0 <= v <= 1.0 for v in levels):
        raise AnalysisError("levels must be finite and lie within [0, 1]")


def _forward_differences(levels, values) -> list:
    return [
        (values[i + 1] - values[i]) / (levels[i + 1] - levels[i])
        for i in range(len(levels) - 1)
    ]


def _derive_series(sweep: SweepResult) -> None:
    """Fill potential savings (None if flat) and plateau/transition spans."""
    t_max, t_min = max(sweep.avg_times), min(sweep.avg_times)
    if t_max > t_min:
        ps = [potential_savings(t, t_max, t_min) for t in sweep.avg_times]
        sweep.potential_savings, sweep.ps_diffs = ps, potential_savings_diff(ps)
    else:
        sweep.potential_savings = [None] * len(sweep.levels)
        sweep.ps_diffs = [None] * len(sweep.gradient)
    sweep.plateau_intervals = detect_plateaus(sweep)
    sweep.transition_intervals = detect_transitions(sweep)


def _mask_intervals(levels, mask) -> list:
    """Maximal runs of consecutive True interval flags as (lo, hi)."""
    out = []
    i = 0
    while i < len(mask):
        if mask[i]:
            j = i
            while j + 1 < len(mask) and mask[j + 1]:
                j += 1
            out.append((levels[i], levels[j + 1]))
            i = j + 1
        i += 1
    return out


def detect_plateaus(sweep: SweepResult, epsilon: float = PLATEAU_EPSILON) -> list:
    """Level intervals where |dT/dR_e| stays below epsilon."""
    if epsilon <= 0.0:
        raise AnalysisError("epsilon must be positive")
    mask = [abs(g) < epsilon for g in sweep.gradient]
    return _mask_intervals(sweep.levels, mask)


def detect_transitions(sweep: SweepResult, epsilon: float = PLATEAU_EPSILON) -> list:
    """Level intervals where |dT/dR_e| exceeds 3x epsilon."""
    if epsilon <= 0.0:
        raise AnalysisError("epsilon must be positive")
    mask = [abs(g) > 3.0 * epsilon for g in sweep.gradient]
    return _mask_intervals(sweep.levels, mask)


def _active_sets(solution: EquilibriumSolution) -> dict:
    """Per (class, OD) block: set of paths carrying real flow.

    Blocks are keyed by (class, origin, destination); paths are
    identified by their link-id sequence.
    """
    out = {}
    for block, entries in solution.paths.items():
        demand = sum(f for _, f in entries)
        if demand <= 0.0:
            continue
        cut = ACTIVE_FLOW_FRACTION * demand
        out[block] = frozenset(links for links, f in entries if f > cut)
    return out


def path_overlap_ratio(solution: EquilibriumSolution) -> float:
    """Jaccard overlap of the two classes' active path sets."""
    actives = _active_sets(solution)
    by_class: dict = {GV_CLASS: set(), EV_CLASS: set()}
    for (cls, _, _), paths in actives.items():
        by_class[cls].update(paths)
    if not by_class[GV_CLASS] or not by_class[EV_CLASS]:
        raise AnalysisError(
            "path overlap needs both classes to carry positive demand")
    union = by_class[GV_CLASS] | by_class[EV_CLASS]
    inter = by_class[GV_CLASS] & by_class[EV_CLASS]
    return len(inter) / len(union)


def critical_thresholds(sweep: SweepResult) -> list:
    """Penetration levels where some active path set changes.

    Reported as midpoints of the bracketing level interval.  Blocks are
    compared only where the class carries demand at both levels, so a
    class entering or leaving the fleet at the sweep boundary does not
    register as a threshold.
    """
    if sweep.records is None:
        raise UnsupportedOperationError(
            "critical thresholds need per-level path decompositions; "
            "run the sweep with a path-retaining solver"
        )
    thresholds = []
    previous = None
    for rec in sweep.records:
        current = _active_sets(rec.solution)
        if previous is not None:
            prev_level, prev_sets = previous
            common = prev_sets.keys() & current.keys()
            if any(prev_sets[b] != current[b] for b in common):
                thresholds.append((prev_level + rec.penetration) / 2.0)
        previous = (rec.penetration, current)
    return thresholds


def classify_city(sweep: SweepResult,
                  epsilon: float = PLATEAU_EPSILON) -> Classification:
    """Label the sweep's congestion response as Type I, II, or III.

    Type III: the full sweep moves average travel time by less than 3%
    of the baseline.  Type I: a transition zone starts in the early
    window and a plateau follows it.  Type II: everything else.
    """
    if len(sweep.levels) < 5:
        raise AnalysisError("classification needs at least five levels")
    if abs(sweep.levels[0]) > 1e-9 or abs(sweep.levels[-1] - 1.0) > 1e-9:
        raise AnalysisError("classification needs a sweep spanning [0, 1]")
    if sweep.records is not None and any(
        not rec.solution.converged for rec in sweep.records
    ):
        raise AnalysisError("classification refused: unconverged levels present")

    t0, t1 = sweep.avg_times[0], sweep.avg_times[-1]
    if t0 <= 0.0:
        raise AnalysisError("baseline travel time must be positive")
    delta_rel = 100.0 * (t1 - t0) / t0
    transitions = detect_transitions(sweep, epsilon)
    plateaus = detect_plateaus(sweep, epsilon)
    rationale = {
        "delta_t_rel_pct": delta_rel,
        "transition_intervals": transitions,
        "plateau_intervals": plateaus,
        "epsilon": epsilon,
    }

    if abs(delta_rel) < TYPE3_REL_CHANGE_PCT:
        rationale["rule"] = (
            f"|total relative change| {abs(delta_rel):.2f}% < "
            f"{TYPE3_REL_CHANGE_PCT}%"
        )
        return Classification("III", rationale)

    for lo, hi in transitions:
        if lo <= EARLY_WINDOW + 1e-9:
            following = [p for p in plateaus if p[0] >= hi - 1e-9]
            if following:
                rationale["rule"] = (
                    f"transition [{lo:g}, {hi:g}] starts within "
                    f"[0, {EARLY_WINDOW}] and plateau "
                    f"[{following[0][0]:g}, {following[0][1]:g}] follows"
                )
                return Classification("I", rationale)

    rationale["rule"] = "no early transition-to-plateau shape; change >= 3%"
    return Classification("II", rationale)


def run_sweep(network: Network, od: ODMatrix, config: CostConfig, levels,
              method: str = "bfw", options: SolverOptions | None = None,
              warm_start: bool = True) -> SweepResult:
    """Solve the equilibrium across penetration levels and diagnose.

    Each level is one :func:`solve`, warm-started from the previous
    solution unless ``warm_start`` is False.  A warm sweep also carries
    the solve state from each level to the next in one private session
    (``equilibrium._Session``): the network's arrays, the shortest-path
    trees with their warm-start plans and buffers, and the kept paths in
    index form.  The session ends when the sweep returns, so no stored
    solution holds that state.  A level that fails or hits the iteration
    cap raises :class:`SweepError` carrying the completed records; an
    infeasible or unsupported problem raises its own error unwrapped.
    """
    levels = sorted(float(v) for v in levels)
    _check_levels(levels)

    records: list[LevelRecord] = []
    previous: EquilibriumSolution | None = None
    session = _Session() if warm_start else None
    t_ff = None  # the same at every level: the first report computes it
    for r_e in levels:
        demand = split_demand(od, r_e)
        try:
            solution = solve(
                network, demand, config, method, options,
                warm_start=previous, _session=session,
            )
        except (InfeasibleProblemError, UnsupportedOperationError):
            raise  # structural, not a convergence failure
        except SolverError as exc:
            raise SweepError(
                f"sweep failed at penetration {r_e:g}: {exc}", r_e, records
            ) from exc
        if not solution.converged:
            raise SweepError(
                f"level {r_e:g} did not converge within the iteration cap",
                r_e, records,
            )
        report = compute_report(solution, network, od, avg_travel_time_ff=t_ff)
        t_ff = report.avg_travel_time_ff
        try:
            rho = path_overlap_ratio(solution)
        except AnalysisError:
            rho = None  # a boundary level leaves one class empty
        records.append(LevelRecord(
            penetration=r_e, report=report, solution=solution,
            overlap_ratio=rho,
        ))
        if warm_start:
            previous = solution

    return sweep_from_records(records)


def sweep_from_records(records) -> SweepResult:
    """Assemble a SweepResult (detectors included) from solved levels.

    Accepts any nonempty prefix of a sweep, which is how partial
    results are reported after a mid-sweep failure.  The result holds
    copies of ``records`` with this prefix's potential savings; the
    given records are left as they are.
    """
    if not records:
        raise AnalysisError("no solved levels to assemble")
    levels = [rec.penetration for rec in records]
    avg_times = [rec.report.avg_travel_time_mue for rec in records]
    sweep = SweepResult(
        levels=levels,
        avg_times=avg_times,
        gradient=_forward_differences(levels, avg_times),
    )
    _derive_series(sweep)
    sweep.records = [replace(rec, potential_savings=ps)
                     for rec, ps in zip(records, sweep.potential_savings)]
    sweep.critical_thresholds = critical_thresholds(sweep)
    if (
        len(levels) >= 5
        and abs(levels[0]) <= 1e-9
        and abs(levels[-1] - 1.0) <= 1e-9
    ):
        label = classify_city(sweep)
        sweep.city_type = label.city_type
        sweep.classification = label.rationale
    return sweep
