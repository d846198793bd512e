"""Multi-class user-equilibrium assignment solvers.

Each vehicle class chooses routes minimizing its own generalized cost
``vot * time + class $/km * length``; congestion couples the classes
through shared link times.  With a common value of time and additive
class distance costs this equilibrium is the minimizer of a single
convex objective (time integral plus linear class terms), which the
link-based solvers exploit; the path-based solvers treat it as a
variational problem and also handle explicit link capacity bounds
through Lagrange multipliers.

Solvers
-------
``fw``    link-based Frank-Wolfe with exact bisection line search
``bfw``   Frank-Wolfe with up to two-direction conjugate targets
``pd``    path-based projected primal-dual gradient
``eg``    path-based extra-gradient (two projection sweeps per step)

All four share the all-or-nothing machinery, keep an explicit path
decomposition of their flows, and stop on the same relative Wardrop
gap: the worst per-(class, OD) excess of mean used-path cost over the
shortest-path cost.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .cost import (
    CLASSES,
    CostConfig,
    bpr_integral,
    bpr_time,
    bpr_time_derivative,
    vehicle_costs,
)
from .demand import ClassDemand
from .network import Network

METHODS = ("fw", "bfw", "pd", "eg")
METHOD_ALIASES = {"primal_dual": "pd", "extra_gradient": "eg"}


class SolverError(RuntimeError):
    """Base class for assignment failures."""


class InfeasibleProblemError(SolverError):
    """Demand cannot be served: unreachable OD pair or unbounded duals."""


class UnsupportedOperationError(SolverError):
    """Requested combination is not provided by this solver."""


class UnknownPairError(SolverError):
    """A solution's path joins an OD pair that the demand does not hold."""


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by all solvers; path-based extras are ignored by fw/bfw.

    ``primal_step``/``tau`` default to None, meaning an automatic value
    from a per-iteration Lipschitz estimate of the cost map.  ``seed``
    is accepted for interface stability; no solver step is randomized.
    """

    rel_gap_tol: float = 1e-4
    max_iters: int = 4000
    primal_step: float | None = None
    dual_step: float = 1.0
    eps_gap: float = 1e-10
    tau: float | None = None
    capacity_constraints: dict | None = None
    init: str = "aon"
    seed: int | None = None
    path_drop_tol: float = 1e-9
    line_search_tol: float = 1e-10
    dual_bound: float = 1e8

    def __post_init__(self):
        # `not x > 0` also rejects NaN, which every comparison fails
        if not self.rel_gap_tol > 0.0:
            raise ValueError("rel_gap_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.primal_step is not None and not self.primal_step > 0.0:
            raise ValueError("primal_step must be positive")
        if not self.dual_step > 0.0:
            raise ValueError("dual_step must be positive")
        if self.tau is not None and not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if not self.eps_gap > 0.0:
            raise ValueError("eps_gap must be positive")
        if self.init not in ("aon", "uniform"):
            raise ValueError(f"init must be 'aon' or 'uniform', got {self.init!r}")


@dataclass
class LinkFlows:
    """Per-class and aggregate link flows aligned to ``link_ids``."""

    link_ids: list
    class_flows: dict

    def aggregate(self) -> np.ndarray:
        out = np.zeros(len(self.link_ids))
        for arr in self.class_flows.values():
            out = out + arr
        return out

    def flow(self, link_id: str, cls: str | None = None) -> float:
        i = self.link_ids.index(link_id)
        if cls is None:
            return float(sum(arr[i] for arr in self.class_flows.values()))
        return float(self.class_flows[cls][i])


@dataclass
class EquilibriumSolution:
    """Assignment result: flows, paths, costs, duals, and trace."""

    link_flows: LinkFlows
    paths: dict  # {(class, origin zone, dest zone): [(link id tuple, flow)]}
    pi: dict  # {(class, origin zone, dest zone): shortest generalized cost}
    duals: dict  # {link_id: lambda} for capacity-constrained links
    complementarity: dict  # {link_id: lambda * (cap - flow)}
    gap_trace: list
    converged: bool
    iterations: int
    method: str
    wardrop_gap: float
    objective: float
    link_times: np.ndarray
    skipped_intrazonal: float = 0.0

    @property
    def beckmann_value(self) -> float:
        return self.objective


def project_simplex(v, total: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto {x >= 0, sum x = total}.

    Sort-and-threshold: with the entries sorted descending the active
    set is a prefix, and the shift that lands the prefix on the budget
    is found in one cumulative-sum pass.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("project_simplex expects a nonempty 1-D array")
    if total < 0.0:
        raise ValueError("total must be nonnegative")
    if total == 0.0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - total
    ranks = np.arange(1, v.size + 1)
    mask = u - cumulative / ranks > 0.0
    rho = int(ranks[mask][-1])
    theta = cumulative[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


# -- internal problem representation ------------------------------------


class _Problem:
    """Arrays and index maps compiled once per solve."""

    def __init__(self, network: Network, demand: ClassDemand, config: CostConfig,
                 options: SolverOptions):
        network.validate()
        self.network = network
        self.config = config
        self.options = options
        self.indptr, self.heads, self.slots, self.node_index, self.link_index = (
            network.csr()
        )
        self.link_ids = network.link_ids
        self.t0 = network.free_flow_times()
        self.cap = network.capacities()
        self.length = network.lengths_km()
        self.alpha = config.bpr_alpha
        self.beta = config.bpr_beta
        self.gamma = config.vot
        per_km = vehicle_costs(config).per_km
        self.class_per_km = np.array([per_km[c] for c in CLASSES])
        self.n_links = network.n_links

        self.skipped_intrazonal = 0.0
        self.od: list[tuple[str, str, int, int]] = []
        dem_rows = []
        for origin, dest in demand.pairs():
            volume = sum(demand.by_class[c][(origin, dest)] for c in CLASSES)
            if origin == dest:
                self.skipped_intrazonal += volume
                continue
            for zid in (origin, dest):
                zone = network.zones.get(zid)
                if zone is None:
                    raise InfeasibleProblemError(f"OD references unknown zone {zid!r}")
                if zone.centroid_node is None:
                    raise InfeasibleProblemError(
                        f"zone {zid!r} has no centroid; run generate_connectors first"
                    )
            o_node = self.node_index[network.zones[origin].centroid_node]
            d_node = self.node_index[network.zones[dest].centroid_node]
            self.od.append((origin, dest, o_node, d_node))
            dem_rows.append([demand.by_class[c][(origin, dest)] for c in CLASSES])
        self.n_od = len(self.od)
        self.od_index = {(origin, dest): oi
                         for oi, (origin, dest, _, _) in enumerate(self.od)}
        self.dem = (
            np.array(dem_rows).T if dem_rows else np.zeros((len(CLASSES), 0))
        )  # (n_classes, n_od)

        # origins grouped for batched shortest paths, first-seen order;
        # od_row[oi] is the tree row of OD oi's origin
        self.origin_nodes: list[int] = []
        origin_row: dict[int, int] = {}
        for _, _, o_node, _ in self.od:
            if o_node not in origin_row:
                origin_row[o_node] = len(self.origin_nodes)
                self.origin_nodes.append(o_node)
        self.od_row = np.array(
            [origin_row[o_node] for _, _, o_node, _ in self.od], dtype=np.int64)
        self.od_dest = np.array([od[3] for od in self.od], dtype=np.int64)
        # per class: the kernel's warm-start state, which also tells
        # whether the trees repeated, and the last (path state, ods,
        # path indices) walked from them; the state is held weakly, as
        # it holds this problem
        in_arcs = _kernels._in_arcs(self.indptr, self.heads)
        self.arc_tail = in_arcs[2]
        self.warm = [_kernels.WarmStart(*in_arcs) for _ in CLASSES]
        self.last_walk: dict[int, tuple] = {}

        self.constrained_idx = np.zeros(0, dtype=np.int64)
        self.constrained_cap = np.zeros(0)
        if options.capacity_constraints:
            idx, caps = [], []
            for lid, cap in options.capacity_constraints.items():
                if lid not in self.link_index:
                    raise ValueError(f"capacity constraint on unknown link {lid!r}")
                if not cap > 0.0:
                    raise ValueError(f"capacity constraint on {lid!r} must be positive")
                idx.append(self.link_index[lid])
                caps.append(float(cap))
            order = np.argsort(idx)
            self.constrained_idx = np.array(idx, dtype=np.int64)[order]
            self.constrained_cap = np.array(caps)[order]

    # -- elementary maps ------------------------------------------------

    def times(self, x_agg: np.ndarray) -> np.ndarray:
        return bpr_time(self.t0, self.cap, self.alpha, self.beta, x_agg)

    def times_derivative(self, x_agg: np.ndarray) -> np.ndarray:
        return bpr_time_derivative(self.t0, self.cap, self.alpha, self.beta, x_agg)

    def class_costs(self, t: np.ndarray) -> np.ndarray:
        """Generalized $ cost per link and class, shape (n_classes, n_links)."""
        return self.gamma * t[None, :] + self.class_per_km[:, None] * self.length[None, :]

    def beckmann(self, x_class: np.ndarray) -> float:
        x_agg = x_class.sum(axis=0)
        time_part = self.gamma * float(
            np.sum(bpr_integral(self.t0, self.cap, self.alpha, self.beta, x_agg))
        )
        dist_part = float(np.sum(self.class_per_km @ (x_class * self.length[None, :])))
        return time_part + dist_part


class _PathState:
    """Growing universe of paths with flat arrays for vector updates.

    Paths live in one global list; per-path flow vectors (current
    flows, all-or-nothing targets, conjugate history points) are plain
    numpy arrays over that universe, padded with zeros when it grows.
    """

    def __init__(self, prob: _Problem):
        self.prob = prob
        self.paths: list[tuple[int, ...]] = []
        self.path_class = []
        self.path_od = []
        self.block_paths: dict[tuple[int, int], list[int]] = {
            (ci, oi): []
            for ci in range(len(CLASSES))
            for oi in range(prob.n_od)
        }
        self._lookup: dict[tuple[int, int, tuple[int, ...]], int] = {}
        self._flat = None
        self._blocks = None

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def ensure(self, ci: int, oi: int, path: tuple[int, ...]) -> int:
        key = (ci, oi, path)
        g = self._lookup.get(key)
        if g is None:
            g = len(self.paths)
            self._lookup[key] = g
            self.paths.append(path)
            self.path_class.append(ci)
            self.path_od.append(oi)
            self.block_paths[(ci, oi)].append(g)
            self._flat = None
            self._blocks = None
        return g

    def flat(self):
        if self._flat is None:
            lens = np.array([len(p) for p in self.paths], dtype=np.int64)
            concat = (
                np.concatenate([np.array(p, dtype=np.int64) for p in self.paths])
                if self.paths
                else np.zeros(0, dtype=np.int64)
            )
            offsets = np.zeros(len(self.paths), dtype=np.int64)
            if len(self.paths) > 1:
                offsets[1:] = np.cumsum(lens)[:-1]
            pclass = np.array(self.path_class, dtype=np.int64)
            pod = np.array(self.path_od, dtype=np.int64)
            flat_class = np.repeat(pclass, lens)
            self._flat = (concat, lens, offsets, pclass, pod, flat_class)
        return self._flat

    def link_flows(self, flow_vec: np.ndarray) -> np.ndarray:
        """Per-class link flows implied by a per-path flow vector."""
        concat, lens, _, _, _, flat_class = self.flat()
        x = np.zeros((len(CLASSES), self.prob.n_links))
        if flow_vec.size == 0:
            return x
        contrib = np.repeat(flow_vec, lens)
        for ci in range(len(CLASSES)):
            mask = flat_class == ci
            if np.any(mask):
                x[ci] = np.bincount(
                    concat[mask], weights=contrib[mask], minlength=self.prob.n_links
                )
        return x

    def path_costs(self, class_link_costs: np.ndarray) -> np.ndarray:
        """Generalized cost of each path under (n_classes, n_links) costs."""
        concat, lens, offsets, _, _, flat_class = self.flat()
        if not self.paths:
            return np.zeros(0)
        entry = class_link_costs[flat_class, concat]
        return np.add.reduceat(entry, offsets)

    def block_sums(self, per_path: np.ndarray) -> np.ndarray:
        """Sum a per-path quantity into (n_classes, n_od) blocks."""
        _, _, _, pclass, pod, _ = self.flat()
        out = np.zeros((len(CLASSES), self.prob.n_od))
        if per_path.size:
            flat_block = pclass * self.prob.n_od + pod
            sums = np.bincount(
                flat_block, weights=per_path, minlength=out.size
            )
            out = sums.reshape(out.shape)
        return out

    def blocks(self):
        """Flat (class, OD)-block layout for batched projections.

        Returns (path indices grouped by block, block offsets, block
        demands), covering every nonempty block in fixed (class-major,
        OD-minor) order.
        """
        if self._blocks is None:
            idx: list[int] = []
            offsets = [0]
            totals = []
            for (ci, oi), members in self.block_paths.items():
                if not members:
                    continue
                idx.extend(members)
                offsets.append(len(idx))
                totals.append(self.prob.dem[ci, oi])
            self._blocks = (
                np.array(idx, dtype=np.int64),
                np.array(offsets, dtype=np.int64),
                np.array(totals, dtype=np.float64),
            )
        return self._blocks

    def grow(self, vec: np.ndarray) -> np.ndarray:
        """Pad a per-path vector with zeros up to the current universe."""
        if vec.shape[0] == self.n_paths:
            return vec
        out = np.zeros(self.n_paths)
        out[: vec.shape[0]] = vec
        return out


# -- all-or-nothing ------------------------------------------------------


def _all_or_nothing(prob: _Problem, state: _PathState, class_link_costs: np.ndarray,
                    dem: np.ndarray | None = None):
    """Assign every block's demand to its cheapest path.

    ``dem`` (n_classes, n_od) is the demand to assign, ``prob.dem`` when
    None.  Returns (per-path target vector over the grown universe,
    shortest cost array (n_classes, n_od)).  Unreachable positive-demand
    pairs raise :class:`InfeasibleProblemError`.
    """
    if dem is None:
        dem = prob.dem
    n_classes = len(CLASSES)
    sp = np.full((n_classes, prob.n_od), np.inf)
    members, volumes = [], []
    for ci in range(n_classes):
        ods = np.flatnonzero(dem[ci] > 0.0)
        if ods.size == 0:
            # shortest costs are only consumed for pairs with positive demand
            continue
        dists, preds = _kernels.batch_dijkstra(
            prob.indptr, prob.heads, prob.slots, class_link_costs[ci],
            prob.origin_nodes, warm=prob.warm[ci])
        costs = dists[prob.od_row[ods], prob.od_dest[ods]]
        unreachable = np.flatnonzero(~np.isfinite(costs))
        if unreachable.size:
            origin, dest, _, _ = prob.od[ods[unreachable[0]]]
            raise InfeasibleProblemError(
                f"no route from zone {origin!r} to zone {dest!r} "
                f"for class {CLASSES[ci]!r}"
            )
        sp[ci, ods] = costs
        last = prob.last_walk.get(ci)
        if (prob.warm[ci].repeated and last is not None and last[0]() is state
                and np.array_equal(last[1], ods)):
            idx = last[2]
        else:
            paths = _kernels.walk_paths(preds, prob.slots, prob.arc_tail,
                                        prob.origin_nodes, prob.od_row[ods],
                                        prob.od_dest[ods])
            idx = np.array([state.ensure(ci, oi, path)
                            for oi, path in zip(ods.tolist(), paths)],
                           dtype=np.int64)
            prob.last_walk[ci] = (weakref.ref(state), ods, idx)
        members.append(idx)
        volumes.append(dem[ci, ods])
    target = np.zeros(state.n_paths)
    if members:
        np.add.at(target, np.concatenate(members), np.concatenate(volumes))
    return target, sp


def _block_gaps(prob: _Problem, state: _PathState, flows: np.ndarray,
                path_costs: np.ndarray, sp: np.ndarray) -> np.ndarray:
    """Per-block relative gap between mean used-path cost and best cost.

    Shaped (n_classes, n_od); 0 for blocks without demand and for a best
    cost that is not positive.
    """
    weighted = state.block_sums(flows * path_costs)
    live = prob.dem > 0.0
    mu = sp[live]
    gaps = np.zeros(sp.shape)
    gaps[live] = np.divide(weighted[live] / prob.dem[live] - mu, mu,
                           out=np.zeros(mu.shape), where=mu > 0.0)
    return gaps


def _worst_gap(gaps: np.ndarray) -> float:
    """Largest per-block gap, at least 0; NaN gaps are ignored."""
    return float(np.max(gaps, initial=0.0, where=gaps > 0.0))


def _measure(prob: _Problem, state: _PathState, flows: np.ndarray,
             costs: np.ndarray):
    """Gap of per-path ``flows`` against the best paths under ``costs``.

    Runs the all-or-nothing assignment, which may grow the path
    universe.  Returns (shortest costs sp, ``flows`` grown to the
    universe, path costs, per-block gaps (see :func:`_block_gaps`)).
    """
    _, sp = _all_or_nothing(prob, state, costs)
    flows = state.grow(flows)
    path_costs = state.path_costs(costs)
    return sp, flows, path_costs, _block_gaps(prob, state, flows, path_costs, sp)


# -- shared assembly ------------------------------------------------------


def _trim_paths(prob: _Problem, state: _PathState, flows: np.ndarray):
    """Drop numerically dead paths and renormalize each block's demand."""
    out = flows.copy()
    for (ci, oi), idxs in state.block_paths.items():
        d = prob.dem[ci, oi]
        if not idxs:
            continue
        if d <= 0.0:
            for g in idxs:
                out[g] = 0.0
            continue
        block = np.array(idxs, dtype=np.int64)
        f = out[block]
        keep = f >= prob.options.path_drop_tol * d
        if not np.any(keep):
            keep = f == f.max()
        kept_sum = float(f[keep].sum())
        scaled = np.zeros_like(f)
        if kept_sum > 0.0:
            scaled[keep] = f[keep] * (d / kept_sum)
        out[block] = scaled
    return out


def _assemble(prob: _Problem, state: _PathState, flows: np.ndarray, lam: np.ndarray,
              trace: list, converged: bool, iterations: int, method: str,
              wardrop_gap: float, sp: np.ndarray) -> EquilibriumSolution:
    flows = _trim_paths(prob, state, flows)
    x_class = state.link_flows(flows)
    x_agg = x_class.sum(axis=0)
    times = prob.times(x_agg)

    paths: dict = {}
    for (ci, oi), idxs in state.block_paths.items():
        if prob.dem[ci, oi] <= 0.0:
            continue
        origin, dest, _, _ = prob.od[oi]
        entries = []
        for g in idxs:
            if flows[g] <= 0.0:
                continue
            link_ids = tuple(prob.link_ids[li] for li in state.paths[g])
            entries.append((link_ids, float(flows[g])))
        paths[(CLASSES[ci], origin, dest)] = entries

    duals = {}
    comp = {}
    for j, li in enumerate(prob.constrained_idx):
        lid = prob.link_ids[int(li)]
        duals[lid] = float(lam[j])
        comp[lid] = float(lam[j] * (prob.constrained_cap[j] - x_agg[int(li)]))

    class_flows = {c: x_class[ci].copy() for ci, c in enumerate(CLASSES)}
    return EquilibriumSolution(
        link_flows=LinkFlows(link_ids=list(prob.link_ids), class_flows=class_flows),
        paths=paths,
        pi=_per_pair(prob, sp),
        duals=duals,
        complementarity=comp,
        gap_trace=trace,
        converged=converged,
        iterations=iterations,
        method=method,
        wardrop_gap=float(wardrop_gap),
        objective=float(prob.beckmann(x_class)),
        link_times=times,
        skipped_intrazonal=prob.skipped_intrazonal,
    )


def _per_pair(prob: _Problem, values: np.ndarray) -> dict:
    """{(class, origin zone, dest zone): value} over blocks with demand."""
    return {
        (CLASSES[ci], prob.od[oi][0], prob.od[oi][1]): float(values[ci, oi])
        for ci, oi in zip(*np.nonzero(prob.dem > 0.0))
    }


def _initial_flows(prob: _Problem, state: _PathState, warm: EquilibriumSolution | None):
    """Seed per-path flows from a warm solution or the configured init."""
    if warm is not None:
        flows_map: dict[tuple[int, int], list[tuple[tuple[int, ...], float]]] = {}
        for (cls, origin, dest), entries in warm.paths.items():
            ci = CLASSES.index(cls)
            oi = prob.od_index.get((origin, dest))
            if oi is None:
                continue
            idx_entries = []
            for link_ids, f in entries:
                try:
                    idx_entries.append(
                        (tuple(prob.link_index[lid] for lid in link_ids), f)
                    )
                except KeyError:
                    idx_entries = []
                    break
            if idx_entries:
                flows_map[(ci, oi)] = idx_entries
        vec_entries = []
        for (ci, oi), idx_entries in flows_map.items():
            total = sum(f for _, f in idx_entries)
            d = prob.dem[ci, oi]
            if d <= 0.0 or total <= 0.0:
                continue
            scale = d / total
            for path, f in idx_entries:
                vec_entries.append((state.ensure(ci, oi, path), f * scale))
        flows = np.zeros(state.n_paths)
        for g, f in vec_entries:
            flows[g] += f
        # blocks the warm start could not cover fall back to shortest paths
        covered = state.block_sums(flows)
        missing = (prob.dem > 0.0) & (covered <= 0.0)
        if np.any(missing):
            t = prob.times(state.link_flows(flows).sum(axis=0))
            target, _ = _all_or_nothing(prob, state, prob.class_costs(t),
                                        np.where(missing, prob.dem, 0.0))
            flows = state.grow(flows) + target
        return flows

    costs0 = prob.class_costs(prob.times(np.zeros(prob.n_links)))
    target0, _ = _all_or_nothing(prob, state, costs0)
    if prob.options.init == "aon":
        return target0
    # "uniform": spread each block's demand evenly over the free-flow and
    # the fully-loaded shortest paths (when they differ)
    costs1 = prob.class_costs(prob.times(prob.cap.copy()))
    target1, _ = _all_or_nothing(prob, state, costs1)
    target0 = state.grow(target0)
    blocks = state.block_paths
    flows = np.zeros(state.n_paths)
    for (ci, oi), idxs in blocks.items():
        d = prob.dem[ci, oi]
        if d <= 0.0 or not idxs:
            continue
        active = [g for g in idxs if target0[g] > 0.0 or target1[g] > 0.0]
        share = d / len(active)
        for g in active:
            flows[g] += share
    return flows


# -- Frank-Wolfe family ----------------------------------------------------


def _line_search(prob: _Problem, x_class: np.ndarray, d_class: np.ndarray,
                 tol: float) -> float:
    """Exact step on the combined objective via bisection on its slope."""
    d_agg = d_class.sum(axis=0)
    linear = float(np.sum(prob.class_per_km @ (d_class * prob.length[None, :])))
    x_agg = x_class.sum(axis=0)

    def slope(theta: float) -> float:
        t = prob.times(x_agg + theta * d_agg)
        return prob.gamma * float(np.dot(t, d_agg)) + linear

    if slope(0.0) >= 0.0:
        return 0.0
    if slope(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _conjugate_target(prob, x_class, y_vec_flows, s1, s2, theta_prev, state):
    """Frank-Wolfe target point mixed for conjugacy with past directions.

    ``s1``/``s2`` are the previous one and two target points as
    (per-path vector, per-class link array) pairs; returns the mixing
    weights (b0, b1, b2) over (all-or-nothing, s1, s2).  Falls back to
    fewer directions whenever denominators vanish or weights leave the
    simplex.
    """
    h = prob.gamma * prob.times_derivative(x_class.sum(axis=0))

    def hdot(a_agg, b_agg):
        return float(np.sum(h * a_agg * b_agg))

    y_agg = y_vec_flows.sum(axis=0)
    x_agg = x_class.sum(axis=0)
    w = y_agg - x_agg
    if s1 is None:
        return 1.0, 0.0, 0.0
    u = s1[1].sum(axis=0) - x_agg
    whu = hdot(w, u)
    uhu = hdot(u, u)
    if s2 is not None and theta_prev is not None and theta_prev < 1.0 - 1e-9:
        z = s2[1].sum(axis=0) - x_agg
        v = z + (theta_prev / (1.0 - theta_prev)) * u
        whv = hdot(w, v)
        uhv = hdot(u, v)
        zhu = hdot(z, u)
        zhv = hdot(z, v)
        a11 = uhu - whu
        a12 = zhu - whu
        a21 = uhv - whv
        a22 = zhv - whv
        det = a11 * a22 - a12 * a21
        scale = max(abs(a11), abs(a12), abs(a21), abs(a22), 1.0)
        if abs(det) > 1e-12 * scale * scale:
            b1 = (-whu * a22 + whv * a12) / det
            b2 = (-whv * a11 + whu * a21) / det
            b0 = 1.0 - b1 - b2
            if b0 > 1e-8 and b1 >= 0.0 and b2 >= 0.0:
                return b0, b1, b2
    denom = whu - uhu
    if abs(denom) > 1e-12 * max(abs(whu), abs(uhu), 1.0):
        b1 = whu / denom
        if 0.0 <= b1 <= 1.0 - 1e-3:
            return 1.0 - b1, b1, 0.0
    return 1.0, 0.0, 0.0


def _solve_fw(prob: _Problem, method: str, warm: EquilibriumSolution | None):
    opts = prob.options
    state = _PathState(prob)
    flows = _initial_flows(prob, state, warm)
    x_class = state.link_flows(flows)

    s1 = s2 = None  # previous target points: (path vector, class link array)
    theta_prev = None
    trace: list = []
    converged = False
    wardrop_gap = math.inf
    iteration = 0

    for iteration in range(1, opts.max_iters + 1):
        costs = prob.class_costs(prob.times(x_class.sum(axis=0)))
        y_vec, sp = _all_or_nothing(prob, state, costs)
        flows = state.grow(flows)
        y_class = state.link_flows(y_vec)

        assigned = float(np.sum(costs * x_class))
        best = float(np.sum(costs * y_class))
        agg_gap = (assigned - best) / abs(best) if best else 0.0

        record = {
            "iteration": iteration,
            "rel_gap": float(agg_gap),
            "objective": float(prob.beckmann(x_class)),
        }
        if agg_gap <= opts.rel_gap_tol:
            wardrop_gap = _worst_gap(_block_gaps(
                prob, state, flows, state.path_costs(costs), sp))
            record["wardrop_gap"] = float(wardrop_gap)
            if wardrop_gap <= opts.rel_gap_tol:
                trace.append(record)
                converged = True
                break

        if method == "bfw":
            b0, b1, b2 = _conjugate_target(
                prob, x_class, y_class, s1, s2, theta_prev, state
            )
        else:
            b0, b1, b2 = 1.0, 0.0, 0.0
        target_vec = b0 * y_vec
        if b1:
            target_vec = target_vec + b1 * state.grow(s1[0])
        if b2:
            target_vec = target_vec + b2 * state.grow(s2[0])
        target_class = state.link_flows(target_vec)

        d_class = target_class - x_class
        if float(np.max(np.abs(d_class))) == 0.0:
            theta = 0.0
        else:
            theta = _line_search(prob, x_class, d_class, opts.line_search_tol)
        if theta <= 0.0 and method == "bfw" and (b1 or b2):
            # conjugate target failed to descend; retry with plain target
            target_vec = y_vec
            target_class = y_class
            d_class = target_class - x_class
            theta = _line_search(prob, x_class, d_class, opts.line_search_tol)
            b0, b1, b2 = 1.0, 0.0, 0.0

        flows = (1.0 - theta) * flows + theta * target_vec
        x_class = x_class + theta * d_class
        record["step"] = theta
        trace.append(record)

        s2 = s1
        s1 = (target_vec.copy(), target_class.copy())
        theta_prev = theta

    if not converged:
        # final measurement for the returned gap
        costs = prob.class_costs(prob.times(x_class.sum(axis=0)))
        sp, flows, _, gaps = _measure(prob, state, flows, costs)
        wardrop_gap = _worst_gap(gaps)

    return _assemble(
        prob, state, flows, np.zeros(0), trace, converged, iteration, method,
        wardrop_gap, sp,
    )


# -- path-based solvers ----------------------------------------------------


def _lipschitz_estimate(prob: _Problem, state: _PathState, x_agg: np.ndarray,
                        safety: float = 1.15):
    """Estimate of the path-cost Jacobian norm at current flows.

    The Jacobian over the working paths is A^T diag(gamma t') A, which
    is symmetric PSD with nonnegative entries, so a few power-iteration
    sweeps started from the all-ones vector converge onto its largest
    eigenvalue from below; ``safety`` covers the remaining gap.  The
    product bound max(d) * max paths per link * max links per path caps
    the result (it is a guaranteed, if loose, upper bound).
    """
    tprime = prob.times_derivative(x_agg)
    concat, lens, offsets, _, _, _ = state.flat()
    if not concat.size or not tprime.size:
        return 0.0, 0.0
    d = prob.gamma * tprime
    max_len = int(lens.max())
    per_link = np.bincount(concat, minlength=prob.n_links)
    cap_bound = float(d.max()) * max_len * int(per_link.max())

    v = np.ones(len(lens))
    est = 0.0
    for _ in range(8):
        load = np.bincount(
            concat, weights=np.repeat(v, lens), minlength=prob.n_links
        )
        w = np.add.reduceat((d * load)[concat], offsets)
        nrm = float(np.linalg.norm(w))
        if nrm <= 0.0:
            est = 0.0
            break
        est = nrm / float(np.linalg.norm(v))
        v = w / nrm
    l_f = min(cap_bound, est * safety) if est > 0.0 else cap_bound

    if prob.constrained_idx.size:
        on_constrained = np.isin(concat, prob.constrained_idx)
        if np.any(on_constrained):
            per_clink = np.bincount(concat[on_constrained], minlength=prob.n_links)
            l_a2 = float(max_len * per_clink.max())
        else:
            l_a2 = 0.0
    else:
        l_a2 = 0.0
    return l_f, l_a2


def _effective_costs(prob: _Problem, t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    costs = prob.class_costs(t)
    if prob.constrained_idx.size:
        bump = np.zeros(prob.n_links)
        bump[prob.constrained_idx] = lam
        costs = costs + bump[None, :]
    return costs


def _project_blocks(prob: _Problem, state: _PathState, vec: np.ndarray) -> np.ndarray:
    idx, offsets, totals = state.blocks()
    out = np.zeros_like(vec)
    if idx.size:
        out[idx] = _kernels.project_blocks(vec[idx], offsets, totals)
    return out


def _dual_update(prob: _Problem, lam: np.ndarray, x_agg: np.ndarray,
                 step: float) -> np.ndarray:
    if not prob.constrained_idx.size:
        return lam
    grad = x_agg[prob.constrained_idx] - prob.constrained_cap
    return np.maximum(0.0, lam + step * grad)


def _check_duals(prob: _Problem, lam: np.ndarray):
    if lam.size and float(np.max(lam)) > prob.options.dual_bound:
        raise InfeasibleProblemError(
            "capacity multipliers diverged; the caps are likely infeasible "
            "for the given demand"
        )


def _solve_path_based(prob: _Problem, method: str, warm: EquilibriumSolution | None):
    opts = prob.options
    state = _PathState(prob)
    flows = _initial_flows(prob, state, warm)
    lam = np.zeros(prob.constrained_idx.size)
    if warm is not None and warm.duals:
        for j, li in enumerate(prob.constrained_idx):
            lam[j] = warm.duals.get(prob.link_ids[int(li)], 0.0)

    trace: list = []
    converged = False
    wardrop_gap = math.inf
    g_sq = math.inf
    iteration = 0
    lip_safety = 1.15 if method == "pd" else 1.35
    lip = None  # (l_f, l_a2), refreshed when the path universe grows
    lip_paths = -1
    lip_iter = 0
    # class link flows of ``flows`` and their objective; pd carries its
    # accepted candidate's into the next iteration
    x_class = None

    for iteration in range(1, opts.max_iters + 1):
        if x_class is None:
            x_class = state.link_flows(flows)
            objective = prob.beckmann(x_class)
        x_agg = x_class.sum(axis=0)
        eff = _effective_costs(prob, prob.times(x_agg), lam)

        # column generation: bring in each block's current best path
        sp, flows, path_costs, gaps = _measure(prob, state, flows, eff)
        wardrop_gap = _worst_gap(gaps)
        record = {
            "iteration": iteration,
            "rel_gap": float(wardrop_gap),
            "objective": float(objective),
            "g_sq": float(g_sq) if math.isfinite(g_sq) else None,
        }
        if wardrop_gap <= opts.rel_gap_tol and g_sq < opts.eps_gap:
            trace.append(record)
            converged = True
            break

        if lip is None or state.n_paths != lip_paths or iteration - lip_iter >= 8:
            lip = _lipschitz_estimate(prob, state, x_agg, lip_safety)
            lip_paths = state.n_paths
            lip_iter = iteration
        l_f, l_a2 = lip

        if method == "pd":
            base = opts.primal_step
            if base is None:
                base = 0.9 / (l_f + l_a2 / opts.dual_step + 1e-12)
            elif base > 1.0 / (l_f + l_a2 / opts.dual_step + 1e-12):
                record["note"] = "primal step exceeds stability bound"
            merit_before = objective + float(
                np.dot(lam, x_agg[prob.constrained_idx] - prob.constrained_cap)
            ) if lam.size else objective
            step = base
            for attempt in range(21):
                new_flows = _project_blocks(prob, state, flows - step * path_costs)
                x_class = state.link_flows(new_flows)
                new_agg = x_class.sum(axis=0)
                objective = prob.beckmann(x_class)
                merit_after = objective
                if lam.size:
                    merit_after += float(
                        np.dot(lam, new_agg[prob.constrained_idx] - prob.constrained_cap)
                    )
                if merit_after <= merit_before + 1e-12 * max(1.0, abs(merit_before)):
                    break
                if attempt == 20:
                    record["note"] = "step halving exhausted"
                    break
                step *= 0.5
            new_lam = _dual_update(prob, lam, new_agg, opts.dual_step)
            record["step"] = step
        else:  # extra-gradient
            l_total = l_f + math.sqrt(l_a2) + 1e-12
            step = opts.tau if opts.tau is not None else 0.9 / l_total
            mid_flows = _project_blocks(prob, state, flows - step * path_costs)
            mid_lam = _dual_update(prob, lam, x_agg, step)
            mid_class = state.link_flows(mid_flows)
            mid_agg = mid_class.sum(axis=0)
            mid_eff = _effective_costs(prob, prob.times(mid_agg), mid_lam)
            mid_costs = state.path_costs(mid_eff)
            new_flows = _project_blocks(prob, state, flows - step * mid_costs)
            new_lam = _dual_update(prob, lam, mid_agg, step)
            record["step"] = step
            x_class = None

        g_sq = float(np.sum((new_flows - flows) ** 2))
        if lam.size:
            g_sq += float(np.sum((new_lam - lam) ** 2))
        flows = new_flows
        lam = new_lam
        _check_duals(prob, lam)
        trace.append(record)

    if not converged:
        x_agg = state.link_flows(flows).sum(axis=0)
        eff = _effective_costs(prob, prob.times(x_agg), lam)
        sp, flows, _, gaps = _measure(prob, state, flows, eff)
        wardrop_gap = _worst_gap(gaps)

    return _assemble(
        prob, state, flows, lam, trace, converged, iteration, method,
        wardrop_gap, sp,
    )


# -- public entry points ----------------------------------------------------


def solve(network: Network, demand: ClassDemand, config: CostConfig,
          method: str = "bfw", options: SolverOptions | None = None,
          warm_start: EquilibriumSolution | None = None) -> EquilibriumSolution:
    """Solve the fixed-class equilibrium with the chosen method.

    ``warm_start`` reuses a previous solution's paths (rescaled to the
    new class demands), which is how penetration sweeps stay fast.
    Returns an :class:`EquilibriumSolution` whose ``converged`` flag is
    False when the iteration cap was reached.
    """
    method = METHOD_ALIASES.get(method, method)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if options is None:
        options = SolverOptions()
    prob = _Problem(network, demand, config, options)
    if method in ("fw", "bfw") and prob.constrained_idx.size:
        raise UnsupportedOperationError(
            "explicit capacity constraints need a path-based solver ('pd' or 'eg')"
        )
    if float(prob.dem.sum()) == 0.0:
        trace = [{"iteration": 0, "rel_gap": 0.0, "objective": 0.0,
                  "note": "zero demand"}]
        return _assemble(prob, _PathState(prob), np.zeros(0),
                         np.zeros(prob.constrained_idx.size), trace, True, 0,
                         method, 0.0, np.zeros(prob.dem.shape))
    if method in ("fw", "bfw"):
        return _solve_fw(prob, method, warm_start)
    return _solve_path_based(prob, method, warm_start)


def solve_fw(network: Network, demand: ClassDemand, config: CostConfig,
             options: SolverOptions | None = None,
             warm_start: EquilibriumSolution | None = None,
             conjugate: bool = True) -> EquilibriumSolution:
    """Link-based solver; ``conjugate`` picks bfw over plain fw."""
    method = "bfw" if conjugate else "fw"
    return solve(network, demand, config, method, options, warm_start)


def solve_primal_dual(network: Network, demand: ClassDemand, config: CostConfig,
                      options: SolverOptions | None = None,
                      warm_start: EquilibriumSolution | None = None):
    """Path-based projected-gradient solver with dual capacity updates."""
    return solve(network, demand, config, "pd", options, warm_start)


def solve_extra_gradient(network: Network, demand: ClassDemand, config: CostConfig,
                         options: SolverOptions | None = None,
                         warm_start: EquilibriumSolution | None = None):
    """Path-based extra-gradient solver (extrapolate, then correct)."""
    return solve(network, demand, config, "eg", options, warm_start)


def beckmann_objective(network: Network, class_flows: dict, config: CostConfig) -> float:
    """Combined convex objective at the given per-class link flows."""
    per_km = vehicle_costs(config).per_km
    order = network.link_ids
    x = np.zeros((len(CLASSES), len(order)))
    for ci, cls in enumerate(CLASSES):
        arr = class_flows.get(cls)
        if arr is None:
            continue
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (len(order),):
            raise ValueError(f"class {cls!r} flows have shape {arr.shape}")
        x[ci] = arr
    x_agg = x.sum(axis=0)
    t0 = network.free_flow_times()
    cap = network.capacities()
    length = network.lengths_km()
    time_part = config.vot * float(
        np.sum(bpr_integral(t0, cap, config.bpr_alpha, config.bpr_beta, x_agg))
    )
    dist_part = float(
        sum(per_km[cls] * float(np.dot(length, x[ci])) for ci, cls in enumerate(CLASSES))
    )
    return time_part + dist_part


def wardrop_residual(network: Network, demand: ClassDemand, config: CostConfig,
                     solution: EquilibriumSolution):
    """Relative equilibrium violation per (class, OD) and its maximum.

    Costs are effective generalized costs (including any capacity
    multipliers carried by the solution), evaluated at the solution's
    flows; the mean used-path cost comes from the solution's paths.
    Raises :class:`UnknownPairError` for a path whose OD pair is not in
    ``demand``, and ValueError for a path or dual link that the network
    does not hold.
    """
    if not solution.paths and any(
        d > 0.0 for c in demand.by_class.values() for d in c.values()
    ):
        raise UnsupportedOperationError(
            "solution carries no path decomposition; re-run with a solver "
            "that records paths"
        )
    prob = _Problem(network, demand, config, SolverOptions())

    def link_position(lid, where):
        li = prob.link_index.get(lid)
        if li is None:
            raise ValueError(f"solution {where} names unknown link {lid!r}")
        return li

    state = _PathState(prob)
    flows_entries = []
    for (cls, origin, dest), entries in solution.paths.items():
        ci = CLASSES.index(cls)
        oi = prob.od_index.get((origin, dest))
        if oi is None:
            raise UnknownPairError(
                f"solution has {cls!r} paths from zone {origin!r} to zone "
                f"{dest!r}, a pair the demand does not hold"
            )
        for link_ids, f in entries:
            path = tuple(link_position(lid, "path") for lid in link_ids)
            g = state.ensure(ci, oi, path)
            flows_entries.append((g, f))
    flows = np.zeros(state.n_paths)
    for g, f in flows_entries:
        flows[g] += f
    x_agg = state.link_flows(flows).sum(axis=0)
    t = prob.times(x_agg)
    lam = np.zeros(prob.n_links)
    for lid, value in solution.duals.items():
        lam[link_position(lid, "dual")] = value
    eff = prob.class_costs(t) + lam[None, :]
    *_, gaps = _measure(prob, state, flows, eff)
    return _per_pair(prob, gaps), _worst_gap(gaps)
