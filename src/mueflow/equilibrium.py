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

All four run in one loop (:func:`_solve`); a method supplies only its
step and its certificate.  Each keeps an explicit path decomposition of
its flows and stops on the relative Wardrop gap, the worst per-(class,
OD) excess of mean used-path cost over the shortest-path cost; fw and
bfw check it once their link gap is met.  pd and eg also need the
squared norm of their last step below ``_EPS_GAP`` veh²/h², an absolute
test that keeps them going long after the gap is met (to the iteration
cap on ``mini_city``).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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

# pd/eg stop only once their squared step norm is below this (veh²/h²)
_EPS_GAP = 1e-10
# width of the bracket at which the fw/bfw bisection line search stops
_LINE_SEARCH_TOL = 1e-10
# Illinois steps that shrink its bracket before it bisects, at most
_SECANT_STEPS = 6
# a path carrying less than this share of its block's demand is dropped
_PATH_DROP_TOL = 1e-9


class SolverError(RuntimeError):
    """Base class for assignment failures."""


class InfeasibleProblemError(SolverError):
    """Demand cannot be served: unreachable OD pair or unbounded duals."""


class UnsupportedOperationError(SolverError):
    """Requested combination is not provided by this solver."""


class UnknownPairError(SolverError):
    """A solution's paths form a (class, OD) block the demand does not hold."""


@dataclass(frozen=True)
class SolverOptions:
    """Settings of one solve; the defaults are the CLI's defaults.

    fw and bfw read ``rel_gap_tol``, ``max_iters`` (an integer: the most
    steps a solve takes) and ``init`` (the cold start: ``"aon"`` or
    ``"uniform"``).  pd and eg also take
    ``capacity_constraints`` ({link_id: cap}), pd's multiplier step
    ``dual_step``, and ``dual_bound``, above which a multiplier raises
    :class:`InfeasibleProblemError` (a warm-start multiplier above it
    starts at 0 instead); their primal steps come from a
    Lipschitz estimate.  ``seed`` is kept for interface stability; no
    step is randomized.
    """

    rel_gap_tol: float = 1e-4
    max_iters: int = 4000
    dual_step: float = 1.0
    capacity_constraints: dict | None = None
    init: str = "aon"
    seed: int | None = None
    dual_bound: float = 1e8

    def __post_init__(self):
        # a chained comparison also rejects NaN, which every comparison
        # fails; an infinite tolerance would pass any gap as converged
        if not 0.0 < self.rel_gap_tol < math.inf:
            raise ValueError("rel_gap_tol must be positive and finite")
        # a float cap is never met by the integer count of iterations
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer of at least 1")
        if not 0.0 < self.dual_step < math.inf:
            raise ValueError("dual_step must be positive and finite")
        if not self.dual_bound > 0.0:
            raise ValueError("dual_bound must be positive")
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

    @cached_property
    def _position(self) -> dict:
        return {lid: i for i, lid in enumerate(self.link_ids)}

    def flow(self, link_id: str, cls: str | None = None) -> float:
        i = self._position.get(link_id)
        if i is None:
            raise ValueError(f"unknown link {link_id!r}")
        if cls is None:
            return float(sum(arr[i] for arr in self.class_flows.values()))
        if cls not in self.class_flows:
            raise ValueError(f"unknown class {cls!r}")
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


class _Graph:
    """The network side of a problem: what every level of a sweep shares.

    Built from ``network.csr()``, which it keeps (``csr``).
    """

    def __init__(self, network: Network):
        self.csr = network.csr()
        indptr, heads, slots, _, _ = self.csr
        self.link_ids = network.link_ids
        self.t0 = network.free_flow_times()
        self.cap = network.capacities()
        self.length = network.lengths_km()
        # the in-arc layout every warm start reads, and arc tails
        self.in_arcs = _kernels._in_arcs(indptr, heads)
        # each link's arc slot and tail node: a path is a tree path when
        # each of its links is the tree arc of the next link's tail
        self.link_slot = np.empty_like(slots)
        self.link_slot[slots] = np.arange(slots.size)
        self.link_tail = self.in_arcs.arc_tail[self.link_slot]


class _Problem:
    """Arrays and index maps compiled once per solve.

    The network side comes from ``graph`` (a :class:`_Graph` of
    ``network``), built anew when it is None.
    """

    def __init__(self, network: Network, demand: ClassDemand, config: CostConfig,
                 options: SolverOptions, graph: _Graph | None = None):
        self.options = options
        self.graph = graph = _Graph(network) if graph is None else graph
        self.indptr, self.heads, self.slots, self.node_index, self.link_index = (
            graph.csr
        )
        self.link_ids = graph.link_ids
        self.t0, self.cap, self.length = graph.t0, graph.cap, graph.length
        self.in_arcs = graph.in_arcs
        self.arc_tail = graph.in_arcs.arc_tail
        self.alpha = config.bpr_alpha
        self.beta = config.bpr_beta
        self.gamma = config.vot
        per_km = vehicle_costs(config).per_km
        self.class_per_km = np.array([per_km[c] for c in CLASSES])
        self.n_links = len(self.link_ids)

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
                if zone.centroid_node not in self.node_index:
                    raise InfeasibleProblemError(
                        f"zone {zid!r} has no centroid node in the network; "
                        "run generate_connectors first"
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

        self.constrained_idx = np.zeros(0, dtype=np.int64)
        self.constrained_cap = np.zeros(0)
        if options.capacity_constraints:
            idx, caps = [], []
            for lid, cap in options.capacity_constraints.items():
                if lid not in self.link_index:
                    raise ValueError(f"capacity constraint on unknown link {lid!r}")
                if isinstance(cap, bool) or not 0.0 < cap < math.inf:
                    raise ValueError(
                        f"capacity constraint on {lid!r} must be positive and finite")
                idx.append(self.link_index[lid])
                caps.append(float(cap))
            order = np.argsort(idx)
            self.constrained_idx = np.array(idx, dtype=np.int64)[order]
            self.constrained_cap = np.array(caps)[order]

    @cached_property
    def layout(self) -> _Layout:
        """The :class:`_Layout` of ``dem``, which a solve never changes."""
        return _layout(self, self.dem)

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
    The state also owns the kernel's ``WarmStart`` for the one batch of
    trees each all-or-nothing step makes over both classes (it tells
    whether the trees repeated), and ``last_path``, each (class, OD)
    block's path from the last all-or-nothing step (-1 before any).
    ``warm`` is a ``WarmStart`` to take over, such as the one a sweep's
    :class:`_Session` holds from the solve before; None builds one.
    """

    def __init__(self, prob: _Problem, warm: _kernels.WarmStart | None = None):
        self.prob = prob
        self.paths: list[tuple[int, ...]] = []
        self.path_class = []
        self.path_od = []
        self._lookup: dict[tuple[int, int, tuple[int, ...]], int] = {}
        self._flat = None
        self._blocks = None
        self._projection = None
        self.last_path = np.full(prob.dem.shape, -1, dtype=np.int64)
        self.last_live = None
        self.warm = _kernels.WarmStart(prob.in_arcs) if warm is None else warm

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
            self._blocks = None
            self._projection = None
        return g

    def flat(self):
        """Flat arrays of the universe, extended as it grows.

        Returns (every path's links one after another, lengths,
        offsets, block keys ``class * n_od + OD``, class link keys
        ``class * n_links + link`` of the links).
        """
        done = 0 if self._flat is None else self._flat[1].size
        if done < len(self.paths):
            new = self.paths[done:]
            lens = np.array([len(p) for p in new], dtype=np.int64)
            concat = np.fromiter(itertools.chain.from_iterable(new),
                                 dtype=np.int64, count=int(lens.sum()))
            if done:
                concat = np.concatenate([self._flat[0], concat])
                lens = np.concatenate([self._flat[1], lens])
            offsets = np.cumsum(lens) - lens
            pclass = np.array(self.path_class, dtype=np.int64)
            # each path's block key, class * n_od + OD
            block = pclass * self.prob.n_od + np.array(self.path_od, dtype=np.int64)
            # each entry's class link key, class * n_links + link
            link_key = np.repeat(pclass, lens) * self.prob.n_links + concat
            self._flat = (concat, lens, offsets, block, link_key)
        elif self._flat is None:
            empty = np.zeros(0, dtype=np.int64)
            self._flat = (empty,) * 5
        return self._flat

    def link_flows(self, flow_vec: np.ndarray) -> np.ndarray:
        """Per-class link flows implied by a per-path flow vector."""
        _, lens, _, _, link_key = self.flat()
        shape = (len(CLASSES), self.prob.n_links)
        if flow_vec.size == 0:
            return np.zeros(shape)
        return np.bincount(link_key, weights=np.repeat(flow_vec, lens),
                           minlength=shape[0] * shape[1]).reshape(shape)

    def path_costs(self, class_link_costs: np.ndarray) -> np.ndarray:
        """Generalized cost of each path under (n_classes, n_links) costs."""
        _, _, offsets, _, link_key = self.flat()
        if not self.paths:
            return np.zeros(0)
        return np.add.reduceat(class_link_costs.ravel()[link_key], offsets)

    def block_sums(self, per_path: np.ndarray) -> np.ndarray:
        """Sum a per-path quantity into (n_classes, n_od) blocks."""
        block = self.flat()[3]
        out = np.zeros((len(CLASSES), self.prob.n_od))
        if per_path.size:
            out = np.bincount(block, weights=per_path, minlength=out.size
                              ).reshape(out.shape)
        return out

    def blocks(self):
        """Flat (class, OD)-block layout of the universe.

        Returns (path indices grouped by block, block offsets, block
        demands, block keys ``class * n_od + OD``) over the nonempty
        blocks in key order, each block's paths in arrival order.
        """
        if self._blocks is None:
            key = self.flat()[3]
            idx = np.argsort(key, kind="stable")
            keys, starts = np.unique(key[idx], return_index=True)
            self._blocks = (
                idx,
                np.append(starts, idx.size),
                self.prob.dem.ravel()[keys],
                keys,
            )
        return self._blocks

    def members(self):
        """Yield (class, OD, path indices) of each block of :meth:`blocks`."""
        idx, offsets, _, keys = self.blocks()
        for b, key in enumerate(keys.tolist()):
            ci, oi = divmod(key, self.prob.n_od)
            yield ci, oi, idx[offsets[b]:offsets[b + 1]]

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Project each block of a per-path vector onto its demand simplex.

        The blocks' padded layout is built once per universe: it changes
        only when :meth:`blocks` does.
        """
        idx, offsets, totals, _ = self.blocks()
        if self._projection is None:
            self._projection = _kernels._block_layout(offsets, totals)
        out = np.zeros_like(vec)
        if idx.size:
            out[idx] = _kernels.project_blocks(vec[idx], offsets,
                                               self._projection)
        return out

    def walk(self, preds: np.ndarray, layout: _Layout) -> np.ndarray:
        """Each block's path in the trees ``preds``, as a path index.

        ``layout`` (:class:`_Layout`) lists the blocks and their tree
        rows.  A block keeps its last path when the trees repeat;
        otherwise it takes the path of the universe that is its tree
        path (:meth:`_tree_paths`), where there is one.  Only the other
        blocks are walked: their tree paths are new, and they join the
        universe in block order, as a walk of every block would add them.
        """
        if self.warm.repeated and np.array_equal(self.last_live, layout.live):
            idx = self.last_path[layout.ci, layout.oi]
        else:
            idx = self._tree_paths(preds, layout)
        redo = np.flatnonzero(idx < 0)
        if redo.size:
            paths = _kernels.walk_paths(preds, self.prob.slots, self.prob.arc_tail,
                                        layout.rows[redo], layout.dests[redo])
            idx[redo] = [self.ensure(c, o, path) for c, o, path in zip(
                layout.ci[redo].tolist(), layout.oi[redo].tolist(), paths)]
        self.last_path[layout.ci, layout.oi] = idx
        self.last_live = layout.live
        return idx

    def _tree_paths(self, preds: np.ndarray, layout: _Layout) -> np.ndarray:
        """Per block of ``layout``: its path in the trees ``preds``, if held.

        Returns the index of the universe path that is the block's tree
        path, -1 where no path is.  A path is its block's tree path when
        its first link leaves the block's origin and each link is the
        tree arc, in the block's tree row, of the next link's tail or,
        for the last link, of the destination: the walk from the
        destination would step back along exactly that path.  A tree
        holds one path from its root to each node, so at most one path
        of a block passes.
        """
        out = np.full(layout.ci.size, -1, dtype=np.int64)
        concat, lens, offsets, block, _ = self.flat()
        # a path without links leaves no origin
        full = np.flatnonzero(lens > 0)
        if not full.size:
            return out
        # each path's block in the layout, -1 where it is not (masked below)
        in_layout = np.full(self.last_path.size, -1, dtype=np.int64)
        in_layout[layout.ci * self.prob.n_od + layout.oi] = np.arange(layout.ci.size)
        b = in_layout[block[full]]
        rows = layout.rows[b]
        graph = self.prob.graph
        tail = graph.link_tail[concat]
        # the entry of ``preds`` that must hold each link: the next
        # link's tail, or the destination, in the block's tree row
        at = np.empty_like(tail)
        at[:-1] = tail[1:]
        at[offsets[full] + lens[full] - 1] = layout.dests[b]
        at += np.repeat(rows * preds.shape[1], lens[full])
        on_tree = preds.reshape(-1)[at] == graph.link_slot[concat]
        hit = (np.logical_and.reduceat(on_tree, offsets[full])
               & (tail[offsets[full]] == layout.sources[rows]) & (b >= 0))
        out[b[hit]] = full[hit]
        return out

    def grow(self, vec: np.ndarray) -> np.ndarray:
        """Pad a per-path vector with zeros up to the current universe."""
        if vec.shape[0] == self.n_paths:
            return vec
        out = np.zeros(self.n_paths)
        out[: vec.shape[0]] = vec
        return out


class _Session:
    """The solve state one warm sweep carries from each level to the next.

    ``analysis.run_sweep`` makes one for a warm sweep and passes it to
    every level's :func:`solve`; it goes when the sweep returns, so no
    solution holds solve state.  It starts empty: the first level builds
    its state as a solve without a session does.  Each solve leaves here
    the network side of its problem (``graph``) and its ``WarmStart``
    with the trees, sweep plans and workspace (``warm``).  The next
    level takes them over: a sweep has one method and one network.  It
    returns the same bits without them: the kernel returns the heap's
    trees from any ``WarmStart`` over the same in-arc layout.
    """

    def __init__(self):
        self.graph = self.warm = None


# -- all-or-nothing ------------------------------------------------------


class _Layout(NamedTuple):
    """What an all-or-nothing step over one demand reads, built once.

    The blocks with demand go class by class; a solve's own demand
    keeps one layout (``_Problem.layout``).
    """

    live: np.ndarray       # (n_classes, n_od): the blocks with demand
    sources: np.ndarray    # every origin, once per class with demand
    cost_rows: np.ndarray  # each source's class
    ci: np.ndarray         # per block: class,
    oi: np.ndarray         # OD,
    rows: np.ndarray       # tree row,
    dests: np.ndarray      # destination node
    demand: np.ndarray     # and demand


def _layout(prob: _Problem, dem: np.ndarray) -> _Layout:
    """The :class:`_Layout` of demand ``dem`` (n_classes, n_od)."""
    live = dem > 0.0
    classes = np.flatnonzero(live.any(axis=1))
    n_origins = len(prob.origin_nodes)
    ci, oi = np.nonzero(live)
    return _Layout(
        live, np.tile(prob.origin_nodes, classes.size),
        np.repeat(classes, n_origins), ci, oi,
        np.searchsorted(classes, ci) * n_origins + prob.od_row[oi],
        prob.od_dest[oi], dem[ci, oi])


def _all_or_nothing(prob: _Problem, state: _PathState, class_link_costs: np.ndarray,
                    dem: np.ndarray | None = None):
    """Assign every block's demand to its cheapest path.

    ``dem`` (n_classes, n_od) is the demand to assign, ``prob.dem`` when
    None, whose :class:`_Layout` the solve builds once.  One batch
    solves the trees of every origin for each class with demand, each
    class under its own row of ``class_link_costs``.  Each block's path
    comes from :meth:`_PathState.walk`, which walks only the blocks whose
    tree path the universe does not hold yet.  Returns (per-path target
    vector over the grown universe, shortest cost array (n_classes,
    n_od), inf off the blocks with demand).  Unreachable positive-demand pairs raise
    :class:`InfeasibleProblemError`.
    """
    layout = prob.layout if dem is None else _layout(prob, dem)
    dists, preds = _kernels.batch_dijkstra(
        prob.indptr, prob.heads, prob.slots, class_link_costs,
        layout.sources, warm=state.warm, cost_rows=layout.cost_rows)
    costs = dists[layout.rows, layout.dests]
    unreachable = np.flatnonzero(~np.isfinite(costs))
    if unreachable.size:
        origin, dest, _, _ = prob.od[layout.oi[unreachable[0]]]
        raise InfeasibleProblemError(
            f"no route from zone {origin!r} to zone {dest!r} "
            f"for class {CLASSES[layout.ci[unreachable[0]]]!r}"
        )
    sp = np.full(layout.live.shape, np.inf)
    sp[layout.ci, layout.oi] = costs
    idx = state.walk(preds, layout)
    # a path belongs to one block, so each takes one block's demand
    target = np.zeros(state.n_paths)
    target[idx] = layout.demand
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


class _Measured(NamedTuple):
    """What :func:`_measure` finds."""

    target: np.ndarray      # the all-or-nothing per-path target
    sp: np.ndarray          # shortest costs (n_classes, n_od)
    flows: np.ndarray       # the flows, grown to the universe
    path_costs: np.ndarray
    gaps: np.ndarray        # per-block gaps, see :func:`_block_gaps`
    worst: float            # the worst block gap


def _measure(prob: _Problem, state: _PathState, flows: np.ndarray,
             costs: np.ndarray) -> _Measured:
    """Measure ``flows``; the all-or-nothing step may grow the universe."""
    target, sp = _all_or_nothing(prob, state, costs)
    flows = state.grow(flows)
    path_costs = state.path_costs(costs)
    gaps = _block_gaps(prob, state, flows, path_costs, sp)
    return _Measured(target, sp, flows, path_costs, gaps, _worst_gap(gaps))


# -- shared assembly ------------------------------------------------------


def _assemble(prob: _Problem, state: _PathState, flows: np.ndarray, lam: np.ndarray,
              trace: list, converged: bool, iterations: int, method: str,
              wardrop_gap: float, sp: np.ndarray) -> EquilibriumSolution:
    """Build the solution from per-path ``flows`` in one pass over blocks.

    Each block drops its paths below ``_PATH_DROP_TOL`` of its demand,
    rescales the rest to the demand and lists its paths that carry flow.
    A path only enters a block with positive demand, and a block's flows
    sum to its demand, so at least one path of each block is kept.
    """
    idx, offsets, totals, keys = state.blocks()
    f = flows[idx]
    sizes = np.diff(offsets)
    keep = f >= _PATH_DROP_TOL * np.repeat(totals, sizes)
    # each block's kept flow, summed as numpy sums it: a sum of one or
    # two terms is the same in any order, longer ones are summed alone
    block = np.repeat(np.arange(keys.size), sizes)
    counts = np.bincount(block[keep], minlength=keys.size)
    kept_flow = np.bincount(block[keep], weights=f[keep], minlength=keys.size)
    for b in np.flatnonzero(counts > 2).tolist():
        lo, hi = offsets[b], offsets[b + 1]
        kept_flow[b] = f[lo:hi][keep[lo:hi]].sum()
    scaled = np.where(keep, f * np.repeat(totals / kept_flow, sizes), 0.0)
    flows = flows.copy()
    flows[idx] = scaled
    paths: dict = {}
    link_ids = prob.link_ids
    entries = zip(idx.tolist(), scaled.tolist())
    for key, size in zip(keys.tolist(), sizes.tolist()):
        ci, oi = divmod(key, prob.n_od)
        origin, dest, _, _ = prob.od[oi]
        listed = paths[(CLASSES[ci], origin, dest)] = []
        for g, f_g in itertools.islice(entries, size):
            if f_g > 0.0:
                listed.append((tuple(link_ids[li] for li in state.paths[g]), f_g))
    x_class = state.link_flows(flows)
    x_agg = x_class.sum(axis=0)

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
        link_times=prob.times(x_agg),
        skipped_intrazonal=prob.skipped_intrazonal,
    )


def _per_pair(prob: _Problem, values: np.ndarray) -> dict:
    """{(class, origin zone, dest zone): value} over blocks with demand."""
    return {
        (CLASSES[ci], prob.od[oi][0], prob.od[oi][1]): float(values[ci, oi])
        for ci, oi in zip(*np.nonzero(prob.dem > 0.0))
    }


def _path_block(prob: _Problem, key: tuple, entries: list):
    """One ``solution.paths`` item as (class, OD, [(link indices, flow)]).

    Raises :class:`UnknownPairError` for a class or pair the demand does
    not hold and ValueError for a link the network does not hold.
    """
    cls, origin, dest = key
    ci = CLASSES.index(cls) if cls in CLASSES else None
    oi = prob.od_index.get((origin, dest))
    if ci is None or oi is None:
        raise UnknownPairError(
            f"solution has {cls!r} paths from zone {origin!r} to zone "
            f"{dest!r}, a (class, OD) block the demand does not hold"
        )
    try:
        mapped = [(tuple(prob.link_index[lid] for lid in link_ids), f)
                  for link_ids, f in entries]
    except KeyError as exc:
        raise ValueError(
            f"solution path names unknown link {exc.args[0]!r}") from None
    return ci, oi, mapped


def _path_flows(state: _PathState, blocks: list) -> np.ndarray:
    """Per-path flows of :func:`_path_block` blocks, added to the universe."""
    entries = [(state.ensure(ci, oi, path), f)
               for ci, oi, mapped in blocks for path, f in mapped]
    flows = np.zeros(state.n_paths)
    for g, f in entries:
        flows[g] += f
    return flows


def _initial_flows(prob: _Problem, state: _PathState, warm: EquilibriumSolution | None):
    """Seed per-path flows from a warm solution or the configured init."""
    if warm is not None:
        # each block is rescaled to its new demand; a block with an
        # unknown pair or link, no demand or no flow adds no path
        blocks = []
        for key, entries in warm.paths.items():
            try:
                ci, oi, mapped = _path_block(prob, key, entries)
            except (UnknownPairError, ValueError):
                continue
            total = sum(f for _, f in mapped)
            d = prob.dem[ci, oi]
            if d <= 0.0 or total <= 0.0:
                continue
            scale = d / total
            blocks.append((ci, oi, [(path, f * scale) for path, f in mapped]))
        flows = _path_flows(state, blocks)
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
    flows = np.zeros(state.n_paths)
    for ci, oi, block in state.members():
        d = prob.dem[ci, oi]
        active = block[(target0[block] > 0.0) | (target1[block] > 0.0)]
        flows[active] = d / len(active)
    return flows


# -- Frank-Wolfe family ----------------------------------------------------


def _line_search(prob: _Problem, x_class: np.ndarray, d_class: np.ndarray) -> float:
    """Exact step on the combined objective via bisection on its slope.

    The step is the midpoint of the bisection bracket on [0, 1] once it
    is narrower than ``_LINE_SEARCH_TOL``; a slope of exactly 0 counts
    as negative.  Before bisecting, at most ``_SECANT_STEPS`` Illinois
    (regula falsi) steps shrink a bracket ``[a, b]`` with
    ``slope(a) <= 0 < slope(b)``, and the bisection then evaluates the
    slope only at midpoints strictly inside it: a midpoint at or below
    ``a`` takes the lower branch, one at or above ``b`` the upper,
    exactly as an evaluation would.

    That skip needs the *computed* slope to be nondecreasing in θ, and
    it is, float rounding included.  Every operation in it is monotone
    in its varying operand and rounds monotonically: on a link with
    ``d > 0`` the flow ``x + θ·d`` rises with θ, and so do ``/ cap``,
    ``** β`` (of a ratio that stays nonnegative, as ``d = y − x`` with
    ``x, y >= 0``), the BPR time and ``t·d``; on a link with ``d < 0``
    the flow and time fall and ``t·d`` rises; a link with ``d = 0``
    adds a constant.  The dot product sums its terms in an order fixed
    by their count, and a rounded sum does not fall when no term falls.
    So the search returns the plain bisection's float bit for bit, for
    a few slope evaluations instead of about 36.
    """
    d_agg = d_class.sum(axis=0)
    linear = float(np.sum(prob.class_per_km @ (d_class * prob.length[None, :])))
    x_agg = x_class.sum(axis=0)

    def slope(theta: float) -> float:
        t = prob.times(x_agg + theta * d_agg)
        return prob.gamma * float(np.dot(t, d_agg)) + linear

    s_a = slope(0.0)
    if s_a >= 0.0:
        return 0.0
    s_b = slope(1.0)
    if s_b <= 0.0:
        return 1.0
    a, b, moved = 0.0, 1.0, None  # moved: the end the last step replaced
    for _ in range(_SECANT_STEPS):
        if b - a <= _LINE_SEARCH_TOL:
            break
        # a step lands at least a quarter tolerance inside the bracket,
        # so a point next to the root is bracketed by the one after it
        theta = b - s_b * (b - a) / (s_b - s_a)
        theta = min(max(theta, a + 0.25 * _LINE_SEARCH_TOL),
                    b - 0.25 * _LINE_SEARCH_TOL)
        if not a < theta < b:  # NaN from infinite end slopes
            break
        s = slope(theta)
        # Illinois: an end kept twice in a row has its slope halved
        if s > 0.0:
            if moved == "b":
                s_a *= 0.5
            b, s_b, moved = theta, s, "b"
        else:
            if moved == "a":
                s_b *= 0.5
            a, s_a, moved = theta, s, "a"
    lo, hi = 0.0, 1.0
    while hi - lo > _LINE_SEARCH_TOL:
        mid = 0.5 * (lo + hi)
        if mid >= b or (mid > a and slope(mid) > 0.0):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _conjugate_target(prob, x_class, y_class, s1, s2, theta_prev):
    """Frank-Wolfe target point mixed for conjugacy with past directions.

    ``y_class`` holds the all-or-nothing target's class link flows;
    ``s1``/``s2`` are the previous one and two target points as
    (per-path vector, per-class link array) pairs; returns the mixing
    weights (b0, b1, b2) over (all-or-nothing, s1, s2).  Falls back to
    fewer directions whenever denominators vanish or weights leave the
    simplex.
    """
    if s1 is None:
        return 1.0, 0.0, 0.0
    h = prob.gamma * prob.times_derivative(x_class.sum(axis=0))

    def hdot(a_agg, b_agg):
        return float(np.sum(h * a_agg * b_agg))

    y_agg = y_class.sum(axis=0)
    x_agg = x_class.sum(axis=0)
    w = y_agg - x_agg
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


class _FrankWolfeStep:
    """``fw``/``bfw``: an exact line search towards a target.

    The target is the all-or-nothing assignment, under ``bfw`` mixed with
    the last two targets (:func:`_conjugate_target`).  The certificate is
    the link gap, then the worst block gap.  The class link flows move
    by ``θ·d``; taking them anew from the path flows changes their bits.
    """

    def __init__(self, prob: _Problem, state: _PathState, method: str):
        self.prob, self.state = prob, state
        self.conjugate = method == "bfw"
        self.s1 = self.s2 = None  # last two targets: (path vector, class link array)
        self.theta_prev = None
        self.y_class = None  # class link flows of the all-or-nothing target

    def certify(self, m: _Measured, costs, x_class, record):
        self.y_class = self.state.link_flows(m.target)
        assigned = float(np.sum(costs * x_class))
        best = float(np.sum(costs * self.y_class))
        agg_gap = (assigned - best) / abs(best) if best else 0.0
        return [("rel_gap", agg_gap), ("wardrop_gap", m.worst)], True

    def take(self, m: _Measured, lam, x_class, objective, record):
        prob, state = self.prob, self.state
        b0, b1, b2 = _conjugate_target(prob, x_class, self.y_class, self.s1,
                                       self.s2, self.theta_prev)
        target_vec = b0 * m.target
        if b1:
            target_vec = target_vec + b1 * state.grow(self.s1[0])
        if b2:
            target_vec = target_vec + b2 * state.grow(self.s2[0])
        target_class = state.link_flows(target_vec)
        d_class = target_class - x_class
        theta = _line_search(prob, x_class, d_class)
        if theta <= 0.0 and (b1 or b2):
            # the conjugate target does not descend; retry the plain one
            target_vec, target_class = m.target, self.y_class
            d_class = target_class - x_class
            theta = _line_search(prob, x_class, d_class)
        record["step"] = theta
        if self.conjugate:
            self.s1, self.s2 = (target_vec, target_class), self.s1
        self.theta_prev = theta
        x_class = x_class + theta * d_class
        return ((1.0 - theta) * m.flows + theta * target_vec, lam, x_class,
                prob.beckmann(x_class))


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
    concat, lens, offsets, _, _ = state.flat()
    d = prob.gamma * tprime
    max_len = int(lens.max())
    per_link = np.bincount(concat, minlength=prob.n_links)
    cap_bound = float(d.max()) * max_len * int(per_link.max())

    v = np.ones(len(lens))
    for _ in range(8):
        load = np.bincount(
            concat, weights=np.repeat(v, lens), minlength=prob.n_links
        )
        w = np.add.reduceat((d * load)[concat], offsets)
        nrm = float(np.linalg.norm(w))
        est = nrm / float(np.linalg.norm(v))
        v = w / nrm
    l_f = min(cap_bound, est * safety)

    on_capped = concat[np.isin(concat, prob.constrained_idx)]
    l_a2 = float(max_len * np.bincount(on_capped, minlength=prob.n_links).max())
    return l_f, l_a2


def _effective_costs(prob: _Problem, t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    bump = np.zeros(prob.n_links)
    bump[prob.constrained_idx] = lam
    return prob.class_costs(t) + bump[None, :]


class _PathStep:
    """``pd``/``eg``: a step on path flows and capacity multipliers.

    ``pd`` takes a projected gradient step, halved until the merit does
    not rise, then a multiplier step, and hands on its candidate's class
    link flows and objective.  ``eg`` extrapolates, then corrects.  The
    primal step comes from :func:`_lipschitz_estimate`.  The certificate
    is the worst block gap, once the last step's squared norm is below
    ``_EPS_GAP``.
    """

    def __init__(self, prob: _Problem, state: _PathState, method: str):
        self.prob, self.state, self.method = prob, state, method
        self.safety = 1.15 if method == "pd" else 1.35
        # (l_f, l_a2), made again when the universe grows and every 8 steps
        self.lip, self.lip_paths, self.lip_age = None, 0, 0
        self.g_sq = math.inf  # squared norm of the last step

    def certify(self, m: _Measured, costs, x_class, record):
        record["g_sq"] = float(self.g_sq) if math.isfinite(self.g_sq) else None
        return [("rel_gap", m.worst)], self.g_sq < _EPS_GAP

    def take(self, m: _Measured, lam, x_class, objective, record):
        prob, state, opts = self.prob, self.state, self.prob.options
        flows, x_agg = m.flows, x_class.sum(axis=0)
        if self.lip is None or state.n_paths != self.lip_paths or self.lip_age >= 8:
            self.lip = _lipschitz_estimate(prob, state, x_agg, self.safety)
            self.lip_paths, self.lip_age = state.n_paths, 0
        self.lip_age += 1
        l_f, l_a2 = self.lip

        def excess(agg):  # each capped link's flow over its cap
            return agg[prob.constrained_idx] - prob.constrained_cap

        if self.method == "pd":
            # the merit: the objective plus the multiplier terms
            before = objective + float(np.dot(lam, excess(x_agg)))
            step = 0.9 / (l_f + l_a2 / opts.dual_step + 1e-12)
            for attempt in range(21):
                new_flows = state.project(flows - step * m.path_costs)
                x_class = state.link_flows(new_flows)
                new_agg = x_class.sum(axis=0)
                objective = prob.beckmann(x_class)
                after = objective + float(np.dot(lam, excess(new_agg)))
                if after <= before + 1e-12 * max(1.0, abs(before)):
                    break
                if attempt == 20:
                    record["note"] = "step halving exhausted"
                    break
                step *= 0.5
            new_lam = np.maximum(0.0, lam + opts.dual_step * excess(new_agg))
        else:
            step = 0.9 / (l_f + math.sqrt(l_a2) + 1e-12)
            mid_flows = state.project(flows - step * m.path_costs)
            mid_lam = np.maximum(0.0, lam + step * excess(x_agg))
            mid_agg = state.link_flows(mid_flows).sum(axis=0)
            mid_eff = _effective_costs(prob, prob.times(mid_agg), mid_lam)
            new_flows = state.project(flows - step * state.path_costs(mid_eff))
            new_lam = np.maximum(0.0, lam + step * excess(mid_agg))
            x_class = state.link_flows(new_flows)
            objective = prob.beckmann(x_class)
        record["step"] = step
        self.g_sq = float(np.sum((new_flows - flows) ** 2)) + float(
            np.sum((new_lam - lam) ** 2))
        if float(np.max(new_lam, initial=0.0)) > opts.dual_bound:
            raise InfeasibleProblemError(
                "capacity multipliers diverged; the caps are likely infeasible "
                "for the given demand")
        return new_flows, new_lam, x_class, objective


# -- the solver loop --------------------------------------------------------


def _solve(prob: _Problem, state: _PathState, method: str,
           warm: EquilibriumSolution | None) -> EquilibriumSolution:
    """Run ``method`` from its start until it stops; assemble the solution.

    Each pass prices the flows and multipliers, measures them and stops
    at ``max_iters``.  The step's ``certify(m, costs, x_class, record)``
    adds its trace fields and returns its residuals, (name, value) pairs
    whose first is the trace's ``rel_gap``, and whether it lets the solve
    stop.  The residuals are compared with ``rel_gap_tol`` and recorded
    in order, up to the first one above it.  Unless all are met, ``take``
    returns the next flows, multipliers, class link flows and objective.
    """
    opts = prob.options
    flows = _initial_flows(prob, state, warm)
    # a capped link without a usable warm multiplier (none, negative,
    # NaN, infinite or above ``dual_bound``) starts at 0
    duals = warm.duals if warm is not None else {}
    lam = np.array([duals.get(prob.link_ids[li], 0.0)
                    for li in prob.constrained_idx.tolist()], dtype=float)
    lam[~(np.isfinite(lam) & (lam >= 0.0) & (lam <= opts.dual_bound))] = 0.0
    step = (_FrankWolfeStep if method in ("fw", "bfw") else _PathStep)(
        prob, state, method)
    x_class = state.link_flows(flows)
    objective = prob.beckmann(x_class)
    trace, converged, iteration = [], False, 0
    while True:
        costs = _effective_costs(prob, prob.times(x_class.sum(axis=0)), lam)
        m = _measure(prob, state, flows, costs)
        if iteration == opts.max_iters:
            break
        iteration += 1
        # the first residual takes the place of ``rel_gap``
        record = {"iteration": iteration, "rel_gap": None,
                  "objective": float(objective)}
        residuals, met = step.certify(m, costs, x_class, record)
        for name, value in residuals:
            record[name] = float(value)
            if not value <= opts.rel_gap_tol:
                met = False
                break
        trace.append(record)
        if met:
            converged = True
            break
        flows, lam, x_class, objective = step.take(m, lam, x_class, objective,
                                                   record)
    return _assemble(prob, state, m.flows, lam, trace, converged, iteration,
                     method, m.worst, m.sp)


# -- public entry points ----------------------------------------------------


def solve(network: Network, demand: ClassDemand, config: CostConfig,
          method: str = "bfw", options: SolverOptions | None = None,
          warm_start: EquilibriumSolution | None = None, *,
          _session: _Session | None = None) -> EquilibriumSolution:
    """Solve the fixed-class equilibrium with the chosen method.

    ``warm_start`` reuses a previous solution's paths (rescaled to the
    new class demands), which is how penetration sweeps stay fast.
    ``analysis.run_sweep`` also passes its private :class:`_Session`,
    through which each level takes over the solve state of the level
    before (the network's arrays and the shortest-path trees with their
    warm-start plans and buffers); the result is the same bit for bit
    as from ``warm_start`` alone.
    Returns an :class:`EquilibriumSolution` whose ``converged`` flag is
    False when the iteration cap was reached.
    """
    method = METHOD_ALIASES.get(method, method)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if options is None:
        options = SolverOptions()
    prob = _Problem(network, demand, config, options,
                    None if _session is None else _session.graph)
    if method in ("fw", "bfw") and prob.constrained_idx.size:
        raise UnsupportedOperationError(
            "explicit capacity constraints need a path-based solver ('pd' or 'eg')"
        )
    state = _PathState(prob, None if _session is None else _session.warm)
    if float(prob.dem.sum()) == 0.0:
        trace = [{"iteration": 0, "rel_gap": 0.0, "objective": 0.0,
                  "note": "zero demand"}]
        solution = _assemble(prob, state, np.zeros(0),
                             np.zeros(prob.constrained_idx.size), trace, True,
                             0, method, 0.0, np.zeros(prob.dem.shape))
    else:
        solution = _solve(prob, state, method, warm_start)
    if _session is not None:
        _session.graph, _session.warm = prob.graph, state.warm
    return solution


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
    Raises :class:`UnknownPairError` for a path whose class or OD pair is
    not in ``demand``, and ValueError for a path or dual link that the
    network does not hold or for a negative or NaN dual.
    """
    if not solution.paths and any(
        d > 0.0 for c in demand.by_class.values() for d in c.values()
    ):
        raise UnsupportedOperationError(
            "solution carries no path decomposition; re-run with a solver "
            "that records paths"
        )
    prob = _Problem(network, demand, config, SolverOptions())
    state = _PathState(prob)
    flows = _path_flows(state, [_path_block(prob, key, entries)
                                for key, entries in solution.paths.items()])
    x_agg = state.link_flows(flows).sum(axis=0)
    t = prob.times(x_agg)
    lam = np.zeros(prob.n_links)
    for lid, value in solution.duals.items():
        li = prob.link_index.get(lid)
        if li is None:
            raise ValueError(f"solution dual names unknown link {lid!r}")
        if not value >= 0.0:
            raise ValueError(
                f"solution dual on link {lid!r} is {value!r}; "
                "multipliers must be nonnegative")
        lam[li] = value
    eff = prob.class_costs(t) + lam[None, :]
    *_, gaps, worst = _measure(prob, state, flows, eff)
    return _per_pair(prob, gaps), worst
