"""Shortest-path and projection kernels shared by the whole package.

The hot loop of every solver is one-to-all shortest paths over the
network's CSR adjacency, from every origin of a vehicle class, once per
iteration.  Every kernel is numpy and runs in the calling thread.  Who
calls what:

* :func:`batch_dijkstra` builds every shortest-path tree: the solvers'
  all-or-nothing step (``equilibrium``, one batch per class and
  iteration, with a :class:`WarmStart` per class), ``metrics`` (every
  demand origin at once) and ``network.shortest_path`` (one source).
  It solves all sources of a batch together with array operations, and
  a class whose trees came back unchanged starts its next batch from
  them.
* :func:`dijkstra` is the :mod:`heapq` reference for one source.  The
  batch kernel runs it for the trees its predecessor rule cannot settle
  and on negative or NaN costs; the tests hold the batch kernel to it
  bit for bit.
* :func:`walk_paths` turns trees into link paths for the solvers and
  for ``network.shortest_path``.  It steps up the trees with
  :func:`_tree_parents`, as does the warm start's :func:`_tree_costs`;
  both take arc tails from :func:`arc_tails`.
* :func:`project_blocks` is the path-based solvers' simplex projection.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = [
    "arc_tails",
    "batch_dijkstra",
    "dijkstra",
    "project_blocks",
    "walk_paths",
    "WarmStart",
]


def dijkstra(indptr, heads, links, cost, source):
    """One-to-all Dijkstra from one source: the :mod:`heapq` reference.

    Parameters
    ----------
    indptr : int64[n_nodes + 1]
        CSR row pointers: outgoing arc slots of node ``u`` are
        ``indptr[u]:indptr[u + 1]``.
    heads : int64[n_arcs]
        Head node of each arc slot.
    links : int64[n_arcs]
        Link index of each arc slot (indexes into ``cost``).
    cost : float64[n_links]
        Nonnegative cost per link.
    source : int
        Origin node index.

    Returns
    -------
    dist : float64[n_nodes]
        Cost of the cheapest path from ``source`` (inf if unreachable).
    pred : int64[n_nodes]
        Arc slot used to reach each node, -1 for source/unreached.
    """
    n = indptr.shape[0] - 1
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    dist[source] = 0.0
    heap = [(0.0, int(source))]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for pos in range(indptr[u], indptr[u + 1]):
            v = heads[pos]
            nd = d + cost[links[pos]]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = pos
                heapq.heappush(heap, (nd, int(v)))
    return dist, pred


# The batch kernel's relaxation arrays hold (max in-degree x nodes x
# sources) float64 entries; sources are taken in chunks that keep them
# near this size, which bounds the kernel's extra memory.
_BATCH_ENTRIES = 1 << 16


def _chunk_size(slot):
    """Sources per chunk of the batch kernel, for in-arc layout ``slot``."""
    return max(1, _BATCH_ENTRIES // slot.size)


def arc_tails(indptr):
    """Tail node of every arc slot of the CSR row pointers ``indptr``."""
    return np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))


def _in_arcs(indptr, heads):
    """Incoming arc slots of every node, padded to the largest in-degree.

    Returns (slot, tail, arc_tail).  ``slot`` and ``tail`` are shaped
    (max in-degree, n_nodes): row ``r`` holds each node's ``r``-th
    incoming slot, in ascending slot order, and that slot's tail node.
    Padding points at the dummy slot ``n_arcs``.  ``arc_tail`` is
    :func:`arc_tails`.
    """
    n = indptr.shape[0] - 1
    m = heads.shape[0]
    indeg = np.bincount(heads, minlength=n)
    order = np.argsort(heads, kind="stable")
    rank = np.arange(m) - (np.cumsum(indeg) - indeg)[heads[order]]
    slot = np.full((max(int(indeg.max(initial=0)), 1), n), m, dtype=np.int64)
    slot[rank, heads[order]] = order
    arc_tail = arc_tails(indptr)
    tail = np.append(arc_tail, 0)[slot]
    return slot, tail, arc_tail


def _relax_chunk(slot, tail, arc_cost, sources, start=None):
    """Shortest paths from a few sources at once, node-major.

    ``arc_cost`` is the padded in-arc cost, shaped like ``slot``.
    Relaxation starts from ``start`` (n_nodes, sources), which it may
    overwrite, or from ``inf`` with the sources at 0 when it is None.
    Returns (dist, pred, ties): dist and pred shaped (n_nodes, sources),
    and a per-source flag for trees whose predecessors the rule in
    :func:`batch_dijkstra` cannot vouch for.
    """
    n = slot.shape[1]
    k = sources.shape[0]
    # repeated per source up front: a contiguous add is several times
    # faster than one broadcast over the short source axis
    cost = np.repeat(arc_cost[:, :, None], k, axis=2)
    if start is None:
        dist = np.full((n, k), np.inf)
        dist[sources, np.arange(k)] = 0.0
    else:
        dist = start
    while True:
        cand = np.take(dist, tail, axis=0)  # (max in-degree, n, k)
        cand += cost
        best = np.minimum.reduce(cand, axis=0)
        if not np.less(best, dist).any():
            break
        np.minimum(dist, best, out=dist)
    via = np.take(dist, tail, axis=0)
    tight = (cand == dist) & np.isfinite(dist)
    ties = (tight & (via == dist)).any(axis=(0, 1))
    key = np.where(tight, via, np.inf)
    first = tight & (key == np.minimum.reduce(key, axis=0))
    pred = np.full((n, k), -1, dtype=np.int64)
    for rank in range(slot.shape[0] - 1, -1, -1):  # lowest rank = lowest slot
        np.copyto(pred, slot[rank][:, None], where=first[rank])
    return dist, pred, ties


def _tree_parents(preds, arc_tail):
    """One parent-pointer step over the trees ``preds``, flattened.

    ``preds`` (sources, n_nodes) are trees as the kernels return them.
    Entry ``r * n_nodes + v`` maps to the entry of ``v``'s tree parent
    in the same row (the tail of its tree arc); nodes off the tree map
    to themselves.
    """
    k, n = preds.shape
    entry = np.arange(k * n).reshape(k, n)
    return np.where(preds >= 0, entry - entry % n + arc_tail[preds], entry).ravel()


def _tree_costs(preds, arc_tail, arc_cost, sources, depth=None):
    """Cost of every tree path under ``arc_cost``, node-major.

    ``preds`` (sources, n_nodes) are trees rooted at ``sources``, as the
    kernels return them.  Each step sets every node to its tree parent's
    value plus its tree arc's cost, so step ``t`` settles the nodes ``t``
    arcs below their source: the path is summed from the source, left
    to right, as the heap sums it.  Nodes off the tree stay ``inf``.
    Runs ``depth`` steps, or, when it is None, steps until nothing
    changes.  Returns (costs, steps run that changed something).
    """
    k, n = preds.shape
    parent = _tree_parents(preds, arc_tail)
    step_cost = np.where(preds >= 0, arc_cost[preds], 0.0).ravel()
    start = np.full(k * n, np.inf)
    start[np.arange(k) * n + sources] = 0.0
    steps = 0
    while depth is None or steps < depth:
        nxt = start[parent]
        nxt += step_cost
        if depth is None and np.array_equal(nxt, start):
            break
        start = nxt
        steps += 1
    return np.ascontiguousarray(start.reshape(k, n).T), steps


def walk_paths(preds, links, arc_tail, sources, rows, dests):
    """Link tuples of tree paths, one per pair (``rows[i]``, ``dests[i]``).

    Path ``i`` runs in tree ``rows[i]`` of ``preds`` (rooted at
    ``sources[rows[i]]``) from its root to node ``dests[i]``, which must
    be reachable in that tree.  All paths step back from their
    destinations together, one link per :func:`_tree_parents` step.  No
    tree path has ``n_nodes`` links, so a walk still open after that
    many steps is caught in a cycle of ``preds``: that raises
    ``RuntimeError``.
    """
    k, n = preds.shape
    up = _tree_parents(preds, arc_tail)
    link = np.where(preds >= 0, links[preds], -1).ravel()
    # walks end at the roots, even where a root has a tree arc of its
    # own (trees found under a negative cost can loop back to it)
    root = np.arange(k) * n + np.asarray(sources)
    up[root] = root
    link[root] = -1
    at = np.asarray(rows) * n + dests
    steps = []
    for _ in range(n):
        step = link[at]
        if step.max(initial=-1) < 0:
            break
        steps.append(step)
        at = up[at]
    else:
        raise RuntimeError("a tree walk did not reach its root: "
                           "the predecessors hold a cycle")
    depth = len(steps)
    # one row per pair, its links in path order after -1 padding
    table = np.array(steps[::-1], dtype=np.int64).reshape(depth, at.size).T
    lengths = np.count_nonzero(table >= 0, axis=1).tolist()
    return [tuple(row[depth - m:]) for row, m in zip(table.tolist(), lengths)]


class WarmStart:
    """What one caller's last batch left for its next batch to start from.

    A solver asks for the trees of the same sources once per iteration,
    under costs that change a little each time, and most calls return
    exactly the trees of the call before.  Pass one state per such
    series of calls as ``warm=`` to :func:`batch_dijkstra`.  It holds
    the graph's padded in-arc layout (see :func:`_in_arcs`), the sources
    and the ``preds`` array the last call returned (referenced, not
    copied: callers must not modify it), and, per chunk of sources,
    whether that call returned the same trees as the one before and,
    once measured, how deep those trees are.  ``repeated`` is True when
    every chunk came back unchanged, so a caller can reuse whatever it
    derived from the last trees.
    """

    def __init__(self, slot, tail, arc_tail):
        self.slot, self.tail, self.arc_tail = slot, tail, arc_tail
        self.forget()

    def forget(self):
        """Drop the last trees: the next call starts cold."""
        self.sources = self.preds = None
        self.same: list[bool] = []
        self.depth: dict[int, int] = {}
        self.repeated = False

    def warm_chunks(self, sources):
        """Per chunk of ``sources``: may it start from the last trees?"""
        if self.preds is None or not np.array_equal(self.sources, sources):
            return None
        return self.same

    def record(self, sources, preds):
        """Keep the trees just returned and compare them with the last."""
        last = self.warm_chunks(sources)
        step = _chunk_size(self.slot)
        self.same = [
            last is not None and np.array_equal(
                self.preds[lo:lo + step], preds[lo:lo + step])
            for lo in range(0, len(sources), step)
        ]
        self.depth = {c: d for c, d in self.depth.items() if self.same[c]}
        self.repeated = last is not None and all(self.same)
        self.sources = np.array(sources, dtype=np.int64)
        self.preds = preds


def batch_dijkstra(indptr, heads, links, cost, sources, warm=None):
    """One-to-all shortest paths from every source, solved together.

    Same arguments as :func:`dijkstra` with ``sources`` in place of
    ``source``; returns (dists, preds) stacked in source order, each row
    bitwise equal to what :func:`dijkstra` gives for that source.

    Distances come from label-correcting relaxation of all arcs at once,
    repeated until nothing changes.  With nonnegative costs the heap's
    float64 distances are the greatest fixed point of
    ``d[v] = min(d[u] + c)``, which any relaxation started from ``inf``
    reaches bit for bit.  An arc is *tight* when ``d[u] + c == d[v]``;
    the heap sets ``pred[v]`` when it relaxes the first tight arc into
    ``v``, and it pops nodes in (distance, node) order whenever every
    tight arc strictly increases the distance.  Then ``pred[v]`` is the
    tight arc with the smallest (``d[tail]``, slot).  Trees that contain
    a tight arc of zero increase (zero-cost arcs, or a cost below the
    distance's rounding unit) can be popped in another order, and so
    can inputs with a negative or NaN cost: those sources are solved by
    :func:`dijkstra` instead.

    ``warm`` (a :class:`WarmStart`) lets a chunk of sources whose trees
    came back unchanged on the last call start from those trees: each
    node starts at its old tree path's cost under the new costs, summed
    left to right from the source (:func:`_tree_costs`), instead of at
    ``inf``.  The result is the same bit for bit.  Let ``D`` be the
    heap's distances.  The heap relaxes every arc out of every node it
    settles and never raises a distance, so ``D[v] <= D[u] + c`` holds
    in float64 on every arc.  Float addition is monotone, so along any
    walk from the source the left-to-right sum of its costs never drops
    below ``D`` at the walk's end.  Every finite value of the start is
    such a sum, and relaxation only extends sums by one arc, so the
    distances never drop below ``D``.  Relaxation stops when
    ``d[v] <= d[u] + c`` on every arc; from the source (at 0) along the
    heap's own tree path, whose left-to-right sums are ``D``, the same
    monotonicity gives ``d <= D``.  So warm and cold starts both end on
    ``D``, and the predecessor rule and the zero-increase fallback then
    run on it as before.
    """
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    n = indptr.shape[0] - 1
    dists = np.empty((sources.shape[0], n))
    preds = np.empty((sources.shape[0], n), dtype=np.int64)
    arc_cost = cost[links]
    if not np.all(arc_cost >= 0.0):
        for i, s in enumerate(sources):
            dists[i], preds[i] = dijkstra(indptr, heads, links, cost, s)
        if warm is not None:
            # trees found under a negative cost can loop back to their
            # source, which no warm start may build on
            warm.forget()
        return dists, preds
    if warm is None:
        slot, tail, _ = _in_arcs(indptr, heads)
        warm_chunks = None
    else:
        slot, tail = warm.slot, warm.tail
        warm_chunks = warm.warm_chunks(sources)
    padded_cost = np.append(arc_cost, np.inf)[slot]
    step = _chunk_size(slot)
    for c, lo in enumerate(range(0, sources.shape[0], step)):
        chunk = sources[lo:lo + step]
        start = None
        if warm_chunks is not None and warm_chunks[c]:
            start, warm.depth[c] = _tree_costs(
                warm.preds[lo:lo + step], warm.arc_tail, arc_cost, chunk,
                warm.depth.get(c))
        dist, pred, ties = _relax_chunk(slot, tail, padded_cost, chunk, start)
        dists[lo:lo + step] = dist.T
        preds[lo:lo + step] = pred.T
        for j in np.flatnonzero(ties):
            dists[lo + j], preds[lo + j] = dijkstra(
                indptr, heads, links, cost, chunk[j])
    if warm is not None:
        warm.record(sources, preds)
    return dists, preds


def project_blocks(values, offsets, totals):
    """Blockwise Euclidean projection onto {x >= 0, sum x = total}.

    Block ``b`` is ``values[offsets[b]:offsets[b + 1]]`` with budget
    ``totals[b]``; blocks whose budget is zero project to zero.  Each
    block uses the sort-and-threshold rule: sorted descending, the
    active set is a prefix, and one cumulative-sum pass finds the shift
    that lands the prefix on the budget.  All blocks are padded into
    the rows of one array and handled together; row prefixes are summed in the same order as a per-block
    ``cumsum``, so each block's result is that of the rule alone.
    """
    out = np.zeros_like(values)
    sizes = np.diff(offsets)
    live = np.flatnonzero((sizes > 0) & ~(totals <= 0.0))
    if live.size == 0:
        return out
    sizes = sizes[live]
    width = int(sizes.max())
    row = np.repeat(np.arange(live.size), sizes)
    pos = np.arange(row.size) - (np.cumsum(sizes) - sizes)[row]
    elem = offsets[live][row] + pos
    u = np.full((live.size, width), -np.inf)
    u[row, pos] = values[elem]
    u = np.sort(u, axis=1)[:, ::-1]
    total = totals[live][:, None]
    ranks = np.arange(1, width + 1)
    valid = ranks <= sizes[:, None]
    cumulative = np.cumsum(np.where(valid, u, 0.0), axis=1) - total
    mask = valid & (u - cumulative / ranks > 0.0)
    rho = width - mask[:, ::-1].argmax(axis=1)
    theta = cumulative[np.arange(live.size), rho - 1] / rho
    out[elem] = np.maximum(values[elem] - theta[row], 0.0)
    return out


# Read only by perfbench/child.py, which stamps the backend of a run.
NUMBA_ENABLED = False


# Read only by perfbench/child.py, which stamps the thread count: every
# kernel runs in the calling thread.
def resolve_workers(n_tasks):
    return 1
