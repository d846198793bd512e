"""Shortest-path and projection kernels shared by the whole package.

The hot loop of every solver is one-to-all Dijkstra over the network's
CSR adjacency, run once per (vehicle class, origin) per iteration.
Who calls what:

* :func:`batch_dijkstra` builds every shortest-path tree: the solvers'
  all-or-nothing step (``equilibrium``, one batch per class and
  iteration, with a :class:`WarmStart` per class), ``metrics`` (every
  demand origin at once) and ``network.shortest_path`` (one source).
* :func:`walk_paths` turns trees into link paths for the solvers and
  for ``network.shortest_path``.  It steps up the trees with
  :func:`_tree_parents`, as does the warm start's :func:`_tree_costs`;
  both take arc tails from :func:`arc_tails`.
* :func:`project_blocks` is the path-based solvers' simplex projection.
* :func:`dijkstra` (one source) is what :func:`batch_dijkstra` runs per
  source under numba.  Without numba it is :func:`dijkstra_python`,
  which the batch kernel also runs for the trees its rule cannot settle.

Two interchangeable backends are provided:

* numba ``@njit`` kernels (compiled once, cached on disk, ``nogil`` so
  batched runs can use real threads), and
* pure numpy: :func:`dijkstra_python`, a :mod:`heapq` reference for one
  source, and :func:`dijkstra_batch_numpy`, which solves every source of
  a batch together with array operations.

All of them produce bitwise-identical distance and predecessor arrays:
the heap kernels walk the CSR arrays in the same order and break ties on
(distance, node index), and the batch kernel rebuilds exactly what that
heap order yields.

A solver asks for the same sources' trees once per iteration, and the
trees often repeat: given a :class:`WarmStart`, the batch kernel starts
from the last trees where they came back unchanged.

Selection is automatic: the numba kernels are used
when numba imports cleanly and the environment variable
``MUE_PURE_NUMPY`` is unset/0; setting ``MUE_PURE_NUMPY=1`` forces the
numpy backend.  ``MUE_THREADS`` caps the worker count used for batched
numba runs (0 or unset means one worker per CPU).
"""

from __future__ import annotations

import heapq
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "arc_tails",
    "dijkstra",
    "dijkstra_numba",
    "dijkstra_python",
    "dijkstra_batch_numpy",
    "batch_dijkstra",
    "project_blocks",
    "project_blocks_numba",
    "project_blocks_python",
    "resolve_workers",
    "walk_paths",
    "WarmStart",
]


def _pure_numpy_requested() -> bool:
    raw = os.environ.get("MUE_PURE_NUMPY", "0").strip()
    return raw not in ("", "0", "false", "False")


def dijkstra_python(indptr, heads, links, cost, source):
    """One-to-all Dijkstra, pure Python/numpy reference implementation.

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
    :func:`dijkstra_batch_numpy` cannot vouch for.
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
    destinations together, one link per :func:`_tree_parents` step.
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
    while True:
        step = link[at]
        if step.max(initial=-1) < 0:
            break
        steps.append(step)
        at = up[at]
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


def dijkstra_batch_numpy(indptr, heads, links, cost, sources, warm=None):
    """One-to-all shortest paths from every source, solved together.

    Same arguments as :func:`dijkstra_python` with ``sources`` in place
    of ``source``; returns (dists, preds) stacked in source order, each
    row bitwise equal to what :func:`dijkstra_python` gives for that
    source.

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
    :func:`dijkstra_python` instead.

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
            dists[i], preds[i] = dijkstra_python(indptr, heads, links, cost, s)
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
            dists[lo + j], preds[lo + j] = dijkstra_python(
                indptr, heads, links, cost, chunk[j])
    if warm is not None:
        warm.record(sources, preds)
    return dists, preds


def project_blocks_python(values, offsets, totals):
    """Blockwise Euclidean projection onto {x >= 0, sum x = total}.

    Block ``b`` is ``values[offsets[b]:offsets[b + 1]]`` with budget
    ``totals[b]``; blocks whose budget is zero project to zero.  Each
    block uses the sort-and-threshold rule: sorted descending, the
    active set is a prefix, and one cumulative-sum pass finds the shift
    that lands the prefix on the budget.  Pure numpy implementation:
    all blocks are padded into the rows of one array and handled
    together; row prefixes are summed in the same order as a per-block
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


try:  # pragma: no cover - exercised indirectly via the dispatch below
    if _pure_numpy_requested():
        raise ImportError("MUE_PURE_NUMPY set; skipping numba")
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:  # pragma: no cover
    njit = None
    NUMBA_ENABLED = False


if njit is not None:

    @njit(cache=True, nogil=True)
    def _dijkstra_nb(indptr, heads, links, cost, source):  # pragma: no cover
        n = indptr.shape[0] - 1
        m = heads.shape[0]
        dist = np.full(n, np.inf)
        pred = np.full(n, -1, dtype=np.int64)
        done = np.zeros(n, dtype=np.bool_)
        # binary min-heap of (dist, node), ties broken on node index so
        # the pop order matches heapq's tuple comparison exactly
        hk = np.empty(m + 1, dtype=np.float64)
        hn = np.empty(m + 1, dtype=np.int64)
        hk[0] = 0.0
        hn[0] = source
        size = 1
        dist[source] = 0.0
        while size > 0:
            d = hk[0]
            u = hn[0]
            size -= 1
            hk[0] = hk[size]
            hn[0] = hn[size]
            i = 0
            while True:
                left = 2 * i + 1
                if left >= size:
                    break
                best = left
                right = left + 1
                if right < size and (
                    hk[right] < hk[left]
                    or (hk[right] == hk[left] and hn[right] < hn[left])
                ):
                    best = right
                if hk[best] < hk[i] or (hk[best] == hk[i] and hn[best] < hn[i]):
                    hk[i], hk[best] = hk[best], hk[i]
                    hn[i], hn[best] = hn[best], hn[i]
                    i = best
                else:
                    break
            if done[u]:
                continue
            done[u] = True
            for pos in range(indptr[u], indptr[u + 1]):
                v = heads[pos]
                nd = d + cost[links[pos]]
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = pos
                    j = size
                    hk[j] = nd
                    hn[j] = v
                    size += 1
                    while j > 0:
                        parent = (j - 1) // 2
                        if hk[j] < hk[parent] or (
                            hk[j] == hk[parent] and hn[j] < hn[parent]
                        ):
                            hk[j], hk[parent] = hk[parent], hk[j]
                            hn[j], hn[parent] = hn[parent], hn[j]
                            j = parent
                        else:
                            break
        return dist, pred

    def dijkstra_numba(indptr, heads, links, cost, source):
        """One-to-all Dijkstra via the compiled numba kernel."""
        return _dijkstra_nb(indptr, heads, links, cost, np.int64(source))

    @njit(cache=True, nogil=True)
    def _project_blocks_nb(values, offsets, totals):  # pragma: no cover
        out = np.zeros_like(values)
        for b in range(offsets.shape[0] - 1):
            lo = offsets[b]
            hi = offsets[b + 1]
            total = totals[b]
            if hi <= lo or total <= 0.0:
                continue
            n = hi - lo
            u = np.sort(values[lo:hi])
            # descending traversal, accumulating in the same order as the
            # reference's cumsum so results match bitwise
            run = 0.0
            theta = 0.0
            for j in range(1, n + 1):
                uj = u[n - j]
                run += uj
                c = run - total
                if uj - c / j > 0.0:
                    theta = c / j
            for k in range(lo, hi):
                val = values[k] - theta
                out[k] = val if val > 0.0 else 0.0
        return out

    def project_blocks_numba(values, offsets, totals):
        """Blockwise simplex projection via the compiled numba kernel."""
        return _project_blocks_nb(values, offsets, totals)

else:
    dijkstra_numba = None
    project_blocks_numba = None


if NUMBA_ENABLED and not _pure_numpy_requested():
    dijkstra = dijkstra_numba
    project_blocks = project_blocks_numba
else:
    dijkstra = dijkstra_python
    project_blocks = project_blocks_python


def resolve_workers(n_tasks):
    """Worker count for a batch of ``n_tasks`` independent runs.

    ``MUE_THREADS`` caps the count; 0/unset means one per CPU.  The
    result never exceeds the task count and is at least 1.
    """
    raw = os.environ.get("MUE_THREADS", "0").strip()
    try:
        cap = int(raw) if raw else 0
    except ValueError:
        cap = 0
    if cap <= 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def batch_dijkstra(indptr, heads, links, cost, sources, workers=None,
                   warm=None):
    """Run Dijkstra from every node in ``sources``.

    Returns (dists, preds) stacked in source order.  Without numba the
    whole batch goes to :func:`dijkstra_batch_numpy` in the calling
    thread, which starts from ``warm`` where it can.  The numba kernels
    always start cold; they only record in ``warm`` whether the trees
    repeated.  Worker threads only pay off with the nogil numba kernel,
    but results are identical (and bitwise reproducible) for any worker
    count because each source is independent and outputs are collected
    in submission order.
    """
    sources = list(sources)
    if not NUMBA_ENABLED:
        return dijkstra_batch_numpy(indptr, heads, links, cost, sources,
                                    warm=warm)
    if workers is None:
        workers = resolve_workers(len(sources))
    n = indptr.shape[0] - 1
    dists = np.empty((len(sources), n))
    preds = np.empty((len(sources), n), dtype=np.int64)
    if workers <= 1 or len(sources) <= 1:
        for i, s in enumerate(sources):
            dists[i], preds[i] = dijkstra(indptr, heads, links, cost, s)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = pool.map(
                lambda s: dijkstra(indptr, heads, links, cost, s), sources
            )
            for i, (d, p) in enumerate(results):
                dists[i] = d
                preds[i] = p
    if warm is not None:
        warm.record(sources, preds)
    return dists, preds
