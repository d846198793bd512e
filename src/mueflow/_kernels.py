"""Shortest-path and projection kernels shared by the whole package.

The hot loop of every solver is one-to-all shortest paths over the
network's CSR adjacency, from every origin of a vehicle class, once per
iteration.  Every kernel is numpy and runs in the calling thread.  Link
costs are nonnegative: label-setting Dijkstra is defined for no others,
and :func:`batch_dijkstra` raises ValueError on a negative or NaN cost.
Who calls what:

* :func:`batch_dijkstra` builds every shortest-path tree: the solvers'
  all-or-nothing step (``equilibrium``, one batch per iteration over
  both vehicle classes, each source costed by its class's row of a
  (classes, links) cost array, with one :class:`WarmStart` owned by the
  solve's path state and handed on from level to level of a sweep),
  ``metrics`` (every demand origin at once) and
  ``network.shortest_path`` (one source).
  It relaxes all sources of a chunk together over one in-arc layout
  without padding (:func:`_in_arcs`, built once per graph): nodes in
  descending in-degree order, row ``r`` the ``r``-th in-arc of every
  node that has one, all rows in one flat array.  A round is one
  gather, one add and a fold of the shorter rows into row 0; the
  predecessor rule (:func:`_pred_rule`) reads the other rows of the
  last round's candidates as they are and sums tight slots in the
  narrowest integer type that holds them.  Every chunk relaxes in the
  buffers of one :class:`_Workspace`, made once per :class:`WarmStart`
  (so once per solve or sweep: 2.1 MB on ``mini_city``) or once per
  call without one, which keeps each chunk's temporaries from being
  freed and faulted in again.  Chunks whose trees came back unchanged
  start from them, their old tree paths costed level by level
  (:func:`_tree_levels`, :func:`_fold_levels`).  When that start is
  already the fixed point and its tree arcs are the only tight arcs,
  the chunk keeps its old trees and skips the predecessor rule; other
  chunks run the rule.  Chunks whose trees changed start from
  scratch, but with a :class:`WarmStart` they alternate a Gauss–Seidel
  :func:`_sweep` in the level order of the first trees of the series
  (:func:`_sweep_plan`) with one full :func:`_round`, which takes a few
  sweeps where plain rounds take one per tree level; a chunk that
  needed more than two sweeps gets a plan from its new trees.
* :func:`dijkstra` is the :mod:`heapq` reference for one source.  The
  batch kernel runs it for the trees its predecessor rule cannot settle;
  the tests hold the batch kernel to it bit for bit.
* :func:`walk_paths` turns trees into link paths for the solvers and
  for ``network.shortest_path``, stepping each path up its own tree.
  The warm start's :func:`_tree_levels` and the sweep plans take whole
  trees' depths from :func:`_tree_depths`, by pointer doubling in
  position space; all three take arc tails from :func:`arc_tails`.
* :func:`project_blocks` is the path-based solvers' simplex projection.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

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


# The batch kernel relaxes sources in chunks of about this many
# (max in-degree x nodes x sources) entries.  That bounds the size of
# its workspace (:class:`_Workspace`), whose largest buffers hold one
# value per in-arc entry and source of a chunk.  Chunks sized from the
# arc count instead (27 sources rather than 19 on mini_city) measured
# no faster.
_BATCH_ENTRIES = 1 << 16


def _chunk_size(arcs):
    """Sources per chunk of the batch kernel, for in-arc layout ``arcs``."""
    return max(1, _BATCH_ENTRIES // (len(arcs.rows) * arcs.pos.size))


def arc_tails(indptr):
    """Tail node of every arc slot of the CSR row pointers ``indptr``."""
    return np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))


class _InArcs(NamedTuple):
    """Every node's incoming arcs, in rows without padding.

    Nodes take *positions* in descending in-degree order (stable).  Row
    ``r`` holds the ``r``-th incoming slot, in ascending slot order, of
    each node with more than ``r`` in-arcs: a prefix of the positions,
    so each row is a prefix of row 0.  The rows are flattened one after
    another; every arc slot is one entry.
    """

    pos: np.ndarray        # position of each node
    rows: tuple            # (first entry, length) per row; at least one
    slot: np.ndarray       # arc slot of each entry
    tail: np.ndarray       # position of each entry's tail node
    head: np.ndarray       # position of each entry's head node
    arc_tail: np.ndarray   # tail node of every arc slot (arc_tails)


def _in_arcs(indptr, heads):
    """The :class:`_InArcs` layout of the CSR graph (indptr, heads)."""
    n = indptr.shape[0] - 1
    m = heads.shape[0]
    indeg = np.bincount(heads, minlength=n)
    node = np.argsort(-indeg, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[node] = np.arange(n)
    n_rows = max(int(indeg.max(initial=0)), 1)
    # rows[r]: the nodes with more than r in-arcs
    at_least = np.cumsum(np.bincount(indeg, minlength=n_rows + 1)[::-1])[::-1]
    rows = at_least[1:n_rows + 1]
    offsets = np.cumsum(rows) - rows
    order = np.argsort(heads, kind="stable")
    rank = np.arange(m) - (np.cumsum(indeg) - indeg)[heads[order]]
    slot = np.empty(m, dtype=np.int64)
    slot[offsets[rank] + pos[heads[order]]] = order
    arc_tail = arc_tails(indptr)
    head = np.arange(m) - np.repeat(offsets, rows)
    return _InArcs(pos, tuple(zip(offsets.tolist(), rows.tolist())), slot,
                   pos[arc_tail[slot]], head, arc_tail)


class _Buffers(NamedTuple):
    """A :class:`_Workspace`'s buffers as one chunk of ``k`` sources sees them.

    Each array is a view of the first ``size * k`` items of its buffer,
    shaped (size, k): per in-arc entry (entries), per position
    (positions) or per entry of row 0 (row 0).  The predecessor rule's
    slot sums are in the workspace's narrow signed type (see
    :func:`_sum_type`).
    """

    cost: np.ndarray    # entries: the chunk's entry costs
    cand: np.ndarray    # entries: tail value plus cost
    dist: np.ndarray    # positions: the chunk's distances
    lower: np.ndarray   # row 0, bool: where a round lowers dist
    folds: list         # (prefix of row 0, row r) pairs of cand, r >= 1
    via: np.ndarray     # entries, slab: the rule's tail values
    at: np.ndarray      # entries, slab: head values
    term: np.ndarray    # entries, slab, narrow: the rule's slot terms
    nodes: np.ndarray   # positions, slab: dist's gather back to node order
    order: np.ndarray   # positions, slab, narrow: pred's gather
    tight: np.ndarray   # entries, bool
    flag: np.ndarray    # entries, bool
    seen: np.ndarray    # row 0, bool: a tight in-arc
    several: np.ndarray  # row 0, bool: two or more
    pred: np.ndarray    # positions, narrow: tree arc slots
    slots: np.ndarray   # (entries, 1), narrow: each entry's slot plus one


def _sum_type(arcs):
    """The narrowest signed integer type of the predecessor rule's sums.

    Per node the rule sums one slot plus one per row of ``arcs``, so a
    type that holds ``len(arcs.rows) * (n_arcs + 1)`` never wraps.
    """
    bound = len(arcs.rows) * (arcs.slot.size + 1)
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if bound <= np.iinfo(t).max)


class _Workspace:
    """Every chunk-sized buffer of :func:`batch_dijkstra`, made once.

    Sized for chunks of up to ``k`` sources over the in-arc layout
    ``arcs``; :meth:`shaped` hands out views for a chunk.  A
    :class:`WarmStart` keeps one for its whole series and makes a larger
    one only when its chunks grow; a call without one makes its own,
    shared by its chunks.  A chunk-sized array on ``mini_city`` (366 KB)
    is above the allocator's mmap threshold: made per chunk, each would
    be handed back to the system and faulted in again.  Buffers serve
    steps that are never live at once.  The slab's three rows hold the
    sweeps' plan index, tails and steps, then the warm certificate's
    head values, then the predecessor rule's tail values and slot terms,
    and last the gathers back to node order.  Once a chunk's outputs are
    copied out, :func:`_sweep_plan` builds plans in the slab, ``dist``
    and ``cand``.  The rule's slot sums and the trees it makes are in
    the narrow type of :func:`_sum_type` (``int16`` on ``mini_city``).
    ``views`` holds, per chunk, its sweep plan as :func:`_sweep_views`
    slices it; the owner drops them with the plans.  :meth:`tails`
    keeps, per chunk width, the table :func:`_fill_sweep` turns plan
    entries into tail indices with.  On ``mini_city`` (2408 entries, 676
    positions, 19 sources) the buffers take 2.1 MB, and the table of 19
    sources 91 KB.
    """

    def __init__(self, arcs, k):
        m, n, n_in = arcs.slot.size, arcs.pos.size, arcs.rows[0][1]
        self.arcs, self.k = arcs, k
        narrow = _sum_type(arcs)
        self.cost, self.cand = np.empty((2, m * k))
        self.dist = np.empty(n * k)
        self.pred = np.empty(n * k, dtype=narrow)
        self.slots = (arcs.slot + 1).astype(narrow)[:, None]
        self.lower = np.empty(n_in * k, dtype=bool)
        self.marks = np.empty((2, n_in * k), dtype=bool)
        self.tight, self.flag = np.empty((2, m * k), dtype=bool)
        self.slab = np.empty((3, max(m, n) * k))
        self.sweep_rows = (self.slab[0].view(np.intp),
                           self.slab[1].view(np.intp), self.slab[2])
        self.views: dict[int, tuple] = {}
        self._shaped: dict[int, _Buffers] = {}
        self._tails: dict[int, np.ndarray] = {}

    def shaped(self, k):
        """The buffers as (size, ``k``) views, for a chunk of ``k`` sources."""
        if k not in self._shaped:
            arcs, narrow = self.arcs, self.pred.dtype
            m, n, n_in = arcs.slot.size, arcs.pos.size, arcs.rows[0][1]
            via, at, term = (row[:m * k].reshape(m, k) for row in self.slab)
            cand = self.cand[:m * k].reshape(m, k)
            self._shaped[k] = _Buffers(
                self.cost[:m * k].reshape(m, k), cand,
                self.dist[:n * k].reshape(n, k),
                self.lower[:n_in * k].reshape(n_in, k),
                [(cand[:size], cand[lo:lo + size])
                 for lo, size in arcs.rows[1:]],
                via, at,
                self.slab[2].view(narrow)[:m * k].reshape(m, k),
                self.slab[0, :n * k].reshape(n, k),
                self.slab[0].view(narrow)[:n * k].reshape(n, k),
                self.tight[:m * k].reshape(m, k),
                self.flag[:m * k].reshape(m, k),
                *(row[:n_in * k].reshape(n_in, k) for row in self.marks),
                self.pred[:n * k].reshape(n, k), self.slots)
        return self._shaped[k]

    def tails(self, k):
        """Per index ``entry * k + source``, its tail's ``tail * k + source``.

        Made once per chunk width, for :func:`_fill_sweep`, in the
        smallest unsigned type that holds ``n_nodes * k`` (``uint16`` on
        ``mini_city``).  An ``intp`` table, which :func:`_fill_sweep`
        would not have to widen, raised the peak RSS of three
        ``mini_city`` solves in one process by 1.8 MB.
        """
        if k not in self._tails:
            arcs = self.arcs
            table = np.empty((arcs.slot.size, k),
                             np.min_scalar_type(arcs.pos.size * k - 1))
            np.multiply(arcs.tail[:, None], k, out=table, casting="unsafe")
            table += np.arange(k, dtype=table.dtype)
            self._tails[k] = table.reshape(-1)
        return self._tails[k]

    def sweep_plan(self, c, plan):
        """Chunk ``c``'s ``plan`` with its :func:`_sweep_views`, kept."""
        if c not in self.views:
            self.views[c] = (plan[0], _sweep_views(plan[1], self))
        return self.views[c]


def _relax_chunk(arcs, entry_cost, sources, start=None, tree_arcs=None,
                 plan=None, work=None, zero_steps=True):
    """Shortest paths from a few sources at once, position-major.

    ``entry_cost`` is the cost of each entry of ``arcs`` (its arc
    slot's cost), shaped (entries, sources), or (entries,) when every
    source has the same costs.  ``work`` is the :class:`_Workspace` to
    relax in (one of this call's own when None); costs already in its
    buffer stay there.  Relaxation starts from ``start``, the
    workspace's distances as :func:`_fold_levels` filled them, or from
    ``inf`` with the sources at 0 when it is None.  It runs
    :func:`_round` until a round lowers nothing.  With a ``plan`` (index
    and views from :meth:`_Workspace.sweep_plan`, for a cold start) each
    round follows one :func:`_sweep` over the plan's levels.  Returns
    (dist, pred, ties, sweeps): dist and pred shaped (positions,
    sources), both views of the workspace (pred in its narrow type), a
    per-source flag for trees whose predecessors :func:`_pred_rule`
    cannot vouch for, and the number of sweeps run.  ``zero_steps``
    False says that no arc can add zero to a distance, so the rule need
    not look for such arcs (see :func:`batch_dijkstra`).

    ``tree_arcs`` is given with a warm ``start`` whose trees it counts
    (see :func:`batch_dijkstra`).  When the first round lowers nothing
    and counts ``tree_arcs`` tight entries, the start's trees stand,
    and pred and ties come back None.
    """
    k = sources.shape[0]
    if work is None:
        work = _Workspace(arcs, k)
    buf = work.shaped(k)
    # one contiguous column per source: a contiguous add is several
    # times faster than one broadcast over the short source axis
    if entry_cost is not buf.cost:
        np.copyto(buf.cost,
                  entry_cost if entry_cost.ndim == 2 else entry_cost[:, None])
    dist = buf.dist
    if start is None:
        dist.fill(np.inf)
        dist[arcs.pos[sources], np.arange(k)] = 0.0
    if plan is not None:
        index, sweep = plan
        _fill_sweep(index, buf, work)
    lowered, settled, sweeps = True, False, 0
    if tree_arcs is not None:
        lowered, settled = _round(arcs, buf, tree_arcs)
    while lowered:
        if plan is not None:
            _sweep(sweep, dist.reshape(-1))
            sweeps += 1
        lowered, _ = _round(arcs, buf)
    if settled:
        return dist, None, None, sweeps
    return (dist, *_pred_rule(arcs, buf, zero_steps), sweeps)


def _round(arcs, buf, tree_arcs=None):
    """One Jacobi round over every entry of ``arcs``, in place.

    Gathers every entry's tail value from the chunk's distances
    (``buf``, a chunk's :class:`_Buffers`) into its candidates, adds the
    entry costs, folds rows 1.. into the prefix of row 0 with in-place
    minimums and lowers the distances wherever row 0 is smaller: a round
    allocates nothing.  Returns (lowered, settled).  With ``tree_arcs``
    the round also counts, before its rows fold, the tight entries whose
    head is finite; ``settled`` is True when it lowered nothing and that
    count is ``tree_arcs`` (see :func:`batch_dijkstra`).
    """
    dist, cand, lower = buf.dist, buf.cand, buf.lower
    # every index is in range, and "clip" spares take a buffered out;
    # the method skips the wrapper of np.take, about 1 us a call
    dist.take(arcs.tail, axis=0, out=cand, mode="clip")
    cand += buf.cost
    settled = False
    if tree_arcs is not None:
        at = np.take(dist, arcs.head, axis=0, out=buf.at, mode="clip")
        tight = np.equal(cand, at, out=buf.tight)
        tight &= np.less(at, np.inf, out=buf.flag)
        settled = np.count_nonzero(tight) == tree_arcs
    for lead, row in buf.folds:
        np.minimum(lead, row, out=lead)
    best, dist_in = cand[:lower.shape[0]], dist[:lower.shape[0]]
    np.less(best, dist_in, out=lower)
    if not lower.any():
        return False, settled
    np.minimum(dist_in, best, out=dist_in)
    return True, False


def _sweep_views(levels, work):
    """A chunk's plan levels (:func:`_sweep_plan`), as :func:`_sweep` views.

    Per level, the views are its in-arcs' slice of the workspace's
    candidates, of its tails and of its steps, the (rank 0 prefix,
    rank) pairs of candidates to fold, its nodes' slice of the plan
    index and their candidates.  The index, tails and steps live in the
    rows of the workspace's slab (:class:`_Workspace`), which
    :func:`_fill_sweep` fills for the chunk on every call; slicing once
    per plan, not once per sweep or per call, takes close to half off a
    sweep on ``mini_city``.
    """
    (at, tails, steps), cand = work.sweep_rows, work.cand
    return [(cand[lo:hi], tails[lo:hi], steps[lo:hi],
             [(cand[lo:lo + length], cand[start:start + length])
              for start, length in zip(folds[::2], folds[1::2]) if length],
             at[lo:lo + size], cand[lo:lo + size])
            for lo, hi, size, *folds in levels.tolist()]


def _fill_sweep(index, buf, work):
    """Fill the workspace rows a chunk's :func:`_sweep_views` read.

    ``index`` is the chunk's plan index (see :func:`_sweep_plan`) and
    ``buf`` its :class:`_Buffers`, with the chunk's entry costs.  Writes
    the index as ``intp``, every in-arc's tail index into the chunk's
    (positions, sources) array flattened, one gather from the width's
    table (:meth:`_Workspace.tails`), and every in-arc's cost.
    """
    at, tails, steps = (row[:index.size] for row in work.sweep_rows)
    np.copyto(at, index)
    table = work.tails(buf.cost.shape[1])
    # every index is in range, and "clip" spares take a buffered out; the
    # narrow tails pass through the steps' row, which takes the costs after
    np.copyto(tails, table.take(at, out=steps.view(table.dtype)[:at.size],
                                mode="clip"))
    buf.cost.take(at, out=steps, mode="clip")


def _sweep(levels, dist):
    """One Gauss–Seidel sweep over a chunk's levels, in place.

    ``dist`` is the chunk's (positions, sources) array flattened and
    ``levels`` its plan's views (:func:`_sweep_views`).  Level by level,
    one gather and one add cost every in-arc of the level, its ranks
    fold into rank 0, and its nodes take their cheapest in-arc, which is
    never above the value it replaces (see :func:`batch_dijkstra`).
    Each level reads what the levels before it just wrote.
    """
    for cand, tails, steps, folds, at, best in levels:
        # every index is in range, and "clip" spares take a buffered out;
        # the method skips the wrapper of np.take, about 1 us a level
        dist.take(tails, out=cand, mode="clip")
        cand += steps
        for lead, rank in folds:
            np.minimum(lead, rank, out=lead)
        dist[at] = best


def _pred_rule(arcs, buf, zero_steps=True):
    """Tree arcs of a chunk's distances, in its :class:`_Buffers` ``buf``.

    Reads the candidates of the round that lowered nothing (see
    :func:`_round`), forms those of row 0 again where that round folded
    the other rows into it, and overwrites the rule's buffers.  Each
    node takes, among its tight in-arcs (``d[tail] + c == d[head]``,
    finite), the one with the smallest ``d[tail]``, then the lowest
    slot.  Entry ``i`` of every row has head position ``i``, so row
    ``r`` is tight where its candidates equal the first ``size_r``
    distances.  Per node the rows sum its tight arcs' slots plus one,
    in the workspace's narrow type (:func:`_sum_type`), and mark
    whether it has two or more: a node with one tight arc takes that
    sum less one, a node with none -1, and only the nodes marked go
    through :func:`_settle_ties`.  Returns (pred, ties): pred shaped
    (positions, sources), a narrow view of the workspace, and per
    source whether a tight arc adds zero, which leaves the rule unable
    to vouch for that tree (see :func:`batch_dijkstra`).  With
    ``zero_steps`` False the caller has shown that no arc can add zero,
    and no tie is sought.
    """
    dist, cand, tight, flag, seen, several, pred, slots = (
        buf.dist, buf.cand, buf.tight, buf.flag, buf.seen, buf.several,
        buf.pred, buf.slots)
    k, n_in = dist.shape[1], seen.shape[0]
    # only row 0 lost its candidates, to the round's folds; folding into
    # a buffer of its own instead cost every round more than this
    dist.take(arcs.tail[:n_in], axis=0, out=cand[:n_in], mode="clip")
    cand[:n_in] += buf.cost[:n_in]
    reach = np.less(dist[:n_in], np.inf, out=buf.lower)
    several.fill(False)
    for r, (lo, size) in enumerate(arcs.rows):
        row = tight[lo:lo + size]
        np.equal(cand[lo:lo + size], dist[:size], out=row)
        row &= reach[:size]
        if r == 0:
            np.copyto(seen, row)
            np.multiply(row, slots[:size], out=pred[:size])
            continue
        again = np.logical_and(row, seen[:size], out=flag[lo:lo + size])
        several[:size] |= again
        seen[:size] |= row
        pred[:size] += np.multiply(row, slots[lo:lo + size],
                                   out=buf.term[lo:lo + size])
    pred[:n_in] -= 1
    pred[n_in:] = -1
    pairs = np.flatnonzero(several)
    if pairs.size:
        _settle_ties(arcs, buf, *np.divmod(pairs, k))
    if not zero_steps:
        return pred, np.zeros(k, dtype=bool)
    # every index is in range, and "clip" spares take a buffered out
    via = np.take(dist, arcs.tail, axis=0, out=buf.via, mode="clip")
    np.equal(via, cand, out=flag)
    flag &= tight
    # a tie is rare even where costs allow one: any() over the whole
    # chunk is far cheaper than any() per source
    return pred, flag.any(axis=0) if flag.any() else np.zeros(k, dtype=bool)


def _settle_ties(arcs, buf, pos, col):
    """The rule's pick at (position, source) pairs with several tight arcs.

    One pass over a (pairs, rows) array of the pairs' in-arcs: the
    tight one with the smallest tail value wins, then the lowest row
    (``argmin`` returns the first minimum), which holds the lowest slot.
    Writes the picks into ``buf.pred``.
    """
    k = buf.dist.shape[1]
    lo, size = np.array(arcs.rows).T
    entry = lo + pos[:, None]
    # entries past a row's end are clipped into range and masked
    tight = buf.tight.reshape(-1).take(entry * k + col[:, None], mode="clip")
    tight &= pos[:, None] < size
    tail = arcs.tail.take(entry, mode="clip") * k + col[:, None]
    via = np.where(tight, buf.dist.reshape(-1).take(tail), np.inf)
    pick = entry[np.arange(pos.size), via.argmin(axis=1)]
    buf.pred[pos, col] = arcs.slot[pick]


def _tree_depths(preds, arcs, tree, depth, jump, spare):
    """Depth of every node of the trees ``preds``, in position space.

    ``preds`` (sources, n_nodes) are trees as the kernels return them.
    The four other arrays are ``int64`` buffers of at least ``n_nodes *
    sources`` items, each taken as a (positions, sources) array
    flattened: ``tree`` gets each node's tree arc (-1 off the tree) and
    ``depth`` its arcs from its root (0 at roots and off the tree).
    ``jump`` starts at each node's tree parent (itself at roots and off
    the tree) and is doubled against ``spare``: each step adds the
    depth at the jump and jumps twice as far, until every jump reaches
    a root.  Returns (tree, depth), views of the first two buffers.
    """
    k, n = preds.shape
    tree, depth, jump, spare = (a[:n * k] for a in (tree, depth, jump, spare))
    node = np.empty_like(arcs.pos)
    node[arcs.pos] = np.arange(n)
    # the transposing copy first: a take from the transposed trees
    # would copy them, and its output, into temporaries
    np.copyto(spare.reshape(n, k), preds.T)
    np.take(spare.reshape(n, k), node, axis=0, out=tree.reshape(n, k),
            mode="clip")
    parent = jump.reshape(n, k)
    # a graph without arcs has no tail to clip to, and no tree arc
    if arcs.slot.size:
        np.take(arcs.pos[arcs.arc_tail], tree.reshape(n, k), out=parent,
                mode="clip")
    np.copyto(parent, np.arange(n)[:, None], where=tree.reshape(n, k) < 0)
    parent *= k
    parent += np.arange(k)
    np.greater_equal(tree, 0, out=depth)
    while True:  # depth[e]: arcs from e up to jump[e]
        above = np.take(depth, jump, out=spare, mode="clip")
        if not above.any():
            return tree, depth
        depth += above
        jump, spare = np.take(jump, jump, out=spare, mode="clip"), jump


def _tree_levels(preds, arcs, cost_rows, work):
    """The trees ``preds`` of one chunk, sorted level by level.

    ``preds`` (sources, n_nodes) are trees as the kernels return them,
    and ``cost_rows`` the cost row of each tree (see
    :func:`batch_dijkstra`).  One stable sort by :func:`_tree_depths`
    orders the entries, by (position, source) within a level.  Returns
    (target, parent, arc, bounds): per entry, its index and its tree
    parent's index in a (positions, sources) array flattened, and its
    tree arc's index in the (cost rows, arc slots) costs flattened;
    level ``d`` is entries ``bounds[d - 1]:bounds[d]``.  The depths are
    made in the slab and ``dist`` of ``work``, the chunk's
    :class:`_Workspace`, before the chunk uses them.
    """
    k, n = preds.shape
    tree, jump, spare = (row.view(np.int64) for row in work.slab)
    tree, depth = _tree_depths(preds, arcs, tree, work.dist.view(np.int64),
                               jump, spare)
    target = np.flatnonzero(depth)
    # a stable sort of narrow keys is a radix sort, several times faster
    level = depth[target].astype(np.min_scalar_type(depth.max(initial=0)))
    target = target[np.argsort(level, kind="stable")]
    bounds = np.cumsum(np.bincount(depth[target])).tolist()
    slot, row = tree[target], target % k
    return (target, arcs.pos[arcs.arc_tail[slot]] * k + row,
            cost_rows[row] * arcs.slot.size + slot, bounds)


def _sweep_plan(preds, arcs, work, into=None):
    """The level order of one chunk's trees ``preds``, for :func:`_sweep`.

    ``preds`` (sources, n_nodes) are trees as the kernels return them.
    The plan holds one index per in-arc of every node with a tree arc:
    ``entry * k + source`` for the in-arc's entry of ``arcs``, an index
    into the chunk's (entries, sources) costs flattened, in the smallest
    unsigned type that holds it.  Nodes go level by level (tree depth)
    and within a level by (position, source).  A level's in-arcs go
    rank by rank, rank ``r`` holding the ``r``-th in-arc of each of its
    nodes that has one.  Positions descend in in-degree, so each rank
    lines up with a prefix of rank 0; and row 0 of ``arcs`` starts at
    entry 0, so a rank-0 index is also its node's index ``position * k
    + source`` into a (positions, sources) array flattened.  Returns
    (index, levels), ``levels`` an array with one row per level: ``lo``,
    ``hi`` and ``size`` (its in-arcs are ``index[lo:hi]``, its ``size``
    nodes the first of them), then ``start`` and ``length`` of each rank
    from rank 1 on, 0 long past the level's last rank.

    Row ``r``'s block of flat indices, ``(lo_r + position) * k +
    source``, is ``lo_r * k`` plus the index of its head's (position,
    source) pair, one of the first ``size_r * k``.  So one sort of a
    key per flat index, its head's (level, rank) in the high bits and
    the index itself in the low bits, lists the plan in order.  The
    depths, keys and sort use the buffers of ``work``, a
    :class:`_Workspace` for ``k`` sources or more, so only the index and
    ``levels`` are new; the index is written into ``into`` when its
    size fits.
    """
    k, n = preds.shape
    m, ranks = arcs.slot.size, len(arcs.rows)
    tree, jump, spare = (row.view(np.int64) for row in work.slab)
    _, depth = _tree_depths(preds, arcs, tree, work.dist.view(np.int64),
                            jump, spare)
    levels = int(depth.max(initial=0))
    bits = max(m * k - 1, 0).bit_length()
    key_type = np.int32 if (levels + 1) * ranks << bits < 2 ** 31 else np.int64
    # per (position, source) index t: its level less one times the
    # ranks, shifted, plus t; depth 0 (no tree arc) sorts after them all
    head = np.subtract(depth, 1, out=jump[:n * k]).reshape(n, k)
    head[head < 0] = levels
    head *= ranks
    head <<= bits
    head += (np.arange(n) * k)[:, None]
    head += np.arange(k)
    head = head.reshape(-1)
    key = work.cand.view(key_type)[:m * k]
    for r, (lo, size) in enumerate(arcs.rows):
        np.add(head[:size * k], (r << bits) + lo * k,
               out=key[lo * k:(lo + size) * k])
    key.sort()
    # each (level, rank)'s first key: the ranks of a level are in order
    starts = np.searchsorted(
        key, np.arange(levels * ranks + 1, dtype=key_type) << bits)
    counts = np.diff(starts).reshape(levels, ranks)
    index_type = np.min_scalar_type(m * k - 1)
    index = (into if into is not None and into.size == starts[-1]
             else np.empty(starts[-1], index_type))
    np.bitwise_and(key[:index.size], (1 << bits) - 1, out=index,
                   casting="unsafe")
    ends = np.cumsum(counts, axis=1)
    lo = np.cumsum(ends[:, -1]) - ends[:, -1]  # each level's first in-arc
    folds = np.stack([lo[:, None] + ends[:, :-1], counts[:, 1:]], axis=2)
    return index, np.column_stack([lo, lo + ends[:, -1], counts[:, 0],
                                   folds.reshape(lo.size, 2 * folds.shape[1])])


def _sweep_plans(preds, arcs, work):
    """The :func:`_sweep_plan` of every chunk of the trees ``preds``.

    ``work`` is the :class:`_Workspace` the plans are built in.  All
    chunks' indices live in one array: small arrays of one chunk each,
    made between the batch's temporaries, scattered through the heap
    and raised the peak RSS of a ``mini_city`` solve by twice their
    size.
    """
    step = _chunk_size(arcs)
    plans = [_sweep_plan(preds[lo:lo + step], arcs, work)
             for lo in range(0, preds.shape[0], step)]
    if not plans:
        return []
    bounds = np.cumsum([0] + [index.size for index, _ in plans]).tolist()
    whole = np.concatenate([index for index, _ in plans])
    return [(whole[lo:hi], levels)
            for (_, levels), lo, hi in zip(plans, bounds, bounds[1:])]


def _fold_levels(levels, arcs, arc_cost, sources, buf):
    """Cost of every tree path under ``arc_cost``, position-major.

    ``levels`` are the old trees of ``sources``, from
    :func:`_tree_levels`, and ``arc_cost`` the (cost rows, arc slots)
    costs flattened.  Level by level, each node takes its tree
    parent's value plus its tree arc's cost: the path is summed from
    the source, left to right, as the heap sums it.  Nodes off the
    tree stay ``inf``.  The costs are made in the distances of ``buf``
    (the chunk's :class:`_Buffers`), which this returns, and the tree
    arcs' costs are gathered into its candidates.
    """
    target, parent, arc, bounds = levels
    k = sources.shape[0]
    costs = buf.dist.reshape(-1)
    costs.fill(np.inf)
    costs[arcs.pos[sources] * k + np.arange(k)] = 0.0
    # a tree arc per tree node: no more than the chunk's entries
    step = np.take(arc_cost, arc, out=buf.cand.reshape(-1)[:arc.size],
                   mode="clip")
    for lo, hi in zip(bounds, bounds[1:]):
        costs[target[lo:hi]] = costs[parent[lo:hi]] + step[lo:hi]
    return buf.dist


def walk_paths(preds, links, arc_tail, rows, dests):
    """Link tuples of tree paths, one per pair (``rows[i]``, ``dests[i]``).

    Path ``i`` runs in tree ``rows[i]`` of ``preds`` from its root (the
    node without a tree arc) to node ``dests[i]``, which must be
    reachable in that tree.  All paths step back from their destinations
    together, one link per step: each reads its tree arc from ``preds``
    at the entry it has reached, and moves to that arc's tail in the
    same row (``arc_tail``), so a step costs the paths, not the trees.
    No tree path has ``n_nodes`` links, so a walk still open after that
    many steps is caught in a cycle of ``preds``: that raises
    ``RuntimeError``.
    """
    n = preds.shape[1]
    flat = preds.reshape(-1)
    base = np.asarray(rows) * n
    at = base + dests
    steps = []
    for _ in range(n):
        pred = flat[at]
        live = pred >= 0
        if not live.any():
            break
        # a finished path (pred -1) reads some tail, but stays
        steps.append(pred)
        at = np.where(live, base + arc_tail[pred], at)
    else:
        raise RuntimeError("a tree walk did not reach its root: "
                           "the predecessors hold a cycle")
    depth = len(steps)
    # one row per pair, its tree arcs in path order after -1 padding
    table = np.array(steps[::-1], dtype=np.int64).reshape(depth, at.size).T
    used = table >= 0
    lengths = np.count_nonzero(used, axis=1).tolist()
    table[used] = links[table[used]]
    return [tuple(row[depth - m:]) for row, m in zip(table.tolist(), lengths)]


class WarmStart:
    """What one caller's last batch left for its next batch to start from.

    A solver asks for the trees of the same sources once per iteration,
    under costs that change a little each time, and most calls return
    exactly the trees of the call before.  Pass one state per such
    series of calls as ``warm=`` to :func:`batch_dijkstra`; in the
    solvers, a solve's path state (``equilibrium._PathState``) owns one
    and hands it on to the next level of a sweep, and each iteration
    makes one batch of every origin for every vehicle class with
    demand, each class's trees costed by its own cost row.
    The state holds the graph's in-arc layout (see :class:`_InArcs`),
    the sources and cost rows of the last call and the ``preds`` array
    it returned (referenced, not copied: callers must not modify it),
    and, per chunk of sources, whether that call returned the same trees
    as the one before and, once a chunk has started from them, those
    trees sorted level by level (:func:`_tree_levels`), kept until they
    change.  ``plans`` holds, per chunk, the sweep plan of the first
    trees the series returned (:func:`_sweep_plans`), for the chunks
    that start cold on later calls.  A chunk whose relaxation needed
    more than two sweeps has its plan rebuilt from the trees it just
    returned (:meth:`replan`), unless it was rebuilt on the call before:
    a plan one call old that is already that stale shows costs that
    move too far for any plan to keep up (``replanned`` lists this
    call's rebuilds, ``recent`` the last call's).  On ``mini_city`` the
    plans of the 188 trees a ``bfw`` iteration asks for take 0.9 MB.
    A call with other sources or other cost rows (a class that joins or
    leaves the batch) starts cold, and the trees it returns make new
    plans.  ``work`` is the series' :class:`_Workspace`: every call
    relaxes its chunks in the same buffers (2.1 MB on ``mini_city``),
    made on the first call and again only when the chunks grow, and it
    keeps each chunk's sweep views until its plan changes.
    ``repeated`` is True when every chunk came back unchanged, so a
    caller can reuse whatever it derived from the last trees.  A call
    that raises on a negative or NaN cost leaves the state as it was.
    """

    def __init__(self, arcs):
        self.arcs = arcs
        self.sources = self.cost_rows = self.preds = None
        self.same: list[bool] = []
        self.levels: dict[int, tuple] = {}
        self.plans: list[tuple] = []
        self.replanned: set[int] = set()
        self.recent: set[int] = set()
        self.work: _Workspace | None = None
        self.repeated = False

    def workspace(self, k):
        """The series' workspace, for chunks of up to ``k`` sources."""
        if self.work is None or self.work.k < k:
            self.work = _Workspace(self.arcs, k)
        return self.work

    def warm_chunks(self, sources, cost_rows):
        """Per chunk of ``sources``: may it start from the last trees?"""
        if (self.preds is None or not np.array_equal(self.sources, sources)
                or not np.array_equal(self.cost_rows, cost_rows)):
            return None
        return self.same

    def record(self, sources, cost_rows, preds, last, kept=()):
        """Keep the trees just returned and compare them with the last.

        ``last`` is what :meth:`warm_chunks` said of this call's sources
        and cost rows.  Chunks listed in ``kept`` returned the last trees
        as they were and need no comparison.  Trees of new sources or
        cost rows make the sweep plans.
        """
        step = _chunk_size(self.arcs)
        self.same = [
            last is not None and (c in kept or np.array_equal(
                self.preds[lo:lo + step], preds[lo:lo + step]))
            for c, lo in enumerate(range(0, len(sources), step))
        ]
        self.levels = {c: lv for c, lv in self.levels.items() if self.same[c]}
        self.replanned, self.recent = set(), self.replanned
        if last is None:
            self.plans = _sweep_plans(preds, self.arcs, self.work)
            self.work.views.clear()
            self.recent = set()
        self.repeated = last is not None and all(self.same)
        self.sources = np.array(sources, dtype=np.int64)
        self.cost_rows = np.array(cost_rows, dtype=np.int64)
        self.preds = preds

    def replan(self, c, preds):
        """Chunk ``c``'s plan again, from the trees ``preds`` it just returned.

        Built in the workspace, whose buffers are free once the chunk's
        outputs are copied out; the index goes into the old one's place
        in the plans' array while its size is the same.  The chunk's
        views are sliced again at once.
        """
        self.work.views.pop(c, None)
        self.plans[c] = _sweep_plan(preds, self.arcs, self.work,
                                    self.plans[c][0])
        self.work.sweep_plan(c, self.plans[c])
        self.replanned.add(c)


def batch_dijkstra(indptr, heads, links, cost, sources, warm=None,
                   cost_rows=None):
    """One-to-all shortest paths from every source, solved together.

    Same arguments as :func:`dijkstra` with ``sources`` in place of
    ``source``; returns (dists, preds) stacked in source order, each row
    bitwise equal to what :func:`dijkstra` gives for that source.
    ``cost`` may also hold several cost rows, shaped (rows, n_links):
    ``cost_rows`` then gives the row each source's tree is costed by
    (row 0 for every source when it is None), so the trees of several
    vehicle classes share one batch, and a chunk may mix classes.
    Raises ValueError if a cost is negative or NaN, or a cost row is
    not one of ``cost``'s.

    Distances come from label-correcting relaxation of all arcs at once,
    repeated until nothing changes (:func:`_relax_chunk`; a minimum is
    exact in any order, so folding rows into row 0 changes no bit).  The
    heap's float64 distances are the greatest fixed point of
    ``d[v] = min(d[u] + c)``, which any relaxation started from ``inf``
    reaches bit for bit.  An arc is *tight* when ``d[u] + c == d[v]``;
    the heap sets ``pred[v]`` when it relaxes the first tight arc into
    ``v``, and it pops nodes in (distance, node) order whenever every
    tight arc strictly increases the distance.  Then ``pred[v]`` is the
    tight arc with the smallest (``d[tail]``, slot).  Trees that contain
    a tight arc of zero increase (zero-cost arcs, or a cost below the
    distance's rounding unit) can be popped in another order: those
    sources are solved by :func:`dijkstra` instead.  The rule seeks such
    arcs only where the batch's costs allow one.  A positive cost ``c``
    vanishes in ``d + c`` only if ``c <= ulp(d) / 2 <= 2**-53 * d`` (a
    subnormal ``d`` absorbs no positive cost), and a finite distance
    sums at most ``n_nodes - 1`` costs of at most ``c_max`` each, so
    ``d < 2 * n_nodes * c_max``.  So when the smallest cost is above
    ``2**-50 * n_nodes * c_max`` (four times the product, room for the
    rounding of the sums and of the bound), no arc adds zero.  A zero
    or infinite cost fails the bound, and its batch takes the search.

    ``warm`` (a :class:`WarmStart`) lets a chunk of sources whose trees
    came back unchanged on the last call start from those trees: each
    node starts at its old tree path's cost under its source's new cost
    row, summed left to right from the source, instead of at ``inf``.
    The old trees are sorted by depth once per streak of unchanged calls
    (:func:`_tree_levels`); each call then fills them one level at a
    time, parent plus arc (:func:`_fold_levels`).  Chunks whose trees
    changed start cold: costing new trees level by level takes about
    what the rounds it saves are worth, so they sweep instead (below).
    The result is the same bit for bit.  Let ``D`` be the heap's
    distances.  The heap relaxes every arc out of every node it settles
    and never raises a distance, so ``D[v] <= D[u] + c`` holds in
    float64 on every arc.  Float addition is monotone, so along any walk
    from the source the left-to-right sum of its costs never drops below
    ``D`` at the walk's end.  Every finite value of the start is such a
    sum, and relaxation only extends sums by one arc, so the distances
    never drop below ``D``.  Relaxation stops when ``d[v] <= d[u] + c``
    on every arc; from the source (at 0) along the heap's own tree path,
    whose left-to-right sums are ``D``, the same monotonicity gives
    ``d <= D``.  So warm and cold starts both end on ``D``, and the
    predecessor rule and the zero-increase fallback then run on it as
    before.

    With ``warm``, a chunk that starts cold also sweeps.  Its plan
    (:func:`_sweep_plan`, made from the first trees the series returned,
    or from the chunk's own trees once they needed more than two sweeps:
    see :class:`WarmStart`) lists the nodes that had a tree arc level
    by level, each with all its in-arcs.  A :func:`_sweep` sets each of
    them to its cheapest in-arc sum ``d[u] + c``, reading what the
    levels above it just wrote; after each sweep one full
    :func:`_round` runs, and the chunk stops at the first round that
    lowers nothing.  This too ends on
    ``D`` bit for bit.  Every value is still ``inf``, 0 at a source, or
    a left-to-right walk sum extended by one arc, so none drops below
    ``D``; and the loop ends only on a full round that lowers nothing,
    so ``d <= D`` as before.  A sweep writes its minimum without
    comparing it with the node's value, and that value never rises: no
    source is in the plan (a root has no tree arc), and every other
    value is some earlier sum over one of the node's in-arcs, whose
    tail has only fallen since, so by monotone addition the cheapest
    in-arc now is no larger.  A stale plan, from trees under other
    costs, with nodes at other depths or no longer reached, changes
    none of this: the order only decides how soon the values reach
    ``D``.  It costs sweeps, never bits.

    A warm chunk whose first round lowers nothing is already on ``D``,
    and it keeps its old trees without the predecessor rule when it
    also passes two counts.  Every old tree arc is tight by
    construction: the start gave its head its tail's value plus its
    cost, the same float sum a round forms.  First, every tree arc must
    strictly increase the start and end on a finite value.  Second,
    the round, before its rows fold, must find exactly as many tight
    entries with a finite head as there are tree arcs (``inf == inf``
    at unreached nodes is not tight).  Then the tree arcs are all the
    tight arcs, so the rule's smallest (``d[tail]``, slot) pick is the
    old tree arc at every node, and no tree has a zero-increase tie
    that would send it to the heap: the rule would return the old
    trees unchanged.  Chunks that fail either count run the rule.
    """
    cost = np.atleast_2d(cost)
    arc_cost = cost[:, links]
    smallest = arc_cost.min(initial=np.inf)
    # the minimum is NaN if any cost is, and NaN fails every comparison
    if not smallest >= 0.0:
        raise ValueError("link costs must be nonnegative and not NaN")
    n = indptr.shape[0] - 1
    # may an arc add zero to a distance? (the bound is proved above)
    zero_steps = not smallest > 2.0 ** -50 * n * arc_cost.max(initial=0.0)
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    cost_rows = (np.zeros_like(sources) if cost_rows is None
                 else np.asarray(cost_rows, dtype=np.int64).reshape(-1))
    if cost_rows.size and not (
            0 <= cost_rows.min() <= cost_rows.max() < len(cost)):
        raise ValueError("cost rows must index the rows of cost")
    dists = np.empty((sources.shape[0], n))
    preds = np.empty((sources.shape[0], n), dtype=np.int64)
    if warm is None:
        arcs, warm_chunks = _in_arcs(indptr, heads), None
    else:
        arcs = warm.arcs
        warm_chunks = warm.warm_chunks(sources, cost_rows)
    step = _chunk_size(arcs)
    width = min(step, sources.shape[0])
    # one workspace for every chunk: the series' own, or this call's
    work = _Workspace(arcs, width) if warm is None else warm.workspace(width)
    entry_cost = arc_cost[:, arcs.slot].T  # (entries, cost rows)
    kept = []
    for c, lo in enumerate(range(0, sources.shape[0], step)):
        chunk, rows = sources[lo:lo + step], cost_rows[lo:lo + step]
        buf = work.shaped(chunk.shape[0])
        # every row is in range, and "clip" spares take a buffered out
        np.take(entry_cost, rows, axis=1, out=buf.cost, mode="clip")
        start = tree_arcs = plan = None
        if warm_chunks is not None and not warm_chunks[c]:
            plan = work.sweep_plan(c, warm.plans[c])
        elif warm_chunks is not None:
            if c not in warm.levels:
                warm.levels[c] = _tree_levels(warm.preds[lo:lo + step], arcs,
                                              rows, work)
            target, parent = warm.levels[c][:2]
            start = _fold_levels(warm.levels[c], arcs, arc_cost.reshape(-1),
                                 chunk, buf)
            flat = start.reshape(-1)
            ends = flat[target]
            if np.all((ends > flat[parent]) & (ends < np.inf)):
                tree_arcs = target.size
        dist, pred, ties, sweeps = _relax_chunk(
            arcs, buf.cost, chunk, start, tree_arcs, plan, work, zero_steps)
        # back from positions to nodes, then the transposing copy
        dists[lo:lo + step] = np.take(dist, arcs.pos, axis=0, out=buf.nodes,
                                      mode="clip").T
        if pred is None:  # the old trees stand
            preds[lo:lo + step] = warm.preds[lo:lo + step]
            kept.append(c)
            continue
        # the transposing copy widens the narrow slots
        preds[lo:lo + step] = np.take(pred, arcs.pos, axis=0, mode="clip",
                                      out=buf.order).T
        for j in np.flatnonzero(ties):
            dists[lo + j], preds[lo + j] = dijkstra(
                indptr, heads, links, cost[rows[j]], chunk[j])
        if sweeps > 2 and c not in warm.recent:
            warm.replan(c, preds[lo:lo + step])
    if warm is not None:
        warm.record(sources, cost_rows, preds, warm_chunks, kept)
    return dists, preds


class _BlockLayout(NamedTuple):
    """Where :func:`project_blocks` puts each value of its blocks.

    Only the blocks with values and a positive budget take part; each
    takes one row of a padded (blocks, width) array.
    """

    row: np.ndarray     # each placed value's row
    pos: np.ndarray     # its place in the row
    elem: np.ndarray    # its index in the values
    total: np.ndarray   # each row's budget, shaped (rows, 1)
    ranks: np.ndarray   # 1 .. width
    valid: np.ndarray   # (rows, width): the places that hold a value


def _block_layout(offsets, totals):
    """The :class:`_BlockLayout` of blocks ``offsets`` with budgets ``totals``."""
    sizes = np.diff(offsets)
    live = np.flatnonzero((sizes > 0) & ~(totals <= 0.0))
    sizes = sizes[live]
    width = int(sizes.max(initial=0))
    row = np.repeat(np.arange(live.size), sizes)
    pos = np.arange(row.size) - (np.cumsum(sizes) - sizes)[row]
    ranks = np.arange(1, width + 1)
    return _BlockLayout(row, pos, offsets[live][row] + pos,
                        totals[live][:, None], ranks, ranks <= sizes[:, None])


def project_blocks(values, offsets, totals):
    """Blockwise Euclidean projection onto {x >= 0, sum x = total}.

    Block ``b`` is ``values[offsets[b]:offsets[b + 1]]`` with budget
    ``totals[b]``; blocks whose budget is zero project to zero.  Each
    block uses the sort-and-threshold rule: sorted descending, the
    active set is a prefix, and one cumulative-sum pass finds the shift
    that lands the prefix on the budget.  All blocks are padded into
    the rows of one array and handled together; row prefixes are summed
    in the same order as a per-block ``cumsum``, so each block's result
    is that of the rule alone.  The padding depends only on the blocks:
    a caller that projects the same blocks many times passes their
    :func:`_block_layout`, built once, as ``totals``.
    """
    out = np.zeros_like(values)
    row, pos, elem, total, ranks, valid = (
        totals if isinstance(totals, _BlockLayout)
        else _block_layout(offsets, totals))
    if row.size == 0:
        return out
    u = np.full(valid.shape, -np.inf)
    u[row, pos] = values[elem]
    u = np.sort(u, axis=1)[:, ::-1]
    cumulative = np.cumsum(np.where(valid, u, 0.0), axis=1) - total
    mask = valid & (u - cumulative / ranks > 0.0)
    rho = ranks.size - mask[:, ::-1].argmax(axis=1)
    theta = cumulative[np.arange(rho.size), rho - 1] / rho
    out[elem] = np.maximum(values[elem] - theta[row], 0.0)
    return out


# Read only by perfbench/child.py, which stamps the backend of a run.
NUMBA_ENABLED = False


# Read only by perfbench/child.py, which stamps the thread count: every
# kernel runs in the calling thread.
def resolve_workers(n_tasks):
    return 1
