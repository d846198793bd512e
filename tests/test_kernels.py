"""Kernels against their reference twins.

The batch shortest-path kernel, cold, warm and sweeping, is checked
against the heap Dijkstra, the tree walk against a parent-pointer loop,
and the blockwise projection against a per-block loop.  Equivalence
here is bitwise, not approximate: the solvers' byte-identical artifacts
rest on it.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mueflow import _kernels, analysis, cli, equilibrium
from mueflow.analysis import run_sweep
from mueflow.cost import bpr_time, vehicle_costs
from mueflow.demand import split_demand
from mueflow.equilibrium import solve
from mueflow.fixtures import FIXTURES, grid10x10
from mueflow.network import shortest_path


def grid_csr():
    net, _ = grid10x10()
    indptr, heads, slots, node_index, _ = net.csr()
    rng = np.random.default_rng(42)
    cost = rng.uniform(0.5, 10.0, size=net.n_links)
    return indptr, heads, slots, cost, node_index


class TestDijkstra:
    def test_python_reference_on_known_graph(self):
        # 0 -> 1 -> 2 plus a direct expensive arc 0 -> 2
        indptr = np.array([0, 2, 3, 3], dtype=np.int64)
        heads = np.array([1, 2, 2], dtype=np.int64)
        links = np.array([0, 1, 2], dtype=np.int64)
        cost = np.array([1.0, 5.0, 2.0])
        dist, pred = _kernels.dijkstra(indptr, heads, links, cost, 0)
        np.testing.assert_allclose(dist, [0.0, 1.0, 3.0])
        assert pred[2] == 2 and pred[1] == 0  # arc slots, not nodes
        assert pred[0] == -1

    def test_unreachable_nodes_are_infinite(self):
        indptr = np.array([0, 1, 1, 1], dtype=np.int64)
        heads = np.array([1], dtype=np.int64)
        links = np.array([0], dtype=np.int64)
        cost = np.array([1.0])
        dist, pred = _kernels.dijkstra(indptr, heads, links, cost, 0)
        assert np.isinf(dist[2]) and pred[2] == -1


def assert_batch_matches_heap(indptr, heads, links, cost, sources,
                              batch=_kernels.batch_dijkstra):
    sources = list(sources)
    dists, preds = batch(indptr, heads, links, cost, sources)
    trees = [_kernels.dijkstra(indptr, heads, links, cost, s)
             for s in sources]
    assert dists.tobytes() == np.array([d for d, _ in trees]).tobytes()
    assert preds.tobytes() == np.array([p for _, p in trees]).tobytes()


def csr_from_arcs(n, arcs):
    """CSR arrays for ``arcs`` = [(tail, head, cost)], link i = arcs[i]."""
    order = sorted(range(len(arcs)), key=lambda i: (arcs[i][0], i))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, [arcs[i][0] + 1 for i in order], 1)
    indptr = np.cumsum(indptr)
    heads = np.array([arcs[i][1] for i in order], dtype=np.int64)
    links = np.array(order, dtype=np.int64)
    cost = np.array([c for _, _, c in arcs], dtype=np.float64)
    return indptr, heads, links, cost


class TestBatchDijkstra:
    """The numpy batch kernel against the heap reference, bit for bit."""

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_every_source_on_every_fixture(self, name):
        build_network, build_config = FIXTURES[name]
        net, _ = build_network()
        config = build_config()
        indptr, heads, slots, _, _ = net.csr()
        t0, cap, length = (net.free_flow_times(), net.capacities(),
                           net.lengths_km())
        per_km = vehicle_costs(config).per_km
        rng = np.random.default_rng(7)
        flows = rng.uniform(0.0, 2.0, size=net.n_links) * cap
        loaded = bpr_time(t0, cap, config.bpr_alpha, config.bpr_beta, flows)
        sources = list(range(indptr.shape[0] - 1))
        for cost in (t0, config.vot * loaded + min(per_km.values()) * length):
            assert_batch_matches_heap(indptr, heads, slots, cost, sources)

    def test_parallel_arcs_and_equal_cost_ties(self):
        # 0 -> 1 twice (parallel, equal cost); 1 and 2 both reach 3 at
        # cost 3, and node 2 is nearer the source than node 1, so the
        # heap relaxes 2 -> 3 first although its slot comes later
        arcs = [(0, 1, 2.0), (0, 1, 2.0), (0, 2, 1.0), (1, 3, 1.0),
                (2, 3, 2.0), (2, 4, 1.5), (3, 4, 0.5), (0, 4, 2.5)]
        indptr, heads, links, cost = csr_from_arcs(5, arcs)
        assert_batch_matches_heap(indptr, heads, links, cost, range(5))
        _, preds = _kernels.batch_dijkstra(indptr, heads, links, cost, [0])
        assert arcs[links[preds[0, 3]]][:2] == (2, 3)
        assert links[preds[0, 1]] == 0  # the first of the parallel arcs

    def test_random_graphs_with_ties_and_zero_costs(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, 4 * n))
            arcs = [(int(a), int(b), float(c)) for a, b, c in zip(
                rng.integers(0, n, m), rng.integers(0, n, m),
                rng.integers(0, 4, m))]
            indptr, heads, links, cost = csr_from_arcs(n, arcs)
            assert_batch_matches_heap(indptr, heads, links, cost, range(n))

    def test_zero_cost_arc_falls_back_to_the_heap(self):
        # 0 -> 3 -> 1 with 3 -> 1 free: the heap pops node 3 before
        # node 1 at the same distance, so it reaches 4 over 3 -> 4
        # while the smallest-(distance, slot) rule would pick 1 -> 4
        arcs = [(0, 3, 1.0), (1, 4, 1.0), (3, 1, 0.0), (3, 4, 1.0)]
        indptr, heads, links, cost = csr_from_arcs(5, arcs)
        layout = _kernels._in_arcs(indptr, heads)
        _, rule_pred, ties, _ = _kernels._relax_chunk(
            layout, cost[links][layout.slot], np.array([0]))
        assert ties[0]
        assert arcs[links[rule_pred[layout.pos[4], 0]]][:2] == (1, 4)
        dists, preds = _kernels.batch_dijkstra(
            indptr, heads, links, cost, [0])
        assert arcs[links[preds[0, 4]]][:2] == (3, 4)
        assert_batch_matches_heap(indptr, heads, links, cost, range(5))

    def test_negative_or_nan_cost_raises(self):
        # label-setting Dijkstra is defined for nonnegative costs only:
        # under -1.5 the heap would settle node 2 at 1.0 before 1 -> 2
        # lowers it to 0.5
        for bad in (-1.5, np.nan):
            arcs = [(0, 1, 2.0), (1, 2, bad), (0, 2, 1.0), (2, 3, 1.0)]
            indptr, heads, links, cost = csr_from_arcs(4, arcs)
            with pytest.raises(ValueError, match="nonnegative and not NaN"):
                _kernels.batch_dijkstra(indptr, heads, links, cost, [0])

    def test_chunked_sources_and_repeats(self, monkeypatch):
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[:30] + [0, 0]
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 1)
        assert_batch_matches_heap(indptr, heads, slots, cost, sources)

    def test_a_graph_without_arcs(self):
        # nothing to relax: each source is at 0, every other node at inf
        indptr = np.zeros(4, dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        sources = [2, 0, 2]
        want = np.full((3, 3), np.inf)
        want[[0, 1, 2], sources] = 0.0
        warm = warm_state(indptr, empty)
        for kwargs in ({}, {"warm": warm}, {"warm": warm}):
            dists, preds = _kernels.batch_dijkstra(
                indptr, empty, empty, np.zeros(0), sources, **kwargs)
            assert dists.tobytes() == want.tobytes()
            assert preds.tolist() == [[-1] * 3] * 3
        assert warm.repeated
        assert_batch_matches_heap(indptr, empty, empty, np.zeros(0), sources)


def rule_reference(indptr, heads, links, cost, source):
    """The documented predecessor rule, arc by arc, on the heap's distances.

    Among the tight arcs into each node (``d[tail] + c == d[head]``,
    finite) the one with the smallest ``d[tail]``, then the lowest slot;
    ``tie`` says whether any tight arc adds zero.  Returns (pred, tie,
    later): ``later`` lists the in-arc rank (its row in the in-arc
    layout) of every tight arc that is not its node's first.
    """
    dist, _ = _kernels.dijkstra(indptr, heads, links, cost, source)
    tails = _kernels.arc_tails(indptr)
    pred = np.full(dist.size, -1, dtype=np.int64)
    rank = np.zeros(dist.size, dtype=np.int64)
    tie, later = False, []
    for slot, (u, v) in enumerate(zip(tails, heads)):
        if dist[v] < np.inf and dist[u] + cost[links[slot]] == dist[v]:
            tie |= bool(dist[u] == dist[v])
            if pred[v] >= 0:
                later.append(int(rank[v]))
            if pred[v] < 0 or dist[u] < dist[tails[pred[v]]]:
                pred[v] = slot
        rank[v] += 1
    return pred, tie, later


def relaxed_rule(indptr, heads, links, cost, sources, zero_steps=True):
    """(pred, ties) of one chunk of ``sources``, pred in node order."""
    layout = _kernels._in_arcs(indptr, heads)
    _, pred, ties, _ = _kernels._relax_chunk(
        layout, cost[links][layout.slot], np.array(list(sources)),
        zero_steps=zero_steps)
    return pred[layout.pos].T, ties


@pytest.fixture
def rule_results(monkeypatch):
    """Per chunk the predecessor rule ran on: (zero_steps, ties)."""
    got = []
    pred_rule = _kernels._pred_rule

    def kept(arcs, buf, zero_steps=True):
        pred, ties = pred_rule(arcs, buf, zero_steps)
        got.append((zero_steps, ties.tolist()))
        return pred, ties

    monkeypatch.setattr(_kernels, "_pred_rule", kept)
    return got


class TestPredRule:
    """The predecessor rule against the rule it documents, arc by arc."""

    def test_integer_costs_with_several_tight_arcs(self):
        # costs 1 and 2 make many equal sums: nodes with two or more
        # tight arcs, from tails at equal and at different distances
        rng = np.random.default_rng(29)
        later, unreached = Counter(), 0
        for _ in range(30):
            n = int(rng.integers(4, 25))
            m = int(rng.integers(3 * n, 6 * n))
            arcs = [(int(a), int(b), float(c)) for a, b, c in zip(
                rng.integers(0, n, m), rng.integers(0, n, m),
                rng.integers(1, 3, m))]
            indptr, heads, links, cost = csr_from_arcs(n, arcs)
            want = [rule_reference(indptr, heads, links, cost, s)
                    for s in range(n)]
            for zero_steps in (True, False):
                pred, ties = relaxed_rule(indptr, heads, links, cost,
                                          range(n), zero_steps)
                assert pred.tolist() == [p.tolist() for p, _, _ in want]
                assert not ties.any()
            # no arc adds zero, so the heap's trees follow the rule
            heap = [_kernels.dijkstra(indptr, heads, links, cost, s)
                    for s in range(n)]
            assert [p.tolist() for _, p in heap] == pred.tolist()
            assert_batch_matches_heap(indptr, heads, links, cost, range(n))
            later.update(r for _, _, ranks in want for r in ranks)
            unreached += sum(int(np.isinf(d).sum()) for d, _ in heap)
        # a second tight arc in each of the in-arc rows 1 to 3
        assert min(later[1], later[2], later[3]) > 10 and unreached > 50

    def test_zero_and_absorbed_costs_take_the_exact_path(self, rule_results):
        # 3 -> 1 costs nothing; 8 -> 9 costs 2**-51, which the distance
        # 8 of node 8 absorbs (half its rounding unit is 2**-50)
        zero = (5, [(0, 3, 1.0), (1, 4, 1.0), (3, 1, 0.0), (3, 4, 1.0)])
        absorbed = (10, [(i, i + 1, 1.0) for i in range(8)]
                    + [(8, 9, 2.0 ** -51), (7, 9, 1.0), (9, 2, 1.0)])
        for n, arcs in (zero, absorbed):
            indptr, heads, links, cost = csr_from_arcs(n, arcs)
            want = [rule_reference(indptr, heads, links, cost, s)
                    for s in range(n)]
            ties = [tie for _, tie, _ in want]
            assert any(ties) and not all(ties)
            rule_results.clear()
            assert_batch_matches_heap(indptr, heads, links, cost, range(n))
            assert rule_results == [(True, ties)]
            pred, got = relaxed_rule(indptr, heads, links, cost, range(n))
            assert got.tolist() == ties
            assert pred.tolist() == [p.tolist() for p, _, _ in want]

    def test_the_cost_bound_that_skips_the_zero_step_search(
            self, rule_results):
        # four nodes and a largest cost of 1: a tie needs a cost of at
        # most 2**-53 times a distance below 8, so costs above
        # 2**-50 * 4 = 2**-48 prove that none exists
        edge = 2.0 ** -48
        for small, skipped in ((edge, False), (np.nextafter(edge, 1.0), True),
                               (0.0, False), (np.inf, False)):
            arcs = [(0, 1, 1.0), (1, 2, small), (2, 3, 1.0)]
            indptr, heads, links, cost = csr_from_arcs(4, arcs)
            rule_results.clear()
            assert_batch_matches_heap(indptr, heads, links, cost, range(4))
            assert [zero for zero, _ in rule_results] == [not skipped]

    def test_the_tie_pass_on_many_multi_tight_nodes(self):
        # costs 1 and 2 on a multigraph: many nodes with several tight
        # in-arcs, from tails at equal and at different distances
        rng = np.random.default_rng(31)
        settled = equal_tails = 0
        for _ in range(20):
            n = int(rng.integers(5, 30))
            m = int(rng.integers(4 * n, 8 * n))
            arcs = [(int(a), int(b), float(c)) for a, b, c in zip(
                rng.integers(0, n, m), rng.integers(0, n, m),
                rng.integers(1, 3, m))]
            indptr, heads, links, cost = csr_from_arcs(n, arcs)
            layout = _kernels._in_arcs(indptr, heads)
            sources = np.arange(n)
            dist, pred, _, _ = _kernels._relax_chunk(
                layout, cost[links][layout.slot], sources, zero_steps=False)
            d, tail = dist.tolist(), layout.pos[_kernels.arc_tails(indptr)]
            for p, v in enumerate(np.argsort(layout.pos).tolist()):
                in_arcs = np.flatnonzero(heads == v).tolist()
                for j in range(n):
                    # the documented rule, plainly: the tight in-arcs by
                    # (d[tail], slot)
                    tight = sorted((d[tail[slot]][j], slot) for slot in in_arcs
                                   if d[tail[slot]][j] + cost[links[slot]]
                                   == d[p][j] < np.inf)
                    if len(tight) > 1:
                        settled += 1
                        equal_tails += tight[0][0] == tight[1][0]
                        assert pred[p, j] == tight[0][1]
        assert settled > 500 and equal_tails > 100

    def test_the_slot_sum_type_follows_the_arc_count(self):
        # a hub with 20000 out-arcs and a chain through its leaves:
        # 40000 arcs in two rows, so the sums need int32, and a leaf's
        # single tight slot is past int16's range
        leaves = 20000
        rng = np.random.default_rng(37)
        arcs = [(0, v, float(c)) for v, c in zip(
            range(1, leaves + 1), rng.integers(1, 4, leaves))]
        arcs += [(v, v + 1, 1.0) for v in range(1, leaves)]
        indptr, heads, links, cost = csr_from_arcs(leaves + 1, arcs)
        layout = _kernels._in_arcs(indptr, heads)
        assert len(layout.rows) == 2
        assert _kernels._sum_type(layout) == np.int32
        _, pred, _, _ = _kernels._relax_chunk(
            layout, cost[links][layout.slot], np.array([0]))
        assert pred.dtype == np.int32 and pred.max() > np.iinfo(np.int16).max
        assert_batch_matches_heap(indptr, heads, links, cost, [0, 7, 12345])


def warm_state(indptr, heads):
    return _kernels.WarmStart(_kernels._in_arcs(indptr, heads))


def open_gate(warm, indptr, heads, links, cost, sources):
    """Two calls with the same costs, so the next call starts warm."""
    for _ in range(2):
        _kernels.batch_dijkstra(indptr, heads, links, cost, sources,
                                warm=warm)
    assert warm.repeated


def loaded_costs(name, seed):
    build_network, build_config = FIXTURES[name]
    net, _ = build_network()
    config = build_config()
    indptr, heads, slots, _, _ = net.csr()
    t0, cap, length = (net.free_flow_times(), net.capacities(),
                       net.lengths_km())
    rng = np.random.default_rng(seed)
    flows = rng.uniform(0.0, 2.0, size=net.n_links) * cap
    loaded = bpr_time(t0, cap, config.bpr_alpha, config.bpr_beta, flows)
    cost = config.vot * loaded + max(vehicle_costs(config).per_km.values()) * length
    return indptr, heads, slots, cost, rng


@pytest.fixture
def rule_calls(monkeypatch):
    """Count the chunks whose trees the predecessor rule rebuilds."""
    calls = []
    pred_rule = _kernels._pred_rule

    def counted(*args):
        calls.append(args)
        return pred_rule(*args)

    monkeypatch.setattr(_kernels, "_pred_rule", counted)
    return calls


@pytest.fixture
def warm_calls(monkeypatch):
    """Count the chunks that start from earlier trees."""
    calls = []
    fold_levels = _kernels._fold_levels

    def counted(*args):
        calls.append(args)
        return fold_levels(*args)

    monkeypatch.setattr(_kernels, "_fold_levels", counted)
    return calls


class TestWarmStart:
    """Batches started from earlier trees, against cold and heap runs."""

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_perturbed_costs_on_every_fixture(self, name, warm_calls):
        indptr, heads, slots, cost, rng = loaded_costs(name, 7)
        n = indptr.shape[0] - 1
        sources = list(range(0, n, -(-n // 100)))  # about 100, in chunks
        warm = warm_state(indptr, heads)
        # small steps keep most trees, large ones change them
        for scale in (1e-9, 1e-6, 1e-3, 0.1, 0.5):
            open_gate(warm, indptr, heads, slots, cost, sources)
            cost = cost * (1.0 + scale * rng.uniform(-1.0, 1.0, cost.size))
            before = len(warm_calls)
            got = _kernels.batch_dijkstra(indptr, heads, slots, cost,
                                          sources, warm=warm)
            assert len(warm_calls) > before
            cold = _kernels.batch_dijkstra(indptr, heads, slots, cost,
                                           sources)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in cold]
            assert_batch_matches_heap(indptr, heads, slots, cost, sources,
                                      batch=lambda *args: got)

    def test_sources_and_cost_rows_are_compared_once_per_call(
            self, monkeypatch):
        # a solve's batches ask warm_chunks once each; record reuses it
        compared, batches = [], []
        warm_chunks = _kernels.WarmStart.warm_chunks
        batch = _kernels.batch_dijkstra

        def counted(warm, sources, cost_rows):
            compared.append(len(batches))
            return warm_chunks(warm, sources, cost_rows)

        def counted_batch(*args, **kwargs):
            batches.append(kwargs.get("warm"))
            return batch(*args, **kwargs)

        monkeypatch.setattr(_kernels.WarmStart, "warm_chunks", counted)
        monkeypatch.setattr(_kernels, "batch_dijkstra", counted_batch)
        net, od = grid10x10()
        sol = solve(net, split_demand(od, 0.5), FIXTURES["grid10x10"][1](), "pd")
        assert sol.converged and all(w is not None for w in batches)
        assert compared == list(range(1, len(batches) + 1))

    def test_trees_from_unrelated_costs(self, warm_calls):
        indptr, heads, slots, cost, rng = loaded_costs("grid10x10", 5)
        sources = list(range(0, indptr.shape[0] - 1, 3))
        for trial in range(5):
            warm = warm_state(indptr, heads)
            unrelated = rng.uniform(0.0, 20.0, size=cost.size)
            open_gate(warm, indptr, heads, slots, unrelated, sources)
            assert_batch_matches_heap(
                indptr, heads, slots, cost, sources,
                batch=lambda *args: _kernels.batch_dijkstra(
                    *args, warm=warm))
        assert warm_calls

    def test_chunked_sources(self, monkeypatch, warm_calls):
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[:30] + [0, 0]
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 1)
        warm = warm_state(indptr, heads)
        open_gate(warm, indptr, heads, slots, cost, sources)
        assert len(warm.same) == len(sources)
        # dearer arc on the first source's tree: trees that use it
        # change, and only the chunks of the others stay warm
        before = warm.preds
        bumped = cost.copy()
        bumped[slots[before[0, int(np.argmax(before[0] >= 0))]]] += 50.0
        _, preds = _kernels.batch_dijkstra(
            indptr, heads, slots, bumped, sources, warm=warm)
        same = [np.array_equal(a, b) for a, b in zip(before, preds)]
        assert warm.same == same and 0 < sum(same) < len(sources)
        assert not warm.repeated
        for step_cost in (bumped, cost):
            calls = len(warm_calls)
            warm_chunks = sum(warm.same)
            assert_batch_matches_heap(
                indptr, heads, slots, step_cost, sources,
                batch=lambda *args: _kernels.batch_dijkstra(
                    *args, warm=warm))
            assert len(warm_calls) - calls == warm_chunks

    def test_changed_trees_drop_their_level_memo(self, monkeypatch):
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[:12]
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 1)  # one per chunk
        warm = warm_state(indptr, heads)
        open_gate(warm, indptr, heads, slots, cost, sources)
        assert warm.levels == {}
        # same trees under new costs: every chunk sorts its trees once
        cost = cost * 1.0000001
        _kernels.batch_dijkstra(indptr, heads, slots, cost, sources,
                                warm=warm)
        assert warm.repeated and sorted(warm.levels) == list(range(12))
        memo = dict(warm.levels)
        # a dearer arc on source 0's tree changes the trees that use it
        before = warm.preds
        bumped = cost.copy()
        bumped[slots[before[0, int(np.argmax(before[0] >= 0))]]] += 50.0
        _, preds = _kernels.batch_dijkstra(
            indptr, heads, slots, bumped, sources, warm=warm)
        kept = [c for c in range(12) if np.array_equal(before[c], preds[c])]
        assert 0 < len(kept) < 12
        assert sorted(warm.levels) == kept
        assert all(warm.levels[c] is memo[c] for c in kept)
        # changed trees start cold once, then sort their new trees
        for memo_chunks in (kept, list(range(12))):
            assert_batch_matches_heap(
                indptr, heads, slots, bumped, sources,
                batch=lambda *args: _kernels.batch_dijkstra(*args, warm=warm))
            assert sorted(warm.levels) == memo_chunks
        assert [warm.levels[c] is memo[c] for c in range(12)] == [
            c in kept for c in range(12)]

    def test_zero_costs(self, warm_calls):
        # zero-cost arcs route tied trees through the heap, warm or cold
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            m = int(rng.integers(1, 4 * n))
            tails, heads_ = rng.integers(0, n, m), rng.integers(0, n, m)
            draw = [rng.integers(0, 4, m).astype(float) for _ in range(3)]
            indptr, heads, links, _ = csr_from_arcs(
                n, list(zip(tails.tolist(), heads_.tolist(), draw[0])))
            sources = range(n)
            warm = warm_state(indptr, heads)
            for cost in draw:
                open_gate(warm, indptr, heads, links, cost, sources)
                assert_batch_matches_heap(
                    indptr, heads, links, cost[::-1].copy(), sources,
                    batch=lambda *args: _kernels.batch_dijkstra(
                        *args, warm=warm))
        assert warm_calls

    def test_a_rejected_cost_leaves_the_state_alone(self, warm_calls):
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[::5]
        warm = warm_state(indptr, heads)
        for bad in (-1.0, np.nan):
            open_gate(warm, indptr, heads, slots, cost, sources)
            kept_sources, kept_preds = warm.sources, warm.preds
            rejected = cost.copy()
            rejected[slots[7]] = bad
            with pytest.raises(ValueError, match="nonnegative and not NaN"):
                _kernels.batch_dijkstra(indptr, heads, slots, rejected,
                                        sources, warm=warm)
            assert warm.sources is kept_sources and warm.preds is kept_preds
            assert warm.repeated
            # the next call still starts from the kept trees
            calls = len(warm_calls)
            assert_batch_matches_heap(
                indptr, heads, slots, cost, sources,
                batch=lambda *args: _kernels.batch_dijkstra(*args, warm=warm))
            assert len(warm_calls) > calls

    def test_batch_dijkstra_records_repeats(self):
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[::5]
        warm = warm_state(indptr, heads)
        flags = []
        for step_cost in (cost, cost, cost * 1.5 + 1.0, cost * 1.5 + 1.0):
            _kernels.batch_dijkstra(indptr, heads, slots, step_cost, sources,
                                    warm=warm)
            flags.append(warm.repeated)
        assert flags == [False, True, False, True]
        # other sources: the last trees belong to other roots
        assert_batch_matches_heap(
            indptr, heads, slots, cost, sources[1:] + sources[:1],
            batch=lambda *args: _kernels.batch_dijkstra(*args, warm=warm))
        assert not warm.repeated

    def test_unchanged_trees_skip_the_predecessor_rule(self, monkeypatch,
                                                       rule_calls):
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[:30]
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 1 << 12)
        warm = warm_state(indptr, heads)
        step = _kernels._chunk_size(warm.arcs)
        n_chunks = -(-len(sources) // step)
        assert n_chunks > 1

        def chunks(preds):
            return [preds[lo:lo + step] for lo in range(0, len(sources), step)]

        _, cold = _kernels.batch_dijkstra(indptr, heads, slots, cost, sources)
        bumped = cost.copy()  # dearer arc on the first source's tree
        bumped[slots[cold[0, int(np.argmax(cold[0] >= 0))]]] += 50.0
        last = None
        for call, step_cost in enumerate([cost] * 4 + [bumped] * 3):
            started_warm = (warm.warm_chunks(sources, [0] * len(sources))
                            or [False] * n_chunks)
            calls = len(rule_calls)
            _, preds = _kernels.batch_dijkstra(indptr, heads, slots,
                                               step_cost, sources, warm=warm)
            # the flags a chunk-by-chunk comparison gives
            same = [False] * n_chunks if last is None else [
                np.array_equal(a, b) for a, b in zip(chunks(last), chunks(preds))]
            assert warm.same == same
            assert warm.repeated == all(same)
            # the rule runs for the chunks that start cold or come back
            # with other trees, and for no chunk that keeps its trees warm
            assert len(rule_calls) - calls == sum(
                not (w and s) for w, s in zip(started_warm, same))
            if call == 4:
                assert 0 < sum(same) < len(same)
            if call in (3, 6):
                assert len(rule_calls) == calls
            last = preds

    def warm_rerun(self, n, arcs, changes, sources=(0,)):
        """One warm batch after a series of two under ``arcs``' costs.

        ``changes`` maps arc indices to their new costs.  The batch is
        checked against the heap.  Returns the old and new trees, the
        heap Dijkstra calls the batch made, and (indptr, heads, links,
        new costs).
        """
        indptr, heads, links, cost = csr_from_arcs(n, arcs)
        warm = warm_state(indptr, heads)
        open_gate(warm, indptr, heads, links, cost, sources)
        old = warm.preds
        for i, c in changes.items():
            cost[i] = c
        heap = []
        dijkstra = _kernels.dijkstra

        def counted(*args):
            heap.append(args)
            return dijkstra(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "dijkstra", counted)
            got = _kernels.batch_dijkstra(indptr, heads, links, cost, sources,
                                          warm=warm)
        assert_batch_matches_heap(indptr, heads, links, cost, sources,
                                  batch=lambda *args: got)
        return old, got[1], len(heap), (indptr, heads, links, cost)

    @staticmethod
    def tight_arcs(graph, dists):
        """Tight arcs with a finite head, summed over the sources."""
        indptr, heads, links, cost = graph
        via = dists[:, _kernels.arc_tails(indptr)]
        at = dists[:, heads]
        return int(np.count_nonzero((via + cost[links] == at) & np.isfinite(at)))

    def test_certificate_refuses_a_second_tight_arc(self, rule_calls):
        # node 3 comes over 2 -> 3 (cost 3); at the new cost of 1 -> 3
        # that arc is tight too, with a nearer tail, so the heap takes it
        # while nothing is lowered
        arcs = [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 5.0), (2, 3, 1.0)]
        old, new, _, graph = self.warm_rerun(4, arcs, {2: 2.0})
        assert len(rule_calls) == 3  # two cold calls, then the refusal
        dists = _kernels.batch_dijkstra(*graph, [0])[0]
        assert dists[0].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert self.tight_arcs(graph, dists) == np.count_nonzero(old >= 0) + 1
        links = graph[2]
        assert links[old[0, 3]] == 3 and links[new[0, 3]] == 2

    def test_certificate_refuses_a_zero_cost_tree_arc(self, rule_calls):
        # 0 -> 1 becomes free: the same tree stays the only tight set,
        # but its zero increase is a tie the heap must settle
        arcs = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)]
        old, new, heap, graph = self.warm_rerun(3, arcs, {0: 0.0})
        assert len(rule_calls) == 3 and heap == 1
        dists = _kernels.batch_dijkstra(*graph, [0])[0]
        assert self.tight_arcs(graph, dists) == np.count_nonzero(old >= 0)
        assert new.tolist() == old.tolist()

    def test_certificate_refuses_an_infinite_tree_arc(self, rule_calls):
        # leaf 2's tree arc 1 -> 2 costs inf, and 3 -> 5 becomes as
        # cheap as the tree arc 4 -> 5: one tight arc lost, one gained,
        # so only the finite check refuses the old trees
        arcs = [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (0, 4, 2.0),
                (3, 5, 5.0), (4, 5, 1.0)]
        old, new, _, graph = self.warm_rerun(6, arcs, {1: np.inf, 4: 2.0})
        assert len(rule_calls) == 3
        dists = _kernels.batch_dijkstra(*graph, [0])[0]
        assert self.tight_arcs(graph, dists) == np.count_nonzero(old >= 0)
        links = graph[2]
        assert links[old[0, 2]] == 1 and new[0, 2] == -1
        assert links[old[0, 5]] == 5 and links[new[0, 5]] == 4

    def test_unreached_nodes_do_not_count_as_tight(self, rule_calls):
        # nodes 5 and 6 are never reached: their arcs add inf to inf,
        # which must not stop the certificate from holding
        n, arcs, sources = graph_with_unreached_roots()
        old, new, _, graph = self.warm_rerun(
            n, arcs, {i: 1.5 * c for i, (_, _, c) in enumerate(arcs)},
            sources)
        assert len(rule_calls) == 2  # the two cold calls only
        dists = _kernels.batch_dijkstra(*graph, sources)[0]
        assert np.isinf(dists).any()
        assert new.tolist() == old.tolist()

    def test_certificate_refuses_a_lowered_node(self, rule_calls):
        # 0 -> 2 drops below the tree path 0 -> 1 -> 2
        arcs = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]
        old, new, _, graph = self.warm_rerun(3, arcs, {2: 1.5})
        assert len(rule_calls) == 3
        links = graph[2]
        assert links[old[0, 2]] == 1 and links[new[0, 2]] == 2

    @pytest.mark.parametrize("method", ["fw", "bfw", "pd", "eg"])
    def test_solvers_give_the_same_results(self, method, monkeypatch,
                                           warm_calls):
        net, od = grid10x10()
        config = FIXTURES["grid10x10"][1]()
        demand = split_demand(od, 0.5)
        warm = solve(net, demand, config, method)
        if method in ("pd", "eg"):  # fw/bfw trees change every iteration
            assert warm_calls
        # no chunk may start warm, so no trees count as repeated either
        monkeypatch.setattr(_kernels.WarmStart, "warm_chunks",
                            lambda self, sources, cost_rows: None)
        calls = len(warm_calls)
        cold = solve(net, demand, config, method)
        assert len(warm_calls) == calls
        assert warm.iterations == cold.iterations
        assert warm.wardrop_gap == cold.wardrop_gap
        assert warm.paths == cold.paths
        assert warm.pi == cold.pi
        for cls, flows in warm.link_flows.class_flows.items():
            assert flows.tobytes() == cold.link_flows.class_flows[cls].tobytes()


class TestCostRows:
    """One batch over several cost rows, each tree under its source's row."""

    @staticmethod
    def two_rows():
        # 29 sources: chunks of 6 put both rows in the fifth chunk
        indptr, heads, slots, cost, node_index = grid_csr()
        costs = np.stack([cost, np.roll(cost, 7) * 1.5])
        return indptr, heads, slots, costs, list(node_index.values())[:29]

    @pytest.mark.parametrize("entries", [1 << 16, 1 << 12])
    def test_two_rows_equal_two_one_row_batches(self, monkeypatch, entries,
                                                warm_calls):
        indptr, heads, slots, costs, sources = self.two_rows()
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", entries)
        both, rows = sources * 2, [0] * len(sources) + [1] * len(sources)
        warm = warm_state(indptr, heads)
        rng = np.random.default_rng(17)
        for scale in (0.0, 0.0, 1e-6, 0.1):  # cold, then warm
            costs = costs * (1.0 + scale * rng.uniform(-1.0, 1.0, costs.shape))
            got = _kernels.batch_dijkstra(indptr, heads, slots, costs, both,
                                          warm=warm, cost_rows=rows)
            want = [_kernels.batch_dijkstra(indptr, heads, slots, cost, sources)
                    for cost in costs]
            for got_part, want_parts in zip(got, zip(*want)):
                assert got_part.tobytes() == np.concatenate(want_parts).tobytes()
        assert warm_calls

    def test_a_tie_in_one_row_sends_only_its_source_to_the_heap(
            self, monkeypatch):
        # 3 -> 1 is free in row 0 only: the tie of
        # test_zero_cost_arc_falls_back_to_the_heap, for one source
        arcs = [(0, 3, 1.0), (1, 4, 1.0), (3, 1, 0.0), (3, 4, 1.0)]
        indptr, heads, links, cost = csr_from_arcs(5, arcs)
        other = cost.copy()
        other[2] = 0.5
        heap = []
        dijkstra = _kernels.dijkstra

        def counted(*args):
            heap.append(args)
            return dijkstra(*args)

        monkeypatch.setattr(_kernels, "dijkstra", counted)
        dists, preds = _kernels.batch_dijkstra(
            indptr, heads, links, np.stack([other, cost]), [0, 0],
            cost_rows=[0, 1])
        ((*_, heap_cost, source),) = heap
        assert heap_cost.tobytes() == cost.tobytes() and source == 0
        for j, row in enumerate((other, cost)):
            dist, pred = dijkstra(indptr, heads, links, row, 0)
            assert dists[j].tobytes() == dist.tobytes()
            assert preds[j].tobytes() == pred.tobytes()
        assert arcs[links[preds[1, 4]]][:2] == (3, 4)

    def test_a_cost_row_out_of_range_raises(self):
        indptr, heads, slots, costs, sources = self.two_rows()
        for row in (2, -1):
            with pytest.raises(ValueError, match="cost rows"):
                _kernels.batch_dijkstra(indptr, heads, slots, costs, sources,
                                        cost_rows=[0] * 28 + [row])

    def test_a_changed_class_set_starts_cold(self, warm_calls):
        # one class's missing blocks first, then both classes, then both
        # in the other order: each new set of rows starts cold, although
        # the set before it had just repeated its trees
        indptr, heads, slots, costs, sources = self.two_rows()
        n = len(sources)
        warm = warm_state(indptr, heads)
        for batch, rows in ((sources, [1] * n),
                            (sources * 2, [0] * n + [1] * n),
                            (sources * 2, [1] * n + [0] * n)):
            calls = len(warm_calls)
            got = _kernels.batch_dijkstra(indptr, heads, slots, costs, batch,
                                          warm=warm, cost_rows=rows)
            assert len(warm_calls) == calls and not warm.repeated
            cold = _kernels.batch_dijkstra(indptr, heads, slots, costs, batch,
                                           cost_rows=rows)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in cold]
            _kernels.batch_dijkstra(indptr, heads, slots, costs, batch,
                                    warm=warm, cost_rows=rows)
            assert warm.repeated
        # the same rows a third time start warm
        _kernels.batch_dijkstra(indptr, heads, slots, costs, batch, warm=warm,
                                cost_rows=rows)
        assert len(warm_calls) > calls


def hub_graph():
    """Node 0 takes an arc from each of nine leaves, each leaf one from 0."""
    arcs = []
    for leaf in range(1, 10):
        arcs += [(leaf, 0, 0.5 * leaf), (0, leaf, 10.0 - leaf)]
    return 10, arcs, range(10)


def graph_with_unreached_roots():
    """Nodes 5 and 6 have no in-arcs and are not sources."""
    arcs = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.5), (2, 3, 1.0), (5, 3, 0.5),
            (6, 4, 1.0), (5, 6, 2.0), (3, 4, 1.0), (4, 0, 2.0)]
    return 7, arcs, [0, 2, 3]


def graph_with_parallel_arcs():
    """Pairs joined by several arcs, of equal and of different costs."""
    arcs = [(0, 1, 2.0), (0, 1, 1.5), (0, 1, 1.5), (1, 2, 1.0), (1, 2, 1.0),
            (0, 2, 3.0), (2, 0, 1.0), (2, 3, 4.0), (2, 3, 2.5), (3, 1, 0.5)]
    return 4, arcs, range(4)


SMALL_GRAPHS = {
    "hub": hub_graph,
    "unreached_roots": graph_with_unreached_roots,
    "parallel_arcs": graph_with_parallel_arcs,
}


def layout_cases():
    for name in sorted(FIXTURES):
        net, _ = FIXTURES[name][0]()
        indptr, heads, _, _, _ = net.csr()
        yield pytest.param(indptr, heads, id=name)
    for name, build in sorted(SMALL_GRAPHS.items()):
        n, arcs, _ = build()
        indptr, heads, _, _ = csr_from_arcs(n, arcs)
        yield pytest.param(indptr, heads, id=name)
    yield pytest.param(np.zeros(4, dtype=np.int64),
                       np.zeros(0, dtype=np.int64), id="no_arcs")


@pytest.fixture
def sweep_counts(monkeypatch):
    """Per chunk relaxed: (did it have a plan, how many sweeps it ran)."""
    chunks = []
    relax_chunk, sweep = _kernels._relax_chunk, _kernels._sweep

    def counted_relax(*args):
        chunks.append([args[5] is not None, 0])
        return relax_chunk(*args)

    def counted_sweep(*args):
        chunks[-1][1] += 1
        return sweep(*args)

    monkeypatch.setattr(_kernels, "_relax_chunk", counted_relax)
    monkeypatch.setattr(_kernels, "_sweep", counted_sweep)
    return chunks


def walked_depths(preds, arc_tail):
    """Each node's arcs from its root in the trees ``preds``, one by one."""
    depth = np.zeros(preds.shape, dtype=np.int64)
    for row, pred in enumerate(preds.tolist()):
        for v in range(len(pred)):
            u = v
            while pred[u] >= 0:
                depth[row, v] += 1
                u = arc_tail[pred[u]]
    return depth


def planned_batch(indptr, heads, links, plan_cost, cost, sources, **kwargs):
    """A batch under ``cost`` sweeping in the order of ``plan_cost``'s trees.

    The first call of a series makes each chunk's plan from the trees
    under ``plan_cost``; the second starts every chunk cold.
    """
    warm = warm_state(indptr, heads)
    for step_cost in (plan_cost, cost):
        got = _kernels.batch_dijkstra(indptr, heads, links, step_cost,
                                      sources, warm=warm, **kwargs)
    return got, warm


class TestSweeps:
    """Cold chunks that sweep in the level order of a series' first trees."""

    @staticmethod
    def sweeps_ran(chunks):
        return any(sweeps for _, sweeps in chunks)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_stale_plans_on_every_fixture(self, name, sweep_counts):
        # trees from unrelated costs order the sweeps under loaded costs
        indptr, heads, slots, cost, rng = loaded_costs(name, 3)
        n = indptr.shape[0] - 1
        sources = list(range(0, n, -(-n // 60)))
        unrelated = rng.uniform(0.0, 20.0, size=cost.size)
        got, warm = planned_batch(indptr, heads, slots, unrelated, cost,
                                  sources)
        assert warm.plans and self.sweeps_ran(sweep_counts)
        assert_batch_matches_heap(indptr, heads, slots, cost, sources,
                                  batch=lambda *args: got)

    def test_a_plan_from_the_same_costs_needs_one_sweep(self, monkeypatch,
                                                         sweep_counts):
        # every node's cheapest in-arc is final once the level above is
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[:30]
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 1 << 12)
        got, warm = planned_batch(indptr, heads, slots, cost, cost * 1.0,
                                  sources)
        second = sweep_counts[len(sweep_counts) // 2:]
        assert len(second) == len(warm.plans) > 1
        assert second == [[True, 1]] * len(second)
        assert_batch_matches_heap(indptr, heads, slots, cost, sources,
                                  batch=lambda *args: got)

    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    def test_small_graphs(self, name, sweep_counts):
        # parallel arcs, a hub, and nodes no source reaches
        n, arcs, sources = SMALL_GRAPHS[name]()
        indptr, heads, links, cost = csr_from_arcs(n, arcs)
        rng = np.random.default_rng(19)
        for _ in range(10):
            new = cost * rng.uniform(0.2, 3.0, size=cost.size)
            got, _ = planned_batch(indptr, heads, links, cost, new, sources)
            assert_batch_matches_heap(indptr, heads, links, new, sources,
                                      batch=lambda *args: got)
        assert self.sweeps_ran(sweep_counts)

    def test_nodes_the_new_trees_no_longer_reach(self, monkeypatch,
                                                 sweep_counts):
        # 1 -> 2 costs inf: node 2, in the plan, is not reached any more;
        # source 6 reaches nothing, so its own chunk has an empty plan
        arcs = [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (3, 4, 1.0),
                (4, 5, 1.0), (1, 5, 5.0)]
        indptr, heads, links, cost = csr_from_arcs(7, arcs)
        new = cost.copy()
        new[1] = np.inf
        new[4] = 9.0
        for entries in (1 << 16, 1):
            monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", entries)
            got, warm = planned_batch(indptr, heads, links, cost, new,
                                      [0, 3, 6])
            assert np.isinf(got[0][0, 2]) and got[0][0, 5] == 6.0
            assert_batch_matches_heap(indptr, heads, links, new, [0, 3, 6],
                                      batch=lambda *args: got)
        assert warm.plans[2][0].size == 0
        assert self.sweeps_ran(sweep_counts)

    def test_zero_costs_still_reach_the_heap(self, monkeypatch, sweep_counts):
        rng = np.random.default_rng(23)
        heap = []
        dijkstra = _kernels.dijkstra

        def counted(*args):
            heap.append(args)
            return dijkstra(*args)

        monkeypatch.setattr(_kernels, "dijkstra", counted)
        fallbacks = 0
        for _ in range(30):
            n = int(rng.integers(2, 25))
            m = int(rng.integers(1, 4 * n))
            tails, heads_ = rng.integers(0, n, m), rng.integers(0, n, m)
            draw = [rng.integers(0, 4, m).astype(float) for _ in range(2)]
            indptr, heads, links, _ = csr_from_arcs(
                n, list(zip(tails.tolist(), heads_.tolist(), draw[0])))
            warm = warm_state(indptr, heads)
            _kernels.batch_dijkstra(indptr, heads, links, draw[0], range(n),
                                    warm=warm)
            calls = len(heap)
            got = _kernels.batch_dijkstra(indptr, heads, links, draw[1],
                                          range(n), warm=warm)
            fallbacks += len(heap) - calls
            assert_batch_matches_heap(indptr, heads, links, draw[1], range(n),
                                      batch=lambda *args: got)
        assert fallbacks and self.sweeps_ran(sweep_counts)

    @pytest.mark.parametrize("entries", [1, 1 << 11])
    def test_chunked_sources(self, monkeypatch, entries, sweep_counts):
        # one source per chunk, or chunks of 4 with a shorter last one
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[:30] + [0, 0]
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", entries)
        rng = np.random.default_rng(29)
        new = cost * rng.uniform(0.5, 2.0, size=cost.size)
        got, warm = planned_batch(indptr, heads, slots, cost, new, sources)
        step = _kernels._chunk_size(warm.arcs)
        assert len(warm.plans) == -(-len(sources) // step)
        assert len(sources) % step != 0 or step == 1
        assert_batch_matches_heap(indptr, heads, slots, new, sources,
                                  batch=lambda *args: got)

    def test_a_changed_class_set_makes_new_plans(self, sweep_counts):
        indptr, heads, slots, costs, sources = TestCostRows.two_rows()
        n = len(sources)
        warm = warm_state(indptr, heads)
        rng = np.random.default_rng(31)
        for batch, rows in ((sources, [1] * n),
                            (sources * 2, [0] * n + [1] * n)):
            # a new set of rows: no plan, and no sweep, on its first call,
            # whose trees then make the set's plans
            chunks, plans = len(sweep_counts), warm.plans
            for call in range(3):
                costs = costs * rng.uniform(0.9, 1.1, size=costs.shape)
                got = _kernels.batch_dijkstra(indptr, heads, slots, costs,
                                              batch, warm=warm, cost_rows=rows)
                if call == 0:
                    assert not any(p for p, _ in sweep_counts[chunks:])
                    made = _kernels._sweep_plans(warm.preds, warm.arcs,
                                                 warm.work)
                    assert warm.plans is not plans
                    assert [[a.tobytes() for a in p] for p in warm.plans] == [
                        [a.tobytes() for a in p] for p in made]
                cold = _kernels.batch_dijkstra(indptr, heads, slots, costs,
                                               batch, cost_rows=rows)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in cold]
            assert len(warm.plans) == -(-len(batch) // _kernels._chunk_size(
                warm.arcs))
            assert self.sweeps_ran(sweep_counts[chunks:])

    def test_plan_layout(self):
        # every node with a tree arc, level by level, with all its in-arcs
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = np.array(list(node_index.values())[:7])
        arcs = _kernels._in_arcs(indptr, heads)
        _, preds = _kernels.batch_dijkstra(indptr, heads, slots, cost, sources)
        index, levels = _kernels._sweep_plan(
            preds, arcs, _kernels._Workspace(arcs, len(sources)))
        k, n = preds.shape
        assert index.dtype == np.uint16 and index.size == levels[-1, 1]
        assert levels.shape[1] == 1 + 2 * len(arcs.rows)
        depth = walked_depths(preds, arcs.arc_tail)
        seen = []
        for d, (lo, hi, size, *folds) in enumerate(levels.tolist(), 1):
            target = index[lo:lo + size].astype(np.int64)
            assert np.all(np.diff(target) > 0)  # by (position, source)
            pos, row = np.divmod(target, k)
            node = np.argsort(arcs.pos)[pos]
            assert np.all(depth[row, node] == d)
            got = [[e] for e in pos]  # rank 0: each node's own position
            end = lo + size
            for start, length in zip(folds[::2], folds[1::2]):
                assert start == end  # the ranks follow one another
                end += length
                entry, source = np.divmod(index[start:start + length], k)
                assert np.array_equal(source, row[:length])
                for i, e in enumerate(entry.tolist()):
                    got[i].append(e)
            assert hi == end == lo + sum(len(g) for g in got)
            for (first, *rest), p in zip(got, pos.tolist()):
                assert first == p
                # the entries whose head is this position, in row order
                want = [lo_r + p for lo_r, size_r in arcs.rows if p < size_r]
                assert [first, *rest] == want
            seen += target.tolist()
        reached = np.flatnonzero((preds >= 0).T[np.argsort(arcs.pos)].ravel())
        assert sorted(seen) == reached.tolist()

    @staticmethod
    def plan_bytes(plans):
        return [tuple(a.tobytes() for a in plan) for plan in plans]

    def test_a_stale_plan_is_rebuilt_from_the_trees_just_returned(
            self, monkeypatch, sweep_counts):
        # chunks of 6 sources: some need two sweeps, some three
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 1 << 12)
        moved = cost * np.random.default_rng(61).uniform(0.7, 1.3, cost.size)
        warm = warm_state(indptr, heads)
        _kernels.batch_dijkstra(indptr, heads, slots, cost, sources, warm=warm)
        before, whole = self.plan_bytes(warm.plans), warm.plans[0][0].base
        got = _kernels.batch_dijkstra(indptr, heads, slots, moved, sources,
                                      warm=warm)
        sweeps = [n for _, n in sweep_counts[-len(before):]]
        assert {2, 3} <= set(sweeps)  # both sides of the bound
        step = _kernels._chunk_size(warm.arcs)
        for c, (plan, old) in enumerate(zip(warm.plans, before)):
            want = old
            if sweeps[c] > 2:
                want = self.plan_bytes([_kernels._sweep_plan(
                    got[1][c * step:(c + 1) * step], warm.arcs,
                    _kernels._Workspace(warm.arcs, step))])[0]
            assert self.plan_bytes([plan])[0] == want
            assert plan[0].base is whole  # the index in its old place
            assert warm.work.views[c][0] is plan[0]  # sliced at once
        assert warm.recent == {c for c, n in enumerate(sweeps) if n > 2}
        # the same costs again: new trees on the last call, so every
        # chunk starts cold, and a rebuilt plan is already the level order
        again = _kernels.batch_dijkstra(indptr, heads, slots, moved, sources,
                                        warm=warm)
        assert [a.tobytes() for a in again] == [a.tobytes() for a in got]
        for (_, n), old in zip(sweep_counts[-len(before):], sweeps):
            assert n == 1 or old <= 2
        assert_batch_matches_heap(indptr, heads, slots, moved, sources,
                                  batch=lambda *args: again)

    def test_a_plan_is_not_rebuilt_on_two_calls_in_a_row(self, monkeypatch,
                                                          sweep_counts):
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 1 << 12)
        rng = np.random.default_rng(61)
        warm = warm_state(indptr, heads)
        for scale in (0.0, 0.3):
            _kernels.batch_dijkstra(
                indptr, heads, slots,
                cost * rng.uniform(1.0 - scale, 1.0 + scale, cost.size),
                sources, warm=warm)
        rebuilt, before = warm.recent, self.plan_bytes(warm.plans)
        assert rebuilt
        new = cost * rng.uniform(0.5, 1.5, cost.size)
        got = _kernels.batch_dijkstra(indptr, heads, slots, new, sources,
                                      warm=warm)
        stale = {c for c, (_, n) in enumerate(sweep_counts[-len(before):])
                 if n > 2}
        assert stale & rebuilt and stale - rebuilt  # both kinds
        assert warm.recent == stale - rebuilt
        for c in rebuilt:
            assert self.plan_bytes([warm.plans[c]])[0] == before[c]
        assert_batch_matches_heap(indptr, heads, slots, new, sources,
                                  batch=lambda *args: got)

    def test_city_bfw_solve_sweeps_at_most_three_times(self, monkeypatch,
                                                       sweep_counts):
        # the first batch runs plain rounds; every later cold chunk
        # converges within three sweeps of the first batch's order
        net, od = FIXTURES["mini_city"][0]()
        config = FIXTURES["mini_city"][1]()
        batches = []
        batch_dijkstra = _kernels.batch_dijkstra

        def marked(*args, **kwargs):
            batches.append(len(sweep_counts))
            return batch_dijkstra(*args, **kwargs)

        monkeypatch.setattr(_kernels, "batch_dijkstra", marked)
        solve(net, split_demand(od, 0.5), config, "bfw")
        first = sweep_counts[batches[0]:batches[1]]
        later = sweep_counts[batches[1]:]
        assert len(first) > 1 and first == [[False, 0]] * len(first)
        assert len(batches) > 20
        cold = [sweeps for planned, sweeps in later if planned]
        assert len(cold) > 10 * len(first)
        assert 1 <= min(cold) and max(cold) <= 3


@pytest.fixture
def workspaces(monkeypatch):
    """Every :class:`_kernels._Workspace` made, in order."""
    made = []

    class Counted(_kernels._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(_kernels, "_Workspace", Counted)
    return made


@pytest.fixture
def relaxed(monkeypatch):
    """The (dist, pred) each relaxed chunk hands back, in order."""
    got = []
    relax_chunk = _kernels._relax_chunk

    def kept(*args):
        out = relax_chunk(*args)
        got.append(out[:2])
        return out

    monkeypatch.setattr(_kernels, "_relax_chunk", kept)
    return got


def workspace_buffers(work):
    return [work.cost, work.cand, work.dist, work.marks, work.pred,
            work.lower, work.tight, work.flag, work.slab]


def assert_equals_cold_and_heap(got, indptr, heads, links, costs, sources,
                                rows):
    """``got`` equals a batch without a WarmStart and the heap, bit for bit."""
    cold = _kernels.batch_dijkstra(indptr, heads, links, costs, sources,
                                   cost_rows=rows)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in cold]
    costs = np.atleast_2d(costs)
    for j, (source, row) in enumerate(zip(sources, rows)):
        dist, pred = _kernels.dijkstra(indptr, heads, links, costs[row],
                                       source)
        assert got[0][j].tobytes() == dist.tobytes()
        assert got[1][j].tobytes() == pred.tobytes()


class TestWorkspace:
    """Chunk buffers made once per series, or once per call without one."""

    def test_two_calls_reuse_the_buffers(self, workspaces, relaxed):
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[:30]
        warm = warm_state(indptr, heads)
        rng = np.random.default_rng(37)
        views, replanned = [], []
        for _ in range(4):
            cost = cost * rng.uniform(0.5, 1.5, cost.size)
            _kernels.batch_dijkstra(indptr, heads, slots, cost, sources,
                                    warm=warm)
            views.append(warm.work.views.get(0))
            replanned.append(0 in warm.recent)
        (work,) = workspaces
        assert warm.work is work and len(relaxed) == 4
        for dist, pred in relaxed:
            assert np.shares_memory(dist, work.dist)
            assert np.shares_memory(dist, relaxed[0][0])
            assert pred is None or np.shares_memory(pred, work.pred)
        # the first call makes the plans, the second slices them once;
        # a rebuilt plan is sliced again at once, and only then
        assert views[0] is None and views[1] is not None
        assert replanned[1] and not replanned[2]  # at most every other call
        for call in (2, 3):
            assert (views[call] is views[call - 1]) != replanned[call]
        assert views[3][0] is warm.plans[0][0]

    def test_a_call_without_a_series_makes_one_for_its_chunks(
            self, monkeypatch, workspaces, relaxed):
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[:29]
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 1 << 12)  # 6 a chunk
        for call in range(2):
            _kernels.batch_dijkstra(indptr, heads, slots, cost, sources)
            assert len(workspaces) == call + 1
            assert workspaces[-1].k == 6
        assert len(relaxed) == 10
        for (dist, _), work in zip(relaxed, [workspaces[0]] * 5
                                   + [workspaces[1]] * 5):
            assert np.shares_memory(dist, work.dist)

    def test_growing_chunks_remake_it(self):
        indptr, heads, slots, cost, node_index = grid_csr()
        nodes = list(node_index.values())
        warm = warm_state(indptr, heads)
        works = []
        for sources in (nodes[:5], nodes[:5], nodes[:30], nodes[:30],
                        nodes[:5]):
            got = _kernels.batch_dijkstra(indptr, heads, slots, cost, sources,
                                          warm=warm)
            works.append(warm.work)
            assert_equals_cold_and_heap(got, indptr, heads, slots, cost,
                                        sources, [0] * len(sources))
        assert [work.k for work in works] == [5, 5, 30, 30, 30]
        assert works[0] is works[1] and works[2] is works[3] is works[4]
        assert works[1] is not works[2]

    def test_outputs_never_share_the_workspace(self, workspaces):
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[:30]
        rng = np.random.default_rng(41)
        for warm in (warm_state(indptr, heads), None):
            outputs = []
            for _ in range(4):
                cost = cost * rng.uniform(0.5, 1.5, cost.size)
                got = _kernels.batch_dijkstra(indptr, heads, slots, cost,
                                              sources, warm=warm)
                outputs.append((got, [a.tobytes() for a in got]))
            for got, kept in outputs:
                # later calls left every earlier output as it was
                assert [a.tobytes() for a in got] == kept
                for a in got:
                    for work in workspaces:
                        for buf in workspace_buffers(work):
                            assert not np.shares_memory(a, buf)

    @pytest.mark.parametrize("entries", [1 << 12, 1 << 11])
    def test_a_shorter_last_chunk(self, monkeypatch, entries):
        # 29 sources in chunks of 6 or 3: the last one is shorter
        indptr, heads, slots, costs, sources = TestCostRows.two_rows()
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", entries)
        step = _kernels._chunk_size(_kernels._in_arcs(indptr, heads))
        assert len(sources) % step
        rows = [j % 2 for j in range(len(sources))]
        warm = warm_state(indptr, heads)
        rng = np.random.default_rng(43)
        for scale in (0.0, 0.0, 0.5, 1e-6, 0.5):  # cold, warm, sweeps
            costs = costs * (1.0 + scale * rng.uniform(-1.0, 1.0, costs.shape))
            got = _kernels.batch_dijkstra(indptr, heads, slots, costs, sources,
                                          warm=warm, cost_rows=rows)
            assert_equals_cold_and_heap(got, indptr, heads, slots, costs,
                                        sources, rows)
        assert warm.work.views

    def test_a_changed_class_set_drops_the_views(self, monkeypatch,
                                                 sweep_counts):
        # chunks of 6 in every set: one workspace, so only the new plans
        # can drop the views
        indptr, heads, slots, costs, sources = TestCostRows.two_rows()
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 1 << 12)
        n = len(sources)
        warm = warm_state(indptr, heads)
        rng = np.random.default_rng(47)
        works = set()
        for batch, rows in ((sources, [1] * n), (sources, [0] * n),
                            (sources * 2, [0] * n + [1] * n)):
            for call in range(3):
                costs = costs * rng.uniform(0.5, 1.5, size=costs.shape)
                got = _kernels.batch_dijkstra(indptr, heads, slots, costs,
                                              batch, warm=warm, cost_rows=rows)
                works.add(id(warm.work))
                # the new set's first call makes plans and slices none
                assert bool(warm.work.views) == (call > 0)
                assert_equals_cold_and_heap(got, indptr, heads, slots, costs,
                                            batch, rows)
        assert len(works) == 1
        assert any(sweeps for _, sweeps in sweep_counts)

    def test_a_rejected_cost_mid_series(self, workspaces):
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[:30]
        warm = warm_state(indptr, heads)
        rng = np.random.default_rng(53)
        for call in range(6):
            cost = cost * rng.uniform(0.5, 1.5, cost.size)
            if call == 3:
                views = dict(warm.work.views)
                rejected = cost.copy()
                rejected[slots[7]] = -1.0
                with pytest.raises(ValueError, match="nonnegative"):
                    _kernels.batch_dijkstra(indptr, heads, slots, rejected,
                                            sources, warm=warm)
                assert views and warm.work.views == views
            got = _kernels.batch_dijkstra(indptr, heads, slots, cost, sources,
                                          warm=warm)
            assert_equals_cold_and_heap(got, indptr, heads, slots, cost,
                                        sources, [0] * len(sources))
        assert len(workspaces) == 1 + 6  # the series' own, one per cold call

    def test_a_changed_city_batch_allocates_little_beyond_its_outputs(self):
        # every chunk buffer of this batch (2408 entries x 19 sources) is
        # 357 KB; measured, the batch allocates about 80 KB beyond its
        # two outputs (1.79 MB), so the bound leaves about four times that
        indptr, heads, slots, cost, rng = loaded_costs("mini_city", 7)
        sources = list(range(0, indptr.shape[0] - 1, 4))  # 9 chunks
        warm = warm_state(indptr, heads)
        # the first call makes the plans, the second slices their views
        for _ in range(2):
            _kernels.batch_dijkstra(indptr, heads, slots,
                                    cost * rng.uniform(0.5, 1.5, cost.size),
                                    sources, warm=warm)
        assert len(warm.same) == 9 and not any(warm.same)  # trees changed
        new = cost * rng.uniform(0.5, 1.5, cost.size)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            dists, preds = _kernels.batch_dijkstra(indptr, heads, slots, new,
                                                   sources, warm=warm)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert not any(warm.same)
        assert peak <= 1.2 * (dists.nbytes + preds.nbytes)


class TestInArcs:
    """The in-arc layout the batch kernel relaxes over."""

    @pytest.mark.parametrize("indptr,heads", layout_cases())
    def test_layout_invariants(self, indptr, heads):
        n, m = indptr.shape[0] - 1, heads.shape[0]
        arcs = _kernels._in_arcs(indptr, heads)
        indeg = np.bincount(heads, minlength=n)
        # positions: descending in-degree, stable
        assert sorted(arcs.pos.tolist()) == list(range(n))
        node = np.argsort(arcs.pos)  # node at each position
        assert node.tolist() == sorted(range(n), key=lambda v: -indeg[v])
        # every arc slot is exactly one entry
        assert sorted(arcs.slot.tolist()) == list(range(m))
        assert arcs.arc_tail.tolist() == _kernels.arc_tails(indptr).tolist()
        assert len(arcs.rows) >= 1
        end = 0
        for r, (lo, size) in enumerate(arcs.rows):
            # row r: the r-th in-arc of each node with more than r
            assert lo == end and size == np.count_nonzero(indeg > r)
            row = arcs.slot[lo:lo + size]
            assert heads[row].tolist() == node[:size].tolist()
            assert arcs.head[lo:lo + size].tolist() == list(range(size))
            if r:  # each node's in-arcs in ascending slot order
                assert np.all(row > previous[:size])
            previous, end = row, lo + size
        assert end == m
        assert arcs.tail.tolist() == arcs.pos[
            arcs.arc_tail[arcs.slot]].tolist()
        # every gather index is in range, so "clip" never clips
        for index, bound in ((arcs.slot, m), (arcs.tail, n),
                             (arcs.head, arcs.rows[0][1])):
            assert index.dtype == np.int64
            assert index.size == 0 or (index.min() >= 0
                                       and index.max() < bound)

    @pytest.mark.parametrize("indptr,heads", layout_cases())
    def test_the_narrowest_sum_type(self, indptr, heads):
        layout = _kernels._in_arcs(indptr, heads)
        bound = len(layout.rows) * (layout.slot.size + 1)
        kinds = [np.int8, np.int16, np.int32, np.int64]
        want = next(t for t in kinds if np.iinfo(t).max >= bound)
        assert _kernels._sum_type(layout) == want
        work = _kernels._Workspace(layout, 3)
        assert work.pred.dtype == want and work.shaped(2).term.dtype == want

    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    def test_batch_equals_heap_cold_and_warm(self, name, warm_calls):
        n, arcs, sources = SMALL_GRAPHS[name]()
        indptr, heads, links, cost = csr_from_arcs(n, arcs)
        assert_batch_matches_heap(indptr, heads, links, cost, sources)
        # no cost here is zero: the rule settles every tree, no heap
        layout = _kernels._in_arcs(indptr, heads)
        dist, pred, ties, _ = _kernels._relax_chunk(
            layout, cost[links][layout.slot], np.array(list(sources)))
        assert not ties.any()
        # the rule's slots are narrow; the batch widens them to int64
        assert pred.dtype == _kernels._sum_type(layout)
        assert_batch_matches_heap(
            indptr, heads, links, cost, sources,
            batch=lambda *args: (dist[layout.pos].T,
                                 pred[layout.pos].T.astype(np.int64)))
        rng = np.random.default_rng(3)
        for scale in (1e-3, 0.5, 2.0):
            warm = warm_state(indptr, heads)
            open_gate(warm, indptr, heads, links, cost, sources)
            changed = cost * (1.0 + scale * rng.uniform(-0.5, 1.0, cost.size))
            before = len(warm_calls)
            assert_batch_matches_heap(
                indptr, heads, links, changed, sources,
                batch=lambda *args: _kernels.batch_dijkstra(*args, warm=warm))
            assert len(warm_calls) > before


def tree_paths_loop(pred, links, link_tail, source):
    """Every reached node's tree path from ``source``, as link tuples.

    One parent pointer at a time: a node's path is its parent's path
    plus its tree link, the parent being that link's tail node.
    """
    paths = {source: ()}
    for node in np.flatnonzero(pred >= 0).tolist():
        climbed = []
        while node not in paths:
            climbed.append(node)
            node = link_tail[links[pred[node]]]
        for v in reversed(climbed):
            li = int(links[pred[v]])
            paths[v] = paths[link_tail[li]] + (li,)
    return paths


def fixture_costs(name):
    """Free-flow and seeded loaded link costs of fixture ``name``."""
    net, _ = FIXTURES[name][0]()
    return net, (net.free_flow_times(), loaded_costs(name, 3)[3])


class TestTreeWalk:
    """The shared parent-pointer walk against a scalar loop."""

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_every_tree_path_on_every_fixture(self, name):
        net, costs = fixture_costs(name)
        indptr, heads, slots, node_index, _ = net.csr()
        # tails from the links themselves, not from the CSR layout
        link_tail = [node_index[link.from_node] for link in net.links.values()]
        arc_tail = _kernels.arc_tails(indptr)
        assert arc_tail.tolist() == [link_tail[li] for li in slots]
        n = indptr.shape[0] - 1
        for cost in costs:
            _, preds = _kernels.batch_dijkstra(indptr, heads, slots, cost,
                                               range(n))
            for lo in range(0, n, 32):
                sources = list(range(lo, min(lo + 32, n)))
                want = [tree_paths_loop(preds[s], slots, link_tail, s)
                        for s in sources]
                rows = np.repeat(np.arange(len(sources)),
                                 [len(paths) for paths in want])
                dests = np.array([v for paths in want for v in paths])
                got = _kernels.walk_paths(preds[lo:lo + 32], slots, arc_tail,
                                          rows, dests)
                assert got == [path for paths in want
                               for path in paths.values()]

    def test_a_cycle_through_the_root_raises(self):
        # walks end where a node has no tree arc; a root with one of
        # its own (no tree of nonnegative costs has it) loops forever
        arcs = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
        indptr, heads, links, _ = csr_from_arcs(3, arcs)
        preds = np.array([[2, 0, 1]])
        with pytest.raises(RuntimeError, match="did not reach its root"):
            _kernels.walk_paths(preds, links, _kernels.arc_tails(indptr),
                                np.zeros(1, dtype=np.int64), np.array([2]))

    def test_a_cycle_away_from_the_root_raises(self):
        # nodes 1 and 2 point at each other and never lead back to 0
        arcs = [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)]
        indptr, heads, links, _ = csr_from_arcs(3, arcs)
        preds = np.array([[-1, 2, 1]])
        with pytest.raises(RuntimeError, match="did not reach its root"):
            _kernels.walk_paths(preds, links, _kernels.arc_tails(indptr),
                                np.zeros(1, dtype=np.int64), np.array([2]))

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_shortest_path_matches_the_heap(self, name):
        net, costs = fixture_costs(name)
        indptr, heads, slots, node_index, link_index = net.csr()
        nodes = list(node_index)
        stride = max(1, len(nodes) // 12)
        for cost in costs:
            for origin in nodes[::stride]:
                dist, _ = _kernels.dijkstra(
                    indptr, heads, slots, cost, node_index[origin])
                for dest in nodes[::stride]:
                    total, path = shortest_path(net, origin, dest, cost)
                    want = dist[node_index[dest]]
                    if not np.isfinite(want):
                        assert (total, path) == (np.inf, [])
                        continue
                    assert total == want
                    # the links join up from origin to dest and sum, left
                    # to right, to the heap's distance
                    at, summed = origin, 0.0
                    for lid in path:
                        link = net.links[lid]
                        assert link.from_node == at
                        at = link.to_node
                        summed += cost[link_index[lid]]
                    assert at == dest and summed == want


def project_blocks_loop(values, offsets, totals):
    """Per-block sort-and-threshold projection, one block at a time."""
    out = np.zeros_like(values)
    for b in range(offsets.shape[0] - 1):
        lo, hi = int(offsets[b]), int(offsets[b + 1])
        total = totals[b]
        if hi <= lo or total <= 0.0:
            continue
        v = values[lo:hi]
        u = np.sort(v)[::-1]
        cumulative = np.cumsum(u) - total
        ranks = np.arange(1, u.shape[0] + 1)
        mask = u - cumulative / ranks > 0.0
        rho = int(ranks[mask][-1])
        theta = cumulative[rho - 1] / rho
        out[lo:hi] = np.maximum(v - theta, 0.0)
    return out


class TestProjectBlocks:
    def random_blocks(self, seed=3, blocks=60):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 12, size=blocks)
        offsets = np.zeros(blocks + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(sizes)
        values = rng.normal(0.0, 5.0, size=int(offsets[-1]))
        totals = rng.uniform(0.0, 40.0, size=blocks)
        totals[rng.uniform(size=blocks) < 0.15] = 0.0  # exercise skips
        return values, offsets, totals

    def test_python_matches_per_block_projection(self):
        from mueflow.equilibrium import project_simplex

        values, offsets, totals = self.random_blocks()
        out = _kernels.project_blocks(values, offsets, totals)
        for b in range(offsets.size - 1):
            lo, hi = offsets[b], offsets[b + 1]
            if totals[b] <= 0.0:
                np.testing.assert_array_equal(out[lo:hi], 0.0)
            else:
                np.testing.assert_allclose(
                    out[lo:hi],
                    project_simplex(values[lo:hi], totals[b]),
                    atol=1e-12,
                )

    def test_python_bitwise_equals_per_block_loop(self):
        rng = np.random.default_rng(5)
        for trial in range(200):
            blocks = int(rng.integers(1, 40))
            offsets = np.zeros(blocks + 1, dtype=np.int64)
            offsets[1:] = np.cumsum(rng.integers(0, 12, size=blocks))
            # rounded values give ties, including at the threshold
            values = np.round(rng.normal(0.0, 5.0, size=int(offsets[-1])),
                              int(rng.integers(0, 3)))
            totals = rng.uniform(0.0, 40.0, size=blocks)
            totals[rng.uniform(size=blocks) < 0.2] = 0.0
            got = _kernels.project_blocks(values, offsets, totals)
            want = project_blocks_loop(values, offsets, totals)
            assert got.tobytes() == want.tobytes(), trial


class TestDispatch:
    def test_names_the_benchmark_hooks_exist(self):
        # perfbench/child.py reads these names and replaces the callables
        # by module attribute; a rename or deletion here breaks every
        # benchmark run while the rest of this suite stays green
        assert _kernels.NUMBA_ENABLED is False
        assert _kernels.resolve_workers(1) == 1
        assert _kernels.resolve_workers(10**6) == 1
        for name in ("batch_dijkstra", "dijkstra", "project_blocks"):
            assert callable(getattr(_kernels, name)), name
        for module in (cli, analysis):
            assert callable(module.solve) and callable(module.compute_report)
        assert callable(equilibrium.solve)
        for name in ("load_network", "generate_connectors", "load_od_csv",
                     "run_sweep", "write_solution_csv", "write_solution_json",
                     "write_metrics_csv", "write_metrics_json",
                     "write_sweep_csv", "write_sweep_json",
                     "write_sweep_series"):
            assert callable(getattr(cli, name)), name

    def test_batch_kernel_does_not_follow_a_wrapped_dijkstra(self, monkeypatch):
        # a tracer wraps _kernels.dijkstra; the batch must still run
        # the batch kernel, not the per-source heap
        calls = []
        single = _kernels.dijkstra

        def wrapped(*args):
            calls.append(args)
            return single(*args)

        monkeypatch.setattr(_kernels, "dijkstra", wrapped)
        indptr, heads, slots, cost, _ = grid_csr()
        _kernels.batch_dijkstra(indptr, heads, slots, cost, [0, 1])
        assert not calls

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        # perfbench/child.py times the layers by replacing these module
        # attributes; a caller that bound a kernel under another name
        # would run untimed
        calls = {"batch_dijkstra": 0, "project_blocks": 0}
        for name in calls:
            def counted(*args, _name=name, _kernel=getattr(_kernels, name),
                        **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)
            monkeypatch.setattr(_kernels, name, counted)
        return calls

    @pytest.mark.parametrize("method", ["fw", "bfw", "pd", "eg"])
    def test_solvers_call_the_wrapped_kernels(self, method, kernel_calls):
        build, config = FIXTURES["grid3x3"]
        net, od = build()
        solve(net, split_demand(od, 0.5), config(), method)
        assert kernel_calls["batch_dijkstra"] > 0
        assert (kernel_calls["project_blocks"] > 0) == (method in ("pd", "eg"))

    def test_sweep_calls_the_wrapped_batch_kernel(self, kernel_calls):
        build, config = FIXTURES["grid3x3"]
        net, od = build()
        sweep = run_sweep(net, od, config(), [0.0, 0.5, 1.0])
        # each solver iteration makes a batch call, and so does each
        # level's metrics report
        iterations = sum(r.solution.iterations for r in sweep.records)
        assert kernel_calls["batch_dijkstra"] > iterations
