"""Kernels against their reference twins.

The batch shortest-path kernel, cold and warm, is checked against the
heap Dijkstra, the tree walk against a parent-pointer loop, and the
blockwise projection against a per-block loop.  Equivalence here is
bitwise, not approximate: the solvers' byte-identical artifacts rest
on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from mueflow import _kernels
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
        slot, tail, _ = _kernels._in_arcs(indptr, heads)
        padded = np.append(cost[links], np.inf)[slot]
        _, rule_pred, ties = _kernels._relax_chunk(
            slot, tail, padded, np.array([0]))
        assert ties[0]
        assert arcs[links[rule_pred[4, 0]]][:2] == (1, 4)
        dists, preds = _kernels.batch_dijkstra(
            indptr, heads, links, cost, [0])
        assert arcs[links[preds[0, 4]]][:2] == (3, 4)
        assert_batch_matches_heap(indptr, heads, links, cost, range(5))

    def test_negative_cost_falls_back_to_the_heap(self):
        # the heap settles node 2 before 1 -> 2 lowers it, so node 3
        # keeps 2.0 where the relaxation's fixed point would give 1.5
        arcs = [(0, 1, 2.0), (1, 2, -1.5), (0, 2, 1.0), (2, 3, 1.0)]
        indptr, heads, links, cost = csr_from_arcs(4, arcs)
        dists, _ = _kernels.batch_dijkstra(
            indptr, heads, links, cost, [0])
        assert dists[0, 3] == 2.0
        assert_batch_matches_heap(indptr, heads, links, cost, range(4))

    def test_chunked_sources_and_repeats(self, monkeypatch):
        indptr, heads, slots, cost, node_index = grid_csr()
        sources = list(node_index.values())[:30] + [0, 0]
        monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 1)
        assert_batch_matches_heap(indptr, heads, slots, cost, sources)


def warm_state(indptr, heads):
    return _kernels.WarmStart(*_kernels._in_arcs(indptr, heads))


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


class TestWarmStart:
    """Batches started from earlier trees, against cold and heap runs."""

    @pytest.fixture
    def warm_calls(self, monkeypatch):
        """Count the chunks that start from earlier trees."""
        calls = []
        tree_costs = _kernels._tree_costs

        def counted(*args):
            calls.append(args)
            return tree_costs(*args)

        monkeypatch.setattr(_kernels, "_tree_costs", counted)
        return calls

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

    def test_zero_and_negative_costs(self, warm_calls):
        # zero-cost arcs route tied trees through the heap, warm or
        # cold; a negative cost runs the heap and the next call is cold
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
            negative = draw[0].copy()
            negative[0] = -1.0
            _kernels.batch_dijkstra(indptr, heads, links, negative,
                                    sources, warm=warm)
            assert warm.preds is None and not warm.repeated
        assert warm_calls

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
                            lambda self, sources: None)
        calls = len(warm_calls)
        cold = solve(net, demand, config, method)
        assert len(warm_calls) == calls
        assert warm.iterations == cold.iterations
        assert warm.wardrop_gap == cold.wardrop_gap
        assert warm.paths == cold.paths
        assert warm.pi == cold.pi
        for cls, flows in warm.link_flows.class_flows.items():
            assert flows.tobytes() == cold.link_flows.class_flows[cls].tobytes()


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
                                          sources, rows, dests)
                assert got == [path for paths in want
                               for path in paths.values()]

    def test_walks_stop_at_their_roots(self):
        # a tree whose root has a predecessor (as under a negative cost)
        # still ends every walk at the root
        arcs = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
        indptr, heads, links, _ = csr_from_arcs(3, arcs)
        preds = np.array([[2, 0, 1]])
        got = _kernels.walk_paths(preds, links, _kernels.arc_tails(indptr),
                                  [0], np.zeros(3, dtype=np.int64),
                                  np.arange(3))
        assert got == [(), (0,), (0, 1)]

    def test_a_cycle_away_from_the_root_raises(self):
        # nodes 1 and 2 point at each other and never lead back to 0
        arcs = [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)]
        indptr, heads, links, _ = csr_from_arcs(3, arcs)
        preds = np.array([[-1, 2, 1]])
        with pytest.raises(RuntimeError, match="did not reach its root"):
            _kernels.walk_paths(preds, links, _kernels.arc_tails(indptr),
                                [0], np.zeros(1, dtype=np.int64),
                                np.array([2]))

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
