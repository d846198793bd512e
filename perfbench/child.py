"""One measured CLI run: a fresh process that calls ``mueflow.cli.main`` once.

Usage (``run.py`` starts it; the source tree must be on ``PYTHONPATH``)::

    python3 perfbench/child.py RESULT_JSON MODE -- CLI_ARGS...

MODE is ``plain``, ``trace`` or ``setup``.  In a plain run the only hooks
are a timestamp at each entry to and exit from ``equilibrium.solve`` and a
count of the shortest-path trees each ``solve`` asks for.  A setup run
writes the time of the first entry into ``solve`` and exits there, so
set-up can be sampled several times for the cost of one.  A traced run
also wraps every layer's public functions at the names their callers look
them up by; the spans are kept in memory, written next to the result file
when the run ends, and the result records what the tracer itself cost.
Timestamps are ``time.monotonic()``, one clock for every process on the
machine, so the parent can measure from the moment it started this process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from pathlib import Path


class Tracer:
    """In-memory spans ``[name, start, end, parent, main_thread, count, cost]``.

    ``count`` is a size taken at entry where one is asked for: the arc
    count of a Dijkstra batch, the block count of a projection.
    ``parent`` indexes the enclosing span on the same thread.  A span
    opened on a worker thread with nothing open there takes the main
    thread's innermost open span as its parent, so the per-tree spans of
    a threaded ``batch_dijkstra`` hang under that batch.  ``cost`` is the
    time the span's own bookkeeping took; under the interpreter lock every
    thread's bookkeeping delays the run.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, count=None):
        t_enter = time.monotonic()
        stack = self._stack()
        main = stack is self._main_stack
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else -1)
        span = [name, 0.0, 0.0, parent, main,
                count(*args, **kwargs) if count else None, 0.0]
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(len(self.spans) - 1)
        span[1] = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.monotonic()
            stack.pop()
            span[6] = (span[1] - t_enter) + (time.monotonic() - span[2])

    def wrap(self, module, attr, name, count=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        setattr(module, attr, traced)


def spans_path(result_path: Path) -> Path:
    return result_path.with_name(result_path.stem + "-spans.json")


def _summary(solution) -> dict:
    return {
        "iterations": solution.iterations,
        "converged": bool(solution.converged),
        "wardrop_gap": float(solution.wardrop_gap),
        "paths": sum(len(entries) for entries in solution.paths.values()),
    }


def _hook_solve(modules, kernels, solves, tracer, setup_only_to=None):
    """Record entry/exit times and a summary of every ``solve`` call.

    Shortest-path trees are counted, not timed, so that solve time can be
    given per tree: the trees a solve needs depend on the seeded inputs.
    """
    from mueflow import equilibrium

    solve = equilibrium.solve
    batch_dijkstra = kernels.batch_dijkstra
    trees = [0]

    def counted(indptr, heads, links, cost, sources, *args, **kwargs):
        sources = list(sources)
        trees[0] += len(sources)
        return batch_dijkstra(indptr, heads, links, cost, sources,
                              *args, **kwargs)

    def timed(*args, **kwargs):
        t_in = time.monotonic()
        if setup_only_to is not None:
            setup_only_to.write_text(json.dumps({"t_in": t_in}))
            os._exit(0)
        trees_in = trees[0]
        if tracer is None:
            solution = solve(*args, **kwargs)
        else:
            solution = tracer.call("equilibrium.solve", solve, args, kwargs)
        t_out = time.monotonic()
        solves.append({"t_in": t_in, "t_out": t_out,
                       "trees": trees[0] - trees_in, **_summary(solution)})
        return solution

    kernels.batch_dijkstra = counted
    for module in modules:
        module.solve = timed


def _install_tracer(tracer, cli, analysis, kernels):
    wraps = [
        (cli, "load_network", "network.load_network"),
        (cli, "generate_connectors", "network.generate_connectors"),
        (cli, "load_od_csv", "demand.load_od_csv"),
        (cli, "run_sweep", "analysis.run_sweep"),
        (cli, "compute_report", "metrics.compute_report"),
        (analysis, "compute_report", "metrics.compute_report"),
    ]
    for attr in ("write_solution_csv", "write_solution_json",
                 "write_metrics_csv", "write_metrics_json",
                 "write_sweep_csv", "write_sweep_json", "write_sweep_series"):
        wraps.append((cli, attr, f"reports.{attr}"))
    for module, attr, name in wraps:
        tracer.wrap(module, attr, name)
    tracer.wrap(kernels, "batch_dijkstra", "kernels.batch_dijkstra",
                count=lambda indptr, heads, *rest, **kw: int(heads.shape[0]))
    tracer.wrap(kernels, "dijkstra", "kernels.dijkstra")
    tracer.wrap(kernels, "project_blocks", "kernels.project_blocks",
                count=lambda values, offsets, totals: int(offsets.shape[0] - 1))


def main(argv: list[str]) -> int:
    result_path, mode = Path(argv[0]), argv[1]
    cli_args = argv[argv.index("--") + 1:]

    import mueflow
    from mueflow import _kernels, analysis, cli

    tracer = Tracer() if mode == "trace" else None
    solves: list[dict] = []
    if tracer is not None:
        _install_tracer(tracer, cli, analysis, _kernels)
    _hook_solve((cli, analysis), _kernels, solves, tracer,
                result_path if mode == "setup" else None)
    if tracer is not None:
        rc = tracer.call("cli.main", cli.main, (cli_args,), {})
    else:
        rc = cli.main(cli_args)
    sys.stdout.flush()

    result = {
        "rc": rc,
        "mueflow_file": mueflow.__file__,
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
        # the worker cap; run.py resolves it against the batch size
        "workers_cap": _kernels.resolve_workers(sys.maxsize),
        "solves": solves,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        t_dump = time.monotonic()
        spans_path(result_path).write_text(json.dumps(tracer.spans))
        result["trace_cost_s"] = (sum(span[6] for span in tracer.spans)
                                  + time.monotonic() - t_dump)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
