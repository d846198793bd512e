"""Shared test fixtures.

Solved equilibria are session-scoped: the solvers dominate the suite's
runtime and every consumer treats solutions as read-only.
"""

from __future__ import annotations

import weakref

import pytest

from mueflow import _kernels, fixtures
from mueflow.demand import split_demand
from mueflow.equilibrium import SolverOptions, solve


@pytest.fixture(scope="session")
def dual_case():
    net, od = fixtures.dual_route()
    return net, od, fixtures.dual_route_config()


@pytest.fixture(scope="session")
def dual_solution_gv(dual_case):
    """Pure-GV equilibrium on the dual-route fixture (criterion-2 case)."""
    net, od, cfg = dual_case
    return solve(net, split_demand(od, 0.0), cfg, method="bfw")


@pytest.fixture(scope="session")
def dual_solution_mixed(dual_case):
    """Half-EV equilibrium on the dual-route fixture, path-based."""
    net, od, cfg = dual_case
    return solve(net, split_demand(od, 0.5), cfg, method="pd")


@pytest.fixture(scope="session")
def grid3_case():
    net, od = fixtures.grid3x3()
    return net, od, fixtures.grid3x3_config()


@pytest.fixture(scope="session")
def grid3_solution(grid3_case):
    net, od, cfg = grid3_case
    options = SolverOptions(rel_gap_tol=1e-7, max_iters=20000)
    return solve(net, split_demand(od, 0.5), cfg, method="bfw", options=options)


@pytest.fixture(scope="session")
def grid10_case():
    net, od = fixtures.grid10x10()
    return net, od, fixtures.grid10x10_config()


@pytest.fixture
def warm_starts(monkeypatch):
    """A weak reference to every ``_kernels.WarmStart`` the test makes."""
    made = []
    real = _kernels.WarmStart

    def recorded(*args, **kwargs):
        warm = real(*args, **kwargs)
        made.append(weakref.ref(warm))
        return warm

    monkeypatch.setattr(_kernels, "WarmStart", recorded)
    return made
