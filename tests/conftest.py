import dataclasses

import numpy as np
import pytest

import xtwave as xw
from xtwave.forms import default_n_points, space_tables


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def load_moments():
    """Mass moments (load, phi_a) of a callable load against the basis of a
    Newton solver's space, on the default rule of that space; the discrete
    dual norm of the load is sqrt(m @ solver.solve_K(m))."""

    def moments(solver, load):
        xq, wq, B = space_tables(solver.space, default_n_points(solver.space))
        return B[:, 0].T @ (wq * load(xq))

    return moments


@pytest.fixture(scope="session")
def smooth_problem():
    return xw.smooth_case().spec


@pytest.fixture(scope="session")
def singular_problem():
    return xw.singular_case().spec


@pytest.fixture(scope="session")
def unit_problem():
    """T = 1, c = 1 variant on (0, 1) with homogeneous data."""
    zeros_x = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return xw.ProblemSpec(
        omega=(0.0, 1.0),
        T=1.0,
        c2=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        c0=1.0,
        F=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
        U0=zeros_x,
        dU0=zeros_x,
        V0=zeros_x,
        dV0=zeros_x,
        name="unit",
    )


@pytest.fixture(scope="session")
def smooth_solution_cache(smooth_problem):
    """Shared solves of the smooth problem, keyed by (p, r, n_x, n_t)."""
    cache = {}

    def get(p, r, n_x, n_t):
        key = (p, r, n_x, n_t)
        if key not in cache:
            sx = xw.make_uniform_space(smooth_problem.omega, n_x, p, r, "zero-both")
            st = xw.make_uniform_space((0.0, smooth_problem.T), n_t, p, r, "zero-left")
            system = xw.assemble(smooth_problem, sx, st)
            cache[key] = (system, xw.solve(system))
        return cache[key]

    return get


@pytest.fixture
def tabulate_calls(monkeypatch):
    """List that receives the derivative order of every basis tabulation."""
    calls = []
    tabulate = xw.SplineSpace.tabulate

    def counted(self, xs, deriv_order=0):
        calls.append(deriv_order)
        return tabulate(self, xs, deriv_order)

    monkeypatch.setattr(xw.SplineSpace, "tabulate", counted)
    return calls


@pytest.fixture
def exact_calls(monkeypatch, smooth_problem, singular_problem):
    """List that receives the name of every ExactSolution callable evaluated
    on the smooth and singular problems (their initial data call the
    underlying functions directly, so they do not count)."""
    calls = []

    def counted(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)

        return call

    for problem in (smooth_problem, singular_problem):
        for field in dataclasses.fields(problem.exact):
            f = getattr(problem.exact, field.name)
            if f is not None:
                monkeypatch.setattr(problem.exact, field.name, counted(field.name, f))
    return calls
