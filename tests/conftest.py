import dataclasses
import tracemalloc

import numpy as np
import pytest

import xtwave as xw
from xtwave import splines
from xtwave.forms import default_n_points


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def load_moments():
    """Mass moments (load, phi_a) of a callable load against the basis of a
    Newton solver's space, on the default rule of that space; the discrete
    dual norm of the load is sqrt(m @ solver.solve_K(m))."""

    def moments(solver, load):
        E = solver.space.element_table(default_n_points(solver.space))
        return E.moments(load(E.nodes), 0, E.weights)

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
def traced_peak():
    """Function that calls f(*args, **kwargs) and returns the peak of the
    memory it allocated on top of what was allocated before, in bytes, as
    tracemalloc counts it (numpy arrays included)."""

    def peak(f, *args, **kwargs):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            f(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    return peak


@pytest.fixture
def tabulate_calls(monkeypatch):
    """List that receives the highest derivative order of every run of the
    B-spline recursion, which dense tables (SplineSpace.tabulate) and
    element tables (SplineSpace.element_table) share."""
    calls = []
    recursion = splines._ders_basis_funs

    def counted(knots, p, xs, n_ders, spans):
        calls.append(n_ders)
        return recursion(knots, p, xs, n_ders, spans)

    monkeypatch.setattr(splines, "_ders_basis_funs", counted)
    return calls


@pytest.fixture
def exact_calls(monkeypatch, smooth_problem, singular_problem):
    """List that receives the name of every ExactSolution callable evaluated,
    and of every field an overriding ExactSolution.fields yields, on the
    smooth and singular problems (their initial data call the underlying
    functions directly, so they do not count)."""
    calls = []

    def counted(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)

        return call

    def counted_fields(fields):
        def call(names, x, t):
            for name, values in fields(names, x, t):
                calls.append(name)
                yield name, values

        return call

    for problem in (smooth_problem, singular_problem):
        for field in dataclasses.fields(problem.exact):
            f = getattr(problem.exact, field.name)
            if f is not None:
                monkeypatch.setattr(problem.exact, field.name, counted(field.name, f))
        # the default fields samples the callables, which count; an override
        # forms its fields itself
        if type(problem.exact).fields is not xw.ExactSolution.fields:
            monkeypatch.setattr(problem.exact, "fields", counted_fields(problem.exact.fields))
    return calls
