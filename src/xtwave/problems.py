"""Built-in benchmark problems and the manufactured-solution constructor."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidProblemError
from .system import ExactSolution, ProblemSpec


@dataclass
class NamedProblem:
    name: str
    spec: ProblemSpec


def smooth_case():
    """Smooth standing-wave benchmark on (0,1) x (0,3) with c^2 = x + 1.

    The forcing is derived from the wave equation applied to the exact
    solution U = (sin^2(5 pi t / 4) + 1) sin(pi x).
    """
    pi = np.pi

    def g(t):
        return np.sin(1.25 * pi * t) ** 2 + 1.0

    def dg(t):
        return 1.25 * pi * np.sin(2.5 * pi * t)

    def ddg(t):
        return 2.0 * 1.25**2 * pi**2 * np.cos(2.5 * pi * t)

    def div_c2_grad_shape(x):
        # d/dx((x+1) * d/dx sin(pi x))
        return pi * np.cos(pi * x) - (x + 1.0) * pi**2 * np.sin(pi * x)

    return manufactured(
        u=lambda x, t: g(t) * np.sin(pi * x),
        dx_u=lambda x, t: g(t) * pi * np.cos(pi * x),
        dt_u=lambda x, t: dg(t) * np.sin(pi * x),
        dtt_u=lambda x, t: ddg(t) * np.sin(pi * x),
        dxdt_u=lambda x, t: dg(t) * pi * np.cos(pi * x),
        div_c2_grad_u=lambda x, t: g(t) * div_c2_grad_shape(x),
        c2=lambda x: x + 1.0,
        omega=(0.0, 1.0),
        T=3.0,
        c0=1.0,
        name="smooth",
    )


def _omega_bump(s):
    return np.exp(-20.0 * (s - 0.1) ** 2) - np.exp(-20.0 * (s + 0.1) ** 2)


def _omega_bump_d1(s):
    return -40.0 * (s - 0.1) * np.exp(-20.0 * (s - 0.1) ** 2) + 40.0 * (s + 0.1) * np.exp(
        -20.0 * (s + 0.1) ** 2
    )


def _omega_bump_d2(s):
    a = (1600.0 * (s - 0.1) ** 2 - 40.0) * np.exp(-20.0 * (s - 0.1) ** 2)
    b = (1600.0 * (s + 0.1) ** 2 - 40.0) * np.exp(-20.0 * (s + 0.1) ** 2)
    return a - b


def singular_case():
    """Traveling wave with a velocity jump across the line x - t + 1 = 0.

    c = 1, F = 0 on (-1.5, 1.5) x (0, 1); the exact field is a clipped bump
    profile advected to the right.  The boundary values are below 1e-17, so
    homogeneous Dirichlet conditions are imposed.  Points within 1e-14 of the
    singular line evaluate the limit from the smooth (positive) side.
    """

    def indicator(s):
        return np.where(s > -1e-14, 1.0, 0.0)

    def u(x, t):
        s = x - t + 1.0
        return _omega_bump(s) * indicator(s)

    def dx_u(x, t):
        s = x - t + 1.0
        return _omega_bump_d1(s) * indicator(s)

    def v(x, t):
        s = x - t + 1.0
        return -_omega_bump_d1(s) * indicator(s)

    def dt_v(x, t):
        s = x - t + 1.0
        return _omega_bump_d2(s) * indicator(s)

    def kink_time(x):
        return x + 1.0

    exact = ExactSolution(
        u=u,
        dx_u=dx_u,
        v=v,
        dt_v=dt_v,
        dxdt_u=lambda x, t: -_omega_bump_d2(x - t + 1.0) * indicator(x - t + 1.0),
        kink_time=kink_time,
    )
    spec = ProblemSpec(
        omega=(-1.5, 1.5),
        T=1.0,
        c2=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        c0=1.0,
        F=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
        U0=lambda x: u(x, 0.0),
        dU0=lambda x: dx_u(x, 0.0),
        V0=lambda x: v(x, 0.0),
        dV0=lambda x: -_omega_bump_d2(x + 1.0) * indicator(x + 1.0),
        exact=exact,
        div_c2_grad_U0=lambda x: _omega_bump_d2(x + 1.0) * indicator(x + 1.0),
        name="singular",
    )
    return NamedProblem("singular", spec)


def wave_speed_floor(c2, omega, c0=None):
    """Wave-speed lower bound c0: sqrt(min c2) over 2001 points of omega, or a
    given c0 checked against it, because infsup_lower_bound trusts c0."""
    c2_min = float(np.min(c2(np.linspace(omega[0], omega[1], 2001))))
    if not c2_min > 0:
        raise InvalidProblemError(f"c2 must be positive on the domain, its minimum is {c2_min}")
    floor = float(np.sqrt(c2_min))
    if c0 is not None and not 0 < c0 <= floor:
        raise InvalidProblemError(f"c0 = {c0} must lie in (0, sqrt(min c2)] = (0, {floor}]")
    return floor if c0 is None else c0


def manufactured(
    u, dx_u, dt_u, dtt_u, dxdt_u, div_c2_grad_u, c2, omega, T, c0=None, name="manufactured"
):
    """Problem with forcing derived from a prescribed exact solution.

    All arguments after u are the callables needed to form the forcing
    F = d^2 U/dt^2 - div(c^2 grad U) and the initial data traces; dxdt_u is
    the mixed derivative d^2 U/dx dt, whose trace at t = 0 is dV0.
    """
    c0 = wave_speed_floor(c2, omega, c0)
    exact = ExactSolution(
        u=u,
        dx_u=dx_u,
        v=dt_u,
        dt_v=dtt_u,
        dxdt_u=dxdt_u,
    )
    spec = ProblemSpec(
        omega=(float(omega[0]), float(omega[1])),
        T=float(T),
        c2=c2,
        c0=c0,
        F=lambda x, t: dtt_u(x, t) - div_c2_grad_u(x, t),
        U0=lambda x: u(x, 0.0),
        dU0=lambda x: dx_u(x, 0.0),
        V0=lambda x: dt_u(x, 0.0),
        dV0=lambda x: dxdt_u(x, 0.0),
        exact=exact,
        div_c2_grad_U0=lambda x: div_c2_grad_u(x, 0.0),
        name=name,
    )
    return NamedProblem(name, spec)


def by_name(name):
    if name == "smooth":
        return smooth_case()
    if name == "singular":
        return singular_case()
    raise KeyError(f"unknown problem {name!r}")


def residual_check(problem, rng, n_points=100):
    """Max wave-equation residual of the exact solution at random points.

    Uses sixth-order central finite differences for both second derivatives,
    so it is an oracle independent of the analytic derivative callables.
    """
    exact = problem.exact
    a, b = problem.omega
    margin = 1e-3 * (b - a)
    xs = rng.uniform(a + margin, b - margin, n_points)
    ts = rng.uniform(1e-3 * problem.T, problem.T * (1 - 1e-3), n_points)
    h = 3e-3
    u = exact.u
    d2_w = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
    d1_w = np.array([-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60])
    offsets = np.arange(-3, 4)

    def d2_6th(f, s):
        return sum(w * f(s + k * h) for w, k in zip(d2_w, offsets)) / h**2

    def d1_6th(f, s):
        return sum(w * f(s + k * h) for w, k in zip(d1_w, offsets)) / h

    def dtt(x, t):
        return d2_6th(lambda tt: u(x, tt), t)

    def div_c2_grad(x, t):
        def flux(xx):
            return problem.c2(xx) * d1_6th(lambda s: u(s, t), xx)

        return d1_6th(flux, x)

    res = dtt(xs, ts) - div_c2_grad(xs, ts) - problem.F(xs, ts)
    return float(np.max(np.abs(res)))
