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


def _front(profile):
    """The field profile(s) of s = x - t + 1 behind the front s = 0, zero
    ahead of it; points within 1e-14 of the front take the limit from behind."""

    def field(x, t):
        s = x - t + 1.0
        return profile(s) * np.where(s > -1e-14, 1.0, 0.0)

    return field


def singular_case():
    """Traveling wave with a velocity jump across the line x - t + 1 = 0.

    c = 1, F = 0 on (-1.5, 1.5) x (0, 1); the exact field is a clipped bump
    profile advected to the right (_front).  The boundary values are below
    1e-17, so homogeneous Dirichlet conditions are imposed."""
    dt_v = _front(_omega_bump_d2)
    exact = ExactSolution(
        u=_front(_omega_bump),
        dx_u=_front(_omega_bump_d1),
        v=_front(lambda s: -_omega_bump_d1(s)),
        dt_v=dt_v,
        dxdt_u=_front(lambda s: -_omega_bump_d2(s)),
        kink_time=lambda x: x + 1.0,
    )
    F = lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t)))
    c2 = lambda x: np.ones_like(np.asarray(x, dtype=float))
    # c = 1 and F = 0, so div(c^2 grad U) = dtt U = dt_v
    return _from_exact(exact, dt_v, F, c2, (-1.5, 1.5), 1.0, 1.0, "singular")


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


def _from_exact(exact, div_c2_grad_u, F, c2, omega, T, c0, name):
    """The problem of an exact solution and its forcing F, with c0 from
    wave_speed_floor; the initial traces U0, dU0, V0, dV0 and div_c2_grad_U0
    are u, dx_u, v, dxdt_u and div_c2_grad_u at t = 0, bound when the spec
    is built (a callable later replaced on exact does not reach them)."""
    u, dx_u, v, dxdt_u = exact.u, exact.dx_u, exact.v, exact.dxdt_u
    spec = ProblemSpec(
        omega=(float(omega[0]), float(omega[1])),
        T=float(T),
        c2=c2,
        c0=wave_speed_floor(c2, omega, c0),
        F=F,
        U0=lambda x: u(x, 0.0),
        dU0=lambda x: dx_u(x, 0.0),
        V0=lambda x: v(x, 0.0),
        dV0=lambda x: dxdt_u(x, 0.0),
        exact=exact,
        div_c2_grad_U0=lambda x: div_c2_grad_u(x, 0.0),
        name=name,
    )
    return NamedProblem(name, spec)


def manufactured(
    u, dx_u, dt_u, dtt_u, dxdt_u, div_c2_grad_u, c2, omega, T, c0=None, name="manufactured"
):
    """Problem with forcing derived from a prescribed exact solution.

    All arguments after u are the callables needed to form the forcing
    F = d^2 U/dt^2 - div(c^2 grad U) and the initial data traces; dxdt_u is
    the mixed derivative d^2 U/dx dt, whose trace at t = 0 is dV0.
    """
    exact = ExactSolution(
        u=u,
        dx_u=dx_u,
        v=dt_u,
        dt_v=dtt_u,
        dxdt_u=dxdt_u,
    )
    F = lambda x, t: dtt_u(x, t) - div_c2_grad_u(x, t)
    return _from_exact(exact, div_c2_grad_u, F, c2, omega, T, c0, name)


def by_name(name):
    if name == "smooth":
        return smooth_case()
    if name == "singular":
        return singular_case()
    raise KeyError(f"unknown problem {name!r}")
