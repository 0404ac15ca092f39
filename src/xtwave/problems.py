"""Built-in benchmark problems and the manufactured-solution constructor."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidProblemError
from .quadrature import sample
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


def _front_coordinate(x, t):
    return x - t + 1.0


# the bump profile of the singular front and its first two derivatives, from
# s and the two Gaussians exp(-20 (s - 0.1)^2) and exp(-20 (s + 0.1)^2)
_BUMP = (
    lambda s, g1, g2: g1 - g2,
    lambda s, g1, g2: -40.0 * (s - 0.1) * g1 + 40.0 * (s + 0.1) * g2,
    lambda s, g1, g2: (1600.0 * (s - 0.1) ** 2 - 40.0) * g1 - (1600.0 * (s + 0.1) ** 2 - 40.0) * g2,
)
# each singular field: (derivative order of the bump, negated)
_FRONT_FIELDS = {
    "u": (0, False),
    "dx_u": (1, False),
    "v": (1, True),
    "dt_v": (2, False),
    "dxdt_u": (2, True),
}


def _front_fields(names, s):
    """(name, values) of each named singular field at the points of s =
    x - t + 1, in the order of names: its profile behind the front s = 0,
    zero ahead of it, and points within 1e-14 of the front take the limit
    from behind.  The indicator and both Gaussians are formed once, and a
    profile once for the fields of its order that follow each other in
    names (v and dx_u in error_report's order)."""
    behind = s > -1e-14
    g1 = np.exp(-20.0 * (s - 0.1) ** 2)
    g2 = np.exp(-20.0 * (s + 0.1) ** 2)
    order = profile = None
    for name in names:
        field_order, negated = _FRONT_FIELDS[name]
        if field_order != order:
            profile = None  # freed before the next one is formed
            order, profile = field_order, _BUMP[field_order](s, g1, g2)
        yield name, (-profile if negated else profile) * behind


def _front_field(name):
    """The singular field `name` as a callable (x, t), broadcast like the others."""

    def field(x, t):
        return next(_front_fields((name,), _front_coordinate(x, t)))[1]

    return field


class _FrontSolution(ExactSolution):
    """The singular problem's exact solution.  fields forms the front's terms
    once per node set, from the front's own formulas: callables assigned to
    the attributes later do not reach it."""

    def fields(self, names, x, t):
        return _front_fields(names, sample(_front_coordinate, x, t))


def singular_case():
    """Traveling wave with a velocity jump across the line x - t + 1 = 0.

    c = 1, F = 0 on (-1.5, 1.5) x (0, 1); the exact field is a clipped bump
    profile advected to the right (_front_fields).  The boundary values are
    below 1e-17, so homogeneous Dirichlet conditions are imposed."""
    dt_v = _front_field("dt_v")
    exact = _FrontSolution(
        u=_front_field("u"),
        dx_u=_front_field("dx_u"),
        v=_front_field("v"),
        dt_v=dt_v,
        dxdt_u=_front_field("dxdt_u"),
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
