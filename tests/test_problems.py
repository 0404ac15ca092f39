import itertools

import numpy as np
import pytest

import xtwave as xw
from xtwave.errors import InvalidProblemError
from xtwave.problems import by_name, manufactured


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


def _bits(values):
    """The IEEE bits of float values, so equality also compares signed zeros."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


# the singular front's bump profile and its derivatives, written by hand as
# they were before problems.py formed all fields from shared terms
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


def _indicator(s):
    return np.where(s > -1e-14, 1.0, 0.0)


# the singular problem's fields and traces as they were written by hand before
# one front helper derived them; each is the reference of the derived one
SINGULAR_FIELDS = {
    "u": lambda x, t: _omega_bump(x - t + 1.0) * _indicator(x - t + 1.0),
    "dx_u": lambda x, t: _omega_bump_d1(x - t + 1.0) * _indicator(x - t + 1.0),
    "v": lambda x, t: -_omega_bump_d1(x - t + 1.0) * _indicator(x - t + 1.0),
    "dt_v": lambda x, t: _omega_bump_d2(x - t + 1.0) * _indicator(x - t + 1.0),
    "dxdt_u": lambda x, t: -_omega_bump_d2(x - t + 1.0) * _indicator(x - t + 1.0),
}
SINGULAR_TRACES = {
    "U0": lambda x: SINGULAR_FIELDS["u"](x, 0.0),
    "dU0": lambda x: SINGULAR_FIELDS["dx_u"](x, 0.0),
    "V0": lambda x: SINGULAR_FIELDS["v"](x, 0.0),
    "dV0": lambda x: -_omega_bump_d2(x + 1.0) * _indicator(x + 1.0),
    "div_c2_grad_U0": lambda x: _omega_bump_d2(x + 1.0) * _indicator(x + 1.0),
}
# offsets from the front x - t + 1 = 0: on it, inside the 1e-14 band of the
# cut-off on both sides, and beyond the band
FRONT_OFFSETS = np.array([0.0, 1e-15, -1e-15, 5e-15, -5e-15, 1.5e-14, -1.5e-14, 3e-14, -3e-14])


def _polynomial_problem():
    # U = t^2 x (1 - x), c = 1 gives F = 2 x (1 - x) + 2 t^2
    return manufactured(
        u=lambda x, t: t**2 * x * (1 - x),
        dx_u=lambda x, t: t**2 * (1 - 2 * x),
        dt_u=lambda x, t: 2 * t * x * (1 - x),
        dtt_u=lambda x, t: 2 * x * (1 - x) + 0 * t,
        dxdt_u=lambda x, t: 2 * t * (1 - 2 * x),
        div_c2_grad_u=lambda x, t: -2 * t**2 + 0 * x,
        c2=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        omega=(0.0, 1.0),
        T=1.0,
    ).spec


@pytest.mark.parametrize("name", ["smooth", "singular", "manufactured"])
def test_initial_traces_are_the_exact_fields_at_t0(name):
    prob = _polynomial_problem() if name == "manufactured" else by_name(name).spec
    xs = np.concatenate((np.linspace(-1.5, 1.5, 301), -1.0 + FRONT_OFFSETS))
    for trace, field in (("U0", "u"), ("dU0", "dx_u"), ("V0", "v"), ("dV0", "dxdt_u")):
        at_t0 = getattr(prob.exact, field)(xs, 0.0)
        assert np.array_equal(_bits(getattr(prob, trace)(xs)), _bits(at_t0)), trace


def test_singular_derivation_matches_hand_written_formulas(singular_problem):
    prob = singular_problem
    xs, ts = np.linspace(-1.5, 1.5, 241), np.linspace(0.0, 1.0, 81)
    front_t = np.linspace(0.0, 1.0, 11)
    front_x = (front_t - 1.0)[:, None] + FRONT_OFFSETS
    points = [(xs[:, None], ts[None, :]), (front_x, front_t[:, None])]
    for name, reference in SINGULAR_FIELDS.items():
        for x, t in points:
            derived = getattr(prob.exact, name)(x, t)
            assert np.array_equal(_bits(derived), _bits(reference(x, t))), name
    # fields at node sets: one time vector for all space nodes, and one row of
    # times per space node, here the front's points row by row
    node_sets = [(xs, ts), (front_x.ravel(), front_t.repeat(FRONT_OFFSETS.size)[:, None])]
    orders = (list(SINGULAR_FIELDS), list(SINGULAR_FIELDS)[::-1])  # profiles are shared
    for (x, t), names in itertools.product(node_sets, orders):
        t_grid = t[None, :] if t.ndim == 1 else t
        got = list(prob.exact.fields(names, x, t))
        assert [name for name, _ in got] == names
        for name, values in got:
            reference = SINGULAR_FIELDS[name](x[:, None], t_grid)
            assert values.shape == (x.size, t_grid.shape[-1])
            assert np.array_equal(_bits(values), _bits(reference)), name
    x0 = np.concatenate((xs, -1.0 + FRONT_OFFSETS))
    for name, reference in SINGULAR_TRACES.items():
        assert np.array_equal(_bits(getattr(prob, name)(x0)), _bits(reference(x0))), name
    # c = 1 and F = 0, so div(c^2 grad U0) is dtt U at t = 0
    assert np.array_equal(_bits(prob.div_c2_grad_U0(x0)), _bits(prob.exact.dt_v(x0, 0.0)))
    assert np.array_equal(_bits(prob.F(xs[:, None], ts[None, :])), _bits(np.zeros((241, 81))))


def test_by_name():
    assert by_name("smooth").spec.name == "smooth"
    assert by_name("singular").spec.name == "singular"
    with pytest.raises(KeyError):
        by_name("nope")


def test_smooth_initial_data(smooth_problem):
    xs = np.linspace(0, 1, 17)
    assert np.allclose(smooth_problem.U0(xs), np.sin(np.pi * xs))
    assert np.allclose(smooth_problem.V0(xs), 0.0)
    assert np.allclose(smooth_problem.exact.u(xs, 0.0), smooth_problem.U0(xs))
    assert np.allclose(smooth_problem.exact.v(xs, 0.0), 0.0)


def test_smooth_point_value(smooth_problem):
    # sin^2(2.5 pi) = 1, so U(0.5, 2) = 2
    assert smooth_problem.exact.u(0.5, 2.0) == pytest.approx(2.0, abs=1e-14)


def test_smooth_residual(smooth_problem, rng):
    assert residual_check(smooth_problem, rng) < 1e-8


def test_smooth_velocity_consistency(smooth_problem, rng):
    # V is the time derivative of U (finite-difference oracle)
    h = 1e-5
    xs = rng.uniform(0.05, 0.95, 50)
    ts = rng.uniform(0.05, 2.95, 50)
    u = smooth_problem.exact.u
    fd = (u(xs, ts + h) - u(xs, ts - h)) / (2 * h)
    assert np.max(np.abs(fd - smooth_problem.exact.v(xs, ts))) < 1e-6


def test_smooth_derivative_fields_consistency(smooth_problem, rng):
    # dx_u, dt_v and dxdt_u are the derivatives of U and V (finite-difference oracle)
    h = 1e-5
    xs = rng.uniform(0.05, 0.95, 50)
    ts = rng.uniform(0.05, 2.95, 50)
    ex = smooth_problem.exact
    for field, f, dx, dt in (
        (ex.dx_u, ex.u, h, 0.0),
        (ex.dt_v, ex.v, 0.0, h),
        (ex.dxdt_u, ex.v, h, 0.0),
    ):
        fd = (f(xs + dx, ts + dt) - f(xs - dx, ts - dt)) / (2 * h)
        assert np.max(np.abs(fd - field(xs, ts))) < 1e-6


def test_wave_speed_positive(smooth_problem, singular_problem):
    for prob in (smooth_problem, singular_problem):
        xs = np.linspace(*prob.omega, 101)
        assert np.all(prob.c2(xs) >= prob.c0**2 - 1e-14)


def test_singular_profile_values(singular_problem):
    assert _omega_bump(0.0) == pytest.approx(0.0, abs=1e-16)
    assert _omega_bump_d1(0.0) == pytest.approx(8.0 * np.exp(-0.2), rel=1e-14)
    xs = np.linspace(-1.4, 1.4, 23)
    u0 = singular_problem.U0(xs)
    expected = _omega_bump(xs + 1.0) * (xs + 1.0 > 0)
    assert np.allclose(u0, expected)


def test_singular_boundary_values(singular_problem):
    ts = np.linspace(0.0, 1.0, 101)
    u = singular_problem.exact.u
    assert np.max(np.abs(u(-1.5, ts))) <= 1e-17
    assert np.max(np.abs(u(1.5, ts))) <= 1e-17


def test_singular_velocity_jump(singular_problem):
    # V jumps across x - t + 1 = 0 by the slope of the profile at the front
    v = singular_problem.exact.v
    t = 0.5
    x_star = t - 1.0
    eps = 1e-9
    jump = v(x_star + eps, t) - v(x_star - eps, t)
    assert jump == pytest.approx(-8.0 * np.exp(-0.2), rel=1e-6)


def test_singular_kink_time(singular_problem):
    kt = singular_problem.exact.kink_time
    assert kt(-1.0) == pytest.approx(0.0)
    assert kt(0.0) == pytest.approx(1.0)


def test_manufactured_polynomial():
    prob = _polynomial_problem()
    xs = np.linspace(0, 1, 11)
    ts = np.linspace(0, 1, 11)
    assert np.allclose(prob.F(xs, ts), 2 * xs * (1 - xs) + 2 * ts**2)
    assert prob.c0 == pytest.approx(1.0)


def test_manufactured_linear_solution_zero_forcing(rng):
    prob = manufactured(
        u=lambda x, t: x + 2 * t,
        dx_u=lambda x, t: np.ones(np.broadcast_shapes(np.shape(x), np.shape(t))),
        dt_u=lambda x, t: 2 * np.ones(np.broadcast_shapes(np.shape(x), np.shape(t))),
        dtt_u=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
        dxdt_u=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
        div_c2_grad_u=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
        c2=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        omega=(0.0, 1.0),
        T=1.0,
    ).spec
    assert np.allclose(prob.F(np.linspace(0, 1, 7), 0.5), 0.0)
    assert residual_check(prob, rng) < 1e-8


def test_manufactured_zero_solution():
    zero2 = lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t)))
    prob = manufactured(
        u=zero2, dx_u=zero2, dt_u=zero2, dtt_u=zero2, dxdt_u=zero2, div_c2_grad_u=zero2,
        c2=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        omega=(0.0, 1.0), T=1.0,
    ).spec
    xs = np.linspace(0, 1, 5)
    assert np.allclose(prob.F(xs, 0.3), 0.0)
    assert np.allclose(prob.U0(xs), 0.0)
    assert np.allclose(prob.V0(xs), 0.0)


def test_manufactured_rejects_nonpositive_c2():
    zero2 = lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t)))
    with pytest.raises(InvalidProblemError):
        manufactured(
            u=zero2, dx_u=zero2, dt_u=zero2, dtt_u=zero2, dxdt_u=zero2, div_c2_grad_u=zero2,
            c2=lambda x: x - 0.5,
            omega=(0.0, 1.0), T=1.0,
        )


def test_poincare_constant(smooth_problem, singular_problem):
    assert smooth_problem.poincare_constant == pytest.approx(1.0 / np.pi)
    assert singular_problem.poincare_constant == pytest.approx(3.0 / np.pi)
