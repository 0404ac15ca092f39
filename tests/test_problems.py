import numpy as np
import pytest

import xtwave as xw
from xtwave.errors import InvalidProblemError
from xtwave.problems import by_name, manufactured, residual_check


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


def test_wave_speed_positive(smooth_problem, singular_problem):
    for prob in (smooth_problem, singular_problem):
        xs = np.linspace(*prob.omega, 101)
        assert np.all(prob.c2(xs) >= prob.c0**2 - 1e-14)


def test_singular_profile_values(singular_problem):
    from xtwave.problems import _omega_bump, _omega_bump_d1

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
    # U = t^2 x (1 - x), c = 1 gives F = 2 x (1 - x) + 2 t^2
    np_ = np
    prob = manufactured(
        u=lambda x, t: t**2 * x * (1 - x),
        dx_u=lambda x, t: t**2 * (1 - 2 * x),
        dt_u=lambda x, t: 2 * t * x * (1 - x),
        dtt_u=lambda x, t: 2 * x * (1 - x) + 0 * t,
        dxdt_u=lambda x, t: 2 * t * (1 - 2 * x),
        div_c2_grad_u=lambda x, t: -2 * t**2 + 0 * x,
        c2=lambda x: np_.ones_like(np_.asarray(x, dtype=float)),
        omega=(0.0, 1.0),
        T=1.0,
    ).spec
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
