import numpy as np
import pytest

import xtwave as xw
from xtwave import newton
from xtwave.forms import assemble_time_matrix, space_tables, time_factors
from xtwave.quadrature import panel_points, sample, time_panel_points


def _solver(n_x=16, p=2, c2=None, omega=(0.0, 1.0)):
    space = xw.make_uniform_space(omega, n_x, p, None, "zero-both")
    return newton.make_newton_solver(space, c2 or (lambda x: np.ones_like(x)))


def test_zero_load(load_moments):
    solver = _solver()
    m = load_moments(solver, lambda x: np.zeros_like(x))
    z = solver.solve_K(m)
    assert np.allclose(z, 0.0)
    assert np.sqrt(m @ z) == 0.0


def test_converges_to_exact_potential(load_moments):
    # -phi'' = sin(pi x), phi(0) = phi(1) = 0 has solution sin(pi x) / pi^2
    solver = _solver(n_x=64, p=2)
    z = solver.solve_K(load_moments(solver, lambda x: np.sin(np.pi * x)))
    xq, wq = panel_points(solver.space.breakpoints, 6)
    err = solver.space.tabulate(xq, 0) @ z - np.sin(np.pi * xq) / np.pi**2
    assert np.sqrt(wq @ err**2) < 1e-5


def test_defining_property(rng):
    # K z = M u: stiffness moments of the potential equal mass moments of u
    solver = _solver(n_x=12, p=3)
    u = rng.standard_normal(solver.space.dim)
    z = solver.solve_K(solver.M_x @ u)
    assert np.max(np.abs(solver.K_x @ z - solver.M_x @ u)) < 1e-11


def test_self_adjointness(rng):
    solver = _solver(n_x=10, p=2)
    M = solver.M_x
    for _ in range(5):
        u = rng.standard_normal(solver.space.dim)
        w = rng.standard_normal(solver.space.dim)
        lhs = (M @ solver.solve_K(M @ u)) @ w
        rhs = (M @ solver.solve_K(M @ w)) @ u
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_newton_matrix(rng):
    # sum((N C G) * C) with the dense Newton matrix N = M_x K_x^-1 M_x
    solver = _solver(n_x=12, p=3, c2=lambda x: 1.0 + x**2)
    N = solver.M_x @ np.linalg.solve(solver.K_x, solver.M_x)
    space_t = xw.make_uniform_space((0.0, 2.0), 5, 2, None, "zero-left")
    for G in (np.eye(space_t.dim), assemble_time_matrix(space_t, 1, 1, 2.0)):
        C = rng.standard_normal((solver.space.dim, space_t.dim))
        expected = np.sum((N @ C @ G) * C)
        assert solver.dual_form(C, G) == pytest.approx(expected, rel=1e-12, abs=0)


def test_eigenpairs():
    solver = _solver(n_x=12, p=3, c2=lambda x: 1.0 + x**2)
    lam, Phi = solver.eigenpairs
    assert np.all(lam > 0) and np.all(np.diff(lam) >= 0)
    assert np.allclose(Phi.T @ solver.M_x @ Phi, np.eye(lam.size), rtol=0, atol=1e-12)
    residual = solver.K_x @ Phi - solver.M_x @ Phi * lam
    assert np.max(np.abs(residual)) <= 1e-10 * lam.max()
    assert solver.eigenpairs is solver.eigenpairs


def test_norm_positivity(rng):
    solver = _solver(n_x=10, p=2)
    for _ in range(10):
        m = solver.M_x @ rng.standard_normal(solver.space.dim)
        assert m @ solver.solve_K(m) > 0


def test_discrete_norm_below_continuous(rng, load_moments):
    # nested refinement: the discrete dual norm increases towards the exact
    # one, so any coarse value stays below a much finer reference
    coarse = _solver(n_x=4, p=2)
    fine = _solver(n_x=64, p=2)
    for _ in range(10):
        c = rng.standard_normal(3)
        load = lambda x, c=c: c[0] * np.sin(np.pi * x) + c[1] * np.sin(2 * np.pi * x) + c[2] * x * (1 - x)
        m_coarse, m_fine = load_moments(coarse, load), load_moments(fine, load)
        norm_coarse = np.sqrt(m_coarse @ coarse.solve_K(m_coarse))
        assert norm_coarse <= np.sqrt(m_fine @ fine.solve_K(m_fine)) + 1e-12


def test_seminorm_two_paths_match(rng):
    T = 3.0
    solver = _solver(n_x=8, p=2)
    space_t = xw.make_uniform_space((0.0, T), 6, 2, None, "zero-left")
    w = rng.standard_normal((solver.space.dim, space_t.dim))

    def v(x, t):
        Bx = solver.space.tabulate(np.ravel(x), 0)
        Bt = space_t.tabulate(np.ravel(t), 0)
        return Bx @ w @ Bt.T

    # the coefficient form with the weighted time mass, and quadrature of
    # the sampled field, each moment solved through the factor of K_x
    a = np.sqrt(solver.dual_form(w, time_factors(space_t, T, 8)[0]))
    xq, wx, B = space_tables(solver.space, 8)
    tq, _, wt_e = time_panel_points(space_t.breakpoints, 8, T)
    b = np.sqrt(newton.weighted_dual_sq(solver, B[:, 0], wx, sample(v, xq, tq), wt_e))
    assert abs(a - b) < 1e-11 * max(1.0, a)


def test_weighted_dual_norm_bounds(rng, smooth_problem):
    # both inequalities relating the weighted dual seminorm, the weighted L2
    # norm and the potential's L2 norm, with constant C_Omega / c0
    prob = smooth_problem
    space_x = xw.make_uniform_space(prob.omega, 10, 2, None, "zero-both")
    solver = newton.make_newton_solver(space_x, prob.c2)
    T = prob.T
    space_t = xw.make_uniform_space((0.0, T), 8, 2, None, "zero-left")
    M_e = assemble_time_matrix(space_t, 0, 0, T, n_points=8)
    C = prob.poincare_constant / prob.c0
    for _ in range(20):
        w = rng.standard_normal((space_x.dim, space_t.dim))
        neh = np.sqrt(solver.dual_form(w, M_e))
        l2e = np.sqrt(np.sum((solver.M_x @ w @ M_e) * w))
        assert neh <= C * l2e + 1e-12
        # potential of the field, column by column in time coefficients
        z = solver.solve_K(solver.M_x @ w)
        pot_l2e = np.sqrt(np.sum((solver.M_x @ z @ M_e) * z))
        assert pot_l2e <= C * neh + 1e-12
