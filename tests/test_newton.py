import numpy as np

import xtwave as xw
from xtwave import newton
from xtwave.forms import assemble_time_matrix


def _solver(n_x=16, p=2, c2=None, omega=(0.0, 1.0)):
    space = xw.make_uniform_space(omega, n_x, p, None, "zero-both")
    return newton.make_newton_solver(space, c2 or (lambda x: np.ones_like(x)))


def test_zero_load():
    solver = _solver()
    z = newton.apply(solver, lambda x: np.zeros_like(x))
    assert np.allclose(z, 0.0)
    assert newton.norm_Nh(solver, lambda x: np.zeros_like(x)) == 0.0


def test_converges_to_exact_potential():
    # -phi'' = sin(pi x), phi(0) = phi(1) = 0 has solution sin(pi x) / pi^2
    solver = _solver(n_x=64, p=2)
    z = newton.apply(solver, lambda x: np.sin(np.pi * x))
    xs = np.linspace(0, 1, 301)
    exact = np.sin(np.pi * xs) / np.pi**2
    err = solver.space.evaluate(z, xs) - exact
    assert np.sqrt(np.trapezoid(err**2, xs)) < 1e-5


def test_defining_property(rng):
    # K z = M u: stiffness moments of the potential equal mass moments of u
    solver = _solver(n_x=12, p=3)
    u = rng.standard_normal(solver.space.dim)
    z = newton.apply(solver, u)
    assert np.max(np.abs(solver.K_x @ z - solver.M_x @ u)) < 1e-11


def test_self_adjointness(rng):
    solver = _solver(n_x=10, p=2)
    M = solver.M_x
    for _ in range(5):
        u = rng.standard_normal(solver.space.dim)
        w = rng.standard_normal(solver.space.dim)
        lhs = (M @ newton.apply(solver, u)) @ w
        rhs = (M @ newton.apply(solver, w)) @ u
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_newton_matrix():
    solver = _solver(n_x=12, p=3, c2=lambda x: 1.0 + x**2)
    N = solver.N
    assert np.allclose(N, solver.M_x @ np.linalg.solve(solver.K_x, solver.M_x), rtol=1e-12, atol=0)
    assert np.max(np.abs(N - N.T)) <= 1e-12 * np.max(np.abs(N))
    assert solver.N is N


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
        u = rng.standard_normal(solver.space.dim)
        assert newton.norm_Nh(solver, u) > 0


def test_discrete_norm_below_continuous(rng):
    # nested refinement: the discrete dual norm increases towards the exact
    # one, so any coarse value stays below a much finer reference
    coarse = _solver(n_x=4, p=2)
    fine = _solver(n_x=64, p=2)
    for _ in range(10):
        c = rng.standard_normal(3)
        load = lambda x, c=c: c[0] * np.sin(np.pi * x) + c[1] * np.sin(2 * np.pi * x) + c[2] * x * (1 - x)
        assert newton.norm_Nh(coarse, load) <= newton.norm_Nh(fine, load) + 1e-12


def test_seminorm_two_paths_match(rng):
    T = 3.0
    solver = _solver(n_x=8, p=2)
    space_t = xw.make_uniform_space((0.0, T), 6, 2, None, "zero-left")
    w = rng.standard_normal((solver.space.dim, space_t.dim))

    def v(x, t):
        Bx = solver.space.tabulate(np.ravel(x), 0)
        Bt = space_t.tabulate(np.ravel(t), 0)
        return Bx @ w @ Bt.T

    a = newton.seminorm_Neh(solver, (w, space_t), None, T, n_quad=8)
    b = newton.seminorm_Neh(solver, v, space_t.knots, T, n_quad=8)
    assert abs(a - b) < 1e-11 * max(1.0, a)


def test_weighted_dual_norm_bounds(rng, smooth_problem):
    # both inequalities relating the weighted dual seminorm, the weighted L2
    # norm and the potential's L2 norm, with constant C_Omega / c0
    prob = smooth_problem
    space_x = xw.make_uniform_space(prob.omega, 10, 2, None, "zero-both")
    solver = newton.make_newton_solver(space_x, prob.c2)
    T = prob.T
    space_t = xw.make_uniform_space((0.0, T), 8, 2, None, "zero-left")
    M_e = assemble_time_matrix(space_t, space_t, 0, 0, T, n_points=8).matrix
    C = prob.poincare_constant / prob.c0
    for _ in range(20):
        w = rng.standard_normal((space_x.dim, space_t.dim))
        neh = newton.seminorm_Neh(solver, (w, space_t), None, T, n_quad=8)
        l2e = np.sqrt(np.sum((solver.M_x @ w @ M_e) * w))
        assert neh <= C * l2e + 1e-12
        # potential of the field, column by column in time coefficients
        z = solver.solve_K(solver.M_x @ w)
        pot_l2e = np.sqrt(np.sum((solver.M_x @ z @ M_e) * z))
        assert pot_l2e <= C * neh + 1e-12
