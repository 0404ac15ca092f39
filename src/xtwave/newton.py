"""Discrete Newton potential: inverse of the spatial elliptic operator.

The operator maps a load to the spline field whose c^2-weighted stiffness
moments reproduce the load's mass moments.  It induces the dual (semi)norms
entering the stability and error norms.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .forms import assemble_space_matrix, assemble_time_matrix
from .quadrature import panel_points, time_panel_points


@dataclass
class NewtonSolver:
    """The spatial operator: mass M_x, c^2-stiffness K_x and the Cholesky
    factor of K_x on a zero-both spline space, assembled once and shared by
    the block system, the discrete norms and the projectors; N and the
    eigenpairs of (K_x, M_x) are computed on first use."""

    space: object
    c2: callable
    M_x: np.ndarray
    K_x: np.ndarray
    K_cho: tuple
    n_quad: int

    def solve_K(self, rhs):
        return sla.cho_solve(self.K_cho, rhs)

    @cached_property
    def N(self):
        """Discrete Newton potential matrix M_x K_x^-1 M_x."""
        return self.M_x @ self.solve_K(self.M_x)

    @cached_property
    def eigenpairs(self):
        """(lam, Phi) with K_x Phi = M_x Phi diag(lam) and Phi^T M_x Phi = I:
        the space modes that split the block system."""
        return sla.eigh(self.K_x, self.M_x)


def make_newton_solver(space_x, c2, n_quad=None):
    n = n_quad or space_x.degree + 2
    M_x = assemble_space_matrix(space_x, space_x, 0, 0, n_points=n).matrix
    K_x = assemble_space_matrix(space_x, space_x, 1, 1, c2, n_points=n).matrix
    return NewtonSolver(space_x, c2, M_x, K_x, sla.cho_factor(K_x), n)


def moment_vector(solver, load):
    """Mass moments of a load against the space basis: a callable load is
    integrated by quadrature, a coefficient vector is multiplied by M_x."""
    if not callable(load):
        return solver.M_x @ np.asarray(load, dtype=float)
    xq, wq = panel_points(solver.space.breakpoints, solver.n_quad)
    B = solver.space.tabulate(xq, 0)
    vals = np.asarray(load(xq), dtype=float)
    return B.T @ (wq * vals)


def apply(solver, load):
    """Newton potential coefficients: K_x z = (load, basis)."""
    return solver.solve_K(moment_vector(solver, load))


def norm_Nh(solver, load):
    """Discrete dual seminorm of a load (norm on the spline space itself)."""
    m = moment_vector(solver, load)
    val = float(m @ solver.solve_K(m))
    return np.sqrt(max(val, 0.0))


def weighted_dual_sq(solver, B, wx, values, wt_e):
    """Exponentially weighted time integral of the squared dual seminorm of a
    load given at space nodes (rows, basis table B, weights wx) and time nodes
    (columns, weights wt_e)."""
    moments = B.T @ (values * wx[:, None])  # (n_x, n_tq)
    z = solver.solve_K(moments)
    return float(wt_e @ np.einsum("aq,aq->q", moments, z))


def seminorm_Neh(solver, v, mesh_t, T, n_quad=None):
    """Exponentially weighted time integral of the squared dual seminorm.

    v is either a callable v(x, t) broadcasting over tensor grids, or a
    coefficient matrix (space dim x time dim) paired with a time space via
    the tuple (coeffs, space_t).
    """
    n = n_quad or solver.n_quad
    if isinstance(v, tuple):
        coeffs, space_t = v
        # quadratic form w^T (M_e kron N) w evaluated factor-wise
        M_e = assemble_time_matrix(space_t, space_t, 0, 0, T, n_points=n).matrix
        val = float(np.sum((solver.N @ coeffs @ M_e) * coeffs))
        return np.sqrt(max(val, 0.0))
    bp_t = mesh_t.breakpoints if hasattr(mesh_t, "breakpoints") else np.asarray(mesh_t)
    tq, _, wt_e = time_panel_points(bp_t, n, T)
    xq, wx = panel_points(solver.space.breakpoints, n)
    B = solver.space.tabulate(xq, 0)
    vals = np.broadcast_to(
        np.asarray(v(xq[:, None], tq[None, :]), dtype=float), (xq.size, tq.size)
    )
    return np.sqrt(max(weighted_dual_sq(solver, B, wx, vals, wt_e), 0.0))
