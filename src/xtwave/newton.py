"""Discrete Newton potential: inverse of the spatial elliptic operator.

The operator maps a load to the spline field whose c^2-weighted stiffness
moments reproduce the load's mass moments.  It induces the dual (semi)norms
entering the stability and error norms.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import InvalidSpaceError
from .forms import assemble_space_matrix, default_n_points, space_tables


@dataclass
class NewtonSolver:
    """The spatial operator: mass M_x, c^2-stiffness K_x and the Cholesky
    factor of K_x on a zero-both spline space, assembled once and shared by
    the block system, the discrete norms and the projectors.  dual_form
    evaluates the discrete Newton (dual) norm through solve_K; the
    eigenpairs of (K_x, M_x) are computed on first use."""

    space: object
    M_x: np.ndarray
    K_x: np.ndarray
    K_cho: tuple

    def solve_K(self, rhs):
        return sla.cho_solve(self.K_cho, rhs)

    def dual_form(self, C, G):
        """sum((N C G) * C) with the Newton matrix N = M_x K_x^-1 M_x, for a
        coefficient array C (space dim x time dim) and a symmetric time
        factor G, computed as sum((K_x^-1 M_x C G) * (M_x C)) without N."""
        MC = self.M_x @ C
        return float(np.sum(self.solve_K(MC @ G) * MC))

    @cached_property
    def eigenpairs(self):
        """(lam, Phi) with K_x Phi = M_x Phi diag(lam) and Phi^T M_x Phi = I:
        the space modes that split the block system."""
        return sla.eigh(self.K_x, self.M_x)


def make_newton_solver(space_x, c2, n_quad=None, tables=None):
    """The spatial operator of a zero-both space; any other constraint
    leaves K_x singular and is refused with InvalidSpaceError.  M_x and K_x
    come from one table of both orders: tables, the space_tables of space_x
    on the rule of n_quad points when the caller shares them, else its own."""
    if space_x.constraint != "zero-both":
        raise InvalidSpaceError("space_x must have constraint zero-both")
    n = n_quad or default_n_points(space_x)
    if tables is None:
        tables = space_tables(space_x, n)
    M_x = assemble_space_matrix(tables, 0)
    K_x = assemble_space_matrix(tables, 1, c2)
    return NewtonSolver(space_x, M_x, K_x, sla.cho_factor(K_x))


def weighted_dual_sq(solver, B, wx, values, wt_e):
    """Exponentially weighted time integral of the squared dual seminorm of a
    load given at space nodes (rows, basis table B, weights wx) and time nodes
    (columns, weights wt_e)."""
    moments = B.T @ (values * wx[:, None])  # (n_x, n_tq)
    z = solver.solve_K(moments)
    return float(wt_e @ np.einsum("aq,aq->q", moments, z))
