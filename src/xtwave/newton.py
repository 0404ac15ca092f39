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
from .forms import assemble_space_matrix


@dataclass
class NewtonSolver:
    """The spatial operator: mass M_x and c^2-stiffness K_x on a zero-both
    spline space, assembled once and shared by the block system, the
    discrete norms and the projectors.  dual_form evaluates the discrete
    Newton (dual) norm through solve_K; the Cholesky factor of K_x and the
    eigenpairs of (K_x, M_x) are computed on first use."""

    space: object
    M_x: np.ndarray
    K_x: np.ndarray

    @cached_property
    def K_cho(self):
        return sla.cho_factor(self.K_x)

    def solve_K(self, rhs):
        return sla.cho_solve(self.K_cho, rhs)

    def dual_form(self, C, G):
        """sum((N C G) * C) with the Newton matrix N = M_x K_x^-1 M_x, for a
        coefficient array C (space dim x time dim) and a symmetric time
        factor G, computed as sum((K_x^-1 M_x C G) * (M_x C)) without N."""
        MC = self.M_x @ C
        return float(np.sum(self.solve_K(MC @ G) * MC))

    def mass(self, C):
        """M_x @ C from the 2p + 1 diagonals of M_x, p the degree of the
        space: basis functions more than p apart share no element."""
        M = self.M_x
        out = M.diagonal()[:, None] * C
        for k in range(1, self.space.degree + 1):
            out[:-k] += M.diagonal(k)[:, None] * C[k:]
            out[k:] += M.diagonal(-k)[:, None] * C[:-k]
        return out

    @cached_property
    def eigenpairs(self):
        """(lam, Phi) with K_x Phi = M_x Phi diag(lam) and Phi^T M_x Phi = I:
        the space modes that split the block system."""
        return sla.eigh(self.K_x, self.M_x)


def make_newton_solver(space_x, c2, E):
    """The spatial operator of a zero-both space; any other constraint
    leaves K_x singular and is refused with InvalidSpaceError.  M_x and K_x
    come from E, the ElementTable of space_x the caller shares."""
    if space_x.constraint != "zero-both":
        raise InvalidSpaceError("space_x must have constraint zero-both")
    M_x = assemble_space_matrix(E, 0)
    K_x = assemble_space_matrix(E, 1, c2)
    return NewtonSolver(space_x, M_x, K_x)


def weighted_dual_sq(solver, moments, wt_e):
    """Exponentially weighted time integral of the squared dual seminorm of a
    load given by its mass moments against the solver's space (first axis)
    at time nodes (last axis, weights wt_e).  Loads stacked on middle axes
    give one value each, from one solve."""
    z = solver.solve_K(moments.reshape(len(moments), -1)).reshape(moments.shape)
    return np.einsum("a...q,a...q->...q", moments, z) @ wt_e
