"""Discrete Newton potential: inverse of the spatial elliptic operator.

The operator maps a load to the spline field whose c^2-weighted stiffness
moments reproduce the load's mass moments.  It induces the dual (semi)norms
entering the stability and error norms.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dtbtrs

from .errors import InvalidSpaceError
from .forms import assemble_space_matrix


@dataclass(eq=False)
class NewtonSolver:
    """The spatial operator: mass M_x and c^2-stiffness K_x on a zero-both
    spline space, assembled once and shared by the block system, the
    discrete norms and the projectors.

    K_x has half-bandwidth p, the degree, so its one factor is the lower
    band Cholesky factor K_x = L L^T (K_band, cholesky_banded's lower
    storage: row k holds the k-th subdiagonal), built on first use.
    solve_K solves with L and L^T; the Newton (dual) norms need only
    solve_L, one band triangular solve, since m^T K_x^-1 m = |L^-1 m|^2.
    The dense M_x and K_x stay for the pencil (K_x, M_x), whose eigenpairs
    (for solve) and eigenvalues alone (for estimate_infsup) are each
    computed on first use."""

    space: object
    M_x: np.ndarray
    K_x: np.ndarray

    @cached_property
    def K_band(self):
        K, n = self.K_x, len(self.K_x)
        ab = np.zeros((self.space.degree + 1, n))
        for k in range(len(ab)):
            ab[k, : n - k] = K.diagonal(-k)
        return sla.cholesky_banded(ab, lower=True)

    def solve_K(self, rhs):
        return sla.cho_solve_banded((self.K_band, True), rhs)

    def solve_L(self, rhs):
        """L^-1 rhs for a 2-d rhs (n_x, k), by LAPACK tbtrs."""
        y, info = dtbtrs(self.K_band, rhs, uplo="L")
        if info:
            raise np.linalg.LinAlgError(f"dtbtrs returned info {info}")
        return y

    def dual_form(self, C, G):
        """sum((N C G) * C) with the Newton matrix N = M_x K_x^-1 M_x, for a
        coefficient array C (space dim x time dim) and a symmetric time
        factor G, computed as sum((Y G) * Y) with Y = L^-1 M_x C."""
        Y = self.solve_L(self.mass(C))
        return float(np.sum((Y @ G) * Y))

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

    @cached_property
    def eigenvalues(self):
        """lam of eigenpairs, by eigh without eigenvectors: all that the
        inf-sup estimate reads.  It may differ from eigenpairs[0] in the
        last bits, since LAPACK takes another route without vectors."""
        return sla.eigh(self.K_x, self.M_x, eigvals_only=True)


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
    give one value each, from one triangular solve: m^T K_x^-1 m is the
    squared norm of y = L^-1 m."""
    y = solver.solve_L(moments.reshape(len(moments), -1)).reshape(moments.shape)
    return np.einsum("a...q,a...q->...q", y, y) @ wt_e
