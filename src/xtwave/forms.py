"""Univariate matrices: the Kronecker factors of every block and norm.

Time matrices carry the exponential weight exp(-t/T); space matrices carry a
pointwise coefficient (typically the squared wave speed).
"""

import numpy as np

from .errors import AssemblyError, InvalidSpaceError
from .quadrature import panel_points, time_panel_points


def default_n_points(*spaces, extra=2):
    """Gauss points per element on meshes of these spaces: the largest degree
    plus extra.  The system's rule (extra=2) integrates a product of two basis
    functions times a cubic exactly; errors and projectors use extra=3."""
    return max(space.degree for space in spaces) + extra


def space_tables(space, n_points):
    """(xq, wq, E): the composite rule of n_points per element on the mesh of
    space and the ElementTable E of its basis of orders 0 and 1 there, from
    one recursion, to be shared by every matrix and load on that rule."""
    xq, wq = panel_points(space.breakpoints, n_points)
    return xq, wq, space.element_table(xq, n_points)


def _check_time_interval(space_t, T):
    a, b = space_t.interval
    if abs(a) > 1e-12 or abs(b - T) > 1e-12:
        raise InvalidSpaceError(f"space_t interval ({a}, {b}) does not match (0, {T})")


def assemble_time_matrix(space, d_trial, d_test, T, n_points=None):
    """Matrix of time integrals with weight exp(-t/T) of the basis derivatives
    of order d_test (rows) and d_trial (columns) of a space on (0, T); the
    derivative test basis theta' is d_test=1."""
    _check_time_interval(space, T)
    n = n_points or default_n_points(space)
    tq, _, wt_e = time_panel_points(space.breakpoints, n, T)
    E = space.element_table(tq, n, max(d_trial, d_test))
    return E.gram(d_test, d_trial, wt_e)


def time_factors(space_t, T, n_points):
    """M_e, S_e and A_e (A_e[b, c] = (theta_b', theta_c)), weighted by
    exp(-t/T), of a zero-left time space on (0, T), from one ElementTable of
    theta and theta' (order 1, the test basis) on a rule of n_points per
    element.  Also returns (tq, wt_e, E) for load vectors; no table is
    kept."""
    if space_t.constraint != "zero-left":
        raise InvalidSpaceError("space_t must have constraint zero-left")
    _check_time_interval(space_t, T)
    tq, _, wt_e = time_panel_points(space_t.breakpoints, n_points, T)
    E = space_t.element_table(tq, n_points)
    return E.gram(0, 0, wt_e), E.gram(1, 1, wt_e), E.gram(1, 0, wt_e), (tq, wt_e, E)


def assemble_space_matrix(tables, order, coefficient=None):
    """Matrix of unweighted space integrals of the basis derivatives of one
    order with a pointwise coefficient, on the space_tables of the space."""
    xq, wq, E = tables
    if coefficient is None:
        coefficient = np.ones_like
    fvals = coefficient(xq)
    if not np.all(np.isfinite(fvals)):
        raise AssemblyError("coefficient is non-finite at a quadrature node")
    return E.gram(order, order, wq * fvals)
