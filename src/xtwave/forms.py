"""Univariate matrices: the Kronecker factors of every block and norm.

Time matrices carry the exponential weight exp(-t/T); space matrices carry a
pointwise coefficient (typically the squared wave speed).
"""

import numpy as np

from .errors import AssemblyError, DomainMismatchError, InvalidSpaceError
from .quadrature import panel_points, time_panel_points


def _check_same_interval(trial, test):
    a0, b0 = trial.interval
    a1, b1 = test.interval
    if abs(a0 - a1) > 1e-12 or abs(b0 - b1) > 1e-12:
        raise DomainMismatchError(
            f"trial interval ({a0}, {b0}) does not match test interval ({a1}, {b1})"
        )


def default_n_points(*spaces, extra=2):
    """Gauss points per element on meshes of these spaces: the largest degree
    plus extra.  The system's rule (extra=2) integrates a product of two basis
    functions times a cubic exactly; errors and projectors use extra=3."""
    return max(space.degree for space in spaces) + extra


def space_tables(space, n_points):
    """(xq, wq, B): the composite rule of n_points per element on the mesh of
    space and its basis tables of orders 0 and 1, B[:, d] of order d, from
    one recursion, to be shared by every matrix and load on that rule."""
    xq, wq = panel_points(space.breakpoints, n_points)
    return xq, wq, space.tabulate(xq, (0, 1))


def weighted_gram(b_test, b_trial, w):
    """Matrix sum_q w_q b_test[q, i] b_trial[q, j] of two basis tables."""
    return b_test.T @ (b_trial * w[:, None])


def _gram(trial, test, d_trial, d_test, xq, w):
    b_test = test.tabulate(xq, d_test)
    # a symmetric factor (same space, same order) needs one table
    same = trial is test and d_trial == d_test
    b_trial = b_test if same else trial.tabulate(xq, d_trial)
    return weighted_gram(b_test, b_trial, w)


def assemble_time_matrix(trial, test, d_trial, d_test, T, n_points=None):
    """Matrix of time integrals with weight exp(-t/T)."""
    _check_same_interval(trial, test)
    a, b = trial.interval
    if abs(a) > 1e-12 or abs(b - T) > 1e-12:
        raise DomainMismatchError(f"time spaces must live on (0, {T}), got ({a}, {b})")
    n = n_points or default_n_points(trial, test)
    tq, _, wt_e = time_panel_points(trial.breakpoints, n, T)
    return _gram(trial, test, d_trial, d_test, tq, wt_e)


def time_factors(space_t, T, n_points):
    """M_e, S_e and A_e (A_e[b, c] = (theta_b', theta_c)), weighted by
    exp(-t/T), of a zero-left time space on (0, T), from one table each of
    theta and theta' (the test basis) on a rule of n_points per element.
    Also returns (tq, wt_e, theta') for load vectors; no table is kept."""
    if space_t.constraint != "zero-left":
        raise InvalidSpaceError("space_t must have constraint zero-left")
    a, b = space_t.interval
    if abs(a) > 1e-12 or abs(b - T) > 1e-12:
        raise InvalidSpaceError(f"space_t interval ({a}, {b}) does not match (0, {T})")
    tq, _, wt_e = time_panel_points(space_t.breakpoints, n_points, T)
    B = space_t.tabulate(tq, (0, 1))
    theta, dtheta = B[:, 0], B[:, 1]
    M_e = weighted_gram(theta, theta, wt_e)
    S_e = weighted_gram(dtheta, dtheta, wt_e)
    A_e = weighted_gram(dtheta, theta, wt_e)
    return M_e, S_e, A_e, (tq, wt_e, dtheta)


def assemble_space_matrix(
    trial, test, d_trial, d_test, coefficient=None, n_points=None, tables=None
):
    """Matrix of unweighted space integrals with a pointwise coefficient.
    tables, the space_tables of trial when test is trial, replace the rule
    of n_points and the tabulation of both bases."""
    _check_same_interval(trial, test)
    if coefficient is None:
        coefficient = np.ones_like
    if tables is None:
        xq, wq = panel_points(trial.breakpoints, n_points or default_n_points(trial, test))
    else:
        xq, wq, B = tables
    fvals = coefficient(xq)
    if not np.all(np.isfinite(fvals)):
        raise AssemblyError("coefficient is non-finite at a quadrature node")
    if tables is None:
        return _gram(trial, test, d_trial, d_test, xq, wq * fvals)
    return weighted_gram(B[:, d_test], B[:, d_trial], wq * fvals)
