"""Univariate matrices: the Kronecker factors of every block and norm.

Time matrices carry the exponential weight exp(-t/T); space matrices carry a
pointwise coefficient (typically the squared wave speed).
"""

import numpy as np

from .errors import AssemblyError, InvalidSpaceError, UnsupportedRuleError
from .quadrature import MAX_POINTS, exp_weights, index_or_negative


def default_n_points(*spaces, extra=2):
    """Gauss points per element on meshes of these spaces: the largest degree
    plus extra.  The system's rule (extra=2) integrates a product of two basis
    functions times a cubic exactly; errors and projectors use extra=3."""
    return max(space.degree for space in spaces) + extra


def rule_size(n_points, *spaces, extra=2):
    """n_points as an int, or default_n_points for None; UnsupportedRuleError
    unless n_points is an integer in [largest degree + 1, MAX_POINTS]."""
    if n_points is None:
        return default_n_points(*spaces, extra=extra)
    lo, n = default_n_points(*spaces, extra=1), index_or_negative(n_points)
    if n not in range(lo, MAX_POINTS + 1):
        raise UnsupportedRuleError(
            f"rule size {n_points!r} outside [{lo}, {MAX_POINTS}]: degree + 1 to the largest rule"
        )
    return n


def finite(values, name):
    """values, or AssemblyError naming the term name if any is non-finite."""
    if not np.all(np.isfinite(values)):
        raise AssemblyError(f"{name} is non-finite at a quadrature node")
    return values


def check_interval(space, interval, name):
    """InvalidSpaceError unless space is on interval within 1e-12."""
    (a, b), (lo, hi) = space.interval, interval
    if abs(a - lo) > 1e-12 or abs(b - hi) > 1e-12:
        raise InvalidSpaceError(f"{name} interval ({a}, {b}) does not match ({lo}, {hi})")


def assemble_time_matrix(space, d_trial, d_test, T, n_points=None):
    """Matrix of time integrals with weight exp(-t/T) of the basis derivatives
    of order d_test (rows) and d_trial (columns) of a space on (0, T); the
    derivative test basis theta' is d_test=1."""
    check_interval(space, (0, T), "space_t")
    E = space.element_table(rule_size(n_points, space), max(d_trial, d_test))
    return E.gram(d_test, d_trial, exp_weights(E.nodes, E.weights, T))


def time_factors(space_t, T, n_points):
    """M_e, S_e and A_e (A_e[b, c] = (theta_b', theta_c)), weighted by
    exp(-t/T), of a zero-left time space on (0, T), from one ElementTable E
    of theta and theta' (order 1, the test basis) on a rule of n_points per
    element.  Also returns E and its weights wt_e times exp(-t/T) for load
    vectors."""
    if space_t.constraint != "zero-left":
        raise InvalidSpaceError("space_t must have constraint zero-left")
    check_interval(space_t, (0, T), "space_t")
    E = space_t.element_table(n_points)
    wt_e = exp_weights(E.nodes, E.weights, T)
    return E.gram(0, 0, wt_e), E.gram(1, 1, wt_e), E.gram(1, 0, wt_e), E, wt_e


def assemble_space_matrix(E, order, coefficient=None):
    """Matrix of unweighted space integrals of the basis derivatives of one
    order with a pointwise coefficient, on the ElementTable E of the space."""
    if coefficient is None:
        coefficient = np.ones_like
    return E.gram(order, order, E.weights * finite(coefficient(E.nodes), "coefficient"))
