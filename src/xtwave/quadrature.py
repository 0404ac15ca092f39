"""Composite Gauss-Legendre quadrature on breakpoint meshes."""

import operator
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import UnsupportedRuleError

MAX_POINTS = 64


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on the reference element (0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_rule(n_points):
    """Gauss-Legendre rule with n_points nodes on (0, 1).

    Rules are computed once per size and shared, so their arrays are
    read-only.
    """
    try:
        n = operator.index(n_points)
    except TypeError:
        raise UnsupportedRuleError(f"n_points must be an integer, got {n_points!r}") from None
    if not (1 <= n <= MAX_POINTS):
        raise UnsupportedRuleError(f"n_points must be in [1, {MAX_POINTS}], got {n_points}")
    return _cached_rule(n)


@cache
def _cached_rule(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    rule = QuadratureRule(nodes=0.5 * (nodes + 1.0), weights=0.5 * weights)
    rule.nodes.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


def panel_points(breakpoints, n_points):
    """Nodes and weights of the composite rule over all elements.

    Returns flat arrays of length n_elements * n_points, element by element.
    A stack of meshes (last axis the breakpoints) gives one such row per mesh.
    """
    bp = np.asarray(breakpoints, dtype=float)
    rule = gauss_rule(n_points)
    lengths = np.diff(bp)
    shape = (*lengths.shape[:-1], lengths.shape[-1] * n_points)
    xq = (bp[..., :-1, None] + lengths[..., None] * rule.nodes).reshape(shape)
    wq = (lengths[..., None] * rule.weights).reshape(shape)
    return xq, wq


def time_panel_points(breakpoints, n_points, T):
    """Composite rule on a time mesh: nodes, plain weights and the weights
    times the exponential time weight exp(-t/T) of every time integral."""
    tq, wt = panel_points(breakpoints, n_points)
    return tq, wt, wt * np.exp(-tq / T)


def sample(f, x, t):
    """Values of f(x, t) at space nodes x and time nodes t as a float array
    (len(x), n_t): t is one time vector for all rows or one row of times per
    space node.  A read-only broadcast view when f returns fewer axes."""
    t = np.asarray(t)
    t = t[None, :] if t.ndim == 1 else t
    return np.broadcast_to(np.asarray(f(x[:, None], t), dtype=float), (x.size, t.shape[-1]))
