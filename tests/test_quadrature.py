import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from xtwave.errors import IntegrationError, UnsupportedRuleError
from xtwave.quadrature import MAX_POINTS, gauss_rule, integrate, panel_points, time_panel_points


def test_midpoint_rule():
    rule = gauss_rule(1)
    assert np.allclose(rule.nodes, [0.5])
    assert np.allclose(rule.weights, [1.0])


def test_two_point_rule():
    rule = gauss_rule(2)
    assert np.allclose(sorted(rule.nodes), [0.5 - 1 / (2 * np.sqrt(3)), 0.5 + 1 / (2 * np.sqrt(3))])


def test_cubic_exactness():
    rule = gauss_rule(2)
    assert abs(np.dot(rule.weights, rule.nodes**3) - 0.25) < 1e-15


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 20), k=st.integers(0, 10))
def test_polynomial_exactness(n, k):
    rule = gauss_rule(n)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    if k <= 2 * n - 1:
        exact = 1.0 / (k + 1)
        assert abs(np.dot(rule.weights, rule.nodes**k) - exact) < 1e-13


def test_rule_size_limits():
    with pytest.raises(UnsupportedRuleError):
        gauss_rule(0)
    with pytest.raises(UnsupportedRuleError):
        gauss_rule(MAX_POINTS + 1)


def test_rule_size_must_be_an_integer():
    for n in (2.0, 2.5):
        with pytest.raises(UnsupportedRuleError):
            gauss_rule(n)
    rule = gauss_rule(np.int64(3))
    assert rule is gauss_rule(3)
    assert rule.nodes.size == 3


def test_cached_rule_is_read_only():
    rule = gauss_rule(4)
    assert gauss_rule(4) is rule
    for arr in (rule.nodes, rule.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the composite rule built from it is the caller's own
    xq, wq = panel_points([0.0, 1.0, 3.0], 4)
    assert xq.flags.writeable and wq.flags.writeable
    xq[0] = wq[0] = -1.0
    assert gauss_rule(4).nodes[0] > 0.0


def test_panel_points_cover_elements():
    bp = np.array([0.0, 0.5, 2.0])
    xq, wq = panel_points(bp, 3)
    assert xq.size == wq.size == 6
    assert abs(wq.sum() - 2.0) < 1e-14
    assert np.all((xq > 0) & (xq < 2))
    # a stack of meshes gives the rows of the separate calls
    xs, ws = panel_points(np.array([bp, [0.0, 1.5, 2.0]]), 3)
    assert np.array_equal(xs[0], xq) and np.array_equal(ws[0], wq)
    assert np.array_equal(xs[1], panel_points([0.0, 1.5, 2.0], 3)[0])


def test_integrate_constant():
    assert abs(integrate(lambda x: np.ones_like(x), np.linspace(0, 1, 5), 4) - 1.0) < 1e-15


def test_integrate_weighted_exponential():
    # closed form T(1 - e^{-1}) with an adaptive-quadrature cross-check
    T = 3.0
    mesh = np.linspace(0.0, T, 9)
    value = integrate(lambda t: np.exp(-t / T), mesh, 10)
    closed = T * (1.0 - np.exp(-1.0))
    oracle, _ = scipy.integrate.quad(lambda t: np.exp(-t / T), 0.0, T)
    assert abs(value - closed) < 1e-12
    assert abs(value - oracle) < 1e-12
    # the same integral through the weights of the time-mesh rule
    _, _, wt_e = time_panel_points(mesh, 10, T)
    assert abs(wt_e.sum() - closed) < 1e-12


def test_integrate_t_times_weight():
    # closed form T^2 (1 - 2 e^{-1}) for T = 1
    mesh = np.linspace(0.0, 1.0, 9)
    value = integrate(lambda t: t * np.exp(-t), mesh, 10)
    closed = 1.0 - 2.0 * np.exp(-1.0)
    oracle, _ = scipy.integrate.quad(lambda t: t * np.exp(-t), 0.0, 1.0)
    assert abs(value - closed) < 1e-12
    assert abs(value - oracle) < 1e-12


def test_integration_error_reports_node():
    with pytest.raises(IntegrationError) as err:
        integrate(lambda x: np.where(x == x[0], np.nan, x), np.linspace(0, 1, 3), 4)
    assert err.value.node is not None
    assert 0.0 < err.value.node < 1.0
