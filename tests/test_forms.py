import numpy as np
import pytest
import scipy.integrate

from xtwave import splines
from xtwave.errors import AssemblyError, InvalidSpaceError
from xtwave.forms import assemble_space_matrix, assemble_time_matrix, default_n_points, space_tables


def _tables(space, n_points=None):
    return space_tables(space, n_points or default_n_points(space))


def test_single_degree_zero_element():
    T = 3.0
    s = splines.make_space([0.0, T], 0, 1, "none")
    m = assemble_time_matrix(s, 0, 0, T, n_points=12)
    closed = T * (1.0 - np.exp(-1.0))
    oracle, _ = scipy.integrate.quad(lambda t: np.exp(-t / T), 0.0, T)
    assert m.shape == (1, 1)
    assert abs(m[0, 0] - closed) < 1e-12
    assert abs(m[0, 0] - oracle) < 1e-12


def test_time_matrix_symmetry():
    T = 2.0
    s = splines.make_uniform_space((0.0, T), 6, 3, None, "zero-left")
    for d in (0, 1):
        m = assemble_time_matrix(s, d, d, T)
        assert np.max(np.abs(m - m.T)) < 1e-13


def test_weighted_identity_linear_function():
    # w(t) = t in a degree-1 zero-left space on (0, 1): the quadratic form of
    # the derivative pairing equals (1/2T)|w|^2_e + (1/2e)|w(T)|^2, both 1 - 2/e
    T = 1.0
    s = splines.make_uniform_space((0.0, T), 4, 1, 0, "zero-left")
    A = assemble_time_matrix(s, 0, 1, T, n_points=12)
    v = s.breakpoints[1:]
    value = v @ A @ v
    closed = 1.0 - 2.0 * np.exp(-1.0)
    oracle, _ = scipy.integrate.quad(lambda t: t * np.exp(-t), 0.0, 1.0)
    assert abs(value - closed) < 1e-12
    assert abs(value - oracle) < 1e-12


def test_hat_stiffness_tridiagonal():
    h = 0.25
    s = splines.make_uniform_space((0.0, 1.0), 4, 1, 0, "zero-both")
    K = assemble_space_matrix(_tables(s), 1)
    assert np.allclose(np.diag(K), 2.0 / h)
    assert np.allclose(np.diag(K, 1), -1.0 / h)
    assert np.allclose(np.triu(K, 2), 0.0)


def test_mass_total_equals_measure():
    s = splines.make_uniform_space((0.0, 2.0), 5, 3, None, "none")
    M = assemble_space_matrix(_tables(s), 0)
    assert abs(M.sum() - 2.0) < 1e-12
    # SPD after constraints
    sc = splines.make_uniform_space((0.0, 2.0), 5, 3, None, "zero-both")
    Mc = assemble_space_matrix(_tables(sc), 0)
    Kc = assemble_space_matrix(_tables(sc), 1)
    assert np.all(np.linalg.eigvalsh(Mc) > 0)
    assert np.all(np.linalg.eigvalsh(Kc) > 0)


def test_stiffness_coefficient_monotonicity():
    s = splines.make_uniform_space((0.0, 1.0), 6, 2, None, "zero-both")
    K1 = assemble_space_matrix(_tables(s), 1, lambda x: np.ones_like(x))
    K2 = assemble_space_matrix(_tables(s), 1, lambda x: 2.0 * np.ones_like(x))
    Kc = assemble_space_matrix(_tables(s), 1, lambda x: x + 1.0)
    # diagonal entries are integrals of non-negative integrands
    d1, d2, dc = np.diag(K1), np.diag(K2), np.diag(Kc)
    assert np.all(dc >= d1 - 1e-13)
    assert np.all(dc <= d2 + 1e-13)


def test_entry_matches_adaptive_quadrature():
    s = splines.make_uniform_space((0.0, 1.0), 3, 2, None, "none")
    c2 = lambda x: x + 1.0
    K = assemble_space_matrix(_tables(s, 8), 1, c2)
    i, j = 1, 2
    f = lambda x: c2(x) * s.tabulate([x], 1)[0, i] * s.tabulate([x], 1)[0, j]
    oracle, _ = scipy.integrate.quad(f, 0.0, 1.0, limit=200)
    assert abs(K[i, j] - oracle) < 1e-10


def test_domain_mismatch():
    s1 = splines.make_uniform_space((0.0, 1.0), 4, 2)
    with pytest.raises(InvalidSpaceError):
        assemble_time_matrix(s1, 0, 0, T=3.0)


def test_nonfinite_coefficient():
    s = splines.make_uniform_space((0.0, 1.0), 4, 2)
    with pytest.raises(AssemblyError):
        assemble_space_matrix(_tables(s), 0, lambda x: np.full_like(x, np.nan))
