import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from xtwave import splines
from xtwave.errors import InvalidRegularityError, OutOfDomainError


def test_dimension_examples():
    s = splines.make_uniform_space((0.0, 1.0), 4, 2, 1, "none")
    assert s.dim == 6
    s = splines.make_uniform_space((0.0, 1.0), 4, 3, 1, "none")
    assert s.dim == 10
    s = splines.make_uniform_space((0.0, 3.0), 8, 1, 0, "zero-left")
    assert s.dim == 8


def test_dimension_formula():
    # dim = (p+1) + sum of interior multiplicities - constrained endpoints
    for p in (1, 2, 3, 4):
        for m in range(1, p + 1):
            for ne in (1, 2, 5):
                for constraint, removed in (("none", 0), ("zero-left", 1), ("zero-both", 2)):
                    s = splines.make_space(np.linspace(0, 1, ne + 1), p, m, constraint)
                    assert s.dim == (p + 1) + (ne - 1) * m - removed


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 4),
    ne=st.integers(1, 8),
    x=st.floats(0.0, 1.0, allow_nan=False),
)
def test_partition_of_unity(p, ne, x):
    s = splines.make_uniform_space((0.0, 1.0), ne, p, None, "none")
    row = s.tabulate([x], 0)[0]
    assert np.count_nonzero(row) <= p + 1
    assert abs(row.sum() - 1.0) < 1e-12
    assert np.all(row >= -1e-14)


def test_hat_derivative():
    s = splines.make_uniform_space((0.0, 1.0), 4, 1, 0, "none")
    row = s.tabulate([0.3], 1)[0]
    assert sorted(np.round(row[row != 0], 10)) == [-4.0, 4.0]


def test_constraints_vanish_at_endpoints():
    for constraint in ("zero-left", "zero-both"):
        s = splines.make_uniform_space((0.0, 2.0), 5, 3, None, constraint)
        left = s.tabulate([0.0], 0)
        assert np.allclose(left, 0.0)
        right = s.tabulate([2.0], 0)
        if constraint == "zero-both":
            assert np.allclose(right, 0.0)
        else:
            assert np.max(np.abs(right)) > 0.5


def test_regularity_across_breakpoints():
    # derivative jumps vanish up to order r = p - multiplicity
    for p, m in ((3, 1), (3, 2), (4, 2)):
        s = splines.make_space(np.linspace(0, 1, 5), p, m, "none")
        r = p - m
        eps = 1e-9
        for bp in s.breakpoints[1:-1]:
            for d in range(r + 1):
                lv = s.tabulate([bp - eps], d)
                rv = s.tabulate([bp + eps], d)
                assert np.max(np.abs(lv - rv)) < 1e-4


def test_spline_reproduces_polynomials():
    # least-squares fit of x^k is exact for k <= p
    s = splines.make_uniform_space((0.0, 1.0), 4, 3, 1, "none")
    xs = np.linspace(0, 1, 80)
    B = s.tabulate(xs, 0)
    for k in range(4):
        coeffs, *_ = np.linalg.lstsq(B, xs**k, rcond=None)
        assert np.max(np.abs(B @ coeffs - xs**k)) < 1e-10


def test_out_of_domain():
    s = splines.make_uniform_space((0.0, 1.0), 4, 2)
    with pytest.raises(OutOfDomainError):
        s.tabulate(1.5, 0)
    # one bad point fails the whole batch, and the message names it
    for bad in (1.5, -1e-9, np.nan):
        with pytest.raises(OutOfDomainError, match=f"point {bad} outside"):
            s.tabulate([0.0, 0.3, bad, 1.0, 2.0], 0)


def test_domain_tolerance_scales_with_length():
    s = splines.make_uniform_space((0.0, 1e3), 4, 2)
    # 5e-12 past the end is roundoff on an interval of length 1e3 ...
    assert np.array_equal(s.tabulate([1e3 + 5e-12, -5e-12]), s.tabulate([1e3, 0.0]))
    # ... 5e-11 is not
    with pytest.raises(OutOfDomainError):
        s.tabulate([1e3 + 5e-11])
    unit = splines.make_uniform_space((0.0, 1.0), 4, 2)
    with pytest.raises(OutOfDomainError):
        unit.tabulate([1.0 + 5e-14])


def test_invalid_regularity():
    with pytest.raises(InvalidRegularityError):
        splines.make_uniform_space((0.0, 1.0), 4, 2, regularity=2)
    with pytest.raises(InvalidRegularityError):
        splines.make_space(np.linspace(0, 1, 5), 2, 3)


def test_increasing_breakpoints_required():
    with pytest.raises(ValueError):
        splines.make_space([0.0, 0.5, 0.5, 1.0], 2)


def test_evaluate_linear_exact():
    # coefficients at Greville points reproduce w(t) = t
    s = splines.make_uniform_space((0.0, 1.0), 5, 1, 0, "zero-left")
    coeffs = s.breakpoints[1:]
    xs = np.linspace(0, 1, 23)
    assert np.max(np.abs(s.tabulate(xs, 0) @ coeffs - xs)) < 1e-13


def _scalar_tabulate(knots, p, xs, d):
    """Point-by-point Cox-de Boor and inverted-table recursion (Piegl & Tiller
    A2.2/A2.3), written out with scalars: the reference of the batched kernel.
    Dense values of all unconstrained basis functions."""
    n_basis = knots.size - p - 1
    out = np.zeros((len(xs), n_basis))
    for row, x in enumerate(xs):
        span = n_basis - 1 if x >= knots[n_basis] else np.searchsorted(knots, x, "right") - 1
        ndu = np.zeros((p + 1, p + 1))
        left, right = np.zeros(p + 1), np.zeros(p + 1)
        ndu[0, 0] = 1.0
        for j in range(1, p + 1):
            left[j] = x - knots[span + 1 - j]
            right[j] = knots[span + j] - x
            saved = 0.0
            for r in range(j):
                ndu[j, r] = right[r + 1] + left[j - r]
                temp = ndu[r, j - 1] / ndu[j, r]
                ndu[r, j] = saved + right[r + 1] * temp
                saved = left[j - r] * temp
            ndu[j, j] = saved
        ders = np.zeros((d + 1, p + 1))
        ders[0] = ndu[:, p]
        a = np.zeros((2, p + 1))
        for r in range(p + 1):
            s1, s2 = 0, 1
            a[0, 0] = 1.0
            for k in range(1, d + 1):
                dk = 0.0
                rk, pk = r - k, p - k
                if r >= k:
                    a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                    dk = a[s2, 0] * ndu[rk, pk]
                j1 = 1 if rk >= -1 else -rk
                j2 = k - 1 if r - 1 <= pk else p - r
                for j in range(j1, j2 + 1):
                    a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                    dk += a[s2, j] * ndu[rk + j, pk]
                if r <= pk:
                    a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                    dk += a[s2, k] * ndu[r, pk]
                ders[k, r] = dk
                s1, s2 = s2, s1
        fac = float(p)
        for k in range(1, d + 1):
            ders[k] *= fac
            fac *= p - k
        out[row, span - p : span + 1] = ders[d]
    return out


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 5),
    a=st.floats(-2.0, 2.0),
    gaps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_tabulate_matches_references(p, a, gaps, fractions):
    # element lengths within a factor 20 of each other keep the derivative
    # recursions well conditioned at rtol 1e-12
    bp = a + np.concatenate(([0.0], np.cumsum(gaps)))
    inner = bp[0] + (bp[-1] - bp[0]) * np.asarray(fractions)
    xs = np.clip(np.concatenate((bp, inner)), bp[0], bp[-1])
    for m in range(1, p + 1):
        knots = splines.KnotVector(bp, p, m).full_knots()
        n_basis = knots.size - p - 1
        everything = BSpline(knots, np.eye(n_basis), p)
        for d in range(p + 1):
            if d == 0:
                scipy_ref = BSpline.design_matrix(xs, knots, p).toarray()
            else:
                # BSpline.derivative refuses orders past the knot multiplicity
                scipy_ref = everything(xs, nu=d)
            loop_ref = _scalar_tabulate(knots, p, xs, d)
            for constraint in splines.CONSTRAINTS:
                s = splines.make_space(bp, p, m, constraint)
                cols = slice(s._left_removed, n_basis - s._right_removed)
                B = s.tabulate(xs, d)
                ref = scipy_ref[:, cols]
                atol = 1e-12 * np.abs(ref).max(initial=1)
                np.testing.assert_allclose(B, ref, rtol=1e-12, atol=atol)
                assert np.array_equal(B, loop_ref[:, cols])


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 5),
    gaps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    data=st.data(),
)
def test_multi_order_tabulate_is_the_single_order_tables(p, gaps, fractions, data):
    bp = np.concatenate(([0.0], np.cumsum(gaps)))
    xs = np.concatenate((bp, bp[-1] * np.asarray(fractions)))
    orders = data.draw(st.lists(st.integers(0, p), min_size=1, max_size=p + 1, unique=True))
    for m in range(1, p + 1):
        for constraint in splines.CONSTRAINTS:
            s = splines.make_space(bp, p, m, constraint)
            B = s.tabulate(xs, tuple(orders))
            assert B.shape == (xs.size, len(orders), s.dim)
            for k, d in enumerate(orders):
                assert B[:, k].flags.c_contiguous
                assert np.array_equal(B[:, k], s.tabulate(xs, d))
