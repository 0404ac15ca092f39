import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from xtwave import splines
from xtwave.errors import InvalidRegularityError, OutOfDomainError
from xtwave.quadrature import panel_points


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


def test_numpy_integer_parameters_are_accepted():
    i = np.int64
    space = splines.make_uniform_space((0.0, 1.0), i(4), i(3), i(1))
    same = splines.make_uniform_space((0.0, 1.0), 4, 3, 1)
    assert space.knots.interior_multiplicity == 2 and space.dim == same.dim
    xs = np.linspace(0.0, 1.0, 9)
    for d in np.arange(2):
        assert np.array_equal(space.tabulate(xs, d), same.tabulate(xs, int(d)))
    # a bool is an integer order, as for element_table
    assert np.array_equal(space.tabulate(xs, True), same.tabulate(xs, 1))
    table, same_table = space.element_table(i(4), i(2)), same.element_table(4, 2)
    assert np.array_equal(table.values, same_table.values)


def test_value_equality_and_hash():
    # equal degree, multiplicity, constraint and breakpoints make equal
    # spaces with equal hashes, whatever the breakpoints' container
    space = splines.make_space([0.0, 0.5, 1.0], 2)
    same = splines.make_space(np.array([0.0, 0.5, 1.0]), 2)
    assert space == same and hash(space) == hash(same) and len({space, same}) == 1
    assert space.knots == same.knots and hash(space.knots) == hash(same.knots)
    assert splines.make_space([-0.0, 1.0], 1) == splines.make_space([0.0, 1.0], 1)
    assert hash(splines.make_space([-0.0, 1.0], 1)) == hash(splines.make_space([0.0, 1.0], 1))
    assert space != splines.make_space([0.0, 0.5, 1.0], 2, 1, "zero-left")
    for other in (
        splines.make_space([0.0, 0.5, 1.0], 3),
        splines.make_space([0.0, 0.5, 1.0], 2, 2),
        splines.make_space([0.0, 0.6, 1.0], 2),
        splines.make_space([0.0, 1.0], 2),
    ):
        assert space.knots != other.knots and space != other
    assert space.knots != (space.knots.breakpoints, 2, 1)


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


def _assert_product(actual, left, right):
    # each entry within the rounding bound of two orders of one sum of
    # 3-factor products of length n, 2 (n + 2) eps (|left| @ |right|) (Higham's
    # gamma bound); a cancelling entry may sit far below the largest one
    bound = 2 * (left.shape[1] + 2) * np.finfo(float).eps * (np.abs(left) @ np.abs(right))
    assert np.all(np.abs(actual - left @ right) <= bound)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 7),
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
                B = s.tabulate(xs, d) if d else s.tabulate(xs)  # the default order is 0
                ref = scipy_ref[:, cols]
                atol = 1e-12 * np.abs(ref).max(initial=1)
                np.testing.assert_allclose(B, ref, rtol=1e-12, atol=atol)
                assert np.array_equal(B, loop_ref[:, cols])


def _assert_close(actual, expected):
    # rtol 1e-13 against the largest entry: only the summation order differs
    atol = 1e-13 * np.abs(expected).max(initial=1e-300)
    np.testing.assert_allclose(actual, expected, rtol=0, atol=atol)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 7),
    a=st.floats(-2.0, 2.0),
    gaps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    extra=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
# an entry of gram(0, 1) whose terms cancel: it missed 1e-13 of the largest entry
@example(p=1, a=0.0, gaps=[1.0, 1.0], extra=2, seed=1065)
def test_element_tables_match_dense_tables(p, a, gaps, extra, seed):
    # Gram matrices, moments and values from the p + 1 active functions per
    # element equal the products of the dense tables of the same nodes
    rng = np.random.default_rng(seed)
    bp = a + np.concatenate(([0.0], np.cumsum(gaps)))
    n = p + extra
    xq, wq = panel_points(bp, n)
    w = wq * rng.uniform(0.5, 2.0, xq.size)
    values = rng.standard_normal((xq.size, 3))
    for m in range(1, p + 1):
        for constraint in splines.CONSTRAINTS:
            s = splines.make_space(bp, p, m, constraint)
            E = s.element_table(n)
            B = np.stack([s.tabulate(xq, d) for d in (0, 1)], axis=1)
            assert E.values.shape == (2, bp.size - 1, n, p + 1)
            C = rng.standard_normal((s.dim, 2))
            # values at points of known elements from their p + 1 functions
            el = rng.integers(0, bp.size - 1, 5)
            pts = bp[el] + rng.uniform(0.01, 0.99, 5) * np.diff(bp)[el]
            local = np.einsum("djr,rjk->drk", s._element_values(pts, el, 1), E._gather(C)[el])
            _assert_close(local, np.stack([s.tabulate(pts, d) for d in (0, 1)]) @ C)
            # tensor blocks of pairs of known elements, this space on both axes
            C2 = rng.standard_normal((s.dim, s.dim))
            Bp, dense = s._element_values(pts, el, 0)[0], s.tabulate(pts, 0)
            pairs = np.einsum("ar,rab,br->r", Bp, E.tensor_blocks(C2, E, el, el[::-1]), Bp[:, ::-1])
            _assert_close(pairs, np.einsum("ra,ab,rb->r", dense, C2, dense[::-1]))
            for d in (0, 1):
                for d_trial in (0, 1):
                    _assert_product(E.gram(d, d_trial, w), B[:, d].T, B[:, d_trial] * w[:, None])
                _assert_close(E.moments(values, d, w), B[:, d].T @ (values * w[:, None]))
                _assert_close(E.moments(values[:, 0], d), B[:, d].T @ values[:, 0])
                _assert_close(E.apply(C, d), B[:, d] @ C)
                out = np.empty((xq.size, 2))
                assert E.apply(C, d, out) is out
                _assert_close(out, B[:, d] @ C)
