"""Univariate B-spline spaces on an interval.

Open (clamped) knot vectors with uniform interior multiplicity control the
inter-element regularity r = degree - multiplicity.  Boundary conditions are
imposed strongly by dropping the first and/or last basis function.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidRegularityError, InvalidSpaceError, OutOfDomainError
from .quadrature import index_or_negative, panel_points

CONSTRAINTS = ("none", "zero-left", "zero-both")


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Breakpoint mesh plus degree and uniform interior knot multiplicity.
    Two knot vectors are equal when degree, multiplicity and breakpoints
    are, and equal ones hash alike, so spaces can be compared and kept in
    sets."""

    breakpoints: np.ndarray
    degree: int
    interior_multiplicity: int = 1

    def __post_init__(self):
        try:
            bp = np.asarray(self.breakpoints, dtype=float)
        except (TypeError, ValueError):
            raise InvalidSpaceError(
                f"breakpoints must be numbers, got {self.breakpoints!r}"
            ) from None
        object.__setattr__(self, "breakpoints", bp)
        if bp.ndim != 1 or bp.size < 2:
            raise InvalidSpaceError("breakpoints must be a 1d array with at least 2 entries")
        if not (np.all(np.isfinite(bp)) and np.all(np.diff(bp) > 0)):
            raise InvalidSpaceError(f"breakpoints must be finite and strictly increasing, got {bp}")
        p, m = index_or_negative(self.degree), index_or_negative(self.interior_multiplicity)
        if p < 0:
            raise InvalidSpaceError(f"degree must be a non-negative integer, got {self.degree!r}")
        if not 1 <= m <= max(p, 1):
            raise InvalidRegularityError(
                f"multiplicity m = {self.interior_multiplicity!r} (regularity {p} - m) "
                f"not an integer in [1, {max(p, 1)}]"
            )
        # plain ints, so that a bool or a NumPy integer is written as a number
        object.__setattr__(self, "degree", p)
        object.__setattr__(self, "interior_multiplicity", m)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.degree == other.degree
            and self.interior_multiplicity == other.interior_multiplicity
            and np.array_equal(self.breakpoints, other.breakpoints)
        )

    def __hash__(self):
        # hash(0.0) == hash(-0.0), as array_equal takes them equal
        return hash((self.degree, self.interior_multiplicity, *self.breakpoints.tolist()))

    @property
    def interval(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def full_knots(self):
        """Open knot sequence: endpoints repeated degree+1 times."""
        p = self.degree
        interior = np.repeat(self.breakpoints[1:-1], self.interior_multiplicity)
        return np.concatenate(
            (
                np.full(p + 1, self.breakpoints[0]),
                interior,
                np.full(p + 1, self.breakpoints[-1]),
            )
        )


def clip_to_interval(xs, interval):
    """Points xs (a point or a 1d array) as a 1d array clipped to the closed
    interval; OutOfDomainError refuses non-numbers, any other shape and the
    first point outside it by more than 1e-14 * max(1, interval length)."""
    a, b = interval
    try:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
    except (TypeError, ValueError):
        raise OutOfDomainError(f"points must be numbers, got {xs!r}") from None
    if xs.ndim != 1:
        raise OutOfDomainError(f"points must be a 1d array, got shape {xs.shape}")
    tol = 1e-14 * max(1.0, b - a)
    bad = ~((xs >= a - tol) & (xs <= b + tol))
    if np.any(bad):
        raise OutOfDomainError(f"point {xs[bad][0]} outside [{a}, {b}]")
    return np.clip(xs, a, b)


def _check_orders(lowest, highest, degree):
    """highest as an int; InvalidSpaceError unless 0 <= lowest <= highest <= degree."""
    if not 0 <= index_or_negative(lowest) <= index_or_negative(highest) <= degree:
        raise InvalidSpaceError(f"derivative orders {lowest}, {highest} not ints in [0, {degree}]")
    return index_or_negative(highest)


def _ders_basis_funs(knots, p, xs, n_ders, spans):
    """Values and derivatives of the p+1 B-splines active at each point.

    Returns an array of shape (n_ders + 1, p + 1, len(xs)) of the functions
    i - p .. i of each point's knot span i.  Piegl and Tiller's A2.2
    (Cox-de Boor values) and A2.3 (inverted-table derivatives), each step
    run on all functions and points at once; every entry takes A2.2/A2.3's
    operations in their order.
    """
    steps = np.arange(1, p + 1)[:, None]
    right = knots[spans + steps] - xs  # right[i] = knots[span + 1 + i] - x
    left = xs - knots[spans + steps - p]  # left[p - 1 - i] = x - knots[span - i]
    # A2.2 by degree q: values[q] holds the q + 1 functions of degree q,
    # diffs[q] the q knot differences that divide the degree q - 1 ones
    values, diffs = [np.ones((1, xs.size))], [None]
    for q in range(1, p + 1):
        diffs.append(right[:q] + left[p - q :])
        temp = values[q - 1] / diffs[q]
        N = np.zeros((q + 1, xs.size))
        N[:q] = right[:q] * temp
        N[1:] += left[p - q :] * temp
        values.append(N)

    # A2.3 for order k: padding the degree p - k values with k zero rows and
    # the degree p - k + 1 differences with k rows of ones on each side makes
    # its edge cases the general a[j] = (a_prev[j] - a_prev[j - 1]) / den; row
    # j + 1 of a holds a[j], so rows 0 and k + 1 are a_prev[-1] = a_prev[k] = 0
    ders = np.zeros((n_ders + 1, p + 1, xs.size))
    ders[0] = values[p]
    a = np.zeros((n_ders + 2, p + 1, xs.size))
    a[1] = 1.0
    for k in range(1, n_ders + 1):
        N = np.zeros((p + k + 1, xs.size))
        N[k : p + 1] = values[p - k]
        den = np.ones((p + k + 1, xs.size))
        den[k : p + 1] = diffs[p - k + 1]
        for j in range(k, -1, -1):  # downwards: a[j] still holds order k - 1
            a[j + 1] -= a[j]
            a[j + 1] /= den[j : j + p + 1]
        for j in range(k + 1):
            ders[k] += a[j + 1] * N[j : j + p + 1]
        ders[k] *= math.perm(p, k)  # p! / (p - k)!
    return ders


@dataclass(frozen=True, eq=False)
class ElementTable:
    """Basis values on the composite Gauss rule of n_points nodes per
    element, element by element: values[d, e, q, j] is the derivative of
    order d of the unconstrained basis function first[e] + j at node q of
    element e, so each node holds only its p + 1 active functions.
    first[e] = step * e, step the interior knot multiplicity.  Every
    contraction multiplies the (p + 1)-wide element blocks, sums them in the
    unconstrained index space of n_basis functions and keeps the rows of the
    constrained basis, kept; the rows of node arrays are the rule's nodes and
    weights, element by element, as panel_points orders them."""

    values: np.ndarray  # (n_orders, n_el, n_points, p + 1)
    step: int
    n_basis: int
    kept: slice
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def first(self):
        return self.step * np.arange(self.values.shape[1])

    def _blocks(self, d, w):
        B = self.values[d]
        return B if w is None else B * w.reshape(B.shape[:2])[:, :, None]

    def _index(self):
        """(n_el, p + 1): the unconstrained index of every active function."""
        return self.first[:, None] + np.arange(self.values.shape[-1])

    def moments(self, f, d=0, w=None):
        """B_d^T (w * f): moments of node values f (one row per node, any
        trailing axes) against the basis of order d, times node weights w."""
        B = self._blocks(d, w)
        local = B.transpose(0, 2, 1) @ f.reshape(*B.shape[:2], -1)  # (n_el, p + 1, k)
        out = np.zeros((self.n_basis, local.shape[-1]))
        step, n_el = self.step, local.shape[0]
        for j in range(local.shape[1]):  # rows first + j, distinct for each j
            out[j : j + step * n_el : step] += local[:, j]
        return out[self.kept].reshape(-1, *f.shape[1:])

    def gram(self, d_test, d_trial, w):
        """Matrix sum_q w_q b_test[q, a] b_trial[q, b] of the basis orders
        d_test (rows) and d_trial (columns): one (p + 1) x (p + 1) block per
        element, summed into place by one bincount."""
        local = self._blocks(d_test, w).transpose(0, 2, 1) @ self.values[d_trial]
        index, n = self._index(), self.n_basis
        flat = index[:, :, None] * n + index[:, None, :]
        G = np.bincount(flat.ravel(), local.ravel(), n * n).reshape(n, n)
        return np.ascontiguousarray(G[self.kept, self.kept])

    def _gather(self, C):
        """(n_el, p + 1, k): the rows of C (dim, k) of each element's active
        functions, zero for the functions the constraint drops."""
        padded = np.zeros((self.n_basis, C.shape[1]))
        padded[self.kept] = C
        return padded[self._index()]

    def tensor_blocks(self, C, other, elements, other_elements):
        """(len(elements), p + 1, q + 1): the coefficients C (dim, other's
        dim) of the functions active on element elements[r] of this table
        (rows) and element other_elements[r] of other (columns, q its
        degree), zero for the functions either constraint drops."""
        padded = np.zeros((self.n_basis, other.n_basis))
        padded[self.kept, other.kept] = C
        return padded[self._index()[elements, :, None], other._index()[other_elements, None, :]]

    def apply(self, C, d=0, out=None):
        """B_d @ C: node values (one row per node) of the fields whose
        coefficients are the columns of C (dim, k), from one batched product
        of the element blocks; written into out, a C-contiguous
        (n_nodes, k) array, when it is given."""
        B = self.values[d]
        if out is None:
            out = np.empty((B.shape[0] * B.shape[1], C.shape[1]))
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        np.matmul(B, self._gather(C), out=out.reshape(*B.shape[:2], -1))
        return out


@dataclass(frozen=True)
class SplineSpace:
    """B-spline space on an interval with optional homogeneous constraints."""

    knots: KnotVector
    constraint: str = "none"
    _full_knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.constraint, str) and self.constraint in CONSTRAINTS):
            raise InvalidSpaceError(f"unknown constraint {self.constraint!r}")
        object.__setattr__(self, "_full_knots", self.knots.full_knots())
        if self.dim < 0:
            raise InvalidSpaceError(f"constraint {self.constraint} leaves dim {self.dim} < 0")

    @property
    def degree(self):
        return self.knots.degree

    @property
    def interval(self):
        return self.knots.interval

    @property
    def breakpoints(self):
        return self.knots.breakpoints

    @property
    def _left_removed(self):
        return 1 if self.constraint in ("zero-left", "zero-both") else 0

    @property
    def _right_removed(self):
        return 1 if self.constraint == "zero-both" else 0

    @property
    def dim_unconstrained(self):
        return self._full_knots.size - self.degree - 1

    @property
    def dim(self):
        return self.dim_unconstrained - self._left_removed - self._right_removed

    def _elements(self, xs):
        """Element of each point xs: the last one starting at or left of it."""
        bp = self.breakpoints
        return np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, bp.size - 2)

    def tabulate(self, xs, deriv_order=0):
        """Dense matrix of the basis' derivatives of order deriv_order (an
        integer), shape (len(xs), dim), at a point or a 1d array of points
        xs; any other shape raises OutOfDomainError."""
        p, m = self.degree, self.knots.interior_multiplicity
        d = _check_orders(deriv_order, deriv_order, p)
        xs = clip_to_interval(xs, self.interval)
        elements = self._elements(xs)
        values = self._element_values(xs, elements, d)[d]
        # constrained index of each point's p + 1 active functions
        cols = (m * elements - self._left_removed)[:, None] + np.arange(p + 1)
        kept = (cols >= 0) & (cols < self.dim)
        out = np.zeros((xs.size, self.dim))
        out[np.nonzero(kept)[0], cols[kept]] = values.T[kept]
        return out

    def _element_values(self, xs, elements, max_order):
        """Derivatives of orders 0..max_order of the p + 1 functions active
        on element elements[q] at each point xs[q], shape (max_order + 1,
        p + 1, len(xs)); row j of element e is the unconstrained function
        m e + j (m the interior multiplicity).  Element e is knot span
        p + m e, so a point is taken in the element it is given, whatever its
        rounding; neither points nor orders are checked."""
        spans = self.degree + self.knots.interior_multiplicity * elements
        return _ders_basis_funs(self._full_knots, self.degree, xs, max_order, spans)

    def element_table(self, n_points, max_order=1):
        """ElementTable of derivative orders 0..max_order on the composite
        rule of n_points Gauss nodes per element of this space's mesh."""
        p, max_order = self.degree, _check_orders(0, max_order, self.degree)
        xq, wq = panel_points(self.breakpoints, n_points)
        m, n_el = self.knots.interior_multiplicity, self.breakpoints.size - 1
        ders = self._element_values(xq, np.arange(n_el).repeat(n_points), max_order)
        values = ders.reshape(max_order + 1, p + 1, n_el, n_points).transpose(0, 2, 3, 1)
        n = self.dim_unconstrained
        kept = slice(self._left_removed, n - self._right_removed)
        return ElementTable(np.ascontiguousarray(values), m, n, kept, xq, wq)


def make_space(breakpoints, degree, interior_multiplicity=1, constraint="none"):
    """Spline space on an arbitrary breakpoint mesh."""
    return SplineSpace(KnotVector(breakpoints, degree, interior_multiplicity), constraint)


def make_uniform_space(interval, n_elements, degree, regularity=None, constraint="none"):
    """Uniform-mesh spline space with prescribed inter-element regularity.

    regularity defaults to degree-1 (maximal regularity, simple interior
    knots).
    """
    if index_or_negative(n_elements) < 1:
        raise InvalidSpaceError(f"n_elements must be a positive integer, got {n_elements!r}")
    if index_or_negative(degree) < 1:
        raise InvalidSpaceError(f"degree must be an integer >= 1, got {degree!r}")
    if regularity is None:
        regularity = degree - 1
    elif index_or_negative(regularity) < 0:
        raise InvalidRegularityError(f"regularity {regularity!r} is not a non-negative integer")
    try:
        a, b = map(float, interval)
    except (TypeError, ValueError):
        raise InvalidSpaceError(f"interval must be two numbers, got {interval!r}") from None
    breakpoints = np.linspace(a, b, n_elements + 1)
    return make_space(breakpoints, degree, degree - regularity, constraint)
