"""Univariate B-spline spaces on an interval.

Open (clamped) knot vectors with uniform interior multiplicity control the
inter-element regularity r = degree - multiplicity.  Boundary conditions are
imposed strongly by dropping the first and/or last basis function.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidRegularityError, InvalidSpaceError, OutOfDomainError

CONSTRAINTS = ("none", "zero-left", "zero-both")


@dataclass(frozen=True)
class KnotVector:
    """Breakpoint mesh plus degree and uniform interior knot multiplicity."""

    breakpoints: np.ndarray
    degree: int
    interior_multiplicity: int = 1

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        if bp.ndim != 1 or bp.size < 2:
            raise InvalidSpaceError("breakpoints must be a 1d array with at least 2 entries")
        if np.any(np.diff(bp) <= 0):
            raise InvalidSpaceError("breakpoints must be strictly increasing")
        if self.degree < 0:
            raise InvalidSpaceError("degree must be non-negative")
        m = self.interior_multiplicity
        if not (1 <= m <= max(self.degree, 1)):
            raise InvalidRegularityError(
                f"interior multiplicity {m} not in [1, {self.degree}] for degree {self.degree}"
            )

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
    """Points xs clipped to the closed interval; OutOfDomainError names the
    first point outside it by more than 1e-14 * max(1, interval length)."""
    a, b = interval
    xs = np.asarray(xs, dtype=float)
    tol = 1e-14 * max(1.0, b - a)
    bad = ~((xs >= a - tol) & (xs <= b + tol))
    if np.any(bad):
        raise OutOfDomainError(f"point {xs[bad][0]} outside [{a}, {b}]")
    return np.clip(xs, a, b)


def _ders_basis_funs(knots, p, xs, n_ders):
    """Values and derivatives of the p+1 B-splines active at each point.

    Returns the knot spans i with knots[i] <= x < knots[i+1] (clamped to the
    last element) and an array of shape (n_ders + 1, p + 1, len(xs)); standard
    triangular-table recursion (Cox-de Boor for values, inverted-table
    differences for derivatives), run on all points at once.  The branches
    depend on the degree and derivative order only, so every point takes the
    same sequence of operations.
    """
    spans = np.minimum(np.searchsorted(knots, xs, side="right") - 1, knots.size - p - 2)
    ndu = np.zeros((p + 1, p + 1, xs.size))
    left = np.zeros((p + 1, xs.size))
    right = np.zeros((p + 1, xs.size))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = xs - knots[spans + 1 - j]
        right[j] = knots[spans + j] - xs
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((n_ders + 1, p + 1, xs.size))
    ders[0] = ndu[:, p]
    a = np.zeros((2, p + 1, xs.size))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, n_ders + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    fac = float(p)
    for k in range(1, n_ders + 1):
        ders[k] *= fac
        fac *= p - k
    return spans, ders


@dataclass(frozen=True)
class SplineSpace:
    """B-spline space on an interval with optional homogeneous constraints."""

    knots: KnotVector
    constraint: str = "none"
    _full_knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.constraint not in CONSTRAINTS:
            raise InvalidSpaceError(f"unknown constraint {self.constraint!r}")
        object.__setattr__(self, "_full_knots", self.knots.full_knots())

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

    def tabulate(self, xs, deriv_order=0):
        """Dense matrix of basis values, shape (len(xs), dim).

        A sequence of derivative orders gives every order from one recursion,
        shape (len(xs), len(orders), dim); each table [:, k] is C-contiguous
        and equal bit for bit to the table of that order alone.
        """
        orders = np.atleast_1d(deriv_order)
        if orders.max() > self.degree:
            raise InvalidSpaceError("derivative order exceeds degree")
        xs = clip_to_interval(np.atleast_1d(xs), self.interval)
        spans, ders = _ders_basis_funs(self._full_knots, self.degree, xs, int(orders.max()))
        # constrained index of each point's p + 1 active functions
        cols = (spans - self.degree - self._left_removed)[:, None] + np.arange(self.degree + 1)
        kept = (cols >= 0) & (cols < self.dim)
        out = np.zeros((orders.size, xs.size, self.dim))
        out[:, np.nonzero(kept)[0], cols[kept]] = ders[orders].transpose(0, 2, 1)[:, kept]
        return out[0] if np.ndim(deriv_order) == 0 else out.transpose(1, 0, 2)


def make_space(breakpoints, degree, interior_multiplicity=1, constraint="none"):
    """Spline space on an arbitrary breakpoint mesh."""
    return SplineSpace(
        KnotVector(np.asarray(breakpoints, dtype=float), degree, interior_multiplicity),
        constraint,
    )


def make_uniform_space(interval, n_elements, degree, regularity=None, constraint="none"):
    """Uniform-mesh spline space with prescribed inter-element regularity.

    regularity defaults to degree-1 (maximal regularity, simple interior
    knots).
    """
    if n_elements < 1:
        raise InvalidSpaceError("n_elements must be >= 1")
    if degree < 1:
        raise InvalidSpaceError("degree must be >= 1")
    if regularity is None:
        regularity = degree - 1
    if not (0 <= regularity <= degree - 1):
        raise InvalidRegularityError(
            f"regularity {regularity} not in [0, {degree - 1}] for degree {degree}"
        )
    a, b = float(interval[0]), float(interval[1])
    breakpoints = np.linspace(a, b, n_elements + 1)
    return make_space(breakpoints, degree, degree - regularity, constraint)
