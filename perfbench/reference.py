"""Reference computations made apart from xtwave, and the checks built on them.

Everything here rebuilds what it compares from the breakpoints, degrees and
problem callables alone: knot vectors, a Gauss-Legendre rule from
scipy.special, basis values from scipy.interpolate.BSpline, Kronecker
matvecs and the trial/test Gram matrices of the paper's norms.  No xtwave
function is called.  Each check returns a list of failure messages; an empty
list means the check passed.
"""

import numpy as np
import scipy.linalg as sla
from scipy.interpolate import BSpline
from scipy.special import roots_legendre

RESIDUAL_LIMIT = 1e-10
FACTOR_RTOL = 1e-12
EVAL_RTOL = 1e-12
GAMMA_RTOL = 1e-8


def gauss_points(breakpoints, n):
    """Composite n-point Gauss-Legendre nodes and weights over the mesh."""
    z, w = roots_legendre(n)
    bp = np.asarray(breakpoints, dtype=float)
    h = np.diff(bp)
    x = bp[:-1, None] + 0.5 * h[:, None] * (z[None, :] + 1.0)
    return x.ravel(), (0.5 * h[:, None] * w[None, :]).ravel()


def knot_vector(breakpoints, degree, multiplicity):
    """Open knot vector: ends repeated degree+1 times, interior `multiplicity` times."""
    bp = np.asarray(breakpoints, dtype=float)
    return np.concatenate(
        [np.full(degree + 1, bp[0]), np.repeat(bp[1:-1], multiplicity), np.full(degree + 1, bp[-1])]
    )


class Basis:
    """Constrained B-spline basis: the open basis minus the dropped end functions."""

    def __init__(self, breakpoints, degree, multiplicity, drop_left, drop_right):
        self.t = knot_vector(breakpoints, degree, multiplicity)
        self.k = degree
        self.n_full = self.t.size - degree - 1
        self.keep = slice(int(drop_left), self.n_full - int(drop_right))

    @classmethod
    def of_space(cls, space):
        """Basis of an xtwave space, read from its breakpoints and constraint only."""
        kv = space.knots
        drop_left = space.constraint in ("zero-left", "zero-both")
        drop_right = space.constraint == "zero-both"
        return cls(kv.breakpoints, kv.degree, kv.interior_multiplicity, drop_left, drop_right)

    def values(self, x, deriv=0):
        """Basis values (deriv 0) or first derivatives (deriv 1), shape (len(x), dim)."""
        x = np.asarray(x, dtype=float)
        if deriv == 0:
            full = BSpline.design_matrix(x, self.t, self.k).toarray()
        elif deriv == 1:
            full = self._first_derivative(x)
        else:
            raise ValueError("only values and first derivatives are needed")
        return full[:, self.keep]

    def _first_derivative(self, x):
        # N'_{i,p} = p N_{i,p-1} / (t[i+p] - t[i]) - p N_{i+1,p-1} / (t[i+p+1] - t[i+1]);
        # column j of the degree p-1 matrix on t[1:-1] is N_{j+1,p-1}.
        p, t, n = self.k, self.t, self.n_full
        low = BSpline.design_matrix(x, t[1:-1], p - 1).toarray()
        out = np.zeros((x.size, n))
        for i in range(n):
            if i >= 1 and t[i + p] > t[i]:
                out[:, i] += p / (t[i + p] - t[i]) * low[:, i - 1]
            if i <= n - 2 and t[i + p + 1] > t[i + 1]:
                out[:, i] -= p / (t[i + p + 1] - t[i + 1]) * low[:, i]
        return out


def gram(basis_a, basis_b, breakpoints, n, da=0, db=0, weight=None):
    """Matrix of integrals  sum_q w_q weight(x_q) a_i^(da)(x_q) b_j^(db)(x_q)."""
    x, w = gauss_points(breakpoints, n)
    if weight is not None:
        w = w * weight(x)
    return basis_a.values(x, da).T @ (basis_b.values(x, db) * w[:, None])


class Factors:
    """Kronecker factors and right-hand side of the space-time system.

    Rows of the time pairings are test functions theta_i', columns trial
    functions theta_j; the unknowns are the shifted fields U - U0, V - V0.
    """

    def __init__(self, problem, space_x, space_t, n_quad):
        T = problem.T
        bx, bt = Basis.of_space(space_x), Basis.of_space(space_t)
        wexp = lambda t: np.exp(-t / T)  # noqa: E731
        xbp, tbp = space_x.knots.breakpoints, space_t.knots.breakpoints
        self.M_x = gram(bx, bx, xbp, n_quad)
        self.K_x = gram(bx, bx, xbp, n_quad, 1, 1, problem.c2)
        self.M_e = gram(bt, bt, tbp, n_quad, weight=wexp)
        self.S_e = gram(bt, bt, tbp, n_quad, 1, 1, wexp)
        self.A_e = gram(bt, bt, tbp, n_quad, 1, 0, wexp)

        xq, wx = gauss_points(xbp, n_quad)
        tq, wt = gauss_points(tbp, n_quad)
        wte = wt * np.exp(-tq / T)
        Bx, dBx, dBt = bx.values(xq), bx.values(xq, 1), bt.values(tq, 1)
        F = np.broadcast_to(np.asarray(problem.F(xq[:, None], tq[None, :]), float), (xq.size, tq.size))
        d_e = dBt.T @ wte
        load_F = (Bx * wx[:, None]).T @ F @ (dBt * wte[:, None])
        g_U0 = dBx.T @ (wx * problem.c2(xq) * problem.dU0(xq))
        m_V0 = Bx.T @ (wx * problem.V0(xq))
        self.rhs_lam = load_F - np.outer(g_U0, d_e)
        self.rhs_chi = -np.outer(m_V0, d_e)

    def apply(self, U, V):
        """Block operator on coefficient matrices (space x time) by Kronecker matvecs."""
        lam = self.K_x @ U @ self.A_e.T + self.M_x @ V @ self.S_e.T
        chi = -self.M_x @ U @ self.S_e.T + self.M_x @ V @ self.A_e.T
        return lam, chi

    def dense_matrix(self):
        """The block matrix itself, unknowns ordered space index fastest."""
        return np.block(
            [
                [np.kron(self.A_e, self.K_x), np.kron(self.S_e, self.M_x)],
                [-np.kron(self.S_e, self.M_x), np.kron(self.A_e, self.M_x)],
            ]
        )


def _rel_diff(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def check_factors(factors, system):
    """M_x, K_x and M_e of the program's system against the reference assembly."""
    fails = []
    for name in ("M_x", "K_x", "M_e"):
        mine, theirs = getattr(factors, name), getattr(system, name)
        if mine.shape != theirs.shape:
            fails.append(f"{name}: shape {theirs.shape}, reference {mine.shape}")
            continue
        d = _rel_diff(theirs, mine)
        if not d <= FACTOR_RTOL:
            fails.append(f"{name}: relative difference {d:.3e} > {FACTOR_RTOL:g}")
    return fails


def check_residual(factors, solution):
    """Relative Galerkin residual of the program's solution, by reference matvecs."""
    lam, chi = factors.apply(solution.u_coeffs, solution.v_coeffs)
    r = np.hypot(np.linalg.norm(lam - factors.rhs_lam), np.linalg.norm(chi - factors.rhs_chi))
    f = np.hypot(np.linalg.norm(factors.rhs_lam), np.linalg.norm(factors.rhs_chi))
    rel = r / f if f > 0 else r
    if not rel <= RESIDUAL_LIMIT:
        return [f"Galerkin residual {rel:.3e} > {RESIDUAL_LIMIT:g}"]
    return []


def reference_values(solution, problem, xs, ts):
    """(U, V) on the grid xs x ts from BSpline bases, initial-data shift added."""
    bx, bt = Basis.of_space(solution.space_x), Basis.of_space(solution.space_t)
    Bx, Bt = bx.values(xs), bt.values(ts)
    u = Bx @ solution.u_coeffs @ Bt.T + problem.U0(xs)[:, None]
    v = Bx @ solution.v_coeffs @ Bt.T + problem.V0(xs)[:, None]
    return u, v


def check_values(u, v, u_ref, v_ref, what):
    """Program values (u, v) against reference values to rounding."""
    fails = []
    for name, a, b in (("U", u, u_ref), ("V", v, v_ref)):
        d = float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))
        if not d <= EVAL_RTOL:
            fails.append(f"{what}: {name} differs from the reference by {d:.3e}")
    return fails


def infsup_lower_bound(problem):
    """Closed-form bound 1 / (2 sqrt(C_Omega^2 / c0^2 + 4 T^2)), C_Omega = |Omega| / pi."""
    c_omega = (problem.omega[1] - problem.omega[0]) / np.pi
    return 1.0 / (2.0 * np.sqrt((c_omega / problem.c0) ** 2 + 4.0 * problem.T**2))


def reference_gamma(factors):
    """Smallest singular value of Y^-1/2 B X^-1/2 with the paper's trial/test norms.

    Trial norm of (U, V): weighted L2 of dU/dt and c grad U, Newton norm of
    dV/dt and weighted L2 of V.  Test norm: weighted L2 of the lambda test
    function's time derivative and Newton norm of chi's.  N = M K^-1 M is the
    Gram matrix of the discrete Newton (dual) norm.
    """
    f = factors
    N = f.M_x @ np.linalg.solve(f.K_x, f.M_x)
    X = sla.block_diag(np.kron(f.S_e, f.M_x) + np.kron(f.M_e, f.K_x), np.kron(f.S_e, N) + np.kron(f.M_e, f.M_x))
    Y = sla.block_diag(np.kron(f.S_e, f.M_x), np.kron(f.S_e, N))
    L_X = np.linalg.cholesky(0.5 * (X + X.T))
    L_Y = np.linalg.cholesky(0.5 * (Y + Y.T))
    scaled = sla.solve_triangular(L_Y, f.dense_matrix(), lower=True)
    scaled = sla.solve_triangular(L_X, scaled.T, lower=True).T
    return float(np.linalg.svd(scaled, compute_uv=False)[-1])


def check_gamma(gamma_h, gamma_ref, what):
    d = abs(gamma_h - gamma_ref) / gamma_ref
    if not d <= GAMMA_RTOL:
        return [f"{what}: gamma_h {gamma_h:.12g}, reference {gamma_ref:.12g} (rel {d:.2e})"]
    return []
