"""Discrete norms, error reports, elliptic projectors and inf-sup estimation."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InvalidProblemError
from .forms import default_n_points, space_tables, time_factors
from .newton import make_newton_solver, weighted_dual_sq
from .quadrature import panel_points, sample, time_panel_points
from .system import _factors, _shift_values

# error fields: name -> (d_x, d_t, discrete field, ExactSolution attribute)
_FIELDS = {
    "U": (0, 0, "u", "u"),
    "V": (0, 0, "v", "v"),
    "dtU": (0, 1, "u", "v"),
    "cgradU": (1, 0, "u", "dx_u"),
}
# keys of the squared sums accumulated by error_report; "e" suffix marks the
# exponentially weighted variants
_SUM_KEYS = (
    ("U", True),
    ("U", False),
    ("V", True),
    ("V", False),
    ("dtU", True),
    ("cgradU", True),
)
# bytes of one stack of space-mode matrices in estimate_infsup, which bounds
# its working memory for any number of modes
_MODE_STACK_BYTES = 16 << 20
# uniform elements per axis and Gauss points per element of the quadrature
# in stability_data_bound
_BOUND_ELEMENTS = 64
_BOUND_POINTS = 12


@dataclass
class ErrorReport:
    """Components of the weighted stability norm plus plain L2 errors."""

    err_dtU_L2e: float
    err_dtV_Neh: float
    err_cgradU_L2e: float
    err_V_L2e: float
    err_Veh: float
    err_U_L2e: float
    err_U_L2: float
    err_V_L2: float
    relative: bool


@dataclass
class InfSupEstimate:
    """Numerically computed inf-sup constant and its theoretical lower bound."""

    gamma_h: float
    lower_bound: float
    dims: tuple
    mode_index: int = None  # space mode (eigenpair of (K_x, M_x)) attaining gamma_h
    lam: float = None  # its eigenvalue


def eoc(errors):
    """Estimated orders of convergence between successive mesh halvings."""
    e = np.asarray(errors, dtype=float)
    return np.log2(e[:-1] / e[1:])


def infsup_lower_bound(problem):
    c = problem.poincare_constant / problem.c0
    return 1.0 / (2.0 * np.sqrt(c**2 + 4.0 * problem.T**2))


def _field_values(solution, problem, fields, x, t, Bx, Bt):
    """Exact values and errors of every field at space nodes x and time nodes
    t: one time vector for all rows, or one row of times per space node.
    Bx and Bt are the basis tables of orders 0 and 1 at x and t, the order
    on the second-to-last axis, as tabulate returns them.  Each
    ExactSolution callable is evaluated once, and the initial-data shift is
    that of problem, so a solution loaded without one can be measured."""
    exact = {a: sample(getattr(problem.exact, a), x, t) for a in {f[3] for f in fields.values()}}
    values, errors = {}, {}
    for name, (d_x, d_t, which, exact_name) in fields.items():
        BxC = Bx[:, d_x] @ (solution.u_coeffs if which == "u" else solution.v_coeffs)
        Bt_d = Bt[..., d_t, :]
        disc = BxC @ Bt_d.T if np.ndim(t) == 1 else np.einsum("cqb,cb->cq", Bt_d, BxC)
        disc += _shift_values(problem, x, d_x, d_t, which)[:, None]
        values[name] = exact[exact_name]
        errors[name] = values[name] - disc
    return values, errors


def _weighted_sq_sums(values, wx, c2x, wt, wt_e):
    """Squared sums of _SUM_KEYS over a node set: values[name] and the time
    weights are (space node, time node) arrays, or the weights one time
    vector for all rows; wx and c2x are per space node."""
    sums = {}
    for name, weighted in _SUM_KEYS:
        w_x = wx * c2x if name == "cgradU" else wx
        w_t = wt_e if weighted else wt
        sq = values[name] ** 2
        sums[(name, weighted)] = float(
            w_x @ sq @ w_t if w_t.ndim == 1 else w_x @ np.einsum("cq,cq->c", sq, w_t)
        )
    return sums


def error_report(solution, problem, n_quad=None, relative=True):
    """Weighted norm components of the error against the exact solution.

    The fields are integrated on a rule of n_quad points per element (by
    default the system's rule plus one).  The Newton seminorm of the dtV
    error is the dual norm of the spatial operator the solution was solved
    with; a solution loaded from a file builds that operator on the system's
    rule (n_quad, or default_n_points of both spaces), as assemble would."""
    exact = problem.exact
    if exact is None:
        raise InvalidProblemError("problem has no exact solution")
    sx, st = solution.space_x, solution.space_t
    n = n_quad or default_n_points(sx, st, extra=3)
    xq, wx, Bx = space_tables(sx, n)
    tq, wt, wt_e = time_panel_points(st.breakpoints, n, problem.T)
    c2x = problem.c2(xq)

    fields = dict(_FIELDS, dtV=(0, 1, "v", "dt_v")) if exact.dt_v is not None else _FIELDS
    # one table of both derivative orders per space; each field forms only
    # its own product, as evaluate_grid would
    Bt = st.tabulate(tq, (0, 1))
    XV, E = _field_values(solution, problem, fields, xq, tq, Bx, Bt)
    err_sq = _weighted_sq_sums(E, wx, c2x, wt, wt_e)
    norm_sq = _weighted_sq_sums(XV, wx, c2x, wt, wt_e)

    if exact.kink_time is not None:
        # A Gauss rule is only legitimate where the integrand is smooth, so
        # time element k cut by the kink at space node i is integrated by two
        # panels meeting at the kink: its share of the main sums (row i, time
        # block k) enters again with negated weights, next to both halves.
        # Node i cuts element k unless the kink is within 1e-13 of its ends.
        bp_t = st.breakpoints
        ts = np.array([exact.kink_time(x) for x in xq], dtype=float)
        k = np.clip(np.searchsorted(bp_t, ts, side="right") - 1, 0, bp_t.size - 2)
        cut = (bp_t[0] + 1e-13 < ts) & (ts < bp_t[-1] - 1e-13)
        cut &= np.minimum(ts - bp_t[k], bp_t[k + 1] - ts) >= 1e-13
        i = np.flatnonzero(cut)
        k, ts = k[i], ts[i]
        th, wh, whe = time_panel_points(np.stack((bp_t[k], ts, bp_t[k + 1]), axis=1), n, problem.T)
        Bth = st.tabulate(th.ravel(), (0, 1)).reshape(*th.shape, 2, st.dim)
        XVh, Eh = _field_values(solution, problem, _FIELDS, xq[i], th, Bx[i], Bth)
        rows, cols = i[:, None], k[:, None] * n + np.arange(n)
        w_cut = (np.hstack((-wt[cols], wh)), np.hstack((-wt_e[cols], whe)))
        for sums, V, Vh in ((err_sq, E, Eh), (norm_sq, XV, XVh)):
            split = {name: np.hstack((V[name][rows, cols], Vh[name])) for name in _FIELDS}
            for key, value in _weighted_sq_sums(split, wx[i], c2x[i], *w_cut).items():
                sums[key] += value

    # Newton seminorm of the time derivative of the velocity error
    if "dtV" in E:
        solver = solution.space_op or make_newton_solver(
            sx, problem.c2, n_quad or default_n_points(sx, st)
        )
        err_neh_sq = weighted_dual_sq(solver, Bx[:, 0], wx, E["dtV"], wt_e)
        norm_neh_sq = weighted_dual_sq(solver, Bx[:, 0], wx, XV["dtV"], wt_e)
    else:
        err_neh_sq = norm_neh_sq = 0.0

    err_veh_sq = (
        err_sq[("dtU", True)] + err_neh_sq + err_sq[("cgradU", True)] + err_sq[("V", True)]
    )
    norm_veh_sq = (
        norm_sq[("dtU", True)] + norm_neh_sq + norm_sq[("cgradU", True)] + norm_sq[("V", True)]
    )

    def component(key_err, key_norm):
        value = np.sqrt(max(key_err, 0.0))
        if not relative:
            return value
        norm = np.sqrt(max(key_norm, 0.0))
        return value / norm if norm > 0 else value

    return ErrorReport(
        err_dtU_L2e=component(err_sq[("dtU", True)], norm_sq[("dtU", True)]),
        err_dtV_Neh=component(err_neh_sq, norm_neh_sq),
        err_cgradU_L2e=component(err_sq[("cgradU", True)], norm_sq[("cgradU", True)]),
        err_V_L2e=component(err_sq[("V", True)], norm_sq[("V", True)]),
        err_Veh=component(err_veh_sq, norm_veh_sq),
        err_U_L2e=component(err_sq[("U", True)], norm_sq[("U", True)]),
        err_U_L2=component(err_sq[("U", False)], norm_sq[("U", False)]),
        err_V_L2=component(err_sq[("V", False)], norm_sq[("V", False)]),
        relative=relative,
    )


def project_space(w, dw, space_x, c2, n_quad=None):
    """Elliptic projection in space: coefficients of the best approximation
    of w in the c^2-weighted gradient seminorm."""
    n = n_quad or default_n_points(space_x, extra=3)
    tables = xq, wx, B = space_tables(space_x, n)
    g = B[:, 1].T @ (wx * c2(xq) * dw(xq))
    return make_newton_solver(space_x, c2, n, tables).solve_K(g)


def project_time(w, dw, space_t, T, n_quad=None):
    """Elliptic projection in time: weighted normal equations in the
    derivative inner product, zero-left trial basis."""
    n = n_quad or default_n_points(space_t, extra=3)
    _, S, _, (tq, wt_e, dB) = time_factors(space_t, T, n)
    r = dB.T @ (wt_e * dw(tq))
    return sla.cho_solve(sla.cho_factor(S), r)


def commutation_check(dxdt_w, space_x, space_t, c2, T, n_quad=None):
    """Norm of the commutator of the space and time elliptic projectors.

    dxdt_w(x, t) is the mixed derivative of the projected function; it is all
    the data both compositions need.  Returns (commutator norm, coefficients
    of time-then-space composition, coefficients of space-then-time
    composition); coefficient arrays are (space dim, time dim).
    """
    n = n_quad or default_n_points(space_x, space_t, extra=3)
    M_e, S, _, (tq, wt_e, dBt) = time_factors(space_t, T, n)
    tables = xq, wx, Bx = space_tables(space_x, n)
    c2x = c2(xq)
    W = sample(dxdt_w, xq, tq)
    space_op = make_newton_solver(space_x, c2, n, tables)
    dBx = Bx[:, 1]
    S_cho = sla.cho_factor(S)

    # time projection first: per x-node time moments, then space projection
    r_x = W @ (dBt * wt_e[:, None])  # (n_qx, n_t)
    zeta_dx = sla.cho_solve(S_cho, r_x.T).T  # d/dx of the time coefficients
    g = dBx.T @ (zeta_dx * (wx * c2x)[:, None])  # (n_x, n_t)
    A = space_op.solve_K(g)

    # space projection first: per t-node space moments, then time projection
    s_t = W.T @ (dBx * (wx * c2x)[:, None])  # (n_qt, n_x)
    y_dt = space_op.solve_K(s_t.T).T  # d/dt of the space coefficients
    rho = y_dt.T @ (dBt * wt_e[:, None])  # (n_x, n_t)
    B = sla.cho_solve(S_cho, rho.T).T

    D = A - B
    norm = np.sqrt(max(float(np.sum((space_op.M_x @ D @ M_e) * D)), 0.0))
    return norm, A, B


def _modes_infsup(lam, A_e, S_e, M_e):
    """Smallest mu of B_i^T Y_i^-1 B_i z = mu X_i z for every space mode i.

    In the mode basis (Phi^T M_x Phi = I, Phi^T K_x Phi = diag(lam) and
    Phi^T N Phi = diag(1/lam) for the Newton matrix N = M_x K_x^-1 M_x)
    mode i with l = lam_i has the block form
    B_i = [[l A, S], [-S, A]], the test Gram Y_i = diag(S, S/l) and the trial
    Gram X_i = diag(G, G/l) with G = S + l M (A = A_e, S = S_e symmetric,
    M = M_e).  Since Y_i^-1 B_i = [[l S^-1 A, I], [-l I, l S^-1 A]],

        C(l) = B_i^T Y_i^-1 B_i = [[l^2 P + l S, -l D], [l D, S + l P]],
        P = A^T S^-1 A,  D = A - A^T.

    The congruence by diag(I, sqrt(l) I) turns X_i into diag(G, G) and C(l)
    into [[H, -K], [K, H]] with H = l^2 P + l S symmetric and K = l^1.5 D
    antisymmetric: the real form of the Hermitian H + iK, whose eigenvalues
    it has twice each.  So mu_i is the smallest eigenvalue of the n_t x n_t
    Hermitian pencil (H + iK, G).  With S V = M V diag(sigma) and
    V^T M V = I, V^T G V = diag(sigma + l), and the pencil is the Hermitian
    matrix E V^T (H + iK) V E with E = diag(sigma + l)^-1/2.  V^T P V and
    V^T D V are shared by all modes; each mode costs one scaling and one
    eigvalsh of its stacked matrix, in stacks of at most _MODE_STACK_BYTES.
    """
    n = A_e.shape[0]
    sigma, V = sla.eigh(S_e, M_e)
    AV = A_e @ V
    P = AV.T @ sla.cho_solve(sla.cho_factor(S_e), AV)  # V^T P V
    D = V.T @ AV - AV.T @ V  # V^T D V
    diag = np.arange(n)
    step = max(1, min(lam.size, _MODE_STACK_BYTES // (16 * n * n)))
    stack = np.empty((step, n, n), dtype=complex)
    mu = np.empty(lam.size)
    for s in range(0, lam.size, step):
        l = lam[s : s + step, None]  # (modes, 1)
        H = stack[: l.shape[0]]
        np.multiply((l * l)[:, :, None], P, out=H.real)
        np.multiply((l * np.sqrt(l))[:, :, None], D, out=H.imag)
        H.real[:, diag, diag] += l * sigma
        e = 1.0 / np.sqrt(sigma + l)  # (modes, n)
        H *= e[:, :, None]
        H *= e[:, None, :]
        mu[s : s + step] = np.linalg.eigvalsh(H)[:, 0]
    return mu


def estimate_infsup(problem, space_x, space_t, n_quad=None):
    """Smallest generalized singular value of the block form in the discrete
    trial/test norm pair, minimized over the space modes that split it.
    Needs only the operator factors, not the problem's data."""
    space_op, M_e, S_e, A_e, *_ = _factors(problem, space_x, space_t, n_quad)
    lam = space_op.eigenpairs[0]
    mu = _modes_infsup(lam, A_e, S_e, M_e)
    i = int(np.argmin(mu))
    return InfSupEstimate(
        gamma_h=float(np.sqrt(max(mu[i], 0.0))),
        lower_bound=infsup_lower_bound(problem),
        dims=(space_x.dim, space_t.dim),
        mode_index=i,
        lam=float(lam[i]),
    )


def discrete_veh_norm(system, solution):
    """Stability norm of the discrete (shifted) solution of the block system."""
    Cu, Cv = solution.u_coeffs, solution.v_coeffs
    q = (
        np.sum((system.M_x @ Cu @ system.S_e) * Cu)
        + np.sum((system.K_x @ Cu @ system.M_e) * Cu)
        + system.space_op.dual_form(Cv, system.S_e)
        + np.sum((system.M_x @ Cv @ system.M_e) * Cv)
    )
    return np.sqrt(max(float(q), 0.0))


def stability_data_bound(problem):
    """Upper bound on the stability norm in terms of the problem data, by
    quadrature on _BOUND_ELEMENTS uniform elements per axis."""
    beta = 1.0 / infsup_lower_bound(problem)
    if problem.div_c2_grad_U0 is None:
        raise InvalidProblemError("problem does not provide div(c^2 grad U0)")
    T = problem.T
    xs = np.linspace(problem.omega[0], problem.omega[1], _BOUND_ELEMENTS + 1)
    ts = np.linspace(0.0, T, _BOUND_ELEMENTS + 1)
    xq, wx = panel_points(xs, _BOUND_POINTS)
    tq, _, wt_e = time_panel_points(ts, _BOUND_POINTS, T)
    norm_F = np.sqrt(float(wx @ sample(problem.F, xq, tq) ** 2 @ wt_e))
    norm_div = np.sqrt(float(wx @ problem.div_c2_grad_U0(xq) ** 2))
    if problem.dV0 is None:
        norm_cgradV0 = 0.0
    else:
        norm_cgradV0 = np.sqrt(float(wx @ (problem.c2(xq) * problem.dV0(xq) ** 2)))
    return beta * (norm_F + np.sqrt(T) * norm_div + np.sqrt(T) * norm_cgradV0)
