"""Discrete norms, error reports, elliptic projectors and inf-sup estimation."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InvalidProblemError, InvalidSpaceError
from .forms import finite, rule_size, time_factors
from .newton import make_newton_solver, weighted_dual_sq
from .quadrature import exp_weights, panel_points, sample, time_panel_points
from .system import _check_domain, _level, _shift_values

# error fields by the ExactSolution attribute they are measured against:
# attribute -> (d_x, ((name, d_t, discrete field), ...)); d_x also picks the
# space weight, c^2 for the gradient
_FIELDS = {
    "u": (0, (("U", 0, "u"),)),
    "v": (0, (("V", 0, "v"), ("dtU", 1, "u"))),
    "dx_u": (1, (("cgradU", 0, "u"),)),
}
# bytes of one stack of space-mode matrices in estimate_infsup, which bounds
# its working memory for any number of modes
_MODE_STACK_BYTES = 16 << 20
# uniform elements per axis and Gauss points per element of the quadrature
# in stability_data_bound, and the most grid values (256 KiB) it holds at once
_BOUND_ELEMENTS = 64
_BOUND_POINTS = 12
_BOUND_BLOCK = 1 << 15


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
    """Numerically computed inf-sup constant and its theoretical lower bound.

    gamma_h is the square root of the smallest mu over the space modes, with
    the bits of the all-modes scan: the lowest mode is eigensolved, and the
    others are certified above it by a shifted Cholesky factorization or,
    where that fails, eigensolved too (_min_mode_infsup).  mode_index is the
    first mode attaining the minimum, as argmin takes it, except that the
    lowest mode wins a tie within rounding."""

    gamma_h: float
    lower_bound: float
    dims: tuple
    mode_index: int = None  # space mode (eigenpair of (K_x, M_x)) attaining gamma_h
    lam: float = None  # its eigenvalue, from NewtonSolver.eigenvalues


def eoc(errors):
    """Estimated orders of convergence between successive mesh halvings."""
    e = np.asarray(errors, dtype=float)
    return np.log2(e[:-1] / e[1:])


def infsup_lower_bound(problem):
    c = problem.poincare_constant / problem.c0
    return 1.0 / (2.0 * np.sqrt(c**2 + 4.0 * problem.T**2))


def _sq_sums(problem, nodes, field_values, weights, cells=None):
    """Squared sums of the error and of the exact values of every field of
    _FIELDS over a node set, {name: [[error, error weighted], [exact, exact
    weighted]]}, with the plain time weights wt and the weighted ones wt_e.

    nodes = (x, t): space nodes x and time nodes t, one time vector for all
    rows or one row of times per space node; field_values(d_x, d_t, which,
    out) writes the discrete field `which` ("u" or "v") of derivative
    orders (d_x, d_t), without its shift, at those nodes into out;
    weights = (wx, c2x, wt, wt_e).  The exact fields come from one call of
    problem.exact.fields for the node set; the squared sums of each serve
    every field that reads it, and its values are dropped before the next
    one is taken.  The initial-data shift is that of problem, so a solution
    loaded without one can be measured.  Each field goes through one grid
    buffer: its discrete values, its error, the squared error.  The
    cells = (rows, cols) are zeroed in the squared buffer, so they leave the
    sums."""
    x, t = nodes
    wx, c2x, wt, wt_e = weights
    buf = np.empty((x.size, np.shape(t)[-1]))
    sums = {}

    def sq_sums(sq, d_x):
        if cells is not None:
            sq[cells] = 0.0
        w_x = wx * c2x if d_x else wx
        if wt.ndim == 1:  # one time vector for all rows: one product w_x @ sq
            r = w_x @ sq
            return r @ wt, r @ wt_e
        return w_x @ np.einsum("cq,cq->c", sq, wt), w_x @ np.einsum("cq,cq->c", sq, wt_e)

    for exact_name, exact in problem.exact.fields(tuple(_FIELDS), x, t):
        d_x, fields = _FIELDS[exact_name]
        exact_sums = sq_sums(np.square(exact, out=buf), d_x)
        for name, d_t, which in fields:
            field_values(d_x, d_t, which, buf)
            if d_t == 0:  # the shift is constant in time
                buf += _shift_values(problem, x, d_x, d_t, which)[:, None]
            np.subtract(exact, buf, out=buf)
            sums[name] = np.array([sq_sums(np.square(buf, out=buf), d_x), exact_sums])
        del exact
    return sums


def _tensor_grid(Ex, Et, coeffs, keys):
    """Field values on the tensor grid of the nodes of the ElementTables Ex
    (rows) and Et (columns) by sum factorization, with no dense table.
    First the time axis, on the small coefficient arrays: one product
    CT[which, d_t] = coeffs[which] B_t,d_t^T (n_x, n_tq) per key of keys.
    Returns values(d_x, d_t, which, out=None), which contracts the space
    axis, B_x,d_x CT[which, d_t], as one batched product of Ex's element
    blocks written into out (C-contiguous, n_xq x n_tq) in row order, so
    nothing is transposed on the grid."""
    CT = {(which, d_t): Et.apply(coeffs[which].T, d_t).T for which, d_t in keys}

    def values(d_x, d_t, which, out=None):
        return Ex.apply(CT[which, d_t], d_x, out)

    return values


def error_report(solution, problem, n_quad=None, relative=True):
    """Weighted norm components of the error against the exact solution;
    InvalidSpaceError refuses spaces not on problem's omega and (0, T).
    The fields are integrated on a rule of n_quad points per element (by
    default the system's rule plus one).  The Newton seminorm of the dtV
    error is the dual norm of the spatial operator the solution was solved
    with, when that operator has problem's c2; a solution loaded from a
    file, or solved with another c2, builds problem's operator as assemble
    would, with the system's rule (n_quad, or default_n_points)."""
    exact = problem.exact
    if exact is None:
        raise InvalidProblemError("problem has no exact solution")
    sx, st = solution.space_x, solution.space_t
    _check_domain(problem, sx, st)
    n = rule_size(n_quad, sx, st, extra=3)
    Ex, Et = sx.element_table(n), st.element_table(n)
    xq, wx, tq, wt = Ex.nodes, Ex.weights, Et.nodes, Et.weights
    wt_e = exp_weights(tq, wt, problem.T)
    c2x = problem.c2(xq)
    coeffs = {"u": solution.u_coeffs, "v": solution.v_coeffs}
    keys = dict.fromkeys((which, d_t) for _, fields in _FIELDS.values() for _, d_t, which in fields)
    grid_values = _tensor_grid(Ex, Et, coeffs, keys)

    cells = None
    if exact.kink_time is not None:
        # A Gauss rule is only legitimate where the integrand is smooth, so
        # time element k cut by the kink at space node i is integrated by two
        # panels meeting at the kink: its cells of the main grid (row i, time
        # block k) are zeroed there, and both halves enter.  Node i cuts
        # element k unless the kink is within 1e-13 of its ends (a kink
        # outside (0, T), or NaN, cuts none).
        bp_t = st.breakpoints
        ts = np.broadcast_to(np.asarray(exact.kink_time(xq), dtype=float), xq.shape)
        k = st._elements(ts)
        cut = np.minimum(ts - bp_t[k], bp_t[k + 1] - ts) >= 1e-13
        i = np.flatnonzero(cut)
        k, ts = k[i], ts[i]
        cells = i[:, None], k[:, None] * n + np.arange(n)
    sums = _sq_sums(problem, (xq, tq), grid_values, (wx, c2x, wt, wt_e), cells)
    if exact.dt_v is not None:
        # Newton seminorm of the time derivative of the velocity error, from
        # its moments: B_x^T W B_x = M_x on any rule of at least p + 1 points,
        # so the discrete field's moments are M_x C_v B_t,1^T, with M_x
        # applied to the n_x x n_t coefficients, and it is never formed
        solver = solution.space_op
        if solver is None or solution.problem.c2 is not problem.c2:
            solver = _level(problem, sx, st, n_quad).space_op
        m = Ex.moments(next(exact.fields(("dt_v",), xq, tq))[1], 0, wx)
        discrete = Et.apply(solver.mass(solution.v_coeffs).T, 1).T
        loads = np.stack((m - discrete, m), axis=1)  # error, exact
        sums["dtV"] = np.array([(0.0, s) for s in weighted_dual_sq(solver, loads, wt_e)])
    if cells is not None:
        # the halves of cut row r (space node i in space element e, time
        # element k) read only the (p_x + 1) x (p_t + 1) coefficients of the
        # functions active on e and k, the row's space values on e and the
        # time functions of k at the halves' nodes
        th, wh, whe = time_panel_points(np.stack((bp_t[k], ts, bp_t[k + 1]), axis=1), n, problem.T)
        Bth = st._element_values(th.ravel(), k.repeat(2 * n), 1).reshape(2, -1, *th.shape)
        e = i // n
        Bx = Ex.values[:, e, i % n]  # (2, cut rows, p_x + 1)
        local = {which: Ex.tensor_blocks(C, Et, e, k) for which, C in coeffs.items()}
        rows = dict.fromkeys((d_x, w) for d_x, fields in _FIELDS.values() for _, _, w in fields)
        XC = {(d_x, w): np.einsum("ra,rab->rb", Bx[d_x], local[w]) for d_x, w in rows}

        def half_values(d_x, d_t, which, out):
            np.einsum("brq,rb->rq", Bth[d_t], XC[d_x, which], out=out)

        weights = (wx[i], c2x[i], wh, whe)
        for name, value in _sq_sums(problem, (xq[i], th), half_values, weights).items():
            sums[name] += value
    neh = sums.get("dtV", np.zeros((2, 2)))
    veh = sums["dtU"] + neh + sums["cgradU"] + sums["V"]

    def component(s, col=1):  # column 1 holds the weighted sums
        value = np.sqrt(max(s[0, col], 0.0))
        if not relative:
            return value
        norm = np.sqrt(max(s[1, col], 0.0))
        return value / norm if norm > 0 else value

    return ErrorReport(
        err_dtU_L2e=component(sums["dtU"]),
        err_dtV_Neh=component(neh),
        err_cgradU_L2e=component(sums["cgradU"]),
        err_V_L2e=component(sums["V"]),
        err_Veh=component(veh),
        err_U_L2e=component(sums["U"]),
        err_U_L2=component(sums["U"], 0),
        err_V_L2=component(sums["V"], 0),
        relative=relative,
    )


def project_space(dw, space_x, c2, n_quad=None):
    """Elliptic projection in space: coefficients of the best approximation,
    in the c^2-weighted gradient seminorm, of a function with derivative dw."""
    E = space_x.element_table(rule_size(n_quad, space_x, extra=3))
    g = E.moments(c2(E.nodes) * dw(E.nodes), 1, E.weights)
    return make_newton_solver(space_x, c2, E).solve_K(g)


def project_time(dw, space_t, T, n_quad=None):
    """Elliptic projection in time of a function with derivative dw:
    weighted normal equations in the derivative inner product, zero-left
    trial basis."""
    n = rule_size(n_quad, space_t, extra=3)
    _, S, _, E, wt_e = time_factors(space_t, T, n)
    r = E.moments(dw(E.nodes), 1, wt_e)
    return sla.cho_solve(sla.cho_factor(S), r)


def commutation_check(dxdt_w, space_x, space_t, c2, T, n_quad=None):
    """Norm of the commutator of the space and time elliptic projectors.

    dxdt_w(x, t) is the mixed derivative of the projected function; it is all
    the data both compositions need.  Returns (commutator norm, coefficients
    of time-then-space composition, coefficients of space-then-time
    composition); coefficient arrays are (space dim, time dim).
    """
    n = rule_size(n_quad, space_x, space_t, extra=3)
    M_e, S, _, Et, wt_e = time_factors(space_t, T, n)
    Ex = space_x.element_table(n)
    wc2 = Ex.weights * c2(Ex.nodes)
    W = sample(dxdt_w, Ex.nodes, Et.nodes)
    space_op = make_newton_solver(space_x, c2, Ex)
    S_cho = sla.cho_factor(S)

    # time projection first: per x-node time moments, then space projection
    r_t = Et.moments(W.T, 1, wt_e)  # (n_t, n_qx)
    zeta_dx = sla.cho_solve(S_cho, r_t).T  # d/dx of the time coefficients
    A = space_op.solve_K(Ex.moments(zeta_dx, 1, wc2))  # (n_x, n_t)

    # space projection first: per t-node space moments, then time projection
    s_x = Ex.moments(W, 1, wc2)  # (n_x, n_qt)
    y_dt = space_op.solve_K(s_x).T  # d/dt of the space coefficients
    rho = Et.moments(y_dt, 1, wt_e)  # (n_t, n_x)
    B = sla.cho_solve(S_cho, rho).T

    D = A - B
    norm = np.sqrt(max(float(np.sum((space_op.M_x @ D @ M_e) * D)), 0.0))
    return norm, A, B


def _mode_terms(A_e, S_e, M_e):
    """The mode-independent parts of the mode matrices of _modes_infsup:
    sigma, V^T P V and V^T D V, from the time pencil's eigenpairs alone."""
    sigma, V = sla.eigh(S_e, M_e)
    At = V.T @ A_e @ V
    W = At / np.sqrt(sigma)[:, None]
    return sigma, W.T @ W, At - At.T


def _mode_stack(stack, lam, sigma, P, D):
    """Write the Hermitian mode matrices E V^T (H + iK) V E of the space
    eigenvalues lam into the first lam.size matrices of stack; returns them."""
    l = lam[:, None]  # (modes, 1)
    H = stack[: l.shape[0]]
    diag = np.arange(sigma.size)
    np.multiply((l * l)[:, :, None], P, out=H.real)
    np.multiply((l * np.sqrt(l))[:, :, None], D, out=H.imag)
    H.real[:, diag, diag] += l * sigma
    e = 1.0 / np.sqrt(sigma + l)  # (modes, n)
    H *= e[:, :, None]
    H *= e[:, None, :]
    return H


def _stack(n_modes, n, copies):
    """An empty stack of n x n complex mode matrices, as many of them as keep
    `copies` such stacks within _MODE_STACK_BYTES (at least one)."""
    size = max(1, min(n_modes, _MODE_STACK_BYTES // (copies * 16 * n * n)))
    return np.empty((size, n, n), dtype=complex)


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
    matrix E V^T (H + iK) V E with E = diag(sigma + l)^-1/2.  The same
    eigenpairs invert S: S^-1 = V diag(1/sigma) V^T, so with At = V^T A V

        V^T P V = At^T diag(1/sigma) At,  V^T D V = At - At^T,

    and S is never factored.  V^T P V and V^T D V are shared by all modes;
    each mode costs one scaling and one eigvalsh of its stacked matrix, in
    stacks of at most _MODE_STACK_BYTES.
    This all-modes scan is the fallback and the reference of
    _min_mode_infsup, which estimate_infsup runs.
    """
    terms = _mode_terms(A_e, S_e, M_e)
    stack = _stack(lam.size, A_e.shape[0], 1)
    mu = np.empty(lam.size)
    step = len(stack)
    for s in range(0, lam.size, step):
        mu[s : s + step] = np.linalg.eigvalsh(_mode_stack(stack, lam[s : s + step], *terms))[:, 0]
    return mu


def _min_mode_infsup(lam, A_e, S_e, M_e):
    """min and first argmin of _modes_infsup(lam, A_e, S_e, M_e), with one
    eigvalsh where the lowest space mode attains the minimum.

    mu_0 of the lowest mode i_0 (smallest lam) comes from eigvalsh as in
    _modes_infsup.  By Sylvester's law of inertia H_i - mu_0 I has a Cholesky
    factor exactly when every eigenvalue of the mode matrix H_i exceeds
    mu_0, so one batched Cholesky of each stack of the other modes, shifted
    by -mu_0, proves that none of them goes below mu_0.  A stack whose
    factorization fails is built again (not shifted back, which would change
    its last bits) and scanned by eigvalsh exactly as in _modes_infsup.  A
    stack and its factor share the _MODE_STACK_BYTES budget.  Ties go to the
    first index, as argmin does, except that a mode within rounding of mu_0
    may be certified, and then the lowest mode i_0 wins.
    """
    terms = _mode_terms(A_e, S_e, M_e)
    i0 = int(np.argmin(lam))
    stack = _stack(lam.size - 1, A_e.shape[0], 2)
    mu_0 = np.linalg.eigvalsh(_mode_stack(stack, lam[i0 : i0 + 1], *terms))[0, 0]
    best = (mu_0, i0)
    rest = np.delete(np.arange(lam.size), i0)
    diag = np.arange(A_e.shape[0])
    step = len(stack)
    for s in range(0, rest.size, step):
        idx = rest[s : s + step]
        H = _mode_stack(stack, lam[idx], *terms)
        H.real[:, diag, diag] -= mu_0
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            mu = np.linalg.eigvalsh(_mode_stack(stack, lam[idx], *terms))[:, 0]
            j = int(np.argmin(mu))
            best = min(best, (mu[j], int(idx[j])))
    return best


def estimate_infsup(problem, space_x, space_t, n_quad=None):
    """Smallest generalized singular value of the block form in the discrete
    trial/test norm pair, minimized over the space modes that split it.
    Needs only the operator factors, not the problem's data, and of the
    space pencil (K_x, M_x) only its eigenvalues."""
    level = _level(problem, space_x, space_t, n_quad)
    lam = level.space_op.eigenvalues
    mu, i = _min_mode_infsup(lam, level.A_e, level.S_e, level.M_e)
    return InfSupEstimate(
        gamma_h=float(np.sqrt(max(mu, 0.0))),
        lower_bound=infsup_lower_bound(problem),
        dims=(space_x.dim, space_t.dim),
        mode_index=i,
        lam=float(lam[i]),
    )


def discrete_veh_norm(system, solution):
    """Stability norm of the discrete (shifted) solution of the block system;
    InvalidSpaceError refuses a solution on other spaces than the system's."""
    if (solution.space_x, solution.space_t) != (system.space_x, system.space_t):
        raise InvalidSpaceError("the solution's spaces are not the system's")
    Cu, Cv, op = solution.u_coeffs, solution.v_coeffs, system.space_op
    q = (
        np.sum((op.M_x @ Cu @ system.S_e) * Cu)
        + np.sum((op.K_x @ Cu @ system.M_e) * Cu)
        + op.dual_form(Cv, system.S_e)
        + np.sum((op.M_x @ Cv @ system.M_e) * Cv)
    )
    return np.sqrt(max(float(q), 0.0))


def stability_data_bound(problem):
    """Upper bound on the stability norm in terms of the problem data, by
    quadrature on _BOUND_ELEMENTS uniform elements per axis.  The space-time
    grid of F is summed in row blocks of at most _BOUND_BLOCK values, so it
    is never held whole.  Non-finite data are refused with AssemblyError."""
    beta = 1.0 / infsup_lower_bound(problem)
    for name, trace in (("div(c^2 grad U0)", problem.div_c2_grad_U0), ("dV0", problem.dV0)):
        if trace is None:
            raise InvalidProblemError(f"problem does not provide {name}")
    T = problem.T
    xs = np.linspace(problem.omega[0], problem.omega[1], _BOUND_ELEMENTS + 1)
    ts = np.linspace(0.0, T, _BOUND_ELEMENTS + 1)
    xq, wx = panel_points(xs, _BOUND_POINTS)
    tq, _, wt_e = time_panel_points(ts, _BOUND_POINTS, T)
    step = max(1, _BOUND_BLOCK // tq.size)
    sq_F = 0.0
    for s in range(0, xq.size, step):
        F = finite(sample(problem.F, xq[s : s + step], tq), "F")
        sq_F += wx[s : s + step] @ F**2 @ wt_e
    norm_F = np.sqrt(float(sq_F))
    norm_div = np.sqrt(float(wx @ finite(problem.div_c2_grad_U0(xq), "div(c^2 grad U0)") ** 2))
    cdV0_sq = finite(problem.c2(xq) * problem.dV0(xq) ** 2, "c2 * dV0^2")
    norm_cgradV0 = np.sqrt(float(wx @ cdV0_sq))
    return beta * (norm_F + np.sqrt(T) * norm_div + np.sqrt(T) * norm_cgradV0)
