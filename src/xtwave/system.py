"""Assembly and space-mode solution of the square Petrov-Galerkin block system.

Unknowns are the shifted fields (U - U0, V - V0), expanded in the tensor
basis phi_a(x) * theta_b(t) with a zero-left time basis, so both vanish at
t = 0 and the initial data enter only through the right-hand side.  Test
functions are phi_a(x) * theta_b'(t).

Degree-of-freedom layout: U block first, then V block; within a block the
space index runs fastest, so each Kronecker factor pair is stored as
kron(time_matrix, space_matrix).

The solver never forms that matrix.  The spatial pencil (K_x, M_x) is
symmetric definite, so its eigenpairs K_x Phi = M_x Phi diag(lam),
Phi^T M_x Phi = I split the system into one n_t x n_t complex time system
A_e - i S_e / sqrt(lam_i) per space mode (fast diagonalization, Lynch,
Rice & Thomas 1964), all factored as one band matrix by one LAPACK call.
One step of iterative refinement follows, and a residual guard checks the
result with Kronecker products of the operator's M_x and K_x and the time
factors, not with the eigenpairs.
"""

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import InvalidProblemError, InvalidSpaceError, SingularSystemError, SolutionFileError
from .forms import check_interval, finite, rule_size, time_factors
from .newton import NewtonSolver, make_newton_solver
from .quadrature import sample
from .splines import make_space

RESIDUAL_TOL = 1e-10
SOLUTION_HEADER = "# xtwave solution v2"


@dataclass
class ExactSolution:
    """Exact wave field U, its velocity V and the derivatives used by norms."""

    u: callable  # U(x, t)
    dx_u: callable
    v: callable  # V = dU/dt
    dt_v: callable = None
    dxdt_u: callable = None
    kink_time: callable = None  # t*(x) where V jumps, or None; vectorized in x like the rest


@dataclass
class ProblemSpec:
    """Data of the first-order-in-time wave problem on Omega x (0, T)."""

    omega: tuple
    T: float
    c2: callable
    c0: float
    F: callable
    U0: callable
    dU0: callable
    V0: callable
    dV0: callable = None
    exact: ExactSolution = None
    div_c2_grad_U0: callable = None
    name: str = ""

    @property
    def length(self):
        return float(self.omega[1] - self.omega[0])

    @property
    def poincare_constant(self):
        # sharp constant for H^1_0 on an interval of length L
        return self.length / np.pi


@dataclass
class BlockSystem:
    """One space-time level: its spaces, operator and weighted time factors on
    one rule, and the block system's right-hand side, which assemble adds."""

    problem: ProblemSpec
    space_x: object
    space_t: object
    space_op: NewtonSolver  # M_x, K_x, the factor of K_x and the eigenpairs
    M_x: np.ndarray  # space mass (coefficient 1), space_op.M_x; the library reads space_op's
    K_x: np.ndarray  # space stiffness (coefficient c^2), space_op.K_x; likewise
    M_e: np.ndarray  # weighted time mass
    S_e: np.ndarray  # weighted time stiffness of theta'
    A_e: np.ndarray  # A_e[b, b'] = int theta_b' theta_{b'} exp(-t/T)
    n_quad: int
    Ex: object  # ElementTable of space_x on the rule, shared with the right-hand side
    Et: object  # ElementTable of space_t on the rule
    wt_e: np.ndarray  # Et's weights times exp(-t/T)
    rhs: np.ndarray = None  # lambda rows then chi rows, space index fastest
    n_x = property(lambda self: self.space_x.dim)
    n_t = property(lambda self: self.space_t.dim)

    def apply(self, U, V):
        """The block form on coefficient arrays (n_x, n_t), with space_op's K
        and M: (K U A_e^T + M V S_e^T, -M U S_e^T + M V A_e^T)."""
        K_x, M_x, A_e, S_e = self.space_op.K_x, self.space_op.M_x, self.A_e, self.S_e
        return K_x @ U @ A_e.T + M_x @ (V @ S_e.T), M_x @ (V @ A_e.T - U @ S_e.T)

    @cached_property
    def matrix(self):
        """The expanded block matrix (CSC), built on first access; solve and
        the inf-sup estimate work with the factors and never read it."""
        import scipy.sparse as sp  # only here, so importing xtwave skips it

        Ks, Ms = sp.csr_matrix(self.space_op.K_x), sp.csr_matrix(self.space_op.M_x)
        Ss, As = sp.csr_matrix(self.S_e), sp.csr_matrix(self.A_e)
        return sp.bmat(
            [[sp.kron(As, Ks), sp.kron(Ss, Ms)], [-sp.kron(Ss, Ms), sp.kron(As, Ms)]],
            format="csc",
        )


@dataclass
class DiscreteSolution:
    """Coefficient arrays of the shifted unknowns plus the data shift.

    A solution from solve carries the spatial operator it was solved with
    and refine_ratio = ||(dU, dV)||_F / ||(U, V)||_F of its refinement step,
    an estimate of the relative forward error of the unrefined mode solve;
    a solution loaded from a file has neither."""

    u_coeffs: np.ndarray  # (n_x, n_t)
    v_coeffs: np.ndarray  # (n_x, n_t)
    space_x: object
    space_t: object
    problem: ProblemSpec
    residual: float = 0.0
    solve_seconds: float = 0.0
    space_op: NewtonSolver = None
    refine_ratio: float = None


def _check_domain(problem, space_x, space_t):
    """InvalidSpaceError unless space_x is on problem's omega and space_t on (0, T)."""
    check_interval(space_x, problem.omega, "space_x")
    check_interval(space_t, (0, problem.T), "space_t")


def _level(problem, space_x, space_t, n_quad=None):
    """The level without its right-hand side, with the ElementTables of its
    rule, so the right-hand side tabulates neither space again.  A space
    without unknowns leaves no system and is refused with InvalidSpaceError."""
    _check_domain(problem, space_x, space_t)
    for name, space in (("space_x", space_x), ("space_t", space_t)):
        if space.dim == 0:
            raise InvalidSpaceError(f"{name} has no unknowns: dim 0 under {space.constraint}")
    n = rule_size(n_quad, space_x, space_t)
    M_e, S_e, A_e, Et, wt_e = time_factors(space_t, problem.T, n)
    Ex = space_x.element_table(n)
    op = make_newton_solver(space_x, problem.c2, Ex)
    return BlockSystem(
        problem, space_x, space_t, op, op.M_x, op.K_x, M_e, S_e, A_e, n, Ex, Et, wt_e
    )


def assemble(problem, space_x, space_t, n_quad=None):
    """Build the block system for the given trial spaces."""
    level = _level(problem, space_x, space_t, n_quad)
    Ex, Et, wt_e = level.Ex, level.Et, level.wt_e
    xq, wx = Ex.nodes, Ex.weights
    d_e = Et.moments(wt_e, 1)  # d_e[b] = int theta_b' exp(-t/T)
    Fvals = finite(sample(problem.F, xq, Et.nodes), "F")
    rhs_F = Et.moments(Ex.moments(Fvals, 0, wx).T, 1, wt_e).T  # (n_x, n_t)

    g_U0 = Ex.moments(finite(problem.c2(xq) * problem.dU0(xq), "c2 * dU0"), 1, wx)
    m_V0 = Ex.moments(finite(problem.V0(xq), "V0"), 0, wx)
    rhs_lam = rhs_F - np.outer(g_U0, d_e)
    rhs_chi = -np.outer(m_V0, d_e)
    level.rhs = np.concatenate([rhs_lam.T.ravel(), rhs_chi.T.ravel()])
    return level


def _mode_band(s, A_e, S_e):
    """(kl, ku, ab): LAPACK band storage (gbtrf layout, kl spare rows on top)
    of the block-diagonal matrix whose block i is A_e - i S_e / s[i, 0]."""
    rows, cols = np.nonzero((A_e != 0) | (S_e != 0))
    kl, ku = int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0))
    # one block; its rows outside the block stay zero, so blocks do not couple
    band = np.zeros((2, 2 * kl + ku + 1, A_e.shape[0]))
    band[:, kl + ku + rows - cols, cols] = A_e[rows, cols], S_e[rows, cols]
    ab = band[0, :, None] - 1j * band[1, :, None] / s
    return kl, ku, ab.reshape(ab.shape[0], -1)


def _factor_modes(lam, Phi, A_e, S_e):
    """Solver (R_lam, R_chi) -> (U, V) of the block system.  With s =
    sqrt(lam_i) and z = s u + i v, mode i's system [[lam_i A_e, S_e],
    [-S_e, A_e]] (u, v) = (r1, r2) is (A_e - i S_e / s) z = r1 / s + i r2,
    whose Hermitian part (A_e + A_e^T) / 2 is definite (test_system.py::
    test_time_coupling_symmetric_part_is_definite), so it is nonsingular.
    One zgbtrf factors the band of all modes; pivoting stays in each block."""
    s = np.sqrt(lam)[:, None]
    kl, ku, ab = _mode_band(s, A_e, S_e)
    gbtrf, gbtrs = sla.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    lub, piv, info = gbtrf(ab, kl, ku, overwrite_ab=True)
    if info > 0:
        mode, pivot = divmod(info - 1, A_e.shape[0])
        raise SingularSystemError(
            f"space mode {mode}: pivot {pivot + 1} of its time system is exactly zero"
        )

    def solve_modes(R_lam, R_chi):
        r = (Phi.T @ R_lam) / s + 1j * (Phi.T @ R_chi)
        z = gbtrs(lub, kl, ku, r.ravel(), piv, overwrite_b=True)[0].reshape(r.shape)
        return Phi @ (z.real / s), Phi @ z.imag

    return solve_modes


def solve(system):
    """Space-mode solve with one refinement step, checked by a residual guard.

    solve_seconds covers the eigenpairs (when not yet computed), the mode
    factorization, both mode solves and the refinement residual, not the
    guard.
    """
    t0 = time.perf_counter()
    R_lam, R_chi = system.rhs.reshape(2, system.n_t, system.n_x).transpose(0, 2, 1)
    solve_modes = _factor_modes(*system.space_op.eigenpairs, system.A_e, system.S_e)
    U, V = solve_modes(R_lam, R_chi)
    # refine against the operator the eigenpairs come from
    B_lam, B_chi = system.apply(U, V)
    dU, dV = solve_modes(R_lam - B_lam, R_chi - B_chi)
    size = np.hypot(np.linalg.norm(U), np.linalg.norm(V))
    step = np.hypot(np.linalg.norm(dU), np.linalg.norm(dV))
    U, V = U + dU, V + dV
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise SingularSystemError("space-mode solve produced non-finite values")
    elapsed = time.perf_counter() - t0
    # the guard applies the operator refinement used, not the eigenpairs, so
    # it also catches eigenpairs that no longer match it
    B_lam, B_chi = system.apply(U, V)
    res = np.hypot(np.linalg.norm(B_lam - R_lam), np.linalg.norm(B_chi - R_chi))
    scale = np.linalg.norm(system.rhs)
    residual = res / scale if scale > 0 else res
    if not residual <= RESIDUAL_TOL:
        raise SingularSystemError(
            f"algebraic residual {residual:.3e} above tolerance {RESIDUAL_TOL:.0e}"
        )
    return DiscreteSolution(
        u_coeffs=U,
        v_coeffs=V,
        space_x=system.space_x,
        space_t=system.space_t,
        problem=system.problem,
        residual=residual,
        solve_seconds=elapsed,
        space_op=system.space_op,
        refine_ratio=float(step / size if size > 0 else step),
    )


def _shift_values(problem, xs, d_x, d_t, which):
    if d_t > 0:
        return np.zeros_like(xs)
    if d_x > 1:
        raise InvalidProblemError(f"the initial-data shift has no space derivative of order {d_x}")
    if problem is None:
        raise InvalidProblemError(
            "the solution carries no problem for its initial-data shift; "
            "pass problem to load_solution"
        )
    if which == "u":
        return problem.dU0(xs) if d_x else problem.U0(xs)
    if d_x:
        if problem.dV0 is None:
            raise InvalidProblemError("problem does not provide dV0")
        return problem.dV0(xs)
    return problem.V0(xs)


def evaluate_grid(solution, xs, ts, d_x=0, d_t=0):
    """(U, V) values on the tensor grid xs x ts, shape (len(xs), len(ts))."""
    Bx = solution.space_x.tabulate(xs, d_x)  # refuses points that are not numbers
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    Bt = solution.space_t.tabulate(ts, d_t)
    p = solution.problem
    u = Bx @ solution.u_coeffs @ Bt.T + _shift_values(p, xs, d_x, d_t, "u")[:, None]
    v = Bx @ solution.v_coeffs @ Bt.T + _shift_values(p, xs, d_x, d_t, "v")[:, None]
    return u, v


def evaluate(solution, x, t, d_x=0, d_t=0):
    """Point evaluation of (U, V) including the initial-data shift."""
    u, v = evaluate_grid(solution, [x], [t], d_x, d_t)
    return float(u[0, 0]), float(v[0, 0])


def dump_solution(solution, path):
    """Write the coefficients as text, one line `block,i_x,i_t,value`, after a
    header that records each space's breakpoints, degree and constraint."""
    with open(path, "w") as f:
        f.write(SOLUTION_HEADER + "\n")
        for name, space in (("space", solution.space_x), ("time", solution.space_t)):
            kv = space.knots
            bp = ",".join(f"{b:.17g}" for b in kv.breakpoints)
            f.write(
                f"# {name} breakpoints={bp} degree={kv.degree} "
                f"multiplicity={kv.interior_multiplicity} constraint={space.constraint}\n"
            )
        for name, coeffs in (("U", solution.u_coeffs), ("V", solution.v_coeffs)):
            # one % per block; rows (i_x, i_t, value) with i_t fastest
            rows = np.empty((coeffs.size, 3), dtype=object)
            rows[:, :2] = np.indices(coeffs.shape).reshape(2, -1).T
            rows[:, 2] = coeffs.ravel()
            f.write((f"{name},%d,%d,%.17g\n" * coeffs.size) % tuple(rows.ravel()))


def _parse_space_header(line, name):
    tag, key, *items = line.split()
    if (tag, key) != ("#", name):
        raise ValueError(f"expected the {name} header, got {line!r}")
    fields = dict(item.split("=", 1) for item in items)
    bp = [float(s) for s in fields["breakpoints"].split(",")]
    return make_space(bp, int(fields["degree"]), int(fields["multiplicity"]), fields["constraint"])


# one body line; a block name longer than one character is kept as two, so
# it is refused, never truncated to a valid one
_ROW = np.dtype([("block", "U2"), ("i_x", np.intp), ("i_t", np.intp), ("value", float)])


def load_solution(path, problem=None):
    """Round-trip counterpart of dump_solution.  Refuses, with SolutionFileError,
    a body other than each coefficient once in dump_solution's order, and with
    InvalidSpaceError spaces that are not on problem's omega and (0, T)."""
    with open(path) as f:
        lines = f.read().splitlines()
    if lines[:1] != [SOLUTION_HEADER]:
        raise SolutionFileError(f"{path} is not an xtwave v2 solution file (v1 has no mesh)")
    try:
        space_x = _parse_space_header(lines[1], "space")
        space_t = _parse_space_header(lines[2], "time")
        shape = (2, space_x.dim, space_t.dim)
        body = list(filter(None, lines[3:]))
        if len(body) != np.prod(shape):
            raise ValueError(f"{len(body)} coefficient lines, not 2 x {shape[1]} x {shape[2]}")
        # numpy's parser refuses a line without exactly 4 fields, or with an
        # index that is not an integer or a value that is not a float
        table = np.empty(0, _ROW)
        if body:  # loadtxt warns on no lines, the body of a space of dim 0
            table = np.loadtxt(body, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
        b, i, j = np.indices(shape).reshape(3, -1)
        bad = (table["block"] != np.where(b, "V", "U")) | (table["i_x"] != i) | (table["i_t"] != j)
        if np.any(bad):
            raise ValueError(f"line {body[int(np.argmax(bad))]!r} out of dump_solution's order")
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        raise SolutionFileError(f"{path}: malformed solution file ({exc!r})") from exc
    if problem is not None:
        _check_domain(problem, space_x, space_t)
    u, v = table["value"].copy().reshape(shape)  # a view would keep the table alive
    return DiscreteSolution(u, v, space_x, space_t, problem)
