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
Phi^T M_x Phi = I split the system into one 2 n_t x 2 n_t time system
[[lam_i A_e, S_e], [-S_e, A_e]] per space mode (fast diagonalization, Lynch,
Rice & Thomas 1964).  Each is factored as a band matrix, with the U and V
unknowns of one time index side by side.  One step of iterative refinement
follows, and a residual guard checks the result with Kronecker products of
the assembled factors, independently of the eigenpairs.
"""

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import InvalidProblemError, InvalidSpaceError, SingularSystemError, SolutionFileError
from .forms import default_n_points, space_tables, time_factors
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
    kink_time: callable = None  # t*(x) where V jumps, or None


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
    """Kronecker factors and right-hand side of the 2x2 block system."""

    problem: ProblemSpec
    space_x: object
    space_t: object
    n_x: int
    n_t: int
    space_op: NewtonSolver  # M_x, K_x, the factor of K_x and the eigenpairs
    M_x: np.ndarray  # space mass (coefficient 1), space_op.M_x
    K_x: np.ndarray  # space stiffness (coefficient c^2), space_op.K_x
    M_e: np.ndarray  # weighted time mass
    S_e: np.ndarray  # weighted time stiffness of theta'
    A_e: np.ndarray  # A_e[b, b'] = int theta_b' theta_{b'} exp(-t/T)
    rhs: np.ndarray
    n_quad: int

    @property
    def size(self):
        return 2 * self.n_x * self.n_t

    @cached_property
    def matrix(self):
        """The expanded block matrix (CSC), built on first access; solve and
        the inf-sup estimate work with the factors and never read it."""
        import scipy.sparse as sp  # only here, so importing xtwave skips it

        Ks, Ms = sp.csr_matrix(self.K_x), sp.csr_matrix(self.M_x)
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


def _check_space_x(problem, space_x):
    ax, bx = space_x.interval
    if abs(ax - problem.omega[0]) > 1e-12 or abs(bx - problem.omega[1]) > 1e-12:
        raise InvalidSpaceError("space_x interval does not match the problem domain")


def _factors(problem, space_x, space_t, n_quad=None):
    """The spatial operator, the weighted time factors M_e, S_e, A_e,
    (n, tq, wt_e, theta'): the rule size, and the time rule with the test
    basis, and the space_tables the operator was built from, so the
    right-hand side tabulates neither space again."""
    _check_space_x(problem, space_x)
    n = n_quad or default_n_points(space_x, space_t)
    M_e, S_e, A_e, time_rule = time_factors(space_t, problem.T, n)
    space_rule = space_tables(space_x, n)
    space_op = make_newton_solver(space_x, problem.c2, n, space_rule)
    return space_op, M_e, S_e, A_e, (n, *time_rule), space_rule


def assemble(problem, space_x, space_t, n_quad=None):
    """Build the block system for the given trial spaces."""
    factors = _factors(problem, space_x, space_t, n_quad)
    space_op, M_e, S_e, A_e, (n, tq, wt_e, Bt_test), (xq, wx, B) = factors
    d_e = Bt_test.T @ wt_e  # d_e[b] = int theta_b' exp(-t/T)

    # right-hand side: lambda rows then chi rows, space index fastest
    Bx, dBx = B[:, 0], B[:, 1]
    Fvals = sample(problem.F, xq, tq)
    rhs_F = (Bx * wx[:, None]).T @ Fvals @ (Bt_test * wt_e[:, None])  # (n_x, n_t)

    g_U0 = (dBx * (wx * problem.c2(xq) * problem.dU0(xq))[:, None]).sum(axis=0)
    m_V0 = (Bx * (wx * problem.V0(xq))[:, None]).sum(axis=0)
    rhs_lam = rhs_F - np.outer(g_U0, d_e)
    rhs_chi = -np.outer(m_V0, d_e)
    rhs = np.concatenate([rhs_lam.T.ravel(), rhs_chi.T.ravel()])

    return BlockSystem(
        problem=problem,
        space_x=space_x,
        space_t=space_t,
        n_x=space_x.dim,
        n_t=space_t.dim,
        space_op=space_op,
        M_x=space_op.M_x,
        K_x=space_op.K_x,
        M_e=M_e,
        S_e=S_e,
        A_e=A_e,
        rhs=rhs,
        n_quad=n,
    )


def _block_apply(K_x, M_x, A_e, S_e, U, V):
    """The block operator on coefficient arrays (n_x, n_t), as Kronecker
    products: (K U A_e^T + M V S_e^T, -M U S_e^T + M V A_e^T)."""
    return K_x @ U @ A_e.T + M_x @ (V @ S_e.T), M_x @ (V @ A_e.T - U @ S_e.T)


def _factor_modes(lam, Phi, A_e, S_e):
    """Band LU of every mode system [[lam_i A_e, S_e], [-S_e, A_e]]; returns
    the solver (R_lam, R_chi) -> (U, V) of the whole block system.

    The unknowns of a mode are interleaved as (u_0, v_0, u_1, v_1, ...), so
    its band is twice as wide as that of the time factors."""
    n = 2 * A_e.shape[0]
    stiff = np.kron(A_e, [[1.0, 0.0], [0.0, 0.0]])  # the part scaled by lam_i
    rest = np.kron(A_e, [[0.0, 0.0], [0.0, 1.0]]) + np.kron(S_e, [[0.0, 1.0], [-1.0, 0.0]])
    rows, cols = np.nonzero(stiff + rest)
    kl, ku = int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0))
    rows, cols = np.indices((n, n))
    band = (rows - cols <= kl) & (cols - rows <= ku)
    at = (kl + ku + (rows - cols)[band], cols[band])  # LAPACK band storage
    ab_stiff, ab_rest = np.zeros((2, 2 * kl + ku + 1, n))
    ab_stiff[at], ab_rest[at] = stiff[band], rest[band]
    gbtrf, gbtrs = sla.get_lapack_funcs(("gbtrf", "gbtrs"), (ab_rest,))
    factors = []
    for i, lam_i in enumerate(lam):
        lub, piv, info = gbtrf(ab_rest + lam_i * ab_stiff, kl, ku, overwrite_ab=True)
        if info > 0:
            raise SingularSystemError(
                f"space mode {i}: pivot {info} of its time system is exactly zero"
            )
        factors.append((lub, piv))

    def solve_modes(R_lam, R_chi):
        y = np.empty((len(factors), n))
        y[:, 0::2], y[:, 1::2] = Phi.T @ R_lam, Phi.T @ R_chi
        for row, (lub, piv) in zip(y, factors):
            row[:] = gbtrs(lub, kl, ku, row, piv)[0]
        return Phi @ y[:, 0::2], Phi @ y[:, 1::2]

    return solve_modes


def solve(system):
    """Space-mode solve with one refinement step, checked by a residual guard.

    solve_seconds covers the eigenpairs (when not yet computed), the mode
    factorization, both mode solves and the refinement residual, not the
    guard.
    """
    t0 = time.perf_counter()
    op, A_e, S_e = system.space_op, system.A_e, system.S_e
    n_x, n_t = system.n_x, system.n_t
    R_lam = system.rhs[: n_x * n_t].reshape(n_t, n_x).T
    R_chi = system.rhs[n_x * n_t :].reshape(n_t, n_x).T
    solve_modes = _factor_modes(*op.eigenpairs, A_e, S_e)
    U, V = solve_modes(R_lam, R_chi)
    # refine against the operator the eigenpairs come from
    B_lam, B_chi = _block_apply(op.K_x, op.M_x, A_e, S_e, U, V)
    dU, dV = solve_modes(R_lam - B_lam, R_chi - B_chi)
    size = np.hypot(np.linalg.norm(U), np.linalg.norm(V))
    step = np.hypot(np.linalg.norm(dU), np.linalg.norm(dV))
    U, V = U + dU, V + dV
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise SingularSystemError("space-mode solve produced non-finite values")
    elapsed = time.perf_counter() - t0
    # the guard reads the system's own factors, so it also catches a system
    # that no longer matches the eigenpairs
    B_lam, B_chi = _block_apply(system.K_x, system.M_x, A_e, S_e, U, V)
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
        space_op=op,
        refine_ratio=float(step / size if size > 0 else step),
    )


def _shift_values(problem, xs, d_x, d_t, which):
    if d_t > 0:
        return np.zeros_like(xs)
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
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    Bx = solution.space_x.tabulate(xs, d_x)
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
    """Round-trip counterpart of dump_solution.  Refuses, with
    SolutionFileError, a file that does not give every coefficient exactly
    once."""
    with open(path) as f:
        lines = f.read().splitlines()
    if lines[:1] != [SOLUTION_HEADER]:
        raise SolutionFileError(f"{path} is not an xtwave v2 solution file (v1 has no mesh)")
    try:
        space_x = _parse_space_header(lines[1], "space")
        space_t = _parse_space_header(lines[2], "time")
        shape = (2, space_x.dim, space_t.dim)
        body = list(filter(None, lines[3:]))
        # numpy's parser refuses a line without exactly 4 fields, or with an
        # index that is not an integer or a value that is not a float
        table = np.empty(0, _ROW)
        if body:  # loadtxt warns on no lines, the body of a space of dim 0
            table = np.loadtxt(body, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
        unknown = (table["block"] != "U") & (table["block"] != "V")
        if np.any(unknown):
            raise ValueError(f"unknown block in {body[int(np.argmax(unknown))]!r}")
        index = np.vstack((table["block"] == "V", table["i_x"], table["i_t"]))
        values = table["value"]
        outside = np.any((index < 0) | (index >= np.array(shape)[:, None]), axis=0)
        if np.any(outside):
            line = body[int(np.argmax(outside))]
            raise ValueError(f"index in {line!r} outside the dims {shape[1:]}")
        flat = np.ravel_multi_index(index, shape)
        counts = np.bincount(flat, minlength=np.prod(shape))
        if np.any(counts != 1):
            bad = int(np.argmax(counts != 1))
            b, i, j = (int(k) for k in np.unravel_index(bad, shape))
            raise ValueError(f"coefficient {'UV'[b]}({i}, {j}) appears {counts[bad]} times")
        coeffs = np.empty(counts.size)
        coeffs[flat] = values
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        raise SolutionFileError(f"{path}: malformed solution file ({exc!r})") from exc
    u, v = coeffs.reshape(shape)
    return DiscreteSolution(u, v, space_x, space_t, problem)
