"""Assembly and direct solution of the square Petrov-Galerkin block system.

Unknowns are the shifted fields (U - U0, V - V0), expanded in the tensor
basis phi_a(x) * theta_b(t) with a zero-left time basis, so both vanish at
t = 0 and the initial data enter only through the right-hand side.  Test
functions are phi_a(x) * theta_b'(t).

Degree-of-freedom layout: U block first, then V block; within a block the
space index runs fastest, so each Kronecker factor pair is stored as
kron(time_matrix, space_matrix).
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidSpaceError, SingularSystemError, SolutionFileError
from .forms import assemble_time_matrix
from .newton import NewtonSolver, make_newton_solver
from .quadrature import panel_points, time_panel_points
from .splines import clip_to_interval, make_space, test_space_of

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
    """Expanded 2x2 Kronecker block matrix, right-hand side and factors."""

    problem: ProblemSpec
    space_x: object
    space_t: object
    n_x: int
    n_t: int
    space_op: NewtonSolver  # M_x, K_x, the factor of K_x and N, built once
    M_x: np.ndarray  # space mass (coefficient 1), space_op.M_x
    K_x: np.ndarray  # space stiffness (coefficient c^2), space_op.K_x
    M_e: np.ndarray  # weighted time mass
    S_e: np.ndarray  # weighted time stiffness of theta'
    A_e: np.ndarray  # A_e[b, b'] = int theta_b' theta_{b'} exp(-t/T)
    d_e: np.ndarray  # d_e[b] = int theta_b' exp(-t/T)
    matrix: sp.csc_matrix
    rhs: np.ndarray
    n_quad: int

    @property
    def size(self):
        return 2 * self.n_x * self.n_t


@dataclass
class DiscreteSolution:
    """Coefficient arrays of the shifted unknowns plus the data shift."""

    u_coeffs: np.ndarray  # (n_x, n_t)
    v_coeffs: np.ndarray  # (n_x, n_t)
    space_x: object
    space_t: object
    problem: ProblemSpec
    residual: float = 0.0
    solve_seconds: float = 0.0


def _check_spaces(problem, space_x, space_t):
    if space_x.constraint != "zero-both":
        raise InvalidSpaceError("space_x must have constraint zero-both")
    if space_t.constraint != "zero-left":
        raise InvalidSpaceError("space_t must have constraint zero-left")
    ax, bx = space_x.interval
    if abs(ax - problem.omega[0]) > 1e-12 or abs(bx - problem.omega[1]) > 1e-12:
        raise InvalidSpaceError("space_x interval does not match the problem domain")
    at, bt = space_t.interval
    if abs(at) > 1e-12 or abs(bt - problem.T) > 1e-12:
        raise InvalidSpaceError("space_t interval does not match (0, T)")


def assemble(problem, space_x, space_t, n_quad=None):
    """Build the block system for the given trial spaces."""
    _check_spaces(problem, space_x, space_t)
    test_t = test_space_of(space_t)
    n = n_quad or (max(space_x.degree, space_t.degree) + 2)
    T = problem.T

    space_op = make_newton_solver(space_x, problem.c2, n)
    M_e = assemble_time_matrix(space_t, space_t, 0, 0, T, n_points=n).matrix
    S_e = assemble_time_matrix(space_t, test_t, 1, 0, T, n_points=n).matrix
    A_e = assemble_time_matrix(space_t, test_t, 0, 0, T, n_points=n).matrix

    tq, _, wt_e = time_panel_points(space_t.breakpoints, n, T)
    Bt_test = test_t.tabulate(tq, 0)  # theta_b'(t_q)
    d_e = Bt_test.T @ wt_e

    n_x, n_t = space_x.dim, space_t.dim
    Ks, Ms = sp.csr_matrix(space_op.K_x), sp.csr_matrix(space_op.M_x)
    Ss, As = sp.csr_matrix(S_e), sp.csr_matrix(A_e)
    B_lam_U = sp.kron(As, Ks)
    B_lam_V = sp.kron(Ss, Ms)
    B_chi_U = -sp.kron(Ss, Ms)
    B_chi_V = sp.kron(As, Ms)
    matrix = sp.bmat([[B_lam_U, B_lam_V], [B_chi_U, B_chi_V]], format="csc")

    # right-hand side: lambda rows then chi rows, space index fastest
    xq, wx = panel_points(space_x.breakpoints, n)
    Bx = space_x.tabulate(xq, 0)
    dBx = space_x.tabulate(xq, 1)
    Fvals = problem.F(xq[:, None], tq[None, :])
    Fvals = np.broadcast_to(np.asarray(Fvals, dtype=float), (xq.size, tq.size))
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
        n_x=n_x,
        n_t=n_t,
        space_op=space_op,
        M_x=space_op.M_x,
        K_x=space_op.K_x,
        M_e=M_e,
        S_e=S_e,
        A_e=A_e,
        d_e=d_e,
        matrix=matrix,
        rhs=rhs,
        n_quad=n,
    )


def solve(system):
    """Sparse direct solve of the expanded block matrix."""
    t0 = time.perf_counter()
    try:
        lu = spla.splu(system.matrix)
        z = lu.solve(system.rhs)
    except RuntimeError as exc:
        raise SingularSystemError(f"factorization failed: {exc}") from exc
    if not np.all(np.isfinite(z)):
        raise SingularSystemError("factorization produced non-finite values")
    elapsed = time.perf_counter() - t0
    res = np.linalg.norm(system.matrix @ z - system.rhs)
    scale = np.linalg.norm(system.rhs)
    residual = res / scale if scale > 0 else res
    if residual > RESIDUAL_TOL:
        raise SingularSystemError(f"algebraic residual {residual:.3e} above tolerance")
    n_x, n_t = system.n_x, system.n_t
    u = z[: n_x * n_t].reshape(n_t, n_x).T
    v = z[n_x * n_t :].reshape(n_t, n_x).T
    return DiscreteSolution(
        u_coeffs=u,
        v_coeffs=v,
        space_x=system.space_x,
        space_t=system.space_t,
        problem=system.problem,
        residual=residual,
        solve_seconds=elapsed,
    )


def _shift_values(problem, xs, d_x, d_t, which):
    if d_t > 0:
        return np.zeros_like(xs)
    if which == "u":
        return problem.dU0(xs) if d_x else problem.U0(xs)
    if d_x:
        if problem.dV0 is None:
            raise ValueError("problem does not provide dV0")
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
    clip_to_interval(x, solution.space_x.interval)
    clip_to_interval(t, solution.space_t.interval)
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
            for i_x in range(coeffs.shape[0]):
                for i_t in range(coeffs.shape[1]):
                    f.write(f"{name},{i_x},{i_t},{coeffs[i_x, i_t]:.17g}\n")


def _parse_space_header(line, name):
    tag, key, *items = line.split()
    if (tag, key) != ("#", name):
        raise ValueError(f"expected the {name} header, got {line!r}")
    fields = dict(item.split("=", 1) for item in items)
    bp = [float(s) for s in fields["breakpoints"].split(",")]
    return make_space(bp, int(fields["degree"]), int(fields["multiplicity"]), fields["constraint"])


def load_solution(path, problem=None):
    """Round-trip counterpart of dump_solution."""
    with open(path) as f:
        lines = f.read().splitlines()
    if lines[:1] != [SOLUTION_HEADER]:
        raise SolutionFileError(f"{path} is not an xtwave v2 solution file (v1 has no mesh)")
    try:
        space_x = _parse_space_header(lines[1], "space")
        space_t = _parse_space_header(lines[2], "time")
        shape = (space_x.dim, space_t.dim)
        coeffs = {"U": np.zeros(shape), "V": np.zeros(shape)}
        for line in filter(None, lines[3:]):
            name, i_x, i_t, value = line.split(",")
            index = (int(i_x), int(i_t))
            if not (0 <= index[0] < shape[0] and 0 <= index[1] < shape[1]):
                raise ValueError(f"index in {line!r} outside the dims {shape}")
            coeffs[name][index] = float(value)
    except (ValueError, KeyError, IndexError) as exc:
        raise SolutionFileError(f"{path}: malformed solution file ({exc!r})") from exc
    return DiscreteSolution(coeffs["U"], coeffs["V"], space_x, space_t, problem)
