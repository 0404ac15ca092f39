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

import os
import time
import zlib
from dataclasses import dataclass
from functools import cached_property, reduce
from zipfile import BadZipFile

import numpy as np
import scipy.linalg as sla

from .errors import InvalidProblemError, InvalidSpaceError, SingularSystemError, SolutionFileError
from .forms import check_interval, finite, rule_size, time_factors
from .newton import NewtonSolver, make_newton_solver
from .quadrature import sample
from .splines import CONSTRAINTS, make_space

RESIDUAL_TOL = 1e-10
# first line of a v2 text file; v4 and v3 files are told by their magic bytes
SOLUTION_HEADER = "# xtwave solution v2"

# a v3 file's entries and, with crc32, a v4 record's: name -> (scalar type, ndim)
_V3_ENTRIES = {
    "space_breakpoints": (np.float64, 1),
    "space_degree": (np.int64, 0),
    "space_multiplicity": (np.int64, 0),
    "space_constraint": (np.str_, 0),
    "time_breakpoints": (np.float64, 1),
    "time_degree": (np.int64, 0),
    "time_multiplicity": (np.int64, 0),
    "time_constraint": (np.str_, 0),
    "u_coeffs": (np.float64, 2),
    "v_coeffs": (np.float64, 2),
}
_V4_FIELDS = {**_V3_ENTRIES, "crc32": (np.uint32, 0)}
_SPACE_KEYS = ("breakpoints", "degree", "multiplicity", "constraint")  # each axis's entries


@dataclass
class ExactSolution:
    """Exact wave field U, its velocity V and the derivatives used by norms."""

    u: callable  # U(x, t)
    dx_u: callable
    v: callable  # V = dU/dt
    dt_v: callable = None
    dxdt_u: callable = None
    kink_time: callable = None  # t*(x) where V jumps, or None; vectorized in x like the rest

    def fields(self, names, x, t):
        """Yield (name, values) for each of the named fields (u, dx_u, v,
        dt_v, dxdt_u), in the order of names, at space nodes x and time nodes
        t as quadrature.sample returns them.  Each is sampled when it is
        asked for, so a caller that drops it before the next holds one grid."""
        for name in names:
            yield name, sample(getattr(self, name), x, t)


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


@dataclass(eq=False)
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


@dataclass(eq=False)
class DiscreteSolution:
    """Coefficient arrays of the shifted unknowns plus the data shift.

    A solution from solve carries the spatial operator it was solved with
    and refine_ratio = ||(dU, dV)||_F / ||(U, V)||_F of its refinement step,
    an estimate of the relative forward error of the unrefined mode solve;
    a loaded solution has neither, and None residual and solve_seconds."""

    u_coeffs: np.ndarray  # (n_x, n_t)
    v_coeffs: np.ndarray  # (n_x, n_t)
    space_x: object
    space_t: object
    problem: ProblemSpec
    residual: float = None
    solve_seconds: float = None
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
    One zgbtrf factors the band of all modes; pivoting stays in each block.
    A space eigenvalue that is not positive (or NaN) is refused first."""
    bad = np.flatnonzero(~(lam > 0))
    if bad.size:
        raise SingularSystemError(f"space mode {bad[0]}: eigenvalue {lam[bad[0]]} is not positive")
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
    """Write solution to exactly path as a v4 file: one .npy of a 0-d
    structured record of the v3 entries, strings last, and then crc32.
    Bit-exact by construction.  Coefficients not of shape (space_x.dim,
    space_t.dim) are refused with InvalidSpaceError before path is opened."""
    entries = {}
    for axis, space in (("space", solution.space_x), ("time", solution.space_t)):
        kv = space.knots
        entries[f"{axis}_breakpoints"] = kv.breakpoints
        entries[f"{axis}_degree"] = np.int64(kv.degree)
        entries[f"{axis}_multiplicity"] = np.int64(kv.interior_multiplicity)
        entries[f"{axis}_constraint"] = np.str_(space.constraint)
    entries["u_coeffs"] = u = np.asarray(solution.u_coeffs, dtype=float)
    entries["v_coeffs"] = v = np.asarray(solution.v_coeffs, dtype=float)
    shape = (solution.space_x.dim, solution.space_t.dim)
    if not u.shape == v.shape == shape:
        raise InvalidSpaceError(f"coefficients of shapes {u.shape} and {v.shape}, not {shape}")
    # strings last, so that every number field is 8-byte aligned in the record
    fields = sorted(entries.items(), key=lambda item: item[1].dtype.kind == "U")
    record = np.empty((), [(name, a.dtype, a.shape) for name, a in fields] + [("crc32", np.uint32)])
    for name, a in fields:
        record[name] = a
    record["crc32"] = _crc32(record)
    with open(os.fspath(path), "wb") as f:  # no int fd; np.save(path) would add .npy
        np.save(f, record)


def _crc32(fields):
    """zlib.crc32 of the (C-contiguous) v3 fields of a v4 record, in that order."""
    return reduce(lambda crc, name: zlib.crc32(fields[name], crc), _V3_ENTRIES, 0)


def _read_v4(f):
    """The fields of a v4 file's record by name (none for another .npy)."""
    record = np.load(f, allow_pickle=False)
    return {name: record[name] for name in record.dtype.names or ()}


def _read_v3(f):
    """A v3 file's entries by name: bytes for a non-.npy member, None for an extra (unread) one."""
    try:
        with np.load(f, allow_pickle=False) as npz:
            return {name: npz[name] if name in _V3_ENTRIES else None for name in npz.files}
    except (BadZipFile, EOFError, NotImplementedError, RuntimeError, OSError) as exc:
        # zipfile's refusals of a damaged archive: a bad CRC or header, data
        # cut short, a flipped compression or encryption flag, or an offset
        # that seeks before the start of the file
        raise ValueError(f"damaged zip archive ({exc!r})") from exc


def _dim(entries, axis):
    """axis's space dimension, computed without building the space, whose
    knot arrays a huge degree in a file would make too large to allocate."""
    p, m, constraint = (entries[f"{axis}_{key}"].item() for key in _SPACE_KEYS[1:])
    removed = CONSTRAINTS.index(constraint)  # none, left, both: 0, 1, 2 functions
    return p + 1 + (entries[f"{axis}_breakpoints"].size - 2) * m - removed


def _from_entries(entries, kinds):
    """(space_x, space_t, U, V) of a file's entries; ValueError unless they are exactly kinds,
    of native type and ndim, with coefficients of the implied shape, crc32 and valid spaces."""
    if sorted(entries) != sorted(kinds):
        raise ValueError(f"entries {sorted(entries)}, not {sorted(kinds)}")
    for name, (kind, ndim) in kinds.items():
        a = entries[name]
        if not (isinstance(a, np.ndarray) and a.dtype.type is kind and a.dtype.isnative):
            raise ValueError(f"entry {name} is not a native {kind.__name__} array")
        if a.ndim != ndim:
            raise ValueError(f"entry {name} has {a.ndim} dimensions, not {ndim}")
    u, v = entries["u_coeffs"], entries["v_coeffs"]
    shape = (_dim(entries, "space"), _dim(entries, "time"))
    if not u.shape == v.shape == shape:
        raise ValueError(f"coefficients of shapes {u.shape} and {v.shape}, not {shape}")
    if "crc32" in kinds and entries["crc32"].item() != _crc32(entries):
        raise ValueError("crc32 does not match the record")
    space_x, space_t = (
        make_space(*(entries[f"{axis}_{key}"].tolist() for key in _SPACE_KEYS))
        for axis in ("space", "time")
    )
    # C-contiguous and aligned, copied only when the file's layout is not
    return space_x, space_t, np.require(u, requirements="CA"), np.require(v, requirements="CA")


def _parse_space_header(line, name):
    tag, key, *items = line.split()
    if (tag, key) != ("#", name):
        raise ValueError(f"expected the {name} header, got {line!r}")
    fields = dict(item.split("=", 1) for item in items)
    fields["breakpoints"] = fields["breakpoints"].split(",")
    # each as its v3 entry's type; numpy parses numbers as float() and int() do
    return {f"{name}_{k}": np.array(fields[k], _V3_ENTRIES[f"{name}_{k}"][0]) for k in _SPACE_KEYS}


# one body line; a block name longer than one character is kept as two, so
# it is refused, never truncated to a valid one
_ROW = np.dtype([("block", "U2"), ("i_x", np.intp), ("i_t", np.intp), ("value", float)])


def _read_v2(text):
    """The entries of a v2 text file, as v3 names them: its header line,
    each space's header line, then one line `block,i_x,i_t,value` per
    coefficient with i_t fastest, U then V; ValueError on any other text."""
    lines = text.splitlines()
    if lines[:1] != [SOLUTION_HEADER]:
        raise ValueError("not an xtwave v4, v3 or v2 solution file (v1 has no mesh)")
    entries = {**_parse_space_header(lines[1], "space"), **_parse_space_header(lines[2], "time")}
    shape = (2, _dim(entries, "space"), _dim(entries, "time"))
    body = list(filter(None, lines[3:]))
    if len(body) != 2 * shape[1] * shape[2]:  # Python ints: no overflow
        raise ValueError(f"{len(body)} coefficient lines, not 2 x {shape[1]} x {shape[2]}")
    # numpy's parser refuses a line without exactly 4 fields, or with an
    # index that is not an integer or a value that is not a float
    table = np.empty(0, _ROW)
    if body:  # loadtxt warns on no lines, the body of a space of dim 0
        table = np.loadtxt(body, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
    b, i, j = np.indices(shape).reshape(3, -1)
    bad = (table["block"] != np.where(b, "V", "U")) | (table["i_x"] != i) | (table["i_t"] != j)
    if np.any(bad):
        raise ValueError(f"line {body[int(np.argmax(bad))]!r} out of the v2 order")
    entries["u_coeffs"], entries["v_coeffs"] = table["value"].reshape(shape)
    return entries


def load_solution(path, problem=None):
    """Read a solution file: v4 (.npy, what dump_solution writes) or v3
    (.npz), told by their magic bytes, or else v2 text.  Refuses, with
    SolutionFileError, a file of another format or a malformed one, and with
    InvalidSpaceError spaces that are not on problem's omega and (0, T)."""
    with open(os.fspath(path), "rb") as f:  # not an int file descriptor
        magic = f.read(6)
        f.seek(0)
        v4, v3 = magic == b"\x93NUMPY", magic[:4] == b"PK\x03\x04"  # .npy, zip
        try:  # MemoryError: an array header that declares more than memory holds
            entries = _read_v4(f) if v4 else _read_v3(f) if v3 else _read_v2(f.read().decode())
            space_x, space_t, u, v = _from_entries(entries, _V4_FIELDS if v4 else _V3_ENTRIES)
        except (ValueError, KeyError, IndexError, OverflowError, MemoryError) as exc:
            raise SolutionFileError(f"{path}: malformed solution file ({exc!r})") from exc
    if problem is not None:
        _check_domain(problem, space_x, space_t)
    return DiscreteSolution(u, v, space_x, space_t, problem)
