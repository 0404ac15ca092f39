import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import xtwave as xw
from xtwave import analysis, splines
from xtwave.errors import (
    InvalidProblemError,
    InvalidSpaceError,
    OutOfDomainError,
    SingularSystemError,
    SolutionFileError,
)
from xtwave.forms import assemble_space_matrix, assemble_time_matrix, rule_size, time_factors
from xtwave.quadrature import panel_points, time_panel_points
from xtwave.system import evaluate, evaluate_grid


def _spaces(problem, n_x, n_t, p, r=None):
    sx = xw.make_uniform_space(problem.omega, n_x, p, r, "zero-both")
    st = xw.make_uniform_space((0.0, problem.T), n_t, p, r, "zero-left")
    return sx, st


def test_system_size(unit_problem):
    sx, st = _spaces(unit_problem, 4, 4, 1, 0)
    assert (sx.dim, st.dim) == (3, 4)
    system = xw.assemble(unit_problem, sx, st)
    assert 2 * system.n_x * system.n_t == 24
    assert system.matrix.shape == (24, 24)
    assert system.rhs.shape == (24,)


def test_homogeneous_problem(unit_problem):
    sx, st = _spaces(unit_problem, 4, 5, 2)
    system = xw.assemble(unit_problem, sx, st)
    assert np.allclose(system.rhs, 0.0)
    sol = xw.solve(system)
    assert np.allclose(sol.u_coeffs, 0.0)
    assert np.allclose(sol.v_coeffs, 0.0)


def test_kronecker_structure(smooth_problem):
    sx, st = _spaces(smooth_problem, 3, 4, 2)
    system = xw.assemble(smooth_problem, sx, st)
    blocks = sp.bmat(
        [
            [sp.kron(system.A_e, system.K_x), sp.kron(system.S_e, system.M_x)],
            [-sp.kron(system.S_e, system.M_x), sp.kron(system.A_e, system.M_x)],
        ]
    )
    assert np.max(np.abs((system.matrix - blocks).toarray())) < 1e-13


def test_rhs_initial_flux_term(smooth_problem):
    # F = 0, V0 = 0 variant isolates the -(c^2 U0', phi') d_e term; each entry
    # is cross-checked with adaptive quadrature
    from dataclasses import replace

    prob = replace(
        smooth_problem,
        F=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
    )
    sx, st = _spaces(prob, 4, 3, 2)
    system = xw.assemble(prob, sx, st, n_quad=10)
    T = prob.T
    for a in (0, 2):
        g, _ = scipy.integrate.quad(
            lambda x: prob.c2(x) * prob.dU0(x) * sx.tabulate([x], 1)[0, a], *prob.omega, limit=200
        )
        for b in (0, 2):
            d, _ = scipy.integrate.quad(
                lambda t: st.tabulate([t], 1)[0, b] * np.exp(-t / T), 0.0, T, limit=200
            )
            assert abs(system.rhs[b * sx.dim + a] - (-g * d)) < 1e-9


def test_galerkin_orthogonality(smooth_problem):
    sx, st = _spaces(smooth_problem, 6, 9, 2)
    system = xw.assemble(smooth_problem, sx, st)
    sol = xw.solve(system)
    z = np.concatenate([sol.u_coeffs.T.ravel(), sol.v_coeffs.T.ravel()])
    res = system.matrix @ z - system.rhs
    assert np.linalg.norm(res) / np.linalg.norm(system.rhs) < 1e-9
    assert sol.residual < 1e-9


def test_initial_conditions_exact(smooth_problem):
    sx, st = _spaces(smooth_problem, 5, 6, 2)
    sol = xw.solve(xw.assemble(smooth_problem, sx, st))
    xs = np.linspace(*smooth_problem.omega, 11)
    u, v = evaluate_grid(sol, xs, [0.0])
    assert np.max(np.abs(u[:, 0] - smooth_problem.U0(xs))) < 1e-13
    assert np.max(np.abs(v[:, 0] - smooth_problem.V0(xs))) < 1e-13
    # boundary points carry only the shift
    for xb in smooth_problem.omega:
        u, v = evaluate(sol, xb, 1.7)
        assert abs(u - smooth_problem.U0(xb)) < 1e-13
        assert abs(v - smooth_problem.V0(xb)) < 1e-13


def test_time_derivative_consistency(smooth_problem, rng):
    sx, st = _spaces(smooth_problem, 5, 6, 2)
    sol = xw.solve(xw.assemble(smooth_problem, sx, st))
    eps = 1e-6
    for _ in range(10):
        x = rng.uniform(0.1, 0.9)
        t = rng.uniform(0.1, smooth_problem.T - 0.1)
        du, _ = evaluate(sol, x, t, d_t=1)
        up, _ = evaluate(sol, x, t + eps)
        um, _ = evaluate(sol, x, t - eps)
        fd = (up - um) / (2 * eps)
        assert abs(du - fd) / max(abs(du), 1.0) < 1e-5


def test_constraint_validation(smooth_problem):
    bad_x = xw.make_uniform_space(smooth_problem.omega, 4, 2, None, "zero-left")
    st = xw.make_uniform_space((0.0, smooth_problem.T), 4, 2, None, "zero-left")
    with pytest.raises(InvalidSpaceError):
        xw.assemble(smooth_problem, bad_x, st)
    sx = xw.make_uniform_space(smooth_problem.omega, 4, 2, None, "zero-both")
    bad_t = xw.make_uniform_space((0.0, smooth_problem.T), 4, 2, None, "zero-both")
    with pytest.raises(InvalidSpaceError):
        xw.assemble(smooth_problem, sx, bad_t)
    wrong_interval = xw.make_uniform_space((0.0, 1.0), 4, 2, None, "zero-left")
    with pytest.raises(InvalidSpaceError):
        xw.assemble(smooth_problem, sx, wrong_interval)


def test_singular_matrix_detected(unit_problem):
    # zero time factors make every mode system zero: the first pivot is 0
    sx, st = _spaces(unit_problem, 3, 3, 1, 0)
    system = xw.assemble(unit_problem, sx, st)
    system.A_e = np.zeros_like(system.A_e)
    system.S_e = np.zeros_like(system.S_e)
    with pytest.raises(SingularSystemError, match="space mode 0: pivot 1 .* exactly zero"):
        xw.solve(system)


def test_residual_guard_reads_assembled_factors(smooth_problem):
    # eigenvalues off by 1e-3 no longer diagonalize the operator: one
    # refinement step cannot absorb that (1e-6 it can, to about 1e-12), and
    # the guard, which applies K_x and M_x, sees it (about 1.2e-6)
    sx, st = _spaces(smooth_problem, 8, 6, 2)
    system = xw.assemble(smooth_problem, sx, st)
    assert xw.solve(system).residual <= 1e-12
    lam, Phi = system.space_op.eigenpairs
    system.space_op.eigenpairs = (lam * (1 + 1e-3), Phi)
    with pytest.raises(SingularSystemError, match=r"residual \d\.\d{3}e-0[5-8] above"):
        xw.solve(system)


def test_block_system_reads_its_operator(smooth_problem):
    # M_x and K_x are the operator's arrays; n_x and n_t read the spaces
    sx, st = _spaces(smooth_problem, 4, 3, 2)
    system = xw.assemble(smooth_problem, sx, st)
    assert system.M_x is system.space_op.M_x and system.K_x is system.space_op.K_x
    assert (system.n_x, system.n_t) == (sx.dim, st.dim)
    with pytest.raises(AttributeError):
        system.n_x = sx.dim + 1


def test_refinement_margin(smooth_problem):
    # criterion 3's hardest case: about 1e-10 without the refinement step
    sx, st = _spaces(smooth_problem, 256, 8, 5, 1)
    assert xw.solve(xw.assemble(smooth_problem, sx, st)).residual <= 1e-11


def _graded(a, b, gaps):
    return a + (b - a) * np.concatenate(([0.0], np.cumsum(gaps))) / np.sum(gaps)


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(1, 4),
    gaps_x=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5),
    gaps_t=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_level_form_and_norm_match_kronecker_matrices(smooth_problem, p, gaps_x, gaps_t, seed):
    # the form the level applies is system.matrix, and discrete_veh_norm is
    # the trial norm X = blockdiag(S_e (x) M_x + M_e (x) K_x, S_e (x) N +
    # M_e (x) M_x), N = M_x K_x^-1 M_x, of the explicit Kronecker matrices
    prob = smooth_problem
    sx = xw.make_space(_graded(*prob.omega, gaps_x), p, 1, "zero-both")
    st_ = xw.make_space(_graded(0.0, prob.T, gaps_t), p, 1, "zero-left")
    system = xw.assemble(prob, sx, st_)
    U, V = np.random.default_rng(seed).standard_normal((2, sx.dim, st_.dim))
    z = np.concatenate([U.T.ravel(), V.T.ravel()])  # space index fastest
    expected = system.matrix @ z
    got = np.concatenate([W.T.ravel() for W in system.apply(U, V)])
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
    M_x, K_x, M_e, S_e = system.space_op.M_x, system.space_op.K_x, system.M_e, system.S_e
    N = M_x @ np.linalg.solve(K_x, M_x)
    X = sla.block_diag(np.kron(S_e, M_x) + np.kron(M_e, K_x), np.kron(S_e, N) + np.kron(M_e, M_x))
    norm = analysis.discrete_veh_norm(system, xw.DiscreteSolution(U, V, sx, st_, prob))
    assert abs(norm**2 - z @ X @ z) <= 1e-10 * (z @ X @ z)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 5),
    data=st.data(),
    gaps_x=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=5),
    gaps_t=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=4),
    amplitude=st.floats(0.1, 0.9),
)
def test_mode_solve_matches_sparse_lu(smooth_problem, p, data, gaps_x, gaps_t, amplitude):
    r = data.draw(st.integers(0, p - 1), label="regularity")
    prob = replace(smooth_problem, c2=lambda x: 1.0 + amplitude * np.cos(3.0 * x))
    space_x = xw.make_space(_graded(*prob.omega, gaps_x), p, p - r, "zero-both")
    space_t = xw.make_space(_graded(0.0, prob.T, gaps_t), p, p - r, "zero-left")
    system = xw.assemble(prob, space_x, space_t)
    sol = xw.solve(system)
    z = np.concatenate([sol.u_coeffs.T.ravel(), sol.v_coeffs.T.ravel()])
    # the reference gets the solver's one refinement step too: on p = 5, C^0
    # cases (condition ~1e8) plain SuperLU is up to 7e-10 off an
    # extended-precision solution, the mode solve and this about 1e-12
    lu = spla.splu(system.matrix)
    z_lu = lu.solve(system.rhs)
    z_lu += lu.solve(system.rhs - system.matrix @ z_lu)
    assert np.max(np.abs(z - z_lu)) <= 1e-10 * np.max(np.abs(z_lu))
    scale = np.linalg.norm(system.rhs)
    assert sol.residual <= 1e-10
    assert np.linalg.norm(system.matrix @ z - system.rhs) <= 1e-10 * scale
    assert np.linalg.norm(system.matrix @ z_lu - system.rhs) <= 1e-10 * scale


@pytest.mark.parametrize("p, r", [(1, 0), (2, 0), (2, 1), (3, 2), (4, 1), (5, 0), (5, 4)])
def test_mode_bands_hold_each_mode_matrix(smooth_problem, p, r):
    system = xw.assemble(smooth_problem, *_spaces(smooth_problem, 4, 6, p, r))
    A, S = system.A_e, system.S_e
    lam = system.space_op.eigenpairs[0]
    kl, ku, ab = xw.system._mode_band(np.sqrt(lam)[:, None], A, S)
    n = lam.size * A.shape[0]
    assert ab.shape == (2 * kl + ku + 1, n)
    rows, cols = np.indices((n, n))
    inside = (rows - cols <= kl) & (cols - rows <= ku)
    rebuilt = np.zeros((n, n), dtype=complex)
    rebuilt[inside] = ab[(kl + ku + rows - cols)[inside], cols[inside]]
    # block i is mode i's matrix, nothing couples neighbouring modes, and the
    # kl rows gbtrf fills are empty
    blocks = [A - 1j * S / np.sqrt(lam_i) for lam_i in lam]
    np.testing.assert_array_equal(rebuilt, sla.block_diag(*blocks))
    assert not np.any(ab[:kl])


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 5),
    data=st.data(),
    gaps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8),
    log_T=st.floats(-3.0, 2.0),
)
def test_time_coupling_symmetric_part_is_definite(p, data, gaps, log_T):
    # integration by parts: A_e + A_e^T = exp(-1) theta(T) theta(T)^T + M_e / T,
    # definite, so every mode system (A_e - i S_e / sqrt(lam)) is nonsingular
    r = data.draw(st.integers(0, p - 1), label="regularity")
    T = 10.0**log_T
    space_t = xw.make_space(_graded(0.0, T, gaps), p, p - r, "zero-left")
    A_e = time_factors(space_t, T, rule_size(None, space_t))[2]
    sla.cholesky(A_e + A_e.T)


def _reference_assemble(problem, space_x, space_t):
    """The block system factor by factor: one forms call per matrix, each
    with its own tables, and a right-hand side from element tables of its
    own."""
    n = max(space_x.degree, space_t.degree) + 2
    T = problem.T
    ref = {
        "M_x": assemble_space_matrix(space_x.element_table(n), 0),
        "K_x": assemble_space_matrix(space_x.element_table(n), 1, problem.c2),
        "M_e": assemble_time_matrix(space_t, 0, 0, T, n_points=n),
        "S_e": assemble_time_matrix(space_t, 1, 1, T, n_points=n),
        "A_e": assemble_time_matrix(space_t, 0, 1, T, n_points=n),
    }
    tq, _, wt_e = time_panel_points(space_t.breakpoints, n, T)
    Et = space_t.element_table(n)
    d_e = Et.moments(wt_e, 1)
    xq, wx = panel_points(space_x.breakpoints, n)
    Ex = space_x.element_table(n)
    Fvals = np.broadcast_to(
        np.asarray(problem.F(xq[:, None], tq[None, :]), dtype=float), (xq.size, tq.size)
    )
    rhs_F = Et.moments(Ex.moments(Fvals, 0, wx).T, 1, wt_e).T
    g_U0 = Ex.moments(problem.c2(xq) * problem.dU0(xq), 1, wx)
    m_V0 = Ex.moments(problem.V0(xq), 0, wx)
    rhs_lam = rhs_F - np.outer(g_U0, d_e)
    rhs_chi = -np.outer(m_V0, d_e)
    ref["rhs"] = np.concatenate([rhs_lam.T.ravel(), rhs_chi.T.ravel()])
    return ref


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 5),
    data=st.data(),
    gaps_x=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=5),
    gaps_t=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=4),
    amplitude=st.floats(0.1, 0.9),
)
def test_shared_tables_match_per_factor_assembly(
    smooth_problem, p, data, gaps_x, gaps_t, amplitude
):
    r = data.draw(st.integers(0, p - 1), label="regularity")
    prob = replace(smooth_problem, c2=lambda x: 1.0 + amplitude * np.cos(3.0 * x))
    space_x = xw.make_space(_graded(*prob.omega, gaps_x), p, p - r, "zero-both")
    space_t = xw.make_space(_graded(0.0, prob.T, gaps_t), p, p - r, "zero-left")
    system = xw.assemble(prob, space_x, space_t)
    ref = _reference_assemble(prob, space_x, space_t)
    for name, expected in ref.items():
        assert np.array_equal(getattr(system, name), expected), name
    lam = sla.eigh(ref["K_x"], ref["M_x"], eigvals_only=True)
    mu = analysis._modes_infsup(lam, ref["A_e"], ref["S_e"], ref["M_e"])
    est = xw.estimate_infsup(prob, space_x, space_t)
    assert est.gamma_h == float(np.sqrt(max(np.min(mu), 0.0)))


def test_assemble_tabulates_each_basis_once(smooth_problem, tabulate_calls):
    # one table of both orders per space: theta and theta' for the time
    # factors, and the space table shared by M_x, K_x and the right-hand side
    sx, st_ = _spaces(smooth_problem, 6, 5, 3)
    xw.assemble(smooth_problem, sx, st_)
    assert len(tabulate_calls) <= 2


def test_solving_leaves_scipy_sparse_unimported():
    script = (
        "import sys, xtwave as xw\n"
        "prob = xw.by_name('smooth').spec\n"
        "sx = xw.make_uniform_space(prob.omega, 4, 2, None, 'zero-both')\n"
        "st = xw.make_uniform_space((0.0, prob.T), 4, 2, None, 'zero-left')\n"
        "sol = xw.solve(xw.assemble(prob, sx, st))\n"
        "xw.error_report(sol, prob)\n"
        "xw.estimate_infsup(prob, sx, st)\n"
        "print('scipy.sparse' in sys.modules)\n"
    )
    src = str(Path(xw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


def test_out_of_domain_evaluation(smooth_problem):
    sx, st = _spaces(smooth_problem, 4, 4, 1)
    sol = xw.solve(xw.assemble(smooth_problem, sx, st))
    with pytest.raises(OutOfDomainError):
        evaluate(sol, 2.0, 1.0)
    with pytest.raises(OutOfDomainError):
        evaluate(sol, 0.5, -0.5)


def test_error_regression_anchor(smooth_solution_cache, smooth_problem):
    # frozen relative V_eh errors; halving h roughly squares the p=2 error
    _, sol8 = smooth_solution_cache(2, 1, 8, 24)
    _, sol16 = smooth_solution_cache(2, 1, 16, 48)
    err8 = xw.error_report(sol8, smooth_problem).err_Veh
    err16 = xw.error_report(sol16, smooth_problem).err_Veh
    assert err8 == pytest.approx(2.805199992730e-02, rel=1e-6)
    assert err16 == pytest.approx(6.441320441133e-03, rel=1e-6)
    assert 1.8 < np.log2(err8 / err16) < 2.4


def test_dump_load_round_trip(tmp_path, smooth_problem):
    uniform = _spaces(smooth_problem, 4, 6, 2)
    graded = (
        xw.make_space([0.0, 0.1, 0.5, 1.0], 2, 1, "zero-both"),
        xw.make_space(np.array([0.0, 0.2, 1.1, 3.0]), 2, 1, "zero-left"),
    )
    xs, ts = np.linspace(0.0, 1.0, 13), np.linspace(0.0, smooth_problem.T, 11)
    for sx, st in (uniform, graded):
        sol = xw.solve(xw.assemble(smooth_problem, sx, st))
        path = tmp_path / "solution.txt"
        xw.dump_solution(sol, path)
        loaded = xw.load_solution(path, smooth_problem)
        assert np.array_equal(loaded.u_coeffs, sol.u_coeffs)
        assert np.array_equal(loaded.v_coeffs, sol.v_coeffs)
        # arrays of their own: a strided view of the parsed table would keep
        # all of it alive as long as the solution
        for c in (loaded.u_coeffs, loaded.v_coeffs):
            assert c.dtype == np.float64 and c.flags.c_contiguous
        assert loaded.space_x.dim == sx.dim
        assert loaded.space_t.dim == st.dim
        for before, after in zip(evaluate_grid(sol, xs, ts), evaluate_grid(loaded, xs, ts)):
            assert np.array_equal(before, after)


@pytest.mark.parametrize("degree", [True, np.int64(2)])
def test_integer_like_degrees_are_stored_as_ints(tmp_path, smooth_problem, degree):
    # a bool or NumPy degree is kept as a plain int, so the file records a
    # number that load_solution reads back
    sx = xw.make_space([0.0, 0.5, 1.0], degree, 1, "zero-both")
    st_ = xw.make_space(np.linspace(0.0, smooth_problem.T, 4), degree, np.int64(1), "zero-left")
    for knots in (sx.knots, st_.knots):
        assert type(knots.degree) is int and type(knots.interior_multiplicity) is int
    sol = xw.solve(xw.assemble(smooth_problem, sx, st_))
    path = tmp_path / "solution.txt"
    xw.dump_solution(sol, path)
    loaded = xw.load_solution(path, smooth_problem)
    for space in (loaded.space_x, loaded.space_t):
        assert type(space.degree) is int and space.degree == int(degree)
    assert np.array_equal(loaded.u_coeffs, sol.u_coeffs)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 5),
    data=st.data(),
    gaps_x=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6),
    gaps_t=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6),
    constraints=st.tuples(st.sampled_from(splines.CONSTRAINTS), st.sampled_from(splines.CONSTRAINTS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_dump_load_is_identity(
    tmp_path_factory, smooth_problem, p, data, gaps_x, gaps_t, constraints, seed
):
    mult_x = data.draw(st.integers(1, p), label="space multiplicity")
    mult_t = data.draw(st.integers(1, p), label="time multiplicity")
    sx = xw.make_space(_graded(*smooth_problem.omega, gaps_x), p, mult_x, constraints[0])
    st_ = xw.make_space(_graded(0.0, smooth_problem.T, gaps_t), p, mult_t, constraints[1])
    # coefficients over the whole exponent range, where %.17g must round-trip
    rng = np.random.default_rng(seed)
    shape = (sx.dim, st_.dim)
    u, v = (rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape) for _ in "uv")
    sol = xw.DiscreteSolution(u, v, sx, st_, smooth_problem)
    path = tmp_path_factory.mktemp("round_trip") / "solution.txt"
    xw.dump_solution(sol, path)
    # the v2 body, one f-string per coefficient as the format defines it
    expected = [
        f"{name},{i_x},{i_t},{c[i_x, i_t]:.17g}"
        for name, c in (("U", u), ("V", v))
        for i_x in range(c.shape[0])
        for i_t in range(c.shape[1])
    ]
    assert path.read_text().splitlines()[3:] == expected
    loaded = xw.load_solution(path, smooth_problem)
    assert loaded.u_coeffs.tobytes() == u.tobytes()
    assert loaded.v_coeffs.tobytes() == v.tobytes()
    for before, after in ((sx, loaded.space_x), (st_, loaded.space_t)):
        assert after.breakpoints.tobytes() == before.breakpoints.tobytes()
        assert after.degree == before.degree and after.constraint == before.constraint
        assert after.knots.interior_multiplicity == before.knots.interior_multiplicity
    xs = np.linspace(*smooth_problem.omega, 17)
    ts = np.linspace(0.0, smooth_problem.T, 13)
    for before, after in zip(evaluate_grid(sol, xs, ts), evaluate_grid(loaded, xs, ts)):
        assert np.array_equal(before, after)


def test_second_space_derivative_of_the_shift_is_refused(smooth_problem):
    # the shift has only the traces and their first space derivatives: adding
    # dU0 for d_x = 2 gave 1.8466 at (0.3, 0), where U_xx = -7.98
    sol = xw.solve(xw.assemble(smooth_problem, *_spaces(smooth_problem, 16, 16, 3)))
    with pytest.raises(InvalidProblemError, match="order 2"):
        evaluate_grid(sol, [0.3], [0.0], d_x=2)
    # a time derivative carries no shift, so its space derivatives stay
    u, _ = evaluate(sol, 0.3, 0.5, d_x=2, d_t=1)
    assert np.isfinite(u)


def test_solution_loaded_without_problem_asks_for_it(tmp_path, smooth_problem):
    sx, st = _spaces(smooth_problem, 2, 2, 1)
    sol = xw.solve(xw.assemble(smooth_problem, sx, st))
    path = tmp_path / "solution.txt"
    xw.dump_solution(sol, path)
    loaded = xw.load_solution(path)
    with pytest.raises(InvalidProblemError, match="pass problem to load_solution"):
        evaluate_grid(loaded, [0.5], [1.0])
    # time derivatives carry no initial-data shift, so they need no problem
    for before, after in zip(
        evaluate_grid(sol, [0.5], [1.0], d_t=1), evaluate_grid(loaded, [0.5], [1.0], d_t=1)
    ):
        assert np.array_equal(before, after)


def test_load_checks_the_file_against_the_problem(tmp_path, smooth_problem, singular_problem):
    # a smooth solution loaded with the singular problem used to evaluate
    # with the singular initial-data shift: U(0.3, 0.5) = 0.5017, not 1.3107
    sol = xw.solve(xw.assemble(smooth_problem, *_spaces(smooth_problem, 8, 8, 2)))
    path = tmp_path / "solution.txt"
    xw.dump_solution(sol, path)
    with pytest.raises(InvalidSpaceError, match=r"space_x interval \(0.0, 1.0\)"):
        xw.load_solution(path, singular_problem)
    with pytest.raises(InvalidSpaceError, match=r"space_t interval \(0.0, 3.0\)"):
        xw.load_solution(path, replace(smooth_problem, T=1.0))
    loaded = xw.load_solution(path, smooth_problem)
    assert evaluate(loaded, 0.3, 0.5) == evaluate(sol, 0.3, 0.5)


def test_load_refuses_unrecoverable_files(tmp_path, smooth_problem):
    sx, st = _spaces(smooth_problem, 2, 2, 1)
    path = tmp_path / "solution.txt"
    xw.dump_solution(xw.solve(xw.assemble(smooth_problem, sx, st)), path)
    assert xw.load_solution(path).u_coeffs.shape == (1, 2)
    good = path.read_text().splitlines()
    v1 = [
        "# xtwave solution v1",
        "# space interval=0,1 n_elements=2 degree=1 multiplicity=1 constraint=zero-both",
        "# time interval=0,3 n_elements=2 degree=1 multiplicity=1 constraint=zero-left",
        "U,0,0,1",
    ]
    bad_files = (
        v1,
        ["# some other file"] + good[1:],
        good[:3] + ["U,1,0,1.0"],  # space dim is 1
        good[:3] + ["V,0,-1,1.0"],
        good[:3] + ["W,0,0,1.0"],
        good[:1] + [good[1].replace("breakpoints=", "points=")] + good[2:],
        good[:3] + ["U,0,0"],
        good[:-1],  # truncated
        good + [good[-1]],  # a line given twice
        good[:4] + [good[3].rsplit(",", 1)[0] + ",123.0"] + good[5:],  # index repeated
        good[:3] + [good[4], good[3]] + good[5:],  # two lines swapped
    )
    for lines in bad_files:
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SolutionFileError):
            xw.load_solution(path)
