"""End-to-end acceptance suite.

Each criterion prints one verdict line (run pytest with -s to stream them);
failures carry the measured values in the assertion message.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

import xtwave as xw
from xtwave import analysis, newton
from xtwave.forms import assemble_time_matrix, default_n_points
from xtwave.quadrature import panel_points


def _verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _solve_case(problem, p, r, n_x, n_t):
    sx = xw.make_uniform_space(problem.omega, n_x, p, r, "zero-both")
    st = xw.make_uniform_space((0.0, problem.T), n_t, p, r, "zero-left")
    system = xw.assemble(problem, sx, st)
    return system, xw.solve(system)


def _mean_eoc(errors):
    rates = analysis.eoc(errors)
    return float(np.mean(rates)), rates


# smooth convergence sweep shared by criteria 1 and the runtime check
SMOOTH_FAMILIES = (
    (1, 0, "maximal"),
    (2, 1, "maximal"),
    (3, 2, "maximal"),
    (2, 1, "c1"),
    (3, 1, "c1"),
)
SMOOTH_LEVELS = (2, 4, 8, 16, 32, 64)  # n_x; n_t = 3 n_x keeps h_t = h_x


@pytest.fixture(scope="module")
def smooth_sweep(smooth_problem):
    t0 = time.perf_counter()
    results = {}
    for p, r, family in SMOOTH_FAMILIES:
        reports = []
        for n_x in SMOOTH_LEVELS:
            _, sol = _solve_case(smooth_problem, p, r, n_x, 3 * n_x)
            reports.append(xw.error_report(sol, smooth_problem))
        results[(p, family)] = reports
    return results, time.perf_counter() - t0


def test_criterion_1_smooth_convergence(smooth_sweep):
    results, elapsed = smooth_sweep
    details = []
    ok = elapsed < 300.0
    for (p, family), reports in results.items():
        eoc_veh = analysis.eoc([r.err_Veh for r in reports])[-1]
        eoc_u = analysis.eoc([r.err_U_L2e for r in reports])[-1]
        eoc_v = analysis.eoc([r.err_V_L2e for r in reports])[-1]
        ok &= abs(eoc_veh - p) <= 0.2 and abs(eoc_u - (p + 1)) <= 0.2 and abs(eoc_v - (p + 1)) <= 0.2
        details.append(f"p={p} {family}: Veh {eoc_veh:.2f}, U {eoc_u:.2f}, V {eoc_v:.2f}")
    _verdict(1, ok, f"smooth EOC ({'; '.join(details)}); runtime {elapsed:.0f}s")


def test_criterion_2_gradient_superconvergence(smooth_problem):
    errs = []
    for n_t in (16, 32, 64, 128):
        _, sol = _solve_case(smooth_problem, 2, 1, 256, n_t)
        errs.append(xw.error_report(sol, smooth_problem).err_cgradU_L2e)
    rate = analysis.eoc(errs)[-1]
    _verdict(2, abs(rate - 3.0) <= 0.25, f"temporal EOC of the gradient error {rate:.3f} (target 3)")


def test_criterion_3_unconditional_stability(smooth_problem):
    bound = xw.stability_data_bound(smooth_problem)
    configs = [(p, p - 1, "maximal") for p in (1, 2, 3, 4, 5)]
    configs += [(p, 1, "c1") for p in (2, 3, 4, 5)]
    ok = True
    worst_ratio = 0.0
    worst_norm = 0.0
    for p, r, _family in configs:
        errs = []
        for n_x in (8, 16, 32, 64, 128, 256):
            system, sol = _solve_case(smooth_problem, p, r, n_x, 8)  # h_t = 3/8 fixed
            errs.append(xw.error_report(sol, smooth_problem).err_Veh)
            norm = analysis.discrete_veh_norm(system, sol)
            worst_norm = max(worst_norm, norm)
            ok &= norm <= bound
        ratio = max(errs) / errs[0]
        worst_ratio = max(worst_ratio, ratio)
        ok &= ratio <= 1.5
    _verdict(
        3,
        ok,
        f"fixed h_t=3/8 sweep: worst error ratio {worst_ratio:.3f} (limit 1.5), "
        f"stability norm {worst_norm:.2f} <= data bound {bound:.2f}",
    )


def test_criterion_4_singular_rates(singular_problem):
    details = []
    ok = True
    for p in (2, 3):
        err_u, err_v = [], []
        for k in (2, 3, 4, 5, 6):  # h = 2^-k, breakpoint at the initial kink x = -1
            _, sol = _solve_case(singular_problem, p, p - 1, 3 * 2**k, 2**k)
            rep = xw.error_report(sol, singular_problem)
            err_u.append(rep.err_U_L2)
            err_v.append(rep.err_V_L2)
        rate_u, _ = _mean_eoc(err_u)
        rate_v, _ = _mean_eoc(err_v)
        ok &= abs(rate_u - 1.5) <= 0.15 and abs(rate_v - 0.5) <= 0.15
        details.append(f"p={p}: U {rate_u:.3f}, V {rate_v:.3f}")
    _verdict(4, ok, f"singular-front EOC over 5 levels ({'; '.join(details)})")


def test_criterion_5_infsup_bound(smooth_problem, unit_problem):
    ok = True
    worst = np.inf
    for prob in (smooth_problem, unit_problem):
        expected = 1.0 / (2.0 * np.sqrt((prob.poincare_constant / prob.c0) ** 2 + 4 * prob.T**2))
        assert analysis.infsup_lower_bound(prob) == pytest.approx(expected, rel=1e-14)
        for p in (1, 2, 3):
            for n_x, n_t in ((2, 2), (4, 4), (8, 8), (2, 8), (8, 2)):
                sx = xw.make_uniform_space(prob.omega, n_x, p, None, "zero-both")
                st = xw.make_uniform_space((0.0, prob.T), n_t, p, None, "zero-left")
                est = xw.estimate_infsup(prob, sx, st)
                worst = min(worst, est.gamma_h - est.lower_bound)
                ok &= est.gamma_h >= est.lower_bound - 1e-10
    _verdict(5, ok, f"gamma_h >= lower bound over all space modes (worst margin {worst:.4f})")


def test_criterion_6_weighted_identity(rng):
    T = 3.0
    worst = 0.0
    for p in (1, 2, 3):
        for n_t in (4, 8):
            space = xw.make_uniform_space((0.0, T), n_t, p, None, "zero-left")
            A = assemble_time_matrix(space, 0, 1, T, n_points=12)
            M = assemble_time_matrix(space, 0, 0, T, n_points=12)
            BT = space.tabulate([T], 0)[0]
            for _ in range(20):
                v = rng.standard_normal(space.dim)
                v /= np.max(np.abs(v))
                lhs = v @ A @ v
                wT = BT @ v
                rhs = (v @ M @ v) / (2 * T) + wT**2 / (2 * np.e)
                worst = max(worst, abs(lhs - rhs))
    _verdict(6, worst < 1e-11, f"derivative-pairing identity residual {worst:.2e} (limit 1e-11)")


def test_criterion_7_projector_suite(smooth_problem, rng):
    prob = smooth_problem
    T = prob.T
    # commutator of the space and time elliptic projectors on the exact field
    sx = xw.make_uniform_space(prob.omega, 8, 2, None, "zero-both")
    st = xw.make_uniform_space((0.0, T), 8, 2, None, "zero-left")
    comm, _, _ = analysis.commutation_check(prob.exact.dxdt_u, sx, st, prob.c2, T)
    ok = comm < 1e-10

    # stability of both projectors with 1e-12 slack
    xq, wx = panel_points(sx.breakpoints, 8)
    c2q = prob.c2(xq)
    tq, wt = panel_points(st.breakpoints, 8)
    we = wt * np.exp(-tq / T)
    slack_ok = True
    for _ in range(20):
        a, b, k = rng.standard_normal(3)
        dw = lambda x: (
            a * np.pi * np.cos(np.pi * x) + b * (1 - 2 * x) + 3 * k * np.pi * np.cos(3 * np.pi * x)
        )
        z = analysis.project_space(dw, sx, prob.c2, n_quad=8)
        slack_ok &= np.sqrt(wx @ (c2q * (sx.tabulate(xq, 1) @ z) ** 2)) <= (
            np.sqrt(wx @ (c2q * dw(xq) ** 2)) + 1e-12
        )
        dg = lambda t: a * 1.25 * np.pi * np.sin(2.5 * np.pi * t) + b * np.sin(t)
        zt = analysis.project_time(dg, st, T, n_quad=8)
        slack_ok &= np.sqrt(we @ (st.tabulate(tq, 1) @ zt) ** 2) <= np.sqrt(we @ dg(tq) ** 2) + 1e-12
    ok &= slack_ok

    # duality gain: weighted L2 error converges one order faster in time
    g = lambda t: np.sin(1.25 * np.pi * t) ** 2
    dg = lambda t: 1.25 * np.pi * np.sin(2.5 * np.pi * t)
    e0, e1 = [], []
    for n_t in (8, 16, 32, 64):
        space = xw.make_uniform_space((0.0, T), n_t, 2, None, "zero-left")
        z = analysis.project_time(dg, space, T)
        tqr, wtr = panel_points(space.breakpoints, 8)
        wer = wtr * np.exp(-tqr / T)
        e0.append(np.sqrt(wer @ (space.tabulate(tqr, 0) @ z - g(tqr)) ** 2))
        e1.append(np.sqrt(wer @ (space.tabulate(tqr, 1) @ z - dg(tqr)) ** 2))
    gap = analysis.eoc(e0)[-1] - analysis.eoc(e1)[-1]
    ok &= abs(gap - 1.0) <= 0.15
    _verdict(
        7,
        ok,
        f"commutator {comm:.1e}, stability inequalities hold, duality EOC gap {gap:.3f}",
    )


def test_criterion_8_newton_suite(smooth_problem, rng, load_moments):
    prob = smooth_problem
    coarse_space = xw.make_uniform_space(prob.omega, 4, 2, None, "zero-both")
    fine_space = xw.make_uniform_space(prob.omega, 64, 2, None, "zero-both")
    coarse, fine = (
        newton.make_newton_solver(space, prob.c2, space.element_table(default_n_points(space)))
        for space in (coarse_space, fine_space)
    )
    ok = True
    # positivity on the coarse space
    for _ in range(20):
        m = coarse.M_x @ rng.standard_normal(coarse_space.dim)
        ok &= m @ coarse.solve_K(m) > 0
    # one-sided bound: the dual norm grows under nested refinement
    for _ in range(20):
        c = rng.standard_normal(3)
        load = lambda x, c=c: (
            c[0] * np.sin(np.pi * x) + c[1] * np.sin(2 * np.pi * x) + c[2] * x * (1 - x)
        )
        m_coarse, m_fine = load_moments(coarse, load), load_moments(fine, load)
        norm_coarse = np.sqrt(m_coarse @ coarse.solve_K(m_coarse))
        ok &= norm_coarse <= np.sqrt(m_fine @ fine.solve_K(m_fine)) + 1e-12
    # weighted bounds linking the dual seminorm, the weighted L2 norm and
    # the potential of a discrete tensor field
    T = prob.T
    space_t = xw.make_uniform_space((0.0, T), 6, 2, None, "zero-left")
    M_e = assemble_time_matrix(space_t, 0, 0, T, n_points=8)
    C = prob.poincare_constant / prob.c0
    space_x = xw.make_uniform_space(prob.omega, 10, 2, None, "zero-both")
    solver = newton.make_newton_solver(
        space_x, prob.c2, space_x.element_table(default_n_points(space_x))
    )
    for _ in range(20):
        w = rng.standard_normal((solver.space.dim, space_t.dim))
        neh = np.sqrt(solver.dual_form(w, M_e))
        l2e = np.sqrt(np.sum((solver.M_x @ w @ M_e) * w))
        z = solver.solve_K(solver.M_x @ w)
        pot = np.sqrt(np.sum((solver.M_x @ z @ M_e) * z))
        ok &= neh <= C * l2e + 1e-12
        ok &= pot <= C * neh + 1e-12
    _verdict(8, ok, "dual-norm positivity, nested one-sided bound and both weighted bounds hold")


def _rhs_projection_route(problem, sx, st, n):
    """Solve with the data replaced by their test-space projections."""
    xq, wx = panel_points(sx.breakpoints, n)
    tq, wt = panel_points(st.breakpoints, n)
    we = wt * np.exp(-tq / problem.T)
    Bx = sx.tabulate(xq, 0)
    dBx = sx.tabulate(xq, 1)
    Bt = st.tabulate(tq, 1)  # the test basis theta'
    Mx = Bx.T @ (Bx * wx[:, None])
    Se = Bt.T @ (Bt * we[:, None])
    Fv = np.broadcast_to(
        np.asarray(problem.F(xq[:, None], tq[None, :]), dtype=float), (xq.size, tq.size)
    )
    CF = sla.solve(Mx, sla.solve(Se, ((Bx * wx[:, None]).T @ Fv @ (Bt * we[:, None])).T).T)
    cV0 = sla.solve(Mx, Bx.T @ (wx * problem.V0(xq)))
    G = dBx.T @ (dBx * wx[:, None])
    cg = sla.solve(G, dBx.T @ (wx * problem.c2(xq) * problem.dU0(xq)))
    projected = replace(
        problem,
        F=lambda x, t: sx.tabulate(np.ravel(x), 0) @ CF @ st.tabulate(np.ravel(t), 1).T,
        V0=lambda x: sx.tabulate(np.ravel(x), 0) @ cV0,
        c2=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        dU0=lambda x: sx.tabulate(np.ravel(x), 1) @ cg,
    )
    return xw.assemble(projected, sx, st, n_quad=n).rhs


def test_criterion_9_algebraic_contracts(smooth_problem):
    ok = True
    worst_res = 0.0
    for p in (1, 2, 3):
        regs = (p - 1,) if p < 2 else (p - 1, 1)
        for r in regs:
            for ne in (2, 4, 8):
                system, sol = _solve_case(smooth_problem, p, r, ne, ne)
                n_x, n_t = system.n_x, system.n_t
                ok &= system.matrix.shape == (2 * n_x * n_t, 2 * n_x * n_t)
                worst_res = max(worst_res, sol.residual)
                ok &= sol.residual < 1e-9

    # the right-hand side only sees test-space components of the data
    sx = xw.make_uniform_space(smooth_problem.omega, 6, 2, None, "zero-both")
    st = xw.make_uniform_space((0.0, smooth_problem.T), 9, 2, None, "zero-left")
    system = xw.assemble(smooth_problem, sx, st, n_quad=8)
    rhs_proj = _rhs_projection_route(smooth_problem, sx, st, 8)
    lu = spla.splu(system.matrix)
    z = lu.solve(system.rhs)
    z_proj = lu.solve(rhs_proj)
    diff = np.max(np.abs(z - z_proj)) / np.max(np.abs(z))
    ok &= diff < 1e-10
    _verdict(
        9,
        ok,
        f"square systems, solve residual {worst_res:.1e} < 1e-9, "
        f"data-projection coefficient shift {diff:.1e} < 1e-10",
    )
