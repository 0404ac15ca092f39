import dataclasses
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import xtwave as xw
from xtwave import analysis, newton, splines, system
from xtwave.forms import default_n_points, time_factors
from xtwave.quadrature import panel_points


def test_eoc():
    assert np.allclose(analysis.eoc([1.0, 0.25, 0.0625]), [2.0, 2.0])


def test_infsup_lower_bound_values(smooth_problem, unit_problem):
    # arithmetic from 1 / (2 sqrt(C^2/c0^2 + 4 T^2)) with C = |Omega| / pi
    assert analysis.infsup_lower_bound(unit_problem) == pytest.approx(
        1.0 / (2.0 * np.sqrt(1.0 / np.pi**2 + 4.0)), rel=1e-14
    )
    assert analysis.infsup_lower_bound(smooth_problem) == pytest.approx(
        1.0 / (2.0 * np.sqrt(1.0 / np.pi**2 + 36.0)), rel=1e-14
    )
    # four significant digits of the closed forms
    assert analysis.infsup_lower_bound(unit_problem) == pytest.approx(0.246893, abs=1e-6)
    assert analysis.infsup_lower_bound(smooth_problem) == pytest.approx(0.083216, abs=1e-6)


def test_zero_data_errors(unit_problem):
    zeros_x = unit_problem.U0
    exact = xw.ExactSolution(
        u=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
        dx_u=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
        v=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
        dt_v=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
    )
    prob = replace(unit_problem, exact=exact)
    sx = xw.make_uniform_space(prob.omega, 4, 2, None, "zero-both")
    st = xw.make_uniform_space((0.0, prob.T), 4, 2, None, "zero-left")
    sol = xw.solve(xw.assemble(prob, sx, st))
    rep = xw.error_report(sol, prob)
    assert rep.err_Veh == 0.0
    assert rep.err_U_L2 == 0.0
    assert rep.err_V_L2e == 0.0


def test_error_report_component_sum(smooth_problem, smooth_solution_cache):
    _, sol = smooth_solution_cache(2, 1, 8, 24)
    rep = xw.error_report(sol, smooth_problem, relative=False)
    total = np.sqrt(
        rep.err_dtU_L2e**2 + rep.err_dtV_Neh**2 + rep.err_cgradU_L2e**2 + rep.err_V_L2e**2
    )
    assert rep.err_Veh == pytest.approx(total, rel=1e-12)
    for value in (rep.err_Veh, rep.err_U_L2e, rep.err_U_L2, rep.err_V_L2, rep.err_dtV_Neh):
        assert value >= 0.0


def test_space_projector_idempotent_and_stable(smooth_problem, rng):
    prob = smooth_problem
    space = xw.make_uniform_space(prob.omega, 8, 2, None, "zero-both")
    xq, wx = panel_points(space.breakpoints, 8)
    c2q = prob.c2(xq)
    # idempotence: a function already in the space projects to itself
    coeffs = rng.standard_normal(space.dim)
    z = analysis.project_space(lambda x: space.tabulate(x, 1) @ coeffs, space, prob.c2)
    assert np.max(np.abs(z - coeffs)) < 1e-10
    # stability in the weighted gradient seminorm
    dw = lambda x: 3 * np.pi * np.cos(3 * np.pi * x) + 1 - 2 * x
    z = analysis.project_space(dw, space, prob.c2, n_quad=8)
    proj_grad = np.sqrt(wx @ (c2q * (space.tabulate(xq, 1) @ z) ** 2))
    full_grad = np.sqrt(wx @ (c2q * dw(xq) ** 2))
    assert proj_grad <= full_grad + 1e-12
    # best approximation: normal equations give the same minimizer
    from xtwave.forms import assemble_space_matrix

    K = assemble_space_matrix(space.element_table(8), 1, prob.c2)
    dB = space.tabulate(xq, 1)
    z2 = sla.solve(K, dB.T @ (wx * c2q * dw(xq)), assume_a="pos")
    assert np.max(np.abs(z - z2)) < 1e-12


def test_time_projector_idempotent_and_stable(rng):
    T = 3.0
    space = xw.make_uniform_space((0.0, T), 8, 2, None, "zero-left")
    tq, wt = panel_points(space.breakpoints, 8)
    we = wt * np.exp(-tq / T)
    coeffs = rng.standard_normal(space.dim)
    z = analysis.project_time(lambda t: space.tabulate(t, 1) @ coeffs, space, T)
    assert np.max(np.abs(z - coeffs)) < 1e-10
    dw = lambda t: 1.25 * np.pi * np.sin(2.5 * np.pi * t)
    z = analysis.project_time(dw, space, T)
    proj = np.sqrt(we @ (space.tabulate(tq, 1) @ z) ** 2)
    full = np.sqrt(we @ dw(tq) ** 2)
    assert proj <= full + 1e-12


def test_time_projector_aubin_nitsche_gap():
    # the weighted L2 projection error gains one order over the derivative
    # error under temporal refinement
    T = 3.0
    w = lambda t: np.sin(1.25 * np.pi * t) ** 2
    dw = lambda t: 1.25 * np.pi * np.sin(2.5 * np.pi * t)
    errs_l2, errs_h1 = [], []
    for nt in (8, 16, 32, 64):
        space = xw.make_uniform_space((0.0, T), nt, 2, None, "zero-left")
        z = analysis.project_time(dw, space, T)
        tq, wt = panel_points(space.breakpoints, 8)
        we = wt * np.exp(-tq / T)
        errs_l2.append(np.sqrt(we @ (space.tabulate(tq, 0) @ z - w(tq)) ** 2))
        errs_h1.append(np.sqrt(we @ (space.tabulate(tq, 1) @ z - dw(tq)) ** 2))
    gap = analysis.eoc(errs_l2)[-1] - analysis.eoc(errs_h1)[-1]
    assert gap == pytest.approx(1.0, abs=0.15)


def test_commutation_separable(smooth_problem):
    prob = smooth_problem
    sx = xw.make_uniform_space(prob.omega, 6, 2, None, "zero-both")
    st = xw.make_uniform_space((0.0, prob.T), 6, 2, None, "zero-left")
    dxdt_w = lambda x, t: np.cos(np.pi * x) * np.exp(-t)  # separable mixed derivative
    norm, A, B = analysis.commutation_check(dxdt_w, sx, st, prob.c2, prob.T)
    assert norm < 1e-12
    assert np.max(np.abs(A - B)) < 1e-11


def test_commutation_smooth_exact(smooth_problem):
    prob = smooth_problem
    sx = xw.make_uniform_space(prob.omega, 8, 2, None, "zero-both")
    st = xw.make_uniform_space((0.0, prob.T), 8, 2, None, "zero-left")
    norm, _, _ = analysis.commutation_check(prob.exact.dxdt_u, sx, st, prob.c2, prob.T)
    assert norm < 1e-10


def test_projectors_tabulate_each_time_basis_once(smooth_problem, tabulate_calls):
    # theta and theta' for the time factors and the loads in one table, then
    # both orders of the space basis for M_x, K_x and the space loads
    prob = smooth_problem
    sx = xw.make_uniform_space(prob.omega, 6, 2, None, "zero-both")
    st_ = xw.make_uniform_space((0.0, prob.T), 5, 2, None, "zero-left")
    analysis.project_time(np.cos, st_, prob.T)
    assert len(tabulate_calls) <= 1
    tabulate_calls.clear()
    analysis.project_space(np.cos, sx, prob.c2)
    assert len(tabulate_calls) <= 1
    tabulate_calls.clear()
    analysis.commutation_check(prob.exact.dxdt_u, sx, st_, prob.c2, prob.T)
    assert len(tabulate_calls) <= 2


def test_projectors_refuse_unconstrained_space_x(smooth_problem):
    # without the zero-both constraint K_x is singular
    prob = smooth_problem
    free = xw.make_uniform_space(prob.omega, 4, 2, None, "none")
    st_ = xw.make_uniform_space((0.0, prob.T), 4, 2, None, "zero-left")
    with pytest.raises(xw.InvalidSpaceError, match="zero-both"):
        analysis.project_space(np.cos, free, prob.c2)
    with pytest.raises(xw.InvalidSpaceError, match="zero-both"):
        analysis.commutation_check(prob.exact.dxdt_u, free, st_, prob.c2, prob.T)


def test_projectors_refuse_bad_time_spaces(smooth_problem):
    prob = smooth_problem
    sx = xw.make_uniform_space(prob.omega, 4, 2, None, "zero-both")
    zero_both = xw.make_uniform_space((0.0, prob.T), 4, 2, None, "zero-both")
    wrong_interval = xw.make_uniform_space((0.0, 1.0), 4, 2, None, "zero-left")
    for bad in (zero_both, wrong_interval):
        with pytest.raises(xw.InvalidSpaceError):
            analysis.project_time(np.cos, bad, prob.T)
        with pytest.raises(xw.InvalidSpaceError):
            analysis.commutation_check(prob.exact.dxdt_u, sx, bad, prob.c2, prob.T)


def test_infsup_examples(smooth_problem, unit_problem):
    sx = xw.make_uniform_space(smooth_problem.omega, 4, 1, None, "zero-both")
    st = xw.make_uniform_space((0.0, smooth_problem.T), 4, 1, None, "zero-left")
    est = xw.estimate_infsup(smooth_problem, sx, st)
    assert est.gamma_h >= est.lower_bound - 1e-10
    # refinement never drops gamma_h below the mesh-independent bound
    for ne in (2, 4, 8):
        sx = xw.make_uniform_space(unit_problem.omega, ne, 2, None, "zero-both")
        st = xw.make_uniform_space((0.0, unit_problem.T), ne, 2, None, "zero-left")
        est = xw.estimate_infsup(unit_problem, sx, st)
        assert est.gamma_h >= est.lower_bound - 1e-10


def test_infsup_reads_no_problem_data(smooth_problem, tabulate_calls):
    def no_data(*args):
        raise AssertionError("estimate_infsup evaluated the problem data")

    sx = xw.make_uniform_space(smooth_problem.omega, 6, 2, None, "zero-both")
    st_ = xw.make_uniform_space((0.0, smooth_problem.T), 5, 2, None, "zero-left")
    expected = xw.estimate_infsup(smooth_problem, sx, st_)
    tabulate_calls.clear()
    dataless = replace(smooth_problem, F=no_data, U0=no_data, V0=no_data, dU0=no_data)
    assert xw.estimate_infsup(dataless, sx, st_) == expected
    # one table of both orders per space
    assert len(tabulate_calls) <= 2


def test_error_report_tabulates_each_basis_once(
    smooth_problem, smooth_solution_cache, tabulate_calls
):
    # one table of both orders per space; the Newton seminorm reuses the
    # operator of the solve
    _, sol = smooth_solution_cache(2, 1, 8, 24)
    tabulate_calls.clear()
    xw.error_report(sol, smooth_problem)
    assert len(tabulate_calls) <= 2


@pytest.mark.parametrize("name", ["smooth", "singular"])
def test_error_report_applies_each_space_product_once(monkeypatch, name):
    # sum factorization: one time product on the coefficients per
    # (field, d_t) read, (u, 0), (v, 0), (u, 1) and (v, 1) for dtV; one
    # space contraction per grid field, U, V, dtU and cgradU (dtV's
    # moments come from M_x, not from a grid field); the kink halves take
    # (0, u), (0, v) and (1, u) on the cut rows only.  No product is
    # computed twice, and the main grid builds no dense table.
    problem = xw.by_name(name).spec
    sx = xw.make_uniform_space(problem.omega, 8, 2, 1, "zero-both")
    st_ = xw.make_uniform_space((0.0, problem.T), 6, 2, 1, "zero-left")
    sol = xw.solve(xw.assemble(problem, sx, st_))
    expected = xw.error_report(sol, problem)
    calls, tabulated = Counter(), []

    def counted(method):
        original = getattr(splines.ElementTable, method)

        def call(self, C, d=0, *args):
            axis = "time" if self.values.shape[1] == 6 else "space"
            calls[method, axis, d, C.shape, np.ascontiguousarray(C).tobytes()] += 1
            return original(self, C, d, *args)

        return call

    def tabulate(self, xs, *args):
        tabulated.append(np.size(xs))
        return original_tabulate(self, xs, *args)

    original_tabulate = splines.SplineSpace.tabulate
    for method in ("apply", "apply_rows"):
        monkeypatch.setattr(splines.ElementTable, method, counted(method))
    monkeypatch.setattr(splines.SplineSpace, "tabulate", tabulate)
    assert xw.error_report(sol, problem) == expected
    assert max(calls.values()) == 1
    kinds = Counter(key[:2] for key in calls)
    expected_kinds = {("apply", "time"): 4, ("apply", "space"): 4}
    if name == "singular":
        expected_kinds[("apply_rows", "space")] = 3
    assert kinds == expected_kinds
    # the kink halves keep their dense per-row time table
    assert len(tabulated) == (name == "singular")


@pytest.mark.parametrize("n_quad", [None, 8])
def test_error_report_shifts_with_its_problem_argument(tmp_path, smooth_problem, n_quad):
    # a loaded solution rebuilds the solve's operator on the system's rule
    sx = xw.make_uniform_space(smooth_problem.omega, 4, 2, 1, "zero-both")
    st_ = xw.make_uniform_space((0.0, smooth_problem.T), 4, 2, 1, "zero-left")
    sol = xw.solve(xw.assemble(smooth_problem, sx, st_, n_quad))
    path = tmp_path / "solution.txt"
    xw.dump_solution(sol, path)
    loaded = xw.load_solution(path)
    assert loaded.problem is None
    report = xw.error_report(sol, smooth_problem, n_quad)
    assert xw.error_report(loaded, smooth_problem, n_quad) == report


def test_error_report_needs_no_dV0(smooth_problem, smooth_solution_cache):
    # no error field is the space derivative of V, so dV0 is never read
    system, sol = smooth_solution_cache(2, 1, 8, 24)
    prob = replace(smooth_problem, dV0=None)
    sol_no_dV0 = xw.solve(xw.assemble(prob, system.space_x, system.space_t))
    assert xw.error_report(sol_no_dV0, prob) == xw.error_report(sol, smooth_problem)



# frozen values of the eight ErrorReport fields on smooth p=2 C^1 8x24, in
# the field order of ErrorReport, keyed by relative
SMOOTH_ANCHOR = {
    True: (
        4.010636391833616e-02, 4.007949404614095e-02, 3.111726208969607e-03, 7.608926253112258e-03,
        2.805199992730317e-02, 1.917248683230469e-03, 1.926182425072217e-03, 7.676317979325616e-03,
    ),
    False: (
        1.083907335311492e-01, 2.239895068568707e-01, 1.809073131971540e-02, 2.056374643282474e-02,
        2.503397541830709e-01, 2.896927935637984e-03, 3.683993446443825e-03, 2.610618875730093e-02,
    ),
}


def test_smooth_error_regression_anchor(smooth_problem, smooth_solution_cache):
    # every field, so a swap of the weighted and plain U or V sums shows
    _, sol = smooth_solution_cache(2, 1, 8, 24)
    fields = [f.name for f in dataclasses.fields(analysis.ErrorReport)][:-1]
    for relative, expected in SMOOTH_ANCHOR.items():
        rep = xw.error_report(sol, smooth_problem, relative=relative)
        assert [getattr(rep, name) for name in fields] == pytest.approx(expected, rel=1e-12)


def test_error_report_without_dt_v(smooth_problem, smooth_solution_cache):
    # no dt_v: no Newton seminorm, and V_eh is the sum of the other three
    _, sol = smooth_solution_cache(2, 1, 8, 24)
    prob = replace(smooth_problem, exact=replace(smooth_problem.exact, dt_v=None))
    same = ["err_dtU_L2e", "err_cgradU_L2e", "err_V_L2e", "err_U_L2e", "err_U_L2", "err_V_L2"]
    for relative in (True, False):
        rep = xw.error_report(sol, prob, relative=relative)
        full = xw.error_report(sol, smooth_problem, relative=relative)
        assert rep.err_dtV_Neh == 0
        assert [getattr(rep, name) for name in same] == [getattr(full, name) for name in same]
    squares = rep.err_dtU_L2e**2 + rep.err_cgradU_L2e**2 + rep.err_V_L2e**2
    assert rep.err_Veh**2 == pytest.approx(squares, rel=1e-12)


def test_error_report_streams_its_fields(smooth_problem, smooth_solution_cache, traced_peak):
    # every field goes through one reused grid buffer, so the report holds
    # the exact values, the buffer and the gathered element blocks of one
    # space contraction, not one array per field and sum
    _, sol = smooth_solution_cache(3, 2, 32, 96)
    n = default_n_points(sol.space_x, sol.space_t, extra=3)
    grid_bytes = 32 * n * 96 * n * 8
    xw.error_report(sol, smooth_problem)  # fills the caches of the rules
    assert traced_peak(xw.error_report, sol, smooth_problem) <= 9 * grid_bytes


def test_time_heavy_error_report_peak(smooth_problem, smooth_solution_cache, traced_peak):
    # no dense n_tq x n_t time table: on a time-heavy level the report's
    # peak is a few grid arrays (29 with the dense table at p=2 16x1024)
    _, sol = smooth_solution_cache(2, 1, 16, 1024)
    n = default_n_points(sol.space_x, sol.space_t, extra=3)
    grid_bytes = 16 * n * 1024 * n * 8
    xw.error_report(sol, smooth_problem)  # fills the caches of the rules
    assert traced_peak(xw.error_report, sol, smooth_problem) <= 6 * grid_bytes


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(1, 5),
    gaps_x=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=5),
    gaps_t=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=5),
    extra=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_tensor_grid_matches_dense_tables(p, gaps_x, gaps_t, extra, seed):
    # the sum-factorized grid of error_report equals B_x C B_t^T from the
    # dense tables of the same nodes, for every derivative order and
    # multiplicity, on graded meshes
    rng = np.random.default_rng(seed)
    bp_x = np.concatenate(([0.0], np.cumsum(gaps_x)))
    bp_t = np.concatenate(([0.0], np.cumsum(gaps_t)))
    n = p + extra
    for m_x in range(1, p + 1):
        for m_t in range(1, p + 1):
            sx = xw.make_space(bp_x, p, m_x, "zero-both")
            st_ = xw.make_space(bp_t, p, m_t, "zero-left")
            Ex, Et = sx.element_table(n), st_.element_table(n)
            C = rng.standard_normal((sx.dim, st_.dim))
            values = analysis._tensor_grid(Ex, Et, {"u": C}, [("u", 0), ("u", 1)])
            out = np.empty((Ex.nodes.size, Et.nodes.size))
            for d_x in (0, 1):
                for d_t in (0, 1):
                    dense = sx.tabulate(Ex.nodes, d_x) @ C @ st_.tabulate(Et.nodes, d_t).T
                    assert values(d_x, d_t, "u", out) is out
                    assert np.max(np.abs(out - dense)) <= 1e-13 * np.max(np.abs(dense))


# the relative fields of the anchor levels, computed with the dense time
# table that error_report used before its sum factorization; keyed by
# (problem, p, n_x, n_t), in the field order of ErrorReport
DENSE_TABLE_RELATIVE = {
    ("smooth", 2, 8, 24): (
        0.04010636391833624, 0.04007949404614096, 0.0031117262089698115, 0.0076089262531126665,
        0.028051999927303204, 0.0019172486832307067, 0.0019261824250724462, 0.007676317979326039,
    ),
    ("singular", 2, 12, 4): (
        0.7643602787894169, 0.9007499997585539, 0.9932102982382972, 1.0121401578112899,
        0.9106873303407415, 0.43748202499704286, 0.45818949744545945, 1.0206849170664927,
    ),
    ("singular", 2, 24, 8): (
        0.47514151042529107, 0.9046619460586653, 0.6619050044107826, 0.5565793424029177,
        0.8119667445483332, 0.15978110476952867, 0.16802178439226362, 0.5745063340782849,
    ),
    ("singular", 3, 12, 4): (
        0.709094808169418, 0.9047132177530699, 0.9882165771888064, 0.9190390454761228,
        0.8966626250868194, 0.4149763624090195, 0.41758604817541417, 0.9313468646555326,
    ),
    ("singular", 3, 24, 8): (
        0.4122521669095868, 0.9071147500623602, 0.5079555156197755, 0.579279805495331,
        0.8001674695538481, 0.09886202916970208, 0.10420115716358454, 0.5882848429889709,
    ),
    ("graded", 2, 48, 16): (
        0.3420562758133842, 0.9130552217072418, 0.36946758698124726, 0.37000596297562316,
        0.780418999312188, 0.051025863652378746, 0.05505457415929996, 0.38538365768224736,
    ),
}


def test_relative_fields_match_the_dense_time_table(smooth_problem, singular_problem):
    fields = [f.name for f in dataclasses.fields(analysis.ErrorReport)][:-1]
    for (name, p, n_x, n_t), expected in DENSE_TABLE_RELATIVE.items():
        prob = smooth_problem if name == "smooth" else singular_problem
        if name == "graded":
            sx = xw.make_space(_graded_breakpoints(8, 40, prob.omega), p, 1, "zero-both")
        else:
            sx = xw.make_uniform_space(prob.omega, n_x, p, p - 1, "zero-both")
        st_ = xw.make_uniform_space((0.0, prob.T), n_t, p, p - 1, "zero-left")
        rep = xw.error_report(xw.solve(xw.assemble(prob, sx, st_)), prob)
        got = np.array([getattr(rep, f) for f in fields])
        assert np.max(np.abs(got - expected)) <= 1e-13, (name, p, n_x, n_t)


def test_infsup_size_cap(smooth_problem):
    # 2 * 64 * 65 = 8320 unknowns: the per-mode estimate has no size cap
    sx = xw.make_uniform_space(smooth_problem.omega, 64, 2, None, "zero-both")
    st = xw.make_uniform_space((0.0, smooth_problem.T), 64, 2, None, "zero-left")
    est = xw.estimate_infsup(smooth_problem, sx, st)
    assert est.dims == (64, 65)
    assert est.gamma_h >= est.lower_bound - 1e-10


def _dense_infsup_operators(system):
    """The dense Kronecker route: B^T Y^-1 B and the trial Gram X of the
    expanded block system."""
    N = system.M_x @ np.linalg.solve(system.K_x, system.M_x)  # Newton matrix
    X = sla.block_diag(
        np.kron(system.S_e, system.M_x) + np.kron(system.M_e, system.K_x),
        np.kron(system.S_e, N) + np.kron(system.M_e, system.M_x),
    )
    Y = sla.block_diag(np.kron(system.S_e, system.M_x), np.kron(system.S_e, N))
    B = system.matrix.toarray()
    return B.T @ sla.cho_solve(sla.cho_factor(Y), B), X


def _smallest_mu(A, X):
    return sla.eigh(A, X, eigvals_only=True, subset_by_index=[0, 0])[0]


def _graded(a, b, gaps):
    return a + (b - a) * np.concatenate(([0.0], np.cumsum(gaps))) / np.sum(gaps)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 3),
    data=st.data(),
    gaps_x=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=5),
    gaps_t=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=4),
    amplitude=st.floats(0.1, 0.9),
)
def test_infsup_matches_dense_reference(smooth_problem, p, data, gaps_x, gaps_t, amplitude):
    r = data.draw(st.integers(0, p - 1), label="regularity")
    prob = replace(smooth_problem, c2=lambda x: 1.0 + amplitude * np.cos(3.0 * x))
    space_x = xw.make_space(_graded(*prob.omega, gaps_x), p, p - r, "zero-both")
    space_t = xw.make_space(_graded(0.0, prob.T, gaps_t), p, p - r, "zero-left")
    est = xw.estimate_infsup(prob, space_x, space_t)
    system = xw.assemble(prob, space_x, space_t)
    A, X = _dense_infsup_operators(system)
    assert est.dims == (system.n_x, system.n_t)
    assert est.gamma_h == pytest.approx(np.sqrt(_smallest_mu(A, X)), rel=1e-9)
    # restricted to its own space mode (U and V columns I kron phi_i), the
    # dense problem attains gamma_h
    lam, Phi = system.space_op.eigenvalues, system.space_op.eigenpairs[1]
    assert est.lam == lam[est.mode_index]
    P = sla.block_diag(*[np.kron(np.eye(system.n_t), Phi[:, [est.mode_index]])] * 2)
    mu_i = _smallest_mu(P.T @ A @ P, P.T @ X @ P)
    assert est.gamma_h == pytest.approx(np.sqrt(mu_i), rel=1e-9)


def _loop_mode_infsup(lam, A_e, S_e, M_e):
    """The per-mode loop: smallest mu of B_i^T Y_i^-1 B_i z = mu X_i z with
    B_i = [[lam_i A_e, S_e], [-S_e, A_e]], X_i = diag(S_e + lam_i M_e,
    S_e/lam_i + M_e) and Y_i = diag(S_e, S_e/lam_i), one eigh per mode."""
    n = A_e.shape[0]
    S_cho = sla.cho_factor(S_e)
    mu = []
    for lam_i in lam:
        B = np.block([[lam_i * A_e, S_e], [-S_e, A_e]])
        Yinv_B = np.vstack((sla.cho_solve(S_cho, B[:n]), lam_i * sla.cho_solve(S_cho, B[n:])))
        X = sla.block_diag(S_e + lam_i * M_e, S_e / lam_i + M_e)
        mu.append(_smallest_mu(B.T @ Yinv_B, X))
    return np.array(mu)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 3),
    data=st.data(),
    gaps_x=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=6),
    gaps_t=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=6),
    log_T=st.floats(-3.0, 2.0),
    amplitude=st.floats(0.1, 0.9),
)
def test_batched_modes_match_loop(smooth_problem, p, data, gaps_x, gaps_t, log_T, amplitude):
    r = data.draw(st.integers(0, p - 1), label="regularity")
    T = 10.0**log_T
    prob = replace(smooth_problem, T=T, c2=lambda x: 1.0 + amplitude * np.cos(3.0 * x))
    space_x = xw.make_space(_graded(*prob.omega, gaps_x), p, p - r, "zero-both")
    space_t = xw.make_space(_graded(0.0, T, gaps_t), p, p - r, "zero-left")
    system = xw.assemble(prob, space_x, space_t)
    lam = system.space_op.eigenvalues
    mu = analysis._modes_infsup(lam, system.A_e, system.S_e, system.M_e)
    mu_loop = _loop_mode_infsup(lam, system.A_e, system.S_e, system.M_e)
    assert mu == pytest.approx(mu_loop, rel=1e-9)
    est = xw.estimate_infsup(prob, space_x, space_t)
    assert est.lam == lam[est.mode_index]
    assert est.gamma_h == pytest.approx(np.sqrt(np.min(mu_loop)), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 5),
    data=st.data(),
    gaps=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=6),
    log_T=st.floats(-3.0, 2.0),
)
def test_mode_terms_match_cholesky_form(p, data, gaps, log_T):
    # V^T P V and V^T D V from the time pencil's eigenpairs alone equal the
    # form with a Cholesky factor of S_e, AV^T S_e^-1 AV and V^T (A_e - A_e^T) V
    m = data.draw(st.integers(1, p), label="multiplicity")
    T = 10.0**log_T
    space_t = xw.make_space(_graded(0.0, T, gaps), p, m, "zero-left")
    M_e, S_e, A_e, *_ = time_factors(space_t, T, default_n_points(space_t))
    sigma, P, D = analysis._mode_terms(A_e, S_e, M_e)
    sigma_ref, V = sla.eigh(S_e, M_e)
    AV = A_e @ V
    P_ref = AV.T @ sla.cho_solve(sla.cho_factor(S_e), AV)
    D_ref = V.T @ (A_e - A_e.T) @ V
    assert np.array_equal(sigma, sigma_ref)
    for got, ref in ((P, P_ref), (D, D_ref)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_batched_modes_chunking_is_exact(smooth_problem, monkeypatch):
    sx = xw.make_uniform_space(smooth_problem.omega, 24, 3, 1, "zero-both")
    st_ = xw.make_uniform_space((0.0, smooth_problem.T), 6, 3, 1, "zero-left")
    system = xw.assemble(smooth_problem, sx, st_)
    lam = system.space_op.eigenpairs[0]
    factors = (system.A_e, system.S_e, system.M_e)
    whole = analysis._modes_infsup(lam, *factors)
    # room for 7 mode matrices per stack: 6 full stacks and a partial one
    monkeypatch.setattr(analysis, "_MODE_STACK_BYTES", 7 * 16 * system.n_t**2 + 1)
    chunked = analysis._modes_infsup(lam, *factors)
    assert lam.size == 48
    assert np.array_equal(chunked, whole)


@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(1, 3),
    data=st.data(),
    gaps_x=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=6),
    gaps_t=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=6),
    log_T=st.floats(-3.0, 2.0),
    amplitude=st.floats(0.1, 0.9),
    order=st.sampled_from(["ascending", "reversed", "shuffled"]),
    twins=st.integers(0, 3),
    per_stack=st.integers(1, 3),
)
def test_certified_min_matches_full_scan(
    smooth_problem, p, data, gaps_x, gaps_t, log_T, amplitude, order, twins, per_stack
):
    r = data.draw(st.integers(0, p - 1), label="regularity")
    T = 10.0**log_T
    prob = replace(smooth_problem, T=T, c2=lambda x: 1.0 + amplitude * np.cos(3.0 * x))
    space_x = xw.make_space(_graded(*prob.omega, gaps_x), p, p - r, "zero-both")
    space_t = xw.make_space(_graded(0.0, T, gaps_t), p, p - r, "zero-left")
    system = xw.assemble(prob, space_x, space_t)
    lam = system.space_op.eigenpairs[0]
    # copies of the lowest mode: their matrices are its own, bit for bit, so a
    # stack that holds one and falls back must reproduce mu_0 exactly
    lam = np.append(lam, np.full(twins, lam[0]))
    if order == "reversed":
        lam = lam[::-1].copy()
    elif order == "shuffled":
        lam = lam[data.draw(st.permutations(range(lam.size)), label="order")]
    factors = (system.A_e, system.S_e, system.M_e)
    cholesky = np.linalg.cholesky

    def refusing(H):
        # a refused stack takes the fallback: rebuilt and scanned by eigvalsh
        if data.draw(st.booleans(), label="refuse stack"):
            raise np.linalg.LinAlgError("refused")
        return cholesky(H)

    with pytest.MonkeyPatch.context() as mp:
        # a stack and its factor share the budget: per_stack modes per stack
        mp.setattr(analysis, "_MODE_STACK_BYTES", 2 * per_stack * 16 * system.n_t**2)
        mp.setattr(np.linalg, "cholesky", refusing)
        mu = analysis._modes_infsup(lam, *factors)
        mu_min, i = analysis._min_mode_infsup(lam, *factors)
    assert (mu_min, i) == (np.min(mu), int(np.argmin(mu)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), per_stack=st.integers(1, 3))
def test_certified_min_finds_lower_modes(seed, n, per_stack):
    # random A (not from a problem), S and M: about a third of these draws
    # have their minimum away from the lowest lam, so the certificate fails
    # on the stack that holds it and the fallback must find it
    rng = np.random.default_rng(seed)
    A, B, C = rng.standard_normal((3, n, n))
    S, M = B @ B.T + np.eye(n), C @ C.T + np.eye(n)
    lam = rng.uniform(0.01, 100.0, 24)
    mu = analysis._modes_infsup(lam, A, S, M)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_MODE_STACK_BYTES", 2 * per_stack * 16 * n**2)
        assert analysis._min_mode_infsup(lam, A, S, M) == (np.min(mu), int(np.argmin(mu)))


@pytest.fixture
def eigvalsh_matrices(monkeypatch):
    """List that receives the number of matrices of every eigvalsh call."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_infsup_eigensolves_one_mode(smooth_problem, unit_problem, eigvalsh_matrices):
    # criterion 5's levels, then the meshes of the infsup-dense benchmark
    levels = [
        (prob, p, n_x, n_t)
        for prob in (smooth_problem, unit_problem)
        for p in (1, 2, 3)
        for n_x, n_t in ((2, 2), (4, 4), (8, 8), (2, 8), (8, 2))
    ] + [
        (smooth_problem, p, n_x, n_t)
        for p in (1, 2, 3)
        for n_x, n_t in ((8, 8), (16, 16), (24, 24), (32, 16), (16, 32))
    ]
    solved = {}
    for prob, p, n_x, n_t in levels:
        sx = xw.make_uniform_space(prob.omega, n_x, p, None, "zero-both")
        st_ = xw.make_uniform_space((0.0, prob.T), n_t, p, None, "zero-left")
        eigvalsh_matrices.clear()
        est = xw.estimate_infsup(prob, sx, st_)
        solved[(prob.name, p, n_x, n_t)] = (est.mode_index, sum(eigvalsh_matrices))
    assert solved == dict.fromkeys(solved, (0, 1))


def _full_scan_infsup(problem, space_x, space_t):
    level = system._level(problem, space_x, space_t)
    lam = level.space_op.eigenpairs[0]
    return np.argmin(analysis._modes_infsup(lam, level.A_e, level.S_e, level.M_e))


def test_certified_route_peak_within_full_scan(smooth_problem, monkeypatch, traced_peak):
    # 63 modes of 64 x 64 matrices (64 KiB each), 16 per stack of the scan
    monkeypatch.setattr(analysis, "_MODE_STACK_BYTES", 1 << 20)
    sx = xw.make_uniform_space(smooth_problem.omega, 64, 1, None, "zero-both")
    st_ = xw.make_uniform_space((0.0, smooth_problem.T), 64, 1, None, "zero-left")
    xw.estimate_infsup(smooth_problem, sx, st_)  # fills the caches of the rules
    full = traced_peak(_full_scan_infsup, smooth_problem, sx, st_)
    assert full > analysis._MODE_STACK_BYTES
    assert traced_peak(xw.estimate_infsup, smooth_problem, sx, st_) <= full


def test_stability_norm_below_data_bound(smooth_problem, smooth_solution_cache):
    system, sol = smooth_solution_cache(2, 1, 8, 24)
    norm = analysis.discrete_veh_norm(system, sol)
    bound = xw.stability_data_bound(smooth_problem)
    assert 0 < norm <= bound


def test_stability_data_bound_streams_its_grid(smooth_problem, traced_peak):
    # F is summed in row blocks of _BOUND_BLOCK values (256 KiB): the bound
    # holds a few such blocks, not the whole 768 x 768 grid
    n = analysis._BOUND_ELEMENTS * analysis._BOUND_POINTS
    block_bytes = 8 * analysis._BOUND_BLOCK
    assert 5 * block_bytes < 8 * n * n
    xw.stability_data_bound(smooth_problem)  # fills the cache of the rule
    assert traced_peak(xw.stability_data_bound, smooth_problem) <= 5 * block_bytes


def test_manufactured_stability_norm_below_data_bound():
    # U = sin(pi x) sin(3t), c = 1: the bound's term sqrt(T) ||c grad V0||
    # reads dV0, which manufactured derives from dxdt_u
    pi = np.pi
    prob = xw.manufactured(
        u=lambda x, t: np.sin(pi * x) * np.sin(3 * t),
        dx_u=lambda x, t: pi * np.cos(pi * x) * np.sin(3 * t),
        dt_u=lambda x, t: 3 * np.sin(pi * x) * np.cos(3 * t),
        dtt_u=lambda x, t: -9 * np.sin(pi * x) * np.sin(3 * t),
        dxdt_u=lambda x, t: 3 * pi * np.cos(pi * x) * np.cos(3 * t),
        div_c2_grad_u=lambda x, t: -(pi**2) * np.sin(pi * x) * np.sin(3 * t),
        c2=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        omega=(0.0, 1.0),
        T=2.0,
    ).spec
    sx = xw.make_uniform_space(prob.omega, 16, 2, 1, "zero-both")
    st_ = xw.make_uniform_space((0.0, prob.T), 16, 2, 1, "zero-left")
    system = xw.assemble(prob, sx, st_)
    sol = xw.solve(system)
    assert 0 < analysis.discrete_veh_norm(system, sol) <= xw.stability_data_bound(prob)
    assert xw.evaluate(sol, 0.3, 0.0, d_x=1)[1] == pytest.approx(3 * pi * np.cos(0.3 * pi))


# frozen values of the eight ErrorReport fields on the singular front, computed
# with the earlier cut-by-cut kink quadrature; keyed by (p, n_x, n_t, relative),
# in the field order of ErrorReport
SINGULAR_ANCHOR = {
    (2, 12, 4, True): (
        7.643602787894e-01, 9.007499997586e-01, 9.932102982383e-01, 1.012140157811e+00,
        9.106873303407e-01, 4.374820249970e-01, 4.581894974455e-01, 1.020684917066e+00,
    ),
    (2, 12, 4, False): (
        1.338838172278e+00, 3.848182607412e+00, 1.739687287895e+00, 1.772844451205e+00,
        4.771843075727e+00, 1.057253269259e-01, 1.392720346892e-01, 2.248650899142e+00,
    ),
    (2, 24, 8, True): (
        4.751415104253e-01, 9.046619460587e-01, 6.619050044108e-01, 5.565793424029e-01,
        8.119667445483e-01, 1.597811047695e-01, 1.680217843923e-01, 5.745063340783e-01,
    ),
    (2, 24, 8, False): (
        8.322490235277e-01, 3.980727761853e+00, 1.159380482450e+00, 9.748940138190e-01,
        4.339748079372e+00, 3.861394008038e-02, 5.107217266871e-02, 1.265683690304e+00,
    ),
    (3, 12, 4, True): (
        7.090948081694e-01, 9.047132177531e-01, 9.882165771888e-01, 9.190390454761e-01,
        8.966626250868e-01, 4.149763624090e-01, 4.175860481754e-01, 9.313468646555e-01,
    ),
    (3, 12, 4, False): (
        1.242037282492e+00, 3.903419374662e+00, 1.730941783672e+00, 1.609771705274e+00,
        4.729361883717e+00, 1.002864032304e-01, 1.269301289350e-01, 2.051832077146e+00,
    ),
    (3, 24, 8, True): (
        4.122521669096e-01, 9.071147500624e-01, 5.079555156198e-01, 5.792798054953e-01,
        8.001674695538e-01, 9.886202916970e-02, 1.042011571636e-01, 5.882848429890e-01,
    ),
    (3, 24, 8, False): (
        7.220932216116e-01, 4.000110847621e+00, 8.897254257239e-01, 1.014655724190e+00,
        4.282924583245e+00, 2.389176413769e-02, 3.167315183044e-02, 1.296038857092e+00,
    ),
}


def test_singular_error_regression_anchor(singular_problem, tabulate_calls):
    calls = tabulate_calls
    fields = [f.name for f in dataclasses.fields(analysis.ErrorReport)][:-1]
    calls_per_report = set()
    for (p, n_x, n_t, relative), expected in SINGULAR_ANCHOR.items():
        sx = xw.make_uniform_space(singular_problem.omega, n_x, p, p - 1, "zero-both")
        st = xw.make_uniform_space((0.0, singular_problem.T), n_t, p, p - 1, "zero-left")
        sol = xw.solve(xw.assemble(singular_problem, sx, st))
        calls.clear()
        rep = xw.error_report(sol, singular_problem, relative=relative)
        calls_per_report.add(len(calls))
        assert [getattr(rep, name) for name in fields] == pytest.approx(expected, rel=1e-10)
    # the kink-split quadrature tabulates only the halves' times, in one
    # table of both orders, however many space nodes cut a time element
    # (their number doubles with n_x); the cut rows reuse the main space table
    (count,) = calls_per_report
    assert count <= 3


def _graded_breakpoints(n_left, n_right, omega, kink=-1.0):
    """Breakpoints on omega graded quadratically toward the initial kink."""
    s_left = np.linspace(0.0, 1.0, n_left + 1)
    s_right = np.linspace(0.0, 1.0, n_right + 1)
    left = kink - (kink - omega[0]) * (1.0 - s_left) ** 2
    right = kink + (omega[1] - kink) * s_right**2
    return np.concatenate([left, right[1:]])


# frozen values of the graded singular level (p=2, 8 + 40 space elements
# graded toward x = -1, 16 time elements), keyed by relative, in the field
# order of ErrorReport
GRADED_SINGULAR_ANCHOR = {
    True: (
        3.420562758134e-01, 9.130552217072e-01, 3.694675869812e-01, 3.700059629756e-01,
        7.804189993122e-01, 5.102586365238e-02, 5.505457415930e-02, 3.853836576822e-01,
    ),
    False: (
        5.991277912257e-01, 4.044724225571e+00, 6.471400028875e-01, 6.480829939774e-01,
        4.190173018094e+00, 1.233130611106e-02, 1.673447824763e-02, 8.490026673093e-01,
    ),
}


def test_graded_singular_error_regression_anchor(singular_problem):
    prob = singular_problem
    sx = xw.make_space(_graded_breakpoints(8, 40, prob.omega), 2, 1, "zero-both")
    st_ = xw.make_uniform_space((0.0, prob.T), 16, 2, 1, "zero-left")
    sol = xw.solve(xw.assemble(prob, sx, st_))
    fields = [f.name for f in dataclasses.fields(analysis.ErrorReport)][:-1]
    for relative, expected in GRADED_SINGULAR_ANCHOR.items():
        rep = xw.error_report(sol, prob, relative=relative)
        assert [getattr(rep, name) for name in fields] == pytest.approx(expected, rel=1e-10)


def test_singular_error_report_evaluates_each_exact_callable_once(singular_problem, exact_calls):
    sx = xw.make_uniform_space(singular_problem.omega, 24, 2, 1, "zero-both")
    st_ = xw.make_uniform_space((0.0, singular_problem.T), 8, 2, 1, "zero-left")
    sol = xw.solve(xw.assemble(singular_problem, sx, st_))
    exact_calls.clear()
    xw.error_report(sol, singular_problem)
    # the main grid needs u, v, dx_u and dt_v, the kink halves u, v and dx_u;
    # V and dtU share the values of v; kink_time takes all space nodes at once
    assert Counter(exact_calls) == {"u": 2, "v": 2, "dx_u": 2, "dt_v": 1, "kink_time": 1}


@pytest.mark.parametrize("name, recursions", [("smooth", 4), ("singular", 5)])
def test_level_runs_each_recursion_and_operator_once(monkeypatch, name, recursions):
    # assemble tabulates each space once (both orders) and builds the one
    # operator; error_report tabulates each space once on its finer rule,
    # the singular kink halves once more, and reuses the solve's operator
    problem = xw.by_name(name).spec
    counts = Counter()

    def counted(key, f):
        def call(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return call

    monkeypatch.setattr(splines, "_ders_basis_funs", counted("recursion", splines._ders_basis_funs))
    operator = counted("operator", newton.make_newton_solver)
    for module in (system, analysis):
        monkeypatch.setattr(module, "make_newton_solver", operator)
    sx = xw.make_uniform_space(problem.omega, 24, 3, 2, "zero-both")
    st_ = xw.make_uniform_space((0.0, problem.T), 8, 3, 2, "zero-left")
    sol = xw.solve(xw.assemble(problem, sx, st_))
    xw.error_report(sol, problem)
    assert counts["recursion"] <= recursions
    assert counts["operator"] == 1


def test_refine_ratio_is_small_on_the_anchor_levels(singular_problem, smooth_solution_cache):
    solutions = [smooth_solution_cache(2, 1, n_x, 3 * n_x)[1] for n_x in (8, 16)]
    for p, n_x, n_t, relative in SINGULAR_ANCHOR:
        if relative:
            sx = xw.make_uniform_space(singular_problem.omega, n_x, p, p - 1, "zero-both")
            st_ = xw.make_uniform_space((0.0, singular_problem.T), n_t, p, p - 1, "zero-left")
            solutions.append(xw.solve(xw.assemble(singular_problem, sx, st_)))
    sx = xw.make_space(_graded_breakpoints(8, 40, singular_problem.omega), 2, 1, "zero-both")
    st_ = xw.make_uniform_space((0.0, singular_problem.T), 16, 2, 1, "zero-left")
    solutions.append(xw.solve(xw.assemble(singular_problem, sx, st_)))
    for sol in solutions:
        assert np.isfinite(sol.refine_ratio) and 0 <= sol.refine_ratio < 1e-6
