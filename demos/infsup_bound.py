"""Discrete inf-sup constants versus the mesh-independent lower bound.

gamma_h is the smallest generalized singular value of the bilinear form with
respect to the trial and test norms; the theory guarantees
gamma_h >= 1 / (2 sqrt(C_Omega^2 / c0^2 + 4 T^2)) on every mesh.  The
estimate splits by the space modes (eigenpairs of (K_x, M_x)); the table
shows the mode that attains gamma_h and its eigenvalue lam.
"""

import xtwave as xw

for name in ("smooth", "singular"):
    problem = xw.by_name(name).spec
    print(f"\nproblem '{name}': T={problem.T}, c0={problem.c0}, "
          f"lower bound {xw.infsup_lower_bound(problem):.6f}")
    print(f"{'p':>3} {'n_e':>5} {'gamma_h':>10} {'mode':>5} {'lam':>12}")
    for p in (1, 2, 3):
        for n_e in (2, 4, 8, 16, 32, 64):
            space_x = xw.make_uniform_space(problem.omega, n_e, p, None, "zero-both")
            space_t = xw.make_uniform_space((0.0, problem.T), n_e, p, None, "zero-left")
            est = xw.estimate_infsup(problem, space_x, space_t)
            assert est.gamma_h >= est.lower_bound - 1e-10
            print(f"{p:>3} {n_e:>5} {est.gamma_h:>10.4f} {est.mode_index:>5} {est.lam:>12.5g}")
