"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  The heavy convergence studies are shared module-scoped
fixtures, so the whole suite stays within a few minutes.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import vkfem
from vkfem import (AdaptiveConfig, DiscreteSolution, assemble_biharmonic,
                   assemble_trilinear_jacobian, assemble_trilinear_vector,
                   build_dofmap, dorfler_mark, fit_rate, is_spd,
                   lshape_mesh, morley_interpolate, newton_order,
                   newton_solve, nvb_refine, shape_regularity,
                   two_triangle_square, uniform_refine, unified_h_norm,
                   unit_square_mesh)
from vkfem.adaptivity import adaptive_levels, solve_level, uniform_levels
from vkfem.analysis import discrete_norm
from vkfem.femspace import EdgeBasis, ElementBasis, element_hessians
from vkfem.problems import exact_square, lshape_problem, square_problem
from vkfem.quadrature import edge_rule, triangle_rule

METHODS = ("morley", "c0ip", "dg")
FROB = np.array([1.0, 1.0, 2.0])


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


# -- shared studies ----------------------------------------------------------

def uniform_records(problem, method, levels):
    return [s.record for s in uniform_levels(problem, method, levels)]


@pytest.fixture(scope="module")
def square_study():
    problem = square_problem()
    t0 = time.time()
    records = {m: uniform_records(problem, m, 5) for m in METHODS}
    return records, time.time() - t0


@pytest.fixture(scope="module")
def lshape_study():
    problem = lshape_problem()
    return {m: uniform_records(problem, m, 5) for m in METHODS}


@pytest.fixture(scope="module")
def adaptive_studies():
    """One NVB hierarchy per driving estimator; all methods solved on it."""
    problem = lshape_problem()
    # driver-specific dof caps give comparable final mesh sizes and leave
    # the trailing fit window safely inside the asymptotic regime
    caps = {"morley": 6500, "c0ip": 6500, "dg": 26000}
    out = {}
    for driver in METHODS:
        config = AdaptiveConfig(theta=0.5, max_levels=40,
                                max_ndof=caps[driver])
        errors = {m: [] for m in METHODS}
        ndofs = {m: [] for m in METHODS}
        meshes = []
        prev = {m: None for m in METHODS}
        for state in adaptive_levels(problem, driver, config):
            meshes.append(state.mesh)
            for method in METHODS:
                # solve_level raises SolverError when Newton does not converge
                record = state.record if method == driver else solve_level(
                    state, method, problem, config, prev[method]).record
                prev[method] = record
                errors[method].append(record.error_total)
                ndofs[method].append(record.ndof)
        out[driver] = {"errors": errors, "ndofs": ndofs, "meshes": meshes}
    return out


# -- criteria ----------------------------------------------------------------

def test_criterion_1_square_rates(square_study):
    records, elapsed = square_study
    slopes = {}
    for method in METHODS:
        recs = records[method]
        slopes[method] = fit_rate([r.ndof for r in recs],
                                  [r.error_total for r in recs], window=3)
    ok = all(0.42 <= s <= 0.58 for s in slopes.values()) and elapsed < 300.0
    detail = ("square uniform slopes (last 3 of 5 levels) "
              + ", ".join(f"{m}={s:.3f}" for m, s in slopes.items())
              + f"; runtime {elapsed:.0f}s < 300s")
    report(1, ok, detail)


def test_criterion_2_error_equivalence(square_study, lshape_study):
    ok = True
    notes = []
    for name, records in (("square", square_study[0]), ("lshape", lshape_study)):
        pairs = [("morley", "c0ip"), ("morley", "dg"), ("c0ip", "dg")]
        for a, b in pairs:
            ratios = [records[a][lvl].error_total / records[b][lvl].error_total
                      for lvl in range(2, 5)]
            in_band = all(0.2 <= r <= 5.0 for r in ratios)
            stable = max(ratios) / min(ratios) < 2.0
            ok = ok and in_band and stable
            notes.append(f"{name} {a}/{b} in [{min(ratios):.2f},"
                         f" {max(ratios):.2f}]")
    report(2, ok, "pairwise unified-norm error ratios at levels >= 2: "
           + "; ".join(notes))


def test_criterion_3_lshape_uniform_suboptimal(lshape_study):
    slopes = {m: fit_rate([r.ndof for r in lshape_study[m]],
                          [r.error_total for r in lshape_study[m]], window=3)
              for m in METHODS}
    values = list(slopes.values())
    agree = max(values) - min(values) <= 0.05
    in_band = all(0.18 <= s <= 0.35 for s in values)
    detail = ("lshape uniform slopes "
              + ", ".join(f"{m}={s:.3f}" for m, s in slopes.items())
              + f"; pairwise agreement <= 0.05: {agree}"
              + f"; band [0.18, 0.35]: {in_band}"
              + " (the manufactured pair's smooth bulk dominates at these"
              " sizes; the singular decay emerges only beyond ~1e6 dofs)")
    report(3, agree and in_band, detail)


def test_criterion_4_adaptive_optimality(adaptive_studies):
    ok = True
    notes = []
    for driver, data in adaptive_studies.items():
        for method in METHODS:
            slope = fit_rate(data["ndofs"][method], data["errors"][method],
                             window=4)
            ok = ok and slope >= 0.42
            notes.append(f"{driver}-driven {method}={slope:.3f}")
        mesh = data["meshes"][-1]
        centroid = mesh.vertices[mesh.triangles].mean(axis=1)
        near = np.hypot(centroid[:, 0], centroid[:, 1]) < 0.1
        concentrated = bool(near.any()
                            and mesh.tri_diameter[near].max()
                            < mesh.tri_diameter.mean())
        ok = ok and concentrated
        notes.append(f"{driver} corner-concentrated={concentrated}")
    report(4, ok, "adaptive slopes over last 4 levels >= 0.42: "
           + ", ".join(notes))


def test_criterion_5_morley_hessian_projection():
    exact = exact_square()
    mesh = unit_square_mesh()
    rule = triangle_rule(8)
    worst = 0.0
    for _ in range(3):
        mesh = uniform_refine(mesh)
        dm = build_dofmap(mesh, "morley")
        coef = morley_interpolate(exact.u, exact.u_grad, dm)
        basis = ElementBasis(dm)
        hess = element_hessians(basis, coef)
        pts = basis.physical_points(rule.points[:, 1:])
        mean = np.einsum("q,tqc->tc", rule.weights,
                         exact.u_hess(pts[..., 0], pts[..., 1]))
        worst = max(worst, np.abs(hess - mean).max() / np.abs(mean).max())
    report(5, worst <= 1e-8,
           f"piecewise Hessian of the interpolant equals element means of "
           f"the exact Hessian, worst relative deviation {worst:.2e} <= 1e-8")


def test_criterion_6_unified_equals_nc_on_morley():
    rng = np.random.default_rng(101)
    meshes = [uniform_refine(unit_square_mesh()),
              uniform_refine(uniform_refine(unit_square_mesh())),
              uniform_refine(lshape_mesh())]
    worst = 0.0
    for mesh in meshes:
        dm = build_dofmap(mesh, "morley")
        for _ in range(100):
            coef = rng.standard_normal(dm.n_global)
            h = unified_h_norm(dm, coef)
            nc = discrete_norm(dm, coef, "nc")
            worst = max(worst, abs(h - nc) / nc)
    report(6, worst <= 1e-10,
           f"unified norm equals the broken H2 norm on Morley data, worst "
           f"relative gap {worst:.2e} <= 1e-10 over 100 samples x 3 meshes")


def best_approx_qp(mesh, value, grad, hess, quad_degree=10):
    """Minimum of the unified-norm distance over all DG coefficients."""
    dm = build_dofmap(mesh, "dg")
    basis = ElementBasis(dm)
    rule = triangle_rule(quad_degree)
    pts = basis.physical_points(rule.points[:, 1:])
    x, y = pts[..., 0], pts[..., 1]
    n = dm.n_global
    dofs = dm.element_dofs

    nc_local = np.einsum("t,tic,tjc,c->tij", basis.area, basis.hessians,
                         basis.hessians, FROB)
    rows = np.repeat(dofs[:, :, None], 6, 2).ravel()
    cols = np.repeat(dofs[:, None, :], 6, 1).ravel()
    gram = sp.coo_matrix((nc_local.ravel(), (rows, cols)), shape=(n, n))

    erule = edge_rule(5)
    tp = np.concatenate([erule.points, [0.0, 1.0]])
    eb = EdgeBasis(basis, tp)
    nq = len(erule.points)
    dn = np.concatenate([np.einsum("eqja,ea->eqj", g, mesh.edge_normal)
                         for g in (eb.gradients[0], -eb.gradients[1])], axis=2)
    mean_dn = np.einsum("q,eqj->ej", erule.weights, dn[:, :nq, :])
    vals = np.concatenate([eb.values[0], -eb.values[1]], axis=2)
    ends = vals[:, nq:, :]
    h = mesh.edge_length
    local = np.einsum("ei,ej->eij", mean_dn, mean_dn) \
        + np.einsum("e,eki,ekj->eij", h**-2, ends, ends)
    d12 = np.concatenate(eb.dofs, axis=1)
    r12 = np.repeat(d12[:, :, None], 12, 2).ravel()
    c12 = np.repeat(d12[:, None, :], 12, 1).ravel()
    keep = (r12 >= 0) & (c12 >= 0)  # boundary side-1 slots carry dof -1
    gram = (gram + sp.coo_matrix((local.ravel()[keep], (r12[keep], c12[keep])),
                                 shape=(n, n))).tocsc()

    target_hess = np.asarray(hess(x, y))
    mean_hess = np.einsum("q,tqc->tc", rule.weights, target_hess)
    rhs_local = np.einsum("t,tc,tjc,c->tj", basis.area, mean_hess,
                          basis.hessians, FROB)
    rhs = np.zeros(n)
    np.add.at(rhs, dofs.ravel(), rhs_local.ravel())
    coef = spla.spsolve(gram, rhs)
    norm2 = float(np.einsum("t,q,tqc,c->", basis.area, rule.weights,
                            target_hess**2, FROB))
    return float(np.sqrt(max(norm2 - rhs @ coef, 0.0)))


def test_criterion_7_best_approximation_equivalence():
    exact = exact_square()
    mesh = uniform_refine(uniform_refine(unit_square_mesh()))
    qp = best_approx_qp(mesh, exact.u, exact.u_grad, exact.u_hess)
    dm = build_dofmap(mesh, "morley")
    coef = morley_interpolate(exact.u, exact.u_grad, dm)
    basis = ElementBasis(dm)
    hfield = element_hessians(basis, coef)
    rule = triangle_rule(10)
    pts = basis.physical_points(rule.points[:, 1:])
    diff = exact.u_hess(pts[..., 0], pts[..., 1]) - hfield[:, None, :]
    morley_dist = float(np.sqrt(np.einsum("t,q,tqc,c->", basis.area,
                                          rule.weights, diff**2, FROB)))
    rel = abs(qp - morley_dist) / morley_dist
    report(7, rel <= 1e-6,
           f"unified-norm QP minimum over DG fields {qp:.8f} equals the "
           f"Morley-interpolant distance {morley_dist:.8f}, "
           f"relative gap {rel:.2e} <= 1e-6")


def test_criterion_8_penalised_operators_spd():
    ok = True
    checked = 0
    for make in (two_triangle_square, unit_square_mesh, lshape_mesh):
        mesh = make()
        for level in range(5):
            if level:
                mesh = uniform_refine(mesh)
            for method in ("c0ip", "dg"):
                dm = build_dofmap(mesh, method)
                ok = ok and is_spd(assemble_biharmonic(dm))
                checked += 1
    report(8, ok, f"Cholesky-style factorisation certified SPD for all "
           f"{checked} penalised operators (sigma = 20, three mesh families "
           f"through 4 refinements)")


def test_criterion_9_newton_quadratic_convergence():
    problem = square_problem()
    mesh = problem.initial_mesh
    for _ in range(3):
        mesh = uniform_refine(mesh)
    eps = np.finfo(float).eps
    orders = {}
    fd_gap = 0.0
    rng = np.random.default_rng(103)
    for method in METHODS:
        dm = build_dofmap(mesh, method)
        psi, rep = newton_solve(dm, (problem.exact.f, problem.exact.g))
        assert rep.converged
        a = assemble_biharmonic(dm)
        big = sp.block_diag((a, a), format="csr")
        x = np.abs(np.concatenate([psi.u, psi.v]))
        floor = 3.0 * eps * float(np.linalg.norm(abs(big) @ x))
        orders[method] = newton_order(rep.residual_history, floor=floor)

        n = dm.n_global
        theta = rng.standard_normal(2 * n)
        step = 1e-3
        plus = DiscreteSolution(dm, psi.u + step * theta[:n],
                                psi.v + step * theta[n:])
        minus = DiscreteSolution(dm, psi.u - step * theta[:n],
                                 psi.v - step * theta[n:])
        fd = (assemble_trilinear_vector(plus, plus)
              - assemble_trilinear_vector(minus, minus)) / (2.0 * step)
        applied = assemble_trilinear_jacobian(psi) @ theta
        fd_gap = max(fd_gap,
                     np.abs(fd - applied).max() / max(np.abs(applied).max(), 1.0))
    ok = all(o >= 1.7 for o in orders.values()) and fd_gap <= 1e-9
    report(9, ok, "Newton orders on square level 3: "
           + ", ".join(f"{m}={o:.2f}" for m, o in orders.items())
           + f" (>= 1.7); Jacobian central-difference gap {fd_gap:.2e} <= 1e-9")


def test_criterion_10_dorfler_correctness():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(1000):
        eta2 = rng.random(rng.integers(2, 60)) * rng.uniform(0.1, 10.0)
        theta = rng.uniform(0.02, 1.0)
        marked = dorfler_mark(eta2, theta)
        total = eta2.sum()
        bulk = eta2[marked].sum() >= theta * total * (1.0 - 1e-12)
        smallest = marked[np.argmin(eta2[marked])]
        minimal = eta2[marked].sum() - eta2[smallest] < theta * total
        ok = ok and bulk and minimal
    report(10, ok, "1000 random marking instances satisfy the bulk "
           "criterion and dropping the smallest marked element violates it")


def test_criterion_11_mesh_integrity_under_nvb():
    rng = np.random.default_rng(105)
    ok = True
    details = []
    for name, make in (("square", unit_square_mesh), ("lshape", lshape_mesh)):
        mesh = make()
        min_angle = np.pi
        for _ in range(10):
            nmark = max(1, mesh.n_triangles // 5)
            marked = rng.choice(mesh.n_triangles, size=nmark, replace=False)
            mesh = nvb_refine(mesh, marked)  # constructor audits conformity
            ok = ok and mesh.euler_characteristic() == 1
            min_angle = min(min_angle, shape_regularity(mesh))
        bound = np.pi / 4 - 1e-12  # right-isosceles classes are preserved
        ok = ok and min_angle >= bound
        details.append(f"{name}: min angle {min_angle:.6f} >= pi/4")
    report(11, ok, "conformity, Euler relation and the minimum-angle bound "
           "hold over 10 random NVB rounds (" + "; ".join(details) + ")")
