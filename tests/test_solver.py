import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from vkfem import (DiscreteSolution, PenaltyConfig, SolverError,
                   assemble_biharmonic, assemble_load,
                   assemble_trilinear_jacobian, build_dofmap, build_topology,
                   error_norm, estimate, is_spd, linear_solve, newton_order,
                   newton_solve, residual, spd_solve, uniform_refine)
from vkfem import solver
from vkfem.femspace import DofMap, load_values
from vkfem.problems import exact_lshape, exact_square
from vkfem.solver import NewtonSystem


def loads_of(exact):
    return (exact.f, exact.g)


def test_identity_system():
    b = np.array([3.0, -1.0, 2.5])
    x = linear_solve(sp.identity(3, format="csr"), b)
    assert np.allclose(x, b, atol=1e-14)


def test_one_by_one_morley_system(two_tri):
    dm = build_dofmap(two_tri, "morley")
    a = assemble_biharmonic(dm)
    x = linear_solve(a, np.array([2.0]))
    assert x[0] == pytest.approx(2.0 / a[0, 0], rel=1e-12)


def test_random_spd_against_dense_oracle():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((50, 50))
    a = m.T @ m + np.eye(50)
    b = rng.standard_normal(50)
    x = linear_solve(sp.csr_matrix(a), b)
    assert np.abs(x - np.linalg.solve(a, b)).max() < 1e-9


def test_singular_matrix_raises():
    a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SolverError):
        linear_solve(a, np.array([1.0, 1.0]))


def test_shape_mismatch_raises():
    with pytest.raises(SolverError):
        linear_solve(sp.identity(3, format="csr"), np.ones(4))


def test_spd_detection():
    assert is_spd(sp.diags([2.0, 1.0, 5.0]).tocsc())
    assert not is_spd(sp.diags([2.0, -1.0, 5.0]).tocsc())
    # nonsymmetric matrices are rejected
    assert not is_spd(sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0]])))
    # a larger system: definiteness read from the SuperLU pivots
    n = 2000
    lap = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                   [-1, 0, 1]).tocsc()
    assert is_spd(lap)
    assert not is_spd((lap - 4.0 * sp.identity(n)).tocsc())


def test_spd_solve_solves():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((40, 40))
    a = sp.csr_matrix(m.T @ m + 40 * np.eye(40))
    b = rng.standard_normal(40)
    solve = spd_solve(a)
    assert np.abs(a @ solve(b) - b).max() < 1e-9


def test_newton_zero_loads_one_iteration(square1):
    dm = build_dofmap(square1, "morley")
    zero = lambda x, y: np.zeros_like(x)
    psi, report = newton_solve(dm, (zero, zero))
    assert report.converged
    assert report.iterations == 1
    assert np.abs(psi.u).max() == 0.0 and np.abs(psi.v).max() == 0.0


def test_newton_tiny_loads_two_iterations(square1):
    dm = build_dofmap(square1, "c0ip")
    ex = exact_square()
    tiny_f = lambda x, y: 1e-8 * ex.f(x, y)
    tiny_g = lambda x, y: 1e-8 * ex.g(x, y)
    psi, report = newton_solve(dm, (tiny_f, tiny_g))
    assert report.converged
    assert report.iterations <= 2


def test_newton_converges_and_history_decreases(square2):
    ex = exact_square()
    for method in ("morley", "c0ip", "dg"):
        dm = build_dofmap(square2, method)
        psi, report = newton_solve(dm, loads_of(ex))
        assert report.converged
        h = report.residual_history
        assert all(h[k + 1] < h[k] for k in range(len(h) - 1))


def test_newton_quadratic_order(square2):
    ex = exact_square()
    dm = build_dofmap(square2, "morley")
    psi, report = newton_solve(dm, loads_of(ex))
    order = newton_order(report.residual_history, floor=1e-11)
    assert order >= 1.7


@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_newton_without_free_dofs(method):
    # on one triangle every Morley and C0IP dof lies on the boundary, so the
    # discrete pair is the empty zero pair; dg keeps its six dofs
    mesh = build_topology([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    dm = build_dofmap(mesh, method)
    ex = exact_square()
    psi, report = newton_solve(dm, loads_of(ex))
    assert report.converged
    if method == "dg":
        assert dm.n_global == 6
    else:
        assert dm.n_global == 0 and report.iterations == 1
        assert psi.u.shape == psi.v.shape == (0,)
    assert np.isfinite(estimate(psi, loads_of(ex)).total)
    assert np.all(np.isfinite(error_norm(psi, ex, "h")))


def test_newton_order_needs_three_residuals():
    with pytest.raises(ValueError):
        newton_order([1.0, 0.5])


def test_residual_of_zero_is_minus_load(square1):
    ex = exact_square()
    dm = build_dofmap(square1, "dg")
    load = assemble_load(ex.f, ex.g, dm)
    zero = DiscreteSolution(dm, np.zeros(dm.n_global), np.zeros(dm.n_global))
    res = residual(zero, loads_of(ex))
    assert np.abs(res + load).max() < 1e-14 * max(1.0, np.abs(load).max())


def test_residual_small_at_converged_solution(square1):
    ex = exact_square()
    dm = build_dofmap(square1, "c0ip")
    psi, report = newton_solve(dm, loads_of(ex))
    res = residual(psi, loads_of(ex))
    assert np.linalg.norm(res) == pytest.approx(report.residual_history[-1],
                                                rel=1e-10)


def test_newton_invalid_arguments(square1):
    dm = build_dofmap(square1, "morley")
    zero = lambda x, y: np.zeros_like(x)
    with pytest.raises(ValueError):
        newton_solve(dm, (zero, zero), tol=0.0)
    with pytest.raises(ValueError):
        newton_solve(dm, (zero, zero), maxit=0)
    with pytest.raises(TypeError):  # the loads are required
        newton_solve(dm)


def test_method_solutions_pairwise_close(square2):
    # distances between the three converged solutions are of the same
    # magnitude as their errors (sanity on the common unified norm)
    from vkfem import error_norm, to_dg_coefficients, unified_h_norm
    ex = exact_square()
    solutions, errors = {}, {}
    for method in ("morley", "c0ip", "dg"):
        dm = build_dofmap(square2, method)
        psi, _ = newton_solve(dm, loads_of(ex))
        solutions[method] = psi
        errors[method] = error_norm(psi, ex, "h")[2]
    dg_dm = build_dofmap(square2, "dg")
    embed = {m: (to_dg_coefficients(solutions[m].dofmap, solutions[m].u),
                 to_dg_coefficients(solutions[m].dofmap, solutions[m].v))
             for m in solutions}
    for a, b in (("morley", "c0ip"), ("morley", "dg"), ("c0ip", "dg")):
        du = embed[a][0] - embed[b][0]
        dv = embed[a][1] - embed[b][1]
        dist = np.hypot(unified_h_norm(dg_dm, du), unified_h_norm(dg_dm, dv))
        scale = max(errors[a], errors[b])
        assert 0.05 * scale < dist < 5.0 * scale


def permuted_dofmap(dm, rng):
    perm = rng.permutation(dm.n_global)
    element_dofs = np.where(dm.element_dofs >= 0,
                            perm[np.where(dm.element_dofs >= 0,
                                          dm.element_dofs, 0)], -1)
    return DofMap(dm.mesh, dm.method, dm.n_global, element_dofs), perm


def test_newton_permutation_invariance(square1):
    ex = exact_square()
    dm = build_dofmap(square1, "morley")
    psi, _ = newton_solve(dm, loads_of(ex))
    rng = np.random.default_rng(14)
    dmp, perm = permuted_dofmap(dm, rng)
    psi_p, _ = newton_solve(dmp, loads_of(ex))
    back_u = psi_p.u[perm]
    back_v = psi_p.v[perm]
    scale = max(1.0, np.abs(psi.u).max())
    assert np.abs(back_u - psi.u).max() < 1e-9 * scale
    assert np.abs(back_v - psi.v).max() < 1e-9 * scale


def assembled_jacobian(system, psi):
    """The Newton matrix at ``psi`` assembled as one sparse matrix from
    ``K`` and the coupling derivative, independently of ``step_matrix``."""
    k = system.stiffness
    return (sp.block_diag((k, k), format="csr")
            + assemble_trilinear_jacobian(psi))


def lu_newton(dm, loads, penalty=None):
    """Newton's method with every step solved by LU on the full Jacobian,
    with the stopping rule of ``newton_solve``: the reference for its
    preconditioned steps."""
    system = NewtonSystem(dm, loads, penalty)
    n = dm.n_global
    abs_stiffness = abs(sp.block_diag((system.stiffness,) * 2, format="csr"))
    psi = DiscreteSolution(dm, np.zeros(n), np.zeros(n))
    res = -system.load
    for it in range(1, 51):
        delta = linear_solve(assembled_jacobian(system, psi), -res)
        psi.u += delta[:n]
        psi.v += delta[n:]
        res = system.residual(psi)
        x = np.abs(np.concatenate([psi.u, psi.v]))
        floor = 4.0 * np.finfo(float).eps * (
            np.linalg.norm(abs_stiffness @ x) + system.load_scale)
        if np.linalg.norm(res) <= max(1e-10 * system.load_scale, floor):
            return psi, it
    raise AssertionError("LU reference Newton did not converge")


def assert_same_solution(psi, ref):
    scale = max(np.abs(ref.u).max(), np.abs(ref.v).max())
    assert np.abs(psi.u - ref.u).max() <= 1e-9 * scale
    assert np.abs(psi.v - ref.v).max() <= 1e-9 * scale


@pytest.fixture(scope="module")
def square3(square2):
    return uniform_refine(square2)


@pytest.fixture(scope="module")
def lshape2(lshape1):
    return uniform_refine(lshape1)


WEAK = PenaltyConfig(sigma_ip=0.5, sigma_dg=0.5)
NEWTON_CASES = [(mesh, exact, method, None)
                for mesh, exact in (("square3", exact_square),
                                    ("lshape2", exact_lshape))
                for method in ("morley", "c0ip", "dg")]
# penalties too small for an SPD operator (on the L-shape the undamped
# Newton iteration does not converge with them, whatever the linear solver)
NEWTON_CASES += [("square3", exact_square, method, WEAK)
                 for method in ("c0ip", "dg")]


@pytest.mark.parametrize("mesh_name, exact, method, penalty", NEWTON_CASES,
                         ids=[f"{mesh}-{method}" + ("-weak" if penalty else "")
                              for mesh, _, method, penalty in NEWTON_CASES])
def test_preconditioned_newton_matches_lu_newton(request, mesh_name, exact,
                                                 method, penalty):
    mesh = request.getfixturevalue(mesh_name)
    dm = build_dofmap(mesh, method)
    if penalty is not None:
        assert not is_spd(assemble_biharmonic(dm, penalty))
    loads = loads_of(exact())
    ref, ref_iterations = lu_newton(dm, loads, penalty)
    psi, report = newton_solve(dm, loads, penalty)
    assert report.converged
    assert report.iterations == ref_iterations
    assert_same_solution(psi, ref)


def test_newton_falls_back_to_lu_when_gmres_fails(square2, monkeypatch):
    dm = build_dofmap(square2, "c0ip")
    loads = loads_of(exact_square())
    ref, report_ref = newton_solve(dm, loads)
    calls = []

    def nan_gmres(a, b, **kwargs):
        calls.append(len(b))
        return np.full_like(b, np.nan), 0
    monkeypatch.setattr(solver.spla, "gmres", nan_gmres)
    psi, report = newton_solve(dm, loads)
    assert len(calls) == report.iterations  # every step tried GMRES first
    assert report.converged
    assert report.iterations == report_ref.iterations
    assert_same_solution(psi, ref)


@pytest.mark.parametrize("failing_step", [0, 1])
def test_newton_falls_back_to_lu_when_the_block_does_not_factorise(
        square2, monkeypatch, failing_step):
    # step 0 factors K: when it fails no step is preconditioned; a later
    # block failing sends only its own step to LU
    dm = build_dofmap(square2, "dg")
    loads = loads_of(exact_square())
    ref, report_ref = newton_solve(dm, loads)
    real_lu = solver._symmetric_lu
    calls = []

    def failing_lu(matrix, column_order):
        calls.append(len(calls))
        if calls[-1] == failing_step:
            raise RuntimeError("Factor is exactly singular")
        return real_lu(matrix, column_order)
    monkeypatch.setattr(solver, "_symmetric_lu", failing_lu)
    psi, report = newton_solve(dm, loads)
    assert len(calls) == (1 if failing_step == 0 else report.iterations)
    assert report.converged
    assert report.iterations == report_ref.iterations
    assert_same_solution(psi, ref)


def test_block_triangular_inverse_inverts_the_upper_block_triangle():
    rng = np.random.default_rng(15)
    n = 30
    a, k, c = (sp.csc_matrix(rng.standard_normal((n, n)) + d * np.eye(n))
               for d in (20.0, 25.0, 0.0))
    p = sp.bmat([[a, c], [None, k]]).tocsr()
    inverse = solver._block_triangular_inverse(
        solver._symmetric_lu(a), solver._symmetric_lu(k), c.tocsr())
    x = rng.standard_normal(2 * n)
    assert np.abs(inverse @ (p @ x) - x).max() < 1e-12 * np.abs(x).max()


@pytest.fixture(scope="module")
def square4(square3):
    return uniform_refine(square3)


@pytest.mark.parametrize("mesh_name", ["square4", "lshape_graded"])
def test_dg_numbering_factors_with_minimum_degree_fill(request, mesh_name):
    # the nested-dissection numbering factored as it stands fills about as
    # much as minimum degree (mesh order on square4: 2.25x), and its
    # diagonal pivots certify K positive definite, as criterion 8 does
    mesh = request.getfixturevalue(mesh_name)
    dm = build_dofmap(mesh, "dg")
    assert dm.column_order == "NATURAL"
    k = assemble_biharmonic(dm)
    natural = solver._symmetric_lu(k, "NATURAL")
    mmd = solver._symmetric_lu(k, "MMD_AT_PLUS_A")
    fill = natural.L.nnz + natural.U.nnz
    assert fill <= 1.25 * (mmd.L.nnz + mmd.U.nnz)
    assert np.array_equal(natural.perm_r, np.arange(dm.n_global))
    assert np.array_equal(natural.perm_c, np.arange(dm.n_global))
    assert np.all(natural.U.diagonal() > 0.0)


@pytest.mark.parametrize("mesh_name, exact", [("square3", exact_square),
                                              ("lshape2", exact_lshape)])
def test_dg_newton_matches_minimum_degree_factors(request, monkeypatch,
                                                  mesh_name, exact):
    mesh = request.getfixturevalue(mesh_name)
    dm = build_dofmap(mesh, "dg")
    loads = loads_of(exact())
    psi, report = newton_solve(dm, loads)
    monkeypatch.setattr(DofMap, "column_order",
                        property(lambda self: "MMD_AT_PLUS_A"))
    ref, report_ref = newton_solve(dm, loads)
    assert report.converged and report_ref.converged
    assert report.iterations == report_ref.iterations
    assert_same_solution(psi, ref)


STEP_CASES = [(mesh, method) for mesh in ("square2", "lshape2")
              for method in ("morley", "c0ip", "dg")]


@pytest.mark.parametrize("mesh_name, method", STEP_CASES,
                         ids=[f"{mesh}-{method}" for mesh, method in STEP_CASES])
def test_newton_step_matrix_is_the_assembled_jacobian(request, mesh_name,
                                                      method):
    # on square level 2 entries of K cancel to exactly zero (524 on dg, 464
    # on Morley), so the coupling must be summed into a structure that keeps
    # them
    mesh = request.getfixturevalue(mesh_name)
    dm = build_dofmap(mesh, method)
    system = NewtonSystem(dm, loads_of(exact_square()))
    n = dm.n_global
    rng = np.random.default_rng(16)
    psi = DiscreteSolution(dm, rng.standard_normal(n), rng.standard_normal(n))
    step = system.step_matrix(psi)
    ref = assembled_jacobian(system, psi).tocsr()
    scale = abs(ref).max()

    def assert_close(got, want):
        assert got.shape == want.shape
        assert abs(sp.csr_matrix(got) - want).max() <= 1e-14 * scale

    assert_close(step.a, ref[:n, :n])
    assert_close(step.m_u, ref[:n, n:])
    assert_close(-step.m_u, ref[n:, :n])
    assert_close(step.k, ref[n:, n:])
    assert_close(step.tocsc(), ref)
    x = rng.standard_normal(2 * n)
    assert (np.abs(step @ x - ref @ x).max()
            <= 1e-14 * scale * np.abs(x).sum())
    ref_norm = abs(ref).sum(axis=1).max()
    assert abs(step.norm_inf() - ref_norm) <= 1e-14 * ref_norm


#: tracemalloc peak of the dg Newton solve below, 11.53 MiB when every step
#: assembled J as one sparse matrix (measured), rounded down; 5.56 MiB since
#: the steps are summed on K's structure
DG_SOLVE_PEAK_BOUND = 11.5 * 2**20


def test_dg_newton_solve_stays_within_its_memory_peak(square3):
    dm = build_dofmap(square3, "dg")
    dm.basis, dm.edge_basis  # the level's, not the solve's
    ex = exact_square()
    loads = (load_values(ex.f, square3), load_values(ex.g, square3))
    tracemalloc.start()
    try:
        _, report = newton_solve(dm, loads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= DG_SOLVE_PEAK_BOUND
