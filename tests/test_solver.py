import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vkfem import (DiscreteSolution, PenaltyConfig, SolverError, Triangulation,
                   assemble_biharmonic, assemble_load,
                   assemble_trilinear_jacobian, assemble_trilinear_vector,
                   build_dofmap, error_norm, estimate, linear_solve,
                   newton_solve, uniform_refine)
from vkfem import solver
from vkfem.femspace import DofMap, element_hessians, load_values
from vkfem.problems import exact_lshape, exact_square
from vkfem.solver import NewtonSystem

from oracles import is_spd, newton_order, to_dg_coefficients


def loads_of(exact):
    return (exact.f, exact.g)


def newton_matrix(a, m_u, k):
    """The :class:`~vkfem.solver.NewtonMatrix` of the dense blocks ``a``,
    ``m_u`` and ``k``."""
    a, m_u, k = (sp.csc_matrix(block) for block in (a, m_u, k))
    return solver.NewtonMatrix(a, m_u, k, solver._abs_row_sums(k))


def test_singular_matrix_raises():
    # J = [[A, 0], [0, I]] with a singular A: the LU path names the step
    jac = newton_matrix([[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 2)), np.eye(2))
    with pytest.raises(SolverError, match="step 3"):
        linear_solve(jac, np.ones(4), context="step 3")


def test_shape_mismatch_raises():
    jac = newton_matrix(np.eye(3), np.zeros((3, 3)), np.eye(3))
    with pytest.raises(SolverError, match="shape mismatch"):
        linear_solve(jac, np.ones(4))


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
    mesh = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
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
    res = NewtonSystem(dm, loads_of(ex)).residual(zero)
    assert np.abs(res + load).max() < 1e-14 * max(1.0, np.abs(load).max())


def test_residual_small_at_converged_solution(square1):
    ex = exact_square()
    dm = build_dofmap(square1, "c0ip")
    psi, report = newton_solve(dm, loads_of(ex))
    res = NewtonSystem(dm, loads_of(ex)).residual(psi)
    assert np.linalg.norm(res) == pytest.approx(report.residual_history[-1],
                                                rel=1e-10)


FLOOR_CASES = [(method, tol, builds, coarse)
               for method, tol, builds in [("morley", 1e-10, False),
                                           ("c0ip", 1e-16, True),
                                           ("dg", 1e-16, True)]
               for coarse in (False, True)]


@pytest.mark.parametrize(
    "method, tol, builds, coarse", FLOOR_CASES,
    ids=[f"{m}-{tol}-{builds}" + ("-coarse" if coarse else "")
         for m, tol, builds, coarse in FLOOR_CASES])
def test_stopping_residual_shortcut_matches_the_exact_floor(
        square2, square3, monkeypatch, method, tol, builds, coarse):
    # the row-sum bound of the floor skips |K| where the floor cannot
    # decide: the iterates and residuals equal those of an exact floor at
    # every evaluation.  Morley at the default tol builds no |K|; at tol
    # 1e-16 every iterate's bound exceeds the target, so c0ip and dg build
    # it, but only where the norm is within the bound and before each Newton
    # step, whose GMRES target is a tenth of the stop
    loads = loads_of(exact_square())
    hess = None
    if coarse:
        coarse_psi, _ = newton_solve(build_dofmap(square2, method), loads)
        hess = coarse_hessian(square3, coarse_psi)
    dm = build_dofmap(square3, method)
    real_floor = NewtonSystem.residual_floor
    floors = []

    def counted_floor(self, psi):
        floors.append(psi)
        return real_floor(self, psi)
    monkeypatch.setattr(NewtonSystem, "residual_floor", counted_floor)
    psi, report = newton_solve(dm, loads, tol=tol, coarse_hessian=hess)
    shortcut_floors = len(floors)
    monkeypatch.setattr(NewtonSystem, "stopping_residual",
                        lambda self, psi, target, norm=0.0: max(
                            target, self.residual_floor(psi)))
    ref, report_ref = newton_solve(dm, loads, tol=tol, coarse_hessian=hess)
    assert report.converged and report_ref.converged
    assert report.start == ("coarse" if coarse else "zero")
    assert report.residual_history == report_ref.residual_history
    assert np.array_equal(psi.u, ref.u) and np.array_equal(psi.v, ref.v)
    # one floor per Newton step and one at the iterate that stops, where
    # the start step counts as one iteration whatever its sweeps tried; the
    # exact floor is built at every iterate, each sweep's included
    assert shortcut_floors == (report.iterations if builds else 0)
    if builds:
        assert len(floors) - shortcut_floors >= (
            report.iterations + report.sweeps)
        assert report.sweeps >= 3 if coarse else report.sweeps == 0


def test_stopping_residual_builds_the_floor_above_the_target(square2):
    dm = build_dofmap(square2, "c0ip")
    system = NewtonSystem(dm, loads_of(exact_square()))
    psi, _ = newton_solve(dm, loads_of(exact_square()))
    floor = system.residual_floor(psi)
    assert floor > 0.0
    assert system.stopping_residual(psi, 0.5 * floor) == floor
    assert system.stopping_residual(psi, 2.0 * floor) == 2.0 * floor


def test_newton_invalid_arguments(square1):
    dm = build_dofmap(square1, "morley")
    zero = lambda x, y: np.zeros_like(x)
    with pytest.raises(ValueError):
        newton_solve(dm, (zero, zero), tol=0.0)
    with pytest.raises(ValueError):
        newton_solve(dm, (zero, zero), maxit=0)
    # a step count that is not an integer, and a NaN tolerance
    for bad in ({"maxit": 1.5}, {"maxit": 2.0}, {"tol": float("nan")}):
        with pytest.raises(ValueError):
            newton_solve(dm, (zero, zero), **bad)
    with pytest.raises(TypeError):  # the loads are required
        newton_solve(dm)


def test_a_newton_run_changes_no_pair_it_evaluated(square2, monkeypatch):
    # every pair whose residual was computed keeps its coefficients, so a
    # value cached on a pair stays valid for the whole run
    evaluated = []
    real = NewtonSystem.residual

    def recording(self, psi):
        evaluated.append((psi, psi.u.copy(), psi.v.copy()))
        return real(self, psi)
    monkeypatch.setattr(NewtonSystem, "residual", recording)
    dm = build_dofmap(square2, "c0ip")
    _, report = newton_solve(dm, loads_of(exact_square()))
    assert report.converged and report.iterations >= 2
    for psi, u, v in evaluated:
        np.testing.assert_array_equal(psi.u, u)
        np.testing.assert_array_equal(psi.v, v)


def test_method_solutions_pairwise_close(square2):
    # distances between the three converged solutions are of the same
    # magnitude as their errors (sanity on the common unified norm)
    from vkfem import discrete_norm, error_norm
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
        dist = np.hypot(discrete_norm(dg_dm, du, "h"),
                        discrete_norm(dg_dm, dv, "h"))
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


def lu_step(jac, rhs):
    """``jac^{-1} rhs`` by SciPy's sparse LU, refined until the residual is
    at most ``1e-10 ||rhs||`` (at most 8 times)."""
    lu = spla.splu(sp.csc_matrix(jac))
    x = lu.solve(rhs)
    for _ in range(8):
        res = rhs - jac @ x
        if np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs):
            break
        x = x + lu.solve(res)
    return x


def lu_newton(dm, loads, penalty=None):
    """Newton's method with every step solved by LU on the assembled
    Jacobian, with the stopping rule of ``newton_solve``: the reference for
    its start solve and preconditioned steps, sharing no code with
    ``linear_solve``."""
    system = NewtonSystem(dm, loads, penalty)
    n = dm.n_global
    abs_stiffness = abs(sp.block_diag((system.stiffness,) * 2, format="csr"))
    psi = DiscreteSolution(dm, np.zeros(n), np.zeros(n))
    res = -system.load
    for it in range(1, 51):
        delta = lu_step(assembled_jacobian(system, psi), -res)
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


def second_newton_step(mesh, method):
    """The Newton matrix, right-hand side and block-triangular
    preconditioner of the step after the first on the square pair."""
    dm = build_dofmap(mesh, method)
    loads = loads_of(exact_square())
    system = NewtonSystem(dm, loads)
    psi, _ = newton_solve(dm, loads, maxit=1)
    jac = system.step_matrix(psi)
    order = dm.column_order
    preconditioner = solver._BlockTriangularInverse(
        solver._symmetric_lu(jac.a, order),
        solver._symmetric_lu(jac.k, order), jac.m_u)
    return jac, -system.residual(psi), preconditioner


def test_linear_solve_stops_gmres_at_the_callers_target(square3,
                                                        monkeypatch):
    # a c0ip Newton step after the first: GMRES aims at the larger of
    # 1e-10 ||b|| and the smaller of the caller's target and half the
    # backward-error bound estimated at x0 = P^{-1} b
    jac, rhs, preconditioner = second_newton_step(square3, "c0ip")
    bnorm, anorm = np.linalg.norm(rhs), jac.norm_inf()
    bound = 0.5e-10 * (anorm * np.linalg.norm(preconditioner @ rhs) + bnorm)
    assert bound > 1e3 * 1e-10 * bnorm

    real_cycle = solver._gmres_cycle
    aims = []

    def recording_cycle(apply, r, atol):
        aims.append(atol)
        return real_cycle(apply, r, atol)

    def no_lu(*args, **kwargs):
        raise AssertionError("the GMRES result was not accepted")
    monkeypatch.setattr(solver, "_gmres_cycle", recording_cycle)
    monkeypatch.setattr(solver.spla, "splu", no_lu)
    cases = [(1e-12 * bnorm, 1e-10 * bnorm), (10 * 1e-10 * bnorm, None),
             (0.1 * bound, None), (None, bound), (10.0 * bound, bound)]
    for target, aim in cases:
        aims.clear()
        x = linear_solve(jac, rhs, preconditioner=preconditioner,
                         target=target)
        want = target if aim is None else aim
        assert len(aims) == 1  # one cycle
        assert aims[0] == pytest.approx(want, rel=1e-12)
        assert np.linalg.norm(rhs - jac @ x) <= want
        assert solver._backward_error(rhs - jac @ x, x, anorm,
                                      bnorm) <= 1e-10


def test_a_cycle_result_failing_the_acceptance_test_gets_a_second_cycle(
        square3, monkeypatch):
    # a finite first cycle whose result fails the backward-error test, as
    # one that meets an aim taken at ||x0|| does when ||x|| is well below
    # ||x0||, is followed by a second cycle from it, not by sparse LU
    jac, rhs, preconditioner = second_newton_step(square3, "c0ip")
    bnorm, anorm = np.linalg.norm(rhs), jac.norm_inf()
    real_cycle = solver._gmres_cycle
    starts = []

    def first_cycle_short(apply, r, atol):
        starts.append(np.linalg.norm(r))
        y = real_cycle(apply, r, atol)
        return 0.99 * y if len(starts) == 1 else y

    def no_lu(*args, **kwargs):
        raise AssertionError("the second cycle's result was not accepted")
    monkeypatch.setattr(solver, "_gmres_cycle", first_cycle_short)
    monkeypatch.setattr(solver.spla, "splu", no_lu)
    x = linear_solve(jac, rhs, preconditioner=preconditioner)
    assert len(starts) == 2 and starts[1] < starts[0]
    assert solver._backward_error(rhs - jac @ x, x, anorm, bnorm) <= 1e-10


@pytest.mark.parametrize("method", ["c0ip", "dg"])
def test_every_newton_step_ends_gmres_in_its_first_cycle(square3,
                                                         monkeypatch, method):
    dm = build_dofmap(square3, method)
    loads = loads_of(exact_square())
    ref, ref_iterations = lu_newton(dm, loads)
    real_cycle = solver._gmres_cycle
    reached = []

    def recording_cycle(apply, r, atol):
        y = real_cycle(apply, r, atol)
        reached.append(bool(np.linalg.norm(r - apply(y)) <= atol))
        return y
    monkeypatch.setattr(solver, "_gmres_cycle", recording_cycle)
    psi, report = newton_solve(dm, loads)
    assert report.converged
    assert report.iterations == ref_iterations
    # one cycle per step after the first, each reaching its aim; the first
    # step is the start solve on K's factor, with no GMRES
    assert reached == [True] * (report.iterations - 1)
    assert_same_solution(psi, ref)


def test_newton_falls_back_to_lu_when_gmres_fails(square2, monkeypatch):
    dm = build_dofmap(square2, "c0ip")
    loads = loads_of(exact_square())
    ref, report_ref = newton_solve(dm, loads)
    calls = []

    def nan_cycle(apply, r, atol):
        calls.append(len(r))
        return np.full_like(r, np.nan)
    monkeypatch.setattr(solver, "_gmres_cycle", nan_cycle)
    psi, report = newton_solve(dm, loads)
    # every step after the start solve tried GMRES first
    assert len(calls) == report.iterations - 1
    assert report.converged
    assert report.iterations == report_ref.iterations
    assert_same_solution(psi, ref)


def counted(apply):
    """``apply`` and the list that each of its calls appends to."""
    calls = []

    def wrapped(v):
        calls.append(len(v))
        return apply(v)
    return wrapped, calls


def scipy_cycle(apply, r, atol):
    """One cycle of scipy's GMRES, restart 40: the correction and the
    number of iterations."""
    n = len(r)
    iterations = []
    op = spla.LinearOperator((n, n), matvec=apply, dtype=float)
    y, _ = spla.gmres(op, r, rtol=0.0, atol=atol, restart=40, maxiter=1,
                      callback=iterations.append, callback_type="pr_norm")
    return y, len(iterations)


def same_cycle(apply, r, atol):
    """The corrections of ``_gmres_cycle`` and of scipy's cycle, after
    checking that both take the same number of iterations."""
    want, iterations = scipy_cycle(apply, r, atol)
    wrapped, calls = counted(apply)
    y = solver._gmres_cycle(wrapped, r, atol)
    assert len(calls) == iterations
    return y, want, iterations


def assert_close_relative(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("seed", [31, 32, 33])
@pytest.mark.parametrize("n", [60, 200])
@pytest.mark.parametrize("rel_aim", [1e-4, 1e-10])
def test_gmres_cycle_matches_scipy_gmres(seed, n, rel_aim):
    # nonsymmetric, near the identity: GMRES converges within one cycle
    rng = np.random.default_rng(seed)
    a = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    r = rng.standard_normal(n)
    y, want, iterations = same_cycle(lambda v: a @ v, r,
                                     rel_aim * np.linalg.norm(r))
    assert 2 <= iterations < 40
    assert_close_relative(y, want)


def test_gmres_cycle_matches_scipy_gmres_on_a_newton_step(square3):
    # the right-preconditioned c0ip step from x0 = P^{-1} b, aiming at
    # 1e-10 ||b|| as linear_solve does when nothing looser is allowed; the
    # Krylov coefficients are ill-conditioned (the two y differ by 1.6e-11
    # relative, with residuals within 3 % of each other), the Newton
    # corrections x0 + P^{-1} y they give by 1.1e-14
    jac, rhs, preconditioner = second_newton_step(square3, "c0ip")
    x0 = preconditioner @ rhs
    y, want, iterations = same_cycle(lambda v: jac @ (preconditioner @ v),
                                     rhs - jac @ x0,
                                     1e-10 * np.linalg.norm(rhs))
    assert iterations >= 2
    assert_close_relative(x0 + preconditioner @ y,
                          x0 + preconditioner @ want)


def test_gmres_cycle_on_the_identity_stops_after_one_iteration():
    r = np.random.default_rng(34).standard_normal(30)
    apply, calls = counted(lambda v: v)
    y = solver._gmres_cycle(apply, r, 1e-14 * np.linalg.norm(r))
    assert len(calls) == 1
    assert np.abs(y - r).max() <= 1e-15 * np.abs(r).max()


def test_gmres_cycle_makes_no_call_when_the_residual_meets_its_aim():
    r = np.random.default_rng(35).standard_normal(30)
    apply, calls = counted(lambda v: v)
    cases = [(r, np.linalg.norm(r)), (r, 2.0 * np.linalg.norm(r)),
             (np.zeros(30), 0.0)]
    for rhs, atol in cases:
        y = solver._gmres_cycle(apply, rhs, atol)
        assert y.shape == rhs.shape and not y.any()
    assert calls == []


def test_gmres_cycle_on_a_nan_operator_sends_the_solve_to_lu(square2,
                                                            monkeypatch):
    r = np.random.default_rng(36).standard_normal(30)
    apply, calls = counted(lambda v: np.full_like(v, np.nan))
    y = solver._gmres_cycle(apply, r, 1e-10 * np.linalg.norm(r))
    assert len(calls) == 1  # the NaN residual estimate stops the cycle
    assert not np.all(np.isfinite(y))

    # a c0ip Newton step after the first: its x0 = P^{-1} b fails the
    # acceptance test, the NaN cycle gives a non-finite result, and the
    # step is solved by one sparse LU on the assembled J
    jac, rhs, preconditioner = second_newton_step(square2, "c0ip")
    real_cycle, real_lu = solver._gmres_cycle, solver.spla.splu
    cycles, lus = [], []

    def nan_operator_cycle(apply, r, atol):
        cycles.append(len(r))
        return real_cycle(lambda v: np.full_like(v, np.nan), r, atol)

    def counted_lu(matrix):
        lus.append(matrix.shape)
        return real_lu(matrix)
    monkeypatch.setattr(solver, "_gmres_cycle", nan_operator_cycle)
    monkeypatch.setattr(solver.spla, "splu", counted_lu)
    x = linear_solve(jac, rhs, preconditioner=preconditioner)
    assert len(cycles) == 1 and lus == [jac.shape]
    want = spla.spsolve(jac.tocsc(), rhs)
    assert np.abs(x - want).max() <= 1e-9 * np.abs(want).max()


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
    inverse = solver._BlockTriangularInverse(
        solver._symmetric_lu(a), solver._symmetric_lu(k), c.tocsr())
    x = rng.standard_normal(2 * n)
    assert np.abs(inverse @ (p @ x) - x).max() < 1e-12 * np.abs(x).max()


@pytest.fixture(scope="module")
def square4(square3):
    return uniform_refine(square3)


@pytest.mark.parametrize("mesh_name", ["square4", "lshape_graded"])
def test_dg_numbering_factors_with_minimum_degree_fill(request, mesh_name):
    # the minimum-degree numbering of the triangles factored as it stands
    # fills no more than minimum degree on the dofs (0.51x on square4, 0.88x
    # on lshape_graded; mesh order on square4: 2.25x), and its diagonal
    # pivots certify K positive definite, as criterion 8 does
    mesh = request.getfixturevalue(mesh_name)
    dm = build_dofmap(mesh, "dg")
    assert dm.column_order == "NATURAL"
    k = assemble_biharmonic(dm)
    natural = solver._symmetric_lu(k, "NATURAL")
    mmd = solver._symmetric_lu(k, "MMD_AT_PLUS_A")
    fill = natural.L.nnz + natural.U.nnz
    assert fill <= mmd.L.nnz + mmd.U.nnz
    assert np.array_equal(natural.perm_r, np.arange(dm.n_global))
    assert np.array_equal(natural.perm_c, np.arange(dm.n_global))
    assert np.all(natural.U.diagonal() > 0.0)


#: L+U fill of the dg K on lshape_graded in the numbering that minimum degree
#: on the triangles replaced, coordinate nested dissection of the centroids
#: (measured; minimum degree on the triangles: 338,794)
DG_NESTED_DISSECTION_FILL = 520_526


def test_dg_numbering_fills_less_than_nested_dissection(lshape_graded):
    dm = build_dofmap(lshape_graded, "dg")
    lu = solver._symmetric_lu(assemble_biharmonic(dm), dm.column_order)
    assert lu.L.nnz + lu.U.nnz < DG_NESTED_DISSECTION_FILL


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


#: tracemalloc peak of the dg Newton solve below: 11.53 MiB when every step
#: assembled J as one sparse matrix, 4.83 MiB with the steps summed on K's
#: structure and GMRES holding a (41, 2n) Krylov basis, 3.58 MiB with a
#: basis of one vector per iteration, 3.13 MiB with |K| built per call,
#: 3.28 MiB with the step block kept without stored zeros (measured): that
#: copy owns its index array, so GMRES holds 4 bytes more per entry, while
#: the factorisation, which tracemalloc does not see, no longer holds a
#: second copy; a basis of 41 vectors again fails the bound
DG_SOLVE_PEAK_BOUND = 3.9 * 2**20


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


@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
@pytest.mark.parametrize("zero_iterate", [True, False])
@pytest.mark.parametrize("block", ["a", "m_u"])
def test_step_blocks_are_summed_on_k_without_stored_zeros(square2, method,
                                                          zero_iterate,
                                                          block):
    # both blocks, A = K + M_v (the one copy that GMRES applies and the step
    # factors) and M_u, are their element matrices summed on K's structure:
    # no stored zeros (on square2 entries of K cancel to exactly zero, and
    # the rows of the Lagrange vertex shapes of M_u are zero), the entries
    # of the sum, and bit-identical products
    dm = build_dofmap(square2, method)
    system = NewtonSystem(dm, loads_of(exact_square()))
    n = dm.n_global
    rng = np.random.default_rng(19)
    psi = (DiscreteSolution(dm, np.zeros(n), np.zeros(n)) if zero_iterate
           else DiscreteSolution(dm, rng.standard_normal(n),
                                 rng.standard_normal(n)))
    got = getattr(system.step_matrix(psi), block)
    k = system.stiffness
    m_u, m_v = solver._coupling_matrices(psi)
    data = (k.data + solver._sum_into(system._a_slots, m_v, k.nnz)
            if block == "a" else solver._sum_into(system._a_slots, m_u, k.nnz))
    full = sp.csc_matrix((data, k.indices, k.indptr), shape=k.shape)
    assert np.all(got.data != 0.0)
    assert got.nnz == np.count_nonzero(full.data)
    assert np.array_equal(got.toarray(), full.toarray())
    x = rng.standard_normal((n, 2))
    assert np.array_equal(got @ x, full @ x)
    assert np.array_equal(got @ x[:, 0], full @ x[:, 0])
    assert np.array_equal(solver._abs_row_sums(got),
                          solver._abs_row_sums(full))


def test_newton_factors_the_block_that_gmres_applies(square2, monkeypatch):
    # each step after the start solve factors the very matrix that its GMRES
    # products use, which stores no zeros, so the factorisation copies
    # nothing: no second copy of the block
    dm = build_dofmap(square2, "dg")
    real_lu, real_solve = solver._symmetric_lu, solver.linear_solve
    factored, applied = [], []

    def tracked_lu(matrix, column_order):
        factored.append(matrix)
        return real_lu(matrix, column_order)

    def tracked_solve(matrix, *args, **kwargs):
        applied.append(matrix.a)
        return real_solve(matrix, *args, **kwargs)
    monkeypatch.setattr(solver, "_symmetric_lu", tracked_lu)
    monkeypatch.setattr(solver, "linear_solve", tracked_solve)
    _, report = newton_solve(dm, loads_of(exact_square()))
    assert report.converged and report.iterations >= 3
    # K's factor and one block factor per step after the start solve
    assert len(factored) == report.iterations
    assert len(applied) == report.iterations - 1
    assert all(f is a for f, a in zip(factored[1:], applied))
    assert all(np.all(a.data != 0.0) for a in applied)


def test_newton_matrix_applies_the_assembled_jacobian(square2):
    # the step operator applies M_u once, to two columns; its product must
    # be the assembled J's
    dm = build_dofmap(square2, "c0ip")
    system = NewtonSystem(dm, loads_of(exact_square()))
    n = dm.n_global
    rng = np.random.default_rng(17)
    step = system.step_matrix(DiscreteSolution(dm, rng.standard_normal(n),
                                               rng.standard_normal(n)))
    assembled = step.tocsc()
    for _ in range(3):
        x = rng.standard_normal(2 * n)
        want = assembled @ x
        tol = 1e-14 * np.abs(want).max()
        assert np.abs(step @ x - want).max() <= tol


def test_newton_frees_each_block_factor_before_the_next(square2,
                                                        monkeypatch):
    # one factor of K + M_v at a time: when a step factors its block, the
    # last step's factor (K's is kept for the solve) is already gone
    dm = build_dofmap(square2, "dg")
    real_lu = solver._symmetric_lu
    factors = []
    alive_at_call = []

    class Factor:
        def __init__(self, lu):
            self.solve = lu.solve

    def tracked_lu(matrix, column_order):
        gc.collect()
        alive_at_call.append([ref() is not None for ref in factors[1:]])
        factor = Factor(real_lu(matrix, column_order))
        factors.append(weakref.ref(factor))
        return factor
    monkeypatch.setattr(solver, "_symmetric_lu", tracked_lu)
    _, report = newton_solve(dm, loads_of(exact_square()))
    assert report.converged
    assert len(factors) == report.iterations >= 3
    assert not any(any(alive) for alive in alive_at_call)


def scaled_loads(exact, a):
    return (lambda x, y: a * exact.f(x, y), lambda x, y: a * exact.g(x, y))


@pytest.mark.parametrize("method", ["c0ip", "dg"])
def test_first_step_from_zero_makes_no_gmres_iteration(square4, monkeypatch,
                                                       method):
    # the start solve from zero Hessians is the exact step at the zero
    # iterate, K^{-1} b, taken on K's factor: GMRES applies nothing
    real_cycle = solver._gmres_cycle
    applied = []

    def counting_cycle(apply, r, atol):
        wrapped, calls = counted(apply)
        applied.append(calls)
        return real_cycle(wrapped, r, atol)
    monkeypatch.setattr(solver, "_gmres_cycle", counting_cycle)
    dm = build_dofmap(square4, method)
    _, report = newton_solve(dm, scaled_loads(exact_square(), 10.0), maxit=1)
    assert report.iterations == 1
    assert sum(len(calls) for calls in applied) == 0


def coarse_hessian(fine, coarse_psi):
    """The element Hessians of the coarse ``u`` on the triangles of
    ``fine``, through its parents."""
    basis = coarse_psi.dofmap.basis
    parents = fine.parents_in(coarse_psi.dofmap.mesh)
    return element_hessians(basis, coarse_psi.u)[parents]


def start_step_iterates(system, hess, monkeypatch):
    """The iterates whose residuals the start step from the element
    Hessians ``hess`` evaluates with at most one sweep: the start solve,
    then the sweep's trial (kept or not), each as one vector."""
    iterates = []
    real_residual = system.residual

    def recording(psi):
        iterates.append(np.concatenate([psi.u, psi.v]))
        return real_residual(psi)
    monkeypatch.setattr(system, "residual", recording)
    k_lu = solver._symmetric_lu(system.stiffness, system.dofmap.column_order)
    solver._run(system, k_lu, hess, 0.0, 1, 0)
    monkeypatch.undo()
    return k_lu, iterates


@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_coarse_start_solves_the_frozen_bracket_system(square2, method,
                                                      monkeypatch):
    # with [u, .] frozen at u_H: K v0 + (1/2) ([u_H, u_H], phi) = L_g and
    # K u0 - ([u_H, v0], phi) = L_f, checked with the assembled cubic form
    dm = build_dofmap(square2, method)
    system = NewtonSystem(dm, loads_of(exact_square()))
    n = dm.n_global
    u_h = np.random.default_rng(19).standard_normal(n)
    _, (start, _) = start_step_iterates(
        system, element_hessians(dm.basis, u_h), monkeypatch)
    u0, v0 = start[:n], start[n:]
    k, load = system.stiffness, system.load
    frozen = DiscreteSolution(dm, u_h, np.zeros(n))
    cubic_v = assemble_trilinear_vector(frozen, frozen)[n:]
    mixed = DiscreteSolution(dm, u_h, v0)
    cubic_u = assemble_trilinear_vector(mixed, mixed)[:n]
    for x, cubic, rhs in ((v0, cubic_v, load[n:]), (u0, cubic_u, load[:n])):
        scale = np.abs(k) @ np.abs(x) + np.abs(cubic) + np.abs(rhs)
        assert np.abs(k @ x + cubic - rhs).max() <= 1e-12 * scale.max()


@pytest.mark.parametrize("amplitude", [1.0, 10.0])
@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_a_sweep_is_the_start_solve_frozen_at_its_own_u(square2, method,
                                                        amplitude,
                                                        monkeypatch):
    # the chord step psi - P^{-1} F(psi) with A = K is the re-frozen start
    # solve at the Hessians of psi.u, up to rounding that K's conditioning
    # amplifies (normwise 6.6e-13 for c0ip at a = 10)
    dm = build_dofmap(square2, method)
    system = NewtonSystem(dm, scaled_loads(exact_square(), amplitude))
    n = dm.n_global
    hess = np.zeros((square2.n_triangles, 3))
    _, (x, got) = start_step_iterates(system, hess, monkeypatch)
    _, (want, _) = start_step_iterates(
        system, element_hessians(dm.basis, x[:n]), monkeypatch)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("amplitude", [1.0, 10.0])
@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_start_solve_and_sweep_keep_the_two_solve_formulas_bit_for_bit(
        square1, square2, method, amplitude, monkeypatch):
    # P^{-1} with A = K and the element-wise M_u gives exactly what the two
    # triangular solves written out with ([a, b], phi) give: K v0 = L_g -
    # (1/2) ([u_H, u_H], phi), K u0 = L_f + ([u_H, v0], phi); a sweep from
    # psi: K dv = -F_v, K du = -(F_u - ([u, dv], phi)), psi + (du, dv)
    from vkfem.assembly import _scatter
    from vkfem.femspace import bracket
    loads = scaled_loads(exact_square(), amplitude)
    dm = build_dofmap(square2, method)
    coarse, _ = newton_solve(build_dofmap(square1, method), loads)
    hess = coarse_hessian(square2, coarse)
    system = NewtonSystem(dm, loads)
    k_lu, (start, swept) = start_step_iterates(system, hess, monkeypatch)
    n, basis, load = dm.n_global, dm.basis, system.load

    def bracket_load(hess_a, hess_b):
        return _scatter(dm, bracket(hess_a, hess_b)[:, None] * basis.int_phi)
    v0 = k_lu.solve(load[n:] - 0.5 * bracket_load(hess, hess))
    u0 = k_lu.solve(load[:n] + bracket_load(
        hess, element_hessians(basis, v0)))
    assert np.array_equal(start, np.concatenate([u0, v0]))
    psi = DiscreteSolution(dm, u0, v0)
    res = system.residual(psi)
    dv = -k_lu.solve(res[n:])
    du = -k_lu.solve(res[:n] - bracket_load(
        element_hessians(basis, psi.u), element_hessians(basis, dv)))
    assert np.array_equal(swept, np.concatenate([u0 + du, v0 + dv]))


@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_frozen_coupling_applies_the_sparse_coupling_block(square2, method):
    # -([u, y], phi) element by element is M_u @ y of the Newton matrix
    dm = build_dofmap(square2, method)
    system = NewtonSystem(dm, loads_of(exact_square()))
    psi, _ = newton_solve(dm, loads_of(exact_square()), maxit=1)
    y = np.random.default_rng(23).standard_normal(dm.n_global)
    want = system.step_matrix(psi).m_u @ y
    got = solver._FrozenCoupling(dm, element_hessians(dm.basis, psi.u)) @ y
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_a_run_that_ends_in_its_start_step_builds_no_coupling_block(
        square1, square2, monkeypatch):
    # the start solve and its sweeps apply the bracket element by element:
    # no element matrices of M_u are made, so no sparse M_u either
    from vkfem import assembly
    loads = loads_of(exact_square())
    coarse, _ = newton_solve(build_dofmap(square1, "c0ip"), loads)
    called = []

    def refuse(*args):
        called.append("_coupling_elements")
        raise AssertionError("_coupling_elements called")
    monkeypatch.setattr(assembly, "_coupling_elements", refuse)
    _, report = newton_solve(build_dofmap(square2, "c0ip"), loads,
                             coarse_hessian=coarse_hessian(square2, coarse))
    assert report.converged and report.iterations == 1
    assert report.sweeps >= 1
    assert called == []


def tracked_factors_and_solves(monkeypatch):
    """The matrices ``_symmetric_lu`` factors and the contexts of the
    ``linear_solve`` calls, as Newton makes them."""
    real_lu, real_solve = solver._symmetric_lu, solver.linear_solve
    factored, solved = [], []

    def tracked_lu(matrix, column_order):
        factored.append(matrix)
        return real_lu(matrix, column_order)

    def tracked_solve(*args, **kwargs):
        solved.append(kwargs["context"])
        return real_solve(*args, **kwargs)
    monkeypatch.setattr(solver, "_symmetric_lu", tracked_lu)
    monkeypatch.setattr(solver, "linear_solve", tracked_solve)
    return factored, solved


@pytest.mark.parametrize("method", ["c0ip", "dg"])
def test_coarse_start_sweeps_reach_the_solution_on_k_factor_alone(
        square1, square2, monkeypatch, method):
    # at unit amplitude each sweep of the start step contracts the residual
    # at least fourfold until it stops: the run ends after its start step,
    # with K's factor as its only factor and no GMRES
    loads = loads_of(exact_square())
    coarse, _ = newton_solve(build_dofmap(square1, method), loads)
    dm = build_dofmap(square2, method)
    ref, report_ref = newton_solve(dm, loads)
    factored, solved = tracked_factors_and_solves(monkeypatch)
    psi, report = newton_solve(dm, loads,
                               coarse_hessian=coarse_hessian(square2, coarse))
    assert report.converged and report.start == "coarse"
    assert report.iterations == 1 and report.sweeps >= 1
    assert len(factored) == 1
    assert solved == []
    assert len(report.residual_history) == 2
    assert report_ref.iterations >= 3 and report_ref.sweeps == 0
    assert_same_solution(psi, ref)


@pytest.mark.parametrize("amplitude", [1.0, 10.0])
@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_each_evaluated_iterate_takes_one_hessian_per_field(
        square1, square2, monkeypatch, method, amplitude):
    # a sweep freezes M_u at the Hessians that its iterate's residual took,
    # and a Newton step's matrix reads them too: one element_hessians call
    # per field of the start solve, of each sweep trial and of each step
    from vkfem import assembly
    loads = scaled_loads(exact_square(), amplitude)
    coarse, _ = newton_solve(build_dofmap(square1, method), loads)
    system = NewtonSystem(build_dofmap(square2, method), loads)
    k_lu = solver._symmetric_lu(system.stiffness, system.dofmap.column_order)
    real_hessians, real_residual = solver.element_hessians, system.residual
    hessians, residuals = [], []

    def counting(basis, coef):
        hessians.append(coef)
        return real_hessians(basis, coef)

    def recording(psi):
        residuals.append(psi)
        return real_residual(psi)
    for module in (solver, assembly):
        monkeypatch.setattr(module, "element_hessians", counting)
    monkeypatch.setattr(system, "residual", recording)
    _, history, sweeps, converged = solver._run(
        system, k_lu, coarse_hessian(square2, coarse),
        1e-10 * system.load_scale, 50, 0)
    assert converged
    # the start solve and at least one sweep trial, kept or not; the other
    # calls take the Hessians of the frozen solves' v parts
    assert len(residuals) >= 2
    for psi in residuals:
        for field in (psi.u, psi.v):
            assert sum(np.shares_memory(field, c) for c in hessians) == 1


@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_coarse_start_factors_once_per_step_and_reaches_the_solution(
        square1, square2, monkeypatch, method):
    # loads scaled by 10: the start step keeps no sweep or too few to stop,
    # and Newton steps follow it
    loads = scaled_loads(exact_square(), 10.0)
    coarse, _ = newton_solve(build_dofmap(square1, method), loads)
    dm = build_dofmap(square2, method)
    ref, report_ref = newton_solve(dm, loads)
    factored, solved = tracked_factors_and_solves(monkeypatch)
    psi, report = newton_solve(dm, loads,
                               coarse_hessian=coarse_hessian(square2, coarse))
    assert report.converged and report.start == "coarse"
    assert report_ref.start == "zero"
    assert report.iterations >= 3
    # the first step solves with K's factor, and without GMRES
    assert len(factored) == report.iterations
    assert len(solved) == report.iterations - 1
    assert len(report.residual_history) == report.iterations + 1
    assert report.residual_history[0] == report_ref.residual_history[0]
    assert_same_solution(psi, ref)


def test_coarse_start_restarts_from_zero_when_newton_does_not_descend(
        square2):
    # Hessians far from the solution's: the first sweep of the start step
    # does not contract the residual fourfold and is dropped, the first
    # Newton step from the start raises the residual, and the run starts
    # again from the zero pair (the sweeps repair the Hessians (0, 0, 100))
    dm = build_dofmap(square2, "morley")
    loads = loads_of(exact_square())
    ref, report_ref = newton_solve(dm, loads)
    bad = np.tile([0.0, 0.0, -300.0], (square2.n_triangles, 1))
    psi, report = newton_solve(dm, loads, coarse_hessian=bad)
    assert report.start == "restarted" and report.converged
    assert report.sweeps == 0
    # two steps were abandoned; the kept run is the zero start's
    assert report.iterations == report_ref.iterations + 2
    assert report.residual_history == report_ref.residual_history
    np.testing.assert_array_equal(psi.u, ref.u)
    np.testing.assert_array_equal(psi.v, ref.v)


def test_coarse_hessian_needs_one_row_per_triangle(square2):
    dm = build_dofmap(square2, "c0ip")
    with pytest.raises(ValueError, match="coarse_hessian"):
        newton_solve(dm, loads_of(exact_square()),
                     coarse_hessian=np.zeros((square2.n_triangles - 1, 3)))
