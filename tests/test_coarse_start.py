"""Newton's coarse start across refinement levels: robustness and starts."""

import re
import warnings

import numpy as np
import pytest

from vkfem import SolverError, adaptivity, build_dofmap, newton_solve, solver
from vkfem.adaptivity import AdaptiveConfig, method_levels, uniform_levels
from vkfem.analysis import ExactSolutionPair
from vkfem.femspace import METHODS, bracket, element_hessians
from vkfem.problems import Problem, lshape_problem, square_problem


def scaled_problem(base, a):
    """The exact pair ``(a u, a v)`` of ``base`` with its loads:
    ``f_a = a (f + [u,v]) - a^2 [u,v]`` and ``g_a = a (g - [u,u]/2) +
    a^2 [u,u]/2``."""
    ex = base.exact

    def scale(fn):
        return lambda x, y: a * fn(x, y)

    def f(x, y):
        br = bracket(ex.u_hess(x, y), ex.v_hess(x, y))
        return a * (ex.f(x, y) + br) - a * a * br

    def g(x, y):
        hu = ex.u_hess(x, y)
        br = bracket(hu, hu)
        return a * (ex.g(x, y) - 0.5 * br) + 0.5 * a * a * br

    exact = ExactSolutionPair(scale(ex.u), scale(ex.u_grad), scale(ex.u_hess),
                              scale(ex.v), scale(ex.v_grad), scale(ex.v_hess),
                              f, g)
    return Problem(f"{base.name}_a{a:g}", base.initial_mesh, exact)


@pytest.fixture
def reports(monkeypatch):
    """The reports of every Newton run of the level loops, in order."""
    real = adaptivity.newton_solve
    out = []

    def recording(*args, **kwargs):
        psi, report = real(*args, **kwargs)
        out.append(report)
        return psi, report
    monkeypatch.setattr(adaptivity, "newton_solve", recording)
    return out


@pytest.mark.parametrize("amplitude", [15.0, 20.0])
@pytest.mark.parametrize("method", METHODS)
def test_scaled_square_converges_on_every_level(method, amplitude, reports):
    # from the zero pair, Morley's Newton does not converge at a = 15
    # (level 2) or a = 20 (level 1); started from the coarse level it does
    problem = scaled_problem(square_problem(), amplitude)
    states = list(uniform_levels(problem, method, 4))
    assert len(states) == 4 == len(reports)
    assert all(report.converged for report in reports)
    assert reports[0].start == "zero"
    # some starts are abandoned: C0IP level 1 at both amplitudes, Morley
    # level 2 at a = 20
    assert {r.start for r in reports[1:]} <= {"coarse", "restarted"}


@pytest.mark.parametrize("method, steps", [("morley", 22), ("c0ip", 18),
                                           ("dg", 18)])
def test_sweeps_leave_the_scaled_square_steps_as_they_were(method, steps,
                                                          reports):
    # at a = 10 the sweeps of the start step do not contract, so the start
    # keeps at most one and the Newton steps over levels 0-3 stay those of
    # the start without sweeps
    problem = scaled_problem(square_problem(), 10.0)
    list(uniform_levels(problem, method, 4))
    assert all(report.converged for report in reports)
    assert sum(report.iterations for report in reports) == steps
    assert sum(report.sweeps for report in reports) <= 1


def test_no_coarse_start_is_abandoned_on_the_benchmark_hierarchies(reports):
    # the adaptive L-shape (16 levels, theta 0.5) and the uniform square
    # (5 levels), each method on its own hierarchy
    lshape_steps, lshape_sweeps = 0, {}
    for method in METHODS:
        list(method_levels(lshape_problem(), [method],
                           AdaptiveConfig(theta=0.5, max_levels=16),
                           marked_by=method))
        lshape_steps += sum(r.iterations for r in reports[-16:])
        lshape_sweeps[method] = sum(r.sweeps for r in reports[-16:])
        list(uniform_levels(square_problem(), method, 5))
    starts = [report.start for report in reports]
    assert len(starts) == 3 * (16 + 5)
    assert starts.count("zero") == 6  # the first level of each hierarchy
    assert starts.count("coarse") == len(starts) - 6
    # on the L-shape hierarchies zero starts take 196 steps, coarse starts
    # without sweeps 166 and with them 81
    assert lshape_steps == 81
    assert lshape_sweeps == {"morley": 69, "c0ip": 92, "dg": 142}


def test_a_level_on_the_same_mesh_starts_from_identity_parents(monkeypatch):
    # an empty marking returns the mesh itself: the next solve gathers the
    # coarse Hessians through identity parents, not through the parent map
    # of the refinement that made the mesh
    marks = iter([np.array([0, 3]), np.array([], dtype=np.int64)])
    monkeypatch.setattr(adaptivity, "dorfler_mark",
                        lambda estimates, theta: next(marks))
    real = adaptivity.newton_solve
    given = []

    def recording(*args, coarse_hessian=None, **kwargs):
        given.append(coarse_hessian)
        return real(*args, coarse_hessian=coarse_hessian, **kwargs)
    monkeypatch.setattr(adaptivity, "newton_solve", recording)
    states = list(method_levels(square_problem(), ["c0ip"],
                                AdaptiveConfig(max_levels=3),
                                marked_by="c0ip"))
    assert states[2].mesh is states[1].mesh is not states[0].mesh
    assert np.isnan(states[2].record.rate_vs_ndof)
    assert given[0] is None
    for coarse, fine, hess in zip(states, states[1:], given[1:]):
        psi = coarse.solution
        want = element_hessians(psi.dofmap.basis, psi.u)[
            fine.mesh.parents_in(coarse.mesh)]
        np.testing.assert_array_equal(hess, want)
    np.testing.assert_array_equal(
        given[2], element_hessians(states[1].solution.dofmap.basis,
                                   states[1].solution.u))


def test_a_coarse_start_that_never_converges_restarts_from_zero(square2):
    # synthetic coarse Hessians whose first Newton step lowers the residual
    # (4.2e6 after the start, then 1.05e6) but whose run oscillates for all
    # 50 steps; the zero start converges in 4
    problem = square_problem()
    dofmap = build_dofmap(square2, "morley")
    loads = (problem.exact.f, problem.exact.g)
    hess = np.tile([-300.0, -300.0, 0.0], (square2.n_triangles, 1))
    psi, report = newton_solve(dofmap, loads, coarse_hessian=hess)
    zero, zero_report = newton_solve(dofmap, loads)
    assert zero_report.converged and zero_report.start == "zero"
    assert report.converged and report.start == "restarted"
    # both runs counted; the history is that of the zero run
    assert report.iterations == 50 + zero_report.iterations
    assert report.residual_history == zero_report.residual_history
    np.testing.assert_array_equal(psi.u, zero.u)
    np.testing.assert_array_equal(psi.v, zero.v)


def recorded_linear_solves(monkeypatch, fail_at=None):
    """Whether each call of the Newton step solve raised, in order; with
    ``fail_at``, that call (counted from 0) raises without solving."""
    real = solver.linear_solve
    raised = []

    def recording(*args, **kwargs):
        try:
            if len(raised) == fail_at:
                raise solver.SolverError("injected failure")
            x = real(*args, **kwargs)
        except solver.SolverError:
            raised.append(True)
            raise
        raised.append(False)
        return x
    monkeypatch.setattr(solver, "linear_solve", recording)
    return raised


def test_a_coarse_run_whose_linear_solve_fails_restarts_from_zero(
        square2, monkeypatch):
    # the coarse run's third linear solve fails (as a backward-error test
    # does once its iterates have grown, at a step that depends on rounding);
    # the run is abandoned there for the zero start, which converges in 4
    problem = square_problem()
    dofmap = build_dofmap(square2, "morley")
    loads = (problem.exact.f, problem.exact.g)
    zero, zero_report = newton_solve(dofmap, loads)
    raised = recorded_linear_solves(monkeypatch, fail_at=2)
    hess = np.tile([1000.0, 1000.0, 0.0], (square2.n_triangles, 1))
    psi, report = newton_solve(dofmap, loads, coarse_hessian=hess)
    assert zero_report.converged and zero_report.iterations == 4
    assert report.converged and report.start == "restarted"
    # one call raised, the coarse run's last; the zero run's start step
    # solves on K's factor, and each of its further steps calls once
    coarse_calls = len(raised) - (zero_report.iterations - 1)
    assert raised.count(True) == 1 and raised[coarse_calls - 1]
    assert coarse_calls == 3
    # the coarse run's start step and its steps, then the zero run
    assert report.iterations == 1 + coarse_calls + zero_report.iterations
    assert report.sweeps == 0
    assert report.residual_history == zero_report.residual_history
    np.testing.assert_array_equal(psi.u, zero.u)
    np.testing.assert_array_equal(psi.v, zero.v)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_diverging_coarse_run_warns_of_nothing(square2, monkeypatch, sign):
    # the iterates of the (+-1000, +-1000, 0) starts grow until a residual
    # overflows or a linear solve fails (which, and at which step, depends on
    # rounding); the run is abandoned there and no RuntimeWarning escapes
    problem = square_problem()
    dofmap = build_dofmap(square2, "morley")
    loads = (problem.exact.f, problem.exact.g)
    _, zero_report = newton_solve(dofmap, loads)
    raised = recorded_linear_solves(monkeypatch)
    hess = np.tile([sign * 1000.0, sign * 1000.0, 0.0],
                   (square2.n_triangles, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, report = newton_solve(dofmap, loads, coarse_hessian=hess)
    assert report.converged and report.start == "restarted"
    coarse_calls = len(raised) - (zero_report.iterations - 1)
    # a failed linear solve can only be the coarse run's last call
    assert True not in raised[:coarse_calls - 1] + raised[coarse_calls:]
    assert report.iterations == 1 + coarse_calls + zero_report.iterations


def test_a_diverging_zero_run_stops_at_its_first_non_finite_residual(
        square2):
    # from zero, Morley at a = 30 grows until a residual overflows (about
    # 8e148, then inf, after some 43 steps, by rounding); the run raises
    # there, naming the last finite residual, and no RuntimeWarning escapes
    problem = scaled_problem(square_problem(), 30.0)
    dofmap = build_dofmap(square2, "morley")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as failure:
            newton_solve(dofmap, (problem.exact.f, problem.exact.g))
    found = re.fullmatch(r"morley \(ndof 225\): the residual is not finite "
                         r"after (\d+) steps \(last finite residual "
                         r"(\S+)\)", str(failure.value))
    assert found, str(failure.value)
    assert int(found[1]) < 50 and 1e100 < float(found[2]) < np.inf
