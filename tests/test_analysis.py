import numpy as np
import pytest

from vkfem import (ConvergenceRecord, DiscreteSolution, ExactSolutionPair,
                   best_approx_term, build_dofmap, build_topology,
                   convergence_rates, discrete_norm, error_norm, estimate,
                   fit_rate, lshape_problem, morley_interpolate,
                   newton_solve, nodal_interpolate, oscillation,
                   oscillation_local, square_problem, triangle_rule,
                   uniform_refine, unified_h_norm)
from vkfem import adaptivity, analysis
from vkfem.analysis import NORM_KINDS
from vkfem.femspace import EDGE_RULE, gather_coefficients
from vkfem.problems import exact_square


def quadratic_pair():
    q = lambda x, y: x**2 + 0.5 * x * y - y**2 + x + 2.0
    qg = lambda x, y: np.stack([2.0 * x + 0.5 * y + 1.0, 0.5 * x - 2.0 * y],
                               axis=-1)
    qh = lambda x, y: np.stack([2.0 + 0.0 * x, -2.0 + 0.0 * x, 0.5 + 0.0 * x],
                               axis=-1)
    return q, qg, qh


def test_error_norms_vanish_for_exact_p2(square1):
    q, qg, qh = quadratic_pair()
    exact = ExactSolutionPair(q, qg, qh, q, qg, qh, None, None)
    dm = build_dofmap(square1, "dg")
    coef = nodal_interpolate(q, dm)
    psi = DiscreteSolution(dm, coef, coef.copy())
    for kind in ("nc", "ip", "dg", "h"):
        assert error_norm(psi, exact, kind)[2] <= 1e-12


def test_error_norm_kinds_share_one_evaluation(square1):
    # a sequence of kinds gives the triples of separate calls bit for bit,
    # and evaluates each distinct exact callable once per point set
    q, qg, qh = quadratic_pair()
    calls = []

    def counted(fn):
        def wrapper(x, y):
            calls.append(fn)
            return fn(x, y)
        return wrapper

    u, ug, uh = counted(q), counted(qg), counted(qh)
    exact = ExactSolutionPair(u, ug, uh, u, ug, uh, None, None)
    rng = np.random.default_rng(9)
    for method in ("morley", "c0ip", "dg"):
        dm = build_dofmap(square1, method)
        psi = DiscreteSolution(dm, rng.standard_normal(dm.n_global),
                               rng.standard_normal(dm.n_global))
        calls.clear()
        together = error_norm(psi, exact, ("h", "nc", "ip", "dg"))
        assert sorted(map(id, calls)) == sorted(map(id, (q, qg, qh)))
        separate = [error_norm(psi, exact, kind)
                    for kind in ("h", "nc", "ip", "dg")]
        assert together == separate
        calls.clear()
        error_norm(psi, exact, ["nc"])
        assert calls == [qh]
    with pytest.raises(ValueError, match="unknown norm kind"):
        error_norm(psi, exact, ("h", "l2"))


def test_unified_equals_nc_on_morley(square1):
    dm = build_dofmap(square1, "morley")
    rng = np.random.default_rng(15)
    for _ in range(20):
        coef = rng.standard_normal(dm.n_global)
        h = unified_h_norm(dm, coef)
        nc = discrete_norm(dm, coef, "nc")
        assert abs(h - nc) <= 1e-10 * nc


def test_unified_norm_c0ip_vertex_jumps_vanish(square1):
    # continuous fields have no vertex jumps; the unified norm adds only
    # the edge means of the normal-derivative jump
    dm = build_dofmap(square1, "c0ip")
    rng = np.random.default_rng(16)
    coef = rng.standard_normal(dm.n_global)
    h = unified_h_norm(dm, coef)
    nc = discrete_norm(dm, coef, "nc")
    assert h >= nc
    ip = discrete_norm(dm, coef, "ip")
    assert ip >= nc


def test_zero_field_norms(square1):
    dm = build_dofmap(square1, "dg")
    zero = np.zeros(dm.n_global)
    for kind in ("nc", "ip", "dg", "h"):
        assert discrete_norm(dm, zero, kind) == 0.0


def test_dg_norm_dominates_nc_equality_iff_no_jumps(square1):
    dm = build_dofmap(square1, "dg")
    smooth = nodal_interpolate(lambda x, y: np.sin(x) * np.cos(y), dm)
    assert discrete_norm(dm, smooth, "dg") > discrete_norm(dm, smooth, "nc")
    rng = np.random.default_rng(17)
    rough = rng.standard_normal(dm.n_global)
    assert discrete_norm(dm, rough, "dg") >= discrete_norm(dm, rough, "nc")
    # clamped-compatible quadratic-free field: zero has equality trivially;
    # a Morley-conforming field has dg > nc only through its actual jumps
    q = nodal_interpolate(lambda x, y: x**2, dm)
    jumps2 = discrete_norm(dm, q, "dg")**2 - discrete_norm(dm, q, "nc")**2
    assert jumps2 > 0.0  # boundary traces of x^2 do not vanish


def test_norms_absolutely_homogeneous_and_triangle(square1):
    rng = np.random.default_rng(18)
    for method in ("morley", "c0ip", "dg"):
        dm = build_dofmap(square1, method)
        a = rng.standard_normal(dm.n_global)
        b = rng.standard_normal(dm.n_global)
        for kind in ("nc", "ip", "dg", "h"):
            na = discrete_norm(dm, a, kind)
            assert discrete_norm(dm, -2.5 * a, kind) == pytest.approx(
                2.5 * na, rel=1e-10)
            nb = discrete_norm(dm, b, kind)
            nab = discrete_norm(dm, a + b, kind)
            assert nab <= na + nb + 1e-10 * (na + nb)


def test_unified_vs_dg_ip_ratio_bounded(square0):
    # ||.||_h <= C ||.||_dg and <= C ||.||_ip with a stable constant across
    # refinement levels (equivalence; the constant itself is unspecified)
    rng = np.random.default_rng(19)
    mesh = square0
    ratios_dg, ratios_ip = [], []
    for _ in range(3):
        dm = build_dofmap(mesh, "dg")
        for _ in range(10):
            coef = rng.standard_normal(dm.n_global)
            ratios_dg.append(discrete_norm(dm, coef, "h")
                             / discrete_norm(dm, coef, "dg"))
        dmc = build_dofmap(mesh, "c0ip")
        for _ in range(10):
            coef = rng.standard_normal(dmc.n_global)
            ratios_ip.append(discrete_norm(dmc, coef, "h")
                             / discrete_norm(dmc, coef, "ip"))
        mesh = uniform_refine(mesh)
    assert max(ratios_dg) <= 2.0   # jump means are dominated by L2 jumps
    assert max(ratios_ip) <= 2.0


def test_oscillation_constant_and_scaling(square1):
    const = lambda x, y: 4.2 * np.ones_like(x)
    assert oscillation(const, square1) <= 1e-13
    f = lambda x, y: np.sin(3 * x) + y
    c = -2.5
    cf = lambda x, y: c * f(x, y)
    assert oscillation(cf, square1) == pytest.approx(
        abs(c) * oscillation(f, square1), rel=1e-12)


def test_oscillation_local_reference_triangle():
    mesh = build_topology([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    local = oscillation_local(lambda x, y: x, mesh)
    # mean of x is 1/3, ||x - 1/3||^2 = 1/36 over the reference triangle,
    # h = sqrt(2): local term h^2 * 1/6 = 1/3
    assert local[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert oscillation(lambda x, y: x, mesh) == pytest.approx(1.0 / 3.0,
                                                              rel=1e-12)


def test_best_approx_zero_for_quadratics(square1):
    q, qg, qh = quadratic_pair()
    exact = ExactSolutionPair(q, qg, qh, q, qg, qh, None, None)
    assert best_approx_term(exact, square1) <= 1e-10


def test_best_approx_decreases_under_refinement(square0):
    exact = exact_square()
    mesh = square0
    values = []
    for _ in range(4):
        values.append(best_approx_term(exact, mesh))
        mesh = uniform_refine(mesh)
    assert all(values[k + 1] < values[k] for k in range(3))


def test_best_approx_evaluates_a_shared_hessian_once(lshape1, square2,
                                                     monkeypatch):
    from vkfem import problems
    from vkfem.femspace import load_values
    from vkfem.problems import exact_lshape
    calls = []
    fields_polar = problems._fields_polar

    def counting(*args, **kwargs):
        calls.append(1)
        return fields_polar(*args, **kwargs)
    monkeypatch.setattr(problems, "_fields_polar", counting)
    best_approx_term(exact_lshape(), lshape1)
    assert len(calls) == 1  # u_hess is v_hess on the L-shape

    # the square's distinct Hessians give what one evaluation each gave
    exact, rule = exact_square(), triangle_rule(8)
    total = 0.0
    for hess_fn in (exact.u_hess, exact.v_hess):
        h = load_values(hess_fn, square2)
        mean = np.einsum("q,tqc->tc", rule.weights, h)
        full = np.einsum("t,q,tqc,c->t", square2.area, rule.weights, h**2,
                         np.array([1.0, 1.0, 2.0]))
        const = square2.area * np.einsum("tc,c->t", mean**2,
                                         np.array([1.0, 1.0, 2.0]))
        total += float(np.maximum(full - const, 0.0).sum())
    assert best_approx_term(exact, square2) == float(np.sqrt(total))


def test_best_approx_equals_morley_distance(square2):
    # the interpolant attains the best broken-Hessian approximation
    exact = exact_square()
    target = best_approx_term(exact, square2)
    total = 0.0
    rule = triangle_rule(8)
    from vkfem.femspace import ElementBasis, element_hessians
    for component in ("u", "v"):
        dm = build_dofmap(square2, "morley")
        value = getattr(exact, component)
        grad = getattr(exact, component + "_grad")
        hess = getattr(exact, component + "_hess")
        coef = morley_interpolate(value, grad, dm)
        basis = ElementBasis(dm)
        hfield = element_hessians(basis, coef)
        pts = basis.physical_points(rule.points[:, 1:])
        diff = hess(pts[..., 0], pts[..., 1]) - hfield[:, None, :]
        total += float(np.einsum("t,q,tqc,c->", basis.area, rule.weights,
                                 diff**2, np.array([1.0, 1.0, 2.0])))
    assert np.sqrt(total) == pytest.approx(target, rel=1e-9)


def test_fit_rate_synthetic():
    assert fit_rate([100, 400, 1600], [1.0, 0.5, 0.25]) == pytest.approx(0.5)
    assert fit_rate([100, 400, 1600], [2.0, 2.0, 2.0]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        fit_rate([100], [1.0])


def test_convergence_rates_records():
    records = [ConvergenceRecord(k, 100 * 4**k, 2.0**-k, 2.0**-k, 2.0**-k,
                                 2.0**-k, 2.0**-k, 0.0, float("nan"))
               for k in range(4)]
    rates = convergence_rates(records)
    assert rates["error_total"] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        convergence_rates(records[:2])


def jumps_at_every_table_point(edge_basis, coefficients):
    """The reference for ``femspace.edge_jumps``: value and gradient jumps
    at every point of the table, the gradient jumps cut to the rule points
    afterwards."""
    vj, gj = 0.0, 0.0
    for side, sign in ((0, 1.0), (1, -1.0)):
        local = gather_coefficients(edge_basis.dofs[side], coefficients)
        vj = vj + sign * np.einsum("eqj,ej->eq", edge_basis.values[side],
                                   local)
        gj = gj + sign * np.einsum("eqja,ej->eqa", edge_basis.gradients[side],
                                   local)
    return vj, gj[:, :len(EDGE_RULE.points)]


@pytest.fixture(scope="module")
def lshape2(lshape1):
    return uniform_refine(lshape1)


@pytest.mark.parametrize("mesh_name", ["square2", "lshape2"])
def test_rule_point_gradient_jumps_leave_estimates_and_norms_unchanged(
        request, monkeypatch, mesh_name):
    mesh = request.getfixturevalue(mesh_name)
    problem = square_problem() if mesh_name == "square2" else lshape_problem()
    exact = problem.exact
    loads = (exact.f, exact.g)
    for method in ("morley", "c0ip", "dg"):
        psi, _ = newton_solve(build_dofmap(mesh, method), loads)

        def run():
            return (estimate(psi, loads).eta2,
                    np.array(error_norm(psi, exact, NORM_KINDS)))
        eta2, norms = run()
        with monkeypatch.context() as patched:
            for module in (adaptivity, analysis):
                patched.setattr(module, "edge_jumps",
                                jumps_at_every_table_point)
            eta2_all, norms_all = run()
        assert np.array_equal(eta2, eta2_all), method
        assert np.array_equal(norms, norms_all), method
