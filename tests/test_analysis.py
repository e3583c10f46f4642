import tracemalloc

import numpy as np
import pytest

from vkfem import (DiscreteSolution, ExactSolutionPair, Triangulation,
                   best_approx_term, build_dofmap, discrete_norm, error_norm,
                   fit_rate, morley_interpolate, oscillation,
                   oscillation_local, uniform_refine)
from vkfem import analysis
from vkfem.femspace import (BLOCK_POINTS, VOLUME_RULE, EdgeBasis, edge_jumps,
                            edge_points, element_hessians, gather_coefficients,
                            load_values, rule_points)
from vkfem.problems import exact_lshape, exact_square

from oracles import nodal_interpolate


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
    # and calls each exact callable once per point set (here u is v)
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
        assert sorted(map(id, calls)) == sorted(map(id, (q, qg, qh) * 2))
        separate = [error_norm(psi, exact, kind)
                    for kind in ("h", "nc", "ip", "dg")]
        assert together == separate
        calls.clear()
        error_norm(psi, exact, ["nc"])
        assert calls == [qh, qh]
    with pytest.raises(ValueError, match="unknown norm kind"):
        error_norm(psi, exact, ("h", "l2"))


def test_unified_equals_nc_on_morley(square1):
    dm = build_dofmap(square1, "morley")
    rng = np.random.default_rng(15)
    for _ in range(20):
        coef = rng.standard_normal(dm.n_global)
        h = discrete_norm(dm, coef, "h")
        nc = discrete_norm(dm, coef, "nc")
        assert abs(h - nc) <= 1e-10 * nc


def test_unified_norm_c0ip_vertex_jumps_vanish(square1):
    # continuous fields have no vertex jumps; the unified norm adds only
    # the edge means of the normal-derivative jump
    dm = build_dofmap(square1, "c0ip")
    rng = np.random.default_rng(16)
    coef = rng.standard_normal(dm.n_global)
    h = discrete_norm(dm, coef, "h")
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
    mesh = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
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
    from vkfem.femspace import rule_points
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
    exact, rule = exact_square(), VOLUME_RULE
    pts = rule_points(square2)
    total = 0.0
    for hess_fn in (exact.u_hess, exact.v_hess):
        h = hess_fn(pts[..., 0], pts[..., 1])
        dev = h - (rule.weights @ h)[:, None, :]
        total += float(square2.area
                       @ (dev**2 @ np.array([1.0, 1.0, 2.0]) @ rule.weights))
    assert best_approx_term(exact, square2) == float(np.sqrt(total))


def test_best_approx_equals_morley_distance(square2):
    # the interpolant attains the best broken-Hessian approximation
    exact = exact_square()
    target = best_approx_term(exact, square2)
    total = 0.0
    rule = VOLUME_RULE
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
        total += float(np.einsum("t,q,tqc,c->", basis.mesh.area, rule.weights,
                                 diff**2, np.array([1.0, 1.0, 2.0])))
    assert np.sqrt(total) == pytest.approx(target, rel=1e-9)


def test_fit_rate_synthetic():
    assert fit_rate([100, 400, 1600], [1.0, 0.5, 0.25]) == pytest.approx(0.5)
    assert fit_rate([100, 400, 1600], [2.0, 2.0, 2.0]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        fit_rate([100], [1.0])


@pytest.fixture(scope="module")
def lshape2(lshape1):
    return uniform_refine(lshape1)


@pytest.mark.parametrize("mesh_name", ["square2", "lshape2"])
def test_vertex_jumps_extrapolate_the_rule_point_jumps(request, mesh_name):
    # a P2 trace is quadratic along a straight edge, so its values at the
    # rule points give those at both endpoints: each side's trace and the
    # jump, against a table at the endpoints themselves
    mesh = request.getfixturevalue(mesh_name)
    rng = np.random.default_rng(21)
    for method in ("morley", "c0ip", "dg"):
        dm = build_dofmap(mesh, method)
        coef = rng.standard_normal(dm.n_global)
        ends_table = EdgeBasis(dm.basis, [0.0, 1.0])
        got, want = [], []
        for table, out in ((dm.edge_basis, got), (ends_table, want)):
            for side in (0, 1):
                local = gather_coefficients(table.dofs[side], coef)
                values = table.traces(side)[0]
                out.append((values @ local[:, :, None])[..., 0])
            out.append(edge_jumps(table, coef)[0])
        got = [vals @ analysis._TO_ENDS for vals in got]
        scale = np.abs(want[0]).max()
        assert scale > 0.0
        for g, w in zip(got, want):
            assert g.shape == w.shape == (mesh.n_edges, 2)
            assert np.abs(g - w).max() <= 1e-13 * scale, method


#: tracemalloc peak of the Morley error_norm below, on the uniform L-shape at
#: level 4 (1,536 triangles, 38,400 rule points): 4.95 MiB (measured), the
#: temporaries of the closed-form singular fields on one block of
#: ``BLOCK_POINTS`` rule points (14.65 MiB when all points were one block)
ERROR_NORM_PEAK_BOUND = 5.2 * 2**20


def test_error_norm_stays_within_its_memory_peak(lshape1):
    mesh = lshape1
    for _ in range(3):
        mesh = uniform_refine(mesh)
    dm = build_dofmap(mesh, "morley")
    dm.basis, dm.edge_basis  # the level's, not the norm's
    rng = np.random.default_rng(23)
    psi = DiscreteSolution(dm, rng.standard_normal(dm.n_global),
                           rng.standard_normal(dm.n_global))
    exact = exact_lshape()
    tracemalloc.start()
    try:
        # the norms the level loop records for Morley
        errors = error_norm(psi, exact, ("h", "nc"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_triangles == 1536
    assert all(np.isfinite(e).all() for e in errors)
    assert peak <= ERROR_NORM_PEAK_BOUND


#: tracemalloc peak of evaluating the L-shape load f below at the volume
#: rule points of the uniform L-shape at level 4 (1,536 triangles):
#: 4.40 MiB (measured), the temporaries of the closed-form singular fields
#: on one block of ``BLOCK_POINTS`` points (14.65 MiB as one block)
LOAD_VALUES_PEAK_BOUND = 4.62 * 2**20


def test_load_values_stays_within_its_memory_peak(lshape1):
    mesh = lshape1
    for _ in range(3):
        mesh = uniform_refine(mesh)
    f = exact_lshape().f
    tracemalloc.start()
    try:
        values = load_values(f, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (mesh.n_triangles, len(VOLUME_RULE.weights))
    assert np.isfinite(values).all()
    assert peak <= LOAD_VALUES_PEAK_BOUND


@pytest.fixture(scope="module")
def lshape3(lshape2):
    return uniform_refine(lshape2)


def jump_terms_on_every_edge(dofmap, coef, kinds, exact):
    """``analysis._jump_terms`` with the exact traces of every edge, which
    it uses on the boundary edges only: the reference for the traces of
    :class:`~vkfem.analysis.ExactFields`."""
    mesh, w = dofmap.mesh, analysis.EDGE_RULE.weights
    vj, gj = edge_jumps(dofmap.edge_basis, coef)
    vj = np.concatenate([vj, vj @ analysis._TO_ENDS], axis=1)
    dj = np.einsum("eqa,ea->eq", gj, mesh.edge_normal)
    bdry = mesh.edge_on_boundary[:, None]
    exact_dn = np.einsum("eqa,ea->eq", exact[1], mesh.edge_normal)
    vj = np.where(bdry, exact[0] - vj, vj)
    dj = np.where(bdry, exact_dn - dj, dj)
    vj, ends = np.split(vj, [len(w)], axis=1)
    h = mesh.edge_length
    out = []
    for kind in kinds:
        if kind == "h":
            out.append(float(((dj @ w)**2).sum()
                             + ((ends**2).sum(axis=1) / h**2).sum()))
        else:
            term = float((dj**2 @ w).sum())
            if kind == "dg":
                term += float(((vj**2 @ w) / h**2).sum())
            out.append(term)
    return out


@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_boundary_traces_give_the_jump_terms_of_every_edge_bit_for_bit(
        lshape2, method):
    mesh = lshape2
    dm = build_dofmap(mesh, method)
    coef = np.random.default_rng(41).standard_normal(dm.n_global)
    exact = exact_lshape()
    edge_pts = edge_points(dm.mesh, dm.edge_basis.tpoints)
    pts = np.concatenate([edge_pts, mesh.vertices[mesh.edges]], axis=1)
    every_edge = (exact.u(pts[..., 0], pts[..., 1]),
                  exact.u_grad(pts[..., 0], pts[..., 1])[:, :len(
                      analysis.EDGE_RULE.points)])
    fields = analysis.exact_fields(exact, mesh)
    np.testing.assert_array_equal(fields.traces[0][0],
                                  every_edge[0][mesh.edge_on_boundary])
    kinds = ["ip", "dg", "h"]
    assert analysis._jump_terms(dm, coef, kinds, fields.traces[0]) \
        == jump_terms_on_every_edge(dm, coef, kinds, every_edge)


@pytest.mark.parametrize("problem", ["square", "lshape"])
def test_moment_form_of_the_volume_error_matches_the_point_sum(
        problem, square3, lshape3):
    # sum_q w_q |D2 - H|^2 = spread + |mean - H|^2 rounds differently from
    # the sum over the rule points, within a few ulps of the sum
    mesh, exact = ((square3, exact_square()) if problem == "square"
                   else (lshape3, exact_lshape()))
    assert mesh.n_triangles * len(VOLUME_RULE.weights) > BLOCK_POINTS
    pts = rule_points(mesh)
    rng = np.random.default_rng(42)
    for method in ("morley", "c0ip", "dg"):
        dm = build_dofmap(mesh, method)
        psi = DiscreteSolution(dm, *rng.standard_normal((2, dm.n_global)))
        got = error_norm(psi, exact, "nc")[:2]
        for e, hess, coef in zip(got, (exact.u_hess, exact.v_hess),
                                 (psi.u, psi.v)):
            diff = hess(pts[..., 0], pts[..., 1]) \
                - element_hessians(dm.basis, coef)[:, None, :]
            want = np.sqrt(mesh.area @ (diff**2 @ np.array([1.0, 1.0, 2.0])
                                        @ VOLUME_RULE.weights))
            assert abs(e - want) <= 1e-14 * want


@pytest.mark.parametrize("problem", ["square", "lshape"])
def test_best_approx_term_is_the_unblocked_sum_bit_for_bit(
        problem, square3, lshape3):
    # several blocks of rule points give what one pass over all gave
    mesh, exact = ((square3, exact_square()) if problem == "square"
                   else (lshape3, exact_lshape()))
    assert mesh.n_triangles * len(VOLUME_RULE.weights) > BLOCK_POINTS
    w = VOLUME_RULE.weights
    pts = rule_points(mesh)
    total = 0.0
    for hess in (exact.u_hess, exact.v_hess):
        h = hess(pts[..., 0], pts[..., 1])
        dev = h - (w @ h)[:, None, :]
        total += float(mesh.area @ (dev**2 @ np.array([1.0, 1.0, 2.0]) @ w))
    assert best_approx_term(exact, mesh) == float(np.sqrt(total))
