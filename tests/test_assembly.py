import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from vkfem import (METHODS, AdaptiveConfig, DiscreteSolution, PenaltyConfig,
                   Triangulation, assemble_biharmonic, assemble_load,
                   assemble_trilinear_jacobian, assemble_trilinear_vector,
                   build_dofmap, edge_rule, load_values, method_levels,
                   triangle_rule, two_triangle_square, uniform_refine,
                   unit_square_mesh)
from vkfem import assembly
from vkfem.femspace import (DofMap, EdgeBasis, ElementBasis, bracket,
                            element_hessians)
from vkfem.analysis import discrete_norm
from vkfem.problems import exact_square, lshape_problem
from vkfem.solver import NewtonSystem

from oracles import (integrate_edge, is_spd, nodal_interpolate,
                     to_dg_coefficients)


def fd_hessian_quadratic(basis, tri, pts, coef, h=1e-5):
    """Second differences of a P2 field; exact up to roundoff."""
    def value(ref):
        vals = basis.values(np.atleast_2d(ref))[tri]
        return vals @ coef

    jac_inv = basis.mesh.jac_inv[tri]
    ex = jac_inv @ np.array([h, 0.0])
    ey = jac_inv @ np.array([0.0, h])
    out = []
    for p in np.atleast_2d(pts):
        vxx = (value(p + 2 * ex) - 2 * value(p + ex) + value(p)) / h**2
        vyy = (value(p + 2 * ey) - 2 * value(p + ey) + value(p)) / h**2
        vxy = (value(p + ex + ey) - value(p + ex) - value(p + ey)
               + value(p)) / h**2
        out.append([vxx[0], vyy[0], vxy[0]])
    return np.array(out)


def test_symmetry_all_methods(square1):
    for method in ("morley", "c0ip", "dg"):
        dm = build_dofmap(square1, method)
        a = assemble_biharmonic(dm)
        asym = abs(a - a.T).max()
        assert asym <= 1e-10 * abs(a).max()


def test_morley_two_triangle_matrix_against_quadrature(two_tri):
    # single dof: entry is sum_K int |D2(phi)|^2 for the one Morley shape;
    # cross-check with a dense quadrature using finite-difference Hessians
    dm = build_dofmap(two_tri, "morley")
    a = assemble_biharmonic(dm)
    assert a.shape == (1, 1)
    basis = ElementBasis(dm)
    rule = triangle_rule(2)
    total = 0.0
    coef_local = np.zeros(6)
    for t in range(2):
        local = dm.element_dofs[t]
        coef_local[:] = np.where(local == 0, 1.0, 0.0)
        hess = fd_hessian_quadratic(basis, t, rule.points[:, 1:], coef_local)
        dens = hess[:, 0]**2 + hess[:, 1]**2 + 2 * hess[:, 2]**2
        total += two_tri.area[t] * float(rule.weights @ dens)
    assert a[0, 0] == pytest.approx(total, rel=1e-7)


def test_ip_dg_spd_at_default_penalty(square1):
    for method in ("c0ip", "dg"):
        dm = build_dofmap(square1, method)
        assert is_spd(assemble_biharmonic(dm))


def test_morley_matrix_spd(square1, lshape0):
    # boundary constraints remove the kernel of the broken Hessian form
    for mesh in (square1, lshape0):
        dm = build_dofmap(mesh, "morley")
        assert is_spd(assemble_biharmonic(dm))


def test_dg_interior_jumps_vanish_for_global_quadratic(square1):
    # the coefficient vector of x^2 has no interior jumps, so the quadratic
    # form is int |D2 x^2|^2 = 4|Omega| plus boundary-trace terms computed
    # here by an independent edge-wise oracle
    dm = build_dofmap(square1, "dg")
    mesh = square1
    a = assemble_biharmonic(dm)
    coef = nodal_interpolate(lambda x, y: x**2, dm)
    value = float(coef @ (a @ coef))

    sigma = 20.0
    rule = edge_rule(5)
    boundary = 0.0
    hess_nu_dot = lambda nu: np.array([2.0 * nu[0], 0.0])  # D2(x^2) nu
    for e in np.where(mesh.edge_on_boundary)[0]:
        va, vb = mesh.vertices[mesh.edges[e]]
        h = mesh.edge_length[e]
        nu = mesh.edge_normal[e]
        grad = lambda x, y: np.stack([2.0 * x, np.zeros_like(x)], axis=-1)
        # consistency: -2 int <D2 q nu> . [grad q] with trace convention
        cons = -2.0 * integrate_edge(
            rule, lambda x, y: grad(x, y) @ hess_nu_dot(nu), va, vb)
        pen_grad = (sigma / h) * integrate_edge(
            rule, lambda x, y: (grad(x, y) @ nu)**2, va, vb)
        pen_val = (sigma / h**3) * integrate_edge(
            rule, lambda x, y: (x**2)**2, va, vb)
        boundary += cons + pen_grad + pen_val
    assert value == pytest.approx(4.0 * 1.0 + boundary, rel=1e-12)


def test_dg_on_morley_field_is_nc_plus_penalties(square1):
    # interior consistency terms vanish on Morley fields (zero edge means of
    # the full gradient jump), leaving the broken Hessian part plus the
    # penalty terms
    mesh = square1
    dm_m = build_dofmap(mesh, "morley")
    rng = np.random.default_rng(2)
    coef_m = rng.standard_normal(dm_m.n_global)

    # embed into the discontinuous space by evaluating at the Lagrange nodes
    dm_dg = build_dofmap(mesh, "dg")
    coef_dg = to_dg_coefficients(dm_m, coef_m)
    a_dg = assemble_biharmonic(dm_dg)
    quad_form = float(coef_dg @ (a_dg @ coef_dg))

    nc2 = discrete_norm(dm_m, coef_m, "nc")**2
    sigma = 20.0
    rule = edge_rule(5)
    eb = EdgeBasis(ElementBasis(dm_dg), rule.points)
    cd = coef_dg
    vj = dj = 0.0
    for side, sign in ((0, 1.0), (1, -1.0)):
        dofs = eb.dofs[side]
        loc = np.where(dofs >= 0, cd[np.where(dofs >= 0, dofs, 0)], 0.0)
        values, gradients = eb.traces(side)
        vj = vj + sign * np.einsum("eqj,ej->eq", values, loc)
        dj = dj + sign * np.einsum("eqja,ea,ej->eq", gradients,
                                    mesh.edge_normal, loc)
    h = mesh.edge_length
    pen = sigma * float((np.einsum("q,eq->e", rule.weights, vj**2) / h**2).sum())
    pen += sigma * float(np.einsum("q,eq->e", rule.weights, dj**2).sum())
    assert quad_form == pytest.approx(nc2 + pen, rel=1e-12)


def test_bracket_of_x2_plus_y2(square1):
    dm = build_dofmap(square1, "dg")
    coef = nodal_interpolate(lambda x, y: x**2 + y**2, dm)
    hess = element_hessians(dm.basis, coef)
    br = bracket(hess, hess)
    assert np.abs(br - 8.0).max() < 1e-10
    assert float(br[3]) == pytest.approx(8.0)


def test_bracket_symmetry_and_affine(square1):
    dm = build_dofmap(square1, "dg")
    rng = np.random.default_rng(4)
    a = rng.standard_normal(dm.n_global)
    b = rng.standard_normal(dm.n_global)
    ha, hb = element_hessians(dm.basis, a), element_hessians(dm.basis, b)
    assert np.allclose(bracket(ha, hb), bracket(hb, ha), atol=1e-13)
    affine = nodal_interpolate(lambda x, y: 3.0 - 2.0 * x + y, dm)
    h_affine = element_hessians(dm.basis, affine)
    assert np.abs(bracket(h_affine, ha)).max() < 1e-10


def test_trilinear_vector_symmetric_in_first_two(square1):
    dm = build_dofmap(square1, "morley")
    rng = np.random.default_rng(5)
    xi = DiscreteSolution(dm, rng.standard_normal(dm.n_global),
                          rng.standard_normal(dm.n_global))
    th = DiscreteSolution(dm, rng.standard_normal(dm.n_global),
                          rng.standard_normal(dm.n_global))
    b1 = assemble_trilinear_vector(xi, th)
    b2 = assemble_trilinear_vector(th, xi)
    assert np.abs(b1 - b2).max() < 1e-13 * max(1.0, np.abs(b1).max())


@pytest.mark.parametrize("same, calls", [(True, 2), (False, 4)])
def test_trilinear_vector_takes_each_operands_hessians_once(square1,
                                                            monkeypatch,
                                                            same, calls):
    dm = build_dofmap(square1, "c0ip")
    rng = np.random.default_rng(8)
    xi = DiscreteSolution(dm, *rng.standard_normal((2, dm.n_global)))
    th = xi if same else DiscreteSolution(
        dm, *rng.standard_normal((2, dm.n_global)))
    want = assemble_trilinear_vector(xi, th)
    real = assembly.element_hessians
    made = []

    def counting(basis, coef):
        made.append(1)
        return real(basis, coef)
    monkeypatch.setattr(assembly, "element_hessians", counting)
    np.testing.assert_array_equal(assemble_trilinear_vector(xi, th), want)
    assert len(made) == calls


def test_trilinear_vector_affine_gives_zero(square1):
    dm = build_dofmap(square1, "dg")
    affine = nodal_interpolate(lambda x, y: 1.0 + x - y, dm)
    xi = DiscreteSolution(dm, affine, 2.0 * affine)
    rng = np.random.default_rng(6)
    th = DiscreteSolution(dm, rng.standard_normal(dm.n_global),
                          rng.standard_normal(dm.n_global))
    assert np.abs(assemble_trilinear_vector(xi, th)).max() < 1e-10


def test_cubic_form_single_triangle_against_quadrature(skewed_triangle):
    # b(eta, chi, phi_i) = -(1/2) [eta, chi] int_K phi_i with the bracket
    # constant; dense quadrature of the integrand is the oracle
    mesh = skewed_triangle
    dm = build_dofmap(mesh, "dg")
    rng = np.random.default_rng(7)
    eta = rng.standard_normal(6)
    chi = rng.standard_normal(6)
    xi = DiscreteSolution(dm, eta, np.zeros(6))
    th = DiscreteSolution(dm, np.zeros(6), chi)
    vec = assemble_trilinear_vector(xi, th)  # block 1: b(eta, chi, phi_i)

    basis = ElementBasis(dm)
    rule = triangle_rule(4)
    ref = rule.points[:, 1:]
    hess_eta = fd_hessian_quadratic(basis, 0, ref, eta)
    hess_chi = fd_hessian_quadratic(basis, 0, ref, chi)
    br = (hess_eta[:, 0] * hess_chi[:, 1] + hess_eta[:, 1] * hess_chi[:, 0]
          - 2.0 * hess_eta[:, 2] * hess_chi[:, 2])
    phi = basis.values(ref)[0]
    oracle = -0.5 * mesh.area[0] * np.einsum("q,q,qi->i", rule.weights, br, phi)
    assert np.abs(vec[:6] - oracle).max() < 1e-6 * max(1.0, np.abs(oracle).max())


def test_trilinear_jacobian_zero_state(square1):
    dm = build_dofmap(square1, "c0ip")
    zero = DiscreteSolution(dm, np.zeros(dm.n_global), np.zeros(dm.n_global))
    j = assemble_trilinear_jacobian(zero)
    assert abs(j).max() == 0.0


def test_trilinear_jacobian_matches_central_difference(square1):
    # the map is quadratic, so the central difference of the cubic part is
    # exactly its derivative
    dm = build_dofmap(square1, "morley")
    n = dm.n_global
    rng = np.random.default_rng(8)
    psi = DiscreteSolution(dm, rng.standard_normal(n), rng.standard_normal(n))
    theta = rng.standard_normal(2 * n)
    eps = 1e-3
    plus = DiscreteSolution(dm, psi.u + eps * theta[:n],
                            psi.v + eps * theta[n:])
    minus = DiscreteSolution(dm, psi.u - eps * theta[:n],
                             psi.v - eps * theta[n:])
    fd = (assemble_trilinear_vector(plus, plus)
          - assemble_trilinear_vector(minus, minus)) / (2.0 * eps)
    jac = assemble_trilinear_jacobian(psi)
    applied = jac @ theta
    scale = max(1.0, np.abs(applied).max())
    assert np.abs(fd - applied).max() < 1e-9 * scale


def test_trilinear_jacobian_block_structure(square1):
    dm = build_dofmap(square1, "dg")
    n = dm.n_global
    rng = np.random.default_rng(9)
    psi = DiscreteSolution(dm, rng.standard_normal(n), rng.standard_normal(n))
    j = assemble_trilinear_jacobian(psi).toarray()
    # (2,2) block empty; (2,1) block is the negative of (1,2)
    assert np.abs(j[n:, n:]).max() == 0.0
    assert np.abs(j[n:, :n] + j[:n, n:]).max() < 1e-14


def test_load_constant_on_reference_triangle():
    mesh = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    dm = build_dofmap(mesh, "dg")
    load = assemble_load(lambda x, y: np.ones_like(x),
                         lambda x, y: np.zeros_like(x), dm)
    # vertex shapes integrate to zero, midpoint shapes to area/3 = 1/6
    assert np.abs(load[:3]).max() < 1e-15
    assert np.abs(load[3:6] - 1.0 / 6.0).max() < 1e-14
    assert np.abs(load[6:]).max() == 0.0


def test_load_zero_and_linearity(square1):
    dm = build_dofmap(square1, "c0ip")
    zero = assemble_load(lambda x, y: np.zeros_like(x),
                         lambda x, y: np.zeros_like(x), dm)
    assert np.abs(zero).max() == 0.0
    f1 = lambda x, y: np.sin(x + y)
    f2 = lambda x, y: x * y**2
    g = lambda x, y: np.cos(x)
    la = assemble_load(lambda x, y: 2.0 * f1(x, y) + 3.0 * f2(x, y), g, dm)
    lb = (2.0 * assemble_load(f1, g, dm) + 3.0 * assemble_load(f2, g, dm))
    # the g block was added three plus two times in lb, fix the comparison
    n = dm.n_global
    assert np.abs(la[:n] - lb[:n]).max() < 1e-13 * max(1.0, np.abs(la).max())


@pytest.mark.parametrize("method", ["c0ip", "dg"])
def test_lagrange_load_copies_no_shape_table_per_triangle(square3, method):
    # a Lagrange frame's shape values are the reference table broadcast to
    # every triangle, read-only: the load's tracemalloc peak stays within
    # twice the bytes of one array of load values (a copy of the table per
    # triangle took 7.3 to 7.5 times them on these 2,048 triangles)
    mesh = uniform_refine(square3)
    dm = build_dofmap(mesh, method)
    dm.basis  # the level's, not the load's
    ex = exact_square()
    f, g = load_values(ex.f, mesh), load_values(ex.g, mesh)
    assert not dm.basis.values(np.zeros((1, 2))).flags.writeable
    tracemalloc.start()
    try:
        assemble_load(f, g, dm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * f.nbytes


def test_trilinear_boundedness_constant(square1):
    # B(xi, theta, phi) <= C prod ||.||_dg with a stable modest constant
    dm = build_dofmap(square1, "dg")
    n = dm.n_global
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        xi = DiscreteSolution(dm, rng.standard_normal(n),
                              rng.standard_normal(n))
        th = DiscreteSolution(dm, rng.standard_normal(n),
                              rng.standard_normal(n))
        phi = rng.standard_normal(2 * n)
        val = abs(float(assemble_trilinear_vector(xi, th) @ phi))
        norms = 1.0
        for pair in (xi, th):
            norms *= np.hypot(discrete_norm(dm, pair.u, "dg"),
                              discrete_norm(dm, pair.v, "dg"))
        norms *= np.hypot(discrete_norm(dm, phi[:n], "dg"),
                          discrete_norm(dm, phi[n:], "dg"))
        worst = max(worst, val / norms)
    assert worst <= 10.0


def test_penalty_validation():
    with pytest.raises(ValueError):
        PenaltyConfig(sigma_ip=0.0)
    with pytest.raises(ValueError):
        PenaltyConfig(sigma_dg=-1.0)
    with pytest.raises(ValueError):
        PenaltyConfig(sigma_ip=float("nan"))
    with pytest.raises(ValueError):
        PenaltyConfig(sigma_dg=float("inf"))


def test_solution_length_validation(square1):
    dm = build_dofmap(square1, "morley")
    with pytest.raises(ValueError):
        DiscreteSolution(dm, np.zeros(3), np.zeros(dm.n_global))


@pytest.mark.parametrize("method", METHODS)
def test_one_dofmap_builds_one_stiffness_structure(square2, monkeypatch,
                                                   method):
    # NewtonSystem takes the element slots of K from the structure its
    # assembly of K built, and the coupling's Jacobian reuses that structure:
    # one sorted structure of the element blocks (and, for c0ip, the edge
    # blocks) or, for dg, one from its triangle graph
    calls = []

    def counting(name, real):
        def counted(*args):
            # _structure's second argument is its list of blocks
            calls.append((name, *map(len, args[1:])))
            return real(*args)
        return counted
    for name in ("_structure", "_patch_structure"):
        monkeypatch.setattr(assembly, name,
                            counting(name, getattr(assembly, name)))
    dm = build_dofmap(square2, method)
    ex = exact_square()
    system = NewtonSystem(dm, (ex.f, ex.g))
    rng = np.random.default_rng(18)
    n = dm.n_global
    psi = DiscreteSolution(dm, rng.standard_normal(n), rng.standard_normal(n))
    step = system.step_matrix(psi)
    jac = assemble_trilinear_jacobian(psi)
    assert calls == {"morley": [("_structure", 1)],
                     "c0ip": [("_structure", 3)],
                     "dg": [("_patch_structure",)]}[method]
    k = system.stiffness
    scale = abs(step.a).max()
    assert abs(step.a - k - jac[:n, :n]).max() <= 1e-14 * scale
    assert abs(step.m_u - jac[:n, n:]).max() <= 1e-14 * scale


def dg_test_meshes():
    """The two-triangle square, uniform square levels 0-4, and the L-shape
    with eight levels refined from it by newest-vertex bisection where the
    dg estimator marks."""
    meshes = [two_triangle_square()]
    mesh = unit_square_mesh()
    for _ in range(5):
        meshes.append(mesh)
        mesh = uniform_refine(mesh)
    return meshes + [state.mesh for state in method_levels(
        lshape_problem(), ["dg"], AdaptiveConfig(max_levels=9),
        marked_by="dg")]


def test_dg_patch_structure_is_the_sorted_structure_bit_for_bit():
    # the triangle graph's structure is the one _structure sorts out of the
    # element and edge blocks: the same indptr, indices and slots, in dtype
    # too, so the dg matrices are bit for bit those of the sorted structure
    for mesh in dg_test_meshes():
        dm = build_dofmap(mesh, "dg")
        side0, side1 = dm.edge_basis.dofs
        dofs = dm.element_dofs
        sorted_ = assembly._structure(dm.n_global, [
            (dofs, dofs), (side0, side1), (side1, side0)])
        patch = assembly._patch_structure(dm)
        for got, want in zip(patch[:2] + tuple(patch[2]),
                             sorted_[:2] + tuple(sorted_[2])):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), mesh.n_triangles


def test_a_dg_dofmap_numbered_otherwise_raises(square2):
    # the triangle graph gives the structure, and NATURAL the column order,
    # only of six consecutive dofs per triangle, one triangle per rank
    dm = build_dofmap(square2, "dg")
    n, rng = dm.n_global, np.random.default_rng(5)
    ranks = rng.permutation(square2.n_triangles)
    DofMap(square2, "dg", n, 6 * ranks[:, None] + np.arange(6))
    shared = ranks.copy()
    shared[1] = shared[0]
    for dofs in (rng.permutation(n)[dm.element_dofs],
                 dm.element_dofs[:, ::-1],
                 6 * shared[:, None] + np.arange(6)):
        with pytest.raises(ValueError, match="a dg dof map numbers"):
            DofMap(square2, "dg", n, dofs)
    with pytest.raises(ValueError, match="a dg dof map numbers"):
        DofMap(square2, "dg", n + 6, dm.element_dofs)


#: tracemalloc peak of the dg assembly below, 5.63 MiB when the structure
#: went through np.unique after the edge matrices were made (measured),
#: rounded down; 3.13 MiB with the structure sorted first and the edge
#: arrays freed before the element matrices are summed
DG_ASSEMBLY_PEAK_BOUND = 5.6 * 2**20


def test_dg_stiffness_assembly_stays_within_its_memory_peak(square3):
    dm = build_dofmap(square3, "dg")
    dm.basis, dm.edge_basis  # the level's, not the assembly's
    tracemalloc.start()
    try:
        assemble_biharmonic(dm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= DG_ASSEMBLY_PEAK_BOUND
