import numpy as np
import pytest
import scipy.sparse as sp

from vkfem import (DiscreteSolution, PenaltyConfig, assemble_biharmonic,
                   assemble_load,
                   assemble_trilinear_jacobian, assemble_trilinear_vector,
                   bracket_elements, build_dofmap, build_topology, edge_rule,
                   integrate_edge, is_spd, nodal_interpolate,
                   to_dg_coefficients, triangle_rule, uniform_refine)
from vkfem.femspace import EdgeBasis, ElementBasis
from vkfem.analysis import discrete_norm


def fd_hessian_quadratic(basis, tri, pts, coef, h=1e-5):
    """Second differences of a P2 field; exact up to roundoff."""
    def value(ref):
        vals = basis.values(np.atleast_2d(ref))[tri]
        return vals @ coef

    jac_inv = basis.jac_inv[tri]
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
        vj = vj + sign * np.einsum("eqj,ej->eq", eb.values[side], loc)
        dj = dj + sign * np.einsum("eqja,ea,ej->eq", eb.gradients[side],
                                    mesh.edge_normal, loc)
    h = mesh.edge_length
    pen = sigma * float((np.einsum("q,eq->e", rule.weights, vj**2) / h**2).sum())
    pen += sigma * float(np.einsum("q,eq->e", rule.weights, dj**2).sum())
    assert quad_form == pytest.approx(nc2 + pen, rel=1e-12)


def test_bracket_of_x2_plus_y2(square1):
    dm = build_dofmap(square1, "dg")
    coef = nodal_interpolate(lambda x, y: x**2 + y**2, dm)
    br = bracket_elements(dm, coef, coef)
    assert np.abs(br - 8.0).max() < 1e-10
    assert float(br[3]) == pytest.approx(8.0)


def test_bracket_symmetry_and_affine(square1):
    dm = build_dofmap(square1, "dg")
    rng = np.random.default_rng(4)
    a = rng.standard_normal(dm.n_global)
    b = rng.standard_normal(dm.n_global)
    assert np.allclose(bracket_elements(dm, a, b), bracket_elements(dm, b, a),
                       atol=1e-13)
    affine = nodal_interpolate(lambda x, y: 3.0 - 2.0 * x + y, dm)
    assert np.abs(bracket_elements(dm, affine, a)).max() < 1e-10


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
    mesh = build_topology([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
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
