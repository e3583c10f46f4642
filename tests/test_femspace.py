import numpy as np
import pytest

from vkfem import (build_dofmap, build_topology, edge_rule, morley_interpolate,
                   nodal_interpolate, uniform_refine)
from vkfem.adaptivity import AdaptiveConfig, adaptive_levels
from vkfem.femspace import (EDGE_POINTS, METHODS, REF_NODES, EdgeBasis,
                            ElementBasis, _nested_dissection,
                            element_hessians, p2_values)
from vkfem.problems import exact_square, lshape_problem
from vkfem.quadrature import triangle_rule


@pytest.mark.parametrize("method,expected", [("morley", 1), ("c0ip", 1),
                                             ("dg", 12)])
def test_dof_counts_two_triangles(two_tri, method, expected):
    assert build_dofmap(two_tri, method).n_global == expected


@pytest.mark.parametrize("mesh_name", ["two_tri", "skewed_triangle",
                                       "square2", "lshape_graded"])
def test_dg_numbering_is_a_deterministic_permutation_of_blocks(request,
                                                               mesh_name):
    # six consecutive dofs per triangle, triangles in nested-dissection
    # order; rebuilding the mesh from its arrays gives the same numbering
    mesh = request.getfixturevalue(mesh_name)
    dofs = build_dofmap(mesh, "dg").element_dofs
    nt = mesh.n_triangles
    assert np.array_equal(np.sort(dofs.ravel()), np.arange(6 * nt))
    assert np.all(dofs[:, 0] % 6 == 0)
    assert np.array_equal(dofs, dofs[:, :1] + np.arange(6))
    again = build_topology(mesh.vertices.copy(), mesh.triangles.copy())
    assert np.array_equal(build_dofmap(again, "dg").element_dofs, dofs)


def recursive_nested_dissection(mesh):
    """The recursive formulation of ``femspace._nested_dissection``: split a
    part at the median of its longer centroid extent, take the cut
    triangles of the half with fewer of them as separator, number lower
    half, upper half, separator; parts of at most 8 keep mesh order."""
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    label = np.zeros(mesh.n_triangles, dtype=np.int8)
    order = []

    def dissect(tris, pairs):
        if len(tris) <= 8:
            order.append(np.sort(tris))
            return
        pts = centroids[tris]
        axis = np.argmax(pts.max(axis=0) - pts.min(axis=0))
        tris = tris[np.argsort(pts[:, axis], kind="stable")]
        lower, upper = np.array_split(tris, [len(tris) // 2])
        label[lower], label[upper] = 0, 1
        side = label[pairs]
        cross = side[:, 0] != side[:, 1]
        sep = min((np.unique(pairs[cross][side[cross] == h]) for h in (0, 1)),
                  key=len)
        label[sep] = 2
        side = label[pairs]
        dissect(lower[label[lower] == 0], pairs[(side == 0).all(axis=1)])
        dissect(upper[label[upper] == 1], pairs[(side == 1).all(axis=1)])
        order.append(sep)

    dissect(np.arange(mesh.n_triangles),
            mesh.edge_tris[mesh.edge_tris[:, 1] >= 0])
    return np.concatenate(order)


@pytest.fixture(scope="module")
def lshape_adapted():
    """The mesh of the Morley-driven adaptive L-shape loop at level 13
    (264 triangles, graded towards the re-entrant corner)."""
    states = adaptive_levels(lshape_problem(), "morley",
                             AdaptiveConfig(max_levels=14))
    return list(states)[-1].mesh


def test_nested_dissection_is_the_recursive_order(square0, lshape_graded,
                                                  lshape_adapted):
    squares = [square0]  # levels 0-4
    for _ in range(4):
        squares.append(uniform_refine(squares[-1]))
    for mesh in squares + [lshape_graded, lshape_adapted]:
        assert np.array_equal(_nested_dissection(mesh),
                              recursive_nested_dissection(mesh))


@pytest.mark.parametrize("method,expected", [("morley", 9), ("c0ip", 9),
                                             ("dg", 48)])
def test_dof_counts_refined_two_triangles(two_tri, method, expected):
    mesh = uniform_refine(two_tri)
    assert build_dofmap(mesh, method).n_global == expected


def test_dof_counts_lshape(lshape0):
    # no interior vertices (the reentrant corner is a boundary vertex),
    # five interior edges
    assert build_dofmap(lshape0, "morley").n_global == 5
    assert build_dofmap(lshape0, "c0ip").n_global == 5
    assert build_dofmap(lshape0, "dg").n_global == 36


def test_dof_numbering_deterministic(square1):
    dm = build_dofmap(square1, "morley")
    nvi = int((~square1.vertex_on_boundary).sum())
    assert (dm.vertex_dof[dm.vertex_dof >= 0] == np.arange(nvi)).all()
    edofs = dm.edge_dof[dm.edge_dof >= 0]
    assert (edofs == nvi + np.arange(len(edofs))).all()


def test_unknown_method(two_tri):
    with pytest.raises(ValueError):
        build_dofmap(two_tri, "p3")


def test_lagrange_kronecker_and_partition_of_unity():
    vals = p2_values(REF_NODES)
    assert np.abs(vals - np.eye(6)).max() < 1e-14
    rng = np.random.default_rng(3)
    pts = rng.random((40, 2)) * 0.5
    assert np.abs(p2_values(pts).sum(axis=-1) - 1.0).max() < 1e-14


def test_basis_vertex_values(two_tri):
    dm = build_dofmap(two_tri, "dg")
    vals = dm.basis.values(REF_NODES[:3])[0]
    grads = dm.basis.gradients(REF_NODES[:3])[0]
    hess = dm.basis.hessians[0]
    assert np.abs(vals - np.eye(6)[:3]).max() < 1e-14
    assert grads.shape == (3, 6, 2)
    assert hess.shape == (6, 3)


def test_dofmap_bases_are_cached_and_read_only(square1):
    for method in METHODS:
        dm = build_dofmap(square1, method)
        basis, eb = dm.basis, dm.edge_basis
        assert dm.basis is basis and dm.edge_basis is eb
        assert eb.points.shape == (square1.n_edges, len(EDGE_POINTS), 2)
        arrays = [EDGE_POINTS, basis.p0, basis.jac, basis.jac_inv,
                  basis.area, basis.hessians, basis.int_phi, eb.points,
                  *eb.values, *eb.gradients, *eb.hessians, *eb.dofs]
        if basis.transform is not None:
            arrays.append(basis.transform)
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] = 0
        with pytest.raises(AttributeError):
            dm.basis = basis
        with pytest.raises(AttributeError):
            dm.edge_basis = eb


def test_dofmap_with_bases_is_freed_by_reference_counting(square1):
    # the bases hold no reference to their dof map: a cycle would keep every
    # level's dof map, bases and mesh alive until a full collection
    import gc
    import weakref
    for method in METHODS:
        dm = build_dofmap(square1, method)
        dm.edge_basis
        ref = weakref.ref(dm)
        gc.disable()
        try:
            del dm
            assert ref() is None
        finally:
            gc.enable()


def random_triangle_mesh(seed):
    from vkfem import build_topology
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.uniform(-1.0, 1.0, (3, 2))
        d1, d2 = pts[1] - pts[0], pts[2] - pts[0]
        area2 = d1[0] * d2[1] - d1[1] * d2[0]
        if area2 < 0:
            pts = pts[[0, 2, 1]]
            area2 = -area2
        lengths = [np.hypot(*(pts[(k + 1) % 3] - pts[(k + 2) % 3]))
                   for k in range(3)]
        if area2 > 0.3 * max(lengths)**2:  # keep the shape regular
            return build_topology(pts, [(0, 1, 2)])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_morley_biorthogonality_random_triangles(seed):
    mesh = random_triangle_mesh(seed)
    dm = build_dofmap(mesh, "morley")
    basis = ElementBasis(dm)
    rule = edge_rule(8)
    eb = EdgeBasis(basis, rule.points)
    pairing = np.zeros((6, 6))
    pairing[:3, :] = basis.values(np.array([[0.0, 0.0], [1.0, 0.0],
                                            [0.0, 1.0]]))[0]
    for k in range(3):
        e = mesh.tri_edges[0, k]
        dn = np.einsum("qja,a->qj", eb.gradients[0][e], mesh.edge_normal[e])
        pairing[3 + k] = rule.weights @ dn
    assert np.abs(pairing - np.eye(6)).max() < 1e-12


def test_morley_biorthogonality(skewed_triangle):
    # dual pairing of the six Morley shapes with their functionals is the
    # identity: point values at the vertices, mean normal derivatives on the
    # edges (computed with an independent quadrature)
    mesh = skewed_triangle
    dm = build_dofmap(mesh, "morley")
    basis = ElementBasis(dm)
    rule = edge_rule(8)
    eb = EdgeBasis(basis, rule.points)
    pairing = np.zeros((6, 6))
    pairing[:3, :] = basis.values(np.array([[0.0, 0.0], [1.0, 0.0],
                                            [0.0, 1.0]]))[0]
    for k in range(3):
        e = mesh.tri_edges[0, k]
        dn = np.einsum("qja,a->qj", eb.gradients[0][e], mesh.edge_normal[e])
        pairing[3 + k] = rule.weights @ dn
    assert np.abs(pairing - np.eye(6)).max() < 1e-12


def test_morley_shapes_have_constant_hessians(skewed_triangle):
    dm = build_dofmap(skewed_triangle, "morley")
    basis = ElementBasis(dm)
    rng = np.random.default_rng(7)
    pts = rng.random((5, 2)) * 0.4
    grads = basis.gradients(pts)[0]  # (5, 6, 2)
    # gradients of quadratics are affine; check Hessian via differences of
    # gradients matches the stored constant Hessian
    p0, p1 = pts[0], pts[1]
    jac = basis.jac[0]
    dphys = jac @ (p1 - p0)
    dg = grads[1] - grads[0]
    hess = basis.hessians[0]
    predicted = np.stack([hess[:, 0] * dphys[0] + hess[:, 2] * dphys[1],
                          hess[:, 2] * dphys[0] + hess[:, 1] * dphys[1]],
                         axis=-1)
    assert np.abs(dg - predicted).max() < 1e-11


def test_morley_interpolate_zero_function(square1):
    dm = build_dofmap(square1, "morley")
    coef = morley_interpolate(lambda x, y: np.zeros_like(x),
                              lambda x, y: np.zeros(x.shape + (2,)), dm)
    assert np.abs(coef).max() == 0.0


def test_morley_interpolate_dof_data(square1):
    # vertex dofs carry point values, edge dofs the mean normal derivative
    ex = exact_square()
    dm = build_dofmap(square1, "morley")
    coef = morley_interpolate(ex.u, ex.u_grad, dm)
    free_v = np.where(dm.vertex_dof >= 0)[0]
    xv = square1.vertices[free_v]
    assert np.abs(coef[dm.vertex_dof[free_v]] - ex.u(xv[:, 0], xv[:, 1])).max() < 1e-14
    rule = edge_rule(10)
    free_e = np.where(dm.edge_dof >= 0)[0]
    a = square1.vertices[square1.edges[free_e, 0]]
    b = square1.vertices[square1.edges[free_e, 1]]
    pts = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
    means = np.einsum("q,eqa,ea->e", rule.weights,
                      ex.u_grad(pts[..., 0], pts[..., 1]),
                      square1.edge_normal[free_e])
    assert np.abs(coef[dm.edge_dof[free_e]] - means).max() < 1e-14


def test_morley_element_reproduction(skewed_triangle):
    # applying the dual functionals to a field recovers its coefficients,
    # so the element reproduces any P2 function given its dof data
    mesh = skewed_triangle
    dm = build_dofmap(mesh, "morley")
    basis = ElementBasis(dm)
    rng = np.random.default_rng(11)
    coef = rng.standard_normal(6)
    rule = edge_rule(8)
    eb = EdgeBasis(basis, rule.points)
    recovered = np.empty(6)
    vals = basis.values(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))[0]
    recovered[:3] = vals @ coef
    for k in range(3):
        e = mesh.tri_edges[0, k]
        dn = np.einsum("qja,a->qj", eb.gradients[0][e], mesh.edge_normal[e])
        recovered[3 + k] = rule.weights @ (dn @ coef)
    assert np.abs(recovered - coef).max() < 1e-12


def test_morley_interpolant_hessian_projection(square2):
    # the piecewise Hessian of the interpolant equals the element means of
    # the exact Hessian (clamped data, so boundary constraints agree)
    ex = exact_square()
    dm = build_dofmap(square2, "morley")
    coef = morley_interpolate(ex.u, ex.u_grad, dm)
    basis = ElementBasis(dm)
    hess = element_hessians(basis, coef)
    rule = triangle_rule(8)
    pts = basis.physical_points(rule.points[:, 1:])
    mean = np.einsum("q,tqc->tc", rule.weights,
                     ex.u_hess(pts[..., 0], pts[..., 1]))
    rel = np.abs(hess - mean).max() / np.abs(mean).max()
    assert rel < 1e-8


def test_morley_interpolant_edge_mean_conforming(square1):
    # jump of the edge mean of the normal derivative vanishes by construction
    ex = exact_square()
    dm = build_dofmap(square1, "morley")
    coef = morley_interpolate(ex.u, ex.u_grad, dm)
    basis = ElementBasis(dm)
    rule = edge_rule(6)
    eb = EdgeBasis(basis, rule.points)
    means = []
    for side in (0, 1):
        dofs = eb.dofs[side]
        local = np.where(dofs >= 0, coef[np.where(dofs >= 0, dofs, 0)], 0.0)
        dn = np.einsum("eqja,ea,ej->eq", eb.gradients[side],
                       square1.edge_normal, local)
        means.append(np.einsum("q,eq->e", rule.weights, dn))
    interior = ~square1.edge_on_boundary
    assert np.abs(means[0][interior] - means[1][interior]).max() < 1e-12


def test_nodal_interpolate_reproduces_quadratic(square1):
    q = lambda x, y: 1.0 + x - 2.0 * y + x * y + x**2
    dm = build_dofmap(square1, "dg")
    coef = nodal_interpolate(q, dm)
    basis = ElementBasis(dm)
    rng = np.random.default_rng(5)
    pts = rng.random((4, 2)) * 0.4
    vals = np.einsum("tqj,tj->tq", basis.values(pts), coef[dm.element_dofs])
    phys = basis.physical_points(pts)
    assert np.abs(vals - q(phys[..., 0], phys[..., 1])).max() < 1e-12


def test_nodal_interpolate_rejects_morley(square1):
    dm = build_dofmap(square1, "morley")
    with pytest.raises(ValueError):
        nodal_interpolate(lambda x, y: x, dm)
    dmc = build_dofmap(square1, "c0ip")
    with pytest.raises(ValueError):
        morley_interpolate(lambda x, y: x, lambda x, y: np.zeros(x.shape + (2,)),
                           dmc)
