import numpy as np
import pytest

from vkfem import (build_dofmap, build_topology, edge_rule, morley_interpolate,
                   nodal_interpolate, uniform_refine)
from vkfem.femspace import (EDGE_RULE, METHODS, REF_NODES, EdgeBasis,
                            ElementBasis, element_hessians, p2_values)
from vkfem.problems import exact_square
from vkfem.quadrature import triangle_rule


@pytest.mark.parametrize("method,expected", [("morley", 1), ("c0ip", 1),
                                             ("dg", 12)])
def test_dof_counts_two_triangles(two_tri, method, expected):
    assert build_dofmap(two_tri, method).n_global == expected


@pytest.mark.parametrize("mesh_name", ["two_tri", "skewed_triangle",
                                       "square2", "lshape_graded"])
def test_dg_numbering_is_a_deterministic_permutation_of_blocks(request,
                                                               mesh_name):
    # six consecutive dofs per triangle, triangles in the minimum-degree
    # order of their edge adjacency; rebuilding the mesh from its arrays
    # gives the same numbering
    mesh = request.getfixturevalue(mesh_name)
    dofs = build_dofmap(mesh, "dg").element_dofs
    nt = mesh.n_triangles
    assert np.array_equal(np.sort(dofs.ravel()), np.arange(6 * nt))
    assert np.all(dofs[:, 0] % 6 == 0)
    assert np.array_equal(dofs, dofs[:, :1] + np.arange(6))
    again = build_topology(mesh.vertices.copy(), mesh.triangles.copy())
    assert np.array_equal(build_dofmap(again, "dg").element_dofs, dofs)


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
    # the bases hold what their method adds; the geometry is the mesh's
    for method in METHODS:
        dm = build_dofmap(square1, method)
        basis, eb = dm.basis, dm.edge_basis
        assert dm.basis is basis and dm.edge_basis is eb
        assert eb.points.shape == (square1.n_edges, len(EDGE_RULE.points), 2)
        assert all(d.shape == (square1.n_edges, 6) for d in eb.dofs)
        for name in ("p0", "jac", "jac_inv", "area"):
            assert not hasattr(basis, name)
        arrays = [basis.hessians, basis.int_phi, eb.tpoints, eb._values,
                  eb._gradients]
        if basis.transform is not None:
            arrays.append(basis.transform)
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] = 0
        with pytest.raises(AttributeError):
            dm.basis = basis
        with pytest.raises(AttributeError):
            dm.edge_basis = eb


def test_edge_frame_holds_no_per_point_arrays(lshape1):
    # the triangle, local edge and run of each side of an edge are the
    # mesh's, and the dofs are gathered where they are read: the frame keeps
    # no array per edge, only the shapes at the points, which are two tables
    # of the reference triangle, whatever the mesh
    nq = len(EDGE_RULE.points)
    for method in METHODS:
        eb = build_dofmap(lshape1, method).edge_basis
        assert not hasattr(eb, "hessians")
        assert not any(isinstance(v, tuple) for v in vars(eb).values())
        arrays = [a for a in vars(eb).values() if isinstance(a, np.ndarray)]
        assert len(arrays) == 3
        assert not any(lshape1.n_edges in a.shape for a in arrays)
        assert sum(a.nbytes for a in arrays) == 8 * nq * (1 + 6 * 6 * 3)


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
        dn = np.einsum("qja,a->qj", eb.traces(0)[1][e], mesh.edge_normal[e])
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
        dn = np.einsum("qja,a->qj", eb.traces(0)[1][e], mesh.edge_normal[e])
        pairing[3 + k] = rule.weights @ dn
    assert np.abs(pairing - np.eye(6)).max() < 1e-12


def test_morley_transform_inverts_the_dual_pairing(lshape_graded):
    # the transform from the 3 x 3 block of edge functionals on edge shapes
    # against the inverse of the whole pairing: vertex values at the
    # vertices, normal derivatives at the edge midpoints
    mesh = lshape_graded
    lagrange = ElementBasis(build_dofmap(mesh, "c0ip"))
    grads = lagrange.gradients(REF_NODES[3:])               # (nt, 3, 6, 2)
    pairing = np.zeros((mesh.n_triangles, 6, 6))
    pairing[:, :3] = p2_values(REF_NODES[:3])
    pairing[:, 3:] = np.einsum("tkja,tka->tkj", grads,
                               mesh.edge_normal[mesh.tri_edges])
    want = np.linalg.inv(pairing).transpose(0, 2, 1)
    got = ElementBasis(build_dofmap(mesh, "morley")).transform
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_morley_shapes_have_constant_hessians(skewed_triangle):
    dm = build_dofmap(skewed_triangle, "morley")
    basis = ElementBasis(dm)
    rng = np.random.default_rng(7)
    pts = rng.random((5, 2)) * 0.4
    grads = basis.gradients(pts)[0]  # (5, 6, 2)
    # gradients of quadratics are affine; check Hessian via differences of
    # gradients matches the stored constant Hessian
    p0, p1 = pts[0], pts[1]
    jac = basis.mesh.jac[0]
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
        dn = np.einsum("qja,a->qj", eb.traces(0)[1][e], mesh.edge_normal[e])
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
        dn = np.einsum("eqja,ea,ej->eq", eb.traces(side)[1],
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


@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_gathered_coefficients_read_constrained_dofs_as_zero(method):
    # the element and edge tables of a mesh with free dofs, and of one
    # triangle, which has none under Morley and C0IP, against a gather
    # written out dof by dof
    from vkfem import unit_square_mesh
    from vkfem.femspace import edge_jumps, gather_coefficients
    single = build_topology([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
    for mesh in (single, uniform_refine(unit_square_mesh())):
        dm = build_dofmap(mesh, method)
        coef = np.random.default_rng(43).standard_normal(dm.n_global)
        for dofs in (dm.element_dofs, *dm.edge_basis.dofs):
            want = np.array([[coef[d] if d >= 0 else 0.0 for d in row]
                             for row in dofs]).reshape(dofs.shape)
            got = gather_coefficients(dofs, coef)
            assert got.dtype == float
            np.testing.assert_array_equal(got, want)
        if mesh is single:
            assert (dm.n_global == 0) == (method != "dg")
            hess, jumps = (element_hessians(dm.basis, coef),
                           edge_jumps(dm.edge_basis, coef))
            assert np.isfinite(hess).all()
            assert method == "dg" or not (hess.any() or jumps[0].any())
