"""The matrix-product kernels of the data path against einsum references.

Each test recomputes one library array with the ``np.einsum`` contraction
the kernel replaced, on a perturbed, non-uniform L-shape mesh for all three
methods, and requires agreement to 1e-13 relative to the largest entry.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from vkfem import (METHODS, DiscreteSolution, PenaltyConfig,
                   assemble_biharmonic, assemble_load,
                   build_dofmap, build_topology, error_norm, estimate,
                   lshape_mesh, nvb_refine, oscillation_local, uniform_refine)
from vkfem import analysis, assembly
from vkfem.femspace import (EDGE_RULE, P2_REF_HESSIANS, REF_NODES,
                            VOLUME_RULE, EdgeBasis, bracket, edge_jumps,
                            element_hessians, gather_coefficients,
                            p2_ref_gradients, p2_values)
from vkfem.problems import exact_lshape
from vkfem.quadrature import triangle_rule

RTOL = 1e-13
NQ = len(EDGE_RULE.points)
FROB = np.array([1.0, 1.0, 2.0])


def assert_matches(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


@pytest.fixture(scope="module")
def mesh():
    """The L-shape refined once, a third of its triangles bisected, and the
    interior vertices moved by up to a tenth of the shortest edge."""
    mesh = uniform_refine(lshape_mesh())
    mesh = nvb_refine(mesh, np.arange(0, mesh.n_triangles, 3))
    rng = np.random.default_rng(31)
    shift = (0.1 * mesh.edge_length.min()
             * rng.uniform(-1.0, 1.0, mesh.vertices.shape))
    shift[mesh.vertex_on_boundary] = 0.0
    return build_topology(mesh.vertices + shift, mesh.triangles)


@pytest.fixture(scope="module", params=METHODS)
def dofmap(request, mesh):
    return build_dofmap(mesh, request.param)


@pytest.fixture(scope="module")
def coefficients(dofmap):
    rng = np.random.default_rng(32)
    return rng.standard_normal((2, dofmap.n_global))


def test_mesh_is_perturbed_and_not_uniform(mesh):
    assert mesh.area.max() > 2.5 * mesh.area.min()
    assert len(np.unique(np.round(mesh.area, 12))) > mesh.n_triangles // 4


def test_physical_points(dofmap):
    mesh = dofmap.mesh
    ref = triangle_rule(8).points[:, 1:]
    origin = mesh.vertices[mesh.triangles[:, 0]]
    want = origin[:, None, :] + np.einsum("tab,mb->tma", mesh.jac, ref)
    assert_matches(dofmap.basis.physical_points(ref), want)


def morley_transform_reference(basis, mesh):
    gm = p2_ref_gradients(REF_NODES[3:])
    gphys = np.einsum("tba,kjb->tkja", basis.mesh.jac_inv, gm)
    normals = mesh.edge_normal[mesh.tri_edges]
    pairing = np.zeros((mesh.n_triangles, 6, 6))
    pairing[:, :3, :3] = np.eye(3)
    pairing[:, 3:, :] = np.einsum("tkja,tka->tkj", gphys, normals)
    return np.linalg.inv(pairing).transpose(0, 2, 1)


def test_element_hessians_and_morley_transform(dofmap):
    basis = dofmap.basis
    href = np.empty((6, 2, 2))
    href[:, 0, 0] = P2_REF_HESSIANS[:, 0]
    href[:, 1, 1] = P2_REF_HESSIANS[:, 1]
    href[:, 0, 1] = href[:, 1, 0] = P2_REF_HESSIANS[:, 2]
    hphys = np.einsum("tba,jbc,tcd->tjad", basis.mesh.jac_inv, href,
                      basis.mesh.jac_inv)
    want = np.stack([hphys[:, :, 0, 0], hphys[:, :, 1, 1],
                     hphys[:, :, 0, 1]], axis=-1)
    if dofmap.method == "morley":
        transform = morley_transform_reference(basis, dofmap.mesh)
        assert_matches(basis.transform, transform)
        want = np.einsum("tjk,tkc->tjc", transform, want)
    assert_matches(basis.hessians, want)


def test_values_and_gradients(dofmap):
    basis = dofmap.basis
    ref = triangle_rule(8).points[:, 1:]
    nt = dofmap.mesh.n_triangles
    vals = np.broadcast_to(p2_values(ref), (nt, len(ref), 6))
    grads = np.einsum("tba,mjb->tmja", basis.mesh.jac_inv,
                      p2_ref_gradients(ref))
    if basis.transform is not None:
        vals = np.einsum("tjk,mk->tmj", basis.transform, p2_values(ref))
        grads = np.einsum("tjk,tmka->tmja", basis.transform, grads)
    assert_matches(basis.values(ref), vals)
    assert_matches(basis.gradients(ref), grads)


def test_edge_basis_traces(dofmap):
    # the frame's traces and jumps at the rule points and at both ends
    # against the shapes at the physical points mapped into each side's
    # triangle; the mesh has edges that run backwards in a triangle and
    # edges that do not, on both sides (the run direction is the mesh's)
    basis, mesh = dofmap.basis, dofmap.mesh
    origin = mesh.vertices[mesh.triangles[:, 0]]
    coef = np.random.default_rng(37).standard_normal(dofmap.n_global)
    for tpoints in (EDGE_RULE.points, [0.0, 1.0]):
        eb = EdgeBasis(basis, tpoints)
        want_jumps = []
        for side in (0, 1):
            tri = mesh.edge_tris[:, side]
            assert mesh.edge_backwards[tri >= 0, side].any()
            assert not mesh.edge_backwards[tri >= 0, side].all()
            tt = np.where(tri >= 0, tri, 0)
            ref = np.einsum("eab,eqb->eqa", mesh.jac_inv[tt],
                            eb.points - origin[tt][:, None, :])
            vals = p2_values(ref)
            grads = np.einsum("eba,eqjb->eqja", mesh.jac_inv[tt],
                              p2_ref_gradients(ref))
            if basis.transform is not None:
                vals = np.einsum("ejk,eqk->eqj", basis.transform[tt], vals)
                grads = np.einsum("ejk,eqka->eqja", basis.transform[tt],
                                  grads)
            vals[tri < 0] = 0.0
            grads[tri < 0] = 0.0
            got_vals, got_grads = eb.traces(side)
            assert_matches(got_vals, vals)
            assert_matches(got_grads, grads)
            local = gather_coefficients(eb.dofs[side], coef)
            want_jumps.append((np.einsum("eqj,ej->eq", vals, local),
                               np.einsum("eqja,ej->eqa", grads, local)))
        assert_jumps_match(edge_jumps(eb, coef), want_jumps)


def assert_jumps_match(got, sides):
    """The value and gradient jumps ``got`` against ``side 0 - side 1`` of
    the traces ``sides``, one (values, gradients) pair per side, relative to
    side 0: C0IP's value jumps and Morley's vertex-value jumps are zero up to
    the rounding of each side's sum."""
    for jump, (side0, side1) in zip(got, zip(*sides)):
        assert jump.shape == side0.shape
        assert np.abs(jump - (side0 - side1)).max() \
            <= RTOL * np.abs(side0).max()


def test_edge_jumps(dofmap, coefficients):
    eb = dofmap.edge_basis
    for coef in coefficients:
        sides = []
        for side in (0, 1):
            local = gather_coefficients(eb.dofs[side], coef)
            values, gradients = eb.traces(side)
            sides.append((np.einsum("eqj,ej->eq", values, local),
                          np.einsum("eqja,ej->eqa", gradients, local)))
        assert_jumps_match(edge_jumps(eb, coef), sides)


def edge_terms_reference(dofmap, sigma):
    mesh, eb = dofmap.mesh, dofmap.edge_basis
    w, normal, h = EDGE_RULE.weights, mesh.edge_normal, mesh.edge_length
    avg = np.where(mesh.edge_on_boundary, 1.0, 0.5)

    def jump(sides):
        return np.concatenate([sides[0], -sides[1]], axis=2)

    def normal_hessian(hess):
        n1, n2 = normal[:, 0, None], normal[:, 1, None]
        return np.stack([hess[..., 0] * n1 + hess[..., 2] * n2,
                         hess[..., 2] * n1 + hess[..., 1] * n2], axis=-1)

    values, gradients = zip(*map(eb.traces, (0, 1)))
    dn = jump([np.einsum("eqja,ea->eqj", g, normal) for g in gradients])
    pen = sigma * np.einsum("q,eqi,eqj->eij", w, dn, dn)
    tri = mesh.edge_tris
    hess = [dofmap.basis.hessians[tri[:, 0]],
            np.where((tri[:, 1] >= 0)[:, None, None],
                     dofmap.basis.hessians[tri[:, 1]], 0.0)]
    hn = np.concatenate([normal_hessian(hs) for hs in hess],
                        axis=1) * avg[:, None, None]
    if dofmap.method == "c0ip":
        hnn = np.einsum("eja,ea->ej", hn, normal)
        jn_int = h[:, None] * np.einsum("q,eqj->ej", w, dn)
        return pen - (np.einsum("ei,ej->eij", hnn, jn_int)
                      + np.einsum("ej,ei->eij", hnn, jn_int))
    gj_int = h[:, None, None] * np.einsum("q,eqja->eja", w,
                                          jump(gradients))
    vj = jump(values)
    pen += (sigma / h**2)[:, None, None] * np.einsum("q,eqi,eqj->eij", w,
                                                     vj, vj)
    return pen - (np.einsum("eia,eja->eij", hn, gj_int)
                  + np.einsum("eja,eia->eij", hn, gj_int))


def scattered(n, dofs, local):
    """The local matrices ``local`` summed at ``dofs`` (``-1``: dropped)."""
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix((local[keep], (rows[keep], cols[keep])),
                         shape=(n, n)).toarray()


def test_biharmonic_volume_and_edge_terms(dofmap):
    basis, n = dofmap.basis, dofmap.n_global
    volume = np.einsum("t,tic,tjc,c->tij", basis.mesh.area, basis.hessians,
                       basis.hessians, FROB)
    want = scattered(n, dofmap.element_dofs, volume)
    if dofmap.method != "morley":
        sigma = 20.0
        edge = edge_terms_reference(dofmap, sigma)
        assert_matches(assembly._edge_terms(dofmap, sigma), edge)
        want += scattered(n, np.concatenate(dofmap.edge_basis.dofs, axis=1),
                          edge)
    got = assemble_biharmonic(dofmap, PenaltyConfig(20.0, 20.0))
    assert_matches(got.toarray(), want)


def test_load_vector(dofmap):
    basis, n = dofmap.basis, dofmap.n_global
    rule = VOLUME_RULE
    rng = np.random.default_rng(33)
    loads = rng.standard_normal((2, dofmap.mesh.n_triangles,
                                 len(rule.weights)))
    phi = basis.values(rule.points[:, 1:])
    want = np.zeros(2 * n)
    keep = dofmap.element_dofs >= 0
    for block, vals in enumerate(loads):
        local = np.einsum("t,q,tq,tqi->ti", basis.mesh.area, rule.weights,
                          vals, phi)
        np.add.at(want, block * n + dofmap.element_dofs[keep], local[keep])
    assert_matches(assemble_load(*loads, dofmap), want)


def jump_terms_reference(dofmap, coef, kinds, exact):
    # the vertex jumps from a table at the endpoints
    mesh, w = dofmap.mesh, EDGE_RULE.weights
    vj, gj = edge_jumps(dofmap.edge_basis, coef)
    ends = edge_jumps(EdgeBasis(dofmap.basis, [0.0, 1.0]), coef)[0]
    dj = np.einsum("eqa,ea->eq", gj, mesh.edge_normal)
    bdry = mesh.edge_on_boundary[:, None]
    vj = np.where(bdry, exact[0][:, :NQ] - vj, vj)
    ends = np.where(bdry, exact[0][:, NQ:] - ends, ends)
    dj = np.where(bdry, np.einsum("eqa,ea->eq", exact[1], mesh.edge_normal)
                  - dj, dj)
    h = mesh.edge_length
    out = []
    for kind in kinds:
        if kind == "h":
            mean_dn = np.einsum("q,eq->e", w, dj)
            out.append((mean_dn**2).sum() + ((ends**2).sum(axis=1)
                                             / h**2).sum())
        else:
            term = np.einsum("q,eq->e", w, dj**2).sum()
            if kind == "dg":
                term += (np.einsum("q,eq->e", w, vj**2) / h**2).sum()
            out.append(term)
    return out


def test_error_norm_volume_and_jump_terms(dofmap, coefficients):
    exact = exact_lshape()
    basis = dofmap.basis
    rule = VOLUME_RULE
    pts = basis.physical_points(rule.points[:, 1:])
    mesh, edge_pts = dofmap.mesh, dofmap.edge_basis.points
    # the values at the rule points and both endpoints, as error_norm takes
    # them
    value_pts = np.concatenate([edge_pts, mesh.vertices[mesh.edges]], axis=1)
    kinds = ["ip", "dg", "h"]
    want = []
    for coef, hess, value, grad in zip(
            coefficients, (exact.u_hess, exact.v_hess), (exact.u, exact.v),
            (exact.u_grad, exact.v_grad)):
        hcoef = np.einsum("tj,tjc->tc",
                          gather_coefficients(dofmap.element_dofs, coef),
                          basis.hessians)
        diff = hess(pts[..., 0], pts[..., 1]) - hcoef[:, None, :]
        volume = np.einsum("t,q,tqc,c->", mesh.area, rule.weights,
                           diff**2, FROB)
        trace = (value(value_pts[..., 0], value_pts[..., 1]),
                 grad(edge_pts[..., 0], edge_pts[..., 1]))
        jumps = jump_terms_reference(dofmap, coef, kinds, trace)
        # error_norm hands over the traces on the boundary edges only
        on_boundary = tuple(a[mesh.edge_on_boundary] for a in trace)
        assert_matches(analysis._jump_terms(dofmap, coef, kinds, on_boundary),
                       jumps)
        want.append(np.sqrt(volume + np.array([0.0] + jumps)))
    got = error_norm(DiscreteSolution(dofmap, *coefficients), exact,
                     ["nc"] + kinds)
    assert_matches([e[:2] for e in got], np.transpose(want))


def test_oscillation(mesh):
    rule = VOLUME_RULE
    vals = np.random.default_rng(34).standard_normal(
        (mesh.n_triangles, len(rule.weights)))
    mean = np.einsum("q,tq->t", rule.weights, vals)
    sq = np.einsum("t,q,tq->t", mesh.area, rule.weights,
                   (vals - mean[:, None])**2)
    assert_matches(oscillation_local(vals, mesh),
                   mesh.tri_diameter**2 * np.sqrt(sq))


def test_estimator_volume_term(dofmap):
    # at the zero field every jump and bracket vanishes: only the volume
    # term of the loads is left
    mesh, rule = dofmap.mesh, VOLUME_RULE
    n = dofmap.n_global
    f, g = np.random.default_rng(35).standard_normal(
        (2, mesh.n_triangles, len(rule.weights)))
    eta2 = estimate(DiscreteSolution(dofmap, np.zeros(n), np.zeros(n)),
                    (f, g)).eta2
    want = mesh.tri_diameter**4 * np.einsum("t,q,tq->t", mesh.area,
                                            rule.weights, f**2 + g**2)
    assert_matches(eta2, want)


def test_dg_estimator_jump_terms(mesh):
    # loads that cancel the brackets leave only the edge terms
    dofmap = build_dofmap(mesh, "dg")
    u, v = np.random.default_rng(36).standard_normal((2, dofmap.n_global))
    psi = DiscreteSolution(dofmap, u, v)
    nq = len(VOLUME_RULE.weights)
    hu, hv = (element_hessians(dofmap.basis, c) for c in (u, v))
    loads = (np.repeat(-bracket(hu, hv)[:, None], nq, axis=1),
             np.repeat(0.5 * bracket(hu, hu)[:, None], nq, axis=1))
    w, h = EDGE_RULE.weights, mesh.edge_length
    term = 0.0
    for coef in (u, v):
        vj, gj = edge_jumps(dofmap.edge_basis, coef)
        term = term + (np.einsum("q,eqa->e", w, gj**2)
                       + np.einsum("q,eq->e", w, vj**2) / h**2)
    interior = ~mesh.edge_on_boundary
    tri0, tri1 = mesh.edge_tris.T
    want = np.zeros(mesh.n_triangles)
    np.add.at(want, tri0, np.where(interior, 0.5, 1.0) * term)
    np.add.at(want, tri1[interior], 0.5 * term[interior])
    assert_matches(estimate(psi, loads).eta2, want)
