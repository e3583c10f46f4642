import numpy as np
import pytest

from vkfem import (MeshError, build_topology, nvb_refine, read_mesh,
                   shape_regularity, uniform_refine, write_mesh)


def cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def point_in_triangle(p, tri, tol=1e-12):
    a, b, c = tri
    return (cross2(b - a, p - a) >= -tol and cross2(c - b, p - b) >= -tol
            and cross2(a - c, p - c) >= -tol)


def test_two_triangle_square_counts(two_tri):
    assert two_tri.n_vertices == 4
    assert two_tri.n_triangles == 2
    assert two_tri.n_edges == 5
    assert int((~two_tri.edge_on_boundary).sum()) == 1
    assert int((~two_tri.vertex_on_boundary).sum()) == 0
    assert two_tri.euler_characteristic() == 1


def test_single_triangle_all_boundary():
    m = build_topology([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert m.n_edges == 3
    assert m.edge_on_boundary.all()
    assert m.vertex_on_boundary.all()


def test_lshape_initial_mesh_counts(lshape0):
    # 8 vertices, 6 triangles, 13 edges of which 5 interior; the reentrant
    # corner is a boundary vertex, so there are no interior vertices.
    assert lshape0.n_vertices == 8
    assert lshape0.n_triangles == 6
    assert lshape0.n_edges == 13
    assert int(lshape0.edge_on_boundary.sum()) == 8
    assert int((~lshape0.edge_on_boundary).sum()) == 5
    assert int((~lshape0.vertex_on_boundary).sum()) == 0
    assert lshape0.euler_characteristic() == 1


def test_criss_cross_square(square0):
    assert square0.n_vertices == 9
    assert square0.n_triangles == 8
    assert square0.euler_characteristic() == 1
    assert shape_regularity(square0) == pytest.approx(np.pi / 4, abs=1e-14)


def test_rejects_hanging_vertex():
    # the triangle (1, 5, 2) keeps the full edge (1, 2) while its neighbours
    # use the two halves through vertex 4
    vertices = [(0, 0), (2, 0), (2, 2), (0, 2), (2, 1), (3, 1)]
    triangles = [(0, 1, 4), (0, 4, 2), (0, 2, 3), (1, 5, 2)]
    with pytest.raises(MeshError, match="hanging"):
        build_topology(vertices, triangles)


def test_rejects_overshared_edge():
    with pytest.raises(MeshError, match="more than two|shared by"):
        build_topology([(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)],
                       [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_rejects_clockwise_triangle():
    with pytest.raises(MeshError, match="area"):
        build_topology([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])


def test_rejects_bad_indices():
    with pytest.raises(MeshError):
        build_topology([(0, 0), (1, 0), (0, 1)], [(0, 1, 3)])
    with pytest.raises(MeshError):
        build_topology([(0, 0), (1, 0), (0, 1)], [(0, 1, 1)])
    with pytest.raises(MeshError):
        build_topology([(0, 0), (1, 0), (0, np.nan)], [(0, 1, 2)])


def test_edge_frame_orthonormal(square1):
    n, t = square1.edge_normal, square1.edge_tangent
    assert np.abs(np.hypot(n[:, 0], n[:, 1]) - 1.0).max() < 1e-14
    assert np.abs((n * t).sum(axis=1)).max() < 1e-14
    # tangent is the normal rotated by 90 degrees counterclockwise
    rot = np.stack([-n[:, 1], n[:, 0]], axis=1)
    assert np.abs(rot - t).max() < 1e-14


def test_edge_normal_orientation(square1):
    # normal points away from the first adjacent triangle / outward on the
    # boundary
    v, t = square1.vertices, square1.triangles
    centroids = v[t].mean(axis=1)
    mid = 0.5 * (v[square1.edges[:, 0]] + v[square1.edges[:, 1]])
    toward0 = np.einsum("ij,ij->i", square1.edge_normal,
                        centroids[square1.edge_tris[:, 0]] - mid)
    assert (toward0 < 0).all()
    interior = ~square1.edge_on_boundary
    toward1 = np.einsum("ij,ij->i", square1.edge_normal[interior],
                        centroids[square1.edge_tris[interior, 1]] - mid[interior])
    assert (toward1 > 0).all()
    assert (square1.edge_tris[interior, 0] < square1.edge_tris[interior, 1]).all()


def test_uniform_refine_counts(two_tri):
    m = uniform_refine(two_tri)
    assert (m.n_vertices, m.n_triangles, m.n_edges) == (9, 8, 16)
    assert m.euler_characteristic() == 1


def test_uniform_refine_preserves_min_angle(lshape0):
    before = shape_regularity(lshape0)
    after = shape_regularity(uniform_refine(lshape0))
    assert after == pytest.approx(before, abs=1e-13)


def test_uniform_refine_single_triangle_twice():
    m = build_topology([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    m = uniform_refine(uniform_refine(m))
    assert m.n_triangles == 16


def test_uniform_refine_children_nested(skewed_triangle):
    parentv = skewed_triangle.vertices[skewed_triangle.triangles[0]]
    fine = uniform_refine(skewed_triangle)
    for tri in fine.triangles:
        pts = fine.vertices[tri]
        for p in list(pts) + [pts.mean(axis=0)]:
            assert point_in_triangle(p, parentv, tol=1e-10)


def test_nvb_empty_marking_returns_same_mesh(square0):
    assert nvb_refine(square0, []) is square0


def test_nvb_closure_two_triangles(two_tri):
    # shared diagonal is the refinement edge of both; marking one bisects both
    refined = nvb_refine(two_tri, [0])
    assert (refined.n_vertices, refined.n_triangles) == (5, 4)
    assert refined.euler_characteristic() == 1


def test_nvb_marked_triangles_are_split(square0):
    refined = nvb_refine(square0, [0, 3])
    assert refined.n_triangles > square0.n_triangles
    # every old vertex survives with its coordinates
    assert np.allclose(refined.vertices[:square0.n_vertices], square0.vertices)


def test_nvb_nestedness(square0):
    refined = nvb_refine(square0, [1, 4, 6])
    parents = square0.vertices[square0.triangles]
    for tri in refined.triangles:
        pts = refined.vertices[tri]
        centroid = pts.mean(axis=0)
        hosts = [k for k in range(square0.n_triangles)
                 if point_in_triangle(centroid, parents[k], tol=1e-12)]
        assert hosts, "child centroid outside every parent"
        assert any(all(point_in_triangle(p, parents[k], tol=1e-10)
                       for p in pts) for k in hosts)


def test_nvb_random_rounds_stay_conforming(lshape0):
    rng = np.random.default_rng(42)
    mesh = lshape0
    angle0 = shape_regularity(mesh)
    for _ in range(10):
        nmark = max(1, mesh.n_triangles // 4)
        marked = rng.choice(mesh.n_triangles, size=nmark, replace=False)
        mesh = nvb_refine(mesh, marked)  # constructor audits conformity
        assert mesh.euler_characteristic() == 1
    assert shape_regularity(mesh) >= angle0 - 1e-12


def test_longest_edge_tags(two_tri):
    # the diagonal is the longest edge of both triangles
    diag = [e for e in range(two_tri.n_edges)
            if not two_tri.edge_on_boundary[e]][0]
    for t in range(2):
        k = two_tri.refinement_edge[t]
        assert two_tri.tri_edges[t, k] == diag


def test_shape_regularity_equilateral():
    m = build_topology([(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)], [(0, 1, 2)])
    assert shape_regularity(m) == pytest.approx(np.pi / 3, abs=1e-12)


def test_mesh_io_roundtrip(tmp_path, lshape0):
    path = tmp_path / "mesh.txt"
    write_mesh(lshape0, path)
    back = read_mesh(path)
    assert np.array_equal(back.triangles, lshape0.triangles)
    assert np.allclose(back.vertices, lshape0.vertices)
    assert np.array_equal(back.edge_on_boundary, lshape0.edge_on_boundary)


def test_read_mesh_truncated(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 0\n1 0\n")
    with pytest.raises(MeshError):
        read_mesh(path)


def test_mesh_arrays_read_only(square0):
    with pytest.raises(ValueError):
        square0.triangles[0, 0] = 5


def _strip(n, hanging=()):
    """A 1 x n strip of 2n triangles with 2n + 2 boundary edges.  For each
    column k in ``hanging`` the bottom edge is split at a new midpoint
    vertex above, while a new triangle below keeps it whole."""
    xs = np.arange(n + 1, dtype=float)
    vertices = [np.stack([xs, 0.0 * xs], axis=1),
                np.stack([xs, 1.0 + 0.0 * xs], axis=1)]
    b = np.arange(n)
    t = b + n + 1
    tris = [np.stack([b, b + 1, t + 1], axis=1)[np.isin(b, hanging, invert=True)],
            np.stack([b, t + 1, t], axis=1)]
    for i, k in enumerate(hanging):
        m, s = 2 * n + 2 + 2 * i, 2 * n + 3 + 2 * i
        vertices.append([(k + 0.5, 0.0), (k + 0.5, -1.0)])
        tris.append([(k, m, k + n + 2), (m, k + 1, k + n + 2), (k, s, k + 1)])
    return np.concatenate(vertices), np.concatenate(tris)


def _dense_audit(mesh):
    """The first (boundary edge, vertex) hit of the boundary-edges x
    boundary-vertices scan, as the audit's message names it."""
    bidx = np.where(mesh.edge_on_boundary)[0]
    cand = np.where(mesh.vertex_on_boundary)[0]
    a = mesh.vertices[mesh.edges[bidx, 0]]
    d = mesh.vertices[mesh.edges[bidx, 1]] - a
    length = mesh.edge_length[bidx]
    rel = mesh.vertices[cand][None, :, :] - a[:, None, :]
    tpar = (rel * d[:, None, :]).sum(-1) / (length**2)[:, None]
    perp = rel[..., 0] * d[:, None, 1] - rel[..., 1] * d[:, None, 0]
    dist = np.abs(perp) / length[:, None]
    inside = (tpar > 1e-10) & (tpar < 1.0 - 1e-10) \
        & (dist < 1e-10 * length[:, None])
    e, c = np.argwhere(inside)[0]
    return f"hanging vertex {cand[c]} on edge {tuple(mesh.edges[bidx[e]])}"


def test_hanging_vertex_audit_memory_stays_boundary_linear():
    # the audit used to build boundary-edges x boundary-vertices arrays
    # (108 MB for this strip); it now keeps a few candidate pairs per edge
    import tracemalloc
    mesh = build_topology(*_strip(750))
    assert int(mesh.edge_on_boundary.sum()) == 1502
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        mesh._audit_hanging_vertices()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("k", [0, 377, 749])
def test_rejects_hanging_vertex_on_a_long_boundary(k):
    import re
    edge = tuple(np.array([k, k + 1]))  # formatted as the mesh formats it
    message = f"hanging vertex {2 * 750 + 2} on edge {edge}"
    with pytest.raises(MeshError, match=re.escape(message)):
        build_topology(*_strip(750, hanging=[k]))


@pytest.mark.parametrize("hanging", [(12, 5, 30), (39, 0), (7, 8, 9)])
def test_hanging_vertex_audit_names_the_dense_scans_first_hit(monkeypatch,
                                                              hanging):
    import re
    from vkfem.mesh import Triangulation
    monkeypatch.setattr(Triangulation, "_audit_hanging_vertices",
                        lambda self: None)
    mesh = build_topology(*_strip(40, hanging=hanging))
    monkeypatch.undo()
    with pytest.raises(MeshError, match=re.escape(_dense_audit(mesh))):
        mesh._audit_hanging_vertices()
