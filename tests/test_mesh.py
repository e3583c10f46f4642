import hashlib
import re

import numpy as np
import pytest

from vkfem import (MeshError, Triangulation, nvb_refine, read_mesh,
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
    m = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
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
    with pytest.raises(MeshError) as info:
        Triangulation(vertices, triangles)
    assert str(info.value) == "hanging vertex 4 on edge (1, 2)"


def test_rejects_overshared_edge():
    with pytest.raises(MeshError, match="more than two|shared by"):
        Triangulation([(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)],
                      [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_rejects_clockwise_triangle():
    with pytest.raises(MeshError, match="area"):
        Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])


def test_rejects_bad_indices():
    with pytest.raises(MeshError):
        Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 3)])
    with pytest.raises(MeshError):
        Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 1)])
    with pytest.raises(MeshError):
        Triangulation([(0, 0), (1, 0), (0, np.nan)], [(0, 1, 2)])


@pytest.mark.parametrize("triangles, refinement_edge, name", [
    ([[0, 1.7, 2]], None, "triangle vertex indices"),
    ([[0, 1, 2]], [0.5], "refinement_edge"),
    ([[0, np.nan, 2]], None, "triangle vertex indices"),
], ids=["real-index", "real-tag", "nan-index"])
def test_rejects_non_integral_indices(triangles, refinement_edge, name):
    # an index or tag that differs from its int64 value is not truncated
    with pytest.raises(MeshError, match=f"{name} must be integers"):
        Triangulation([(0, 0), (1, 0), (0, 1)], triangles, refinement_edge)
    # integral values of a float array are indices
    mesh = Triangulation([(0, 0), (1, 0), (0, 1)], [[0.0, 1.0, 2.0]], [1.0])
    assert mesh.triangles.tolist() == [[0, 1, 2]]
    assert mesh.refinement_edge.tolist() == [1]


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
    m = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    m = uniform_refine(uniform_refine(m))
    assert m.n_triangles == 16


def test_uniform_refine_children_nested(skewed_triangle):
    parentv = skewed_triangle.vertices[skewed_triangle.triangles[0]]
    fine = uniform_refine(skewed_triangle)
    for tri in fine.triangles:
        pts = fine.vertices[tri]
        for p in list(pts) + [pts.mean(axis=0)]:
            assert point_in_triangle(p, parentv, tol=1e-10)


def assert_children_in_parents(coarse, fine):
    """Every triangle of ``fine`` lies in its recorded parent, whose area
    its children share exactly; a parent with one child is that child."""
    parent = fine.parent
    assert fine.parents_in(coarse) is parent
    assert parent.shape == (fine.n_triangles,)
    assert np.all(np.diff(parent) >= 0)  # children follow their parents
    np.testing.assert_allclose(
        np.bincount(parent, weights=fine.area, minlength=coarse.n_triangles),
        coarse.area, rtol=1e-12)
    # each child vertex on the inner side of every edge of its parent
    hosts = coarse.vertices[coarse.triangles[parent]]
    pts = fine.vertices[fine.triangles]
    for k in range(3):
        a, b = hosts[:, k, None], hosts[:, (k + 1) % 3, None]
        side = ((b - a)[..., 0] * (pts - a)[..., 1]
                - (b - a)[..., 1] * (pts - a)[..., 0])
        assert np.all(side >= -1e-12)
    alone = np.bincount(parent, minlength=coarse.n_triangles)[parent] == 1
    np.testing.assert_array_equal(fine.triangles[alone],
                                  coarse.triangles[parent[alone]])


def test_uniform_children_lie_in_their_parent(lshape0, skewed_triangle):
    for coarse in (lshape0, skewed_triangle, uniform_refine(lshape0)):
        fine = uniform_refine(coarse)
        # the children of t are 4t ... 4t+3
        np.testing.assert_array_equal(
            fine.parent, np.repeat(np.arange(coarse.n_triangles), 4))
        assert_children_in_parents(coarse, fine)


def test_parents_name_only_the_mesh_refined_from(square0):
    fine = nvb_refine(square0, [1, 4])
    finer = uniform_refine(fine)
    assert fine.parents_in(square0) is fine.parent
    # not the grandparent, not an equal copy, not the finer mesh
    assert finer.parents_in(square0) is None
    assert fine.parents_in(nvb_refine(square0, [1, 4])) is None
    assert fine.parents_in(finer) is None
    assert square0.parent is None and square0.parents_in(fine) is None
    with pytest.raises(ValueError):
        fine.parent[0] = 0


def test_nvb_empty_marking_returns_same_mesh(square0):
    assert nvb_refine(square0, []) is square0
    # the same mesh: identity parents, never the map of an earlier refinement
    fine = nvb_refine(square0, [3])
    same = nvb_refine(fine, np.array([], dtype=np.int64))
    assert same is fine
    np.testing.assert_array_equal(same.parents_in(fine),
                                  np.arange(fine.n_triangles))
    assert same.parents_in(square0) is fine.parent


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


@pytest.mark.parametrize("marked", [np.arange(8) == 5, [2.7]],
                         ids=["bool-mask", "float"])
def test_nvb_rejects_marked_that_are_not_indices(square0, marked):
    # a boolean mask would otherwise mark triangles 0 and 1, and 2.7 be
    # truncated to 2
    with pytest.raises(MeshError, match="triangle indices"):
        nvb_refine(square0, marked)


def _bisected_edges(coarse, fine):
    # new vertices are midpoints of the bisected coarse edges
    ends = coarse.vertices[coarse.edges]
    new = {tuple(x) for x in fine.vertices[coarse.n_vertices:]}
    return np.array([tuple(x) in new for x in 0.5 * (ends[:, 0] + ends[:, 1])])


def _bisect_loop(mesh, cut, seen):
    # triangle-by-triangle reference for the children of nvb_refine, given
    # the bisected edges; adds the branches taken to ``seen``
    vertex = np.cumsum(cut) - 1 + mesh.n_vertices
    tris, tags = [], []
    for tri, e, k in zip(mesh.triangles, mesh.tri_edges, mesh.refinement_edge):
        if not cut[e].any():
            seen.add("untouched")
            tris.append(tuple(tri))
            tags.append(k)
            continue
        p, a, b = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
        m, flank_b, flank_a = vertex[e[k]], e[(k + 1) % 3], e[(k + 2) % 3]
        seen.update([f"A split {cut[flank_a]}", f"B split {cut[flank_b]}"])
        if cut[flank_a]:
            tris += [(m, p, vertex[flank_a]), (m, vertex[flank_a], a)]
            tags += [2, 1]
        else:
            tris.append((p, a, m))
            tags.append(2)
        if cut[flank_b]:
            tris += [(m, b, vertex[flank_b]), (m, vertex[flank_b], p)]
            tags += [2, 1]
        else:
            tris.append((p, m, b))
            tags.append(1)
    return np.array(tris), np.array(tags)


def _hash_mesh(h, mesh):
    for arr, dtype in ((mesh.vertices, "<f8"), (mesh.triangles, "<i8"),
                       (mesh.refinement_edge, "<i8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h


# sha256 of vertices, triangles and refinement_edge of every round: the
# closure, the vertex numbering and the child order are a contract
NVB_GOLDEN = {
    "lshape": "6ccf28b312e25dafc20e79761bc452fb061efd58169cb53d27d3781967c80a38",
    "square": "1fdcadc31dcdf0860b5ae73dcf0a46d2d07681d477d6904b47a46d9a8047d133",
    "lshape2": "d97a440f02ba62341ec7be59be4f81055d81a026f67c60e79bf51d89aae6df62",
}


def test_nvb_random_rounds_match_the_golden_meshes(lshape0, square0):
    starts = {"lshape": lshape0, "square": square0,
              "lshape2": uniform_refine(uniform_refine(lshape0))}
    seen = set()
    for seed, (name, mesh) in enumerate(starts.items()):
        rng = np.random.default_rng(seed)
        h = _hash_mesh(hashlib.sha256(), mesh)
        for _ in range(14):
            size = max(1, int(rng.uniform(0.02, 0.3) * mesh.n_triangles))
            fine = nvb_refine(
                mesh, rng.choice(mesh.n_triangles, size, replace=False))
            tris, tags = _bisect_loop(mesh, _bisected_edges(mesh, fine), seen)
            np.testing.assert_array_equal(fine.triangles, tris)
            np.testing.assert_array_equal(fine.refinement_edge, tags)
            assert_children_in_parents(mesh, fine)
            mesh = fine
            _hash_mesh(h, mesh)
        assert h.hexdigest() == NVB_GOLDEN[name], name
    # the rounds leave triangles untouched and split or keep child A and B
    assert seen == {"untouched", "A split True", "A split False",
                    "B split True", "B split False"}


def test_longest_edge_tags(two_tri):
    # the diagonal is the longest edge of both triangles
    diag = [e for e in range(two_tri.n_edges)
            if not two_tri.edge_on_boundary[e]][0]
    for t in range(2):
        k = two_tri.refinement_edge[t]
        assert two_tri.tri_edges[t, k] == diag


def test_shape_regularity_equilateral():
    m = Triangulation([(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)], [(0, 1, 2)])
    assert shape_regularity(m) == pytest.approx(np.pi / 3, abs=1e-12)


def test_mesh_io_roundtrip(tmp_path, lshape0):
    path = tmp_path / "mesh.txt"
    write_mesh(lshape0, path)
    back = read_mesh(path)
    assert np.array_equal(back.triangles, lshape0.triangles)
    assert np.allclose(back.vertices, lshape0.vertices)
    assert np.array_equal(back.edge_on_boundary, lshape0.edge_on_boundary)


@pytest.mark.parametrize("text, message", [
    ("3 1\n0 0\n1 0\n", "expected 11 tokens, found 6"),
    ("", "truncated header: expected 2 counts 'nv nt', found 0"),
    ("3", "truncated header: expected 2 counts 'nv nt', found 1"),
    ("3.5 1\n0 0\n1 0\n0 1\n0 1 2\n", "'3.5'"),
    ("3 1\n0 0\nx 0\n0 1\n0 1 2\n", "'x'"),
    ("3 1\n0 0\n1 0\n0 1\n0 1 2.5\n", "'2.5'"),
    ("3 -1\n0 0\n1 0\n", "negative count in header 3 -1"),
    ("3 1\n0 0\n1 0\n0 1\n0 1 2\n0 2 1\n", "expected 11 tokens, found 14"),
], ids=["truncated", "empty", "one-token", "real-count", "bad-coordinate",
        "real-index", "negative-count", "extra-triangle"])
def test_read_mesh_truncated(tmp_path, text, message):
    # a malformed file raises MeshError naming the file and what is wrong
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MeshError, match=re.escape(f"{path}: ")) as info:
        read_mesh(path)
    assert message in str(info.value)


def test_mesh_arrays_read_only(square0):
    with pytest.raises(ValueError):
        square0.triangles[0, 0] = 5


def incidence_meshes():
    """The two-triangle square, the square and the L-shape at uniform
    levels 0 to 2, and four newest-vertex-bisection levels of the L-shape,
    each refining a random third of the triangles."""
    from vkfem import lshape_mesh, two_triangle_square, unit_square_mesh
    meshes = [two_triangle_square()]
    for mesh in (unit_square_mesh(), lshape_mesh()):
        meshes += [mesh, uniform_refine(mesh), uniform_refine(
            uniform_refine(mesh))]
    rng = np.random.default_rng(29)
    mesh = meshes[-1]
    for _ in range(4):
        mesh = nvb_refine(mesh, np.flatnonzero(
            rng.random(mesh.n_triangles) < 1.0 / 3.0))
        meshes.append(mesh)
    return meshes


@pytest.mark.parametrize("mesh", incidence_meshes())
def test_side_incidence_and_affine_maps(mesh):
    # per side of every edge: its local edge in the side's triangle and
    # whether the edge's sorted vertices run backwards there, against the
    # definitions; the affine maps against the vertices
    e = np.arange(mesh.n_edges)
    for arr in (mesh.edge_local, mesh.edge_backwards, mesh.jac,
                mesh.jac_inv):
        assert not arr.flags.writeable
    for s in (0, 1):
        tri, local = mesh.edge_tris[:, s], mesh.edge_local[:, s]
        has = tri >= 0
        assert (mesh.tri_edges[tri[has], local[has]] == e[has]).all()
        start = mesh.triangles[tri[has], (local[has] + 1) % 3]
        np.testing.assert_array_equal(mesh.edge_backwards[has, s],
                                      start != mesh.edges[has, 0])
        assert (local[~has] == 0).all()
        assert not mesh.edge_backwards[~has, s].any()
    # counterclockwise triangles run an interior edge both ways
    interior = ~mesh.edge_on_boundary
    assert (mesh.edge_backwards[interior, 0]
            != mesh.edge_backwards[interior, 1]).all()
    p = mesh.vertices[mesh.triangles]
    np.testing.assert_array_equal(mesh.jac[:, :, 0], p[:, 1] - p[:, 0])
    np.testing.assert_array_equal(mesh.jac[:, :, 1], p[:, 2] - p[:, 0])
    assert np.abs(mesh.jac_inv @ mesh.jac - np.eye(2)).max() < 1e-14


def test_a_mesh_copies_the_callers_arrays():
    # the mesh's arrays are its own and read-only; the caller's stay
    # writeable and are not shared
    v = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    t = np.array([(0, 1, 2), (0, 2, 3)], dtype=np.int64)
    tags = np.array([0, 1], dtype=np.int64)
    mesh = Triangulation(v, t, tags)
    for given, own in ((v, mesh.vertices), (t, mesh.triangles),
                       (tags, mesh.refinement_edge)):
        assert given.flags.writeable and not own.flags.writeable
        assert not np.shares_memory(given, own)
        assert np.array_equal(given, own)


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
    return (f"hanging vertex {cand[c]} on edge "
            f"{tuple(mesh.edges[bidx[e]].tolist())}")


def test_hanging_vertex_audit_memory_stays_boundary_linear():
    # the audit used to build boundary-edges x boundary-vertices arrays
    # (108 MB for this strip); it now keeps a few candidate pairs per edge
    import tracemalloc
    mesh = Triangulation(*_strip(750))
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
    message = f"hanging vertex {2 * 750 + 2} on edge ({k}, {k + 1})"
    with pytest.raises(MeshError, match=re.escape(message)):
        Triangulation(*_strip(750, hanging=[k]))


@pytest.mark.parametrize("hanging", [(12, 5, 30), (39, 0), (7, 8, 9)])
def test_hanging_vertex_audit_names_the_dense_scans_first_hit(monkeypatch,
                                                              hanging):
    from vkfem.mesh import Triangulation
    monkeypatch.setattr(Triangulation, "_audit_hanging_vertices",
                        lambda self: None)
    mesh = Triangulation(*_strip(40, hanging=hanging))
    monkeypatch.undo()
    with pytest.raises(MeshError, match=re.escape(_dense_audit(mesh))):
        mesh._audit_hanging_vertices()
