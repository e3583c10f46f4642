"""Conforming triangulations with red and newest-vertex-bisection refinement.

A :class:`Triangulation` is an immutable bundle of numpy arrays describing a
conforming triangle mesh of a polygonal domain.  Edges carry a deterministic
unit normal (pointing from the lower-indexed to the higher-indexed adjacent
triangle, outward on the boundary) so that jump signs in downstream assembly
are reproducible.  Refinement never mutates a mesh; it returns a new one.

Conventions
-----------
* triangle vertices are counterclockwise,
* local edge ``k`` of triangle ``(v0, v1, v2)`` is the edge opposite vertex
  ``k``, i.e. edge 0 is ``(v1, v2)``,
* ``refinement_edge[t]`` is the local index of the edge opposite the newest
  vertex of triangle ``t`` (the edge bisected next),
* edge vertices are stored sorted, and the tangent is the normal rotated by
  90 degrees counterclockwise.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MeshError",
    "Triangulation",
    "build_topology",
    "uniform_refine",
    "nvb_refine",
    "shape_regularity",
    "read_mesh",
    "write_mesh",
    "two_triangle_square",
    "unit_square_mesh",
    "lshape_mesh",
]


class MeshError(ValueError):
    """Raised for non-conforming or degenerate mesh input."""


class Triangulation:
    """Conforming triangulation of a polygonal domain.

    Parameters
    ----------
    vertices : array_like, shape (nv, 2)
        Vertex coordinates.
    triangles : array_like, shape (nt, 3)
        Vertex indices per triangle, counterclockwise.
    refinement_edge : array_like, shape (nt,), optional
        Local index (0..2) of the refinement edge per triangle.  Defaults to
        the longest edge, ties broken by the lowest opposite-vertex index.

    Attributes
    ----------
    vertices : ndarray (nv, 2)
    triangles : ndarray (nt, 3)
    refinement_edge : ndarray (nt,)
    edges : ndarray (ne, 2)
        Sorted vertex pairs.
    edge_tris : ndarray (ne, 2)
        Adjacent triangles, lower index first, ``-1`` marks a boundary edge.
    tri_edges : ndarray (nt, 3)
        Edge index opposite each local vertex.
    edge_normal, edge_tangent : ndarray (ne, 2)
        Orthonormal frame per edge.
    edge_length : ndarray (ne,)
    area : ndarray (nt,)
    vertex_on_boundary, edge_on_boundary : ndarray of bool
        Topological boundary flags (an edge is boundary iff it has exactly
        one adjacent triangle).
    h_max : float
        Largest edge length.

    Raises
    ------
    MeshError
        For hanging vertices, edges shared by more than two triangles,
        non-finite coordinates, or zero/negative-area triangles.

    Notes
    -----
    Instances are immutable (arrays are marked read-only) and safe to share
    across threads; refinement produces new meshes.
    """

    def __init__(self, vertices, triangles, refinement_edge=None):
        v = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        t = np.ascontiguousarray(np.asarray(triangles, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 2:
            raise MeshError("vertices must have shape (nv, 2)")
        if not np.all(np.isfinite(v)):
            raise MeshError("non-finite vertex coordinates")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError("triangles must have shape (nt, 3)")
        nv, nt = len(v), len(t)
        if nt == 0:
            raise MeshError("empty triangulation")
        if t.min() < 0 or t.max() >= nv:
            raise MeshError("triangle vertex index out of range")
        if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 2] == t[:, 0])):
            raise MeshError("triangle with repeated vertex indices")

        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(twice_area <= 0.0):
            bad = int(np.argmax(twice_area <= 0.0))
            raise MeshError(
                f"triangle {bad} has non-positive signed area "
                f"(vertices must be counterclockwise)"
            )
        self.vertices = v
        self.triangles = t
        self.area = 0.5 * twice_area

        # Edge enumeration: local edge k is opposite local vertex k.
        pairs = np.stack([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=1)
        pairs = np.sort(pairs.reshape(-1, 2), axis=1)
        edges, inv = np.unique(pairs, axis=0, return_inverse=True)
        ne = len(edges)
        self.edges = edges
        self.tri_edges = inv.reshape(nt, 3)

        counts = np.bincount(inv, minlength=ne)
        if counts.max() > 2:
            bad = int(np.argmax(counts > 2))
            raise MeshError(
                f"non-conforming mesh: edge {tuple(edges[bad])} shared by "
                f"{counts[bad]} triangles"
            )
        # Adjacency with the lower triangle index first (stable sort keeps
        # the original triangle order within each edge group).
        flat = self.tri_edges.ravel()
        order = np.argsort(flat, kind="stable")
        tri_of = np.repeat(np.arange(nt), 3)[order]
        first = np.searchsorted(flat[order], np.arange(ne), side="left")
        edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        edge_tris[:, 0] = tri_of[first]
        interior = counts == 2
        edge_tris[interior, 1] = tri_of[first[interior] + 1]
        self.edge_tris = edge_tris
        self.edge_on_boundary = ~interior

        self.vertex_on_boundary = np.zeros(nv, dtype=bool)
        self.vertex_on_boundary[edges[self.edge_on_boundary].ravel()] = True

        a, b = v[edges[:, 0]], v[edges[:, 1]]
        tvec = b - a
        self.edge_length = np.hypot(tvec[:, 0], tvec[:, 1])
        if np.any(self.edge_length <= 0.0):
            raise MeshError("degenerate edge of zero length")
        unit_t = tvec / self.edge_length[:, None]
        normal = np.stack([unit_t[:, 1], -unit_t[:, 0]], axis=1)
        centroid = (v[t[:, 0]] + v[t[:, 1]] + v[t[:, 2]]) / 3.0
        towards_first = np.einsum(
            "ij,ij->i", normal, centroid[edge_tris[:, 0]] - 0.5 * (a + b)
        )
        normal[towards_first > 0.0] *= -1.0
        self.edge_normal = normal
        self.edge_tangent = np.stack([-normal[:, 1], normal[:, 0]], axis=1)
        self.h_max = float(self.edge_length.max())

        self._audit_hanging_vertices()

        if refinement_edge is None:
            refinement_edge = self._longest_edge_tags()
        else:
            refinement_edge = np.asarray(refinement_edge, dtype=np.int64)
            if refinement_edge.shape != (nt,) or refinement_edge.min() < 0 \
                    or refinement_edge.max() > 2:
                raise MeshError("refinement_edge must be (nt,) with values in 0..2")
        self.refinement_edge = refinement_edge

        for arr in (self.vertices, self.triangles, self.edges, self.edge_tris,
                    self.tri_edges, self.edge_normal, self.edge_tangent,
                    self.edge_length, self.area, self.vertex_on_boundary,
                    self.edge_on_boundary, self.refinement_edge):
            arr.setflags(write=False)

    # -- derived quantities -------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def tri_diameter(self):
        """Longest edge per triangle, shape (nt,)."""
        return self.edge_length[self.tri_edges].max(axis=1)

    @property
    def interior_edges(self):
        return np.where(~self.edge_on_boundary)[0]

    def euler_characteristic(self):
        """V - E + F; equals 1 for a mesh of a simply-connected domain."""
        return self.n_vertices - self.n_edges + self.n_triangles

    def __repr__(self):
        return (f"Triangulation({self.n_vertices} vertices, "
                f"{self.n_triangles} triangles, {self.n_edges} edges)")

    # -- construction helpers ------------------------------------------------

    def _longest_edge_tags(self):
        lengths = self.edge_length[self.tri_edges]
        longest = lengths.max(axis=1, keepdims=True)
        candidate = lengths >= longest * (1.0 - 1e-12)
        # Ties broken by the lowest opposite-vertex (global) index.
        opposite = np.where(candidate, self.triangles, np.iinfo(np.int64).max)
        return np.argmin(opposite, axis=1).astype(np.int64)

    def _audit_hanging_vertices(self):
        # A hanging vertex shows up as a vertex strictly inside a
        # topological-boundary edge, so the scan can stay boundary-sized.
        # Each edge is tested only against the boundary vertices in its slab
        # along its longer coordinate (a binary search in sorted coordinates).
        bidx = np.where(self.edge_on_boundary)[0]
        cand = np.where(self.vertex_on_boundary)[0]
        if len(bidx) == 0 or len(cand) == 0:
            return
        ends = self.vertices[self.edges[bidx]]
        a, d = ends[:, 0], ends[:, 1] - ends[:, 0]
        length = self.edge_length[bidx]
        rows = np.arange(len(bidx))
        axis = (np.abs(d[:, 1]) > np.abs(d[:, 0])).astype(np.int64)
        pad = 1e-6 * length  # far wider than the 1e-10 tolerance below
        slab = (np.sort(ends[rows, :, axis]) + np.stack([-pad, pad], 1)).T
        order = np.argsort(self.vertices[cand], axis=0)
        coord = np.take_along_axis(self.vertices[cand], order, axis=0)
        lo, hi = np.where(axis == 1, np.searchsorted(coord[:, 1], slab),
                          np.searchsorted(coord[:, 0], slab))
        counts = hi - lo
        e = np.repeat(rows, counts)  # pair i: sorted row lo[e] + i - start[e]
        c = order[np.arange(len(e))
                  - np.repeat(np.cumsum(counts) - counts - lo, counts), axis[e]]
        rel = self.vertices[cand[c]] - a[e]
        tpar = (rel * d[e]).sum(-1) / length[e]**2
        perp = rel[:, 0] * d[e, 1] - rel[:, 1] * d[e, 0]
        dist = np.abs(perp) / length[e]
        inside = (tpar > 1e-10) & (tpar < 1.0 - 1e-10) & (dist < 1e-10 * length[e])
        if inside.any():
            e, c = min(zip(e[inside], c[inside]))
            raise MeshError(
                f"hanging vertex {cand[c]} on edge {tuple(self.edges[bidx[e]])}"
            )


def build_topology(vertices, triangles, refinement_edge=None):
    """Build a :class:`Triangulation` from raw vertex/triangle arrays."""
    return Triangulation(vertices, triangles, refinement_edge)


def uniform_refine(mesh):
    """Red refinement: split every triangle into four similar children.

    Children inherit the parent's refinement-edge index (child edge ``k`` is
    parallel to parent edge ``k``), so similarity classes are preserved.
    """
    v, t = mesh.vertices, mesh.triangles
    nv, nt = mesh.n_vertices, mesh.n_triangles
    midpoints = 0.5 * (v[mesh.edges[:, 0]] + v[mesh.edges[:, 1]])
    new_vertices = np.vstack([v, midpoints])
    m = nv + mesh.tri_edges  # midpoint vertex of local edge k
    children = np.empty((nt, 4, 3), dtype=np.int64)
    children[:, 0] = np.column_stack([t[:, 0], m[:, 2], m[:, 1]])
    children[:, 1] = np.column_stack([m[:, 2], t[:, 1], m[:, 0]])
    children[:, 2] = np.column_stack([m[:, 1], m[:, 0], t[:, 2]])
    children[:, 3] = m
    tags = np.repeat(mesh.refinement_edge, 4)
    return Triangulation(new_vertices, children.reshape(-1, 3), tags)


def nvb_refine(mesh, marked):
    """Newest-vertex bisection of the marked triangles, with closure.

    Every marked triangle is bisected at least once through its refinement
    edge; further bisections are added until the mesh is conforming.
    Unmarked, untouched triangles are carried over unchanged.

    Parameters
    ----------
    marked : array_like of int
        Triangle indices to refine.  An empty set returns ``mesh`` itself.
    """
    marked = np.unique(np.asarray(marked, dtype=np.int64).ravel())
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.n_triangles:
        raise MeshError("marked triangle index out of range")

    nt, nv, ne = mesh.n_triangles, mesh.n_vertices, mesh.n_edges
    ref_edge = mesh.tri_edges[np.arange(nt), mesh.refinement_edge]
    edge_marked = np.zeros(ne, dtype=bool)
    edge_marked[ref_edge[marked]] = True

    # Closure: a triangle with any marked edge must bisect its refinement
    # edge as well; iterate to a fixpoint.
    for _ in range(10 * nv):
        touched = edge_marked[mesh.tri_edges].any(axis=1)
        need = touched & ~edge_marked[ref_edge]
        if not need.any():
            break
        edge_marked[ref_edge[need]] = True
    else:
        raise MeshError("bisection closure did not terminate "
                        "(corrupt refinement-edge tags)")

    cut = np.where(edge_marked)[0]
    edge_vertex = np.full(ne, -1, dtype=np.int64)
    edge_vertex[cut] = nv + np.arange(len(cut))
    new_vertices = np.vstack([
        mesh.vertices,
        0.5 * (mesh.vertices[mesh.edges[cut, 0]] + mesh.vertices[mesh.edges[cut, 1]]),
    ])

    tris, tags = [], []
    tri_edges = mesh.tri_edges
    triangles = mesh.triangles
    tags_in = mesh.refinement_edge

    for ti in range(nt):
        if not edge_marked[tri_edges[ti]].any():
            tris.append(tuple(triangles[ti]))
            tags.append(tags_in[ti])
            continue
        # Bisect through the refinement edge (opposite the peak p); a child
        # is bisected again when its own refinement edge (a parent flank)
        # was marked during closure.
        k = tags_in[ti]
        tri = triangles[ti]
        p, a, b = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
        m = edge_vertex[tri_edges[ti, k]]
        # child A keeps flank (p, a) = parent edge (k+2)%3 as refinement edge,
        # child B keeps flank (b, p) = parent edge (k+1)%3.
        flank_a = tri_edges[ti, (k + 2) % 3]
        flank_b = tri_edges[ti, (k + 1) % 3]
        if edge_marked[flank_a]:
            q = edge_vertex[flank_a]
            tris.extend([(m, p, q), (m, q, a)])
            tags.extend([2, 1])
        else:
            tris.append((p, a, m))
            tags.append(2)
        if edge_marked[flank_b]:
            q = edge_vertex[flank_b]
            tris.extend([(m, b, q), (m, q, p)])
            tags.extend([2, 1])
        else:
            tris.append((p, m, b))
            tags.append(1)

    return Triangulation(new_vertices, np.array(tris, dtype=np.int64),
                         np.array(tags, dtype=np.int64))


def shape_regularity(mesh):
    """Smallest interior angle of the mesh, in radians."""
    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    angles = np.empty((mesh.n_triangles, 3))
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        w = p[:, (k + 2) % 3] - p[:, k]
        cosangle = (u * w).sum(1) / (np.hypot(u[:, 0], u[:, 1]) *
                                     np.hypot(w[:, 0], w[:, 1]))
        angles[:, k] = np.arccos(np.clip(cosangle, -1.0, 1.0))
    return float(angles.min())


def read_mesh(path):
    """Read the plain-text mesh format.

    Line 1 is ``nv nt``, followed by ``nv`` lines ``x y`` and ``nt`` lines
    ``i j k`` (0-based, counterclockwise).  Boundary detection is
    topological, not stored.
    """
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise MeshError(f"{path}: truncated mesh file")
    nv, nt = int(tokens[0]), int(tokens[1])
    need = 2 + 2 * nv + 3 * nt
    if len(tokens) < need:
        raise MeshError(f"{path}: expected {need} tokens, found {len(tokens)}")
    coords = np.array(tokens[2:2 + 2 * nv], dtype=float).reshape(nv, 2)
    tris = np.array(tokens[2 + 2 * nv:need], dtype=np.int64).reshape(nt, 3)
    return Triangulation(coords, tris)


def write_mesh(mesh, path):
    """Write the plain-text mesh format (see :func:`read_mesh`)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_triangles}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")


def two_triangle_square():
    """Unit square split by one diagonal: 4 vertices, 2 triangles."""
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    triangles = [(0, 1, 2), (0, 2, 3)]
    return Triangulation(vertices, triangles)


def unit_square_mesh():
    """Criss-cross start mesh of the unit square.

    The square is cut into 2x2 congruent sub-squares and every sub-square is
    split by its bottom-left to top-right diagonal: 9 vertices, 8 triangles.
    """
    xs = np.linspace(0.0, 1.0, 3)
    vertices = np.array([(x, y) for y in xs for x in xs])
    triangles = []
    for j in range(2):
        for i in range(2):
            bl = 3 * j + i
            br, tr, tl = bl + 1, bl + 4, bl + 3
            triangles += [(bl, br, tr), (bl, tr, tl)]
    return Triangulation(vertices, triangles)


def lshape_mesh():
    """Start mesh of the L-shaped domain (-1,1)^2 minus [0,1)x(-1,0].

    Three unit sub-squares, each split by its bottom-left to top-right
    diagonal: 8 vertices, 6 triangles, reentrant corner at the origin.
    """
    vertices = [(-1.0, -1.0), (0.0, -1.0), (0.0, 0.0), (1.0, 0.0),
                (1.0, 1.0), (-1.0, 1.0), (-1.0, 0.0), (0.0, 1.0)]
    triangles = [(0, 1, 2), (0, 2, 6),
                 (6, 2, 7), (6, 7, 5),
                 (2, 3, 4), (2, 4, 7)]
    return Triangulation(vertices, triangles)
