"""Quadratic element bases and degree-of-freedom maps.

Three P2 families share one machinery:

* ``morley`` -- the nonconforming basis with vertex values and edge-mean
  normal derivatives as degrees of freedom; boundary vertices and boundary
  edge means are constrained to zero,
* ``c0ip`` -- continuous Lagrange P2 with all boundary nodes constrained
  (values in H^1_0),
* ``dg`` -- fully discontinuous Lagrange P2, six consecutive dofs per
  triangle, triangles in nested-dissection order.

Constrained local dofs map to the sentinel ``-1`` and are skipped during
assembly.  Local dof order is always three vertex functions followed by the
function attached to local edge 0, 1, 2 (edge ``k`` opposite vertex ``k``).
Morley edge dofs use the mesh's global edge normal, so the two elements
sharing an edge see the same functional and no sign flips are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Triangulation
from .quadrature import edge_rule, triangle_rule

__all__ = ["METHODS", "DofMap", "build_dofmap", "ElementBasis", "EdgeBasis",
           "morley_interpolate", "nodal_interpolate", "p2_values",
           "p2_ref_gradients", "P2_REF_HESSIANS", "REF_NODES", "EDGE_RULE",
           "EDGE_POINTS", "gather_coefficients", "element_hessians",
           "edge_jumps", "bracket", "to_dg_coefficients", "load_values",
           "rule_points"]

METHODS = ("morley", "c0ip", "dg")

#: Reference nodes: vertices then midpoints of local edges 0, 1, 2.
REF_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])

#: Constant reference Hessians as (xx, yy, xy) triplets, shape (6, 3).
P2_REF_HESSIANS = np.array([
    [4.0, 4.0, 4.0],
    [4.0, 0.0, 0.0],
    [0.0, 4.0, 0.0],
    [0.0, 0.0, 4.0],
    [0.0, -8.0, -4.0],
    [-8.0, 0.0, -4.0],
])

_EDGE_MIDPOINTS_REF = REF_NODES[3:]

#: Gauss rule of every edge integral: exact for two quadratic traces.
EDGE_RULE = edge_rule(5)
#: Edge parameters of every dof map's :class:`EdgeBasis`: the points of
#: :data:`EDGE_RULE`, then both endpoints (for vertex-value jumps).
EDGE_POINTS = np.concatenate([EDGE_RULE.points, [0.0, 1.0]])
EDGE_POINTS.setflags(write=False)


def p2_values(points):
    """Lagrange P2 shape values at reference points, shape (..., 6)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    l0 = 1.0 - x - y
    return np.stack([
        l0 * (2.0 * l0 - 1.0),
        x * (2.0 * x - 1.0),
        y * (2.0 * y - 1.0),
        4.0 * x * y,
        4.0 * y * l0,
        4.0 * l0 * x,
    ], axis=-1)


def p2_ref_gradients(points):
    """Reference gradients of the Lagrange P2 shapes, shape (..., 6, 2)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    l0 = 1.0 - x - y
    g = np.empty(pts.shape[:-1] + (6, 2))
    g[..., 0, 0] = 1.0 - 4.0 * l0
    g[..., 0, 1] = 1.0 - 4.0 * l0
    g[..., 1, 0] = 4.0 * x - 1.0
    g[..., 1, 1] = 0.0
    g[..., 2, 0] = 0.0
    g[..., 2, 1] = 4.0 * y - 1.0
    g[..., 3, 0] = 4.0 * y
    g[..., 3, 1] = 4.0 * x
    g[..., 4, 0] = -4.0 * y
    g[..., 4, 1] = 4.0 * (l0 - y)
    g[..., 5, 0] = 4.0 * (l0 - x)
    g[..., 5, 1] = -4.0 * x
    return g


@dataclass
class DofMap:
    """Method-specific map from element-local dofs to global indices.

    ``element_dofs[t, i]`` is the global dof of local function ``i`` on
    triangle ``t``, or ``-1`` when that dof is constrained to zero by the
    boundary conditions.  Numbering is deterministic: interior vertices in
    vertex order, then interior edges in edge order (``dg``: six consecutive
    dofs per triangle, triangles in nested-dissection order, so the numbering
    itself is a fill-reducing order of the ``dg`` matrices).

    It is the context of its mesh and method: assembly, estimates and norms
    read its read-only ``basis`` and ``edge_basis``, each built on first use.
    """
    mesh: Triangulation
    method: str
    n_global: int
    element_dofs: np.ndarray
    vertex_dof: np.ndarray | None = field(default=None, repr=False)
    edge_dof: np.ndarray | None = field(default=None, repr=False)
    _basis: ElementBasis | None = field(default=None, init=False, repr=False,
                                        compare=False)
    _edge_basis: EdgeBasis | None = field(default=None, init=False,
                                          repr=False, compare=False)

    def __post_init__(self):
        self.element_dofs.setflags(write=False)

    @property
    def column_order(self):
        """SuperLU column order (``permc_spec``) of this method's systems:
        ``NATURAL`` for ``dg``, whose numbering already reduces fill, minimum
        degree on ``A^T + A`` for the others."""
        return "NATURAL" if self.method == "dg" else "MMD_AT_PLUS_A"

    @property
    def basis(self):
        """The :class:`ElementBasis` of this dof map."""
        if self._basis is None:
            self._basis = ElementBasis(self)
        return self._basis

    @property
    def edge_basis(self):
        """The :class:`EdgeBasis` of this dof map at :data:`EDGE_POINTS`."""
        if self._edge_basis is None:
            self._edge_basis = EdgeBasis(self.basis, EDGE_POINTS)
        return self._edge_basis


def build_dofmap(mesh, method):
    """Build the :class:`DofMap` of one of the three methods."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    nt = mesh.n_triangles
    if method == "dg":
        rank = np.empty(nt, dtype=np.int64)
        rank[_nested_dissection(mesh)] = np.arange(nt)
        element_dofs = 6 * rank[:, None] + np.arange(6)
        return DofMap(mesh, method, 6 * nt, element_dofs)
    vertex_dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    interior_v = ~mesh.vertex_on_boundary
    vertex_dof[interior_v] = np.arange(interior_v.sum())
    edge_dof = np.full(mesh.n_edges, -1, dtype=np.int64)
    interior_e = ~mesh.edge_on_boundary
    edge_dof[interior_e] = interior_v.sum() + np.arange(interior_e.sum())
    element_dofs = np.empty((nt, 6), dtype=np.int64)
    element_dofs[:, :3] = vertex_dof[mesh.triangles]
    element_dofs[:, 3:] = edge_dof[mesh.tri_edges]
    n_global = int(interior_v.sum() + interior_e.sum())
    return DofMap(mesh, method, n_global, element_dofs, vertex_dof, edge_dof)


def _nested_dissection(mesh):
    """The triangles in nested-dissection order of their edge adjacency.

    Recursive coordinate bisection of the centroids: a part splits at the
    median of its longer extent (stable sort).  The triangles of one half
    that share an edge with the other half, taken from the half with fewer
    of them, form its separator, numbered after both halves.  Parts of at
    most 8 triangles keep mesh order.

    The parts of one depth are split together, by one sort; each triangle
    records its path (0 lower half, 1 upper half, 2 separator) and the
    order is the lexicographic order of the paths, which numbers every
    part's lower half, then its upper half, then its separator.
    """
    nt = mesh.n_triangles
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    pairs = mesh.edge_tris[mesh.edge_tris[:, 1] >= 0]  # both in one part
    label = np.zeros(nt, dtype=np.int8)  # 0 lower, 1 upper, 2 separator
    paths = []
    # the triangles of the parts still to split, part by part, each part in
    # the order its parent's sort left it
    tris, part = np.arange(nt), np.zeros(nt, dtype=np.int64)
    while True:
        big = np.bincount(part)[part] > 8
        tris, part = tris[big], part[big]
        if not len(tris):
            break
        first = np.r_[True, part[1:] != part[:-1]]
        part, start = np.cumsum(first) - 1, np.flatnonzero(first)
        size = np.diff(np.r_[start, len(tris)])
        pts = centroids[tris]
        extent = (np.maximum.reduceat(pts, start)
                  - np.minimum.reduceat(pts, start))
        axis = np.argmax(extent, axis=1)[part]
        order = np.lexsort((pts[np.arange(len(tris)), axis], part))
        tris = tris[order]
        label[tris] = np.arange(len(tris)) - start[part] >= size[part] // 2

        side = label[pairs]
        cut = np.zeros(nt, dtype=bool)
        cut[pairs[side[:, 0] != side[:, 1]]] = True
        # each part's separator: the cut triangles of its half with fewer
        counts = np.bincount(2 * part + label[tris], weights=cut[tris],
                             minlength=2 * len(start)).reshape(-1, 2)
        sep = cut[tris] & (label[tris] == (counts[:, 1] < counts[:, 0])[part])
        label[tris[sep]] = 2
        path = np.zeros(nt, dtype=np.int8)
        path[tris] = label[tris]
        paths.append(path)

        side = label[pairs]
        pairs = pairs[(side[:, 0] == side[:, 1]) & (side[:, 0] != 2)]
        tris, part = tris[~sep], 2 * part[~sep] + label[tris[~sep]]
    return np.lexsort([np.arange(nt)] + paths[::-1])


def _affine_maps(mesh):
    """Origin ``p0`` and Jacobian of ``x = p0 + jac @ (xi, eta)`` per
    triangle."""
    v, t = mesh.vertices, mesh.triangles
    p0 = v[t[:, 0]]
    return p0, np.stack([v[t[:, 1]] - p0, v[t[:, 2]] - p0], axis=-1)


def _map_points(p0, jac, ref_points):
    ref = np.asarray(ref_points, dtype=float)
    return p0[:, None, :] + np.einsum("tab,mb->tma", jac, ref)


def rule_points(mesh, quad_degree=8):
    """Physical points of the degree-``quad_degree`` triangle rule on every
    triangle of ``mesh``, shape ``(n_triangles, n_rule_points, 2)``."""
    rule = triangle_rule(quad_degree)
    return _map_points(*_affine_maps(mesh), rule.points[:, 1:])


def load_values(load, mesh, quad_degree=8):
    """A load at the points of the degree-``quad_degree`` triangle rule.

    ``load`` is a vectorised callable ``(x, y) -> array``, which is called at
    the physical rule points of every triangle, or its values there: an
    array of shape ``(n_triangles, n_rule_points)``, returned as floats.
    Any other shape raises ``ValueError``.  The points depend only on the
    mesh and the degree, so values computed once serve every consumer on
    the same mesh (assembly, estimator, oscillation) bit for bit.
    """
    if callable(load):
        pts = rule_points(mesh, quad_degree)
        return np.asarray(load(pts[..., 0], pts[..., 1]), dtype=float)
    values = np.asarray(load, dtype=float)
    expected = (mesh.n_triangles, len(triangle_rule(quad_degree).points))
    if values.shape != expected:
        raise ValueError(
            f"load values have shape {values.shape}, expected {expected} "
            f"(triangles, points of the degree-{quad_degree} rule)")
    return values


class ElementBasis:
    """Per-element shape data of a dof map, in physical coordinates.

    For ``c0ip``/``dg`` this is the Lagrange frame; for ``morley`` the six
    Morley shapes are expressed in the Lagrange frame through a per-element
    transform obtained by inverting the 6x6 dual-pairing matrix (point values
    at the vertices, mean normal derivatives over the edges).

    It keeps ``mesh`` and ``element_dofs``, not the dof map that holds it.

    Attributes
    ----------
    area : ndarray (nt,)
    jac, jac_inv : ndarray (nt, 2, 2)
        Affine map ``x = p0 + jac @ (xi, eta)`` and its inverse.
    hessians : ndarray (nt, 6, 3)
        Constant physical Hessians as (xx, yy, xy) triplets.
    int_phi : ndarray (nt, 6)
        Exact integrals of the shape functions over their triangle.
    transform : ndarray (nt, 6, 6) or None
        Morley-from-Lagrange coefficients, ``None`` for Lagrange frames.
    """

    def __init__(self, dofmap):
        mesh = dofmap.mesh
        self.mesh, self.element_dofs = mesh, dofmap.element_dofs
        p0, jac = _affine_maps(mesh)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        jac_inv = np.empty_like(jac)
        jac_inv[:, 0, 0] = jac[:, 1, 1] / det
        jac_inv[:, 0, 1] = -jac[:, 0, 1] / det
        jac_inv[:, 1, 0] = -jac[:, 1, 0] / det
        jac_inv[:, 1, 1] = jac[:, 0, 0] / det
        self.p0, self.jac, self.jac_inv = p0, jac, jac_inv
        self.area = mesh.area

        href = np.empty((6, 2, 2))
        href[:, 0, 0] = P2_REF_HESSIANS[:, 0]
        href[:, 1, 1] = P2_REF_HESSIANS[:, 1]
        href[:, 0, 1] = href[:, 1, 0] = P2_REF_HESSIANS[:, 2]
        hphys = np.einsum("tba,jbc,tcd->tjad", jac_inv, href, jac_inv)
        lag_hess = np.stack([hphys[:, :, 0, 0], hphys[:, :, 1, 1],
                             hphys[:, :, 0, 1]], axis=-1)

        lag_int = np.zeros((mesh.n_triangles, 6))
        lag_int[:, 3:] = self.area[:, None] / 3.0

        if dofmap.method == "morley":
            self.transform = self._morley_transform(mesh, lag_hess)
            self.hessians = np.einsum("tjk,tkc->tjc", self.transform, lag_hess)
            self.int_phi = np.einsum("tjk,tk->tj", self.transform, lag_int)
            self.transform.setflags(write=False)
        else:
            self.transform = None
            self.hessians = lag_hess
            self.int_phi = lag_int
        for arr in (p0, jac, jac_inv, self.hessians, self.int_phi):
            arr.setflags(write=False)

    def _morley_transform(self, mesh, lag_hess):
        # Dual pairing C[i, j] = functional_i(lagrange_j): rows 0..2 are
        # vertex values, rows 3..5 edge means of the normal derivative (the
        # gradient of a P2 function is linear, so the mean is its midpoint
        # value).
        nt = mesh.n_triangles
        gm = p2_ref_gradients(_EDGE_MIDPOINTS_REF)          # (3, 6, 2)
        gphys = np.einsum("tba,kjb->tkja", self.jac_inv, gm)
        normals = mesh.edge_normal[mesh.tri_edges]           # (nt, 3, 2)
        pairing = np.zeros((nt, 6, 6))
        pairing[:, :3, :3] = np.eye(3)
        pairing[:, 3:, :] = np.einsum("tkja,tka->tkj", gphys, normals)
        return np.linalg.inv(pairing).transpose(0, 2, 1)

    def physical_points(self, ref_points):
        """Map reference points to physical ones, shape (nt, m, 2)."""
        return _map_points(self.p0, self.jac, ref_points)

    def values(self, ref_points):
        """Shape values at reference points, shape (nt, m, 6)."""
        vals = p2_values(ref_points)
        if self.transform is None:
            return np.broadcast_to(vals, (len(self.area),) + vals.shape).copy()
        return np.einsum("tjk,mk->tmj", self.transform, vals)

    def gradients(self, ref_points):
        """Physical gradients at reference points, shape (nt, m, 6, 2)."""
        g = p2_ref_gradients(ref_points)
        gphys = np.einsum("tba,mjb->tmja", self.jac_inv, g)
        if self.transform is None:
            return gphys
        return np.einsum("tjk,tmka->tmja", self.transform, gphys)


class EdgeBasis:
    """Traces of the element basis on both sides of every edge.

    Evaluation points are ``a + t * (b - a)`` for the sorted edge vertices
    ``(a, b)``, identical for both sides, so jumps and averages pair up
    pointwise.  Side 0 is the lower-indexed adjacent triangle (the one the
    edge normal points away from); on boundary edges side 1 carries zeros and
    dof index ``-1``.
    """

    def __init__(self, basis, tpoints):
        mesh = basis.mesh
        self.mesh = mesh
        t = np.asarray(tpoints, dtype=float)
        a = mesh.vertices[mesh.edges[:, 0]]
        b = mesh.vertices[mesh.edges[:, 1]]
        points = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
        points.setflags(write=False)
        self.points = points

        self.values, self.gradients, self.hessians, self.dofs = zip(
            *(self._side(basis, mesh.edge_tris[:, side]) for side in (0, 1)))

    def _side(self, basis, tri):
        """Read-only values, gradients, Hessians and dofs of the shapes of
        the triangles ``tri`` (``-1``: none, all zero) at the edge points."""
        valid = tri >= 0
        tt = np.where(valid, tri, 0)
        ref = np.einsum("eab,eqb->eqa", basis.jac_inv[tt],
                        self.points - basis.p0[tt][:, None, :])
        vals = p2_values(ref)
        grads = np.einsum("eba,eqjb->eqja", basis.jac_inv[tt],
                          p2_ref_gradients(ref))
        if basis.transform is not None:
            w = basis.transform[tt]
            vals = np.einsum("ejk,eqk->eqj", w, vals)
            grads = np.einsum("ejk,eqka->eqja", w, grads)
        hess = basis.hessians[tt]
        dofs = basis.element_dofs[tt]
        vals[~valid] = 0.0
        grads[~valid] = 0.0
        hess[~valid] = 0.0
        dofs[~valid] = -1
        for arr in (vals, grads, hess, dofs):
            arr.setflags(write=False)
        return vals, grads, hess, dofs


def gather_coefficients(dofs, coefficients):
    """The coefficients of an array of global dofs, such as a dof map's
    ``element_dofs``, with constrained dofs (``-1``) as zero: ``-1`` picks
    the zero appended to the coefficients, which also serves a dof map with
    no free dofs."""
    return np.append(np.asarray(coefficients, dtype=float), 0.0)[dofs]


def element_hessians(basis, coefficients):
    """Constant Hessian (xx, yy, xy) of a discrete field per element."""
    local = gather_coefficients(basis.element_dofs, coefficients)
    return np.einsum("tj,tjc->tc", local, basis.hessians)


def edge_jumps(edge_basis, coefficients):
    """Jumps ``side 0 - side 1`` of a discrete field's value at every point
    of an edge table, shape ``(ne, m)``, and of its gradient at the first
    ``len(EDGE_RULE.points)`` points (the rule's, in a dof map's table),
    shape ``(ne, nq, 2)``: only vertex-value jumps read the endpoints.

    On a boundary edge the jump is the side-0 trace.
    """
    nq = len(EDGE_RULE.points)
    vj, gj = 0.0, 0.0
    for side, sign in ((0, 1.0), (1, -1.0)):
        local = gather_coefficients(edge_basis.dofs[side], coefficients)
        vj = vj + sign * np.einsum("eqj,ej->eq", edge_basis.values[side],
                                   local)
        gj = gj + sign * np.einsum(
            "eqja,ej->eqa", edge_basis.gradients[side][:, :nq], local)
    return vj, gj


def bracket(hess_a, hess_b):
    """The bracket ``a_xx b_yy + a_yy b_xx - 2 a_xy b_xy`` of two Hessians
    given as (xx, yy, xy) triplets."""
    return hess_a[..., 0] * hess_b[..., 1] + hess_a[..., 1] * hess_b[..., 0] \
        - 2.0 * hess_a[..., 2] * hess_b[..., 2]


def morley_interpolate(value, gradient, dofmap, degree=10):
    """Interpolate a function into the Morley space of a dof map's mesh.

    Vertex dofs take the point value, edge dofs the mean of the normal
    derivative along the edge (Gauss rule of the given degree).  Boundary
    dofs are constrained and therefore dropped, so functions with
    homogeneous clamped data are reproduced in the element-wise sense.

    Parameters
    ----------
    value : callable
        ``value(x, y) -> array``.
    gradient : callable
        ``gradient(x, y) -> array (..., 2)``.
    """
    if dofmap.method != "morley":
        raise ValueError("morley_interpolate needs a 'morley' dof map")
    mesh = dofmap.mesh
    coef = np.zeros(dofmap.n_global)
    free_v = np.where(dofmap.vertex_dof >= 0)[0]
    coef[dofmap.vertex_dof[free_v]] = value(mesh.vertices[free_v, 0],
                                            mesh.vertices[free_v, 1])
    free_e = np.where(dofmap.edge_dof >= 0)[0]
    if len(free_e):
        rule = edge_rule(degree)
        a = mesh.vertices[mesh.edges[free_e, 0]]
        b = mesh.vertices[mesh.edges[free_e, 1]]
        pts = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
        grads = np.asarray(gradient(pts[..., 0], pts[..., 1]))
        means = np.einsum("q,eqa,ea->e", rule.weights, grads,
                          mesh.edge_normal[free_e])
        coef[dofmap.edge_dof[free_e]] = means
    return coef


def to_dg_coefficients(dofmap, coefficients):
    """Re-express a discrete field in the discontinuous Lagrange frame.

    Evaluates the field at the six Lagrange nodes of every element, which is
    exact for P2 fields of any of the three methods; useful for comparing
    solutions across methods in one norm.  The result is numbered as
    ``build_dofmap(dofmap.mesh, "dg")`` numbers its dofs.
    """
    local = gather_coefficients(dofmap.element_dofs, coefficients)
    node_vals = dofmap.basis.values(REF_NODES)
    dg = build_dofmap(dofmap.mesh, "dg")
    coef = np.empty(dg.n_global)
    coef[dg.element_dofs] = np.einsum("tqj,tj->tq", node_vals, local)
    return coef


def nodal_interpolate(value, dofmap):
    """Lagrange nodal interpolation for the ``c0ip`` or ``dg`` dof maps."""
    if dofmap.method == "morley":
        raise ValueError("nodal_interpolate needs a Lagrange-frame dof map")
    mesh = dofmap.mesh
    coef = np.zeros(dofmap.n_global)
    if dofmap.method == "dg":
        nodes = dofmap.basis.physical_points(REF_NODES)
        coef[dofmap.element_dofs] = value(nodes[..., 0], nodes[..., 1])
        return coef
    free_v = np.where(dofmap.vertex_dof >= 0)[0]
    coef[dofmap.vertex_dof[free_v]] = value(mesh.vertices[free_v, 0],
                                            mesh.vertices[free_v, 1])
    free_e = np.where(dofmap.edge_dof >= 0)[0]
    mids = 0.5 * (mesh.vertices[mesh.edges[free_e, 0]] +
                  mesh.vertices[mesh.edges[free_e, 1]])
    coef[dofmap.edge_dof[free_e]] = value(mids[:, 0], mids[:, 1])
    return coef
