"""Quadratic element bases and degree-of-freedom maps.

Three P2 families share one machinery:

* ``morley`` -- the nonconforming basis with vertex values and edge-mean
  normal derivatives as degrees of freedom; boundary vertices and boundary
  edge means are constrained to zero,
* ``c0ip`` -- continuous Lagrange P2 with all boundary nodes constrained
  (values in H^1_0),
* ``dg`` -- fully discontinuous Lagrange P2, six consecutive dofs per
  triangle, triangles in minimum-degree order of their edge adjacency.

Constrained local dofs map to the sentinel ``-1`` and are skipped during
assembly.  Local dof order is always three vertex functions followed by the
function attached to local edge 0, 1, 2 (edge ``k`` opposite vertex ``k``).
Morley edge dofs use the mesh's global edge normal, so the two elements
sharing an edge see the same functional and no sign flips are needed.

The frame is the mesh's: its affine maps and, per side of every edge, the
triangle, local edge and run (see :class:`~vkfem.mesh.Triangulation`).  The
bases keep what the method adds: the :class:`ElementBasis` its Hessians,
shape integrals and Morley transforms, the :class:`EdgeBasis` two tables of
the Lagrange shapes on the three local edges of the reference triangle.
They are built by ``@`` on stacked arrays: all Jacobians' rows as one
``(2 nt, 2)`` matrix times the points, one ``(points x shapes, 2)`` block per
element for gradients, and Morley transforms batched over elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Triangulation
from .quadrature import edge_rule, triangle_rule

__all__ = ["METHODS", "DofMap", "build_dofmap", "ElementBasis", "EdgeBasis",
           "morley_interpolate", "nodal_interpolate", "p2_values",
           "p2_ref_gradients", "P2_REF_HESSIANS", "FROB_WEIGHTS", "REF_NODES",
           "EDGE_RULE", "VOLUME_RULE", "gather_coefficients",
           "element_hessians", "edge_jumps", "bracket", "to_dg_coefficients",
           "load_values", "rule_points", "rule_point_blocks", "BLOCK_POINTS"]

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

#: Weights of the (xx, yy, xy) products in the Frobenius product of two
#: Hessian triplets: the off-diagonal entry counts twice.
FROB_WEIGHTS = np.array([1.0, 1.0, 2.0])

_EDGE_MIDPOINTS_REF = REF_NODES[3:]

#: Gauss rule of every edge integral: exact for two quadratic traces, and
#: the points of every dof map's :class:`EdgeBasis`.
EDGE_RULE = edge_rule(5)

#: Degree-8 triangle rule of every volume integral of the data path: the
#: loads, the estimator, the oscillation and the error norms.
VOLUME_RULE = triangle_rule(8)

#: Points per block of :func:`rule_point_blocks`, which bounds what a pass
#: of the exact fields holds at once.
BLOCK_POINTS = 8192

#: Gauss rule of the edge-mean normal derivatives of ``morley_interpolate``.
_INTERPOLATION_EDGE_RULE = edge_rule(10)


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
    dofs per triangle, triangles in the minimum-degree order of their edge
    adjacency, so the numbering itself is a fill-reducing order of the
    ``dg`` matrices whose supernodes keep each triangle's six dofs
    together).

    It is the context of its mesh and method: assembly, estimates and norms
    read its read-only ``basis`` and ``edge_basis``, each built on first use.
    The first assembly of its stiffness matrix keeps that matrix's CSC
    structure and the data slots of the element entries in it (see
    :mod:`vkfem.assembly`), for the Newton steps and the cubic coupling.
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
    _structure: tuple | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        self.element_dofs.setflags(write=False)

    @property
    def column_order(self):
        """SuperLU column order (``permc_spec``) of this method's systems:
        ``NATURAL`` for ``dg``, whose numbering is already minimum degree on
        the triangles, minimum degree on ``A^T + A`` for the others."""
        return "NATURAL" if self.method == "dg" else "MMD_AT_PLUS_A"

    @property
    def basis(self):
        """The :class:`ElementBasis` of this dof map."""
        if self._basis is None:
            self._basis = ElementBasis(self)
        return self._basis

    @property
    def edge_basis(self):
        """The :class:`EdgeBasis` of this dof map at the points of
        :data:`EDGE_RULE`."""
        if self._edge_basis is None:
            self._edge_basis = EdgeBasis(self.basis, EDGE_RULE.points)
        return self._edge_basis


def build_dofmap(mesh, method):
    """Build the :class:`DofMap` of one of the three methods."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    nt = mesh.n_triangles
    if method == "dg":
        rank = _minimum_degree(mesh).astype(np.int64)
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


def _minimum_degree(mesh):
    """The rank of each triangle in the multiple-minimum-degree order of its
    edge adjacency: SuperLU's column order ``MMD_AT_PLUS_A`` (``perm_c``,
    the new position of each column) of ``4 I - A``, ``A[s, t] = 1`` when
    triangles ``s`` and ``t`` share an edge; at most three neighbours make
    it symmetric and strictly diagonally dominant, so no pivot is zero."""
    nt = mesh.n_triangles
    s, t = mesh.edge_tris[mesh.edge_tris[:, 1] >= 0].T
    graph = sp.csc_matrix((np.r_[np.full(nt, 4.0), -np.ones(2 * len(s))],
                           (np.r_[np.arange(nt), s, t],
                            np.r_[np.arange(nt), t, s])), shape=(nt, nt))
    return spla.splu(graph, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True}).perm_c


def _map_points(mesh, ref_points):
    """Reference points mapped to every triangle of ``mesh``, shape
    ``(n_triangles, len(ref_points), 2)``."""
    ref = np.asarray(ref_points, dtype=float)
    lin = (mesh.jac.reshape(-1, 2) @ ref.T).reshape(-1, 2, len(ref))
    return mesh.vertices[mesh.triangles[:, 0], None] + lin.transpose(0, 2, 1)


def rule_points(mesh):
    """Physical points of ``VOLUME_RULE`` on every triangle of ``mesh``,
    shape ``(n_triangles, n_rule_points, 2)``."""
    return _map_points(mesh, VOLUME_RULE.points[:, 1:])


def rule_point_blocks(mesh):
    """:func:`rule_points` in blocks of whole triangles, at most
    :data:`BLOCK_POINTS` points (one triangle) each: per block the slice of
    its triangles and the coordinates ``x, y``."""
    pts = rule_points(mesh)
    step = max(1, BLOCK_POINTS // pts.shape[1])
    for start in range(0, len(pts), step):
        block = pts[start:start + step]
        yield slice(start, start + step), block[..., 0], block[..., 1]


def rule_values(values, shape):
    """``values`` as floats, or ``ValueError`` if not of ``shape`` or not
    all finite."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(
            f"load values have shape {values.shape}, expected {shape} "
            f"(triangles, points of the volume rule)")
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(
            f"{finite.size - np.count_nonzero(finite)} of {finite.size} load "
            f"values at the points of the volume rule are not finite")
    return values


def load_values(load, mesh):
    """A load at the points of ``VOLUME_RULE``.

    ``load`` is a vectorised callable ``(x, y) -> array``, which is called at
    each block of :func:`rule_point_blocks`, or its values there: an array
    of shape ``(n_triangles, n_rule_points)``, returned as floats.  Any
    other shape or a value that is not finite, given or returned by the
    callable, raises ``ValueError``.
    The points depend only on the mesh, so values computed once serve every
    consumer on the same mesh (assembly, estimator, oscillation) bit for
    bit.
    """
    if callable(load):
        return np.concatenate([rule_values(load(x, y), x.shape)
                               for _, x, y in rule_point_blocks(mesh)])
    return rule_values(load, (mesh.n_triangles, len(VOLUME_RULE.points)))


class ElementBasis:
    """Per-element shape data of a dof map, in physical coordinates.

    For ``c0ip``/``dg`` this is the Lagrange frame; for ``morley`` the six
    Morley shapes are expressed in the Lagrange frame through a per-element
    transform obtained by inverting the 6x6 dual-pairing matrix (point values
    at the vertices, mean normal derivatives over the edges) through its
    3x3 block of edge functionals on edge shapes.

    It keeps ``mesh`` and ``element_dofs``, not the dof map that holds it.

    Attributes
    ----------
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
        jac_inv = mesh.jac_inv
        href = P2_REF_HESSIANS[:, [[0, 2], [2, 1]]]  # (6, 2, 2) matrices
        hphys = jac_inv.transpose(0, 2, 1)[:, None] @ href @ jac_inv[:, None]
        lag_hess = hphys[:, :, [0, 1, 0], [0, 1, 1]]  # back to (xx, yy, xy)

        lag_int = np.zeros((mesh.n_triangles, 6))
        lag_int[:, 3:] = mesh.area[:, None] / 3.0

        if dofmap.method == "morley":
            self.transform = _morley_transform(mesh)
            self.hessians = self.transform @ lag_hess
            self.int_phi = np.einsum("tjk,tk->tj", self.transform, lag_int)
            self.transform.setflags(write=False)
        else:
            self.transform = None
            self.hessians = lag_hess
            self.int_phi = lag_int
        for arr in (self.hessians, self.int_phi):
            arr.setflags(write=False)

    def physical_points(self, ref_points):
        """Map reference points to physical ones, shape (nt, m, 2)."""
        return _map_points(self.mesh, ref_points)

    def values(self, ref_points):
        """Shape values at reference points, shape (nt, m, 6)."""
        vals = p2_values(ref_points)
        if self.transform is None:
            return np.repeat(vals[None], self.mesh.n_triangles, axis=0)
        return vals @ self.transform.transpose(0, 2, 1)

    def gradients(self, ref_points):
        """Physical gradients at reference points, shape (nt, m, 6, 2)."""
        g = p2_ref_gradients(ref_points)
        gphys = (g.reshape(-1, 2) @ self.mesh.jac_inv).reshape((-1,) + g.shape)
        if self.transform is None:
            return gphys
        return self.transform[:, None] @ gphys


def _morley_transform(mesh):
    # Dual pairing P[i, j] = functional_i(lagrange_j): rows 0..2 are vertex
    # values, rows 3..5 edge means of the normal derivative (the gradient of
    # a P2 function is linear, so the mean is its midpoint value).  The vertex
    # nodes are Lagrange nodes, so P = [[I, 0], [B, C]] and its inverse is
    # [[I, 0], [-C^-1 B, C^-1]].
    nt = mesh.n_triangles
    gm = p2_ref_gradients(_EDGE_MIDPOINTS_REF)          # (3, 6, 2)
    gphys = (gm.reshape(-1, 2) @ mesh.jac_inv).reshape(nt, 3, 6, 2)
    normals = mesh.edge_normal[mesh.tri_edges]           # (nt, 3, 2)
    edge_rows = np.einsum("tkja,tka->tkj", gphys, normals)  # [B, C]
    c_inv = np.linalg.inv(edge_rows[:, :, 3:])
    inverse = np.zeros((nt, 6, 6))
    inverse[:, :3, :3] = np.eye(3)
    inverse[:, 3:, :3] = -(c_inv @ edge_rows[:, :, :3])
    inverse[:, 3:, 3:] = c_inv
    return inverse.transpose(0, 2, 1)


class EdgeBasis:
    """The element frame of both sides of every edge.

    It keeps no array per edge: the triangle, local edge and run of each
    side are the mesh's, and no shape values.  Traces come from two fixed
    tables, the values and the reference gradients of the six Lagrange
    shapes at ``tpoints`` on the three local edges, run forwards and
    backwards: :meth:`traces` reads them in the frame of one side's
    triangles, :func:`edge_jumps` in the frame of every triangle at once.
    Hessians are the element basis's.

    Evaluation points are ``a + t * (b - a)`` for the sorted edge vertices
    ``(a, b)`` and ``t`` in ``tpoints``, identical for both sides, so jumps
    and averages pair up pointwise.  Side 0 is the lower-indexed adjacent
    triangle (the one the edge normal points away from); on boundary edges
    side 1 has triangle ``-1``, dofs ``-1`` and zero traces.
    """

    def __init__(self, basis, tpoints):
        self.basis = basis
        self.tpoints = np.array(tpoints, dtype=float)
        # run r of local edge k, both ends as reference vertices
        ends = REF_NODES[np.array([[1, 2], [2, 0], [0, 1]])]   # (3, 2, 2)
        ends = np.stack([ends, ends[:, ::-1]], axis=1)         # (3, 2, 2, 2)
        ref = ends[:, :, None, 0] + self.tpoints[:, None] * (
            ends[:, :, None, 1] - ends[:, :, None, 0])         # (3, 2, m, 2)
        # index 2 k + r: local edge k, run backwards (r = 1) or not
        self._values = p2_values(ref).reshape(6, -1, 6)
        self._gradients = p2_ref_gradients(ref).reshape(6, -1, 6, 2)
        for arr in (self.tpoints, self._values, self._gradients):
            arr.setflags(write=False)

    @property
    def points(self):
        """The physical evaluation points, shape ``(ne, len(tpoints), 2)``."""
        return edge_points(self.basis.mesh, self.tpoints)

    @property
    def dofs(self):
        """The dofs of both sides' triangles, ``(ne, 6)`` each, ``-1`` where a
        side has none: gathered from ``element_dofs`` on every read."""
        dofs = self.basis.element_dofs
        return tuple(np.where((tri >= 0)[:, None], dofs[tri], -1)
                     for tri in self.basis.mesh.edge_tris.T)

    def _runs(self, side):
        """Index ``2 k + r`` into the tables of each edge's local edge ``k``
        and run ``r`` on side ``side`` (``0`` where it has no triangle)."""
        mesh = self.basis.mesh
        return (2 * mesh.edge_local[:, side].astype(np.intp)
                + mesh.edge_backwards[:, side])

    def traces(self, side):
        """Values ``(ne, m, 6)`` and physical gradients ``(ne, m, 6, 2)`` of
        the shapes of side ``side``'s triangles at the evaluation points,
        zero where the side has no triangle."""
        basis = self.basis
        tri = basis.mesh.edge_tris[:, side]
        tt = np.where(tri >= 0, tri, 0)
        runs = self._runs(side)
        vals = self._values[runs]
        g = self._gradients[runs]
        grads = (g.reshape(len(tt), -1, 2) @ basis.mesh.jac_inv[tt]).reshape(
            g.shape)
        if basis.transform is not None:
            w = basis.transform[tt]
            vals = vals @ w.transpose(0, 2, 1)
            grads = w[:, None] @ grads
        vals[tri < 0] = 0.0
        grads[tri < 0] = 0.0
        return vals, grads


def edge_points(mesh, tpoints, edges=slice(None)):
    """Points ``a + t * (b - a)`` of the sorted vertices ``(a, b)`` of
    ``mesh.edges[edges]``, shape ``(edges, len(tpoints), 2)``."""
    t = np.asarray(tpoints, dtype=float)
    a, b = (mesh.vertices[mesh.edges[edges, i]] for i in (0, 1))
    return a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]


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
    """Jumps ``side 0 - side 1`` of a discrete field's value and gradient at
    the evaluation points of an :class:`EdgeBasis`, shapes ``(ne, m)`` and
    ``(ne, m, 2)``.

    The field's Lagrange coefficients on every triangle (Morley: the local
    coefficients times the transform) give its values and gradients on the
    six runs of the three local edges of every triangle, two products with
    the frame's tables; each side then reads its triangle's run.  On a
    boundary edge the jump is the side-0 trace.
    """
    basis = edge_basis.basis
    local = gather_coefficients(basis.element_dofs, coefficients)
    if basis.transform is not None:
        local = np.einsum("tj,tjk->tk", local, basis.transform)
    nt, m = len(local), len(edge_basis.tpoints)
    # the six runs of every triangle, then those of a zero triangle: row
    # 6 t + 2 k + r, which is -6 + 0, the zero triangle's first, for a side
    # with no triangle (t = -1)
    vals = np.zeros((nt + 1, 6 * m))
    grads = np.zeros((nt + 1, 6 * m, 2))
    np.matmul(local, edge_basis._values.reshape(-1, 6).T, out=vals[:nt])
    ref = local @ edge_basis._gradients.transpose(2, 0, 1, 3).reshape(6, -1)
    np.matmul(ref.reshape(nt, -1, 2), basis.mesh.jac_inv, out=grads[:nt])
    rows = [6 * tri + edge_basis._runs(side)
            for side, tri in enumerate(basis.mesh.edge_tris.T)]
    v0, v1 = (np.take(vals.reshape(-1, m), r, axis=0) for r in rows)
    g0, g1 = (np.take(grads.reshape(-1, m, 2), r, axis=0) for r in rows)
    return v0 - v1, g0 - g1


def bracket(hess_a, hess_b):
    """The bracket ``a_xx b_yy + a_yy b_xx - 2 a_xy b_xy`` of two Hessians
    given as (xx, yy, xy) triplets."""
    return hess_a[..., 0] * hess_b[..., 1] + hess_a[..., 1] * hess_b[..., 0] \
        - 2.0 * hess_a[..., 2] * hess_b[..., 2]


def morley_interpolate(value, gradient, dofmap):
    """Interpolate a function into the Morley space of a dof map's mesh.

    Vertex dofs take the point value, edge dofs the mean of the normal
    derivative along the edge (degree-10 Gauss rule).  Boundary dofs are
    constrained and therefore dropped, so functions with homogeneous clamped
    data are reproduced in the element-wise sense.

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
        rule = _INTERPOLATION_EDGE_RULE
        pts = edge_points(mesh, rule.points, free_e)
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
