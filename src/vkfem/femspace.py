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

Bases are built by ``@`` on stacked arrays: all Jacobians' rows as one
``(2 nt, 2)`` matrix times the points, one ``(points x shapes, 2)`` block per
element for gradients, and Morley transforms batched over elements or edges.
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


def _affine_maps(mesh):
    """Origin ``p0`` and Jacobian of ``x = p0 + jac @ (xi, eta)`` per
    triangle."""
    v, t = mesh.vertices, mesh.triangles
    p0 = v[t[:, 0]]
    return p0, np.stack([v[t[:, 1]] - p0, v[t[:, 2]] - p0], axis=-1)


def _map_points(p0, jac, ref_points):
    ref = np.asarray(ref_points, dtype=float)
    lin = (jac.reshape(-1, 2) @ ref.T).reshape(len(jac), 2, len(ref))
    return p0[:, None, :] + lin.transpose(0, 2, 1)


def rule_points(mesh):
    """Physical points of ``VOLUME_RULE`` on every triangle of ``mesh``,
    shape ``(n_triangles, n_rule_points, 2)``."""
    return _map_points(*_affine_maps(mesh), VOLUME_RULE.points[:, 1:])


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
    """``values`` as floats, or ``ValueError`` if not of ``shape``."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(
            f"load values have shape {values.shape}, expected {shape} "
            f"(triangles, points of the volume rule)")
    return values


def load_values(load, mesh):
    """A load at the points of ``VOLUME_RULE``.

    ``load`` is a vectorised callable ``(x, y) -> array``, which is called at
    each block of :func:`rule_point_blocks`, or its values there: an array
    of shape ``(n_triangles, n_rule_points)``, returned as floats.  Any
    other shape, given or returned by the callable, raises ``ValueError``.
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

        href = P2_REF_HESSIANS[:, [[0, 2], [2, 1]]]  # (6, 2, 2) matrices
        hphys = jac_inv.transpose(0, 2, 1)[:, None] @ href @ jac_inv[:, None]
        lag_hess = hphys[:, :, [0, 1, 0], [0, 1, 1]]  # back to (xx, yy, xy)

        lag_int = np.zeros((mesh.n_triangles, 6))
        lag_int[:, 3:] = self.area[:, None] / 3.0

        if dofmap.method == "morley":
            self.transform = self._morley_transform(mesh, lag_hess)
            self.hessians = self.transform @ lag_hess
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
        gphys = (gm.reshape(-1, 2) @ self.jac_inv).reshape(nt, 3, 6, 2)
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
        return vals @ self.transform.transpose(0, 2, 1)

    def gradients(self, ref_points):
        """Physical gradients at reference points, shape (nt, m, 6, 2)."""
        g = p2_ref_gradients(ref_points)
        gphys = (g.reshape(-1, 2) @ self.jac_inv).reshape((-1,) + g.shape)
        if self.transform is None:
            return gphys
        return self.transform[:, None] @ gphys


class EdgeBasis:
    """Traces of the element basis on both sides of every edge: values,
    gradients and the dofs of each side; Hessians are the element basis's.

    Evaluation points are ``a + t * (b - a)`` for the sorted edge vertices
    ``(a, b)``, identical for both sides, so jumps and averages pair up
    pointwise.  Side 0 is the lower-indexed adjacent triangle (the one the
    edge normal points away from); on boundary edges side 1 carries zeros and
    dof index ``-1``.
    """

    def __init__(self, basis, tpoints):
        mesh = basis.mesh
        self.mesh = mesh
        points = edge_points(mesh, tpoints)
        points.setflags(write=False)
        self.points = points

        self.values, self.gradients, self.dofs = zip(
            *(self._side(basis, mesh.edge_tris[:, side]) for side in (0, 1)))

    def _side(self, basis, tri):
        """Read-only values, gradients and dofs of the shapes of the
        triangles ``tri`` (``-1``: none, all zero) at the edge points."""
        valid = tri >= 0
        tt = np.where(valid, tri, 0)
        jac_inv = basis.jac_inv[tt]
        ref = ((self.points - basis.p0[tt][:, None, :])
               @ jac_inv.transpose(0, 2, 1))
        vals = p2_values(ref)
        g = p2_ref_gradients(ref)
        grads = (g.reshape(len(tt), -1, 2) @ jac_inv).reshape(g.shape)
        if basis.transform is not None:
            w = basis.transform[tt]
            vals = vals @ w.transpose(0, 2, 1)
            grads = w[:, None] @ grads
        dofs = basis.element_dofs[tt]
        vals[~valid] = 0.0
        grads[~valid] = 0.0
        dofs[~valid] = -1
        for arr in (vals, grads, dofs):
            arr.setflags(write=False)
        return vals, grads, dofs


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
    every point of an edge table, shapes ``(ne, m)`` and ``(ne, m, 2)``.

    On a boundary edge the jump is the side-0 trace.
    """
    vj, gj = 0.0, 0.0
    for side, sign in ((0, 1.0), (1, -1.0)):
        local = gather_coefficients(edge_basis.dofs[side], coefficients)
        vj = vj + sign * np.einsum("eqj,ej->eq", edge_basis.values[side],
                                   local)
        gj = gj + sign * (local[:, None, None, :]
                          @ edge_basis.gradients[side])[:, :, 0]
    return vj, gj


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
