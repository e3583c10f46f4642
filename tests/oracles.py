"""Reference functions that only the tests use: a coercivity check, the
fitted order of a residual history, quadrature of one callable over one
triangle or edge, and two interpolations into the Lagrange frames."""

import numpy as np
import scipy.sparse as sp

from vkfem.femspace import REF_NODES, build_dofmap, gather_coefficients
from vkfem.solver import _lu, _symmetric_lu


def is_spd(matrix):
    """True when the sparse matrix is symmetric positive definite: its LU
    restricted to diagonal pivots (:func:`_lu`) has only positive pivots."""
    a = sp.csc_matrix(matrix)
    scale = abs(a).max()
    if scale > 0 and abs(a - a.T).max() > 1e-10 * scale:
        return False
    lu = _lu(_symmetric_lu, a, "is_spd", "the matrix", f"nnz {a.nnz}")
    return lu is not None and bool(np.all(lu.U.diagonal() > 0.0))


def newton_order(history, floor=0.0):
    """Least-squares convergence order fitted from a residual history.

    Fits ``log r_{k+1}`` against ``log r_k`` over the strictly decreasing
    prefix of residuals above ``floor`` (entries at the floating-point floor
    flatten the fit and are dropped); requires at least three usable
    residuals.
    """
    r = []
    for h in history:
        if h <= floor or (r and h >= r[-1]):
            break
        r.append(h)
    if len(r) < 3:
        raise ValueError("need at least three residuals above the floor")
    r = np.asarray(r, dtype=float)
    return float(np.polyfit(np.log(r[:-1]), np.log(r[1:]), 1)[0])


def integrate_triangle(rule, f, triangle):
    """Integrate ``f(x, y)`` over a physical triangle.

    Parameters
    ----------
    rule : TriangleRule
    f : callable
        Vectorised, called as ``f(x, y)`` with coordinate arrays.
    triangle : array_like, shape (3, 2)
        Vertex coordinates.
    """
    tri = np.asarray(triangle, dtype=float)
    if tri.shape != (3, 2):
        raise ValueError("triangle must be given as three (x, y) vertices")
    d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
    twice_area = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(twice_area) < 1e-300:
        raise ValueError("degenerate triangle")
    pts = rule.points @ tri
    return 0.5 * abs(twice_area) * float(rule.weights @ np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float))


def integrate_edge(rule, f, a, b):
    """Integrate ``f(x, y)`` along the segment from ``a`` to ``b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pts = a[None, :] + rule.points[:, None] * (b - a)[None, :]
    length = float(np.hypot(*(b - a)))
    return length * float(rule.weights @ np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float))


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
