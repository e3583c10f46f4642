"""Assembly of the discrete biharmonic forms, the cubic coupling and loads.

The scalar biharmonic operators of the three methods share the broken
Hessian inner product; ``c0ip`` and ``dg`` add symmetric consistency and
penalty terms on edges.  Signs follow from integration by parts with this
package's jump convention ``[phi] = phi|K0 - phi|K1`` (side 0 is the element
the edge normal points away from; on the boundary jump and average both mean
the trace), which makes the edge terms consistent for clamped exact
solutions.

The coupling of the two plate unknowns is the bracket
``[eta, chi] = eta_xx chi_yy + eta_yy chi_xx - 2 eta_xy chi_xy``, which is
element-wise constant for P2 fields, so all cubic terms reduce to exact
degree-2 quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .femspace import (DofMap, EDGE_RULE, METHODS, bracket,
                       element_hessians, load_values)
from .quadrature import triangle_rule

__all__ = ["PenaltyConfig", "DiscreteSolution", "assemble_biharmonic",
           "assemble_load", "bracket_elements", "assemble_bracket_element",
           "assemble_trilinear_vector", "assemble_trilinear_jacobian"]


@dataclass(frozen=True)
class PenaltyConfig:
    """Stabilisation parameters of the penalised methods."""
    sigma_ip: float = 20.0
    sigma_dg: float = 20.0

    def __post_init__(self):
        if not (0.0 < self.sigma_ip < np.inf and 0.0 < self.sigma_dg < np.inf):
            raise ValueError("penalty parameters must be positive and finite")


@dataclass
class DiscreteSolution:
    """Coefficient pair (u, v) of one discretisation."""
    method: str
    u: np.ndarray
    v: np.ndarray
    dofmap: DofMap

    def __post_init__(self):
        n = self.dofmap.n_global
        if len(self.u) != n or len(self.v) != n:
            raise ValueError("coefficient length does not match the dof map")


def _check_method(dofmap, method):
    if method is None:
        return dofmap.method
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method != dofmap.method:
        raise ValueError(f"method {method!r} does not match the "
                         f"{dofmap.method!r} dof map")
    return method


def _scatter(n_rows, n_cols, rows, cols, values):
    rows, cols, values = rows.ravel(), cols.ravel(), values.ravel()
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix((values[keep], (rows[keep], cols[keep])),
                         shape=(n_rows, n_cols))


def _scatter_local(n, dofs_row, dofs_col, local):
    rows = np.repeat(dofs_row[:, :, None], dofs_col.shape[1], axis=2)
    cols = np.repeat(dofs_col[:, None, :], dofs_row.shape[1], axis=1)
    return _scatter(n, n, rows, cols, local)


def _hessian_normal_scalar(hess, normal):
    """nu' D2(phi) nu per shape from (xx, yy, xy) triplets."""
    n1, n2 = normal[:, 0], normal[:, 1]
    return (hess[..., 0] * (n1**2)[:, None] + hess[..., 1] * (n2**2)[:, None]
            + 2.0 * hess[..., 2] * (n1 * n2)[:, None])


def _hessian_normal_vector(hess, normal):
    """D2(phi) nu per shape, shape (ne, 6, 2)."""
    n1, n2 = normal[:, 0], normal[:, 1]
    out = np.empty(hess.shape[:-1] + (2,))
    out[..., 0] = hess[..., 0] * n1[:, None] + hess[..., 2] * n2[:, None]
    out[..., 1] = hess[..., 2] * n1[:, None] + hess[..., 1] * n2[:, None]
    return out


def assemble_biharmonic(mesh, dofmap, method=None, penalty=None):
    """Assemble the scalar fourth-order operator of one method.

    Returns the sparse symmetric matrix of the broken Hessian product plus,
    for ``c0ip``/``dg``, the symmetrised consistency terms and the jump
    penalties (normal-derivative jumps at ``sigma/h``; additionally value
    jumps at ``sigma/h^3`` for ``dg``).  The block operator on the pair
    (u, v) is this matrix twice on the diagonal.
    """
    method = _check_method(dofmap, method)
    penalty = penalty or PenaltyConfig()
    basis = dofmap.basis
    n = dofmap.n_global

    frob = np.array([1.0, 1.0, 2.0])
    local = np.einsum("t,tic,tjc,c->tij", basis.area, basis.hessians,
                      basis.hessians, frob)
    mat = _scatter_local(n, dofmap.element_dofs, dofmap.element_dofs, local)

    if method in ("c0ip", "dg"):
        sigma = penalty.sigma_ip if method == "c0ip" else penalty.sigma_dg
        mat += _edge_terms(dofmap, method, sigma)

    return mat.tocsr()


def _edge_terms(dofmap, method, sigma):
    mesh, eb = dofmap.mesh, dofmap.edge_basis
    w = EDGE_RULE.weights
    nq = len(w)
    normal = mesh.edge_normal
    h = mesh.edge_length
    avg_factor = np.where(mesh.edge_on_boundary, 1.0, 0.5)
    dofs12 = np.concatenate(eb.dofs, axis=1)

    def jump(sides):
        # at the rule points: side-0 shapes enter with +, side-1 shapes with -
        return np.concatenate([sides[0][:, :nq], -sides[1][:, :nq]], axis=2)

    dn = jump([eb.normal_derivatives(0), eb.normal_derivatives(1)])
    jn_int = h[:, None] * np.einsum("q,eqj->ej", w, dn)

    if method == "c0ip":
        hnn = np.concatenate([_hessian_normal_scalar(eb.hessians[0], normal),
                              _hessian_normal_scalar(eb.hessians[1], normal)],
                             axis=1) * avg_factor[:, None]
        cons = -(np.einsum("ei,ej->eij", hnn, jn_int)
                 + np.einsum("ej,ei->eij", hnn, jn_int))
        pen = sigma * np.einsum("q,eqi,eqj->eij", w, dn, dn)
        local = cons + pen
    else:
        hn = np.concatenate([_hessian_normal_vector(eb.hessians[0], normal),
                             _hessian_normal_vector(eb.hessians[1], normal)],
                            axis=1) * avg_factor[:, None, None]
        gj = jump(eb.gradients)
        gj_int = h[:, None, None] * np.einsum("q,eqja->eja", w, gj)
        cons = -(np.einsum("eia,eja->eij", hn, gj_int)
                 + np.einsum("eja,eia->eij", hn, gj_int))
        vj = jump(eb.values)
        pen = (sigma / h**2)[:, None, None] * np.einsum(
            "q,eqi,eqj->eij", w, vj, vj)
        pen += sigma * np.einsum("q,eqi,eqj->eij", w, dn, dn)
        local = cons + pen

    return _scatter_local(dofmap.n_global, dofs12, dofs12, local)


def assemble_load(f, g, mesh, dofmap, quad_degree=8):
    """Right-hand side block vector ``[(f, phi_i); (g, phi_i)]``.

    ``f`` and ``g`` are vectorised callables ``(x, y) -> array``, or their
    values at the degree-``quad_degree`` rule points of ``mesh``, shape
    ``(n_triangles, n_rule_points)`` (see :func:`~vkfem.femspace.load_values`).
    """
    basis = dofmap.basis
    rule = triangle_rule(quad_degree)
    phi = basis.values(rule.points[:, 1:])
    out = np.zeros(2 * dofmap.n_global)
    dofs = dofmap.element_dofs
    keep = dofs >= 0
    for block, load in enumerate((f, g)):
        vals = load_values(load, mesh, quad_degree)
        local = np.einsum("t,q,tq,tqi->ti", basis.area, rule.weights, vals, phi)
        np.add.at(out, block * dofmap.n_global + dofs[keep], local[keep])
    return out


def bracket_elements(dofmap, coef_a, coef_b):
    """Element-wise constants ``[a, b]|_K`` of two P2 fields, shape (nt,)."""
    return bracket(element_hessians(dofmap.basis, coef_a),
                   element_hessians(dofmap.basis, coef_b))


def assemble_bracket_element(dofmap, coef_a, coef_b, triangle_index):
    """The bracket constant of a single triangle."""
    return float(bracket_elements(dofmap, coef_a, coef_b)[int(triangle_index)])


def _cubic_form_scalar(basis, bracket_const):
    """Element loads of ``-(1/2) int_K [a,b] phi_i`` per local shape."""
    return -0.5 * bracket_const[:, None] * basis.int_phi


def assemble_trilinear_vector(xi, theta):
    """Cubic coupling tested against every dof: a block vector.

    For pairs ``xi = (xi1, xi2)`` and ``theta = (theta1, theta2)`` the first
    block carries ``b(xi1, theta2, .) + b(xi2, theta1, .)`` and the second
    ``-b(xi1, theta1, .)`` with ``b(a, b, phi) = -(1/2) sum_K [a,b] int_K
    phi``; the result is symmetric in (xi, theta).
    """
    if xi.dofmap is not theta.dofmap:
        raise ValueError("operands must share one dof map")
    dofmap = xi.dofmap
    basis = dofmap.basis
    br_12 = bracket_elements(dofmap, xi.u, theta.v)
    br_21 = bracket_elements(dofmap, xi.v, theta.u)
    br_11 = bracket_elements(dofmap, xi.u, theta.u)
    local1 = _cubic_form_scalar(basis, br_12 + br_21)
    local2 = -_cubic_form_scalar(basis, br_11)
    out = np.zeros(2 * dofmap.n_global)
    dofs = dofmap.element_dofs
    keep = dofs >= 0
    np.add.at(out, dofs[keep], local1[keep])
    np.add.at(out, dofmap.n_global + dofs[keep], local2[keep])
    return out


def assemble_trilinear_jacobian(psi):
    """Derivative of the cubic terms at ``psi`` as a sparse 2x2 block matrix.

    The returned operator maps a direction ``theta`` to twice the cubic form
    ``B(psi, theta, .)``; adding the block-diagonal biharmonic operator
    yields the full Newton matrix.  With ``M_w[i, j] = -sum_K [w, phi_j]
    int_K phi_i`` the blocks are ``[[M_v, M_u], [-M_u, 0]]``.
    """
    dofmap = psi.dofmap
    basis = dofmap.basis
    n = dofmap.n_global
    hess = basis.hessians
    hu = element_hessians(basis, psi.u)
    hv = element_hessians(basis, psi.v)

    def m_of(field_hess):
        col = bracket(field_hess[:, None, :], hess)
        return -col[:, None, :] * basis.int_phi[:, :, None]

    m_u = m_of(hu)
    m_v = m_of(hv)
    dofs = dofmap.element_dofs
    blocks = [
        (0, 0, m_v),
        (0, n, m_u),
        (n, 0, -m_u),
    ]
    parts = []
    for roff, coff, local in blocks:
        rows = np.repeat(np.where(dofs >= 0, dofs + roff, -1)[:, :, None], 6, axis=2)
        cols = np.repeat(np.where(dofs >= 0, dofs + coff, -1)[:, None, :], 6, axis=1)
        parts.append(_scatter(2 * n, 2 * n, rows, cols, local))
    return sum(parts[1:], parts[0]).tocsr()
