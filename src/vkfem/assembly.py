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

from .femspace import (DofMap, EDGE_RULE, bracket, element_hessians,
                       load_values)
from .quadrature import triangle_rule

__all__ = ["PenaltyConfig", "DiscreteSolution", "assemble_biharmonic",
           "assemble_load", "bracket_elements", "assemble_trilinear_vector",
           "assemble_trilinear_jacobian"]


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
    """Coefficient pair (u, v) of one discretisation; its dof map fixes the
    mesh and the method."""
    dofmap: DofMap
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        n = self.dofmap.n_global
        if len(self.u) != n or len(self.v) != n:
            raise ValueError("coefficient length does not match the dof map")

    @property
    def method(self):
        """The method of the dof map."""
        return self.dofmap.method


def _keys(n, rows, cols):
    """Column-major keys ``col * n + row`` of the entries of local blocks
    with row dofs ``rows`` and column dofs ``cols``, ``-1`` where either is
    constrained."""
    return np.where((rows[:, :, None] >= 0) & (cols[:, None, :] >= 0),
                    cols[:, None, :] * n + rows[:, :, None], -1)


def _structure(n, blocks):
    """CSC structure of a sum of local blocks on ``n`` dofs.

    ``blocks`` holds pairs ``(rows, cols)`` of arrays of shapes ``(m, k)``
    and ``(m, l)``: the global row and column dofs (``-1``: constrained) of
    ``m`` local ``k x l`` blocks.  Returns ``indptr`` and ``indices``
    (int32) and, per pair, the data slot of every local entry ``(t, i, j)``,
    shape ``(m, k, l)``, with ``nnz`` for constrained entries, so that
    :func:`_sum_into` sums local blocks into the structure.  Every entry of
    a local block has a slot, also where the sum cancels to exactly zero.
    """
    keys = [_keys(n, rows, cols).ravel() for rows, cols in blocks]
    ends = np.cumsum([len(k) for k in keys])
    keys = np.concatenate(keys)
    kept = keys >= 0
    unique, inverse = np.unique(keys[kept], return_inverse=True)
    slots = np.full(len(keys), len(unique), dtype=np.int64)
    slots[kept] = inverse
    cols = unique // n
    indptr = np.searchsorted(cols, np.arange(n + 1)).astype(np.int32)
    indices = (unique - cols * n).astype(np.int32)
    # copies, so that keeping one part does not keep the others
    return indptr, indices, [
        part.reshape(rows.shape + cols.shape[1:]).copy()
        for part, (rows, cols) in zip(np.split(slots, ends[:-1]), blocks)]


def _sum_into(slots, local, nnz):
    """Data of a structure with ``nnz`` entries: the local entries summed
    into their slots (constrained entries, at slot ``nnz``, dropped)."""
    return np.bincount(slots.ravel(), weights=local.ravel(),
                       minlength=nnz + 1)[:nnz]


def _sub_structure(indptr, indices, slots):
    """The part of a CSC structure that ``slots`` reach: its ``indptr``,
    ``indices`` and the slots in it (the structure's ``nnz`` goes to the
    part's)."""
    nnz = len(indices)
    reached = np.zeros(nnz + 1, dtype=bool)
    reached[slots] = True
    before = np.concatenate([[0], np.cumsum(reached[:nnz])])
    return (before[indptr].astype(np.int32), indices[reached[:nnz]],
            before[slots])


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


def assemble_biharmonic(dofmap, penalty=None):
    """Assemble the scalar fourth-order operator of the dof map's method on
    its mesh.

    Returns the sparse symmetric matrix (CSC) of the broken Hessian product
    plus, for ``c0ip``/``dg``, the symmetrised consistency terms and the jump
    penalties (normal-derivative jumps at ``sigma/h``; additionally value
    jumps at ``sigma/h^3`` for ``dg``).  Its structure holds every pair of
    dofs that share a triangle or an edge, also where the entries cancel to
    exactly zero, so element matrices can be summed into its data slots.
    The block operator on the pair (u, v) is this matrix twice on the
    diagonal.
    """
    penalty = penalty or PenaltyConfig()
    basis = dofmap.basis
    n = dofmap.n_global
    dofs = dofmap.element_dofs
    frob = np.array([1.0, 1.0, 2.0])
    local = np.einsum("t,tic,tjc,c->tij", basis.area, basis.hessians,
                      basis.hessians, frob)
    if dofmap.method == "morley":
        indptr, indices, (slots,) = _structure(n, [(dofs, dofs)])
        data = _sum_into(slots, local, len(indices))
        return sp.csc_matrix((data, indices, indptr), shape=(n, n))

    sigma = (penalty.sigma_ip if dofmap.method == "c0ip"
             else penalty.sigma_dg)
    edge_local = _edge_terms(dofmap, sigma)
    side0, side1 = dofmap.edge_basis.dofs
    indptr, indices, (slots, cross01, cross10) = _structure(
        n, [(dofs, dofs), (side0, side1), (side1, side0)])
    nnz = len(indices)
    # the blocks of one side of an edge matrix are entries of that side's
    # element, in its local order
    t0, t1 = dofmap.mesh.edge_tris.T
    edge_slots = np.empty(edge_local.shape, dtype=np.int64)
    edge_slots[:, :6, :6] = slots[t0]
    edge_slots[:, 6:, 6:] = np.where((t1 >= 0)[:, None, None], slots[t1], nnz)
    edge_slots[:, :6, 6:] = cross01
    edge_slots[:, 6:, :6] = cross10
    data = _sum_into(slots, local, nnz) + _sum_into(edge_slots, edge_local,
                                                    nnz)
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


def _element_slots(matrix, dofmap):
    """Data slot of every element-local entry ``(t, i, j)`` in the CSC
    structure of ``matrix``, shape ``(nt, 6, 6)``, with ``nnz`` where the
    entry is constrained, for :func:`_sum_into`.

    The structure must hold every pair of dofs that share a triangle, as
    :func:`assemble_biharmonic` keeps it: where a pair is missing, the
    search returns the slot of another entry.
    """
    n = matrix.shape[0]
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(matrix.indptr))
    query = _keys(n, dofmap.element_dofs, dofmap.element_dofs)
    return np.where(query >= 0,
                    np.searchsorted(cols * n + matrix.indices, query),
                    matrix.nnz)


def _edge_terms(dofmap, sigma):
    """Local matrices of the edge terms of ``c0ip``/``dg``, shape ``(ne, 12,
    12)``: side-0 shapes, then side-1 shapes (``dofmap.edge_basis.dofs``)."""
    mesh, eb = dofmap.mesh, dofmap.edge_basis
    w = EDGE_RULE.weights
    nq = len(w)
    normal = mesh.edge_normal
    h = mesh.edge_length
    avg_factor = np.where(mesh.edge_on_boundary, 1.0, 0.5)

    def jump(sides):
        # at the rule points: side-0 shapes enter with +, side-1 shapes with -
        return np.concatenate([sides[0][:, :nq], -sides[1][:, :nq]], axis=2)

    dn = jump([np.einsum("eqja,ea->eqj", grads[:, :nq], normal)
               for grads in eb.gradients])
    jn_int = h[:, None] * np.einsum("q,eqj->ej", w, dn)

    if dofmap.method == "c0ip":
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

    return local


def assemble_load(f, g, dofmap, quad_degree=8):
    """Right-hand side block vector ``[(f, phi_i); (g, phi_i)]``.

    ``f`` and ``g`` are vectorised callables ``(x, y) -> array``, or their
    values at the degree-``quad_degree`` rule points of the dof map's mesh,
    shape ``(n_triangles, n_rule_points)`` (see
    :func:`~vkfem.femspace.load_values`).
    """
    basis = dofmap.basis
    rule = triangle_rule(quad_degree)
    phi = basis.values(rule.points[:, 1:])
    out = np.zeros(2 * dofmap.n_global)
    dofs = dofmap.element_dofs
    keep = dofs >= 0
    for block, load in enumerate((f, g)):
        vals = load_values(load, dofmap.mesh, quad_degree)
        local = np.einsum("t,q,tq,tqi->ti", basis.area, rule.weights, vals, phi)
        np.add.at(out, block * dofmap.n_global + dofs[keep], local[keep])
    return out


def bracket_elements(dofmap, coef_a, coef_b):
    """Element-wise constants ``[a, b]|_K`` of two P2 fields, shape (nt,)."""
    return bracket(element_hessians(dofmap.basis, coef_a),
                   element_hessians(dofmap.basis, coef_b))


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


def _coupling_matrices(psi):
    """Element matrices of the cubic coupling's derivative at ``psi``.

    Returns ``(m_u, m_v)``, each of shape ``(nt, 6, 6)``, with ``m_w[t, i,
    j] = -[w, phi_j]_K int_K phi_i`` for the local shapes of triangle ``t``:
    the element matrices of the blocks ``M_u`` and ``M_v`` of
    :func:`assemble_trilinear_jacobian`.
    """
    basis = psi.dofmap.basis

    def m_of(coef):
        col = bracket(element_hessians(basis, coef)[:, None, :],
                      basis.hessians)
        return -col[:, None, :] * basis.int_phi[:, :, None]
    return m_of(psi.u), m_of(psi.v)


def assemble_trilinear_jacobian(psi):
    """Derivative of the cubic terms at ``psi`` as a sparse 2x2 block matrix.

    The returned operator maps a direction ``theta`` to twice the cubic form
    ``B(psi, theta, .)``; adding the block-diagonal biharmonic operator
    yields the full Newton matrix.  With ``M_w[i, j] = -sum_K [w, phi_j]
    int_K phi_i`` the blocks are ``[[M_v, M_u], [-M_u, 0]]``, each on the
    structure of the pairs of dofs that share a triangle.
    """
    dofmap = psi.dofmap
    n = dofmap.n_global
    dofs = dofmap.element_dofs
    indptr, indices, (slots,) = _structure(n, [(dofs, dofs)])
    m_u, m_v = (sp.csc_matrix((_sum_into(slots, m, len(indices)), indices,
                               indptr), shape=(n, n))
                for m in _coupling_matrices(psi))
    return sp.bmat([[m_v, m_u], [-m_u, None]], format="csr")
