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

from dataclasses import dataclass, field
from numbers import Real

import numpy as np
import scipy.sparse as sp

from .femspace import (DofMap, EDGE_RULE, FROB_WEIGHTS, VOLUME_RULE, bracket,
                       element_hessians, load_values)

__all__ = ["PenaltyConfig", "DiscreteSolution", "assemble_biharmonic",
           "assemble_load", "assemble_trilinear_vector",
           "assemble_trilinear_jacobian"]


def _check_positive(name, value, at_most=np.inf):
    """Raise ``ValueError`` naming the parameter ``name`` unless ``value`` is
    a finite real number with ``0 < value <= at_most``: the one check of
    every tolerance, bulk parameter and penalty."""
    if not (isinstance(value, Real) and 0.0 < value < np.inf
            and value <= at_most):
        bound = "" if at_most == np.inf else f" and at most {at_most:g}"
        raise ValueError(f"{name} must be a finite number above 0{bound}, "
                         f"not {value!r}")


@dataclass(frozen=True)
class PenaltyConfig:
    """Stabilisation parameters of the penalised methods."""
    sigma_ip: float = 20.0
    sigma_dg: float = 20.0

    def __post_init__(self):
        _check_positive("sigma_ip", self.sigma_ip)
        _check_positive("sigma_dg", self.sigma_dg)


@dataclass
class DiscreteSolution:
    """Coefficient pair (u, v) of one discretisation; its dof map fixes the
    mesh and the method.  A pair with read-only coefficients may be made
    with their element Hessians, ``known_hessians``."""
    dofmap: DofMap
    u: np.ndarray
    v: np.ndarray
    known_hessians: tuple | None = field(default=None, repr=False,
                                         compare=False)

    def __post_init__(self):
        n = self.dofmap.n_global
        if len(self.u) != n or len(self.v) != n:
            raise ValueError("coefficient length does not match the dof map")

    def hessians(self):
        """The known element Hessians of ``u`` and ``v``, else computed."""
        return self.known_hessians or tuple(
            element_hessians(self.dofmap.basis, c) for c in (self.u, self.v))

    @property
    def method(self):
        """The method of the dof map."""
        return self.dofmap.method


def _structure(n, blocks):
    """CSC structure of a sum of local blocks on ``n`` dofs.

    ``blocks`` holds pairs ``(rows, cols)`` of arrays of shapes ``(m, k)``
    and ``(m, l)``: the global row and column dofs (``-1``: constrained) of
    ``m`` local ``k x l`` blocks.  Returns ``indptr`` and ``indices``
    (int32) and, per pair, the data slot of every local entry ``(t, i, j)``,
    shape ``(m, k, l)`` (int32), with ``nnz`` for constrained entries, so
    that :func:`_sum_into` sums local blocks into the structure.  Every
    entry of a local block has a slot, also where the sum cancels to exactly
    zero.
    """
    # column-major keys col * n + row, written into one array; constrained
    # entries get the key n * n, which sorts last and so ranks nnz
    sizes = [rows.size * cols.shape[1] for rows, cols in blocks]
    keys = np.empty(sum(sizes), dtype=np.int64)
    ends = np.cumsum(sizes)
    for (rows, cols), end, size in zip(blocks, ends, sizes):
        part = keys[end - size:end].reshape(rows.shape + cols.shape[1:])
        np.add(cols[:, None, :] * n, rows[:, :, None], out=part)
        part[(rows < 0)[:, :, None] | (cols < 0)[:, None, :]] = n * n
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    unique = keys[first]
    del keys
    unique = unique[:np.searchsorted(unique, n * n)]
    rank = np.cumsum(first, dtype=np.int32)
    rank -= 1
    slots = np.empty(len(rank), dtype=np.int32)
    slots[order] = rank
    del order, rank
    indptr = np.searchsorted(unique, np.arange(n + 1) * n).astype(np.int32)
    indices = (unique % n).astype(np.int32)
    # copies, so that keeping one part does not keep the others
    return indptr, indices, [
        slots[end - size:end].reshape(rows.shape + cols.shape[1:]).copy()
        for (rows, cols), end, size in zip(blocks, ends, sizes)]


def _patch_structure(dofmap):
    """:func:`_structure` of the ``dg`` blocks of :func:`_stiffness_structure`,
    bit for bit, from the triangle graph: no dof is shared, so no key is
    sorted or deduplicated, only the at most four ranks of each patch.

    Triangle ``t`` owns the dofs ``6 r + (0..5)`` of its rank ``r =
    element_dofs[t, 0] // 6``.  Its patch is ``t`` and its at most three
    edge neighbours, and each of its six columns holds the six rows of every
    patch triangle, in rank order.  So the row ``6 s + i`` of the column
    ``6 r + j`` sits at ``indptr[6 r + j] + 6 #(patch ranks below s) + i``.
    """
    mesh = dofmap.mesh
    rank = (dofmap.element_dofs[:, 0] // 6).astype(np.int32)
    nt = len(rank)
    # the ranks of each patch: the triangle, then its neighbour across each
    # local edge (nt, which ranks last, where there is none)
    pair = mesh.edge_tris[mesh.tri_edges]
    across = np.where(pair[..., 0] == np.arange(nt)[:, None], pair[..., 1],
                      pair[..., 0])
    patch = np.empty((nt, 4), dtype=np.int32)
    patch[:, 0] = rank
    patch[:, 1:] = np.where(across >= 0, rank[across], nt)
    by_rank = np.empty(nt, dtype=np.intp)
    by_rank[rank] = np.arange(nt)
    indptr = np.zeros(6 * nt + 1, dtype=np.int32)
    np.cumsum(np.repeat(6 * (patch < nt).sum(axis=1, dtype=np.int32)[by_rank],
                        6), out=indptr[1:])
    # the six rows of each patch triangle in every column of its block; as
    # one 24-byte item per triangle they are masked item by item, not row
    # by row
    ordered = np.sort(patch[by_rank], axis=1)
    rows = np.empty((nt, 6, 4, 6), dtype=np.int32)
    rows[...] = 6 * ordered[:, None, :, None] + np.arange(6, dtype=np.int32)
    indices = rows.view(np.dtype((np.void, 24)))[..., 0][np.broadcast_to(
        (ordered < nt)[:, None, :], rows.shape[:3])].view(np.int32)
    del rows
    starts = indptr[:-1].reshape(nt, 6)[rank]  # of each triangle's columns
    nnz = len(indices)

    def slots(cols, row_tris):
        """Slots of the rows of ``row_tris`` in the columns of ``cols``
        (``-1``: none, slot ``nnz``)."""
        valid = (cols >= 0) & (row_tris >= 0)
        c, r = (np.where(valid, t, 0) for t in (cols, row_tris))
        below = (patch[c] < rank[r][:, None]).sum(axis=1, dtype=np.int32)
        out = (starts[c][:, None, :] + (6 * below)[:, None, None]
               + np.arange(6, dtype=np.int32)[:, None])
        out[~valid] = nnz
        return out
    t0, t1 = mesh.edge_tris.T
    tris = np.arange(nt)
    return indptr, indices, [slots(tris, tris), slots(t1, t0), slots(t0, t1)]


def _stiffness_structure(dofmap):
    """The CSC structure of the stiffness matrix of the dof map's method:
    ``indptr``, ``indices`` and the slots (see :func:`_structure`) of the
    element entries, shape ``(nt, 6, 6)``, then, for ``c0ip``/``dg``, of the
    entries that couple side 0 of each edge to side 1 and side 1 to side 0
    (``dofmap.edge_basis.dofs``), each of shape ``(ne, 6, 6)``.  Morley and
    C0IP share vertex and edge dofs between triangles, so their structure is
    sorted out by :func:`_structure`; ``dg``, six consecutive dofs per
    triangle (see :class:`~vkfem.femspace.DofMap`), takes it from its
    triangle graph (:func:`_patch_structure`).

    The first three are kept on the dof map, where
    :func:`_element_structure` reads them; the edge slots are not, since
    they would stay in memory for as long as the level.
    """
    dofs = dofmap.element_dofs
    if dofmap.method == "dg":
        indptr, indices, slots = _patch_structure(dofmap)
    else:
        blocks = [(dofs, dofs)]
        if dofmap.method != "morley":
            side0, side1 = dofmap.edge_basis.dofs
            blocks += [(side0, side1), (side1, side0)]
        indptr, indices, slots = _structure(dofmap.n_global, blocks)
    dofmap._structure = (indptr, indices, slots[0])
    return indptr, indices, slots


def _element_structure(dofmap):
    """``indptr``, ``indices`` and element slots of the stiffness structure
    of the dof map, as the last :func:`_stiffness_structure` kept them (built
    now when no assembly has)."""
    if dofmap._structure is None:
        _stiffness_structure(dofmap)
    return dofmap._structure


def _sum_into(slots, local, nnz):
    """Data of a structure with ``nnz`` entries: the local entries summed
    into their slots (constrained entries, at slot ``nnz``, dropped)."""
    return np.bincount(slots.ravel(), weights=local.ravel(),
                       minlength=nnz + 1)[:nnz]


def _scatter(dofmap, local):
    """Element entries ``local``, shape ``(nt, 6)``, summed into the free dofs
    of the dof map, one ``bincount``: a vector of ``n_global`` entries
    (constrained dofs, ``-1``, dropped)."""
    n = dofmap.n_global
    dofs = dofmap.element_dofs
    return np.bincount(np.where(dofs < 0, n, dofs).ravel(),
                       weights=local.ravel(), minlength=n + 1)[:n]


def _constant_load(dofmap, constants):
    """``(c, phi_i)`` for every dof of an element-wise constant ``c`` given by
    its values ``constants``, shape ``(nt,)``: each value times ``int_K
    phi_i``, summed into the dofs."""
    return _scatter(dofmap, constants[:, None] * dofmap.basis.int_phi)


def _hessian_normal_vector(hess, normal, out):
    """D2(phi) nu per shape into ``out``, shape (ne, 6, 2)."""
    n1, n2 = normal[:, 0], normal[:, 1]
    out[..., 0] = hess[..., 0] * n1[:, None] + hess[..., 2] * n2[:, None]
    out[..., 1] = hess[..., 2] * n1[:, None] + hess[..., 1] * n2[:, None]


def assemble_biharmonic(dofmap, penalty=None):
    """Assemble the scalar fourth-order operator of the dof map's method on
    its mesh.

    Returns the sparse symmetric matrix (CSC) of the broken Hessian product
    plus, for ``c0ip``/``dg``, the symmetrised consistency terms and the jump
    penalties (normal-derivative jumps at ``sigma/h``; additionally value
    jumps at ``sigma/h^3`` for ``dg``).  Its structure holds every pair of
    dofs that share a triangle or an edge, also where the entries cancel to
    exactly zero, so element matrices can be summed into its data slots; the
    dof map keeps it with those slots (see :func:`_stiffness_structure`).
    The block operator on the pair (u, v) is this matrix twice on the
    diagonal.
    """
    penalty = penalty or PenaltyConfig()
    basis = dofmap.basis
    n = dofmap.n_global
    weighted = basis.hessians * (dofmap.mesh.area[:, None, None]
                                 * FROB_WEIGHTS)
    local = weighted @ basis.hessians.transpose(0, 2, 1)
    if dofmap.method == "morley":
        indptr, indices, slots = _element_structure(dofmap)
        data = _sum_into(slots, local, len(indices))
        return sp.csc_matrix((data, indices, indptr), shape=(n, n))

    sigma = (penalty.sigma_ip if dofmap.method == "c0ip"
             else penalty.sigma_dg)
    indptr, indices, (slots, cross01, cross10) = _stiffness_structure(dofmap)
    nnz = len(indices)
    edge_local = _edge_terms(dofmap, sigma)
    # the blocks of one side of an edge matrix are entries of that side's
    # element, in its local order
    t0, t1 = dofmap.mesh.edge_tris.T
    edge_slots = np.empty(edge_local.shape, dtype=np.int64)
    edge_slots[:, :6, :6] = slots[t0]
    edge_slots[:, 6:, 6:] = np.where((t1 >= 0)[:, None, None], slots[t1], nnz)
    edge_slots[:, :6, 6:] = cross01
    edge_slots[:, 6:, :6] = cross10
    data = _sum_into(edge_slots, edge_local, nnz)
    # free the edge arrays before the element matrices are summed
    edge_slots = edge_local = None
    data += _sum_into(slots, local, nnz)
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


def _edge_terms(dofmap, sigma):
    """Local matrices of the edge terms of ``c0ip``/``dg``, shape ``(ne, 12,
    12)``: side-0 shapes, then side-1 shapes (``dofmap.edge_basis.dofs``),
    from each side's traces in the edge frame, which are dropped after.

    Each edge matrix is one product ``L^T R`` of two ``(r, 12)`` factors
    whose rows are functions of the 12 shapes: the normal-derivative jumps
    at the rule points (``R``: times ``sigma w``), for ``dg`` the value
    jumps there (``R``: times ``sigma w / h^2``), then the average
    ``{D2(phi) nu}`` and the integrated jump ``[grad phi]`` (two rows each,
    ``R`` holds them negated and swapped: the consistency term and its
    transpose).  Side-0 shapes enter the jumps with +, side-1 shapes with -.
    """
    mesh, eb = dofmap.mesh, dofmap.edge_basis
    w = EDGE_RULE.weights
    nq = len(w)
    normal, h = mesh.edge_normal, mesh.edge_length
    ne = len(h)
    dg = dofmap.method == "dg"
    m = 2 * nq if dg else nq
    rows = [nq, m, m + 2]  # where the row blocks of a factor start
    left = np.empty((ne, m + 4, 12))
    dn, vj, hn, gj = np.split(left, rows, axis=1)
    for side, sign in ((0, 1.0), (1, -1.0)):
        half = slice(6 * side, 6 * side + 6)
        vals, grads = eb.traces(side)
        np.matmul(grads, sign * normal[:, None, :, None],
                  out=dn[:, :, half, None])
        _hessian_normal_vector(dofmap.basis.hessians[mesh.edge_tris[:, side]],
                               normal, hn[:, :, half].transpose(0, 2, 1))
        if dg:
            np.multiply(vals, sign, out=vj[:, :, half])
            gj[:, :, half] = sign * (w @ grads.reshape(ne, nq, 12)).reshape(
                ne, 6, 2).transpose(0, 2, 1)
    # side 1 of a boundary edge has no triangle (edge_tris -1 read the last)
    hn[mesh.edge_on_boundary, :, 6:] = 0.0
    hn *= np.where(mesh.edge_on_boundary, 1.0, 0.5)[:, None, None]
    if dg:
        gj *= h[:, None, None]
    else:
        # only the normal-derivative jump: its integral times the normal
        gj[...] = normal[:, :, None] * (h[:, None] * (w @ dn))[:, None, :]

    right = np.empty_like(left)
    r_dn, r_vj, r_gj, r_hn = np.split(right, rows, axis=1)
    np.multiply(dn, (sigma * w)[:, None], out=r_dn)
    if dg:
        np.multiply(vj, ((sigma / h**2)[:, None] * w)[:, :, None], out=r_vj)
    np.negative(gj, out=r_gj)
    np.negative(hn, out=r_hn)
    return left.transpose(0, 2, 1) @ right


def assemble_load(f, g, dofmap):
    """Right-hand side block vector ``[(f, phi_i); (g, phi_i)]``.

    ``f`` and ``g`` are vectorised callables ``(x, y) -> array``, or their
    values at the ``VOLUME_RULE`` points of the dof map's mesh, shape
    ``(n_triangles, n_rule_points)`` (see :func:`~vkfem.femspace.load_values`).
    """
    basis = dofmap.basis
    phi = basis.values(VOLUME_RULE.points[:, 1:])
    blocks = []
    for load in (f, g):
        vals = load_values(load, dofmap.mesh)
        blocks.append(_scatter(dofmap, dofmap.mesh.area[:, None] * (
            (vals * VOLUME_RULE.weights)[:, None, :] @ phi)[:, 0]))
    return np.concatenate(blocks)


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
    # each operand's Hessians once: two calls for (psi, psi)
    xi_u, xi_v = xi.hessians()
    theta_u, theta_v = (xi_u, xi_v) if theta is xi else theta.hessians()
    return np.concatenate([
        _constant_load(dofmap, -0.5 * (bracket(xi_u, theta_v)
                                       + bracket(xi_v, theta_u))),
        _constant_load(dofmap, 0.5 * bracket(xi_u, theta_u))])


def _coupling_matrices(psi):
    """Element matrices of the cubic coupling's derivative at ``psi``.

    Returns ``(m_u, m_v)``, each of shape ``(nt, 6, 6)``, with ``m_w[t, i,
    j] = -[w, phi_j]_K int_K phi_i`` for the local shapes of triangle ``t``:
    the element matrices of the blocks ``M_u`` and ``M_v`` of
    :func:`assemble_trilinear_jacobian`.
    """
    basis = psi.dofmap.basis
    return tuple(_coupling_elements(basis, hess) for hess in psi.hessians())


def _coupling_elements(basis, hess):
    """Element matrices ``-[w, phi_j]_K int_K phi_i``, shape ``(nt, 6, 6)``,
    of a field ``w`` given by its element Hessians ``hess``, shape
    ``(nt, 3)``."""
    col = bracket(hess[:, None, :], basis.hessians)
    return -col[:, None, :] * basis.int_phi[:, :, None]


def assemble_trilinear_jacobian(psi):
    """Derivative of the cubic terms at ``psi`` as a sparse 2x2 block matrix.

    The returned operator maps a direction ``theta`` to twice the cubic form
    ``B(psi, theta, .)``; adding the block-diagonal biharmonic operator
    yields the full Newton matrix.  With ``M_w[i, j] = -sum_K [w, phi_j]
    int_K phi_i`` the blocks are ``[[M_v, M_u], [-M_u, 0]]``, each on the
    structure of the stiffness matrix of the dof map (see
    :func:`assemble_biharmonic`), which holds every pair of dofs that share
    a triangle.
    """
    dofmap = psi.dofmap
    n = dofmap.n_global
    indptr, indices, slots = _element_structure(dofmap)
    m_u, m_v = (sp.csc_matrix((_sum_into(slots, m, len(indices)), indices,
                               indptr), shape=(n, n))
                for m in _coupling_matrices(psi))
    return sp.bmat([[m_v, m_u], [-m_u, None]], format="csr")
