"""Sparse linear algebra and Newton's method for the coupled plate system.

The Newton matrix ``J = [[K + M_v, M_u], [-M_u, K]]`` couples the two
unknowns antisymmetrically (the direction of the quadratic coupling flips
sign between the two equations).  Newton steps never factor ``J``: each step
factors only its n x n top-left block ``A = K + M_v`` and solves with ``J``
by restarted GMRES, preconditioned by the block upper triangle
``P = [[A, M_u], [0, K]]``.  The biharmonic operator ``K`` is factored once
per solve; it is also the block of the zero iterate.  Both blocks are
factored in the column order of the dof map: ``dg`` numbers its triangles in
nested-dissection order and factors in that order as it stands, Morley and
C0IP order by minimum degree on ``A^T + A``.  A step whose GMRES result
fails the acceptance test of :func:`linear_solve`, or whose block does not
factorise, is solved by sparse LU on ``J`` instead.  Coercivity checks
(:func:`spd_solve`) factor ``K`` by the same diagonal-pivot LU as the
blocks and read its definiteness from the signs of the pivots.

A step rebuilds nothing that only depends on the mesh.  The structure of
``K`` holds every pair of dofs that share a triangle, and the data slot of
every element-local coupling entry in it is found once per solve; each step
sums the element matrices of ``M_v`` and ``M_u`` into those slots (one
``bincount`` each), so ``A`` shares ``K``'s index arrays and reaches the
factorisation in CSC with no format conversion.  GMRES applies ``J`` block
by block, and ``J`` is assembled as one matrix only for the sparse-LU
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (DiscreteSolution, _coupling_matrices, _element_slots,
                       _sub_structure, _sum_into, assemble_biharmonic,
                       assemble_load, assemble_trilinear_vector)

__all__ = ["SolverError", "NewtonReport", "linear_solve", "spd_solve",
           "is_spd", "newton_solve", "residual", "newton_order"]

# GMRES on the preconditioned Newton matrix: the relative residual it aims
# for (the LU path's target), the restart length and the number of restarts
_GMRES_RTOL = 1e-10
_GMRES_RESTART = 40
_GMRES_MAXITER = 2


class SolverError(RuntimeError):
    """Raised when a linear or nonlinear solve fails."""


@dataclass
class NewtonReport:
    """Iteration record of one Newton run."""
    iterations: int
    residual_history: list = field(default_factory=list)
    converged: bool = False


def _backward_error(a, x, rhs, anorm, bnorm):
    """Normwise backward error ``||Ax-b|| / (||A|| ||x|| + ||b||)`` of ``x``;
    a residual below ``1e-10 ||b||`` always gives at most 1e-10."""
    res = np.linalg.norm(rhs - a @ x)
    return res / (anorm * np.linalg.norm(x) + bnorm)


def linear_solve(matrix, rhs, context="linear system", preconditioner=None):
    """Solve a sparse square system, verifying the residual.

    ``matrix`` is a sparse matrix, or the :class:`NewtonMatrix` of a Newton
    step, which GMRES applies block by block and which is assembled only
    when the system goes to sparse LU.  With a ``preconditioner`` (an
    approximate inverse of ``matrix``, as ``gmres`` takes for ``M``) the
    system is first solved by restarted GMRES aiming at a residual of
    ``1e-10 * ||b||``.  Its result is accepted when
    it is finite and passes the acceptance test below.  Otherwise, and
    always without a preconditioner, the system is solved by sparse LU
    (COLAMD ordering), whose iterative refinement drives the residual to
    ``1e-10 * ||b||`` when the conditioning allows it.

    The acceptance test is a normwise backward error of at most ``1e-10``
    (``||Ax-b|| <= 1e-10 (||A|| ||x|| + ||b||)``), which every residual below
    ``1e-10 * ||b||`` meets: the sharpest contract double precision supports
    for fourth-order stiffness matrices.  An LU solution failing it, or a
    singular or badly failing factorisation, raises :class:`SolverError`
    naming the context.
    """
    rhs = np.asarray(rhs, dtype=float)
    blocks = isinstance(matrix, NewtonMatrix)
    a = matrix if blocks else sp.csc_matrix(matrix)
    if a.shape[0] != a.shape[1] or a.shape[0] != len(rhs):
        raise SolverError(f"{context}: non-square system or shape mismatch")
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return np.zeros_like(rhs)
    anorm = a.norm_inf() if blocks else float(_abs_row_sums(a).max())
    if preconditioner is not None:
        x, _ = spla.gmres(a, rhs, rtol=_GMRES_RTOL, atol=0.0,
                          restart=_GMRES_RESTART, maxiter=_GMRES_MAXITER,
                          M=preconditioner)
        if (np.all(np.isfinite(x))
                and _backward_error(a, x, rhs, anorm, bnorm) <= 1e-10):
            return x
    try:
        lu = spla.splu(a.tocsc())
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolverError(f"{context}: factorisation failed ({exc})") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError(f"{context}: singular matrix")
    for _ in range(8):
        res = rhs - a @ x
        if np.linalg.norm(res) <= 1e-10 * bnorm:
            return x
        x = x + lu.solve(res)
    backward = _backward_error(a, x, rhs, anorm, bnorm)
    if backward > 1e-10:
        raise SolverError(
            f"{context}: backward error {backward:.3e} exceeds 1e-10")
    return x


def _abs_row_sums(matrix):
    """Row sums of ``|matrix|`` for a CSC matrix, without a copy of it."""
    return np.bincount(matrix.indices, weights=np.abs(matrix.data),
                       minlength=matrix.shape[0])


def _symmetric_lu(matrix, column_order="MMD_AT_PLUS_A"):
    """Sparse LU for a matrix with a symmetric pattern whose diagonal needs
    no pivoting (``K`` and ``K + M_v``): diagonal pivots and the column order
    ``column_order`` (SuperLU's ``permc_spec``), by default minimum degree on
    ``A^T + A``; Newton solves pass their dof map's
    :attr:`~vkfem.femspace.DofMap.column_order`, which is ``NATURAL`` for the
    nested-dissection numbering of ``dg``.  Stored zeros are left out, so
    the column order sees the pattern of the nonzeros.  Raises
    ``RuntimeError`` when a pivot is exactly zero."""
    matrix = sp.csc_matrix(matrix, copy=True)
    matrix.eliminate_zeros()
    return spla.splu(matrix, diag_pivot_thresh=0.0, permc_spec=column_order,
                     options={"SymmetricMode": True})


def spd_solve(matrix, context="SPD system"):
    """Factorise a symmetric positive definite sparse matrix.

    Returns a solve callable of an LU restricted to diagonal pivots, whose
    positivity certifies definiteness.  Raises :class:`SolverError` when the
    matrix is not SPD.
    """
    a = sp.csc_matrix(matrix)
    asym = abs(a - a.T).max()
    scale = abs(a).max()
    if scale > 0 and asym > 1e-10 * scale:
        raise SolverError(f"{context}: matrix is not symmetric")
    try:
        lu = _symmetric_lu(a)
    except RuntimeError as exc:
        raise SolverError(f"{context}: not positive definite") from exc
    if np.any(lu.U.diagonal() <= 0.0):
        raise SolverError(f"{context}: not positive definite")
    return lu.solve


def is_spd(matrix):
    """True when the symmetric sparse matrix is positive definite."""
    try:
        spd_solve(matrix)
    except SolverError:
        return False
    return True


class NewtonMatrix(spla.LinearOperator):
    """The Newton matrix ``J = [[A, M_u], [-M_u, K]]`` of one step, kept as
    its n x n CSC blocks ``a`` (``K + M_v``), ``m_u`` and ``k``.

    It applies ``J`` block by block; :func:`linear_solve` takes its
    infinity norm from the blocks' row sums and assembles ``J`` (``tocsc``)
    only for the sparse-LU fallback.
    """

    def __init__(self, a, m_u, k):
        n = k.shape[0]
        super().__init__(float, (2 * n, 2 * n))
        self.a, self.m_u, self.k = a, m_u, k

    def _matvec(self, x):
        n = self.k.shape[0]
        x1, x2 = x[:n], x[n:]
        return np.concatenate([self.a @ x1 + self.m_u @ x2,
                               self.k @ x2 - self.m_u @ x1])

    def norm_inf(self):
        """The induced infinity norm of ``J``."""
        a, m_u, k = (_abs_row_sums(b) for b in (self.a, self.m_u, self.k))
        return float(max((a + m_u).max(), (m_u + k).max()))

    def tocsc(self):
        """``J`` assembled as one sparse matrix."""
        return sp.bmat([[self.a, self.m_u], [-self.m_u, self.k]],
                       format="csc")


class NewtonSystem:
    """Assembled operators of one discrete problem, reused across iterates.

    The dof map fixes the mesh and the method.  ``loads`` is the pair
    ``(f, g)`` as :func:`~vkfem.assembly.assemble_load` takes it: callables
    or their values at the rule points.

    The structure of the biharmonic operator ``K`` (``stiffness``) holds
    every pair of dofs that share a triangle, so the element matrices of the
    coupling blocks ``M_v`` and ``M_u`` are summed into it, or into its part
    on the element pairs, through data slots found once per system:
    :meth:`step_matrix` makes no sparse format conversion.
    """

    def __init__(self, dofmap, loads, penalty=None, quad_degree=8):
        f, g = loads
        self.dofmap = dofmap
        self.stiffness = assemble_biharmonic(dofmap, penalty)
        k = self.stiffness
        self._abs_stiffness = sp.csc_matrix(
            (np.abs(k.data), k.indices, k.indptr), shape=k.shape)
        # rows of shapes with zero mean (the Lagrange vertex shapes) are zero
        # in both coupling blocks, so M_u's structure leaves them out
        slots = np.where(dofmap.basis.int_phi[:, :, None] != 0.0,
                         _element_slots(k, dofmap), k.nnz)
        self._a_slots = slots
        self._coupling = _sub_structure(k.indptr, k.indices, slots)
        self.load = assemble_load(f, g, dofmap, quad_degree)
        self.load_scale = max(1.0, np.linalg.norm(self.load))

    def residual(self, psi):
        k = self.stiffness
        return (np.concatenate([k @ psi.u, k @ psi.v])
                + assemble_trilinear_vector(psi, psi) - self.load)

    def residual_floor(self, psi):
        """Rounding floor of :meth:`residual` at ``psi``:
        ``4 eps (|| |K| |u|, |K| |v| || + load scale)``."""
        abs_k = self._abs_stiffness
        x = np.concatenate([abs_k @ np.abs(psi.u), abs_k @ np.abs(psi.v)])
        return 4.0 * np.finfo(float).eps * (np.linalg.norm(x)
                                            + self.load_scale)

    def step_matrix(self, psi):
        """The Newton matrix at ``psi`` as a :class:`NewtonMatrix`."""
        k = self.stiffness
        m_u, m_v = _coupling_matrices(psi)
        a = sp.csc_matrix((k.data + _sum_into(self._a_slots, m_v, k.nnz),
                           k.indices, k.indptr), shape=k.shape)
        indptr, indices, slots = self._coupling
        m_u = sp.csc_matrix((_sum_into(slots, m_u, len(indices)), indices,
                             indptr), shape=k.shape)
        return NewtonMatrix(a, m_u, k)


def _block_triangular_inverse(a_lu, k_lu, coupling):
    """``P^{-1}`` for ``P = [[A, C], [0, K]]`` from the factors of ``A`` and
    ``K``: two triangular solves and one product with ``C``."""
    n = coupling.shape[0]

    def apply(r):
        y2 = k_lu.solve(r[n:])
        return np.concatenate([a_lu.solve(r[:n] - coupling @ y2), y2])
    return spla.LinearOperator((2 * n, 2 * n), matvec=apply, dtype=float)


def newton_solve(dofmap, loads, penalty=None, tol=1e-10, maxit=50,
                 quad_degree=8):
    """Newton iteration for the discrete clamped-plate system.

    The dof map fixes the mesh and the method.  ``loads`` is the pair
    ``(f, g)``: vectorised callables, or their values at the
    degree-``quad_degree`` rule points of the dof map's mesh (see
    :func:`~vkfem.femspace.load_values`), so a caller that evaluated the
    loads once on a mesh can reuse them.
    The iteration starts from the zero pair, whose first Newton step is
    exactly the decoupled linear biharmonic solve; each further step solves
    the exact linearisation ``J = [[K + M_v, M_u], [-M_u, K]]`` (biharmonic
    operator plus twice the cubic coupling at the current iterate).  A step
    factors only the block ``A = K + M_v`` (at the zero iterate ``A = K``,
    whose factor is kept for all steps) and passes :func:`linear_solve` the
    preconditioner ``P = [[A, M_u], [0, K]]``, whose inverse costs two
    triangular solves and one product with ``M_u``.  When ``A`` does not
    factorise, or GMRES fails the acceptance test of :func:`linear_solve`,
    the step is solved by sparse LU on ``J``.  Convergence means the
    residual norm falls below ``tol * max(1, ||load||)`` or below the
    attainable floating-point floor of the residual evaluation, whichever is
    larger.  ``residual_history`` records the norms starting at the zero
    iterate, so zero loads converge after one iteration.

    Returns
    -------
    (DiscreteSolution, NewtonReport)
        ``report.converged`` is False when ``maxit`` was exhausted; linear
        solver failures raise :class:`SolverError`.
    """
    if tol <= 0.0 or maxit < 1:
        raise ValueError("tol must be positive and maxit >= 1")
    system = NewtonSystem(dofmap, loads, penalty, quad_degree)
    n = dofmap.n_global
    label = f"{dofmap.method} (ndof {n})"
    target = tol * system.load_scale

    psi = DiscreteSolution(dofmap, np.zeros(n), np.zeros(n))
    res = -system.load  # residual at the zero iterate
    history = [float(np.linalg.norm(res))]
    converged = False
    iterations = 0
    order = dofmap.column_order
    try:
        k_lu = _symmetric_lu(system.stiffness, order)
    except RuntimeError:  # then no step is preconditioned
        k_lu = None
    for it in range(maxit):
        jac = system.step_matrix(psi)
        preconditioner = None
        if k_lu is not None:
            try:
                # at the zero iterate the block is K itself
                a_lu = k_lu if it == 0 else _symmetric_lu(jac.a, order)
            except RuntimeError:
                pass
            else:
                preconditioner = _block_triangular_inverse(a_lu, k_lu,
                                                           jac.m_u)
        delta = linear_solve(jac, -res, context=f"Newton step {it}, {label}",
                             preconditioner=preconditioner)
        psi.u += delta[:n]
        psi.v += delta[n:]
        iterations += 1
        res = system.residual(psi)
        history.append(float(np.linalg.norm(res)))
        if history[-1] <= max(target, system.residual_floor(psi)):
            converged = True
            break
    return psi, NewtonReport(iterations, history, converged)


def residual(psi, loads, penalty=None, quad_degree=8):
    """Nonlinear residual vector of a coefficient pair, one entry per dof.

    ``loads`` is taken as by :func:`newton_solve`."""
    system = NewtonSystem(psi.dofmap, loads, penalty, quad_degree)
    return system.residual(psi)


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
