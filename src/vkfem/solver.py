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
factorise, is solved by sparse LU on ``J`` instead.  The symmetric positive
definite biharmonic operator used for coercivity checks gets a dedicated
factorisation helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (DiscreteSolution, assemble_biharmonic, assemble_load,
                       assemble_trilinear_jacobian, assemble_trilinear_vector)

__all__ = ["SolverError", "NewtonReport", "linear_solve", "spd_solve",
           "is_spd", "newton_solve", "residual", "newton_order"]

_DENSE_SPD_LIMIT = 1200
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

    With a ``preconditioner`` (an approximate inverse of ``matrix``, as
    ``gmres`` takes for ``M``) the system is first solved by restarted GMRES
    aiming at a residual of ``1e-10 * ||b||``.  Its result is accepted when
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
    a = sp.csc_matrix(matrix)
    if a.shape[0] != a.shape[1] or a.shape[0] != len(rhs):
        raise SolverError(f"{context}: non-square system or shape mismatch")
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return np.zeros_like(rhs)
    anorm = float(abs(a).sum(axis=1).max())  # induced infinity norm
    if preconditioner is not None:
        x, _ = spla.gmres(a, rhs, rtol=_GMRES_RTOL, atol=0.0,
                          restart=_GMRES_RESTART, maxiter=_GMRES_MAXITER,
                          M=preconditioner)
        if (np.all(np.isfinite(x))
                and _backward_error(a, x, rhs, anorm, bnorm) <= 1e-10):
            return x
    try:
        lu = spla.splu(a)
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


def _symmetric_lu(matrix, column_order="MMD_AT_PLUS_A"):
    """Sparse LU for a matrix with a symmetric pattern whose diagonal needs
    no pivoting (``K`` and ``K + M_v``): diagonal pivots and the column order
    ``column_order`` (SuperLU's ``permc_spec``), by default minimum degree on
    ``A^T + A``; Newton solves pass their dof map's
    :attr:`~vkfem.femspace.DofMap.column_order`, which is ``NATURAL`` for the
    nested-dissection numbering of ``dg``.  Raises ``RuntimeError`` when a
    pivot is exactly zero."""
    return spla.splu(sp.csc_matrix(matrix), diag_pivot_thresh=0.0,
                     permc_spec=column_order,
                     options={"SymmetricMode": True})


def spd_solve(matrix, context="SPD system"):
    """Factorise a symmetric positive definite sparse matrix.

    Returns a solve callable.  Small systems use a dense Cholesky
    factorisation; larger ones an LU restricted to diagonal pivots whose
    positivity certifies definiteness.  Raises :class:`SolverError` when the
    matrix is not SPD.
    """
    a = sp.csc_matrix(matrix)
    n = a.shape[0]
    asym = abs(a - a.T).max()
    scale = abs(a).max()
    if scale > 0 and asym > 1e-10 * scale:
        raise SolverError(f"{context}: matrix is not symmetric")
    if n <= _DENSE_SPD_LIMIT:
        try:
            chol = scipy.linalg.cho_factor(a.toarray())
        except scipy.linalg.LinAlgError as exc:
            raise SolverError(f"{context}: not positive definite") from exc
        return lambda b: scipy.linalg.cho_solve(chol, b)
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


class NewtonSystem:
    """Assembled operators of one discrete problem, reused across iterates.

    ``loads`` is the pair ``(f, g)`` as :func:`~vkfem.assembly.assemble_load`
    takes it: callables or their values at the rule points.
    """

    def __init__(self, mesh, dofmap, method=None, penalty=None, loads=None,
                 quad_degree=8):
        if loads is None:
            raise ValueError("loads=(f, g) is required")
        f, g = loads
        self.dofmap = dofmap
        self.method = dofmap.method if method is None else method
        self.stiffness = assemble_biharmonic(mesh, dofmap, method, penalty)
        self.block_stiffness = sp.block_diag(
            (self.stiffness, self.stiffness), format="csr")
        self.load = assemble_load(f, g, mesh, dofmap, quad_degree)
        self.load_scale = max(1.0, np.linalg.norm(self.load))

    def residual(self, psi):
        x = np.concatenate([psi.u, psi.v])
        return (self.block_stiffness @ x
                + assemble_trilinear_vector(psi, psi) - self.load)

    def jacobian(self, psi):
        return self.block_stiffness + assemble_trilinear_jacobian(psi)


def _block_triangular_inverse(a_lu, k_lu, coupling):
    """``P^{-1}`` for ``P = [[A, C], [0, K]]`` from the factors of ``A`` and
    ``K``: two triangular solves and one product with ``C``."""
    n = coupling.shape[0]

    def apply(r):
        y2 = k_lu.solve(r[n:])
        return np.concatenate([a_lu.solve(r[:n] - coupling @ y2), y2])
    return spla.LinearOperator((2 * n, 2 * n), matvec=apply, dtype=float)


def newton_solve(mesh, dofmap, method=None, penalty=None, loads=None,
                 tol=1e-10, maxit=50, quad_degree=8):
    """Newton iteration for the discrete clamped-plate system.

    ``loads`` is the pair ``(f, g)``: vectorised callables, or their values
    at the degree-``quad_degree`` rule points of ``mesh`` (see
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
    system = NewtonSystem(mesh, dofmap, method, penalty, loads, quad_degree)
    n = dofmap.n_global
    label = f"{system.method} (ndof {n})"
    abs_stiffness = abs(system.block_stiffness)
    eps = np.finfo(float).eps
    target = tol * system.load_scale

    psi = DiscreteSolution(system.method, np.zeros(n), np.zeros(n), dofmap)
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
        jac = system.jacobian(psi)
        preconditioner = None
        if k_lu is not None:
            top = jac[:n]
            try:
                # at the zero iterate the block is K itself
                a_lu = k_lu if it == 0 else _symmetric_lu(top[:, :n], order)
            except RuntimeError:
                pass
            else:
                preconditioner = _block_triangular_inverse(a_lu, k_lu,
                                                           top[:, n:])
        delta = linear_solve(jac, -res, context=f"Newton step {it}, {label}",
                             preconditioner=preconditioner)
        psi.u += delta[:n]
        psi.v += delta[n:]
        iterations += 1
        res = system.residual(psi)
        history.append(float(np.linalg.norm(res)))
        x = np.abs(np.concatenate([psi.u, psi.v]))
        floor = 4.0 * eps * (np.linalg.norm(abs_stiffness @ x)
                             + system.load_scale)
        if history[-1] <= max(target, floor):
            converged = True
            break
    return psi, NewtonReport(iterations, history, converged)


def residual(psi, loads, penalty=None, quad_degree=8):
    """Nonlinear residual vector of a coefficient pair, one entry per dof.

    ``loads`` is taken as by :func:`newton_solve`."""
    system = NewtonSystem(psi.dofmap.mesh, psi.dofmap, psi.method, penalty,
                          loads, quad_degree)
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
