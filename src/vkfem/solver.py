"""Sparse linear algebra and Newton's method for the coupled plate system.

The Newton matrix ``J = [[K + M_v, M_u], [-M_u, K]]`` couples the two
unknowns antisymmetrically (the direction of the quadratic coupling flips
sign between the two equations).  Newton steps never factor ``J``: every
solve of a run applies the inverse of one block upper triangle ``P = [[A,
M_u], [0, K]]`` (:class:`_BlockTriangularInverse`).  The biharmonic
operator ``K`` is factored once per solve, and every run's first step is
the start solve ``P^{-1}`` with ``A = K`` on that factor alone, from a
coarse level's Hessians or from zero Hessians (then it is the exact first
Newton step), with no GMRES and no sparse matrix: ``M_u`` is applied
element by element.  A coarse start's fixed-point sweeps, each a chord step
``psi - P^{-1} F(psi)`` with ``A = K`` from the residual already at hand,
often end the run in that step.  :func:`_run` makes one run, in which one
function forms every iterate and none is updated in place;
:func:`newton_solve` makes the coarse run and, when that does not converge,
the run from zero.  Each further step factors only its n x n top-left block
``A = K + M_v`` and solves with ``J`` by GMRES, preconditioned by ``P``
with that ``A`` and the step's sparse ``M_u``.  Both blocks are factored in
the column order of the dof map: ``dg`` numbers its triangles in
minimum-degree order and factors in that order as it stands, Morley and
C0IP order by minimum degree on ``A^T + A``.  A step whose GMRES result
fails the acceptance test of :func:`linear_solve`, or whose block does not
factorise, is solved by sparse LU on ``J`` instead.  ``K`` is factored by
the same diagonal-pivot LU as the blocks, so a Newton run that does not
converge reads the definiteness of ``K`` from the signs of the pivots of
the factor it holds.

GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7 (1986) 856-869) is
one in-house cycle :func:`_gmres_cycle` on plain arrays, preconditioned on
the right and started at ``x0 = P^{-1} b``; :func:`linear_solve` says when
it returns ``x0`` as it stands and where the cycle stops.

Newton stops at the larger of its tolerance and the rounding floor of the
residual, which needs ``|K|``.  A row-sum bound of the floor decides
without ``|K|`` wherever it keeps the floor below the tolerance or an
iterate's residual norm above itself (see
:meth:`NewtonSystem.stopping_residual`); ``|K|`` is built otherwise, and
before a Newton step, whose GMRES aims at a tenth of the stop itself.

A step rebuilds nothing that only depends on the mesh: it builds ``A`` and
``M_u`` one way, summing the element matrices of ``M_v`` and ``M_u`` into the
element slots of ``K``'s structure and dropping the stored zeros (see
:class:`NewtonSystem`), and keeps one copy of ``A``, which GMRES applies and
the step factors.  ``J`` is applied block by block and assembled only for
the sparse-LU fallback (see :class:`NewtonMatrix`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (DiscreteSolution, _check_positive, _constant_load,
                       _coupling_matrices, _element_structure, _sum_into,
                       assemble_biharmonic, assemble_load,
                       assemble_trilinear_vector)
from .femspace import bracket, element_hessians

__all__ = ["SolverError", "NewtonReport", "linear_solve", "newton_solve"]

# GMRES on the preconditioned Newton matrix: the relative residual it may
# always aim for (the LU path's target), the length of a cycle and the
# number of cycles
_GMRES_RTOL = 1e-10
_GMRES_RESTART = 40
_GMRES_CYCLES = 2
# the rounding floor of the residual is this times || |K| |u|, |K| |v| ||
# plus the load scale
_FLOOR_EPS = 4.0 * np.finfo(float).eps


class SolverError(RuntimeError):
    """Raised when a linear or nonlinear solve fails."""


@dataclass
class NewtonReport:
    """Iteration record of one Newton run.

    ``start`` is where the run started: ``"zero"`` (the zero pair),
    ``"coarse"`` (from coarse Hessians, see :func:`newton_solve`) or
    ``"restarted"`` (a coarse start abandoned for the zero pair, see
    :func:`newton_solve`).  ``residual_history`` holds the run that was
    kept, ``iterations`` every step taken, those of an abandoned coarse run
    included.  ``sweeps`` is the number of sweeps (chord steps) that the start
    step of the kept run kept (0 for a zero start and after a restart).

    ``stiffness_definite`` is read only when the run did not converge (else
    ``None``): whether the diagonal pivots of ``K``'s factor are all
    positive, so ``K`` is positive definite."""
    iterations: int
    residual_history: list = field(default_factory=list)
    converged: bool = False
    stiffness_definite: bool | None = None
    start: str = "zero"
    sweeps: int = 0


def _backward_error(res, x, anorm, bnorm):
    """Normwise backward error ``||Ax-b|| / (||A|| ||x|| + ||b||)`` of ``x``
    with the residual ``res = b - Ax``; a residual below ``1e-10 ||b||``
    always gives at most 1e-10."""
    return np.linalg.norm(res) / (anorm * np.linalg.norm(x) + bnorm)


def linear_solve(jac, rhs, context="linear system", preconditioner=None,
                 target=None):
    """Solve one Newton step ``J x = rhs``, verifying the residual.

    ``jac`` is the step's :class:`NewtonMatrix`.  With a ``preconditioner``
    (the step's block-triangular ``P^{-1}``), ``x0 = P^{-1} b`` is returned
    when it passes the acceptance test below; otherwise a cycle of
    :func:`_gmres_cycle`, preconditioned on the right, starts from it and
    stops once ``||Jx - b||`` is at most the larger of ``1e-10 ||b||`` and
    the smaller of half the backward-error bound ``1e-10 (||J|| ||x0|| +
    ||b||)`` and the caller's residual ``target`` (``None``: none; Newton
    sets a tenth of the residual at which it stops).  A finite result that
    fails the test, as one meeting its aim does when ``||x||`` is well below
    ``||x0||``, gets a second cycle, aimed in the same way from it.  When
    that result fails too, and always without a preconditioner, the system
    is solved by sparse LU on the assembled ``J`` (COLAMD ordering), with
    iterative refinement to ``1e-10 ||b||`` where the conditioning allows.

    The acceptance test is a finite ``x`` with a normwise backward error
    ``||Jx-b|| / (||J|| ||x|| + ||b||)`` of at most ``1e-10``, which every
    residual below ``1e-10 ||b||`` meets: the sharpest contract double
    precision supports for fourth-order stiffness matrices.  An LU solution
    failing it, a failing factorisation (see :func:`_lu`), or an ``rhs``
    whose length is not ``J``'s raises :class:`SolverError` naming the context.
    """
    rhs = np.asarray(rhs, dtype=float)
    if jac.shape[0] != len(rhs):
        raise SolverError(f"{context}: shape mismatch")
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return np.zeros_like(rhs)
    anorm = jac.norm_inf()

    def accepted(res, x):
        return (np.all(np.isfinite(x))
                and _backward_error(res, x, anorm, bnorm) <= 1e-10)
    if preconditioner is not None:
        x = preconditioner @ rhs
        res = rhs - jac @ x
        for _ in range(_GMRES_CYCLES):
            if accepted(res, x) or not np.all(np.isfinite(x)):
                break
            # on the right, GMRES minimises the residual of x + P^{-1} y
            # itself, so a cycle stops where that residual meets its aim
            aim = min(0.5e-10 * (anorm * np.linalg.norm(x) + bnorm),
                      np.inf if target is None else target)
            x = x + preconditioner @ _gmres_cycle(
                lambda v: jac @ (preconditioner @ v), res,
                max(_GMRES_RTOL * bnorm, aim))
            res = rhs - jac @ x
        if accepted(res, x):
            return x
    matrix = jac.tocsc()
    lu = _lu(spla.splu, matrix, context, "J", f"nnz(J) {matrix.nnz}")
    if lu is None:
        raise SolverError(f"{context}: factorisation failed (zero pivot)")
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SolverError(f"{context}: singular matrix")
    for _ in range(8):
        res = rhs - jac @ x
        if np.linalg.norm(res) <= 1e-10 * bnorm:
            return x
        x = x + lu.solve(res)
    backward = _backward_error(rhs - jac @ x, x, anorm, bnorm)
    if backward > 1e-10:
        raise SolverError(
            f"{context}: backward error {backward:.3e} exceeds 1e-10")
    return x


def _gmres_cycle(apply, r, atol):
    """One GMRES cycle for ``apply(y) = r`` from ``y = 0``: the ``y`` of the
    Krylov space of at most 40 iterations (``_GMRES_RESTART``) that
    minimises ``||r - apply(y)||``.

    The zero start costs no call of ``apply``, and with ``||r|| <= atol``
    the cycle makes none.  Each iteration orthogonalises the new vector
    against the stacked basis by classical Gram-Schmidt done twice, as two
    pairs of matrix products, and appends it, so the basis holds one vector
    per iteration made.  The residual norm is read from the Givens rotations
    of the Hessenberg matrix; the cycle stops once it is at most ``atol``,
    on breakdown (the new vector lies in the basis: the least-squares
    solution is exact) or when it is no longer finite, so an operator that
    returns NaN gives a non-finite ``y`` after one iteration.
    """
    beta = np.linalg.norm(r)
    if beta <= atol:
        return np.zeros_like(r)
    m = _GMRES_RESTART
    basis = (r / beta)[None, :]
    rotated = np.zeros((m, m))  # R of the rotated Hessenberg
    cos, sin = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)  # the rotated beta e_1
    g[0] = beta
    eps = np.finfo(float).eps
    for k in range(m):
        if k:
            basis = np.vstack([basis, w / h_next])
        w = apply(basis[k])
        w_norm = np.linalg.norm(w)
        h = basis @ w
        w = w - h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        h += h2
        h_next = np.linalg.norm(w)
        breakdown = h_next <= eps * w_norm
        if breakdown:
            h_next = 0.0
        for j in range(k):
            h[j], h[j + 1] = (cos[j] * h[j] + sin[j] * h[j + 1],
                              cos[j] * h[j + 1] - sin[j] * h[j])
        mag = np.hypot(h[k], h_next)
        cos[k], sin[k] = (h[k] / mag, h_next / mag) if mag else (1.0, 0.0)
        h[k] = mag
        rotated[:k + 1, k] = h
        g[k + 1] = -sin[k] * g[k]
        g[k] *= cos[k]
        if breakdown or not abs(g[k + 1]) > atol:
            break
    m = k + 1 if rotated[k, k] else k  # a zero pivot adds nothing to y
    y = la.solve_triangular(rotated[:m, :m], g[:m], check_finite=False)
    return y @ basis[:m]


def _abs_row_sums(matrix):
    """Row sums of ``|matrix|`` for a CSC matrix, without a copy of it."""
    return np.bincount(matrix.indices, weights=np.abs(matrix.data),
                       minlength=matrix.shape[0])


def _without_zeros(matrix):
    """The CSC ``matrix`` without its stored zeros: ``matrix`` itself when it
    stores none, else a pruned copy."""
    if matrix.data.all():
        return matrix
    matrix = matrix.copy()
    matrix.eliminate_zeros()
    return matrix


def _symmetric_lu(matrix, column_order="MMD_AT_PLUS_A"):
    """Sparse LU for a matrix with a symmetric pattern whose diagonal needs
    no pivoting (``K`` and ``K + M_v``): diagonal pivots and the column order
    ``column_order`` (SuperLU's ``permc_spec``), by default minimum degree on
    ``A^T + A``; Newton solves pass their dof map's
    :attr:`~vkfem.femspace.DofMap.column_order`, which is ``NATURAL`` for the
    minimum-degree numbering of ``dg``.  Stored zeros are left out (a copy
    is made only when there are any), so the column order sees the pattern
    of the nonzeros.  Raises ``RuntimeError`` when a pivot is exactly
    zero."""
    return spla.splu(_without_zeros(sp.csc_matrix(matrix)),
                     diag_pivot_thresh=0.0, permc_spec=column_order,
                     options={"SymmetricMode": True})


def _lu(factorise, matrix, context, name, size):
    """``factorise(matrix)``, the sparse LU of the matrix ``name``, or
    ``None`` at an exactly zero pivot; out of memory raises
    :class:`SolverError` naming the ``context``, ``name`` and ``size``."""
    try:
        return factorise(matrix)
    except MemoryError as exc:
        raise SolverError(f"{context}: out of memory factoring {name} "
                          f"({size})") from exc
    except RuntimeError:
        return None


def _factor(system, matrix, name, context):
    """:func:`_lu` by :func:`_symmetric_lu` of the block ``name`` of
    ``system``, in the column order of its dof map, sized by nnz(K)."""
    return _lu(lambda a: _symmetric_lu(a, system.dofmap.column_order),
               matrix, context, name, f"nnz(K) {system.stiffness.nnz}")


class NewtonMatrix:
    """The Newton matrix ``J = [[A, M_u], [-M_u, K]]`` of one step, kept as
    its n x n CSC blocks ``a`` (``K + M_v`` without stored zeros, as it is
    factored), ``m_u`` (without stored zeros too) and ``k``.

    ``J @ x`` applies it block by block to a vector;
    :func:`linear_solve` takes its infinity norm from the blocks' row sums
    (those of ``|K|``, ``k_row_sums``, are the system's) and assembles ``J``
    (``tocsc``) only for the sparse-LU fallback.
    """

    def __init__(self, a, m_u, k, k_row_sums):
        n = k.shape[0]
        self.shape = (2 * n, 2 * n)
        self.a, self.m_u, self.k = a, m_u, k
        self.k_row_sums = k_row_sums

    def __matmul__(self, x):
        n = self.k.shape[0]
        x1, x2 = x[:n], x[n:]
        # M_u applied once, to x2 and -x1 side by side
        m_u_x = self.m_u @ np.column_stack([x2, -x1])
        return np.concatenate([self.a @ x1 + m_u_x[:, 0],
                               self.k @ x2 + m_u_x[:, 1]])

    def norm_inf(self):
        """The induced infinity norm of ``J``."""
        a, m_u = _abs_row_sums(self.a), _abs_row_sums(self.m_u)
        return float(max((a + m_u).max(), (m_u + self.k_row_sums).max()))

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
    every pair of dofs that share a triangle, so :meth:`step_matrix` sums
    the element matrices of both coupling blocks, ``M_v`` onto ``K``'s data
    and ``M_u`` alone, into it through the element slots that the assembly
    of ``K`` left on the dof map, and drops the stored zeros of each sum:
    there is no sub-structure and no sparse format conversion.  A run that
    ends in its start step, whose solves apply ``M_u`` element by element,
    never calls it.
    """

    def __init__(self, dofmap, loads, penalty=None):
        f, g = loads
        self.dofmap = dofmap
        self.stiffness = assemble_biharmonic(dofmap, penalty)
        k = self.stiffness
        self._k_row_sums = _abs_row_sums(k)
        # the element slots of the structure assemble_biharmonic built
        _, _, self._a_slots = _element_structure(dofmap)
        self.load = assemble_load(f, g, dofmap)
        self.load_scale = max(1.0, np.linalg.norm(self.load))

    def residual(self, psi):
        k = self.stiffness
        return (np.concatenate([k @ psi.u, k @ psi.v])
                + assemble_trilinear_vector(psi, psi) - self.load)

    def residual_floor(self, psi):
        """Rounding floor of :meth:`residual` at ``psi``:
        ``4 eps (|| |K| |u|, |K| |v| || + load scale)``.

        ``|K|`` is built for the call and dropped after it: Newton calls
        this only where the floor can decide (see
        :meth:`stopping_residual`), never while a step's block factor is
        held, so the copy is never held beside two factors."""
        abs_k = abs(self.stiffness)
        x = np.concatenate([abs_k @ np.abs(psi.u), abs_k @ np.abs(psi.v)])
        return _FLOOR_EPS * (np.linalg.norm(x) + self.load_scale)

    def stopping_residual(self, psi, target, norm=0.0):
        """The residual at which Newton stops at ``psi``: the larger of
        ``target`` and :meth:`residual_floor`, or a bound of it above which
        the iterate's residual norm ``norm`` lies.

        ``K`` is symmetric, so ``|| |K| |u|, |K| |v| ||`` is at most the
        largest row sum of ``|K|`` times ``||(u, v)||``.  That bound, with a
        margin for rounding, bounds the stop from above, and the bound is
        returned when it is ``target`` (then it is the stop) or when it is
        below ``norm`` (then ``norm`` stops at neither): ``|K|`` is built only
        where the floor decides.  With ``norm`` 0 the stop itself is
        returned."""
        bound = max(target, 1.01 * _FLOOR_EPS * (
            self._k_row_sums.max(initial=0.0)
            * np.hypot(np.linalg.norm(psi.u), np.linalg.norm(psi.v))
            + self.load_scale))
        if bound == target or norm > bound:
            return bound
        return max(target, self.residual_floor(psi))

    def step_matrix(self, psi):
        """The Newton matrix at ``psi`` as a :class:`NewtonMatrix`, its blocks
        ``A = K + M_v`` and ``M_u`` summed on ``K``'s structure and kept
        without stored zeros: the one copy of ``A`` that GMRES applies and
        the step factors."""
        k = self.stiffness

        def on_k(data):  # a block on K's structure, without stored zeros
            return _without_zeros(sp.csc_matrix((data, k.indices, k.indptr),
                                                shape=k.shape))
        # M_u first: its element matrices and its unpruned sum are freed
        # before A's sum is made
        m_u, m_v = _coupling_matrices(psi)
        m_u = on_k(_sum_into(self._a_slots, m_u, k.nnz))
        a = _sum_into(self._a_slots, m_v, k.nnz)
        a += k.data  # A = K + M_v
        return NewtonMatrix(on_k(a), m_u, k, self._k_row_sums)


class _FrozenCoupling:
    """``M_u`` of a field ``u`` given by its element Hessians ``hess``, shape
    ``(nt, 3)``, applied element by element with no sparse matrix: ``M_u @ y
    = -([u, y], phi)``.  Only this broken-Hessian bracket sees ``u``, so a
    coarse field's kinks reach no jump or penalty term."""

    def __init__(self, dofmap, hess):
        self.dofmap, self.hess = dofmap, hess

    def __matmul__(self, y):
        return _constant_load(self.dofmap, -bracket(
            self.hess, element_hessians(self.dofmap.basis, y)))


class _BlockTriangularInverse:
    """``P^{-1}`` for ``P = [[A, C], [0, K]]`` from the factors of ``A`` and
    ``K``: ``P^{-1} @ r`` costs two triangular solves and one product with
    the ``coupling`` ``C``, which takes ``@``: a Newton step's sparse ``M_u``
    (``A = K + M_v``), or a :class:`_FrozenCoupling` for the start solve and
    its sweeps (``A = K``)."""

    def __init__(self, a_lu, k_lu, coupling):
        self.a_lu, self.k_lu, self.coupling = a_lu, k_lu, coupling

    def __matmul__(self, r):
        n = len(r) // 2
        y2 = self.k_lu.solve(r[n:])
        return np.concatenate([self.a_lu.solve(r[:n] - self.coupling @ y2),
                               y2])


def newton_solve(dofmap, loads, penalty=None, tol=1e-10, maxit=50,
                 coarse_hessian=None):
    """Newton iteration for the discrete clamped-plate system.

    The dof map fixes the mesh and the method.  ``loads`` is the pair
    ``(f, g)``: vectorised callables, or their values at the
    ``VOLUME_RULE`` points of the dof map's mesh (see
    :func:`~vkfem.femspace.load_values`), so a caller that evaluated the
    loads once on a mesh can reuse them.

    A Newton run (:func:`_run`) applies ``P^{-1}`` for a block upper
    triangle ``P = [[A, M_u], [0, K]]`` in every solve.  Its first step is
    the start solve on ``K``'s factor, ``A = K``, with no GMRES: the system
    with the bracket ``[u, .]`` frozen at given element Hessians (two-grid
    linearisation, J. Xu, SIAM J. Numer. Anal. 33 (1996) 1759-1777).
    ``coarse_hessian`` holds the Hessians ``(xx, yy, xy)`` of ``u`` of a
    coarser solution of the same problem, one row per triangle of this mesh
    (that of the coarse triangle containing it).  The coarse run starts from
    them, and its start step then sweeps: a fixed-point (Picard) iteration
    on that factor that freezes the bracket again at its own ``u``.  A sweep
    is kept when it lowers the residual norm at least fourfold, and the
    first that does not is dropped; the step stops there, at the stopping
    residual or after ``maxit`` sweeps, and counts as one iteration
    (``report.sweeps`` counts the kept sweeps).  The coarse run also stops
    when its first Newton step does not lower the residual, at a residual
    that is not finite or at a :class:`SolverError`; when it does not
    converge, the zero run follows (``report.start`` reads
    ``"restarted"``).  The zero run starts from zero Hessians, where the
    start solve is the exact first Newton step from the zero pair, and
    raises :class:`SolverError` at its first residual that is not finite.
    So neither run warns of a NumPy overflow or invalid value.

    Each further step solves the exact linearisation ``J = [[K + M_v, M_u],
    [-M_u, K]]`` (biharmonic operator plus twice the cubic coupling at the
    current iterate).  It factors only the block ``A = K + M_v`` and passes
    :func:`linear_solve` the preconditioner ``P`` with that ``A`` and the
    step's sparse ``M_u``, whose inverse costs two triangular solves and one
    product with ``M_u``, and the residual target of a tenth of the residual
    at which the iteration stops, so that no step's linear residual delays
    it.  When ``A`` does not factorise the step is solved by sparse LU on
    ``J``; when ``K`` does not, the one run starts from the zero pair and
    every step is.  Convergence means
    the residual norm falls below ``tol * max(1, ||load||)`` or below the
    attainable floating-point floor of the residual evaluation, whichever
    is larger.  ``residual_history`` holds the norms of the kept run from
    the zero iterate on, so zero loads converge after one iteration.

    Returns
    -------
    (DiscreteSolution, NewtonReport)
        ``report.converged`` is False when the run that was kept took
        ``maxit`` steps, and then ``report.stiffness_definite`` says
        whether the pivots of ``K``'s factor are all positive; linear
        solver failures of the zero run raise :class:`SolverError`, as
        does a factor of ``K`` or of the zero run's Newton blocks that runs
        out of memory, or a residual of the zero run that is not finite.
    """
    _check_positive("tol", tol)
    if not (isinstance(maxit, (int, np.integer)) and maxit >= 1):
        raise ValueError(f"maxit must be an integer >= 1, not {maxit!r}")
    if coarse_hessian is not None and np.shape(coarse_hessian) != (
            dofmap.mesh.n_triangles, 3):
        raise ValueError("coarse_hessian must have shape (n_triangles, 3)")
    system = NewtonSystem(dofmap, loads, penalty)
    target = tol * system.load_scale
    # None at a zero pivot: then every step is solved by LU
    k_lu = _factor(system, system.stiffness, "K",
                   f"{dofmap.method} (ndof {dofmap.n_global})")
    first = 0  # the steps of an abandoned coarse run
    # a run stops at its first residual that is not finite, so its steps
    # warn of no overflow or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        if coarse_hessian is not None and k_lu is not None:
            psi, history, sweeps, converged = _run(
                system, k_lu, coarse_hessian, target, maxit, 0)
            if converged:
                return psi, NewtonReport(len(history) - 1, history, True,
                                         start="coarse", sweeps=sweeps)
            first = len(history) - 1
        psi, history, sweeps, converged = _run(system, k_lu, None, target,
                                               maxit, first)
    # no factor: a zero pivot stopped it, and that is not positive either
    definite = None if converged else (
        k_lu is not None and bool(np.all(k_lu.U.diagonal() > 0.0)))
    return psi, NewtonReport(first + len(history) - 1, history, converged,
                             definite, "restarted" if first else "zero",
                             sweeps)


def _run(system, k_lu, hess, target, maxit, first):
    """One Newton run: the iterate, the residual norms from the zero pair
    on, the number of sweeps kept and whether the run converged.

    With ``K``'s factor ``k_lu`` the first step is the start step at the
    element Hessians ``hess`` (zero when ``None``), which sweeps at most
    ``maxit`` times from given Hessians (see :func:`newton_solve`).  Each of
    its solves is ``P^{-1}`` with ``A = K`` and ``M_u`` frozen at element
    Hessians: the start solve ``P^{-1} [L_f; L_g - (1/2) ([u_H, u_H],
    phi)]``, each sweep the chord step ``psi - P^{-1} F(psi)`` at the ``u``
    of the last kept iterate, from the residual its acceptance test
    computed.  Without ``k_lu`` the run starts at the zero pair.  Newton
    steps (:func:`_newton_step`), numbered from ``first``, follow until the
    run converges or takes ``maxit`` steps.  A run from given Hessians also
    stops when its first Newton step does not lower the residual, at a
    residual that is not finite, or at a :class:`SolverError`, counted as a
    step with residual NaN; a run from zero raises the error, and raises
    :class:`SolverError` at a residual that is not finite.  Each iterate
    after the zero pair is a read-only block vector ``x`` that one
    ``evaluated(x)`` pairs with its element Hessians, which its residual,
    sweep and Newton matrix read, and with its residual, norm and stop: a
    bound of the stop where the norm is above it, which tests alike, and
    the stop itself before a Newton step."""
    dofmap = system.dofmap
    n = dofmap.n_global
    coarse = hess is not None

    def evaluated(x):  # the iterate, its pair, residual, norm and stop
        x.flags.writeable = False  # the pair's Hessians stay its own
        psi = DiscreteSolution(dofmap, x[:n], x[n:], tuple(
            element_hessians(dofmap.basis, c) for c in (x[:n], x[n:])))
        res = system.residual(psi)
        norm = float(np.linalg.norm(res))
        return x, psi, res, norm, system.stopping_residual(psi, target, norm)
    # the zero pair, the start without K's factor (its LU step reads no stop)
    x = np.zeros(2 * n)
    psi = DiscreteSolution(dofmap, x[:n], x[n:])
    res, stop, sweeps = -system.load, target, 0
    history = [float(np.linalg.norm(res))]
    if k_lu is not None:
        if not coarse:  # the exact first Newton step from the zero pair
            hess = np.zeros((dofmap.mesh.n_triangles, 3))

        def frozen(hess):
            return _BlockTriangularInverse(k_lu, k_lu,
                                           _FrozenCoupling(dofmap, hess))
        rhs = system.load.copy()
        rhs[n:] -= _constant_load(dofmap, 0.5 * bracket(hess, hess))
        x, psi, res, norm, stop = evaluated(frozen(hess) @ rhs)
        while coarse and norm > stop and sweeps < maxit:
            trial = evaluated(x - frozen(psi.hessians()[0]) @ res)
            if not trial[3] <= 0.25 * norm:
                break
            x, psi, res, norm, stop = trial
            sweeps += 1
        history.append(norm)
    while not history[-1] <= stop:
        steps, finite = len(history) - 1, np.isfinite(history[-1])
        if not (finite or coarse):
            raise SolverError(
                f"{dofmap.method} (ndof {n}): the residual is not finite "
                f"after {first + steps} steps (last finite residual "
                f"{history[-2]:.3g})")
        if steps == maxit or coarse and (
                not finite or steps == 2 and not history[2] < history[1]):
            return psi, history, sweeps, False
        # the stop itself, not a bound of it, sets the step's target
        stop = system.stopping_residual(psi, target)
        try:
            delta = _newton_step(system, k_lu, psi, res, 0.1 * stop,
                                 f"Newton step {first + steps}, "
                                 f"{dofmap.method} (ndof {n})")
        except SolverError:
            if not coarse:
                raise
            return psi, history + [np.nan], sweeps, False
        x, psi, res, norm, stop = evaluated(x + delta)
        history.append(norm)
    return psi, history, sweeps, True


def _newton_step(system, k_lu, psi, res, target, context):
    """The Newton step at ``psi`` with its residual ``res``, solved by
    :func:`linear_solve` to the residual ``target`` and preconditioned by
    ``P = [[A, M_u], [0, K]]`` when ``k_lu`` (``K``'s factor) is given and
    ``A`` factorises (out of memory there raises :class:`SolverError`, see
    :func:`_factor`).  The step's block factor is freed on return, before
    the next step factors."""
    jac = system.step_matrix(psi)
    preconditioner = None
    if k_lu is not None:
        a_lu = _factor(system, jac.a, "K + M_v", context)
        if a_lu is not None:
            preconditioner = _BlockTriangularInverse(a_lu, k_lu, jac.m_u)
    # a tenth of the residual at which the iteration stops: a step solved
    # that far cannot delay convergence
    return linear_solve(jac, -res, context=context,
                        preconditioner=preconditioner, target=target)
