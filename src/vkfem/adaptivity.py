"""Residual error estimators, bulk marking and refinement loops.

Each method gets the residual estimator matching its norm: shared volume
terms ``h_K^4 (||f + [u,v]||^2 + ||g - [u,u]/2||^2)`` per element plus

* ``morley`` -- tangential Hessian jumps ``h_E ||[D2 w] tau||^2`` on
  interior edges,
* ``c0ip``  -- normal-normal Hessian jumps ``h_E ||[D2 w nu] . nu||^2`` on
  interior edges and gradient jumps ``h_E^-1 ||[grad w]||^2`` on all edges,
* ``dg``    -- value jumps ``h_E^-3 ||[w]||^2`` and gradient jumps on all
  edges,

for both components ``w = u, v``.  Edge contributions are split half/half
between the two adjacent elements (fully to the one element on the
boundary); the total is attribution-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import (ConvergenceRecord, error_norm, oscillation)
from .assembly import PenaltyConfig, bracket_elements
from .femspace import (EDGE_RULE, build_dofmap, edge_jumps, element_hessians,
                       load_values)
from .mesh import nvb_refine, uniform_refine
from .quadrature import triangle_rule
from .solver import SolverError, newton_solve

__all__ = ["LocalEstimates", "AdaptiveConfig", "LevelState", "estimate",
           "dorfler_mark", "adaptive_levels", "uniform_levels", "solve_level",
           "METHOD_NORM"]

#: Norm in which each method's error is naturally measured.
METHOD_NORM = {"morley": "nc", "c0ip": "ip", "dg": "dg"}


@dataclass
class LocalEstimates:
    """Squared local error indicators of one solve."""
    eta2: np.ndarray
    method: str

    @property
    def total(self):
        return float(np.sqrt(self.eta2.sum()))


@dataclass
class AdaptiveConfig:
    """Knobs of the adaptive loop."""
    theta: float = 0.5
    max_levels: int = 12
    max_ndof: Optional[int] = None
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    newton_tol: float = 1e-10
    newton_maxit: int = 50
    quad_degree: int = 8

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("bulk parameter theta must be in (0, 1]")
        if self.max_levels < 1:
            raise ValueError("max_levels must be at least 1")


@dataclass
class LevelState:
    """Everything produced on one level of a refinement loop.

    ``loads`` holds the values of ``f`` and ``g`` at the rule points of
    ``mesh``, evaluated once for the level and shared by every solve,
    estimate and oscillation on it.
    """
    level: int
    mesh: object
    solution: object
    estimates: LocalEstimates
    record: ConvergenceRecord
    loads: tuple = field(repr=False)


def estimate(psi, loads, quad_degree=8):
    """Local residual indicators of a converged solution.

    ``loads`` is the pair ``(f, g)``: vectorised callables, or their values
    at the degree-``quad_degree`` rule points of the solution's mesh (see
    :func:`~vkfem.femspace.load_values`).  Volume terms use triangle
    quadrature of the given degree; edge integrands of P2 fields are
    polynomial and integrated exactly.
    """
    dofmap = psi.dofmap
    mesh = dofmap.mesh
    method = psi.method
    f, g = loads

    rule = triangle_rule(quad_degree)
    br_uv = bracket_elements(dofmap, psi.u, psi.v)
    br_uu = bracket_elements(dofmap, psi.u, psi.u)
    res1 = load_values(f, mesh, quad_degree) + br_uv[:, None]
    res2 = load_values(g, mesh, quad_degree) - 0.5 * br_uu[:, None]
    hk4 = mesh.tri_diameter**4
    eta2 = hk4 * np.einsum("t,q,tq->t", mesh.area, rule.weights,
                           res1**2 + res2**2)

    h = mesh.edge_length
    interior = ~mesh.edge_on_boundary
    tri0, tri1 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]

    def attribute(term):
        share = np.where(interior, 0.5, 1.0) * term
        np.add.at(eta2, tri0, share)
        np.add.at(eta2, tri1[interior], 0.5 * term[interior])

    if method in ("morley", "c0ip"):
        # Hessian jumps are interior-only and constant along each edge
        hess_jumps = []
        for coef in (psi.u, psi.v):
            he = element_hessians(dofmap.basis, coef)
            jump = he[tri0] - he[np.where(tri1 >= 0, tri1, 0)]
            jump[~interior] = 0.0
            hess_jumps.append(jump)
        if method == "morley":
            tau = mesh.edge_tangent
            term = np.zeros(mesh.n_edges)
            for jump in hess_jumps:
                jt1 = jump[:, 0] * tau[:, 0] + jump[:, 2] * tau[:, 1]
                jt2 = jump[:, 2] * tau[:, 0] + jump[:, 1] * tau[:, 1]
                term += h**2 * (jt1**2 + jt2**2)
        else:
            nu = mesh.edge_normal
            term = np.zeros(mesh.n_edges)
            for jump in hess_jumps:
                jnn = (jump[:, 0] * nu[:, 0]**2 + jump[:, 1] * nu[:, 1]**2
                       + 2.0 * jump[:, 2] * nu[:, 0] * nu[:, 1])
                term += h**2 * jnn**2
        attribute(term)

    if method in ("c0ip", "dg"):
        w = EDGE_RULE.weights
        nq = len(w)
        term = np.zeros(mesh.n_edges)
        for coef in (psi.u, psi.v):
            vj, gj = edge_jumps(dofmap.edge_basis, coef)
            grad2 = np.einsum("q,eqa->e", w, gj**2)
            term += grad2  # h^-1 * h * sum(w |jump|^2)
            if method == "dg":
                term += np.einsum("q,eq->e", w, vj[:, :nq]**2) / h**2
        attribute(term)

    return LocalEstimates(np.maximum(eta2, 0.0), method)


def dorfler_mark(estimates, theta):
    """Minimal bulk-criterion marking.

    Greedily takes elements by descending ``eta2`` (ties by ascending index)
    until the marked set carries at least ``theta`` times the total squared
    estimator; elements with zero indicator are never marked.  Indicators
    must be finite and non-negative (``ValueError`` otherwise).
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("bulk parameter theta must be in (0, 1]")
    eta2 = estimates.eta2 if isinstance(estimates, LocalEstimates) \
        else np.asarray(estimates, dtype=float)
    if not np.all(np.isfinite(eta2)) or np.any(eta2 < 0.0):
        raise ValueError("indicators must be finite and non-negative")
    total = eta2.sum()
    if total <= 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((np.arange(len(eta2)), -eta2))
    # leave unmarked the longest tail of smallest indicators whose sum stays
    # within the budget: summed from the small end, small indicators are not
    # lost to rounding next to large ones (zeros always fit)
    tail = np.cumsum(eta2[order[::-1]])
    budget = total - theta * total * (1.0 - 1e-12)
    unmarked = int(np.searchsorted(tail, budget, side="right"))
    unmarked = min(unmarked, len(eta2) - 1)  # the largest is always marked
    return np.sort(order[:len(eta2) - unmarked])


def _solve(level, mesh, method, config, loads):
    dofmap = build_dofmap(mesh, method)
    psi, report = newton_solve(dofmap, loads, config.penalty,
                               tol=config.newton_tol,
                               maxit=config.newton_maxit,
                               quad_degree=config.quad_degree)
    if not report.converged:
        raise SolverError(f"Newton did not converge at level {level} "
                          f"({method}, {dofmap.n_global} dofs)")
    return psi


def _record(level, psi, loads, problem, eta_total, config, prev):
    exact = problem.exact
    mesh = psi.dofmap.mesh
    (e_u, e_v, e_tot), (_, _, e_meth) = error_norm(
        psi, exact, ("h", METHOD_NORM[psi.method]), config.quad_degree)
    osc = np.hypot(oscillation(loads[0], mesh, config.quad_degree),
                   oscillation(loads[1], mesh, config.quad_degree))
    ndof = psi.dofmap.n_global
    rate = float("nan")
    if prev is not None and prev.error_total > 0 and e_tot > 0:
        rate = -(np.log(e_tot) - np.log(prev.error_total)) \
            / (np.log(ndof) - np.log(prev.ndof))
    return ConvergenceRecord(level, ndof, e_u, e_v, e_tot, e_meth,
                             eta_total, float(osc), rate)


def _level_state(level, mesh, loads, method, problem, config, prev,
                 estimator=None):
    """Solve, estimate and record ``method`` on one mesh; the indicators
    come from a solve of ``estimator`` when that names another method."""
    psi = _solve(level, mesh, method, config, loads)
    psi_est = psi if estimator in (None, method) \
        else _solve(level, mesh, estimator, config, loads)
    eta = estimate(psi_est, loads, config.quad_degree)
    record = _record(level, psi, loads, problem, eta.total, config, prev)
    return LevelState(level, mesh, psi, eta, record, loads)


def solve_level(state, method, problem, config, prev=None):
    """The :class:`LevelState` of another method on the mesh of ``state``.

    Solves, estimates and records ``method`` with the load values of
    ``state``, so the loads are not evaluated again.  ``prev`` is the
    previous level's record of ``method`` (for the rate).  Raises
    :class:`SolverError` when Newton does not converge.
    """
    return _level_state(state.level, state.mesh, state.loads, method,
                        problem, config, prev)


def _levels(problem, method, config, levels, refine, estimator=None):
    """Generator over at most ``levels`` meshes: on each, the loads are
    evaluated once and ``method`` is solved, estimated and recorded.
    ``refine(state)`` makes the next mesh, or returns ``None`` to stop."""
    state = None
    for level in range(levels):
        mesh = problem.initial_mesh if state is None else refine(state)
        if mesh is None:
            return
        loads = tuple(load_values(load, mesh, config.quad_degree)
                      for load in (problem.exact.f, problem.exact.g))
        prev = None if state is None else state.record
        state = _level_state(level, mesh, loads, method, problem, config,
                             prev, estimator)
        yield state


def adaptive_levels(problem, method, config, estimator=None):
    """Generator driving Solve - Estimate - Mark - Refine.

    ``estimator`` names the method whose residual indicator steers the
    marking (default: ``method`` itself); when it differs, that method is
    solved alongside on every level.  The loads are evaluated once per
    mesh.  Yields a :class:`LevelState` per level and stops at
    ``max_levels`` or ``max_ndof``.
    """
    def refine(state):
        cap = config.max_ndof
        if cap is not None and state.record.ndof >= cap:
            return None
        return nvb_refine(state.mesh,
                          dorfler_mark(state.estimates, config.theta))
    yield from _levels(problem, method, config, config.max_levels, refine,
                       estimator)


def uniform_levels(problem, method, levels, config=None):
    """Generator over a uniform (red) refinement hierarchy; the loads are
    evaluated once per mesh."""
    config = config or AdaptiveConfig(max_levels=levels)
    yield from _levels(problem, method, config, levels,
                       lambda state: uniform_refine(state.mesh))
