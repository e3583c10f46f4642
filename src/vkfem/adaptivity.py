"""Residual error estimators, bulk marking and the level loop.

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

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .analysis import (ConvergenceRecord, error_norm, exact_fields,
                       oscillation)
from .assembly import PenaltyConfig, _check_positive
from .femspace import (EDGE_RULE, VOLUME_RULE, bracket, build_dofmap,
                       edge_jumps, load_values)
from .mesh import nvb_refine, uniform_refine
from .solver import NewtonReport, SolverError, newton_solve

__all__ = ["LocalEstimates", "AdaptiveConfig", "LevelState", "estimate",
           "dorfler_mark", "method_levels", "uniform_levels", "METHOD_NORM"]

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

    def __post_init__(self):
        _check_positive("theta", self.theta, at_most=1.0)
        _check_positive("newton_tol", self.newton_tol)
        for name in ("max_levels", "newton_maxit"):
            count = getattr(self, name)
            if not (isinstance(count, (int, np.integer)) and count >= 1):
                raise ValueError(f"{name} must be an integer >= 1")
        if self.max_ndof is not None and not (
                isinstance(self.max_ndof, (int, np.integer))
                and self.max_ndof >= 1):
            raise ValueError(
                f"max_ndof must be None or an integer >= 1, got "
                f"{self.max_ndof!r}")


@dataclass
class LevelState:
    """Everything produced on one level of a refinement loop.

    ``report`` is the :class:`~vkfem.solver.NewtonReport` of the level's
    Newton run: its start, sweeps and steps.
    """
    level: int
    mesh: object
    solution: object
    estimates: LocalEstimates
    record: ConvergenceRecord
    report: NewtonReport


def estimate(psi, loads):
    """Local residual indicators of a converged solution.

    ``loads`` is the pair ``(f, g)``: vectorised callables, or their values
    at the ``VOLUME_RULE`` points of the solution's mesh (see
    :func:`~vkfem.femspace.load_values`).  Volume terms use
    ``VOLUME_RULE``; edge integrands of P2 fields are polynomial and
    integrated exactly.
    """
    dofmap = psi.dofmap
    mesh = dofmap.mesh
    method = psi.method
    f, g = loads

    # one Hessian array per component, for the brackets and the jumps
    hu, hv = psi.hessians()
    res1 = load_values(f, mesh) + bracket(hu, hv)[:, None]
    res2 = load_values(g, mesh) - 0.5 * bracket(hu, hu)[:, None]
    hk4 = mesh.tri_diameter**4
    eta2 = hk4 * mesh.area * ((res1**2 + res2**2) @ VOLUME_RULE.weights)

    h = mesh.edge_length
    interior = ~mesh.edge_on_boundary
    tri0, tri1 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]

    def on_triangles(term):
        # half to each side of an interior edge, all to a boundary edge's
        return np.bincount(
            np.concatenate([tri0, tri1[interior]]),
            weights=np.concatenate([np.where(interior, 0.5, 1.0) * term,
                                    0.5 * term[interior]]),
            minlength=mesh.n_triangles)

    if method in ("morley", "c0ip"):
        # Hessian jumps are interior-only and constant along each edge
        hess_jumps = []
        for he in (hu, hv):
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
        eta2 += on_triangles(term)

    if method in ("c0ip", "dg"):
        w = EDGE_RULE.weights
        term = np.zeros(mesh.n_edges)
        for coef in (psi.u, psi.v):
            vj, gj = edge_jumps(dofmap.edge_basis, coef)
            grad2 = np.einsum("q,eqa->e", w, gj**2)
            term += grad2  # h^-1 * h * sum(w |jump|^2)
            if method == "dg":
                term += (vj**2 @ w) / h**2
        eta2 += on_triangles(term)

    return LocalEstimates(np.maximum(eta2, 0.0), method)


def dorfler_mark(estimates, theta):
    """Minimal bulk-criterion marking.

    Greedily takes elements by descending ``eta2`` (ties by ascending index)
    until the marked set carries at least ``theta`` times the total squared
    estimator; elements with zero indicator are never marked.  Indicators
    must be finite and non-negative (``ValueError`` otherwise).
    """
    _check_positive("theta", theta, at_most=1.0)
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


def _coarse_hessian(mesh, prev):
    """The element Hessians of ``u`` of ``prev``'s solution on the triangles
    of ``mesh``, through the parents of ``mesh`` in ``prev.mesh``; ``None``
    without ``prev`` or when ``mesh`` does not come from ``prev.mesh``."""
    parents = None if prev is None else mesh.parents_in(prev.mesh)
    if parents is None:
        return None
    return prev.solution.hessians()[0][parents]


def _solve(level, mesh, method, config, loads, prev):
    dofmap = build_dofmap(mesh, method)
    psi, report = newton_solve(dofmap, loads, config.penalty,
                               tol=config.newton_tol,
                               maxit=config.newton_maxit,
                               coarse_hessian=_coarse_hessian(mesh, prev))
    if not report.converged:
        reason = ""
        if report.stiffness_definite is False:
            penalty = config.penalty
            reason = (f": K is indefinite for these penalties (sigma_ip "
                      f"{penalty.sigma_ip:g}, sigma_dg {penalty.sigma_dg:g})")
        raise SolverError(f"Newton did not converge at level {level} "
                          f"({method}, {dofmap.n_global} dofs){reason}")
    return psi, report


def _record(level, psi, fields, eta_total, osc, prev):
    (e_u, e_v, e_tot), (_, _, e_meth) = error_norm(
        psi, fields, ("h", METHOD_NORM[psi.method]))
    ndof = psi.dofmap.n_global
    rate = float("nan")
    # no rate between two levels of one mesh (an empty marking)
    if prev is not None and prev.error_total > 0 and e_tot > 0 \
            and ndof != prev.ndof:
        rate = -(np.log(e_tot) - np.log(prev.error_total)) \
            / (np.log(ndof) - np.log(prev.ndof))
    return ConvergenceRecord(level, ndof, e_u, e_v, e_tot, e_meth,
                             eta_total, osc, rate)


def method_levels(problem, methods, config, marked_by=None):
    """Generator over one mesh hierarchy with every method of ``methods``
    solved, estimated and recorded on each mesh.

    Each mesh gets one :func:`~vkfem.analysis.exact_fields` and one data
    oscillation, shared by all methods.  Level by level, each method's
    :class:`LevelState` is yielded as soon as it is recorded, in the order
    of ``methods``; each method's Newton run starts from its own previous
    level (see :func:`~vkfem.solver.newton_solve`).  ``marked_by=None``
    refines uniformly (red), and a method of ``methods`` refines by NVB the
    elements Dörfler marks on its indicator.  The loop stops once the level
    of the marking method, or of any method when refinement is uniform,
    reaches ``config.max_ndof`` dofs.  There are at most
    ``config.max_levels`` levels, and nothing is refined after the last.
    Raises :class:`SolverError` when Newton does not converge.
    """
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"methods {methods!r} must name methods, each once")
    if marked_by is not None and marked_by not in methods:
        raise ValueError(f"marked_by {marked_by!r} is not among the methods")
    capped = methods if marked_by is None else [marked_by]
    mesh = problem.initial_mesh
    states = dict.fromkeys(methods)
    for level in range(config.max_levels):
        if level and config.max_ndof is not None and any(
                states[m].record.ndof >= config.max_ndof for m in capped):
            return
        if level and marked_by is None:
            mesh = uniform_refine(mesh)
        elif level:
            mesh = nvb_refine(mesh, dorfler_mark(states[marked_by].estimates,
                                                 config.theta))
        fields = exact_fields(problem.exact, mesh)
        loads = fields.loads
        osc = float(np.hypot(oscillation(loads[0], mesh),
                             oscillation(loads[1], mesh)))
        for method in methods:
            prev = states[method]
            psi, report = _solve(level, mesh, method, config, loads, prev)
            eta = estimate(psi, loads)
            record = _record(level, psi, fields, eta.total, osc,
                             None if prev is None else prev.record)
            states[method] = LevelState(level, mesh, psi, eta, record,
                                        report)
            yield states[method]


def uniform_levels(problem, method, levels, config=None):
    """Generator over ``levels`` meshes of a uniform (red) refinement
    hierarchy: :func:`method_levels` with ``config`` (default
    :class:`AdaptiveConfig`), whose ``max_levels`` is replaced by
    ``levels``; it stops early once a level reaches ``max_ndof``."""
    config = replace(config or AdaptiveConfig(), max_levels=levels)
    yield from method_levels(problem, [method], config)
