"""Discrete norms, errors against exact solutions, and convergence rates.

Four (semi)norms are available for broken P2 fields and for errors against a
smooth exact solution:

* ``nc`` -- the broken H^2 seminorm (piecewise Hessian in L^2),
* ``ip`` -- ``nc`` plus ``h^-1``-weighted normal-derivative jumps,
* ``dg`` -- ``ip`` plus ``h^-3``-weighted value jumps,
* ``h``  -- the unified norm: ``nc`` plus squared edge means of the
  normal-derivative jump plus ``h^-2``-weighted squared vertex-value jumps.

All jump sums run over every edge with the trace convention on the
boundary.  In an error norm the interior jump terms reduce to those of the
discrete field (a smooth exact solution has none), while on boundary edges
the exact traces are subtracted, so non-clamped exact fields are handled
correctly as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .femspace import (EDGE_RULE, FROB_WEIGHTS, VOLUME_RULE, edge_jumps,
                       edge_points, element_hessians, load_values,
                       rule_point_blocks, rule_values)

__all__ = ["ExactSolutionPair", "ExactFields", "exact_fields",
           "ConvergenceRecord", "NORM_KINDS",
           "error_norm", "discrete_norm", "unified_h_norm", "oscillation",
           "oscillation_local", "best_approx_term", "fit_rate",
           "convergence_rates"]

NORM_KINDS = ("nc", "ip", "dg", "h")

#: Values of a quadratic at the points of ``EDGE_RULE`` times this matrix
#: are its values at the edge parameters 0 and 1: a P2 trace is quadratic
#: along a straight edge, so its vertex values need no table of their own.
_TO_ENDS = np.linalg.solve(np.vander(EDGE_RULE.points, 3).T,
                           np.vander([0.0, 1.0], 3).T)


@dataclass(frozen=True)
class ExactSolutionPair:
    """A manufactured solution pair with its loads.

    ``u``/``v`` are vectorised values, ``*_grad`` return ``(..., 2)`` arrays
    and ``*_hess`` return ``(..., 3)`` arrays of (xx, yy, xy).  ``f`` and
    ``g`` are the loads of the two equations.  Boundary traces of the pair
    and its normal derivatives are expected to vanish (clamped plate).
    """
    u: callable
    u_grad: callable
    u_hess: callable
    v: callable
    v_grad: callable
    v_hess: callable
    f: callable
    g: callable


@dataclass(frozen=True)
class ExactFields:
    """An exact pair on one mesh, for every method solved on it: ``f`` and
    ``g`` at the ``VOLUME_RULE`` points (or ``None``), and per component
    ``u``, ``v`` the rule-weighted mean ``(nt, 3)`` and spread ``sum_q w_q
    |D2 - mean|_F^2`` ``(nt,)`` of the Hessian on each triangle, and the
    values at the ``EDGE_RULE`` points and both ends of each boundary edge
    with the gradients at the rule points."""
    mesh: object
    loads: tuple | None
    hess_mean: tuple
    hess_spread: tuple
    traces: tuple


def exact_fields(exact, mesh):
    """The :class:`ExactFields` of a pair on ``mesh`` from two passes: the
    loads and Hessians at each block of
    :func:`~vkfem.femspace.rule_point_blocks`, then the values and gradients
    at the boundary-edge points, which a pair that keeps its last evaluation
    (see :mod:`vkfem.problems`) keeps after them.  Loads of the wrong shape
    raise ``ValueError``."""
    return ExactFields(mesh, *_volume_pass(exact, mesh, True),
                       _boundary_traces(exact, mesh))


def _volume_pass(exact, mesh, loads):
    """Loads (if ``loads``), Hessian means and spreads of one pass."""
    w = VOLUME_RULE.weights
    shape = (mesh.n_triangles, len(w))
    values = (np.empty(shape), np.empty(shape)) if loads else None
    means = (np.empty((shape[0], 3)), np.empty((shape[0], 3)))
    sq_devs = (np.empty(shape), np.empty(shape))
    for tris, x, y in rule_point_blocks(mesh):
        if loads:
            for out, load in zip(values, (exact.f, exact.g)):
                out[tris] = rule_values(load(x, y), x.shape)
        for mean, sq_dev, hess in zip(means, sq_devs,
                                      (exact.u_hess, exact.v_hess)):
            h = hess(x, y)
            mean[tris] = w @ h
            sq_dev[tris] = (h - mean[tris][:, None, :])**2 @ FROB_WEIGHTS
    # the weighted sums over the whole mesh at once: BLAS rounds each row's
    # sum by where the row sits in the array, so block sums differ in bits
    return values, means, tuple(sq_dev @ w for sq_dev in sq_devs)


def _boundary_traces(exact, mesh):
    bdry = mesh.edge_on_boundary
    pts = np.concatenate([edge_points(mesh, EDGE_RULE.points, bdry),
                          mesh.vertices[mesh.edges[bdry]]], axis=1)
    x, y = pts[..., 0], pts[..., 1]
    q = len(EDGE_RULE.points)
    return tuple((value(x, y), grad(x, y)[:, :q]) for value, grad in
                 ((exact.u, exact.u_grad), (exact.v, exact.v_grad)))


@dataclass
class ConvergenceRecord:
    """One refinement level of a convergence study."""
    level: int
    ndof: int
    error_u: float
    error_v: float
    error_total: float
    error_method: float
    estimator_total: float
    oscillation: float
    rate_vs_ndof: float


def _jump_terms(dofmap, coef, kinds, exact=None):
    """Squared jump contributions of a discrete field, one per norm kind.

    With ``exact = (values, gradients)`` on the boundary edges, as in
    :class:`ExactFields`, the jumps are those of the error ``exact -
    field``: on interior edges the smooth exact part cancels, on boundary
    edges its trace is subtracted (trace convention).
    """
    if all(kind == "nc" for kind in kinds):
        return [0.0] * len(kinds)
    mesh = dofmap.mesh
    w = EDGE_RULE.weights
    vj, gj = edge_jumps(dofmap.edge_basis, coef)
    vj = np.concatenate([vj, vj @ _TO_ENDS], axis=1)
    dj = np.einsum("eqa,ea->eq", gj, mesh.edge_normal)
    if exact is not None:
        bdry = mesh.edge_on_boundary
        # boundary: [error] = exact trace - field trace
        vj[bdry] = exact[0] - vj[bdry]
        dj[bdry] = np.einsum("eqa,ea->eq", exact[1],
                             mesh.edge_normal[bdry]) - dj[bdry]
    vj, ends = np.split(vj, [len(w)], axis=1)
    h = mesh.edge_length
    out = [0.0] * len(kinds)
    for i, kind in enumerate(kinds):
        if kind == "h":
            mean_dn = dj @ w
            vertex = (ends**2).sum(axis=1)
            out[i] = float((mean_dn**2).sum() + (vertex / h**2).sum())
        elif kind != "nc":
            # h^-1 ||[dv/dnu]||^2 over an edge is h^-1 * h * sum(w * jump^2)
            out[i] = float((dj**2 @ w).sum())
            if kind == "dg":
                out[i] += float(((vj**2 @ w) / h**2).sum())
    return out


def discrete_norm(dofmap, coef, kind="h"):
    """Norm of a discrete scalar field given by its coefficients."""
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}, expected {NORM_KINDS}")
    hess = element_hessians(dofmap.basis, coef)
    nc2 = float(np.einsum("t,tc,c->", dofmap.mesh.area, hess**2,
                          FROB_WEIGHTS))
    return float(np.sqrt(nc2 + _jump_terms(dofmap, coef, [kind])[0]))


def unified_h_norm(dofmap, coef):
    """The unified norm of a discrete field (equals ``nc`` on Morley data)."""
    return discrete_norm(dofmap, coef, "h")


def error_norm(psi, exact, kind="h"):
    """Error of a discrete pair against an exact pair in one or more norms.

    Returns ``(e_u, e_v, sqrt(e_u^2 + e_v^2))`` for one norm ``kind``, and a
    list of such triples for a sequence of kinds.  ``exact`` is a pair or
    the :class:`ExactFields` of the solution's mesh.  Volume terms use
    ``sum_q w_q |D2 - H|^2 = spread + |mean - H|^2`` on each triangle (the
    ``VOLUME_RULE`` weights sum to one).  Interior jump terms reduce to the discrete field's jumps (the
    exact pair is smooth across edges), while on boundary edges the exact
    traces are subtracted.
    """
    kinds = [kind] if isinstance(kind, str) else list(kind)
    for k in kinds:
        if k not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {k!r}, expected {NORM_KINDS}")
    dofmap = psi.dofmap
    mesh = dofmap.mesh
    if not isinstance(exact, ExactFields):
        traces = _boundary_traces(exact, mesh) if any(
            k != "nc" for k in kinds) else (None, None)
        exact = ExactFields(mesh, *_volume_pass(exact, mesh, False), traces)
    elif exact.mesh is not mesh:
        raise ValueError("the exact fields are those of another mesh")
    errors = []
    for coef, hess, mean, spread, trace in zip(
            (psi.u, psi.v), psi.hessians(), exact.hess_mean,
            exact.hess_spread, exact.traces):
        e2 = float(mesh.area @ (spread + (mean - hess)**2 @ FROB_WEIGHTS))
        errors.append([np.sqrt(e2 + jump)
                       for jump in _jump_terms(dofmap, coef, kinds, trace)])
    out = [(float(e_u), float(e_v), float(np.hypot(e_u, e_v)))
           for e_u, e_v in zip(*errors)]
    return out[0] if isinstance(kind, str) else out


def oscillation_local(f, mesh):
    """Per-element oscillation ``h_K^2 || f - mean_K f ||_{L2(K)}``.

    ``f`` is a vectorised callable or its values at the ``VOLUME_RULE``
    points of ``mesh`` (see :func:`~vkfem.femspace.load_values`).
    """
    w = VOLUME_RULE.weights
    vals = load_values(f, mesh)
    mean = vals @ w
    sq = mesh.area * ((vals - mean[:, None])**2 @ w)
    return mesh.tri_diameter**2 * np.sqrt(np.maximum(sq, 0.0))


def oscillation(f, mesh):
    """Data oscillation: rms of the local terms over the triangulation.

    ``f`` is a callable or its values at the rule points, as for
    :func:`oscillation_local`.
    """
    return float(np.sqrt((oscillation_local(f, mesh)**2).sum()))


def best_approx_term(exact, mesh):
    """Distance of the exact Hessian pair from element-wise constants.

    Computes ``sqrt(sum_K int_K |D2 psi - mean_K D2 psi|^2)`` over both
    components; this is the best-approximation quantity the three methods'
    errors are equivalent to.
    """
    spreads = _volume_pass(exact, mesh, False)[2]
    return float(np.sqrt(sum(float(mesh.area @ s) for s in spreads)))


def fit_rate(ndofs, errors, window=None):
    """Least-squares slope of log(error) against log(ndof).

    The convention is ``error ~ C * ndof**(-rate)``, so a positive return
    value means decay.  ``window`` restricts the fit to the trailing levels.
    """
    n = np.asarray(ndofs, dtype=float)
    e = np.asarray(errors, dtype=float)
    if window is not None:
        n, e = n[-window:], e[-window:]
    if len(n) < 2:
        raise ValueError("need at least two levels to fit a rate")
    if np.any(e <= 0.0):
        return 0.0 if np.allclose(e, e[0]) else float("nan")
    return float(-np.polyfit(np.log(n), np.log(e), 1)[0])


def convergence_rates(records, window=3):
    """Fitted decay rates of a convergence study.

    Returns a dict with slopes for the total error, both components and the
    estimator, fitted over the trailing ``window`` levels.  Fewer than three
    records raise ``ValueError``.
    """
    if len(records) < 3:
        raise ValueError("need at least three records to fit rates")
    ndofs = [r.ndof for r in records]
    out = {}
    for name in ("error_u", "error_v", "error_total", "estimator_total"):
        values = [getattr(r, name) for r in records]
        out[name] = fit_rate(ndofs, values, window)
    return out
