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

from .femspace import EDGE_RULE, edge_jumps, element_hessians, load_values
from .quadrature import triangle_rule

__all__ = ["ExactSolutionPair", "ConvergenceRecord", "NORM_KINDS",
           "error_norm", "discrete_norm", "unified_h_norm", "oscillation",
           "oscillation_local", "best_approx_term", "fit_rate",
           "convergence_rates"]

NORM_KINDS = ("nc", "ip", "dg", "h")

_FROB = np.array([1.0, 1.0, 2.0])


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


def _jump_terms(dofmap, coef, kind, exact=None):
    """Squared jump contributions of a discrete field for one norm kind.

    With ``exact = (value, gradient)`` the jumps are those of the error
    ``exact - field``: on interior edges the smooth exact part cancels, on
    boundary edges its trace is subtracted (trace convention).
    """
    if kind == "nc":
        return 0.0
    mesh = dofmap.mesh
    eb = dofmap.edge_basis
    vj, gj = edge_jumps(eb, coef)
    dj = np.einsum("eqa,ea->eq", gj, mesh.edge_normal)
    if exact is not None:
        bdry = mesh.edge_on_boundary[:, None]
        x, y = eb.points[..., 0], eb.points[..., 1]
        exact_v = np.asarray(exact[0](x, y), dtype=float)
        exact_dn = np.einsum("eqa,ea->eq", np.asarray(exact[1](x, y)),
                             mesh.edge_normal)
        # boundary: [error] = exact trace - field trace (= exact - vj there)
        vj = np.where(bdry, exact_v - vj, vj)
        dj = np.where(bdry, exact_dn - dj, dj)
    w = EDGE_RULE.weights
    nq = len(w)
    # the table's points past the rule's are the edge endpoints
    vj, dj, ends = vj[:, :nq], dj[:, :nq], vj[:, nq:]
    h = mesh.edge_length
    if kind == "h":
        mean_dn = np.einsum("q,eq->e", w, dj)
        vertex = (ends**2).sum(axis=1)
        return float((mean_dn**2).sum() + (vertex / h**2).sum())
    # h^-1 ||[dv/dnu]||^2 over an edge is h^-1 * h * sum(w * jump^2)
    dn_total = float(np.einsum("q,eq->e", w, dj**2).sum())
    if kind == "ip":
        return dn_total
    if kind == "dg":
        val = float((np.einsum("q,eq->e", w, vj**2) / h**2).sum())
        return dn_total + val
    raise ValueError(f"unknown norm kind {kind!r}")


def discrete_norm(dofmap, coef, kind="h"):
    """Norm of a discrete scalar field given by its coefficients."""
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}, expected {NORM_KINDS}")
    basis = dofmap.basis
    hess = element_hessians(basis, coef)
    nc2 = float(np.einsum("t,tc,c->", basis.area, hess**2, _FROB))
    return float(np.sqrt(nc2 + _jump_terms(dofmap, coef, kind)))


def unified_h_norm(dofmap, coef):
    """The unified norm of a discrete field (equals ``nc`` on Morley data)."""
    return discrete_norm(dofmap, coef, "h")


def error_norm(psi, exact, kind="h", quad_degree=8):
    """Error of a discrete pair against an exact pair in one norm.

    Returns ``(e_u, e_v, sqrt(e_u^2 + e_v^2))``.  Volume terms use
    quadrature of the given degree; interior jump terms reduce to the
    discrete field's jumps (the exact pair is smooth across edges), while on
    boundary edges the exact traces are subtracted.
    """
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}, expected {NORM_KINDS}")
    dofmap = psi.dofmap
    basis = dofmap.basis
    rule = triangle_rule(quad_degree)
    pts = basis.physical_points(rule.points[:, 1:])
    x, y = pts[..., 0], pts[..., 1]
    errors = []
    for coef, value_fn, grad_fn, hess_fn in (
            (psi.u, exact.u, exact.u_grad, exact.u_hess),
            (psi.v, exact.v, exact.v_grad, exact.v_hess)):
        hfield = element_hessians(basis, coef)
        diff = np.asarray(hess_fn(x, y)) - hfield[:, None, :]
        e2 = float(np.einsum("t,q,tqc,c->", basis.area, rule.weights,
                             diff**2, _FROB))
        e2 += _jump_terms(dofmap, coef, kind, exact=(value_fn, grad_fn))
        errors.append(np.sqrt(e2))
    e_u, e_v = errors
    return float(e_u), float(e_v), float(np.hypot(e_u, e_v))


def oscillation_local(f, mesh, quad_degree=8):
    """Per-element oscillation ``h_K^2 || f - mean_K f ||_{L2(K)}``.

    ``f`` is a vectorised callable or its values at the degree-
    ``quad_degree`` rule points of ``mesh`` (see
    :func:`~vkfem.femspace.load_values`).
    """
    rule = triangle_rule(quad_degree)
    vals = load_values(f, mesh, quad_degree)
    mean = np.einsum("q,tq->t", rule.weights, vals)
    sq = np.einsum("t,q,tq->t", mesh.area, rule.weights,
                   (vals - mean[:, None])**2)
    return mesh.tri_diameter**2 * np.sqrt(np.maximum(sq, 0.0))


def oscillation(f, mesh, quad_degree=8):
    """Data oscillation: rms of the local terms over the triangulation.

    ``f`` is a callable or its values at the rule points, as for
    :func:`oscillation_local`.
    """
    return float(np.sqrt((oscillation_local(f, mesh, quad_degree)**2).sum()))


def best_approx_term(exact, mesh, quad_degree=8):
    """Distance of the exact Hessian pair from element-wise constants.

    Computes ``sqrt(sum_K int_K |D2 psi - mean_K D2 psi|^2)`` over both
    components; this is the best-approximation quantity the three methods'
    errors are equivalent to.
    """
    rule = triangle_rule(quad_degree)
    total = 0.0
    for hess_fn in (exact.u_hess, exact.v_hess):
        # at the rule points, the same ones the loads are evaluated at
        h = load_values(hess_fn, mesh, quad_degree)
        mean = np.einsum("q,tqc->tc", rule.weights, h)
        full = np.einsum("t,q,tqc,c->t", mesh.area, rule.weights, h**2, _FROB)
        const = mesh.area * np.einsum("tc,c->t", mean**2, _FROB)
        total += float(np.maximum(full - const, 0.0).sum())
    return float(np.sqrt(total))


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
