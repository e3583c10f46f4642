"""Manufactured clamped-plate problems on the square and the L-shape.

Both benchmark pairs satisfy homogeneous clamped boundary conditions and
have closed-form loads.  The square pair is smooth.  The L-shape pair is the
singular corner function ``w = r^(1+alpha) * g(theta)`` times a polynomial
cutoff ``c``; ``w`` is biharmonic, so the bilaplacian of ``c w`` needs only
derivatives of ``c`` up to fourth order and of ``w`` up to third, and one
evaluation of the fields gives a load at every point, exact up to rounding
right up to the re-entrant corner.

Polar frame of the L-shape: the domain is (-1,1)^2 minus the closed quadrant
[0,1) x (-1,0]; the angle is measured from the positive x-axis edge of the
slit, so theta runs through [0, 3*pi/2] counterclockwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import ExactSolutionPair
from .femspace import bracket
from .mesh import Triangulation, lshape_mesh, unit_square_mesh

__all__ = ["Problem", "exact_square", "exact_lshape", "square_problem",
           "lshape_problem"]

#: Non-characteristic root of sin^2(alpha*omega) = alpha^2 sin^2(omega).
ALPHA = 0.5444837367
OMEGA = 1.5 * np.pi


@dataclass(frozen=True)
class Problem:
    """An initial mesh together with the exact pair (and its loads)."""
    name: str
    initial_mesh: Triangulation
    exact: ExactSolutionPair


# -- one shared evaluation of the eight fields ------------------------------

def _shared_pair(evaluate):
    """The exact pair whose eight callables share a one-entry memo: the last
    evaluation of ``evaluate(x, y)``, the eight fields in the order of
    :class:`~vkfem.analysis.ExactSolutionPair`.  A call at the ``(x, y)``
    values of that evaluation reads its field from it; a call at other
    points evaluates all eight again.  The fields are read-only."""
    last = {}

    def fields(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (last and np.array_equal(last["x"], x)
                and np.array_equal(last["y"], y)):
            out = evaluate(x, y)
            for a in out:
                if isinstance(a, np.ndarray):  # array scalars are immutable
                    a.flags.writeable = False
            last.update(x=x.copy(), y=y.copy(), fields=out)
        return last["fields"]

    def field(i):
        return lambda x, y: fields(x, y)[i]

    return ExactSolutionPair(*map(field, range(8)))


# -- square: u = sin^2(pi x) sin^2(pi y), v = x^2 y^2 (1-x)^2 (1-y)^2 --------

def _sine_factor(t):
    """``sin^2(pi t)`` and its first, second and fourth derivatives."""
    arg = 2.0 * np.pi * t
    sin2, cos2 = np.sin(arg), np.cos(arg)
    return (np.sin(np.pi * t)**2, np.pi * sin2, 2.0 * np.pi**2 * cos2,
            -8.0 * np.pi**4 * cos2)


def _poly_factor(t):
    """``t^2 (1-t)^2`` and its first and second derivatives."""
    return (t**2 * (1.0 - t)**2, 2.0 * t * (1.0 - t) * (1.0 - 2.0 * t),
            2.0 * (6.0 * t**2 - 6.0 * t + 1.0))


def _square_fields(x, y):
    (s, s1, s2, s4), (r, r1, r2, r4) = _sine_factor(x), _sine_factor(y)
    (p, p1, p2), (q, q1, q2) = _poly_factor(x), _poly_factor(y)
    u_hess = np.stack([s2 * r, s * r2, s1 * r1], axis=-1)
    v_hess = np.stack([p2 * q, p * q2, p1 * q1], axis=-1)
    bilap_u = s4 * r + 2.0 * s2 * r2 + s * r4
    bilap_v = 24.0 * q + 2.0 * p2 * q2 + 24.0 * p
    return (s * r, np.stack([s1 * r, s * r1], axis=-1), u_hess,
            p * q, np.stack([p1 * q, p * q1], axis=-1), v_hess,
            bilap_u - bracket(u_hess, v_hess),
            bilap_v + 0.5 * bracket(u_hess, u_hess))


def exact_square():
    """The smooth benchmark pair on the unit square with its loads, whose
    callables share one memo as those of :func:`exact_lshape` do."""
    return _shared_pair(_square_fields)


# -- L-shape: u = v = cutoff * r^(1+alpha) g(theta) --------------------------

_AM1 = ALPHA - 1.0
_AP1 = ALPHA + 1.0
_GA = np.sin(_AM1 * OMEGA) / _AM1 - np.sin(_AP1 * OMEGA) / _AP1
_GC = np.cos(_AM1 * OMEGA) - np.cos(_AP1 * OMEGA)


def _g_theta(theta):
    """The angular factor and its first three derivatives."""
    sm, cm = np.sin(_AM1 * theta), np.cos(_AM1 * theta)
    sp, cp = np.sin(_AP1 * theta), np.cos(_AP1 * theta)
    b = sm / _AM1 - sp / _AP1
    b1 = cm - cp
    b2 = -_AM1 * sm + _AP1 * sp
    b3 = -_AM1**2 * cm + _AP1**2 * cp
    b4 = _AM1**3 * sm - _AP1**3 * sp
    return (_GA * b1 - b * _GC,
            _GA * b2 - b1 * _GC,
            _GA * b3 - b2 * _GC,
            _GA * b4 - b3 * _GC)


def _cutoff_factor(t):
    """``p = (1-t^2)^2``, ``p'`` and ``p''``: the cutoff is ``p(x) p(y)``."""
    q = 1.0 - t**2
    return q**2, -4.0 * t * q, 12.0 * t**2 - 4.0


def _fields_polar(r, theta):
    """Value, gradient, Hessian and bilaplacian of the singular pair at polar
    points.

    Valid for any real ``theta`` (the formula continues analytically across
    the slit).  At the corner the Hessian and the bilaplacian are NaN.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    ct, st = np.cos(theta), np.sin(theta)
    x, y = r * ct, r * st
    g, g1, g2, g3 = _g_theta(theta)

    safe = np.where(r > 0.0, r, 1.0)
    ra = safe**ALPHA
    w = safe * ra * g
    wr = _AP1 * ra * g
    wrr = ALPHA * _AP1 * ra / safe * g
    wt = safe * ra * g1
    wtt = safe * ra * g2
    wrt = _AP1 * ra * g1

    wx = ct * wr - st * wt / safe
    wy = st * wr + ct * wt / safe
    wxx = (ct**2 * wrr - 2.0 * st * ct * wrt / safe + st**2 * wr / safe
           + 2.0 * st * ct * wt / safe**2 + st**2 * wtt / safe**2)
    wyy = (st**2 * wrr + 2.0 * st * ct * wrt / safe + ct**2 * wr / safe
           - 2.0 * st * ct * wt / safe**2 + ct**2 * wtt / safe**2)
    wxy = (st * ct * wrr + (ct**2 - st**2) * wrt / safe
           - st * ct * wr / safe - (ct**2 - st**2) * wt / safe**2
           - st * ct * wtt / safe**2)

    px, p1x, p2x = _cutoff_factor(x)
    py, p1y, p2y = _cutoff_factor(y)
    c, cx, cy = px * py, p1x * py, px * p1y
    cxx, cyy, cxy = p2x * py, px * p2y, p1x * p1y
    fields = [c * w,
              np.stack([c * wx + cx * w, c * wy + cy * w], axis=-1),
              np.stack([c * wxx + 2.0 * cx * wx + cxx * w,
                        c * wyy + 2.0 * cy * wy + cyy * w,
                        c * wxy + cx * wy + cy * wx + cxy * w], axis=-1)]
    # bilap(c w) = w bilap(c) + 2 lap(c) lap(w) + 4 grad(lap c).grad(w)
    #   + 4 grad(c).grad(lap w) + 4 D2c : D2w, as bilap(w) = 0, with
    #   lap(w) = r^(alpha-1) ((1+alpha)^2 g + g''), p''' = 24 t, p'''' = 24
    lap_w = ra / safe * (_AP1**2 * g + g2)
    lap_wr = _AM1 * lap_w / safe
    lap_wt = ra / safe**2 * (_AP1**2 * g1 + g3)  # (1/r) d/dtheta
    fields.append(
        w * (24.0 * (px + py) + 2.0 * p2x * p2y)
        + 2.0 * (cxx + cyy) * lap_w
        + 4.0 * ((24.0 * x * py + p1x * p2y) * wx
                 + (p2x * p1y + 24.0 * y * px) * wy)
        + 4.0 * (cx * (ct * lap_wr - st * lap_wt)
                 + cy * (st * lap_wr + ct * lap_wt))
        + 4.0 * (cxx * wxx + cyy * wyy + 2.0 * cxy * wxy))

    at_corner = r == 0.0
    if np.any(at_corner):
        fields[0] = np.where(at_corner, 0.0, fields[0])
        fields[1] = np.where(at_corner[..., None], 0.0, fields[1])
        fields[2] = np.where(at_corner[..., None], np.nan, fields[2])
        fields[3] = np.where(at_corner, np.nan, fields[3])
    return tuple(fields)


def _polar_of(x, y):
    r = np.hypot(x, y)
    t = np.arctan2(y, x)
    return r, np.where(t >= 0.0, t, t + 2.0 * np.pi)


def _lshape_fields(x, y):
    value, grad, hess, bilap = _fields_polar(*_polar_of(x, y))
    return (value, grad, hess, value, grad, hess, bilap - bracket(hess, hess),
            bilap + 0.5 * bracket(hess, hess))


def exact_lshape():
    """The singular benchmark pair (u = v) on the L-shaped domain.

    Its callables share one memo of the last evaluation of all fields.  The
    passes of :func:`~vkfem.analysis.exact_fields` call them one block of
    points at a time, so the memo holds at most one block, and a level's
    passes end on the few points of the boundary edges, which the memo
    keeps through the level's solves.
    """
    return _shared_pair(_lshape_fields)


def square_problem():
    return Problem("square_analytic", unit_square_mesh(), exact_square())


def lshape_problem():
    return Problem("lshape_singular", lshape_mesh(), exact_lshape())
