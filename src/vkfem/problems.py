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


# -- square: u = sin^2(pi x) sin^2(pi y), v = x^2 y^2 (1-x)^2 (1-y)^2 --------

def _s(t):
    return np.sin(np.pi * t)**2


def _s1(t):
    return np.pi * np.sin(2.0 * np.pi * t)


def _s2(t):
    return 2.0 * np.pi**2 * np.cos(2.0 * np.pi * t)


def _s4(t):
    return -8.0 * np.pi**4 * np.cos(2.0 * np.pi * t)


def _p(t):
    return t**2 * (1.0 - t)**2


def _p1(t):
    return 2.0 * t * (1.0 - t) * (1.0 - 2.0 * t)


def _p2(t):
    return 2.0 * (6.0 * t**2 - 6.0 * t + 1.0)


def exact_square():
    """The smooth benchmark pair on the unit square with its loads."""

    def u(x, y):
        return _s(x) * _s(y)

    def u_grad(x, y):
        return np.stack([_s1(x) * _s(y), _s(x) * _s1(y)], axis=-1)

    def u_hess(x, y):
        return np.stack([_s2(x) * _s(y), _s(x) * _s2(y), _s1(x) * _s1(y)],
                        axis=-1)

    def v(x, y):
        return _p(x) * _p(y)

    def v_grad(x, y):
        return np.stack([_p1(x) * _p(y), _p(x) * _p1(y)], axis=-1)

    def v_hess(x, y):
        return np.stack([_p2(x) * _p(y), _p(x) * _p2(y), _p1(x) * _p1(y)],
                        axis=-1)

    def bilap_u(x, y):
        return _s4(x) * _s(y) + 2.0 * _s2(x) * _s2(y) + _s(x) * _s4(y)

    def bilap_v(x, y):
        return 24.0 * _p(y) + 2.0 * _p2(x) * _p2(y) + 24.0 * _p(x)

    def f(x, y):
        return bilap_u(x, y) - bracket(u_hess(x, y), v_hess(x, y))

    def g(x, y):
        hu = u_hess(x, y)
        return bilap_v(x, y) + 0.5 * bracket(hu, hu)

    return ExactSolutionPair(u, u_grad, u_hess, v, v_grad, v_hess, f, g)


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


def exact_lshape():
    """The singular benchmark pair (u = v) on the L-shaped domain.

    Its callables share the last evaluation of the fields: a call at the
    ``(x, y)`` values of that evaluation reads the value, gradient, Hessian
    and bilaplacian from it, and a call at other points evaluates all four
    again.  So the loads and the Hessians at the rule points of a mesh take
    one pass, and the values and gradients at its edge points another.  The
    returned fields are read-only.
    """
    last = {}

    def fields(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (last and np.array_equal(last["x"], x)
                and np.array_equal(last["y"], y)):
            out = _fields_polar(*_polar_of(x, y))
            for a in out:
                if isinstance(a, np.ndarray):  # array scalars are immutable
                    a.flags.writeable = False
            last.update(x=x.copy(), y=y.copy(), fields=out)
        return last["fields"]

    def value(x, y):
        return fields(x, y)[0]

    def grad(x, y):
        return fields(x, y)[1]

    def hess(x, y):
        return fields(x, y)[2]

    def f(x, y):
        _, _, h, bilap = fields(x, y)
        return bilap - bracket(h, h)

    def g(x, y):
        _, _, h, bilap = fields(x, y)
        return bilap + 0.5 * bracket(h, h)

    return ExactSolutionPair(value, grad, hess, value, grad, hess, f, g)


def square_problem():
    return Problem("square_analytic", unit_square_mesh(), exact_square())


def lshape_problem():
    return Problem("lshape_singular", lshape_mesh(), exact_lshape())
