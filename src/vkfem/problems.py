"""Manufactured clamped-plate problems on the square and the L-shape.

Both benchmark pairs satisfy homogeneous clamped boundary conditions.  The
square pair is smooth with closed-form loads.  The L-shape pair is the
singular corner function ``r^(1+alpha) * g(theta)`` times a polynomial
cutoff; its loads need two derivative orders beyond the analytic Hessian and
are computed by fourth-order central differences of the Hessian trace in
polar coordinates (step ``1e-4 * r`` radially, ``1e-4`` in the angle), which
keeps the data error far below the discretisation error.  Each load call
evaluates the Hessian at nine points per quadrature point (the centre and
eight stencil neighbours).

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

__all__ = ["Problem", "SingularSolutionParams", "exact_square",
           "exact_lshape", "square_problem", "lshape_problem"]

#: Non-characteristic root of sin^2(alpha*omega) = alpha^2 sin^2(omega).
ALPHA = 0.5444837367
OMEGA = 1.5 * np.pi


@dataclass(frozen=True)
class Problem:
    """An initial mesh together with the exact pair (and its loads)."""
    name: str
    initial_mesh: Triangulation
    exact: ExactSolutionPair


@dataclass(frozen=True)
class SingularSolutionParams:
    """Corner-singularity exponent and opening angle of the L-shape."""
    alpha: float = ALPHA
    omega: float = OMEGA

    def characteristic_residual(self):
        return abs(np.sin(self.alpha * self.omega)**2
                   - self.alpha**2 * np.sin(self.omega)**2)


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
    b = np.sin(_AM1 * theta) / _AM1 - np.sin(_AP1 * theta) / _AP1
    b1 = np.cos(_AM1 * theta) - np.cos(_AP1 * theta)
    b2 = -_AM1 * np.sin(_AM1 * theta) + _AP1 * np.sin(_AP1 * theta)
    b3 = -_AM1**2 * np.cos(_AM1 * theta) + _AP1**2 * np.cos(_AP1 * theta)
    return (_GA * b1 - b * _GC,
            _GA * b2 - b1 * _GC,
            _GA * b3 - b2 * _GC)


def _cutoff(x, y):
    qx, qy = 1.0 - x**2, 1.0 - y**2
    c = qx**2 * qy**2
    cx = -4.0 * x * qx * qy**2
    cy = -4.0 * y * qy * qx**2
    cxx = (12.0 * x**2 - 4.0) * qy**2
    cyy = (12.0 * y**2 - 4.0) * qx**2
    cxy = 16.0 * x * y * qx * qy
    return c, cx, cy, cxx, cyy, cxy


def _fields_polar(r, theta):
    """Value, gradient and Hessian of the singular pair at polar points.

    Valid for any real ``theta`` (the formula continues analytically across
    the slit), which the load's finite-difference stencils rely on.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    ct, st = np.cos(theta), np.sin(theta)
    x, y = r * ct, r * st
    g, g1, g2 = _g_theta(theta)

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

    c, cx, cy, cxx, cyy, cxy = _cutoff(x, y)
    value = c * w
    grad = np.stack([c * wx + cx * w, c * wy + cy * w], axis=-1)
    hess = np.stack([
        c * wxx + 2.0 * cx * wx + cxx * w,
        c * wyy + 2.0 * cy * wy + cyy * w,
        c * wxy + cx * wy + cy * wx + cxy * w,
    ], axis=-1)

    at_corner = r == 0.0
    if np.any(at_corner):
        value = np.where(at_corner, 0.0, value)
        grad = np.where(at_corner[..., None], 0.0, grad)
        hess = np.where(at_corner[..., None], np.nan, hess)
    return value, grad, hess


def _polar_of(x, y):
    r = np.hypot(x, y)
    t = np.arctan2(y, x)
    return r, np.where(t >= 0.0, t, t + 2.0 * np.pi)


def _laplacian_trace(r, theta):
    hess = _fields_polar(r, theta)[2]
    return hess[..., 0] + hess[..., 1]


def _bilaplacian_polar(r, theta, l0):
    """Fourth-order FD Laplacian (in polar form) of the Hessian trace, given
    the trace ``l0`` at the centre points."""
    hr = 1e-4 * r
    lt = _laplacian_trace
    lp1, lp2 = lt(r + hr, theta), lt(r + 2.0 * hr, theta)
    lm1, lm2 = lt(r - hr, theta), lt(r - 2.0 * hr, theta)
    l_rr = (-lp2 + 16.0 * lp1 - 30.0 * l0 + 16.0 * lm1 - lm2) / (12.0 * hr**2)
    l_r = (-lp2 + 8.0 * lp1 - 8.0 * lm1 + lm2) / (12.0 * hr)
    ht = 1e-4
    tp1, tp2 = lt(r, theta + ht), lt(r, theta + 2.0 * ht)
    tm1, tm2 = lt(r, theta - ht), lt(r, theta - 2.0 * ht)
    l_tt = (-tp2 + 16.0 * tp1 - 30.0 * l0 + 16.0 * tm1 - tm2) / (12.0 * ht**2)
    return l_rr + l_r / r + l_tt / r**2


def exact_lshape():
    """The singular benchmark pair (u = v) on the L-shaped domain."""

    def value(x, y):
        r, t = _polar_of(x, y)
        return _fields_polar(r, t)[0]

    def grad(x, y):
        r, t = _polar_of(x, y)
        return _fields_polar(r, t)[1]

    def hess(x, y):
        r, t = _polar_of(x, y)
        return _fields_polar(r, t)[2]

    def f(x, y):
        r, t = _polar_of(x, y)
        h = _fields_polar(r, t)[2]
        return _bilaplacian_polar(r, t, h[..., 0] + h[..., 1]) \
            - bracket(h, h)

    def g(x, y):
        r, t = _polar_of(x, y)
        h = _fields_polar(r, t)[2]
        return _bilaplacian_polar(r, t, h[..., 0] + h[..., 1]) \
            + 0.5 * bracket(h, h)

    return ExactSolutionPair(value, grad, hess, value, grad, hess, f, g)


def square_problem():
    return Problem("square_analytic", unit_square_mesh(), exact_square())


def lshape_problem():
    return Problem("lshape_singular", lshape_mesh(), exact_lshape())
