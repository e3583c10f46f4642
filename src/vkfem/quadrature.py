"""Gauss quadrature on the reference triangle and the unit interval.

Triangle rules come from a collapsed Gauss-Jacobi x Gauss-Legendre product,
which keeps every weight positive for all supported degrees.  Points are
stored in barycentric coordinates and weights are normalised to sum to one.

Each rule is built once per degree and shared: :func:`triangle_rule` and
:func:`edge_rule` return the same frozen rule, with read-only arrays, for
every call with the same degree (after ``int`` conversion), so a rule costs
no Gauss-Jacobi root finding after its first use.  ``MAX_DEGREE`` bounds the
number of rules kept.
The 1-D Gauss rules come from numpy (``leggauss``, and Golub-Welsch for
Gauss-Jacobi), so importing the package does not load ``scipy.special``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["TriangleRule", "EdgeRule", "triangle_rule", "edge_rule",
           "MAX_DEGREE"]

MAX_DEGREE = 10


@dataclass(frozen=True)
class TriangleRule:
    """Quadrature rule on the reference triangle {x,y >= 0, x+y <= 1}."""
    points: np.ndarray   # (n, 3) barycentric coordinates
    weights: np.ndarray  # (n,), positive, sums to 1
    degree: int          # highest total polynomial degree integrated exactly


@dataclass(frozen=True)
class EdgeRule:
    """Gauss-Legendre rule on [0, 1]."""
    points: np.ndarray   # (n,) in [0, 1]
    weights: np.ndarray  # (n,), positive, sums to 1
    degree: int


def _check_degree(degree):
    degree = int(degree)
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"unsupported quadrature degree {degree} "
                         f"(must be 1..{MAX_DEGREE})")
    return degree


def edge_rule(degree):
    """Gauss-Legendre rule on [0, 1] exact for polynomials up to `degree`."""
    return _edge_rule(_check_degree(degree))


@lru_cache(maxsize=None)
def _edge_rule(degree):
    n = (degree + 2) // 2
    x, w = leggauss(n)
    rule = EdgeRule(0.5 * (x + 1.0), 0.5 * w, degree)
    rule.points.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


def _gauss_jacobi_10(n):
    """The ``n``-point Gauss rule on [-1, 1] for the weight ``1 - x`` by
    Golub-Welsch: the eigenvalues of the Jacobi matrix, and 2 (the weight's
    integral) times the squared first components of its eigenvectors."""
    k = np.arange(n, dtype=float)
    off = np.sqrt(k[1:] * (k[1:] + 1.0)) / (2.0 * k[1:] + 1.0)
    jacobi = np.diag(-1.0 / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
    nodes, vecs = np.linalg.eigh(jacobi + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vecs[0]**2


def triangle_rule(degree):
    """Positive-weight rule on the reference triangle exact up to `degree`.

    Built from the Duffy collapse: with x from an n-point Gauss-Jacobi rule
    for the weight (1-x) and y = (1-x) t with t Gauss-Legendre, every
    polynomial of total degree <= 2n-1 is integrated exactly.
    """
    return _triangle_rule(_check_degree(degree))


@lru_cache(maxsize=None)
def _triangle_rule(degree):
    n = (degree + 2) // 2
    xj, wj = _gauss_jacobi_10(n)
    x = 0.5 * (xj + 1.0)
    wx = 0.25 * wj          # integrates g against (1-x) dx on [0, 1]
    edge = _edge_rule(degree)  # the n-point Gauss-Legendre rule on [0, 1]
    xx = np.repeat(x, n)
    yy = ((1.0 - x)[:, None] * edge.points[None, :]).ravel()
    weights = 2.0 * (wx[:, None] * edge.weights[None, :]).ravel()  # sum 1
    points = np.column_stack([1.0 - xx - yy, xx, yy])
    rule = TriangleRule(points, weights, degree)
    rule.points.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule
