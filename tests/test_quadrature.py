import math
import os
import subprocess
import sys

import numpy as np
import pytest

from vkfem import edge_rule, triangle_rule

from oracles import integrate_edge, integrate_triangle

REF = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
MAPPED = np.array([(0.2, -0.1), (1.7, 0.3), (0.6, 1.4)])


def exact_reference_monomial(p, q):
    # int over {x,y>=0, x+y<=1} of x^p y^q
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


def affine_power_coeffs(c0, a, b, p):
    # coefficients of (c0 + a*xi + b*eta)^p on the xi^i eta^j basis
    out = np.zeros((p + 1, p + 1))
    for i in range(p + 1):
        for j in range(p + 1 - i):
            out[i, j] = (math.comb(p, i) * math.comb(p - i, j)
                         * c0**(p - i - j) * a**i * b**j)
    return out


def exact_mapped_monomial(tri, p, q):
    # expand the affine pullback and integrate term by term on the reference
    (x0, y0), (x1, y1), (x2, y2) = tri
    cx = affine_power_coeffs(x0, x1 - x0, x2 - x0, p)
    cy = affine_power_coeffs(y0, y1 - y0, y2 - y0, q)
    coeffs = np.zeros((p + q + 1, p + q + 1))
    for i in range(p + 1):
        for j in range(p + 1 - i):
            coeffs[i:i + q + 1, j:j + q + 1] += cx[i, j] * cy[:q + 1, :q + 1]
    jac = abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    total = 0.0
    for m in range(p + q + 1):
        for n in range(p + q + 1 - m):
            total += coeffs[m, n] * exact_reference_monomial(m, n)
    return jac * total


def test_degree2_constant():
    assert integrate_triangle(triangle_rule(2), lambda x, y: np.ones_like(x),
                              REF) == pytest.approx(0.5, abs=1e-15)


def test_degree2_x_squared():
    assert integrate_triangle(triangle_rule(2), lambda x, y: x**2,
                              REF) == pytest.approx(1.0 / 12.0, abs=1e-14)


def test_degree4_x2y2():
    assert integrate_triangle(triangle_rule(4), lambda x, y: x**2 * y**2,
                              REF) == pytest.approx(1.0 / 180.0, abs=1e-15)


@pytest.mark.parametrize("degree", range(1, 11))
def test_reference_exactness_and_positivity(degree):
    rule = triangle_rule(degree)
    assert (rule.weights > 0).all()
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            got = integrate_triangle(rule, lambda x, y: x**p * y**q, REF)
            assert got == pytest.approx(exact_reference_monomial(p, q),
                                        abs=1e-13), (p, q)


@pytest.mark.parametrize("degree", [3, 6, 10])
def test_mapped_element_exactness(degree):
    rule = triangle_rule(degree)
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            got = integrate_triangle(rule, lambda x, y: x**p * y**q, MAPPED)
            want = exact_mapped_monomial(MAPPED, p, q)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (p, q)


def test_triangle_rule_rejects_bad_degree():
    for degree in (0, 11, -3):
        with pytest.raises(ValueError):
            triangle_rule(degree)
        with pytest.raises(ValueError):
            edge_rule(degree)


@pytest.mark.parametrize("make", [triangle_rule, edge_rule])
def test_rules_are_built_once_per_degree_and_read_only(make):
    rule = make(8)
    # every spelling of one degree gets the same rule
    for degree in (8, 8.0, np.int64(8), "8"):
        assert make(degree) is rule
    assert make(7) is not rule and make(7).degree == 7
    assert not rule.points.flags.writeable
    assert not rule.weights.flags.writeable
    with pytest.raises(ValueError):
        rule.points[0] = 0.0
    # an invalid degree raises on every call, not only the first
    for _ in range(2):
        for degree in (0, 11):
            with pytest.raises(ValueError):
                make(degree)


def test_edge_rule_point_counts_and_values():
    one = edge_rule(1)
    assert len(one.points) == 1
    assert float(one.weights @ one.points) == pytest.approx(0.5, abs=1e-15)
    two = edge_rule(3)
    assert len(two.points) == 2
    assert float(two.weights @ two.points**3) == pytest.approx(0.25, abs=1e-14)
    three = edge_rule(5)
    assert len(three.points) == 3
    assert float(three.weights @ three.points**5) == pytest.approx(
        1.0 / 6.0, abs=1e-14)


@pytest.mark.parametrize("degree", range(1, 11))
def test_edge_rule_exactness(degree):
    rule = edge_rule(degree)
    assert (rule.weights > 0).all()
    for p in range(degree + 1):
        got = float(rule.weights @ rule.points**p)
        assert got == pytest.approx(1.0 / (p + 1), abs=1e-13)


def test_integrate_triangle_constant_times_area():
    d1, d2 = MAPPED[1] - MAPPED[0], MAPPED[2] - MAPPED[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    got = integrate_triangle(triangle_rule(2), lambda x, y: 3.25 * np.ones_like(x),
                             MAPPED)
    assert got == pytest.approx(3.25 * area, rel=1e-14)


def test_integrate_triangle_x_over_reference():
    assert integrate_triangle(triangle_rule(2), lambda x, y: x,
                              REF) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_integrate_triangle_linearity():
    rule = triangle_rule(5)
    f = lambda x, y: np.sin(x) * y
    g = lambda x, y: np.cos(3 * y) + x
    lhs = integrate_triangle(rule, lambda x, y: 2.5 * f(x, y) - 1.5 * g(x, y),
                             MAPPED)
    rhs = 2.5 * integrate_triangle(rule, f, MAPPED) \
        - 1.5 * integrate_triangle(rule, g, MAPPED)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_integrate_triangle_degenerate():
    with pytest.raises(ValueError):
        integrate_triangle(triangle_rule(2), lambda x, y: x,
                           [(0, 0), (1, 1), (2, 2)])


def test_integrate_edge():
    got = integrate_edge(edge_rule(4), lambda x, y: x * y, (0.0, 1.0), (2.0, 0.0))
    # line x = 2t, y = 1 - t, length sqrt(5): int_0^1 2t(1-t) sqrt5 dt
    assert got == pytest.approx(np.sqrt(5.0) / 3.0, rel=1e-13)


@pytest.mark.parametrize("n", range(1, 7))
def test_gauss_rules_match_scipy_and_integrate_their_monomials(n):
    from scipy.special import roots_jacobi, roots_legendre

    from numpy.polynomial.legendre import leggauss

    from vkfem.quadrature import _gauss_jacobi_10
    for (x, w), (xs, ws) in [(_gauss_jacobi_10(n), roots_jacobi(n, 1.0, 0.0)),
                             (leggauss(n), roots_legendre(n))]:
        assert np.abs(x - xs).max() <= 1e-14
        assert np.abs(w - ws).max() <= 1e-14
    # every monomial up to degree 2n - 1 against 1 - x on [-1, 1], and
    # against 1
    x, w = _gauss_jacobi_10(n)
    xl, wl = leggauss(n)
    for p in range(2 * n):
        even = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        odd = 0.0 if p % 2 == 0 else 2.0 / (p + 2)
        assert float(w @ x**p) == pytest.approx(even - odd, abs=1e-14)
        assert float(wl @ xl**p) == pytest.approx(even, abs=1e-14)


def test_importing_the_package_does_not_load_scipy_special():
    code = "import sys, vkfem; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             sys.path)})
    assert out.stdout.strip() == "False"
