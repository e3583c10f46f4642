import numpy as np
import pytest

from vkfem import SingularSolutionParams, exact_lshape, exact_square
from vkfem.problems import ALPHA, OMEGA, _polar_of


def central_gradient(f, x, y, h=1e-6):
    return np.stack([(f(x + h, y) - f(x - h, y)) / (2 * h),
                     (f(x, y + h) - f(x, y - h)) / (2 * h)], axis=-1)


def test_square_point_values():
    ex = exact_square()
    assert ex.u(0.5, 0.5) == pytest.approx(1.0, abs=1e-14)
    assert ex.v(0.5, 0.5) == pytest.approx(0.25**4, abs=1e-16)


def test_square_clamped_boundary():
    ex = exact_square()
    t = np.linspace(0.0, 1.0, 17)
    zero = np.zeros_like(t)
    for x, y in (((t, zero)), ((t, zero + 1.0)), ((zero, t)), ((zero + 1.0, t))):
        assert np.abs(ex.u(x, y)).max() < 1e-12
        assert np.abs(ex.v(x, y)).max() < 1e-12
        assert np.abs(ex.u_grad(x, y)).max() < 1e-12
        assert np.abs(ex.v_grad(x, y)).max() < 1e-12


def test_square_derivatives_match_finite_differences():
    ex = exact_square()
    rng = np.random.default_rng(20)
    x, y = rng.uniform(0.1, 0.9, (2, 12))
    g = central_gradient(ex.u, x, y)
    assert np.abs(g - ex.u_grad(x, y)).max() < 1e-7
    gh = central_gradient(lambda a, b: ex.u_grad(a, b)[..., 0], x, y)
    hess = ex.u_hess(x, y)
    assert np.abs(gh[..., 0] - hess[..., 0]).max() < 1e-6
    assert np.abs(gh[..., 1] - hess[..., 2]).max() < 1e-6
    gv = central_gradient(ex.v, x, y)
    assert np.abs(gv - ex.v_grad(x, y)).max() < 1e-8


def test_square_loads_match_fd_bilaplacian():
    # f = bilap(u) - [u, v]; check bilap(u) against second differences of
    # the analytic Hessian trace
    ex = exact_square()
    x, y = np.array([0.37]), np.array([0.61])
    lap = lambda a, b: ex.u_hess(a, b)[..., 0] + ex.u_hess(a, b)[..., 1]
    h = 1e-4
    bl = ((lap(x + h, y) - 2 * lap(x, y) + lap(x - h, y)) / h**2
          + (lap(x, y + h) - 2 * lap(x, y) + lap(x, y - h)) / h**2)
    hu, hv = ex.u_hess(x, y), ex.v_hess(x, y)
    bracket_uv = hu[..., 0] * hv[..., 1] + hu[..., 1] * hv[..., 0] \
        - 2 * hu[..., 2] * hv[..., 2]
    assert ex.f(x, y)[0] == pytest.approx((bl - bracket_uv)[0], rel=1e-5)
    bracket_uu = 2 * (hu[..., 0] * hu[..., 1] - hu[..., 2]**2)
    lapv = lambda a, b: ex.v_hess(a, b)[..., 0] + ex.v_hess(a, b)[..., 1]
    blv = ((lapv(x + h, y) - 2 * lapv(x, y) + lapv(x - h, y)) / h**2
           + (lapv(x, y + h) - 2 * lapv(x, y) + lapv(x, y - h)) / h**2)
    assert ex.g(x, y)[0] == pytest.approx((blv + 0.5 * bracket_uu)[0],
                                          rel=1e-5)


def test_singular_params_characteristic_equation():
    assert SingularSolutionParams().characteristic_residual() <= 1e-8


def test_lshape_angle_branch():
    r, t = _polar_of(np.array([1.0, 0.0, -1.0, 0.0]),
                     np.array([0.0, 1.0, 0.0, -1.0]))
    assert np.allclose(t, [0.0, np.pi / 2, np.pi, 1.5 * np.pi])


def test_lshape_vanishes_on_slit_legs():
    ex = exact_lshape()
    r = np.array([0.15, 0.4, 0.75, 0.95])
    # theta = 0 leg: positive x axis
    assert np.abs(ex.u(r, np.zeros_like(r))).max() < 1e-10
    # theta = 3 pi / 2 leg: negative y axis
    assert np.abs(ex.u(np.zeros_like(r), -r)).max() < 1e-10
    assert np.abs(ex.u_grad(r, np.zeros_like(r))).max() < 1e-8
    assert np.abs(ex.u_grad(np.zeros_like(r), -r)).max() < 1e-8


def test_lshape_cutoff_zeroes_outer_boundary():
    ex = exact_lshape()
    s = np.linspace(-0.9, 0.9, 7)
    ones = np.ones_like(s)
    for x, y in ((s, ones), (s, -ones), (-ones, s)):
        assert np.abs(ex.u(x, y)).max() < 1e-12
        assert np.abs(ex.u_grad(x, y)).max() < 1e-12


def test_lshape_g_double_coding():
    # independent term-by-term recoding of the angular factor
    from vkfem.problems import _g_theta

    def g_literal(theta):
        a = ALPHA
        w = OMEGA
        first = (np.sin((a - 1) * w) / (a - 1) - np.sin((a + 1) * w) / (a + 1)) \
            * (np.cos((a - 1) * theta) - np.cos((a + 1) * theta))
        second = (np.sin((a - 1) * theta) / (a - 1)
                  - np.sin((a + 1) * theta) / (a + 1)) \
            * (np.cos((a - 1) * w) - np.cos((a + 1) * w))
        return first - second

    theta = np.linspace(0.0, OMEGA, 23)
    assert np.abs(_g_theta(theta)[0] - g_literal(theta)).max() < 1e-12
    assert abs(g_literal(0.0)) < 1e-13
    assert abs(g_literal(OMEGA)) < 1e-9


def test_lshape_derivatives_match_finite_differences():
    ex = exact_lshape()
    pts = np.array([(-0.5, 0.4), (-0.3, -0.6), (0.4, 0.5), (-0.7, -0.2)])
    x, y = pts[:, 0], pts[:, 1]
    g = central_gradient(ex.u, x, y)
    assert np.abs(g - ex.u_grad(x, y)).max() < 1e-7
    for comp, pick in ((0, lambda H: H[..., 0]), (1, lambda H: H[..., 2])):
        gh = central_gradient(lambda a, b: ex.u_grad(a, b)[..., comp], x, y)
        hess = ex.u_hess(x, y)
        assert np.abs(gh[..., 0] - hess[..., [0, 2][comp]]).max() < 1e-5
        assert np.abs(gh[..., 1] - hess[..., [2, 1][comp]]).max() < 1e-5


def test_lshape_load_matches_cartesian_fd():
    ex = exact_lshape()
    x, y = np.array([-0.45]), np.array([0.35])
    lap = lambda a, b: ex.u_hess(a, b)[..., 0] + ex.u_hess(a, b)[..., 1]
    h = 1e-4
    bl = ((lap(x + h, y) - 2 * lap(x, y) + lap(x - h, y)) / h**2
          + (lap(x, y + h) - 2 * lap(x, y) + lap(x, y - h)) / h**2)
    hu = ex.u_hess(x, y)
    bracket = 2 * (hu[..., 0] * hu[..., 1] - hu[..., 2]**2)
    assert ex.f(x, y)[0] == pytest.approx((bl - bracket)[0], rel=1e-5)
    assert ex.g(x, y)[0] == pytest.approx((bl + 0.5 * bracket)[0], rel=1e-5)


def test_lshape_corner_values():
    ex = exact_lshape()
    assert ex.u(np.array([0.0]), np.array([0.0]))[0] == 0.0
    assert np.abs(ex.u_grad(np.array([0.0]), np.array([0.0]))).max() == 0.0
    assert np.isnan(ex.u_hess(np.array([0.0]), np.array([0.0]))).all()


def test_lshape_load_evaluates_the_hessian_nine_times(monkeypatch):
    # the centre point of the finite-difference stencil is shared with the
    # bracket term: one call of f evaluates the fields at nine point sets
    import vkfem.problems as problems
    calls = {"n": 0}
    real = problems._fields_polar

    def counted(r, theta):
        calls["n"] += 1
        return real(r, theta)

    monkeypatch.setattr(problems, "_fields_polar", counted)
    ex = exact_lshape()
    x, y = np.array([-0.5, 0.3]), np.array([0.4, 0.6])
    for load in (ex.f, ex.g):
        calls["n"] = 0
        load(x, y)
        assert calls["n"] == 9
