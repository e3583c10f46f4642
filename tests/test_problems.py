import numpy as np
import pytest

import warnings

from vkfem import exact_lshape, exact_square
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
    residual = np.sin(ALPHA * OMEGA)**2 - ALPHA**2 * np.sin(OMEGA)**2
    assert abs(residual) <= 1e-8


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


def test_lshape_load_evaluates_the_fields_once(field_passes):
    # f then g at the same points share one evaluation of the fields; each
    # load at new points evaluates them once
    ex = exact_lshape()
    x, y = np.array([-0.5, 0.3]), np.array([0.4, 0.6])
    ex.f(x, y)
    ex.g(x, y)
    assert field_passes["n"] == 1
    for load in (ex.f, ex.g):
        field_passes["n"] = 0
        x = x + 0.1
        load(x, y)
        assert field_passes["n"] == 1


def lshape_points(n=50, seed=11):
    """Points of the L-shape, the corner among them, as strided views of
    one ``(..., 2)`` array like the rule and edge points of a mesh."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, 1.0, n)
    t = rng.uniform(0.0, OMEGA, n)
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1).reshape(5, -1, 2)
    pts[0, 0] = 0.0
    return pts[..., 0], pts[..., 1]


def test_lshape_fields_equal_a_direct_evaluation_bit_for_bit():
    from vkfem.femspace import bracket
    from vkfem.problems import _fields_polar
    x, y = lshape_points()
    value, grad, hess, bilap = _fields_polar(*_polar_of(x, y))
    expected = {"u": value, "v": value, "u_grad": grad, "v_grad": grad,
                "u_hess": hess, "v_hess": hess,
                "f": bilap - bracket(hess, hess),
                "g": bilap + 0.5 * bracket(hess, hess)}
    ex = exact_lshape()
    for name, want in expected.items():
        # the first call on a pair, then one after another callable's call
        # at the same points (NaN, at the corner, equals NaN)
        np.testing.assert_array_equal(getattr(exact_lshape(), name)(x, y),
                                      want)
        ex.f(x, y)
        np.testing.assert_array_equal(getattr(ex, name)(x, y), want)


def test_lshape_fields_are_read_only():
    ex = exact_lshape()
    x, y = lshape_points()
    for name in ("u", "u_grad", "u_hess", "v", "v_grad", "v_hess"):
        out = getattr(ex, name)(x, y)
        with pytest.raises(ValueError, match="read-only"):
            out[...] = 0.0


def test_lshape_fields_are_evaluated_again_at_changed_points(field_passes):
    ex = exact_lshape()
    x, y = (a.copy() for a in lshape_points())
    before = ex.u_grad(x, y)
    ex.u(x, y)
    assert field_passes["n"] == 1
    # one coordinate changed in place, in either array: the pair kept a copy
    # of the points it evaluated
    others = np.ones(x.shape, dtype=bool)
    others[2, 3] = False
    for passes, changed in enumerate((x, y), start=2):
        changed[2, 3] += 0.01
        after = ex.u_grad(x, y)
        assert field_passes["n"] == passes
        assert not np.array_equal(after[2, 3], before[2, 3])
        np.testing.assert_array_equal(after[others], before[others])
        before = after


def test_lshape_load_matches_polar_fd_bilaplacian():
    # fourth-order central differences of the Hessian trace in polar
    # coordinates, at radii where their rounding error stays small
    ex = exact_lshape()
    rng = np.random.default_rng(6)
    r = rng.uniform(0.1, 0.9, 40)
    t = rng.uniform(0.05, OMEGA - 0.05, 40)

    def lap(rr, tt):
        h = ex.u_hess(rr * np.cos(tt), rr * np.sin(tt))
        return h[..., 0] + h[..., 1]

    def second(fn, step):
        return (-fn(2 * step) + 16 * fn(step) - 30 * fn(0.0)
                + 16 * fn(-step) - fn(-2 * step)) / (12 * step**2)

    def first(fn, step):
        return (-fn(2 * step) + 8 * fn(step) - 8 * fn(-step)
                + fn(-2 * step)) / (12 * step)

    hr, ht = 1e-3 * r, 1e-3
    radial = lambda s: lap(r + s, t)
    bilap = (second(radial, hr) + first(radial, hr) / r
             + second(lambda s: lap(r, t + s), ht) / r**2)
    x, y = r * np.cos(t), r * np.sin(t)
    h = ex.u_hess(x, y)
    br = 2 * (h[..., 0] * h[..., 1] - h[..., 2]**2)
    np.testing.assert_allclose(ex.f(x, y), bilap - br, rtol=1e-6)
    np.testing.assert_allclose(ex.g(x, y), bilap + 0.5 * br, rtol=1e-6)


def test_lshape_g_third_derivative():
    from vkfem.problems import _g_theta
    theta = np.linspace(0.0, OMEGA, 31)
    step = 1e-5
    fd = (_g_theta(theta + step)[2] - _g_theta(theta - step)[2]) / (2 * step)
    g3 = _g_theta(theta)[3]
    assert np.abs(fd - g3).max() <= 1e-7 * np.abs(g3).max()


def test_lshape_loads_are_nan_at_the_corner():
    ex = exact_lshape()
    x = np.array([0.0, -0.5])
    y = np.array([0.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, g = ex.f(x, y), ex.g(x, y)
    assert np.isnan(f[0]) and np.isnan(g[0])
    assert np.isfinite(f[1]) and np.isfinite(g[1])
    from vkfem.problems import _fields_polar
    bilap = _fields_polar(np.array([0.0, 0.3]), np.array([0.0, 1.0]))[3]
    assert np.isnan(bilap[0]) and np.isfinite(bilap[1])
