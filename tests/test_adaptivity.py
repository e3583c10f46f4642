import dataclasses
import math

import numpy as np
import pytest

from vkfem import (AdaptiveConfig, DiscreteSolution, LocalEstimates,
                   build_dofmap, dorfler_mark, estimate, edge_rule,
                   integrate_edge, nodal_interpolate, uniform_refine)
from vkfem.adaptivity import adaptive_levels, solve_level, uniform_levels
from vkfem.problems import square_problem


def test_estimator_volume_terms_for_zero_solution(square1):
    # zero solution has no jumps; with g = 0 the indicator reduces to
    # h_K^4 ||f||^2 per element
    f = lambda x, y: np.sin(x + 2 * y)
    g = lambda x, y: np.zeros_like(x)
    for method in ("morley", "dg"):
        dm = build_dofmap(square1, method)
        psi = DiscreteSolution(dm, np.zeros(dm.n_global),
                               np.zeros(dm.n_global))
        eta = estimate(psi, (f, g))
        from vkfem.quadrature import triangle_rule
        from vkfem.femspace import ElementBasis
        basis = ElementBasis(dm)
        rule = triangle_rule(8)
        pts = basis.physical_points(rule.points[:, 1:])
        fv = f(pts[..., 0], pts[..., 1])
        expected = square1.tri_diameter**4 * np.einsum(
            "t,q,tq->t", basis.area, rule.weights, fv**2)
        assert np.abs(eta.eta2 - expected).max() < 1e-12 * expected.max()


def test_estimator_vanishes_for_manufactured_quadratic_interior(square1):
    # a global quadratic with exactly manufactured loads kills the volume
    # terms and all interior jumps; only the boundary-trace terms of the
    # discontinuous method survive and are matched by an edge-wise oracle
    q = lambda x, y: x**2 - 0.5 * y**2 + 0.25 * x * y
    qh = np.array([2.0, -1.0, 0.25])
    bracket = 2.0 * (qh[0] * qh[1] - qh[2]**2)
    f = lambda x, y: -bracket * np.ones_like(x)
    g = lambda x, y: 0.5 * bracket * np.ones_like(x)

    dm = build_dofmap(square1, "dg")
    coef = nodal_interpolate(q, dm)
    psi = DiscreteSolution(dm, coef, coef.copy())
    eta = estimate(psi, (f, g))

    rule = edge_rule(5)
    grad = lambda x, y: np.stack([2.0 * x + 0.25 * y, -y + 0.25 * x], axis=-1)
    boundary = 0.0
    for e in np.where(square1.edge_on_boundary)[0]:
        va, vb = square1.vertices[square1.edges[e]]
        h = square1.edge_length[e]
        boundary += 2.0 * (
            h**-3 * integrate_edge(rule, lambda x, y: q(x, y)**2, va, vb)
            + h**-1 * integrate_edge(
                rule, lambda x, y: (grad(x, y)**2).sum(-1), va, vb))
    assert eta.total**2 == pytest.approx(boundary, rel=1e-10)

    # the Morley indicator has interior-only edge terms: zero everywhere is
    # unreachable for a quadratic through the constrained space, but the
    # volume residuals vanish for any representation of constant brackets
    dm_m = build_dofmap(square1, "morley")
    zero = DiscreteSolution(dm_m, np.zeros(dm_m.n_global),
                            np.zeros(dm_m.n_global))
    eta_m = estimate(zero, (lambda x, y: np.zeros_like(x),
                            lambda x, y: np.zeros_like(x)))
    assert eta_m.total == 0.0


def test_dorfler_examples():
    eta = LocalEstimates(np.array([4.0, 3.0, 2.0, 1.0]), "morley")
    assert dorfler_mark(eta, 0.5).tolist() == [0, 1]
    assert dorfler_mark(np.array([4.0, 3.0, 2.0, 1.0, 0.0]), 1.0).tolist() \
        == [0, 1, 2, 3]
    assert dorfler_mark(np.array([2.0, 2.0, 2.0]), 0.34).tolist() == [0, 1]


def test_dorfler_minimality_random():
    rng = np.random.default_rng(21)
    for _ in range(200):
        eta2 = rng.random(rng.integers(1, 40))
        theta = rng.uniform(0.05, 1.0)
        marked = dorfler_mark(eta2, theta)
        total = eta2.sum()
        assert eta2[marked].sum() >= theta * total * (1 - 1e-12)
        smallest = marked[np.argmin(eta2[marked])]
        rest = eta2[marked].sum() - eta2[smallest]
        assert rest < theta * total


def test_dorfler_permutation_invariance():
    rng = np.random.default_rng(22)
    eta2 = rng.random(25)
    perm = rng.permutation(25)
    m1 = dorfler_mark(eta2, 0.6)
    m2 = dorfler_mark(eta2[perm], 0.6)
    assert np.array_equal(np.sort(perm[m2]), m1)


def test_dorfler_validation():
    with pytest.raises(ValueError):
        dorfler_mark(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        dorfler_mark(np.array([1.0]), 1.5)
    assert dorfler_mark(np.zeros(4), 0.5).size == 0
    for bad in (np.array([1.0, -0.5]), np.array([1.0, np.nan]),
                np.array([np.inf, 1.0])):
        with pytest.raises(ValueError):
            dorfler_mark(bad, 0.5)


def test_dorfler_theta_beyond_the_running_sum():
    # cumsum stays at 1.0 (each 1e-16 is below half an ulp) while the
    # pairwise total is 1 + 1e-11: the threshold lies beyond the running sum
    eta2 = np.r_[1.0, np.full(100_000, 1e-16), 0.0]
    for theta in (1.0, 0.9999999999999):
        marked = dorfler_mark(eta2, theta)
        assert marked[0] == 0 and marked[-1] < 100_001  # zeros never marked
        threshold = theta * math.fsum(eta2) * (1 - 1e-12)
        kept = sorted(eta2[marked].tolist())
        # exact differences: each 1e-16 is below the resolution of the sums
        assert math.fsum(kept + [-threshold]) >= 0.0
        # minimal: without its smallest indicator the set falls short
        assert math.fsum(kept[1:] + [-threshold]) < 0.0


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(theta=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(max_levels=0)


def test_theta_one_marks_everything(square0):
    prob = square_problem()
    config = AdaptiveConfig(theta=1.0, max_levels=2)
    states = list(adaptive_levels(prob, "morley", config))
    eta = states[0].estimates
    assert (eta.eta2 > 0).all()
    assert dorfler_mark(eta, 1.0).size == square0.n_triangles
    # with every element marked the next mesh refines everywhere
    assert states[1].mesh.n_triangles >= 2 * square0.n_triangles


def test_uniform_levels_estimator_decreases_and_efficiency_band():
    prob = square_problem()
    records = [s.record for s in uniform_levels(prob, "morley", 4)]
    ests = [r.estimator_total for r in records]
    assert all(ests[k + 1] < ests[k] for k in range(3))
    # efficiency index error/(eta + osc) within a regression band
    ratios = [r.error_total / (r.estimator_total + r.oscillation)
              for r in records]
    assert all(0.01 < q < 1.0 for q in ratios)
    # reliability mirror: eta <= C (error + osc)
    mirror = [r.estimator_total / (r.error_total + r.oscillation)
              for r in records]
    assert all(0.1 < q < 20.0 for q in mirror)


def test_adaptive_levels_records_and_corner_focus():
    from vkfem.problems import lshape_problem
    prob = lshape_problem()
    config = AdaptiveConfig(theta=0.5, max_levels=12)
    states = list(adaptive_levels(prob, "morley", config))
    records = [s.record for s in states]
    assert [r.level for r in records] == list(range(config.max_levels))
    assert records[0].ndof == build_dofmap(prob.initial_mesh,
                                           "morley").n_global
    assert all(records[k + 1].ndof > records[k].ndof
               for k in range(len(records) - 1))
    mesh = states[-1].mesh
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    near = np.hypot(cent[:, 0], cent[:, 1]) < 0.25
    assert near.any()
    assert mesh.tri_diameter[near].min() < mesh.tri_diameter.max() / 2


def test_adaptive_cross_estimator(square0):
    # drive with the dg estimator when solving morley
    prob = square_problem()
    config = AdaptiveConfig(theta=0.5, max_levels=2)
    records = [s.record for s in adaptive_levels(prob, "morley", config,
                                                 estimator="dg")]
    assert len(records) == 2
    assert records[0].estimator_total > 0


def _counting_problem():
    """The square problem with loads that count their calls."""
    base = square_problem()
    calls = {"f": 0, "g": 0}

    def counted(name, load):
        def wrapper(x, y):
            calls[name] += 1
            return load(x, y)
        return wrapper

    exact = dataclasses.replace(base.exact, f=counted("f", base.exact.f),
                                g=counted("g", base.exact.g))
    return dataclasses.replace(base, exact=exact), calls


def test_loads_are_evaluated_once_per_level():
    problem, calls = _counting_problem()
    config = AdaptiveConfig(theta=0.5, max_levels=3)
    assert len(list(adaptive_levels(problem, "c0ip", config))) == 3
    assert calls == {"f": 3, "g": 3}

    problem, calls = _counting_problem()
    assert len(list(uniform_levels(problem, "dg", 2))) == 2
    assert calls == {"f": 2, "g": 2}

    # a cross estimator and the other methods reuse the level's values
    problem, calls = _counting_problem()
    config = AdaptiveConfig(theta=0.5, max_levels=2)
    for state in adaptive_levels(problem, "morley", config, estimator="dg"):
        solve_level(state, "c0ip", problem, config)
    assert calls == {"f": 2, "g": 2}


@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_each_dofmap_builds_its_bases_once(monkeypatch, method):
    from vkfem.femspace import EdgeBasis, ElementBasis
    element, edge = [], []
    init_element, init_edge = ElementBasis.__init__, EdgeBasis.__init__

    def count_element(self, dofmap):
        element.append(dofmap)
        init_element(self, dofmap)

    def count_edge(self, basis, tpoints):
        edge.append(basis)
        init_edge(self, basis, tpoints)

    monkeypatch.setattr(ElementBasis, "__init__", count_element)
    monkeypatch.setattr(EdgeBasis, "__init__", count_edge)
    problem = square_problem()
    config = AdaptiveConfig(theta=0.5, max_levels=2)
    for levels in (uniform_levels(problem, method, 2, config),
                   adaptive_levels(problem, method, config)):
        element.clear()
        edge.clear()
        dofmaps = [state.solution.dofmap for state in levels]
        assert len(dofmaps) == 2
        # one element basis per dof map, built by nothing else
        assert len(element) == 2
        assert all(a is b for a, b in zip(element, dofmaps))
        # at most one edge table per dof map, from the dof map's basis
        assert len({id(b) for b in edge}) == len(edge) <= 2
        assert all(any(b is d.basis for d in dofmaps) for b in edge)


def test_solve_level_matches_the_methods_own_loop():
    problem = square_problem()
    config = AdaptiveConfig(max_levels=2)
    own = [s.record for s in uniform_levels(problem, "c0ip", 2, config)]
    prev = None
    for state, expected in zip(uniform_levels(problem, "morley", 2, config),
                               own):
        other = solve_level(state, "c0ip", problem, config, prev)
        assert other.mesh is state.mesh and other.loads is state.loads
        assert other.solution.method == "c0ip"
        # field by field, with the NaN rate of the first level equal to itself
        np.testing.assert_array_equal(dataclasses.astuple(other.record),
                                      dataclasses.astuple(expected))
        prev = other.record


@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_record_evaluates_the_exact_fields_three_times(monkeypatch, method):
    # one record computes the "h" norm and the method's norm in one
    # error_norm call: on the L-shape u = v, so the Hessian at the volume
    # points, the values and the gradients at the edge points are evaluated
    # once each (the loads are passed as values)
    import vkfem.problems as problems
    from vkfem.adaptivity import _record
    from vkfem.problems import lshape_problem
    problem = lshape_problem()
    config = AdaptiveConfig(max_levels=1)
    state = next(uniform_levels(problem, method, 1, config))
    calls = {"n": 0}
    real = problems._fields_polar

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(problems, "_fields_polar", counted)
    record = _record(0, state.solution, state.loads, problem,
                     state.estimates.total, config, None)
    assert calls["n"] == 3
    np.testing.assert_array_equal(dataclasses.astuple(record),
                                  dataclasses.astuple(state.record))
