import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from vkfem import (METHODS, AdaptiveConfig, DiscreteSolution, LocalEstimates,
                   PenaltyConfig, SolverError, build_dofmap, dorfler_mark,
                   estimate, edge_rule, load_values, uniform_refine)
from vkfem.adaptivity import method_levels, uniform_levels
from vkfem.problems import lshape_problem, square_problem

from oracles import integrate_edge, nodal_interpolate


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
        from vkfem.femspace import VOLUME_RULE, ElementBasis
        basis = ElementBasis(dm)
        rule = VOLUME_RULE
        pts = basis.physical_points(rule.points[:, 1:])
        fv = f(pts[..., 0], pts[..., 1])
        expected = square1.tri_diameter**4 * np.einsum(
            "t,q,tq->t", basis.mesh.area, rule.weights, fv**2)
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


@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_estimate_takes_each_components_hessians_once(square1, monkeypatch,
                                                      method):
    # the brackets and the Hessian jumps share the pair's Hessians: none
    # computed for a pair that knows them, one per component otherwise,
    # counted where DiscreteSolution.hessians looks the function up
    from vkfem import assembly, problems
    dm = build_dofmap(square1, method)
    rng = np.random.default_rng(11)
    u, v = rng.standard_normal((2, dm.n_global))
    known = tuple(assembly.element_hessians(dm.basis, c) for c in (u, v))
    exact = problems.exact_square()
    calls = []
    real = assembly.element_hessians

    def counting(basis, coef):
        calls.append(1)
        return real(basis, coef)
    monkeypatch.setattr(assembly, "element_hessians", counting)
    for psi, want in ((DiscreteSolution(dm, u, v, known), 0),
                      (DiscreteSolution(dm, u, v), 2)):
        calls.clear()
        estimate(psi, (exact.f, exact.g))
        assert len(calls) == want


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
    for bad in ({"max_levels": 2.5}, {"newton_maxit": 0},
                {"newton_maxit": 1.5}, {"newton_tol": 0.0},
                {"newton_tol": float("nan")}):
        with pytest.raises(ValueError):
            AdaptiveConfig(**bad)


@pytest.mark.parametrize("max_ndof,error", [
    (-1, ValueError), (0, ValueError), (2.5, ValueError), ("10", ValueError),
    (None, None), (1, None), (np.int64(4000), None)])
def test_adaptive_config_takes_max_ndof_as_none_or_a_positive_integer(
        max_ndof, error):
    # a cap below one or not an integer is refused when the config is
    # made, before any level runs: -1, 0 and 2.5 used to stop the loop
    # after level 0 without a word, and "10" to fail inside it
    if error is None:
        assert AdaptiveConfig(max_ndof=max_ndof).max_ndof == max_ndof
    else:
        with pytest.raises(error, match="max_ndof"):
            AdaptiveConfig(max_ndof=max_ndof)


def test_theta_one_marks_everything(square0):
    prob = square_problem()
    config = AdaptiveConfig(theta=1.0, max_levels=2)
    states = list(method_levels(prob, ["morley"], config, marked_by="morley"))
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
    states = list(method_levels(prob, ["morley"], config, marked_by="morley"))
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
    # the dg estimator drives the refinement, morley is solved on its meshes
    prob = square_problem()
    config = AdaptiveConfig(theta=0.5, max_levels=2)
    records = [s.record for s in method_levels(prob, ["morley", "dg"], config,
                                               marked_by="dg")
               if s.solution.method == "morley"]
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
    assert len(list(method_levels(problem, ["c0ip"], config,
                                  marked_by="c0ip"))) == 3
    assert calls == {"f": 3, "g": 3}

    problem, calls = _counting_problem()
    assert len(list(uniform_levels(problem, "dg", 2))) == 2
    assert calls == {"f": 2, "g": 2}

    # the other methods, solved on the meshes another marks, reuse the
    # level's values
    problem, calls = _counting_problem()
    config = AdaptiveConfig(theta=0.5, max_levels=2)
    states = list(method_levels(problem, METHODS, config, marked_by="dg"))
    assert [(s.level, s.solution.method) for s in states] == [
        (level, method) for level in range(2) for method in METHODS]
    assert calls == {"f": 2, "g": 2}


def test_a_three_method_run_computes_one_oscillation_per_mesh(monkeypatch):
    from vkfem import adaptivity
    problem, calls = _counting_problem()
    meshes = []
    real = adaptivity.oscillation

    def counted(load, mesh):
        meshes.append(mesh)
        return real(load, mesh)

    monkeypatch.setattr(adaptivity, "oscillation", counted)
    config = AdaptiveConfig(theta=0.5, max_levels=3)
    states = list(method_levels(problem, METHODS, config, marked_by="c0ip"))
    assert len(states) == 9
    levels = [states[k].mesh for k in range(0, 9, 3)]
    assert all(s.mesh is levels[s.level] for s in states)
    # one per load per mesh: osc f and osc g
    assert [id(m) for m in meshes] == [id(m) for m in levels for _ in "fg"]
    assert calls == {"f": 3, "g": 3}
    assert len({s.record.oscillation for s in states[:3]}) == 1


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
                   method_levels(problem, [method], config, marked_by=method)):
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


def test_a_three_method_uniform_run_matches_each_methods_own_loop():
    problem = square_problem()
    config = AdaptiveConfig(max_levels=2)
    merged = list(method_levels(problem, METHODS, config))
    for method in METHODS:
        own = [s.record for s in uniform_levels(problem, method, 2, config)]
        ours = [s for s in merged if s.solution.method == method]
        assert [s.level for s in ours] == [0, 1]
        # field by field, with the NaN rate of the first level equal to
        # itself
        for state, expected in zip(ours, own):
            np.testing.assert_array_equal(dataclasses.astuple(state.record),
                                          dataclasses.astuple(expected))
    # the methods of a level share its mesh
    for level in merged[::3]:
        same = [s for s in merged if s.level == level.level]
        assert all(s.mesh is level.mesh for s in same)


def test_a_run_marked_by_dg_records_dg_as_its_own_loop():
    problem = lshape_problem()
    config = AdaptiveConfig(theta=0.5, max_levels=4)
    own = [s.record for s in method_levels(problem, ["dg"], config,
                                           marked_by="dg")]
    merged = [s.record for s in method_levels(problem, METHODS, config,
                                              marked_by="dg")
              if s.solution.method == "dg"]
    assert len(merged) == len(own) == 4
    for record, expected in zip(merged, own):
        np.testing.assert_array_equal(dataclasses.astuple(record),
                                      dataclasses.astuple(expected))


def test_uniform_levels_takes_its_level_count_over_the_config(monkeypatch):
    from vkfem import adaptivity
    refinements = []
    real = adaptivity.uniform_refine

    def counted(mesh):
        refinements.append(mesh)
        return real(mesh)

    monkeypatch.setattr(adaptivity, "uniform_refine", counted)
    states = list(uniform_levels(square_problem(), "morley", 3,
                                 AdaptiveConfig(max_levels=5)))
    assert [s.level for s in states] == [0, 1, 2]
    # nothing is refined after the last level
    assert len(refinements) == 2


@pytest.mark.parametrize("method", METHODS)
def test_each_level_keeps_its_newton_report(method):
    # level 0 starts from the zero pair, every later level from the coarse
    # level's Hessians; each state keeps the report of its own run
    states = list(uniform_levels(square_problem(), method, 4))
    reports = [s.report for s in states]
    assert [r.start for r in reports] == ["zero", "coarse", "coarse", "coarse"]
    assert all(r.converged for r in reports)
    assert reports[0].sweeps == 0
    assert len({id(r) for r in reports}) == 4


def test_uniform_levels_stop_once_a_level_reaches_max_ndof():
    # morley has 225 dofs on square level 2, dg 768: a uniform run stops
    # there, as an adaptive one does, instead of refining to max_levels
    config = AdaptiveConfig(max_levels=5, max_ndof=225)
    states = list(uniform_levels(square_problem(), "morley", 5, config))
    assert [s.record.ndof for s in states][-2:] == [49, 225]
    assert [s.level for s in states] == [0, 1, 2]
    # with several methods on one hierarchy, the first method to reach the
    # cap stops it
    states = list(method_levels(square_problem(), ["morley", "dg"],
                                dataclasses.replace(config, max_ndof=500)))
    assert [(s.level, s.solution.method, s.record.ndof) for s in states][-2:] \
        == [(2, "morley", 225), (2, "dg", 768)]


def test_marked_by_must_be_a_solved_method():
    with pytest.raises(ValueError, match="marked_by"):
        next(method_levels(square_problem(), ["morley"], AdaptiveConfig(),
                           marked_by="dg"))


def lshape_without_shared_fields():
    """The L-shape problem with each callable evaluating the fields itself."""
    from vkfem.analysis import ExactSolutionPair
    from vkfem.femspace import bracket
    from vkfem.problems import Problem, _fields_polar, _polar_of

    def field(i):
        return lambda x, y: _fields_polar(*_polar_of(x, y))[i]

    def load(sign):
        def fn(x, y):
            _, _, h, bilap = _fields_polar(*_polar_of(x, y))
            return bilap + sign * bracket(h, h)
        return fn

    value, grad, hess = field(0), field(1), field(2)
    problem = lshape_problem()
    return Problem(problem.name, problem.initial_mesh,
                   ExactSolutionPair(value, grad, hess, value, grad, hess,
                                     load(-1.0), load(0.5)))


@pytest.mark.parametrize("method", ["morley", "c0ip", "dg"])
def test_lshape_level_evaluates_the_exact_fields_twice(field_passes, method):
    # the loads and the record's Hessians at the volume points share one
    # evaluation, the record's values and gradients at the edge points
    # another; the record is that of callables evaluating on their own
    config = AdaptiveConfig(max_levels=1)
    expected = next(uniform_levels(lshape_without_shared_fields(), method, 1,
                                   config)).record
    field_passes["n"] = 0
    state = next(uniform_levels(lshape_problem(), method, 1, config))
    assert field_passes["n"] == 2
    np.testing.assert_array_equal(dataclasses.astuple(state.record),
                                  dataclasses.astuple(expected))


def test_second_method_on_a_level_evaluates_the_exact_fields_twice(
        field_passes):
    # the loads are the level's values; the record evaluates the Hessians at
    # the volume points and the traces at the edge points once each
    problem = lshape_problem()
    config = AdaptiveConfig(max_levels=1)
    expected = next(uniform_levels(lshape_problem(), "dg", 1, config)).record
    levels = method_levels(problem, ["morley", "dg"], config)
    next(levels)
    field_passes["n"] = 0
    other = next(levels)
    assert other.solution.method == "dg"
    assert field_passes["n"] <= 2
    np.testing.assert_array_equal(dataclasses.astuple(other.record),
                                  dataclasses.astuple(expected))


def test_weak_penalties_fail_saying_that_k_is_indefinite():
    # c0ip with penalties too small for a positive definite K: on the
    # L-shape refined once undamped Newton does not converge in 50 steps,
    # and the pivots of K's factor name the cause (on the square the same
    # penalties converge, so an indefinite K alone does not abort)
    config = AdaptiveConfig(max_levels=2, penalty=PenaltyConfig(0.5, 0.5))
    with pytest.raises(SolverError, match=r"level 1 \(c0ip, .*\): K is "
                       r"indefinite for these penalties"):
        list(uniform_levels(lshape_problem(), "c0ip", 2, config))
    # a run that stops for want of steps with a definite K says only that
    config = AdaptiveConfig(max_levels=1, newton_maxit=1)
    with pytest.raises(SolverError) as failure:
        list(uniform_levels(square_problem(), "c0ip", 1, config))
    assert "did not converge" in str(failure.value)
    assert "indefinite" not in str(failure.value)


def shared_memo(exact):
    """The one-entry memo that the callables of ``exact`` share."""
    import inspect
    fields = inspect.getclosurevars(exact.u).nonlocals["fields"]
    return inspect.getclosurevars(fields).nonlocals["last"]


def test_lshape_level_evaluates_each_rule_point_once_then_the_boundary(
        field_passes):
    # one pass over the rule points, block by block, then one over the
    # points of the boundary edges, for all three methods of the level
    from vkfem.femspace import BLOCK_POINTS, EDGE_RULE, VOLUME_RULE
    problem = lshape_problem()
    levels = method_levels(problem, list(METHODS),
                           AdaptiveConfig(max_levels=5))
    for _ in range(4 * len(METHODS)):
        next(levels)
    field_passes["n"], field_passes["points"] = 0, []
    states = [next(levels) for _ in METHODS]
    mesh = states[0].mesh
    rule = mesh.n_triangles * len(VOLUME_RULE.weights)
    boundary = mesh.edge_on_boundary.sum() * (len(EDGE_RULE.points) + 2)
    assert rule > 4 * BLOCK_POINTS
    *blocks, last = field_passes["points"]
    assert sum(blocks) == rule and max(blocks) <= BLOCK_POINTS
    assert last == boundary
    # the pair keeps only the boundary points through the solves
    assert shared_memo(problem.exact)["x"].size == boundary


@pytest.mark.parametrize("methods, marked_by", [
    ([], None),
    ((), None),
    (["morley", "morley"], None),
    (["dg", "c0ip", "dg"], "dg"),
])
def test_method_levels_rejects_no_methods_and_repeated_methods(
        methods, marked_by, monkeypatch):
    # rejected before any field is evaluated or any mesh refined
    from vkfem import adaptivity

    def refuse(*args):
        raise AssertionError("the level loop started")
    for name in ("exact_fields", "uniform_refine", "nvb_refine"):
        monkeypatch.setattr(adaptivity, name, refuse)
    with pytest.raises(ValueError, match="methods"):
        next(method_levels(square_problem(), methods,
                           AdaptiveConfig(max_levels=4, max_ndof=10),
                           marked_by))


#: tracemalloc peak of one solve from zero on the uniform L-shape at level 4
#: (1,536 triangles), in bytes per triangle: measured (2,440, 5,984 and
#: 7,258, the same over runs), plus 10 %; SuperLU's memory is not traced
SOLVE_PEAK_PER_TRIANGLE = {"morley": 1.1 * 2440, "c0ip": 1.1 * 5984,
                           "dg": 1.1 * 7258}


@pytest.mark.parametrize("method", METHODS)
def test_a_solve_stays_within_its_memory_per_triangle(lshape1, method):
    from vkfem import adaptivity
    mesh = uniform_refine(uniform_refine(uniform_refine(lshape1)))
    exact = lshape_problem().exact
    loads = tuple(load_values(load, mesh) for load in (exact.f, exact.g))
    tracemalloc.start()
    try:
        adaptivity._solve(4, mesh, method, AdaptiveConfig(), loads, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_triangles == 1536
    assert peak / mesh.n_triangles <= SOLVE_PEAK_PER_TRIANGLE[method]
