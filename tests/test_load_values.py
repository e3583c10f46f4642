"""Loads given as callables and as their values at the rule points agree."""

import numpy as np
import pytest

from vkfem import (DiscreteSolution, assemble_load, build_dofmap, estimate,
                   load_values, newton_solve, oscillation_local, residual,
                   uniform_refine)
from vkfem.problems import exact_lshape, exact_square

METHODS = ("morley", "c0ip", "dg")


@pytest.fixture(scope="module", params=("square", "lshape"))
def level2(request, square2, lshape1):
    if request.param == "square":
        return square2, exact_square()
    return uniform_refine(lshape1), exact_lshape()


def test_callables_and_values_give_identical_results(level2):
    mesh, exact = level2
    loads = (exact.f, exact.g)
    values = tuple(load_values(load, mesh) for load in loads)
    for vals in values:
        assert vals.shape == (mesh.n_triangles, 25)  # degree-8 rule
    rng = np.random.default_rng(7)
    for method in METHODS:
        dm = build_dofmap(mesh, method)
        assert np.array_equal(assemble_load(*loads, dm),
                              assemble_load(*values, dm))
        psi = DiscreteSolution(dm, rng.standard_normal(dm.n_global),
                               rng.standard_normal(dm.n_global))
        eta2 = estimate(psi, values).eta2
        assert np.array_equal(estimate(psi, loads).eta2, eta2)
        assert np.array_equal(residual(psi, loads), residual(psi, values))
        # the values are used, not recomputed
        shifted = estimate(psi, (values[0] + 1.0, values[1])).eta2
        assert not np.array_equal(shifted, eta2)
    for load, vals in zip(loads, values):
        assert np.array_equal(oscillation_local(load, mesh),
                              oscillation_local(vals, mesh))


def test_values_of_the_wrong_shape_raise(square1):
    ex = exact_square()
    good = load_values(ex.f, square1)
    dm = build_dofmap(square1, "morley")
    zero = np.zeros(dm.n_global)
    psi = DiscreteSolution(dm, zero, zero)
    for bad in (good.T, good[:, :-1], good[:-1], good.ravel(),
                # a callable's result is checked as given values are
                lambda x, y: 1.0, lambda x, y: ex.f(x, y).T):
        with pytest.raises(ValueError, match="shape"):
            load_values(bad, square1)
        with pytest.raises(ValueError, match="shape"):
            assemble_load(good, bad, dm)
        with pytest.raises(ValueError, match="shape"):
            estimate(psi, (bad, good))
        with pytest.raises(ValueError, match="shape"):
            newton_solve(dm, (bad, good))
        with pytest.raises(ValueError, match="shape"):
            oscillation_local(bad, square1)
