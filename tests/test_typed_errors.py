"""Failures at the public boundaries raise typed errors that name the cause.

One table of (call, exception type, message fragment), run for every
method on square level 1.  Running out of memory is simulated: a
monkeypatched ``_symmetric_lu`` (which also orders the ``dg`` triangles),
or ``splu`` of the sparse-LU fallback, raises ``MemoryError`` as SuperLU
does when it cannot expand its work space.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from vkfem import (METHODS, AdaptiveConfig, DiscreteSolution, SolverError,
                   assemble_biharmonic, build_dofmap, dorfler_mark, estimate,
                   linear_solve, load_values, newton_solve)
from vkfem import solver
from vkfem.analysis import exact_fields
from vkfem.cli import ExperimentSpec
from vkfem.femspace import rule_points
from vkfem.problems import exact_square

import oracles

EXACT = exact_square()


def rule_xy(mesh):
    """The rule points of ``mesh`` as two arrays ``x``, ``y``."""
    pts = rule_points(mesh)
    return pts[..., 0], pts[..., 1]


def with_nan(load):
    """``load`` with one NaN, at the sixth rule point of the first block."""
    def nan_load(x, y):
        values = np.array(load(x, y), dtype=float)
        values.flat[5] = np.nan
        return values
    return nan_load


def inf_right_half(x, y):
    return np.where(x > 0.5, np.inf, EXACT.f(x, y))


def out_of_memory_from(call):
    """A ``_symmetric_lu`` that runs out of memory from its ``call``-th call
    on (1: the factor of ``K``, 2: the first Newton block)."""
    real = solver._symmetric_lu
    calls = []

    def factor(*args, **kwargs):
        calls.append(1)
        if len(calls) >= call:
            raise MemoryError()
        return real(*args, **kwargs)
    return factor


def solve(dm, monkeypatch, loads=(EXACT.f, EXACT.g), out_of_memory=None):
    if out_of_memory is not None:
        monkeypatch.setattr(solver, "_symmetric_lu",
                            out_of_memory_from(out_of_memory))
    newton_solve(dm, loads)


def zero_pair(dm):
    zero = np.zeros(dm.n_global)
    return DiscreteSolution(dm, zero, zero)


def zero_step(dm):
    """The Newton matrix ``J`` at the zero pair."""
    system = solver.NewtonSystem(dm, (EXACT.f, EXACT.g))
    return system.step_matrix(zero_pair(dm))


def lu_fallback_out_of_memory(dm, monkeypatch):
    """``linear_solve`` with no preconditioner, whose sparse LU of ``J``
    runs out of memory."""
    jac = zero_step(dm)

    def splu(*args, **kwargs):
        raise MemoryError()
    monkeypatch.setattr(solver, "spla", SimpleNamespace(splu=splu))
    linear_solve(jac, np.ones(jac.shape[0]), context="zero step")


def is_spd_out_of_memory(dm, monkeypatch):
    monkeypatch.setattr(oracles, "_symmetric_lu", out_of_memory_from(1))
    oracles.is_spd(assemble_biharmonic(dm))


def dg_ordering_out_of_memory(dm, monkeypatch):
    monkeypatch.setattr(solver, "_symmetric_lu", out_of_memory_from(1))
    build_dofmap(dm.mesh, "dg")


#: (name, call(dm, monkeypatch), exception type, message fragment); the
#: fragment is formatted with the method, ndof, nnz(K), nnz(J) at the zero
#: pair, the number of load values of the mesh, its number of triangles
#: and nnz of its triangle graph
CASES = [
    ("nan load value", lambda dm, mp: solve(
        dm, mp, (with_nan(EXACT.f)(*rule_xy(dm.mesh)), EXACT.g)),
     ValueError, "1 of {values} load values at the points of the volume "
                 "rule are not finite"),
    ("nan from a callable load", lambda dm, mp: solve(
        dm, mp, (EXACT.f, with_nan(EXACT.g))),
     ValueError, "1 of {values} load values"),
    ("inf on half the mesh", lambda dm, mp: load_values(inf_right_half,
                                                        dm.mesh),
     ValueError, "load values at the points of the volume rule are not "
                 "finite"),
    ("nan load in the estimator", lambda dm, mp: estimate(
        zero_pair(dm), (with_nan(EXACT.f), EXACT.g)),
     ValueError, "1 of {values} load values"),
    ("nan load of an exact pair", lambda dm, mp: exact_fields(
        replace(EXACT, f=with_nan(EXACT.f)), dm.mesh),
     ValueError, "1 of {values} load values"),
    ("factor of K out of memory", lambda dm, mp: solve(
        dm, mp, out_of_memory=1),
     SolverError, "{method} (ndof {ndof}): out of memory factoring K "
                  "(nnz(K) {nnz})"),
    ("Newton block out of memory", lambda dm, mp: solve(
        dm, mp, out_of_memory=2),
     SolverError, "Newton step 1, {method} (ndof {ndof}): out of memory "
                  "factoring K + M_v (nnz(K) {nnz})"),
    ("sparse-LU fallback out of memory", lu_fallback_out_of_memory,
     SolverError, "zero step: out of memory factoring J (nnz(J) {nnz_j})"),
    ("coercivity check out of memory", is_spd_out_of_memory,
     SolverError, "is_spd: out of memory factoring the matrix (nnz {nnz})"),
    ("dg ordering out of memory", dg_ordering_out_of_memory,
     SolverError, "dg ordering ({triangles} triangles): out of memory "
                  "factoring the triangle graph (nnz {graph_nnz})"),
    ("infinite Newton tolerance", lambda dm, mp: newton_solve(
        dm, (EXACT.f, EXACT.g), tol=np.inf),
     ValueError, "tol must be a finite number above 0, not inf"),
    ("Newton tolerance as a string", lambda dm, mp: newton_solve(
        dm, (EXACT.f, EXACT.g), tol="1e-10"),
     ValueError, "tol must be a finite number above 0, not '1e-10'"),
    ("infinite newton_tol of a config", lambda dm, mp: AdaptiveConfig(
        newton_tol=np.inf),
     ValueError, "newton_tol must be a finite number above 0, not inf"),
    ("theta of a config as a string", lambda dm, mp: AdaptiveConfig(
        theta="0.5"),
     ValueError, "theta must be a finite number above 0 and at most 1, "
                 "not '0.5'"),
    ("theta of a marking as a string", lambda dm, mp: dorfler_mark(
        np.ones(dm.mesh.n_triangles), "0.5"),
     ValueError, "theta must be a finite number above 0 and at most 1"),
    ("infinite newton_tol of an experiment", lambda dm, mp: ExperimentSpec(
        example="square_analytic", newton_tol=np.inf),
     ValueError, "newton_tol must be a finite number above 0, not inf"),
]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name, call, error, fragment", CASES,
                         ids=[case[0] for case in CASES])
def test_a_failure_raises_a_typed_error_naming_its_cause(
        square1, monkeypatch, method, name, call, error, fragment):
    dm = build_dofmap(square1, method)
    message = fragment.format(
        method=method, ndof=dm.n_global,
        nnz=assemble_biharmonic(dm).nnz, nnz_j=zero_step(dm).tocsc().nnz,
        values=load_values(EXACT.f, square1).size,
        triangles=square1.n_triangles,
        graph_nnz=square1.n_triangles + 2 * np.count_nonzero(
            square1.edge_tris[:, 1] >= 0))
    with pytest.raises(error) as info:
        call(dm, monkeypatch)
    assert message in str(info.value)
