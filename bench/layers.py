"""Per-layer tracing of ``vkfem`` from outside the library.

A :class:`Tracer` replaces the public functions of each module by wrappers
that record a span per call (key, parent span, start, end) and counts taken
from arguments and return values.  Names imported by value (``newton_solve``
in ``adaptivity``, ``estimate`` in ``cli``, ...) are replaced in every
``vkfem`` module that holds them, so no call path escapes.  A layer's self
time is its spans' duration minus the time covered by their child spans.

Spans are kept in memory and aggregated by :meth:`Tracer.report` when the
repetition ends.  Counting work done after a call (``L.nnz + U.nnz`` of a
factorisation, for instance) runs in a ``trace.hooks`` span of its own, so
it is never charged to a layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

import numpy as np


def _problem_hook(tracer, result, args, kwargs):
    return tracer.wrap_problem(result)


def _newton_hook(tracer, result, args, kwargs):
    tracer.counts["solver.newton_solves"] += 1
    tracer.counts["solver.newton_steps"] += result[1].iterations


def _splu_hook(tracer, lu, args, kwargs):
    tracer.counts["solver.factor_calls"] += 1
    tracer.counts["solver.fill"] += lu.L.nnz + lu.U.nnz
    tracer.counts["solver.factor_nnz"] += args[0].nnz
    return _CountingLU(lu, tracer.counts)


def _jacobian_hook(tracer, result, args, kwargs):
    tracer.counts["assembly.jacobian_calls"] += 1
    tracer.counts["assembly.jacobian_nnz"] += result.nnz


def _basis_hook(tracer, result, args, kwargs):
    tracer.counts["femspace.basis_builds"] += 1


def _refine_hook(tracer, result, args, kwargs):
    tracer.counts["mesh.refine_calls"] += 1
    tracer.counts["mesh.triangles"] += result.n_triangles


def _mark_hook(tracer, result, args, kwargs):
    tracer.counts["adaptivity.marked"] += len(result)
    eta = args[0]
    tracer.counts["adaptivity.mark_candidates"] += len(getattr(eta, "eta2",
                                                               eta))


#: (span key, module, attribute, hook).  The hook runs after the call, sees
#: its result and arguments, and returns a replacement result or None.
TARGETS = (
    ("mesh.refine_s", "vkfem.mesh", "uniform_refine", _refine_hook),
    ("mesh.refine_s", "vkfem.mesh", "nvb_refine", _refine_hook),
    ("femspace.basis_s", "vkfem.femspace", "ElementBasis.__init__",
     _basis_hook),
    ("femspace.basis_s", "vkfem.femspace", "EdgeBasis.__init__", None),
    ("femspace.dofmap_s", "vkfem.femspace", "build_dofmap", None),
    # the constructors only hand out problems with traced callables
    ("problems.construct", "vkfem.problems", "square_problem", _problem_hook),
    ("problems.construct", "vkfem.problems", "lshape_problem", _problem_hook),
    ("assembly.stiffness_s", "vkfem.assembly", "assemble_biharmonic", None),
    ("assembly.load_s", "vkfem.assembly", "assemble_load", None),
    ("assembly.coupling_s", "vkfem.assembly", "assemble_trilinear_vector",
     None),
    ("assembly.coupling_s", "vkfem.assembly", "assemble_trilinear_jacobian",
     _jacobian_hook),
    ("solver.newton_s", "vkfem.solver", "newton_solve", _newton_hook),
    ("solver.linear_solve_s", "vkfem.solver", "linear_solve", None),
    ("solver.factor_s", "scipy.sparse.linalg", "splu", _splu_hook),
    ("analysis.error_norm_s", "vkfem.analysis", "error_norm", None),
    ("analysis.oscillation_s", "vkfem.analysis", "oscillation", None),
    ("adaptivity.estimate_s", "vkfem.adaptivity", "estimate", None),
    ("adaptivity.mark_s", "vkfem.adaptivity", "dorfler_mark", _mark_hook),
    ("cli.self_s", "vkfem.cli", "run_experiment", None),
)

#: Fields of ``ExactSolutionPair`` by the span key of their evaluation.
_LOAD_FIELDS = ("f", "g")
_EXACT_FIELDS = ("u", "u_grad", "u_hess", "v", "v_grad", "v_hess")


class _CountingLU:
    """A ``SuperLU`` factorisation whose triangular solves are counted."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, *args, **kwargs):
        self._counts["solver.triangular_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and counts of the calls into each layer of ``vkfem``."""

    def __init__(self, targets):
        self.targets = targets
        self.spans = []          # [key, parent index, start, end]
        self.counts = Counter()
        self.calls = Counter()   # calls per span key
        self.missing = []        # targets that could not be resolved
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _enter(self, key):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([key, parent, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def _exit(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _call(self, key, fn, hook, args, kwargs):
        self.calls[key] += 1
        index = self._enter(key)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._exit(index)
        if hook is not None:
            index = self._enter("trace.hooks")
            try:
                replaced = hook(self, result, args, kwargs)
            finally:
                self._exit(index)
            if replaced is not None:
                result = replaced
        return result

    def wrap(self, key, fn, hook=None):
        def wrapper(*args, **kwargs):
            return self._call(key, fn, hook, args, kwargs)
        return wrapper

    # -- the problems layer --------------------------------------------------

    def _wrap_data(self, key, fn, count_points):
        def wrapper(x, y):
            # a callable built from other exact-data callables (the scaled
            # loads) is one evaluation; its inner calls are not counted again
            if self._stack and self.spans[self._stack[-1]][0].startswith(
                    "problems."):
                return fn(x, y)
            self.calls[key] += 1
            if count_points:
                self.counts["problems.load_points"] += np.size(x)
            index = self._enter(key)
            try:
                return fn(x, y)
            finally:
                self._exit(index)
        return wrapper

    def wrap_problem(self, problem):
        """``problem`` with its exact-data callables traced."""
        import dataclasses
        exact = problem.exact
        fields = {name: self._wrap_data("problems.load_eval_s",
                                        getattr(exact, name), True)
                  for name in _LOAD_FIELDS}
        fields.update({name: self._wrap_data("problems.exact_eval_s",
                                              getattr(exact, name), False)
                       for name in _EXACT_FIELDS})
        return dataclasses.replace(
            problem, exact=dataclasses.replace(exact, **fields))

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch every target in its module and in every ``vkfem`` module
        that imported it by value; unresolvable targets go to ``missing``."""
        for key, module_name, attr, hook in self.targets:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(key, original, hook)
            if owner is not module:   # a method: patch the class once
                self._patch(owner, name, original, wrapper)
                continue
            for other in [module] + _vkfem_modules():
                for alias, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, alias, original, wrapper)
        return self

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation ---------------------------------------------------------

    def self_times(self):
        """Self time per span key, in seconds."""
        child = [0.0] * len(self.spans)
        for key, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (key, _, start, end), covered in zip(self.spans, child):
            out[key] += (end - start) - covered
        return out

    def unmeasured(self, must_hit):
        """Targets that could not be patched, and span keys in ``must_hit``
        that recorded no call, each with the reason."""
        out = [f"{name} (not found)" for name in self.missing]
        keys = {key for key, *_ in self.targets} | {
            "problems.load_eval_s", "problems.exact_eval_s"}
        out += [f"{key} (not a traced layer)"
                for key in sorted(set(must_hit) - keys)]
        out += [f"{key} (no calls)" for key in sorted(must_hit & keys)
                if self.calls[key] == 0]
        return out

    def report(self, must_hit):
        """The per-layer metrics of one traced repetition."""
        t = self.self_times()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {key: t[key] for key, *_ in self.targets
                   if key.endswith("_s")}
        metrics.update({
            "problems.load_eval_s": t["problems.load_eval_s"],
            "problems.exact_eval_s": t["problems.exact_eval_s"],
            "problems.load_calls": self.calls["problems.load_eval_s"],
            "problems.load_points": c["problems.load_points"],
            "solver.factor_calls": c["solver.factor_calls"],
            "solver.fill": c["solver.fill"],
            "solver.fill_ratio": ratio(c["solver.fill"],
                                       c["solver.factor_nnz"]),
            "solver.newton_steps": c["solver.newton_steps"],
            "solver.newton_steps_per_solve": ratio(
                c["solver.newton_steps"], c["solver.newton_solves"]),
            "solver.triangular_solves": c["solver.triangular_solves"],
            "solver.triangular_solves_per_factor": ratio(
                c["solver.triangular_solves"], c["solver.factor_calls"]),
            "assembly.jacobian_calls": c["assembly.jacobian_calls"],
            "assembly.jacobian_nnz": c["assembly.jacobian_nnz"],
            "femspace.basis_builds": c["femspace.basis_builds"],
            "femspace.basis_builds_per_solve": ratio(
                c["femspace.basis_builds"], c["solver.newton_solves"]),
            "adaptivity.marked_frac": ratio(c["adaptivity.marked"],
                                            c["adaptivity.mark_candidates"]),
            "mesh.refine_calls": c["mesh.refine_calls"],
            "mesh.triangles": c["mesh.triangles"],
        })
        unmeasured = self.unmeasured(must_hit)
        metrics["trace.unmeasured"] = len(unmeasured)
        return {"metrics": metrics, "unmeasured": unmeasured}


def _vkfem_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "vkfem" or name.startswith("vkfem."))]
