"""The benchmark's workloads, and one repetition of a workload.

Each workload runs all three methods through the public API of ``vkfem``:
one call per method, which is what a user running ``--method X`` pays.
Run as a script, this module performs one repetition in a fresh process and
prints its measurements as one JSON line::

    python3 bench/workloads.py WORKLOAD ORDER TRACE WORKDIR

``ORDER`` is a comma-separated permutation of the methods, ``TRACE`` is 0
or 1.  ``bench/run.py`` starts these processes; nothing else needs to.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Exit code of a repetition that could not import the program under test.
EXIT_NO_PROGRAM = 3


def import_vkfem():
    """Import ``vkfem`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "vkfem", "__init__.py")):
        raise ImportError(f"no vkfem package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import vkfem
    if not os.path.abspath(vkfem.__file__).startswith(SRC + os.sep):
        raise ImportError(f"vkfem imported from {vkfem.__file__}, not {SRC}")
    return vkfem


#: Amplitude of the scaled square pair of ``square_strong``.  Newton takes
#: 3-7 steps per level (5.3 on average) at a = 10; at a = 15 Morley no longer
#: converges on level 2.
STRONG_AMPLITUDE = 10.0

SQUARE_LEVELS = 5
LSHAPE_LEVELS = 16
STRONG_LEVELS = 4


_ALL_SPANS = frozenset({
    "mesh.refine_s", "femspace.basis_s", "femspace.dofmap_s",
    "problems.load_eval_s", "problems.exact_eval_s", "assembly.stiffness_s",
    "assembly.load_s", "assembly.coupling_s", "solver.newton_s",
    "solver.linear_solve_s", "solver.factor_s", "analysis.error_norm_s",
    "analysis.oscillation_s", "adaptivity.estimate_s", "adaptivity.mark_s",
    "cli.self_s"})

#: Span keys of ``layers.TARGETS`` that must record calls, per workload.  The
#: uniform workloads mark nothing, and ``square_strong`` drives
#: ``uniform_levels`` itself, without the CLI.
MUST_HIT = {
    "square_uniform": _ALL_SPANS - {"adaptivity.mark_s"},
    "lshape_adaptive": _ALL_SPANS,
    "square_strong": _ALL_SPANS - {"adaptivity.mark_s", "cli.self_s"},
}


def _bracket(ha, hb):
    return ha[..., 0] * hb[..., 1] + ha[..., 1] * hb[..., 0] \
        - 2.0 * ha[..., 2] * hb[..., 2]


def scaled_problem(base, a):
    """The exact pair ``(a u, a v)`` of ``base`` with matching loads.

    ``f_a = a (f + [u,v]) - a^2 [u,v]`` and
    ``g_a = a (g - [u,u]/2) + a^2 [u,u]/2``.
    """
    from vkfem.analysis import ExactSolutionPair
    from vkfem.problems import Problem
    ex = base.exact

    def scale(fn):
        return lambda x, y: a * fn(x, y)

    def f(x, y):
        br = _bracket(ex.u_hess(x, y), ex.v_hess(x, y))
        return a * (ex.f(x, y) + br) - a * a * br

    def g(x, y):
        hu = ex.u_hess(x, y)
        br = _bracket(hu, hu)
        return a * (ex.g(x, y) - 0.5 * br) + 0.5 * a * a * br

    exact = ExactSolutionPair(scale(ex.u), scale(ex.u_grad), scale(ex.u_hess),
                              scale(ex.v), scale(ex.v_grad), scale(ex.v_hess),
                              f, g)
    return Problem(f"{base.name}_a{a:g}", base.initial_mesh, exact)


def _cli_rows(rows):
    return [[r["ndof"], r["error_h_norm"], r["error_method_norm"],
             r["estimator"]] for r in rows]


def setup(name, tracer=None):
    """Import-time work of a repetition: the problem and its initial mesh.

    Returns the callable that runs one method, ``run(method, workdir)``,
    which returns ``[ndof, error_h_norm, error_method_norm, estimator]`` per
    level.
    """
    # module attributes are looked up at call time, so traced runs see the
    # patched functions
    from vkfem import adaptivity, cli, problems

    if name == "square_uniform":
        problems.square_problem()

        def run(method, workdir):
            spec = cli.ExperimentSpec(
                example="square_analytic", method=method,
                levels=SQUARE_LEVELS,
                out=os.path.join(workdir, f"{method}.csv"))
            return _cli_rows(cli.run_experiment(spec))
        return run

    if name == "lshape_adaptive":
        problems.lshape_problem()

        def run(method, workdir):
            spec = cli.ExperimentSpec(
                example="lshape_adaptive", method=method,
                levels=LSHAPE_LEVELS, theta=0.5,
                out=os.path.join(workdir, f"{method}.csv"))
            return _cli_rows(cli.run_experiment(spec))
        return run

    if name == "square_strong":
        problem = scaled_problem(problems.square_problem(), STRONG_AMPLITUDE)
        if tracer is not None:
            problem = tracer.wrap_problem(problem)

        def run(method, workdir):
            config = adaptivity.AdaptiveConfig(max_levels=STRONG_LEVELS)
            return [[s.record.ndof, s.record.error_total,
                     s.record.error_method, s.record.estimator_total]
                    for s in adaptivity.uniform_levels(
                        problem, method, STRONG_LEVELS, config)]
        return run

    raise ValueError(f"unknown workload {name!r}")


def calibrate():
    """Seconds taken by a fixed kernel that does not use vkfem.

    A sparse LU, elementwise work on large arrays and small einsums with
    dict work: the mix of the workloads.  Timed in the same process around
    each method, it measures how fast the shared machine runs at the moment,
    which changes by up to 1.5x for stretches of tens of seconds.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(38, 38))
    lap = sp.kronsum(lap1, lap1).tocsr()
    mat = sp.bmat([[lap @ lap, lap], [-lap, lap @ lap]], format="csc")
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 1.0, (4000, 60))
    a = rng.standard_normal((200, 6, 3))
    start = time.perf_counter()
    # spsolve, not splu: a traced repetition has splu wrapped
    spla.spsolve(mat, np.ones(mat.shape[0]))
    for _ in range(5):
        r = np.hypot(x, x)
        t = np.arctan2(x, r)
        np.sin(t) * r**0.54 + np.cos(2.0 * t)
    for _ in range(300):
        np.einsum("tic,tjc->tij", a, a).sum()
        sum({k: 2 * k for k in range(40)}.values())
    return time.perf_counter() - start


def repetition(name, order, traced, workdir):
    """One repetition: set up, then run every method in ``order``."""
    try:
        import_vkfem()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    import numpy
    import scipy
    from vkfem.solver import SolverError

    tracer = None
    if traced:
        import layers
        tracer = layers.Tracer(layers.TARGETS).install()
    run = setup(name, tracer)
    setup_end = time.monotonic()

    def timed_calibration():
        nonlocal calibrating
        start = time.perf_counter()
        calibration.append(calibrate())
        calibrating += time.perf_counter() - start

    calibration, calibrating = [], 0.0
    timed_calibration()   # warm-up, not used
    timed_calibration()
    method_s, rows, errors = {}, {}, {}
    for method in order:
        start = time.perf_counter()
        try:
            rows[method] = run(method, workdir)
        except SolverError as exc:
            errors[method] = str(exc)
        else:
            # a failed method has no time: time-until-failure is not a cost
            method_s[method] = time.perf_counter() - start
        timed_calibration()

    out = {
        "setup_end": setup_end,
        # calibration before and after each method, in ``order``
        "calibration_s": calibration[1:],
        "calibrating_s": calibrating,
        "method_s": method_s,
        "rows": rows,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.report(MUST_HIT[name])
    return out


if __name__ == "__main__":
    _name, _order, _traced, _workdir = sys.argv[1:5]
    _result = repetition(_name, _order.split(","), _traced == "1", _workdir)
    print(json.dumps(_result))
