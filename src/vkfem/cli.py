"""Command-line driver for the three benchmark experiments.

Writes one CSV row per level per method with the columns

    method, level, ndof, error_u, error_v, error_h_norm,
    error_method_norm, estimator, oscillation, rate

(floats as ``%.12e``) and prints a per-method rate summary.  Uniform runs
solve one method after the other, each on its own hierarchy, so their rows
list method by method; adaptive runs solve every method on each mesh of
one hierarchy, so their rows list level by level (morley, c0ip, dg within
a level).  Exit codes: 0 success, 1 nonlinear solver failure (the partial
CSV is kept), 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from numbers import Integral
from typing import Optional

# ``estimate`` is unused here but stays a module attribute: the layer tracer
# of ``bench/`` patches and checks it in every module that imports it
from .adaptivity import (AdaptiveConfig, estimate,  # noqa: F401
                         method_levels)
from .analysis import fit_rate
from .assembly import PenaltyConfig, _check_positive
from .femspace import METHODS
from .problems import lshape_problem, square_problem
from .solver import SolverError

__all__ = ["ExperimentSpec", "run_experiment", "main", "CSV_COLUMNS"]

CSV_COLUMNS = ("method", "level", "ndof", "error_u", "error_v",
               "error_h_norm", "error_method_norm", "estimator",
               "oscillation", "rate")

EXAMPLES = ("square_analytic", "lshape_uniform", "lshape_adaptive")


@dataclass
class ExperimentSpec:
    """Everything one experiment run needs."""
    example: str
    method: str = "all"
    levels: int = 5
    theta: float = 0.5
    sigma_ip: float = 20.0
    sigma_dg: float = 20.0
    refine: Optional[str] = None
    estimator: Optional[str] = None
    out: str = "convergence.csv"
    newton_tol: float = 1e-10
    emit_plot: bool = False

    def __post_init__(self):
        if self.example not in EXAMPLES:
            raise ValueError(f"unknown example {self.example!r}")
        if self.method not in METHODS + ("all",):
            raise ValueError(f"unknown method {self.method!r}")
        if self.refine not in (None, "uniform", "adaptive"):
            raise ValueError(f"unknown refine {self.refine!r}")
        if not (isinstance(self.levels, Integral) and self.levels >= 1):
            raise ValueError(f"levels must be an integer >= 1, not "
                             f"{self.levels!r}")
        _check_positive("theta", self.theta, at_most=1.0)
        _check_positive("newton_tol", self.newton_tol)
        if self.estimator is not None and self.estimator not in METHODS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.estimator is not None and not self.adaptive:
            raise ValueError("an estimator drives adaptive runs only, and "
                             "this run refines uniformly")
        # raises ValueError on invalid values, before any output exists
        PenaltyConfig(self.sigma_ip, self.sigma_dg)

    @property
    def adaptive(self):
        """Whether the run refines adaptively (``refine`` overrides)."""
        if self.refine is None:
            return self.example == "lshape_adaptive"
        return self.refine == "adaptive"


def _methods_of(spec):
    return list(METHODS) if spec.method == "all" else [spec.method]


def _config(spec):
    return AdaptiveConfig(theta=spec.theta, max_levels=spec.levels,
                          penalty=PenaltyConfig(spec.sigma_ip, spec.sigma_dg),
                          newton_tol=spec.newton_tol)


def _row(method, record):
    return {
        "method": method,
        "level": record.level,
        "ndof": record.ndof,
        "error_u": record.error_u,
        "error_v": record.error_v,
        "error_h_norm": record.error_total,
        "error_method_norm": record.error_method,
        "estimator": record.estimator_total,
        "oscillation": record.oscillation,
        "rate": record.rate_vs_ndof,
    }


def _run(spec, problem, rows):
    config = _config(spec)
    methods = _methods_of(spec)
    if spec.adaptive:
        driver = spec.estimator or (methods[0] if len(methods) == 1
                                    else "morley")
        solved = methods if driver in methods else [driver] + methods
        runs = [method_levels(problem, solved, config, marked_by=driver)]
    else:
        runs = [method_levels(problem, [method], config)
                for method in methods]
    for run in runs:
        for state in run:
            if state.solution.method in methods:
                rows.append(_row(state.solution.method, state.record))


def _write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([f"{row[col]:.12e}" if isinstance(row[col], float)
                          else str(row[col]) for col in CSV_COLUMNS]
                         for row in rows)


def _emit_plot(csv_path):
    script = csv_path + ".gp"
    lines = [
        "# gnuplot script: unified-norm error against degrees of freedom",
        "set datafile separator ','",
        "set logscale xy",
        "set xlabel 'ndof'",
        "set ylabel 'error (unified norm)'",
        "set key bottom left",
        "plot \\",
    ]
    parts = [f"  '{csv_path}' using (strcol(1) eq '{method}' ? $3 : NaN):6 "
             f"with linespoints title '{method}'" for method in METHODS]
    lines.append(", \\\n".join(parts))
    with open(script, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return script


def run_experiment(spec):
    """Run one experiment spec; returns the rows written to the CSV."""
    problem = (square_problem() if spec.example == "square_analytic"
               else lshape_problem())
    rows = []
    try:
        _run(spec, problem, rows)
    finally:
        # keep whatever levels completed, also on solver failure
        _write_csv(spec.out, rows)
        if spec.emit_plot:
            _emit_plot(spec.out)
    for method in _methods_of(spec):
        ours = [r for r in rows if r["method"] == method]
        if len(ours) >= 3:
            rate = fit_rate([r["ndof"] for r in ours],
                            [r["error_h_norm"] for r in ours], window=3)
            print(f"{spec.example} {method}: {len(ours)} levels, "
                  f"final ndof {ours[-1]['ndof']}, rate {rate:.3f}")
        elif ours:
            print(f"{spec.example} {method}: {len(ours)} levels, "
                  f"final ndof {ours[-1]['ndof']}")
    print(f"wrote {spec.out}")
    return rows


def _build_parser():
    # options left out are left out of the namespace too, so the defaults
    # are those of ExperimentSpec
    parser = argparse.ArgumentParser(
        prog="vkfem", argument_default=argparse.SUPPRESS,
        description="Convergence experiments for quadratic clamped-plate "
                    "discretisations (Morley, C0 interior penalty, "
                    "discontinuous Galerkin).")
    parser.add_argument("--example", required=True, choices=EXAMPLES)
    parser.add_argument("--method", choices=METHODS + ("all",))
    parser.add_argument("--levels", type=int)
    parser.add_argument("--theta", type=float,
                        help="bulk marking parameter in (0, 1]")
    parser.add_argument("--sigma-ip", type=float)
    parser.add_argument("--sigma-dg", type=float)
    parser.add_argument("--refine", choices=("uniform", "adaptive"),
                        help="override the example's refinement style")
    parser.add_argument("--estimator", choices=METHODS,
                        help="estimator driving adaptive refinement "
                             "(adaptive runs only)")
    parser.add_argument("--out")
    parser.add_argument("--newton-tol", type=float)
    parser.add_argument("--emit-plot", action="store_true",
                        help="write a gnuplot script next to the CSV")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        spec = ExperimentSpec(**vars(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        run_experiment(spec)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
