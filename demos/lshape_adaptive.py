"""Adaptive refinement for the singular L-shape problem.

The exact pair behaves like r^(1+alpha) near the reentrant corner (alpha
about 0.544), which limits uniform refinement.  Driving newest-vertex
bisection with the residual estimator and bulk marking (theta = 0.5)
recovers the optimal decay rate 0.5 and piles elements onto the corner;
this script prints the level history and the final mesh statistics.
"""

import numpy as np

from vkfem import AdaptiveConfig, fit_rate
from vkfem.adaptivity import method_levels
from vkfem.problems import lshape_problem

problem = lshape_problem()
config = AdaptiveConfig(theta=0.5, max_levels=30, max_ndof=4000)

states = list(method_levels(problem, ["morley"], config, marked_by="morley"))

print(f"{'level':>5} {'elements':>9} {'ndof':>7} {'error':>11} "
      f"{'estimator':>11} {'rate':>6}")
for s in states:
    r = s.record
    print(f"{r.level:5d} {s.mesh.n_triangles:9d} {r.ndof:7d} "
          f"{r.error_total:11.4e} {r.estimator_total:11.4e} "
          f"{r.rate_vs_ndof:6.3f}")

ndofs = [s.record.ndof for s in states]
errors = [s.record.error_total for s in states]
print(f"\nfitted rate over the last 4 levels: "
      f"{fit_rate(ndofs, errors, window=4):.3f} (optimal is 0.5)")

mesh = states[-1].mesh
centroid = mesh.vertices[mesh.triangles].mean(axis=1)
near = np.hypot(centroid[:, 0], centroid[:, 1]) < 0.1
print(f"\nfinal mesh: {mesh.n_triangles} elements, "
      f"{int(near.sum())} of them within 0.1 of the corner")
print(f"smallest/mean/largest element diameter: "
      f"{mesh.tri_diameter.min():.4f} / {mesh.tri_diameter.mean():.4f} / "
      f"{mesh.tri_diameter.max():.4f}")
print("the smallest elements sit at the corner; away from it the mesh "
      "stays coarse")
