"""The unified norm in action: one yardstick for three different elements.

Each method natively measures errors in its own mesh-dependent norm (broken
H2 for Morley, plus normal-derivative jumps for C0IP, plus value jumps for
the discontinuous method).  The unified norm (broken H2 + squared edge
means of the normal-derivative jump + scaled vertex jumps) makes them
directly comparable.  This script demonstrates its three key identities.
"""

import numpy as np

from vkfem import (build_dofmap, discrete_norm, error_norm,
                   morley_interpolate, newton_solve, uniform_refine,
                   unified_h_norm, unit_square_mesh)
from vkfem.femspace import element_hessians
from vkfem.problems import exact_square
from vkfem.quadrature import triangle_rule

mesh = uniform_refine(uniform_refine(unit_square_mesh()))
exact = exact_square()

# 1. On Morley data the unified norm IS the broken H2 norm: the edge means
#    of the normal-derivative jump and the vertex jumps vanish by
#    construction of the element.
dm = build_dofmap(mesh, "morley")
rng = np.random.default_rng(1)
coef = rng.standard_normal(dm.n_global)
print("Morley field:  ||.||_h  =", f"{unified_h_norm(dm, coef):.12e}")
print("               ||.||_nc =", f"{discrete_norm(dm, coef, 'nc'):.12e}")

# 2. The Morley interpolant realises the best broken-Hessian approximation:
#    its piecewise Hessian is the element-wise mean of the exact Hessian.
coef_u = morley_interpolate(exact.u, exact.u_grad, mesh, dm)
basis = dm.basis
hess = element_hessians(basis, coef_u)
rule = triangle_rule(8)
pts = basis.physical_points(rule.points[:, 1:])
mean = np.einsum("q,tqc->tc", rule.weights,
                 exact.u_hess(pts[..., 0], pts[..., 1]))
print("\ninterpolant Hessian vs element-mean Hessian, max deviation:",
      f"{np.abs(hess - mean).max():.2e}")

# 3. The three computed solutions have equivalent errors in the unified
#    norm, even though their native norms differ.
print(f"\n{'method':>8} {'native norm':>13} {'native error':>13} "
      f"{'unified error':>14}")
native = {"morley": "nc", "c0ip": "ip", "dg": "dg"}
for method, kind in native.items():
    dofmap = build_dofmap(mesh, method)
    psi, _ = newton_solve(mesh, dofmap, loads=(exact.f, exact.g))
    e_native = error_norm(psi, exact, kind)[2]
    e_unified = error_norm(psi, exact, "h")[2]
    print(f"{method:>8} {kind:>13} {e_native:13.4e} {e_unified:14.4e}")
print("\nunified-norm errors agree within small constant factors")
