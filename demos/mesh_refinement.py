"""Tour of the mesh layer: topology, red refinement, bisection, file I/O.

Run as a script; it prints what it does at every step.
"""

import os
import tempfile

import numpy as np

from vkfem import (build_topology, lshape_mesh, nvb_refine, read_mesh,
                   shape_regularity, uniform_refine, unit_square_mesh,
                   write_mesh)

# A triangulation is built from raw vertex coordinates and CCW triangles;
# edges, adjacency, normals and boundary flags are derived automatically.
mesh = build_topology([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)])
print(f"unit square split by a diagonal: {mesh}")
print(f"  boundary edges: {int(mesh.edge_on_boundary.sum())}, "
      f"interior edges: {len(mesh.interior_edges)}")
print(f"  Euler characteristic V - E + F = {mesh.euler_characteristic()}")

# Red refinement replaces each triangle by four similar children, so the
# smallest interior angle never degrades.
fine = uniform_refine(mesh)
print(f"\nafter one red refinement: {fine}")
print(f"  min angle before/after: {shape_regularity(mesh):.6f} / "
      f"{shape_regularity(fine):.6f} (unchanged)")

# Newest-vertex bisection refines a marked subset; closure keeps the mesh
# conforming.  Marking one of the two start triangles forces its neighbour
# across the shared refinement edge to split as well.
bisected = nvb_refine(mesh, [0])
print(f"\nNVB with triangle 0 marked: {bisected} (both triangles split)")

# Repeated random marking keeps the similarity classes bounded: on meshes of
# right isosceles triangles the minimum angle stays at pi/4 forever.
rng = np.random.default_rng(0)
adaptive = unit_square_mesh()
for _ in range(8):
    marked = rng.choice(adaptive.n_triangles,
                        size=max(1, adaptive.n_triangles // 4), replace=False)
    adaptive = nvb_refine(adaptive, marked)
print(f"\n8 random NVB rounds on the criss-cross square: {adaptive}")
print(f"  min angle {shape_regularity(adaptive):.6f} = pi/4 = "
      f"{np.pi / 4:.6f}")

# Meshes round-trip through a plain-text format (header `nv nt`, then
# vertex lines `x y`, then triangle lines `i j k`).
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "lshape.mesh")
    write_mesh(lshape_mesh(), path)
    back = read_mesh(path)
print(f"\nL-shape written and read back: {back}")
