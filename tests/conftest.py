import pytest

from vkfem import (lshape_mesh, two_triangle_square, uniform_refine,
                   unit_square_mesh)


@pytest.fixture(scope="session")
def two_tri():
    return two_triangle_square()


@pytest.fixture(scope="session")
def square0():
    return unit_square_mesh()


@pytest.fixture(scope="session")
def square1(square0):
    return uniform_refine(square0)


@pytest.fixture(scope="session")
def square2(square1):
    return uniform_refine(square1)


@pytest.fixture(scope="session")
def square3(square2):
    return uniform_refine(square2)


@pytest.fixture(scope="session")
def lshape0():
    return lshape_mesh()


@pytest.fixture(scope="session")
def lshape1(lshape0):
    return uniform_refine(lshape0)


@pytest.fixture(scope="session")
def skewed_triangle():
    """One-element mesh with an irregular but well-shaped triangle."""
    from vkfem import build_topology
    return build_topology([(0.1, -0.05), (1.3, 0.2), (0.4, 0.9)], [(0, 1, 2)])


@pytest.fixture(scope="session")
def lshape_graded(lshape1):
    """L-shape mesh graded towards the re-entrant corner by newest-vertex
    bisection: triangles of diameter above ``r**(2/3) / 4`` (``r``: distance
    of the centroid from the corner) are refined until none is left, which
    gives 750 triangles of diameter 1/4 down to 1/256."""
    import numpy as np

    from vkfem import nvb_refine
    mesh = lshape1
    while True:
        r = np.hypot(*mesh.vertices[mesh.triangles].mean(axis=1).T)
        marked = np.where(mesh.tri_diameter
                          > 0.25 * np.maximum(r, 1e-3)**(2.0 / 3.0))[0]
        if len(marked) == 0:
            return mesh
        mesh = nvb_refine(mesh, marked)


@pytest.fixture
def field_passes(monkeypatch):
    """Counts the evaluations of the L-shape fields: ``field_passes["n"]``
    is the number of ``_fields_polar`` calls since the fixture was set up
    (or since the test last reset it), and ``field_passes["points"]`` the
    number of points of each call."""
    import numpy as np
    import vkfem.problems as problems
    calls = {"n": 0, "points": []}
    real = problems._fields_polar

    def counted(r, theta):
        calls["n"] += 1
        calls["points"].append(np.size(r))
        return real(r, theta)

    monkeypatch.setattr(problems, "_fields_polar", counted)
    return calls
