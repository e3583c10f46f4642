"""Import hygiene of the package, read from its source with ``ast``.

Every module uses each name it imports or exports it in ``__all__`` (an
import on a line marked ``# noqa: F401`` is kept on purpose), and every
name the package ``__init__`` imports is in its module's ``__all__``, so a
deletion leaves no stale import or export behind.
"""

import ast
from pathlib import Path

import pytest

import vkfem

PACKAGE = Path(vkfem.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def parsed(name):
    source = (PACKAGE / f"{name}.py").read_text()
    return source.splitlines(), ast.parse(source)


def exported(tree):
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    lines, tree = parsed(name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {bound: line for bound, line in imported.items()
              if bound not in used | exported(tree)}
    assert not unused, f"{name}.py imports names it never uses: {unused}"


def test_the_package_imports_only_exported_names():
    _, tree = parsed("__init__")
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = exported(parsed(node.module)[1])
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name not in public]
    assert not missing, f"not in their module's __all__: {missing}"
