"""Import hygiene of the package, read from its source with ``ast``.

Every module uses each name it imports or exports it in ``__all__`` (an
import on a line marked ``# noqa: F401`` is kept on purpose), and every
name the package ``__init__`` imports is in its module's ``__all__``, so a
deletion leaves no stale import or export behind.  Every private
module-level name is used in the package outside its own definition, so a
refactor leaves no orphaned helper behind either.
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


def private_definitions(tree):
    """The top-level statements of a module that define a private name
    (``_name``, not a dunder), with that name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node, name


def test_every_private_name_is_used_outside_its_definition():
    # a private module-level function, class or constant that no other
    # statement of its module reads, and no module imports, is dead code
    trees = {name: parsed(name)[1] for name in MODULES + ["__init__"]}
    imported = {(node.module, alias.name) for tree in trees.values()
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    orphans = []
    for module, tree in trees.items():
        for definition, name in private_definitions(tree):
            read = any(isinstance(node, ast.Name) and node.id == name
                       and isinstance(node.ctx, ast.Load)
                       for stmt in tree.body if stmt is not definition
                       for node in ast.walk(stmt))
            if not read and (module, name) not in imported:
                orphans.append(f"{module}.{name}")
    assert not orphans, f"private names nothing uses: {orphans}"
