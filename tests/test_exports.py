"""Export surface: the package namespace is exactly what the modules list.

Every name in a module's ``__all__`` must exist there, and the package
re-exports that union and nothing else, so a name deleted from a module
cannot linger in ``__init__``.  ``errors`` has no ``__all__``: its surface
is every exception class it defines, and each one is a failure the
library raises (a test-only failure lives with the tests).
"""

import ast
import importlib
import inspect
from pathlib import Path

import pumped_lindblad
from pumped_lindblad import errors

MODULES = ("operator_core", "reservoir", "lindblad", "evolution", "floquet")


def test_package_namespace_is_the_union_of_module_all_lists():
    listed = {name for name, obj in vars(errors).items()
              if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    for module_name in MODULES:
        module = importlib.import_module(f"pumped_lindblad.{module_name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module_name, missing)
        assert len(set(module.__all__)) == len(module.__all__), module_name
        listed |= set(module.__all__)
    public = {name for name, obj in vars(pumped_lindblad).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == listed, (sorted(public - listed), sorted(listed - public))


def test_every_library_error_is_raised_by_the_library():
    root = Path(__file__).resolve().parent.parent / "src" / "pumped_lindblad"
    raised = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raised.add(getattr(node.exc.func, "id", None))
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    bases = {base.__name__ for name in defined for base in getattr(errors, name).__bases__}
    assert defined - bases - raised == set()


def _unused_imports(path):
    """Module-level imports of `path` whose bound name is never read and is
    not listed in the module's ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    listed = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            listed |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in listed)


def test_no_unused_module_level_imports():
    # the package __init__ only re-exports, so it is not scanned
    root = Path(__file__).resolve().parent.parent
    paths = [p for p in sorted((root / "src" / "pumped_lindblad").glob("*.py"))
             if p.name != "__init__.py"] + sorted((root / "tests").glob("*.py"))
    unused = {p.relative_to(root).as_posix(): names for p in paths
              if (names := _unused_imports(p))}
    assert unused == {}, unused
