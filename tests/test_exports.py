"""Export surface: the package namespace is exactly what the modules list.

Every name in a module's ``__all__`` must exist there, and the package
re-exports that union and nothing else, so a name deleted from a module
cannot linger in ``__init__``.  ``errors`` has no ``__all__``: its surface
is every exception class it defines.
"""

import importlib
import inspect

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
