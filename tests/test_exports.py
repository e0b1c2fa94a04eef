import ast
import importlib
import inspect
import pkgutil

import mvlab


def test_public_names_exist_and_package_reexports_are_public():
    modules = {m.name: importlib.import_module(f"mvlab.{m.name}")
               for m in pkgutil.iter_modules(mvlab.__path__)}
    for name, mod in modules.items():
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"mvlab.{name}.__all__ names missing objects {missing}"
    # every `from .module import name` in the package's __init__
    for node in ast.parse(inspect.getsource(mvlab)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = modules[node.module].__all__
            hidden = [a.name for a in node.names if a.name not in public]
            assert not hidden, f"mvlab re-exports {hidden}, not in mvlab.{node.module}.__all__"
