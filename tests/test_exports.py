"""The package's public names: every module's __all__ against what it
defines, and the package namespace against the modules' __all__."""

import ast
import importlib
from pathlib import Path

import gapspec


def test_all_resolves_and_covers_package_imports():
    # a name deleted from a module but left in its __all__, or re-exported
    # by the package without being declared public, fails here
    init = Path(gapspec.__file__)
    modules = sorted(
        p.stem for p in init.parent.glob("*.py") if not p.stem.startswith("_")
    )
    for name in modules:
        module = importlib.import_module(f"gapspec.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"gapspec.{name}.__all__ names missing {attr!r}"
    tree = ast.parse(init.read_text(encoding="utf-8"))
    imported = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"gapspec.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, (
                    f"gapspec imports {alias.name!r} from {node.module}, "
                    "which does not list it in __all__"
                )
                imported += 1
    assert imported > 40
