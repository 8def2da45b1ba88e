"""The package's public surface: every exported name exists, and the
package root re-exports only names its modules declare public."""
import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import flipguard

PACKAGE_DIR = Path(flipguard.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE_DIR)])
                 if m.name != "__main__")


def root_reexports():
    """(module, name) for every ``from .module import name`` in __init__.py."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    return [(node.module, alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(f"flipguard.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module, name", root_reexports())
def test_root_reexports_are_listed_by_their_module(module, name):
    mod = importlib.import_module(f"flipguard.{module}")
    assert name in mod.__all__
    assert getattr(flipguard, name) is getattr(mod, name)


def test_quantize_is_a_leaf_module():
    # Stand in an empty package for flipguard so that its __init__, which
    # imports every module, does not run; then only quantize's own imports
    # can load siblings.
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('flipguard')\n"
        f"pkg.__path__ = [{str(PACKAGE_DIR)!r}]\n"
        "sys.modules['flipguard'] = pkg\n"
        "import flipguard.quantize\n"
        "print(sorted(m for m in sys.modules if m.startswith('flipguard.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['flipguard.quantize']"
    assert "flipguard.codes" not in out.stdout
