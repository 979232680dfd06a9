"""Import hygiene of the library modules, checked on their syntax trees.

No module may import a private name (one with a leading underscore)
from another logtoric module, and no module may import a name it never
uses.  __init__.py is exempt from the second rule: its imports are the
package's public re-exports.  The library needs nothing outside the
standard library, and the oracle takes only container types from the
modules it checks.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "logtoric"

def _modules():
    return sorted(SRC.glob("*.py"))


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _logtoric_source(node):
    """The logtoric module an ImportFrom reads from, or None."""
    if node.level:
        return node.module or ""
    if node.module == "logtoric" or (node.module or "").startswith(
            "logtoric."):
        return node.module.split(".", 1)[1] if "." in node.module else ""
    return None


def test_no_private_names_imported_across_modules():
    found = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = _logtoric_source(node)
            if source is None:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{path.name}: {alias.name} from .{source}")
    assert not found, found


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_unused_imports():
    found = []
    for path in _modules():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for lineno, name in _imported_names(tree):
            if name not in used:
                found.append(f"{path.name}:{lineno}: {name}")
    assert not found, found


def test_no_module_imports_numpy():
    found = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            if "numpy" in roots:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# The oracle must share no algorithm code with the modules it checks.
ORACLE_CONTAINERS = {"RationalCone", "Sublattice", "Vec"}


def test_oracle_imports_only_containers():
    tree = ast.parse((SRC / "oracle.py").read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "logtoric"
                           for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                _logtoric_source(node) is not None:
            taken |= {alias.name for alias in node.names}
    assert taken <= ORACLE_CONTAINERS, taken - ORACLE_CONTAINERS


def test_cli_imports_without_numpy():
    code = ('import sys; sys.modules["numpy"] = None; '
            'import logtoric.cli')
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
