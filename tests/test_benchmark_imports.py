"""Every roottrace name the benchmark in perfbench/ imports must still resolve.

The benchmark is only run outside tier 1, so a change that deletes or
renames a name it imports would otherwise be found only there. This test
reads perfbench's sources with ast and does not import or run them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def roottrace_imports():
    """(file, module, name) for each roottrace import in perfbench; name is
    None for a plain `import roottrace...`."""
    found = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "roottrace":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "roottrace"]
    return found


def resolves(module, name):
    try:
        mod = importlib.import_module(module)
    except ModuleNotFoundError:
        return False
    if name is None or hasattr(mod, name):
        return True
    # `from roottrace import cli` names a submodule, not an attribute
    return hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_perfbench_imports_from_roottrace_resolve():
    imports = roottrace_imports()
    assert {module for _, module, _ in imports} >= {"roottrace", "roottrace.report", "roottrace.ingest"}
    missing = [f"{file}: from {module} import {name}" for file, module, name in imports if not resolves(module, name)]
    assert not missing, missing
