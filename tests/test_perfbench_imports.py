"""Every name the benchmark scripts import from the package exists.

The scripts under perfbench/ are frozen against the package's API; this reads
them with `ast` (they are not run) so that deleting or renaming a name they
import fails here, in the test suite, and not only when the benchmark runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.joinpath("perfbench").glob("*.py"))


def _imports(path):
    """(module, name) for each `from coarsevrp... import name`, and
    (module, None) for each `import coarsevrp...`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "coarsevrp":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "coarsevrp")


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_benchmark_imports_resolve(path):
    for module, name in _imports(path):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")     # a submodule, or ImportError


def test_the_guard_sees_the_benchmark_imports():
    found = {pair for path in SCRIPTS for pair in _imports(path)}
    assert ("coarsevrp.graph", "Graph") in found
    assert ("coarsevrp", "cli") in found
