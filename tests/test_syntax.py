"""Every module of the package, the test suite and tools/ parses as Python 3.10,
the oldest version pyproject.toml accepts. This checks syntax only (such as
`except*` or PEP 695 generics), not which standard-library APIs a module uses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.joinpath("src", "coarsevrp").glob("*.py"),
                  *ROOT.joinpath("tests").glob("*.py"), *ROOT.joinpath("tools").glob("*.py")])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_newer_syntax_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* OSError:\n    pass\n", feature_version=(3, 10))
