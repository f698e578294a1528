"""Every name a module imports is referenced in that module.

An AST scan over the package, the tests and the tools: an import that nothing
reads is left over from code that is gone, and it hides which modules a file
really depends on.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/uavisac", "tests", "tools")
               for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_scan_finds_an_unused_import():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(e, x.y)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
