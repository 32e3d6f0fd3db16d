"""Checks on the package's public namespace."""

import ast
import collections
from pathlib import Path

import cavityflux


def test_all_exports_resolve_once():
    missing = [name for name in cavityflux.__all__
               if not hasattr(cavityflux, name)]
    assert missing == []
    counts = collections.Counter(cavityflux.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_no_module_imports_a_private_sibling_name():
    # a module that needs another's underscore name duplicates its job
    offenders = []
    for path in sorted(Path(cavityflux.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")
                              and alias.name != "__version__"]
    assert offenders == []
