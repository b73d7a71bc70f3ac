"""The package declares no dependencies, so it may import only the stdlib."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "covenant"


def test_every_import_is_stdlib_or_relative():
    outside = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "__future__" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.relative_to(SOURCE)}:{node.lineno}: {name}")
    assert outside == []
