"""Fail on an oracle no test reaches, since it checks nothing: a top-level
function of tests/oracles.py that no file under tests/ loads or reads as an
attribute.

Usage: python .github/scripts/no_unreached_oracles.py  (from the repo root)
"""

import ast
import sys
from pathlib import Path

referenced = set()
for path in Path("tests").rglob("*.py"):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
oracles = ast.parse(Path("tests/oracles.py").read_text())
problems = [
    f"tests/oracles.py:{node.lineno}: oracle {node.name} is never referenced"
    for node in oracles.body
    if isinstance(node, ast.FunctionDef) and node.name not in referenced
]
if problems:
    sys.exit("\n".join(problems))
