"""Fail on dead code in the package: an unused import, or a private
module-level name that no module of the package references.  __init__.py
re-exports, so its own names are exempt.

Usage: python .github/scripts/no_dead_code.py src/closurespaces/*.py
"""

import ast
import sys

trees = {}
for path in sys.argv[1:]:
    with open(path) as f:
        trees[path] = ast.parse(f.read())

# every name the package loads, reads as an attribute or imports by name
referenced = set()
for tree in trees.values():
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            referenced.update(alias.name for alias in node.names)

problems = []
for path, tree in trees.items():
    if path.endswith("__init__.py"):
        continue
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    problems.append(f"{path}:{node.lineno}: unused import {name}")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__") and name not in referenced:
                problems.append(f"{path}:{node.lineno}: private name {name} is never referenced")
if problems:
    sys.exit("\n".join(problems))
