"""Count the code lines of Python files: the lines that hold a token other
than layout, less docstrings, comments and blank lines.

Usage: python .github/scripts/count_lines.py FILE...
(the package count is of src/closurespaces/*.py)

Prints one line per file, then the total.  Exits 2 with the usage line
when given no file, or a path that is not a file.
"""

import ast
import os
import sys
import tokenize

if len(sys.argv) < 2 or not all(map(os.path.isfile, sys.argv[1:])):
    print("usage: python .github/scripts/count_lines.py FILE...", file=sys.stderr)
    sys.exit(2)
total = 0
for path in sys.argv[1:]:
    with open(path, "rb") as f:
        source = f.read()
        f.seek(0)
        tokens = list(tokenize.tokenize(f.readline))
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    layout = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
    }
    code = set()
    for tok in tokens:
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    count = len(code - docstrings)
    total += count
    print(f"{count:8d} {path} (code)")
print(f"{total:8d} total (code)")
