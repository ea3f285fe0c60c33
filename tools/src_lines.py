"""Print the size of each ``src/mongeval`` module and of the package.

Usage: ``python tools/src_lines.py`` (no options).  Three counts per file:

* ``wc -l``: the file's newlines;
* code: lines that hold a token other than a comment, less docstring lines;
* docstring: the lines spanned by module, class and function docstrings.
"""

import ast
import glob
import io
import os
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "mongeval")
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(path):
    """(wc -l, code, docstring) line counts of one source file."""
    with open(path, "rb") as fh:
        source = fh.read()
    lines = source.count(b"\n")
    tokens = [t for t in tokenize.tokenize(io.BytesIO(source).readline) if t.type not in SKIP]
    code = {n for t in tokens for n in range(t.start[0], t.end[0] + 1)}
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DEFS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    return lines, len(code - docs), len(docs)


def main():
    rows = [(os.path.basename(p)[:-3], counts(p)) for p in sorted(glob.glob(os.path.join(SRC, "*.py")))]
    rows.append(("total", tuple(map(sum, zip(*(c for _, c in rows))))))
    print(f"{'module':<12}{'wc -l':>8}{'code':>8}{'docstring':>11}")
    for name, (lines, code, docs) in rows:
        print(f"{name:<12}{lines:>8,}{code:>8,}{docs:>11,}")


if __name__ == "__main__":
    main()
