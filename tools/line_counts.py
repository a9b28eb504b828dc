"""Code, docstring, comment and blank lines of Python files.

    python tools/line_counts.py [paths]

Each path is a .py file or a directory searched recursively for them;
without paths, src/recirc. Prints one row per file and a total row. A
docstring is the leading string statement of a module, class or function,
found with `ast`; all its lines count as docstring, blank ones included. A
comment line holds nothing but a comment; a blank line nothing but
whitespace; every other line is code.
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(source):
    """The 1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """{kind: line count} of one file's source."""
    docs = docstring_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        kind = ("docstring" if number in docs else "blank" if not text
                else "comment" if text.startswith("#") else "code")
        counts[kind] += 1
    return counts


def files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src/recirc"]
    total = dict.fromkeys(KINDS, 0)
    print(" ".join(f"{k:>9}" for k in (*KINDS, "lines")), " file")
    for path in files(paths):
        counts = count(path.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(" ".join(f"{counts[k]:>9}" for k in KINDS), f"{sum(counts.values()):>9}", "", path)
    print(" ".join(f"{total[k]:>9}" for k in KINDS), f"{sum(total.values()):>9}", "", "total")


if __name__ == "__main__":
    main()
