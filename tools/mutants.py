"""Mutation testing of one module: which small faults its tests catch.

    python tools/mutants.py <module.py> [--sample n] [--seed s] [--tests ...]

e.g. `python tools/mutants.py src/recirc/monitors.py --sample 30 --seed 1`.
The module sits under a directory named `src`, whose parent is the root
the tests run from. A mutant changes one place of the module by one of
these operators: + <-> - and * <-> / (binary operators and augmented
assignments), < <-> <=, > <-> >= and == <-> != (comparisons), a unary
minus dropped, and a float constant doubled (where doubling changes it:
not 0.0 or inf). Code inside f-strings is left alone. `--sample n` runs
n mutants drawn with seed s (default 0), in source order; without it
every mutant runs. A module outside `src/` is a usage error (exit 2).

The tool copies `src/` into a temporary directory and writes each mutant
there, never into the tree it reads. The test selection is `--tests`, as
pytest paths or node ids from the root (default tests/test_<module>.py).
It first runs the selection on the unchanged copy, which must pass, and
sets the per-mutant timeout to TIMEOUT_FACTOR times that run's time plus
TIMEOUT_SLACK_S. Then it runs `python -m pytest -x -q` on the selection
once per mutant, one subprocess at a time, with the copy as PYTHONPATH,
no bytecode written (a stale one could hide a mutant) and no third-party
pytest plugin loaded (the selection may not need one: a plugin's start-up
can cost seconds per run). It prints one line per mutant, killed
(a test failed), survived (all passed) or timed out, with file:line and
the operator, then the counts. Exits 0 when every mutant ran, 1 when the
unchanged selection fails or does not import the copy.
"""

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from itertools import accumulate
from pathlib import Path

TIMEOUT_FACTOR = 5
TIMEOUT_SLACK_S = 1.0
# each operator's token and the token it becomes
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
         ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}


def mutants(source):
    """Every mutant of `source`, in source order: (start, end, text, line,
    operator), the source with its characters [start, end) replaced by
    text."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    starts = list(accumulate(map(len, lines), initial=0))

    def at(line, col):
        """The character offset of ast's (line, UTF-8 byte column)."""
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())

    ops = [(starts[tok.start[0] - 1] + tok.start[1], tok.string, tok.start[0])
           for tok in tokenize.generate_tokens(io.StringIO(source).readline)
           if tok.type == tokenize.OP]

    def swap(op, left, right, suffix=""):
        """The mutant of the operator token (+ suffix) between nodes left
        and right."""
        old, new = (token + suffix for token in SWAPS[type(op)])
        lo, hi = at(left.end_lineno, left.end_col_offset), at(right.lineno, right.col_offset)
        start, line = next((pos, row) for pos, text, row in ops if lo <= pos < hi and text == old)
        return start, start + len(old), new, line, f"{old} -> {new}"

    in_fstrings = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                   for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in in_fstrings:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append(swap(node.op, node.left, node.right))
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            found.append(swap(node.op, node.target, node.value, "="))
        elif isinstance(node, ast.Compare):
            found += [swap(op, left, right) for op, left, right in
                      zip(node.ops, [node.left, *node.comparators], node.comparators)
                      if type(op) in SWAPS]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            start = at(node.lineno, node.col_offset)  # the minus sign
            found.append((start, start + 1, "", node.lineno, "-x -> x"))
        elif (isinstance(node, ast.Constant) and type(node.value) is float
              and 2 * node.value != node.value):
            start, end = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
            found.append((start, end, repr(2 * node.value), node.lineno,
                          f"{source[start:end]} -> {2 * node.value!r}"))
    return sorted(found)


def run_tests(tests, root, env, timeout=None):
    """'survived' when pytest passes the selection, 'killed' when it fails,
    'timed out' past the timeout."""
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=root, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description="Mutation testing of one module under src/.")
    parser.add_argument("module", type=Path)
    parser.add_argument("--sample", type=int, default=None, help="run n mutants, drawn at random")
    parser.add_argument("--seed", type=int, default=0, help="the seed of the draw")
    parser.add_argument("--tests", nargs="+", default=None,
                        help="pytest paths or node ids (default tests/test_<module>.py)")
    args = parser.parse_args(argv)
    module = args.module.resolve()
    src = next((p for p in module.parents if p.name == "src"), None)
    if src is None:
        parser.error(f"{args.module} is not under a directory named src")
    root, rel = src.parent, module.relative_to(src)
    tests = args.tests or [f"tests/test_{module.stem}.py"]
    source = module.read_text()
    points = mutants(source)
    chosen = points if args.sample is None else sorted(
        random.Random(args.seed).sample(points, min(args.sample, len(points))))

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy),
               "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
        package = rel.parts[0].removesuffix(".py")
        probe = f"import {package}; print({package}.__file__)"
        where = subprocess.run([sys.executable, "-c", probe], cwd=root, env=env,
                               capture_output=True, text=True).stdout.strip()
        if not where or not Path(where).is_relative_to(copy):
            print(f"error: {package} imports from {where or 'nowhere'}, not from the copy")
            return 1
        t0 = time.monotonic()
        if run_tests(tests, root, env) != "survived":
            print(f"error: the unchanged module fails {' '.join(tests)}")
            return 1
        timeout = TIMEOUT_FACTOR * (time.monotonic() - t0) + TIMEOUT_SLACK_S
        print(f"{len(chosen)} mutants of {rel} ({len(points)} points), tests "
              f"{' '.join(tests)}, timeout {timeout:.1f} s")
        counts = dict.fromkeys(("killed", "survived", "timed out"), 0)
        for start, end, text, line, operator in chosen:
            (copy / rel).write_text(source[:start] + text + source[end:])
            status = run_tests(tests, root, env, timeout)
            counts[status] += 1
            print(f"{status:<9}  src/{rel.as_posix()}:{line}  {operator}", flush=True)
    print(", ".join(f"{status} {n}" for status, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
