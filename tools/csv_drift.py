"""The largest difference per column between two recirc CSV files.

    python tools/csv_drift.py A B

Lines that start with `#` (the `# recirc <version> config=<hash>` line)
are skipped, the next line is the header, and columns are matched by name.
For each column of A that B also has, prints the largest absolute
difference |a - b| over the rows and the largest relative difference
|a - b| / max(|a|, |b|) (0 where both are 0). A column in only one file is
reported as missing from B or extra in B. Exits 1 when the columns or the
row counts differ, else 0.
"""

import csv
import sys

import numpy as np


def read(path):
    """{column name: float array} of one CSV file."""
    with open(path) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def drift(a, b):
    """(name, max absolute, max relative difference) per column in both."""
    out = []
    for name in a.keys() & b.keys():
        x, y = a[name], b[name]
        gap = np.abs(x - y)
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0)
        out.append((name, float(gap.max(initial=0.0)), float(rel.max(initial=0.0))))
    order = list(a)
    return sorted(out, key=lambda row: order.index(row[0]))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/csv_drift.py A B", file=sys.stderr)
        return 2
    a, b = read(argv[0]), read(argv[1])
    lengths = {len(c) for c in (*a.values(), *b.values())}
    if len(lengths) > 1:
        print(f"row counts differ: {sorted(lengths)}")
        return 1
    print(f"{'column':24s} {'max_abs':>12s} {'max_rel':>12s}")
    for name, gap, rel in drift(a, b):
        print(f"{name:24s} {gap:12.3e} {rel:12.3e}")
    missing = [name for name in a if name not in b]
    extra = [name for name in b if name not in a]
    for what, names in (("missing from B", missing), ("extra in B", extra)):
        if names:
            print(f"{what}: {', '.join(names)}")
    return 1 if missing or extra else 0


if __name__ == "__main__":
    sys.exit(main())
