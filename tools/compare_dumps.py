"""Compare two output dumps CSV by CSV and report which columns moved.

    python3 tools/compare_dumps.py BASE HEAD

BASE and HEAD are directories written by tools/dump_outputs.py at one seed.
For each CSV that differs, the report gives one entry per moved column: how
many of its cells moved, and the largest relative change |a - b| / max(|a|, |b|).
A text cell that changes, or a number against an empty or NaN cell, counts as
an infinite change. A changed header or row count is reported too. Every other
file that differs, and every file found on one side only, is listed by path.
The report is Markdown, so a CI job can append it to its step summary. The exit
code is 0 whatever differs, and 2 when a directory is missing.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def relative_change(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) for two numeric cells; 0 for equal cells, and
    infinite for text, empty or NaN cells that differ."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y:
        return 0.0
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare_csv(base: str, head: str) -> list[str]:
    """One entry per difference between the CSV files `base` and `head`."""
    old, new = _rows(base), _rows(head)
    if not old or not new or old[0] != new[0]:
        return [f"header {old[:1]} -> {new[:1]}"]
    entries = [] if len(old) == len(new) else [f"rows {len(old) - 1} -> {len(new) - 1}"]
    for j, column in enumerate(old[0]):
        changes = [relative_change(a[j], b[j]) for a, b in zip(old[1:], new[1:])]
        moved = [c for c in changes if c > 0.0]
        if moved:
            entries.append(f"`{column}` {len(moved)}/{len(changes)} cells, "
                           f"max relative change {max(moved):.2g}")
    return entries


def compare(base: str, head: str) -> list[str]:
    """The Markdown lines of the report on the dumps `base` and `head`."""
    old, new = _files(base), _files(head)
    lines = []
    for rel in sorted(old | new):
        if rel not in new:
            lines.append(f"- `{rel}`: only in the base")
        elif rel not in old:
            lines.append(f"- `{rel}`: only in the head")
        else:
            a, b = os.path.join(base, rel), os.path.join(head, rel)
            if _read(a) == _read(b):
                continue
            if rel.endswith(".csv"):
                lines.append(f"- `{rel}`: " + "; ".join(compare_csv(a, b)))
            else:
                lines.append(f"- `{rel}`: differs")
    return lines or ["- no file differs"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("base", help="the dump of the base checkout")
    parser.add_argument("head", help="the dump of the changed checkout")
    args = parser.parse_args(argv)
    for path in (args.base, args.head):
        if not os.path.isdir(path):
            print(f"error: {path} is not a directory", file=sys.stderr)
            return 2
    print("\n".join(compare(args.base, args.head)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
