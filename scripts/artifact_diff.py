#!/usr/bin/env python3
"""Compare two artifact directories file by file.

Lists the files that are byte-identical and the files found on one side
only. For each CSV or JSONL file that differs, prints the maximum
absolute and relative difference per column (CSV) or key (JSONL) over
all rows, for the columns or keys that differ. Nested JSON keys are
joined with dots and lists are compared element by element. Cells that
are not numbers (or not finite) must match exactly; their mismatches are
counted.

Usage:
    python scripts/artifact_diff.py DIR_A DIR_B

Exits 0 when every file is byte-identical, 1 otherwise.
"""

import argparse
import json
import math
import sys
from pathlib import Path


def _files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _flatten(value, key: str, row: dict) -> None:
    if isinstance(value, dict):
        for sub, item in value.items():
            _flatten(item, f"{key}.{sub}" if key else sub, row)
    elif isinstance(value, list):
        for item in value:
            _flatten(item, key, row)
    else:
        row.setdefault(key, []).append(value)


def _rows(path: Path) -> list[dict]:
    """Each row as {column or key: [values]}."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv":
        header = lines[0].split(",")
        return [{k: [v] for k, v in zip(header, line.split(","))} for line in lines[1:]]
    rows = []
    for line in lines:
        row: dict = {}
        _flatten(json.loads(line), "", row)
        rows.append(row)
    return rows


def _number(value):
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _column_stats(rows_a: list, rows_b: list) -> dict:
    """{key: [max_abs, max_rel, mismatches]} over rows compared in order."""
    stats: dict = {}
    for ra, rb in zip(rows_a, rows_b):
        for key in sorted(ra.keys() | rb.keys()):
            va, vb = ra.get(key, []), rb.get(key, [])
            entry = stats.setdefault(key, [0.0, 0.0, 0])
            if len(va) != len(vb):
                entry[2] += 1
                continue
            for x, y in zip(va, vb):
                fx, fy = _number(x), _number(y)
                if fx is None or fy is None:
                    entry[2] += x != y
                elif math.isfinite(fx) and math.isfinite(fy):
                    diff = abs(fx - fy)
                    entry[0] = max(entry[0], diff)
                    if diff:
                        entry[1] = max(entry[1], diff / max(abs(fx), abs(fy)))
                else:
                    entry[2] += not (fx == fy or (math.isnan(fx) and math.isnan(fy)))
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args()
    files_a, files_b = _files(args.dir_a), _files(args.dir_b)
    same, differ = [], []
    for rel in sorted(files_a & files_b):
        if (args.dir_a / rel).read_bytes() == (args.dir_b / rel).read_bytes():
            same.append(rel)
        else:
            differ.append(rel)

    print(f"identical: {len(same)} files")
    for rel in same:
        print(f"  {rel}")
    for label, only in (("only in DIR_A", files_a - files_b), ("only in DIR_B", files_b - files_a)):
        for rel in sorted(only):
            print(f"{label}: {rel}")
    for rel in differ:
        print(f"differs: {rel}")
        if rel.suffix not in (".csv", ".jsonl"):
            continue
        rows_a, rows_b = _rows(args.dir_a / rel), _rows(args.dir_b / rel)
        if len(rows_a) != len(rows_b):
            print(f"  rows: {len(rows_a)} vs {len(rows_b)}; the leading rows are compared")
        for key, (max_abs, max_rel, mismatches) in _column_stats(rows_a, rows_b).items():
            if max_abs or mismatches:
                print(f"  {key}: max_abs {max_abs:.3g}  max_rel {max_rel:.3g}  mismatches {mismatches}")
    return 0 if not differ and files_a == files_b else 1


if __name__ == "__main__":
    sys.exit(main())
