"""Compare two output directories of ``tools/report_matrix.py``.

    python3 tools/report_diff.py OUTDIR_A OUTDIR_B

Prints every config whose exit code differs, whose record names differ,
or where any record's verdict differs; then, per check family (a record
name without its ``.state<i>`` and ``.n<i>`` parts), the number of records,
how many of their residuals changed, the largest |residual change| and
the largest |residual change| / tolerance.  Exits 1 when some config
differs in exit code, records or verdicts, else 0: "same verdicts,
largest residual change reported" as one command.

Records are matched by name and occurrence, so a name that a run writes
once per draw is compared draw by draw; ``name#k`` denotes its k-th
occurrence, counted from 0.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

LINE_RE = re.compile(r"^check=(\S+) anchor=\S+ residual=(\S+) tol=(\S+) "
                     r"verdict=(\S+) ")
INDEX_PART = re.compile(r"\.(state|n)\d+(?=\.|$)")


def family(name: str) -> str:
    """The record name without its state and order indices."""
    return INDEX_PART.sub("", name)


def read_report(path: Path) -> dict:
    """(record name, occurrence) -> (residual, tolerance, verdict) of one
    report.  A name that a run writes once per draw occurs several times;
    its k-th line is occurrence k, counted from 0."""
    out = {}
    seen = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        match = LINE_RE.match(line)
        if match:
            name, res, tol, verdict = match.groups()
            occurrence = seen[name] = seen.get(name, -1) + 1
            out[name, occurrence] = (float(res), float(tol), verdict)
    return out


def label(key) -> str:
    """A record key as printed: its name, and ``#k`` after a repeated
    name's later occurrences."""
    name, occurrence = key
    return f"{name}#{occurrence}" if occurrence else name


def read_dir(root: Path) -> dict:
    """config name -> (exit code text, records) of one output directory."""
    return {exit_file.stem: (exit_file.read_text(encoding="utf-8").strip(),
                             read_report(exit_file.with_suffix(".txt")))
            for exit_file in sorted(root.glob("*.exit"))}


def change(a: float, b: float) -> float:
    """|a - b|: 0 when both are the same infinity or both NaN, inf when
    only one is NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    delta = abs(a - b)
    return math.inf if math.isnan(delta) else delta


def compare(dir_a: dict, dir_b: dict):
    """The lines naming differing configs, and per family
    [records, changed residuals, max |change|, max |change| / tol]."""
    lines = []
    families = {}
    for config in sorted(dir_a.keys() | dir_b.keys()):
        if config not in dir_a or config not in dir_b:
            lines.append(f"{config}: only in {'A' if config in dir_a else 'B'}")
            continue
        (code_a, recs_a), (code_b, recs_b) = dir_a[config], dir_b[config]
        if code_a != code_b:
            lines.append(f"{config}: exit {code_a} -> {code_b}")
        for key in sorted(recs_a.keys() ^ recs_b.keys()):
            lines.append(f"{config}: {label(key)} only in "
                         f"{'A' if key in recs_a else 'B'}")
        for key in sorted(recs_a.keys() & recs_b.keys()):
            (res_a, tol, verdict_a), (res_b, _, verdict_b) = recs_a[key], recs_b[key]
            if verdict_a != verdict_b:
                lines.append(f"{config}: {label(key)} {verdict_a} -> {verdict_b} "
                             f"({res_a:.3e} -> {res_b:.3e}, tol {tol:.1e})")
            delta = change(res_a, res_b)
            stats = families.setdefault(family(key[0]), [0, 0, 0.0, 0.0])
            stats[0] += 1
            if delta:
                stats[1] += 1
                stats[2] = max(stats[2], delta)
                stats[3] = max(stats[3], delta / tol)
    return lines, families


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: report_diff.py OUTDIR_A OUTDIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = (read_dir(Path(arg)) for arg in args)
    lines, families = compare(dir_a, dir_b)
    configs = len(dir_a.keys() | dir_b.keys())
    print(f"{configs} configs; {len(lines)} differences in exit code, "
          "records or verdicts")
    for line in lines:
        print(line)
    print(f"{'family':40} {'records':>8} {'changed':>8} {'max|d|':>10} "
          f"{'max|d|/tol':>10}")
    for name, (count, changed, delta, ratio) in sorted(families.items()):
        print(f"{name:40} {count:8d} {changed:8d} {delta:10.2e} {ratio:10.2e}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
