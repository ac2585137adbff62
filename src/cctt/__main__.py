"""Batch checker command line.

`cctt check FILE... [--corpus DIR] [--max-steps N] [--trace-conv]`, or
`python -m cctt check ...`, checks each file's declarations in order,
each in the empty context, and reports one `PASS|FAIL|SKIP file:decl` line
per declaration (`cli.check_file`).  Exit status 0 means
every expectation was met, 1 means some expectation was violated, 2 means
a usage or I/O problem.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cli import Report, check_file
from .errors import IoError


def gather_files(paths, corpus):
    files = [Path(p) for p in paths]
    if corpus is not None:
        root = Path(corpus)
        if not root.is_dir():
            raise IoError(f"corpus directory {corpus} does not exist")
        files.extend(sorted(root.rglob("*.cctt")))
    if not files:
        raise IoError("no input files")
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(prog="cctt")
    sub = parser.add_subparsers(dest="command")
    chk = sub.add_parser("check", help="check .cctt files")
    chk.add_argument("files", nargs="*")
    chk.add_argument("--corpus", metavar="DIR",
                     help="also check every .cctt file under DIR")
    chk.add_argument("--max-steps", type=int, default=1_000_000,
                     help="reduction step budget per file")
    chk.add_argument("--trace-conv", action="store_true",
                     help="print normal forms for conversion checks")
    args = parser.parse_args(argv)
    if args.command != "check":
        parser.print_usage(sys.stderr)
        return 2
    if args.max_steps < 0:
        print("error: --max-steps must not be negative", file=sys.stderr)
        return 2
    report = Report()
    try:
        files = gather_files(args.files, args.corpus)
        for path in files:
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as err:
                raise IoError(f"cannot read {path}: {err}") from err
            except UnicodeDecodeError as err:
                report.record("FAIL", str(path), "module",
                              f"ParseError: {err}")
                continue
            check_file(str(path), text, args.max_steps, report,
                       trace=args.trace_conv)
    except IoError as err:
        print(f"error: {err.message}", file=sys.stderr)
        return 2
    total = len(report.lines)
    passed = sum(1 for s, _, _ in report.lines if s == "PASS")
    skipped = sum(1 for s, _, _ in report.lines if s == "SKIP")
    print(f"{total} declarations: {passed} passed, {report.failed} failed,"
          f" {skipped} skipped")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
