"""``python -m repro.lint`` — run the determinism linter over paths.

Exit codes: 0 clean, 1 violations found, 2 usage error.  ``--format
json`` prints the machine-readable report (the same payload ``--output``
writes for CI artifacts); the default text format prints one
editor-clickable line per violation (whole-program violations carry
their full call chain as indented hop lines) plus a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .engine import lint_paths, report_as_dict
from .rules import RULES
from .wholeprogram import PROJECT_RULES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST checks for the determinism and protocol "
        "invariants this reproduction depends on (see "
        "docs/static-analysis.md)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format (json = the CI report payload; with "
        "--list-rules, the machine-readable catalogue)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (CI artifact); parent "
        "directories are created",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit (honours --format json)",
    )
    return parser


def _codes(arg: Optional[str]) -> Optional[List[str]]:
    if arg is None:
        return None
    return [c.strip() for c in arg.split(",") if c.strip()]


def _list_rules(fmt: str) -> int:
    catalogue = [
        {
            "code": code,
            "name": rule.name,
            "scope": rule.scope,
            "summary": rule.summary,
        }
        for code, rule in sorted({**RULES, **PROJECT_RULES}.items())
    ]
    if fmt == "json":
        print(json.dumps({"kind": "repro-lint-rules", "rules": catalogue}, indent=2))
    else:
        for entry in catalogue:
            print(
                f"{entry['code']}  [{entry['scope']}] "
                f"{entry['name']}: {entry['summary']}"
            )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code (0/1/2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        return _list_rules(args.format)
    try:
        report = lint_paths(
            args.paths,
            select=_codes(args.select),
            ignore=_codes(args.ignore),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = report_as_dict(report)
    if args.output:
        parent = os.path.dirname(os.path.abspath(args.output))
        os.makedirs(parent, exist_ok=True)
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for violation in report.violations:
            print(violation.render())
        counts = ", ".join(
            f"{code}×{n}" for code, n in report.counts().items()
        )
        status = "clean" if report.clean else counts
        print(
            f"repro.lint: {report.files} files, "
            f"{len(report.violations)} violation(s) [{status}]"
        )
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
